import json
import os
import subprocess
import sys

import numpy as np
import pytest

from anisofield import _blas
from anisofield.experiments import ExperimentConfig, run_experiment


class TestOneBlasThread:
    def test_pinned_inside_and_restored(self):
        found = _blas._openblas()
        if found is None:
            pytest.skip("no OpenBLAS with a thread-count pair is loaded")
        _, get, _ = found
        before = get()
        with _blas.one_blas_thread() as state:
            assert get() == 1
        assert get() == before
        assert state["pinned"] is True
        assert state["threads"] == before
        assert isinstance(state["library"], str) and state["library"]

    def test_restored_after_an_exception(self):
        found = _blas._openblas()
        if found is None:
            pytest.skip("no OpenBLAS with a thread-count pair is loaded")
        _, get, _ = found
        before = get()
        with pytest.raises(RuntimeError):
            with _blas.one_blas_thread():
                raise RuntimeError
        assert get() == before

    def test_no_handle_is_a_recorded_no_op(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_blas, "_openblas", lambda: None)
        with _blas.one_blas_thread() as state:
            pass
        assert state == {"library": None, "threads": None, "pinned": False}
        cfg = ExperimentConfig.from_dict("metric-check",
                                         {"out_dir": str(tmp_path / "run")})
        assert run_experiment(cfg).blas == state

    def test_factor_bits_do_not_depend_on_the_library_count(self):
        # a covariance large enough for OpenBLAS to split its factor
        found = _blas._openblas()
        if found is None:
            pytest.skip("no OpenBLAS with a thread-count pair is loaded")
        _, get, put = found
        rng = np.random.default_rng(3)
        a = rng.standard_normal((600, 600))
        cov = a @ a.T + 600.0 * np.eye(600)
        before = get()
        try:
            factors = []
            for count in (1, 2):
                put(count)
                assert get() == count
                with _blas.one_blas_thread():
                    factors.append(np.linalg.cholesky(cov))
        finally:
            put(before)
        assert np.array_equal(factors[0], factors[1])


def _child(code, **env_set):
    """Run code in a fresh interpreter that imports anisofield from this
    tree, with none of the thread-count variables set but env_set; returns
    the JSON its last stdout line holds."""
    src = os.path.dirname(os.path.dirname(_blas.__file__))
    env = {k: v for k, v in os.environ.items() if k not in _blas._COUNT_VARS}
    env.update(env_set)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import importlib, json, os, sys\n" + code],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# the library's thread count, or None when no handle is found
_COUNT = ("(lambda found: found and found[1]())"
          "(importlib.import_module('anisofield._blas')._openblas())")


def _bare_count(**env_set):
    """The count a bare `import numpy` gives: _blas.py is loaded by path,
    outside the package, after numpy, so its load-time rule is a no-op."""
    return _child(
        "import numpy, importlib.util\n"
        "spec = importlib.util.spec_from_file_location(\n"
        f"    'anisofield._blas', {_blas.__file__!r})\n"
        "sys.modules[spec.name] = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(sys.modules[spec.name])\n"
        f"print(json.dumps({_COUNT}))\n", **env_set)


class TestLoadedAtOneThread:
    def test_no_count_set_loads_one_thread(self):
        doc = _child(
            "import anisofield\n"
            "tasks = (len(os.listdir('/proc/self/task'))\n"
            "         if sys.platform.startswith('linux') else None)\n"
            f"print(json.dumps({{'tasks': tasks, 'threads': {_COUNT},\n"
            "    'env': 'OPENBLAS_NUM_THREADS' in os.environ}))\n")
        assert doc["env"] is False
        if doc["threads"] is None:
            pytest.skip("no OpenBLAS with a thread-count pair is loaded")
        assert doc["threads"] == 1
        if doc["tasks"] is not None:
            assert doc["tasks"] == 1

    @pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_a_count_the_user_sets_is_kept(self, var):
        bare = _bare_count(**{var: "2"})
        if bare is None:
            pytest.skip("no OpenBLAS with a thread-count pair is loaded")
        if bare < 2:
            pytest.skip("OpenBLAS caps its count at one CPU on this host")
        assert _child(f"import anisofield\nprint(json.dumps({_COUNT}))\n",
                      **{var: "2"}) == 2

    def test_numpy_imported_first_is_left_alone(self):
        bare = _bare_count()
        if bare is None:
            pytest.skip("no OpenBLAS with a thread-count pair is loaded")
        assert _child("import numpy\nimport anisofield\n"
                      f"print(json.dumps({_COUNT}))\n") == bare

    def test_a_later_child_inherits_no_count(self):
        seen = _child(
            "import subprocess, anisofield\n"
            "print(subprocess.run([sys.executable, '-c', 'import json, os; print("
            "json.dumps(os.environ.get(\"OPENBLAS_NUM_THREADS\")))'],\n"
            "    capture_output=True, text=True, check=True).stdout)\n")
        assert seen is None
