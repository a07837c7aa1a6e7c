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
                with _blas.one_blas_thread():
                    factors.append(np.linalg.cholesky(cov))
        finally:
            put(before)
        assert np.array_equal(factors[0], factors[1])
