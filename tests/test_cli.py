import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from typing import get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import given, strategies as st

from anisofield import calibration
from anisofield import field as fieldmod
from anisofield import experiments
from anisofield.cli import build_parser, config_from_args, main
from anisofield.errors import NumericalCheckFailed
from anisofield.experiments import (PARAM_CLASSES, ExperimentConfig,
                                    default_out_dir, params_from_dict,
                                    run_experiment, HittingScanParams,
                                    MetricCheckParams)

NUMERIC_KEYS = [(kind, name, get_type_hints(cls)[name])
                for kind, cls in PARAM_CLASSES.items()
                for name in get_type_hints(cls)
                if get_type_hints(cls)[name] in (int, float)]
WRONG_VALUES = {
    int: st.one_of(st.booleans(), st.floats(), st.none(), st.text(max_size=4),
                   st.lists(st.integers(), max_size=2)),
    # an int beyond float64 once overflowed in math.isfinite, a traceback
    float: st.one_of(st.booleans(), st.none(), st.text(max_size=4),
                     st.lists(st.floats(), max_size=2),
                     st.sampled_from([math.nan, math.inf, -math.inf,
                                      10**400, -10**400])),
}

# one list value per list key: a kind's default with its first number
# replaced by a wrongly typed element
LIST_KEYS = [pytest.param(kind, name, json.loads(json.dumps(getattr(cls, name))),
                          id=f"{kind}-{name}")
             for kind, cls in PARAM_CLASSES.items()
             for name in get_type_hints(cls)
             if get_origin(get_type_hints(cls)[name]) is tuple]
BAD_ELEMENTS = ["0.1", True, [0.1]]

# the small configs of the determinism acceptance test, at seed 17; the
# metric-check and calib-sim results.csv digests were re-pinned when their
# quadratures moved from QUADPACK to numpy (tool version 0.2.0), and every
# entry that draws normals was re-pinned when replicate i of a stream came
# to be keyed by the stream's hash and i (tool version 0.7.0)
GOLDEN = [
    # both re-pinned when the field draw became L_K Z L_G^T from the n x n
    # kernel factor instead of the factor of the nd x nd covariance (tool
    # version 0.5.0): the draws agree with the old ones up to rounding
    ("modulus-scan", {"n_samples": 40, "n_points": 101, "eps": [0.05, 0.1]},
     "7138381a4076dd896360d4e4f3680c4019cb3c061bb40362b9e8920165b1382f",
     "dbaaab09edbcbe23b898014e4c916b3746c01dd0cf5a0784fdefe120b5552af7"),
    ("field-sim", {"n_samples": 40, "n_grid": 6},
     "f28aa3b5e65de12478f035cf52e8ec83220b531d8d638e615076072dbdf0ccfc",
     "c023cea511a7be936be810e57265c619a0fa7c8d972e1b76d1f5fd24154bb7b8"),
    ("hitting-scan", {"n_mc": 200, "radii": [0.2, 0.1]},
     "75cda22086de668ceccf8e9c8ffec31af50a348221462dbefab24ae3c60c4a32",
     "7c67fbda2ef0eab237bc52fb8f8916580da31b69d19e06f26aaa72871c773094"),
    ("polarity-scan", {"n_mc": 200, "deltas": [0.2, 0.1]},
     "7a2f1023b11b33a2061900a5ee58216c49ee015468e931b6d2d57c1817f3e7b8",
     "415f108a9d9a06c298fec23bf22c0a8eb98d579dad4cf89da922cc650c672dfc"),
    # a nonzero drift, so that the sign of its translation is pinned; the
    # affine entry was re-pinned when the ball grids kept their boundary
    # points, and the field entries when the field drift became a random
    # trigonometric polynomial (both tool version 0.4.0)
    ("hitting-scan", {"n_mc": 200, "radii": [0.2, 0.1], "drift_kind": "affine",
                      "drift_L": 0.5},
     "e6f6d70690dfcdf08433d831b26b323fab0f6dcaa8acd53566d69a2e410f78d3",
     "d27b0d67dd39b6ff8d9ab4dd8245bdb2a0e71c4a995e842337118b9cbaed4103"),
    ("hitting-scan", {"n_mc": 200, "radii": [0.2, 0.1], "drift_kind": "field",
                      "drift_L": 0.5},
     "7761ae3c62ce13c326edfc6e5166e6b036bcdf689c182684ac59b96a7b8ff157",
     "aed0546f53d9a470abbc552080ff9e87ac43b270859140747b00ed35d341a69f"),
    ("polarity-scan", {"n_mc": 200, "deltas": [0.2, 0.1], "drift_kind": "field",
                       "drift_L": 0.5},
     "ce0d90772c46de2c43cc09dc9cd576d6727c44fdb97774d448a194180cdf939e",
     "33ac59fde413078765d281aae9ee6419e2a376432eb04573ba27011cde874e11"),
    # results.csv re-pinned when the chaining_c2 and series rows went (tool
    # version 0.6.0); the entropy and cover rows, and report.json, are unchanged
    ("metric-check", {},
     "14cd26a63ce13359e67a752333a9d4144e87aa3d35d08c0123686269a5bfe7f7",
     "0fdd1f63b91679dc655f3d84905bbe1f5836c6004b63bfeb2ac02cfc1a6581a0"),
    # results.csv re-pinned when the transform came to be evaluated at its
    # argument instead of at the argument rounded to 10 decimals (tool
    # version 0.8.0); report.json is unchanged
    ("calib-sim", {"n_replicates": 10, "V": 3.0, "step": 0.2},
     "f61fd62831047c9ec382d47b5e374f50343e8e84ea87fec7383839eade8413b5",
     "8d176facbab392fa11a6a630366f8491e9c4f7bf3198a513c5edcb981a932e20"),
    # re-pinned when the grid dropped its mirrored v < 0 half (tool version
    # 0.2.2): the v >= 0 rows are unchanged, and the report's error is now
    # taken over them alone
    ("calib-noiseless", {"V": 5.0, "step": 0.05},
     "200dbb1a8a67dd2482ea2bf999662c1a7f2067908d72f7455cc85e85ce3aa7aa",
     "760ce7349235e90339465d3d4bf4434741630a3c11e0efe0c9d9f1dc4ae7d592"),
]

# the calib-sim-fine benchmark config at seed 101: a 992-point grid, so the
# spectral covariances reach lags the small calib-sim entry above never has;
# results.csv re-pinned for the one-thread BLAS bits (tool version 0.3.0), for
# the stream keys of tool version 0.7.0, and for the spectral draws in blocks
# of 256 replicates and the unrounded transform arguments (tool version 0.8.0)
GOLDEN_CALIB_FINE = (
    {"V": 10.0, "step": 0.01, "noise_scales": [1e-3, 1e-2, 1e-1],
     "n_replicates": 1000}, 101,
    "076aa6e57c5ceb8c83b7789da7bd950c7796d5e024bf76978be23075ad094168",
    "856ac666d7e411592b41ec1b04577b04698af72c5f8966fde597c5f89a5c3965")

# the polarity-field-drift benchmark config at seed 101: a 129-point grid with
# a field drift; re-pinned when that drift became a random trigonometric
# polynomial with a closed-form continuum bound (tool version 0.4.0), and for
# the stream keys of tool version 0.7.0
GOLDEN_POLARITY_FIELD_DRIFT = (
    {"hurst": [0.75], "grid_step": 1.0 / 128.0, "drift_kind": "field",
     "drift_L": 0.5, "deltas": [0.2, 0.1, 0.05, 0.025], "n_mc": 600}, 101,
    "e8588a0a5f78501fce02a9a940fdaceb27652eaec833381a77883bc13bb4368d",
    "085d287331edf29a2703c71188f65b2e2d1228ad8b77b87a97a3a5c635726292")


def _with_first_leaf(value, element):
    """value with its first (innermost, leftmost) number replaced by element."""
    if isinstance(value, list):
        return [_with_first_leaf(value[0], element)] + value[1:]
    return element


class TestConfigParsing:
    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            params_from_dict(MetricCheckParams, {"hurst": [0.5], "bogus": 1})

    def test_unknown_kind_rejected(self):
        # chaining-check was a kind until 0.6.0
        for kind in ("frobnicate", "chaining-check"):
            with pytest.raises(ValueError, match="unknown experiment kind"):
                ExperimentConfig.from_dict(kind, {})

    def test_typed_key_cases_cover_every_params_field(self):
        # 45 fields over 7 kinds at tool version 0.8.0; every number and
        # list key is a case of the type tests below
        assert sum(len(get_type_hints(cls)) for cls in PARAM_CLASSES.values()) == 45
        assert len(PARAM_CLASSES) == 7
        assert {f"{kind}-{key}" for kind, key, _ in NUMERIC_KEYS} == {
            "metric-check-test_grid_points", "field-sim-n_grid",
            "field-sim-n_samples", "hitting-scan-n_mc",
            "hitting-scan-ball_points_per_axis", "hitting-scan-drift_L",
            "polarity-scan-n_mc", "polarity-scan-grid_step",
            "polarity-scan-drift_L", "modulus-scan-n_points",
            "modulus-scan-n_samples", "calib-noiseless-V",
            "calib-noiseless-step", "calib-sim-noise_a", "calib-sim-noise_p",
            "calib-sim-V", "calib-sim-step", "calib-sim-n_replicates"}
        assert {p.id for p in LIST_KEYS} == {
            f"{kind}-{key}" for kind in ("metric-check",)
            for key in ("hurst", "entropy_x", "cover_radii")} | {
            f"{kind}-{key}" for kind in ("field-sim", "hitting-scan",
                                         "polarity-scan", "modulus-scan")
            for key in ("hurst", "mixing", "box_lo", "box_hi")} | {
            "hitting-scan-t", "hitting-scan-radii", "polarity-scan-center",
            "polarity-scan-deltas", "modulus-scan-eps",
            "calib-sim-noise_scales"}
        assert len(LIST_KEYS) == 25

    def test_echo_round_trips(self):
        cfg = ExperimentConfig.from_dict(
            "hitting-scan", {"hurst": [0.75], "radii": [0.2, 0.1], "seed": 9})
        echoed = cfg.echo()
        again = ExperimentConfig.from_dict("hitting-scan", echoed)
        assert again == cfg
        assert echoed["radii"] == [0.2, 0.1] and echoed["seed"] == 9

    def test_set_override_json_typed(self):
        args = build_parser().parse_args(
            ["hitting-scan", "--set", "radii=[0.3,0.15]",
             "--set", "drift_kind=zero", "--seed", "4", "--out", "/tmp/x"])
        cfg = config_from_args(args)
        assert cfg.params.radii == (0.3, 0.15)
        assert cfg.params.drift_kind == "zero"
        assert cfg.seed == 4 and cfg.out_dir == "/tmp/x"

    def test_config_file_then_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_mc": 50, "radii": [0.2, 0.1]}))
        args = build_parser().parse_args(
            ["hitting-scan", "--config", str(path), "--set", "n_mc=75"])
        cfg = config_from_args(args)
        assert cfg.params.n_mc == 75 and cfg.params.radii == (0.2, 0.1)

    def test_default_out_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ANISOFIELD_OUT", str(tmp_path))
        assert default_out_dir("metric-check") == str(tmp_path / "metric-check")

    @pytest.mark.parametrize("key,value", [
        ("n_replicates", [1]), ("n_replicates", "x"), ("n_replicates", 1e9),
        ("n_replicates", True), ("V", False), ("noise_scales", 0.1),
        ("seed", 1.5), ("workers", "2")])
    def test_wrong_type_refused(self, key, value):
        with pytest.raises(ValueError, match=f"config key '{key}' expects"):
            ExperimentConfig.from_dict("calib-sim", {key: value})

    def test_valid_values_kept_as_given(self):
        cfg = ExperimentConfig.from_dict(
            "calib-sim", {"V": 3, "noise_scales": [1e-3, 1], "seed": 2})
        assert cfg.params.V == 3 and type(cfg.params.V) is int
        assert cfg.echo()["noise_scales"] == [1e-3, 1]

    @pytest.mark.parametrize("kind,over,module,draw", [
        ("calib-sim", {"noise_scales": [1e-3, 1e-2, 1e-3], "n_replicates": 5},
         calibration, "spectral_blocks"),
        ("modulus-scan", {"eps": [0.1, 0.1], "n_samples": 2},
         fieldmod, "path_blocks")], ids=["calib-sim", "modulus-scan"])
    def test_repeated_scan_value_refused_before_drawing(
            self, tmp_path, monkeypatch, kind, over, module, draw):
        calls = []
        monkeypatch.setattr(module, draw, lambda *a, **k: calls.append(a))
        out = tmp_path / "run"
        cfg = ExperimentConfig.from_dict(kind, dict(over, out_dir=str(out)))
        with pytest.raises(ValueError, match="must be distinct"):
            run_experiment(cfg)
        assert calls == [] and not out.exists()

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict("metric-check", {"workers": 0})


class TestStartup:
    def test_import_does_not_load_scipy_stats(self):
        # scipy.stats would add about half a second to every cold start
        import anisofield
        src = os.path.dirname(os.path.dirname(anisofield.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        code = ("import sys, anisofield\n"
                "from anisofield import experiments, cli\n"
                "assert anisofield.__file__.startswith(sys.argv[1])\n"
                "assert 'scipy.stats' not in sys.modules\n")
        proc = subprocess.run([sys.executable, "-c", code, src], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_scan_loads_no_dataclasses_or_calibration(self, tmp_path):
        # a scan's cold start pays neither for generated record code nor
        # for the calibration module; a calib kind run after it in the same
        # interpreter loads calibration then and keeps its digests
        prelude = (
            "from anisofield import cli\n"
            "rc = cli.main(['polarity-scan', '--out', sys.argv[2] + '/scan',\n"
            "               '--set', 'n_mc=20', '--set', 'grid_step=0.0625'])\n"
            "assert rc == 0, rc\n"
            "late = {'dataclasses', 'anisofield.calibration'} & set(sys.modules)\n"
            "assert not late, late\n")
        calib_sim = next(c for c in GOLDEN_CASES if c[0] == "calib-sim")
        proc = run_golden_in_child(tmp_path, [calib_sim], {}, prelude)
        assert proc.returncode == 0, proc.stderr

    def test_runtime_needs_no_scipy(self, tmp_path):
        # with sys.modules["scipy"] = None every scipy import raises, so each
        # kind must run on numpy alone and still give its pinned digests
        assert {g[0] for g in GOLDEN} == set(PARAM_CLASSES)
        proc = run_golden_in_child(tmp_path, GOLDEN_CASES, {},
                                   "sys.modules['scipy'] = None\n")
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_digests_do_not_depend_on_blas_threads(self, tmp_path, threads):
        # the library starts with this many threads; every run pins it to
        # one, so the factors and products keep the pinned bits
        proc = run_golden_in_child(
            tmp_path, GOLDEN_CASES + [("calib-sim", *GOLDEN_CALIB_FINE)],
            {"OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr


# every GOLDEN entry as (kind, overrides, seed, results, report)
GOLDEN_CASES = [(kind, over, 17, results, report)
                for kind, over, results, report in GOLDEN]


def run_golden_in_child(tmp_path, cases, env_extra, prelude=""):
    """Run each (kind, overrides, seed, results, report) case in one fresh
    interpreter, after prelude, and check its digests, both as the manifest
    gives them and as the written files re-read give them, and that no
    scipy module was loaded; returns the finished process."""
    import anisofield
    src = os.path.dirname(os.path.dirname(anisofield.__file__))
    env = dict(os.environ, **env_extra)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import hashlib, json, os, sys\n" + prelude +
            "import anisofield\n"
            "from anisofield import experiments, cli\n"
            "assert anisofield.__file__.startswith(sys.argv[1])\n"
            "for i, (kind, over, seed, results, report) in enumerate(\n"
            "        json.loads(sys.argv[3])):\n"
            "    cfg = experiments.ExperimentConfig.from_dict(kind, dict(\n"
            "        over, seed=seed, out_dir=os.path.join(sys.argv[2], str(i))))\n"
            "    man = experiments.run_experiment(cfg)\n"
            "    assert man.outputs == {'results.csv': results,\n"
            "                           'report.json': report}, kind\n"
            "    for name, digest in man.outputs.items():\n"
            "        with open(os.path.join(cfg.out_dir, name), 'rb') as fh:\n"
            "            assert hashlib.sha256(fh.read()).hexdigest() == digest, name\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
            "          and sys.modules[m] is not None]\n"
            "assert not loaded, loaded\n")
    return subprocess.run(
        [sys.executable, "-c", code, src, str(tmp_path), json.dumps(cases)],
        env=env, capture_output=True, text=True)


class TestMainExitCodes:
    def test_success_prints_digests(self, tmp_path, capsys):
        rc = main(["metric-check", "--out", str(tmp_path / "run")])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "metric-check"
        assert set(doc["outputs"]) == {"results.csv", "report.json"}
        assert (tmp_path / "run" / "manifest.json").exists()

    def test_refusal_exits_2_with_json_error(self, tmp_path, capsys):
        # a Hurst vector with Q >= d makes the polarity question vacuous
        rc = main(["polarity-scan", "--out", str(tmp_path / "run"),
                   "--set", "hurst=[0.4]", "--set", "n_mc=10"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "Refusal"
        assert "Q < d" in err["message"]

    @pytest.mark.parametrize("kind,key,size", [
        ("polarity-scan", "deltas", "n_mc=10"),
        ("hitting-scan", "radii", "n_mc=10"),
        ("modulus-scan", "eps", "n_samples=2"),
        ("calib-sim", "noise_scales", "n_replicates=2"),
        ("metric-check", "entropy_x", "test_grid_points=100"),
        ("metric-check", "cover_radii", "test_grid_points=100")])
    def test_empty_scan_exits_2(self, tmp_path, capsys, kind, key, size):
        out = tmp_path / "run"
        rc = main([kind, "--out", str(out), "--set", f"{key}=[]", "--set", size])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "nonempty" in err["message"]
        # refused by the runner, after from_dict accepted the config: no
        # output directory is left behind
        assert not out.exists()

    @pytest.mark.parametrize("kind,item,size", [
        ("calib-sim", "noise_scales=[0.001,0.001]", "n_replicates=5"),
        ("modulus-scan", "eps=[0.1,0.05,0.1]", "n_samples=2"),
        ("hitting-scan", "radii=[0.2,0.2]", "n_mc=10")])
    def test_repeated_scan_value_exits_2(self, tmp_path, capsys, kind, item,
                                         size):
        # a repeated noise scale counted its replicates twice, and a
        # repeated eps wrote its row twice
        out = tmp_path / "run"
        assert main([kind, "--out", str(out), "--set", item,
                     "--set", size]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert f"{item.split('=')[0]} must be distinct" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["nope"], ["chaining-check"], ["metric-check", "--set", "foo"],
        ["metric-check", "--seed", "abc"]],
        ids=["unknown-kind", "removed-kind", "set-without-value", "seed-abc"])
    def test_usage_error_exits_2_with_json_error(self, tmp_path, capsys, argv):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert set(err) == {"error", "message"}
        assert err["error"] == "UsageError"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["-h"], ["metric-check", "-h"]])
    def test_help_is_argparse_text(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: anisofield")
        assert captured.err == ""

    @pytest.mark.parametrize("kind,key,value", [
        ("calib-sim", "n_replicates", 0),
        ("field-sim", "n_samples", 0),
        ("modulus-scan", "n_samples", 0),
        ("polarity-scan", "grid_step", 0.0),
        ("hitting-scan", "ball_points_per_axis", 0)])
    def test_zero_size_or_step_exits_2(self, tmp_path, capsys, kind, key,
                                       value):
        out = tmp_path / "run"
        rc = main([kind, "--out", str(out), "--set", f"{key}={value}"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        if key == "ball_points_per_axis":  # refused by the ball grid's minimum
            assert err["error"] == "Refusal"
            assert err["message"].startswith(f"{key} 0 is below its minimum of 7")
        else:
            assert err["error"] == "ValueError"
            assert err["message"].startswith(f"{key} must be")
        assert not out.exists()

    @pytest.mark.parametrize("extra", [[], [
        "--set", "hurst=[0.8,0.9]", "--set", "box_lo=[0,0]",
        "--set", "box_hi=[1,1]", "--set", "t=[0.5,0.5]"]], ids=["1d", "2d"])
    def test_ball_points_below_seven_names_its_key(self, tmp_path, capsys,
                                                   extra):
        # the ball grid's narrowest axis has ball_points_per_axis + 1 points
        # and a lattice needs 8; the refusal once named grid_step, a key
        # that hitting-scan does not have
        out = tmp_path / "run"
        rc = main(["hitting-scan", "--out", str(out), "--set",
                   "ball_points_per_axis=6", *extra])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "Refusal"
        assert "ball_points_per_axis" in err["message"]
        assert "minimum of 7" in err["message"]
        assert "grid_step" not in err["message"]
        assert not out.exists()

    def test_field_drift_on_a_flat_box_exits_2(self, tmp_path, capsys):
        # the drift's frequencies pi m / D_j need every width D_j > 0
        out = tmp_path / "run"
        rc = main(["hitting-scan", "--out", str(out), "--set", "n_mc=10",
                   "--set", "hurst=[0.75,0.75]", "--set", "box_lo=[0,0.5]",
                   "--set", "box_hi=[1,0.5]", "--set", "t=[0.5,0.5]",
                   "--set", "drift_kind=field", "--set", "drift_L=0.5"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and "positive width" in err["message"]
        assert not out.exists()

    def test_box_upper_edge_counts_toward_the_grid(self, tmp_path):
        # 0, 0.1, ..., 0.7 is 8 points although 0.7 / 0.1 is just below 7
        rc = main(["polarity-scan", "--out", str(tmp_path / "run"),
                   "--set", "box_hi=[0.7]", "--set", "grid_step=0.1",
                   "--set", "n_mc=20"])
        assert rc == 0

    @pytest.mark.parametrize("kind", ["field-sim", "modulus-scan"])
    @pytest.mark.parametrize("lo,hi,message", [
        ("[0.0,0.0]", "[1.0]", "malformed box"),
        ("[0.5]", "[0.5]", "box_hi > box_lo"),
        ("[0.5]", "[0.2]", "empty or unbounded box")],
        ids=["mismatched", "zero-width", "reversed"])
    def test_malformed_box_exits_2(self, tmp_path, capsys, kind, lo, hi,
                                   message):
        out = tmp_path / "run"
        rc = main([kind, "--out", str(out), "--set", f"box_lo={lo}",
                   "--set", f"box_hi={hi}"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and message in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("kind,sizes", [
        ("hitting-scan", ["n_mc=20"]),
        ("polarity-scan", ["n_mc=20", "grid_step=0.0625"])])
    def test_box_of_another_dimension_exits_2(self, tmp_path, capsys, kind,
                                              sizes):
        # a 2-D box against the default 1-D Hurst vector
        out = tmp_path / "run"
        argv = [kind, "--out", str(out), "--set", "box_lo=[0,0]",
                "--set", "box_hi=[1,1]"]
        for item in sizes:
            argv += ["--set", item]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and "dimension" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("drift", ["zero", "affine", "field"])
    @pytest.mark.parametrize("kind,sizes", [
        ("hitting-scan", ["n_mc=20"]),
        ("polarity-scan", ["n_mc=20", "grid_step=0.0625"])])
    def test_negative_drift_L_exits_2(self, tmp_path, capsys, kind, sizes,
                                      drift):
        out = tmp_path / "run"
        argv = [kind, "--out", str(out), "--set", f"drift_kind={drift}",
                "--set", "drift_L=-1"]
        for item in sizes:
            argv += ["--set", item]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and "nonnegative" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("kind,sizes", [
        ("hitting-scan", ["n_mc=50"]),
        ("polarity-scan", ["n_mc=50", "grid_step=0.0625"]),
        ("modulus-scan", ["n_samples=2"])])
    def test_singular_mixing_exits_2(self, tmp_path, capsys, kind, sizes):
        # A A^T = [[2, 2], [2, 2]] has no eigenvalue floor; the scan refuses
        # the model before drawing, where jitter would have let it factor
        out = tmp_path / "run"
        argv = [kind, "--out", str(out), "--set", "mixing=[[1,1],[1,1]]"]
        for item in sizes:
            argv += ["--set", item]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ModelRejected" and "singular" in err["message"]
        assert not out.exists()

    def test_unallocatable_grid_exits_2(self, tmp_path, capsys):
        # about 10^7 frequencies: the covariance blocks would need hundreds of
        # TiB, which is refused before any transform is computed
        out = tmp_path / "run"
        start = time.perf_counter()
        rc = main(["calib-sim", "--out", str(out), "--set", "V=10.0",
                   "--set", "step=1e-6"])
        assert time.perf_counter() - start < 10.0
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert set(err) == {"error", "message"}
        assert err["error"] == "MemoryError"
        assert not out.exists()

    def test_oversized_grid_refused_before_allocating(self, tmp_path):
        # the bound comes from V and step alone: a child refused by it peaks
        # near its import footprint, far below the ~10^7-point grid's arrays.
        # A small relay starts the child, because a child forked from this
        # process would count this process's peak RSS as its own.
        import anisofield
        src = os.path.dirname(os.path.dirname(anisofield.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        relay = ("import os, subprocess, sys\n"
                 "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
                 "_, status, usage = os.wait4(proc.pid, 0)\n"
                 "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n")
        out = tmp_path / "run"
        proc = subprocess.run(
            [sys.executable, "-c", relay, sys.executable, "-m", "anisofield",
             "calib-sim", "--out", str(out), "--set", "V=10.0",
             "--set", "step=1e-6"],
            env=env, capture_output=True, text=True)
        rc, maxrss_kib = map(int, proc.stdout.split())
        assert rc == 2
        assert maxrss_kib < 80 * 1024  # ru_maxrss is in KiB on Linux
        err = json.loads(proc.stderr)
        assert err["error"] == "MemoryError"
        assert "physical memory" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("kind,item", [
        ("hitting-scan", "n_mc=1000000000"),
        ("calib-sim", "n_replicates=1000000000")])
    def test_huge_replicate_count_refused_fast(self, tmp_path, kind, item):
        # the (n, dim) normals of a scan, and calib-sim's per-replicate
        # results, are allocated before any per-replicate work, so an
        # address-space limit refuses them at once (calib-sim's row budget
        # refuses this count even earlier)
        import anisofield
        src = os.path.dirname(os.path.dirname(anisofield.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        code = ("import resource, sys\n"
                "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
                "from anisofield.cli import main\n"
                "raise SystemExit(main(sys.argv[1:]))\n")
        out = tmp_path / "run"
        proc = subprocess.run(
            [sys.executable, "-c", code, kind, "--out", str(out), "--set", item],
            env=env, capture_output=True, text=True, timeout=20)
        assert proc.returncode == 2, proc.stderr
        (line,) = proc.stderr.splitlines()
        err = json.loads(line)
        assert set(err) == {"error", "message"}
        assert err["error"] == "MemoryError"
        assert not out.exists()

    @pytest.mark.parametrize("kind,item", [
        ("hitting-scan", "ball_points_per_axis=1000000000"),
        ("polarity-scan", "grid_step=1e-9")])
    def test_huge_lattice_refused_before_it_is_built(self, tmp_path, kind, item):
        # about 10^9 points: the lattice's 8 n^2-byte kernel matrix is
        # refused from its per-axis counts, before the lattice's own 8 GB
        # would be allocated; the limit keeps a regression from taking the
        # host's memory
        import anisofield
        src = os.path.dirname(os.path.dirname(anisofield.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        code = ("import resource, sys\n"
                "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
                "from anisofield.cli import main\n"
                "raise SystemExit(main(sys.argv[1:]))\n")
        out = tmp_path / "run"
        proc = subprocess.run(
            [sys.executable, "-c", code, kind, "--out", str(out), "--set", item],
            env=env, capture_output=True, text=True, timeout=20)
        assert proc.returncode == 2, proc.stderr
        (line,) = proc.stderr.splitlines()
        err = json.loads(line)
        assert err["error"] == "MemoryError"
        assert "kernel matrix entries of a 1e+09-point lattice" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("kind,item", [
        ("field-sim", "n_grid=100000"), ("modulus-scan", "n_points=100000")])
    def test_huge_mesh_refused_before_it_is_built(self, tmp_path, kind, item):
        # 10^5 points: the mesh's 8 n^2-byte kernel matrix is refused from
        # its count, before condition 1 walks its 5 10^9 pairs or the kernel
        # is built
        import anisofield
        src = os.path.dirname(os.path.dirname(anisofield.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        code = ("import resource, sys\n"
                "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
                "from anisofield.cli import main\n"
                "raise SystemExit(main(sys.argv[1:]))\n")
        out = tmp_path / "run"
        proc = subprocess.run(
            [sys.executable, "-c", code, kind, "--out", str(out), "--set", item],
            env=env, capture_output=True, text=True, timeout=20)
        assert proc.returncode == 2, proc.stderr
        (line,) = proc.stderr.splitlines()
        err = json.loads(line)
        assert err["error"] == "MemoryError"
        assert "kernel matrix entries of a 1e+05-point mesh" in err["message"]
        assert not out.exists()

    def test_metric_check_mesh_is_not_refused(self, tmp_path):
        # 250,000 test points, whose kernel matrix would need 10^12 bytes:
        # metric-check builds no kernel, so its mesh has no kernel budget
        cfg = ExperimentConfig.from_dict("metric-check", {
            "test_grid_points": 250_000, "out_dir": str(tmp_path / "run")})
        assert run_experiment(cfg).kind == "metric-check"

    def test_replicate_rows_beyond_physical_memory_refused(self, tmp_path):
        # 10^9 result rows at 165 bytes each: refused by the calib-sim
        # budget before any draw, with no address-space limit; the spectral
        # draws stream in blocks, so without the budget this run would go
        # on for hours
        import anisofield
        src = os.path.dirname(os.path.dirname(anisofield.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / "run"
        proc = subprocess.run(
            [sys.executable, "-m", "anisofield", "calib-sim", "--out", str(out),
             "--set", "n_replicates=1000000000"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        (line,) = proc.stderr.splitlines()
        err = json.loads(line)
        assert set(err) == {"error", "message"}
        assert err["error"] == "MemoryError"
        assert "result rows" in err["message"]
        assert "physical memory" in err["message"]
        assert not out.exists()

    def test_noiseless_grid_beyond_physical_memory_refused(
            self, tmp_path, capsys, monkeypatch):
        # with 4 MiB of physical memory, step=1e-4 (about 10^5 frequencies)
        # is refused before FrequencyGrid allocates; the default step=0.01
        # (about 10^3) still runs
        real_sysconf, real_grid = os.sysconf, calibration.FrequencyGrid
        small = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1024}
        monkeypatch.setattr(os, "sysconf",
                            lambda name: small.get(name) or real_sysconf(name))
        grids = []

        def grid(*args):
            grids.append(args)
            return real_grid(*args)
        monkeypatch.setattr(calibration, "FrequencyGrid", grid)
        out = tmp_path / "run"
        assert main(["calib-noiseless", "--out", str(out),
                     "--set", "step=1e-4"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "MemoryError"
        assert "physical memory" in err["message"]
        assert grids == [] and not out.exists()
        assert main(["calib-noiseless", "--out", str(out)]) == 0
        assert grids == [(10.0, 0.01)]

    @pytest.mark.parametrize("kind,item,error,fragment", [
        ("hitting-scan", "radii=[0.2,0.1,0]", "ValueError", "must lie in"),
        ("hitting-scan", "radii=[0.2,-0.1]", "ValueError", "must lie in"),
        ("modulus-scan", "eps=[0.5,1.5]", "ValueError", "must lie in"),
        # a ball-grid step 2 r^(1/H) / 16 that overflows or underflows
        ("hitting-scan", "radii=[1e300]", "ValueError", "ball-grid step"),
        ("hitting-scan", "radii=[1e-300]", "ValueError", "ball-grid step"),
        # a positive step whose ball box rounds to t: width 0 on the axis;
        # the grids of every radius are built before the first draw
        ("hitting-scan", "radii=[1e-200]", "ValueError", "zero width"),
        ("hitting-scan", "radii=[0.2,1e-200]", "ValueError", "zero width"),
        # an A A^T that overflows: its NaN lambda_min once passed the floor
        ("polarity-scan", "mixing=[[1e300,0],[0,1e300]]", "ModelRejected",
         "not finite"),
        ("field-sim", "mixing=[[1e200,0],[0,1e200]]", "ModelRejected",
         "not finite"),
        ("modulus-scan", "mixing=[[1e160,0],[1,1e160]]", "ModelRejected",
         "not finite"),
        # A A^T is finite, but its trace overflows, or twice its trace does:
        # the domination constant sqrt(2 trace) would be written as Infinity
        ("field-sim", "mixing=[[1.3e154,0],[0,1.3e154]]", "ModelRejected",
         "not finite"),
        ("field-sim", "mixing=[[9e153,0],[0,9e153]]", "ModelRejected",
         "not finite")])
    def test_scan_value_out_of_range_refused_before_factoring(
            self, tmp_path, kind, item, error, fragment):
        # refused with one JSON line on stderr, no numpy warning ahead of
        # it, before any covariance is factored (the child's factorization
        # raises) and with no output directory
        import anisofield
        src = os.path.dirname(os.path.dirname(anisofield.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        code = ("import sys\n"
                "from anisofield import field\n"
                "def factor(cov):\n"
                "    raise AssertionError('factored')\n"
                "field.cholesky_with_jitter = factor\n"
                "from anisofield.cli import main\n"
                "raise SystemExit(main(sys.argv[1:]))\n")
        out = tmp_path / "run"
        proc = subprocess.run(
            [sys.executable, "-c", code, kind, "--out", str(out), "--set", item],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        (line,) = proc.stderr.splitlines()
        err = json.loads(line)
        assert set(err) == {"error", "message"}
        assert err["error"] == error and fragment in err["message"]
        assert not out.exists()

    def test_cover_beyond_float64_exits_2(self, tmp_path, capsys):
        # 1.3e30 cells on an axis once wrapped to a count of 1, and the
        # bound's r^(-Q) overflowed into a traceback; each is now refused
        for item in ("hurst=[0.01]", "cover_radii=[1e-300]", "hurst=[0.001]"):
            out = tmp_path / "run"
            assert main(["metric-check", "--out", str(out), "--set", item]) == 2
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "Refusal" and "cells on an axis" in err["message"]
            assert not out.exists()

    @given(st.sampled_from(NUMERIC_KEYS), st.data())
    def test_wrongly_typed_number_exits_2(self, tmp_path_factory, target, data):
        kind, key, annotation = target
        value = data.draw(WRONG_VALUES[annotation])
        out = tmp_path_factory.getbasetemp() / "typed"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main([kind, "--out", str(out),
                       "--set", f"{key}={json.dumps(value)}"])
        assert rc == 2
        doc = json.loads(err.getvalue())
        assert doc["error"] == "ValueError" and repr(key) in doc["message"]
        assert not out.exists()

    def test_empty_eps_refused_before_factoring(self, tmp_path, capsys,
                                                monkeypatch):
        calls = []
        real = fieldmod.cholesky_with_jitter

        def counting(cov):
            calls.append(cov.shape)
            return real(cov)
        monkeypatch.setattr(fieldmod, "cholesky_with_jitter", counting)
        rc = main(["modulus-scan", "--out", str(tmp_path / "empty"),
                   "--set", "eps=[]", "--set", "n_samples=2"])
        assert rc == 2 and calls == []
        assert "eps must be nonempty" in capsys.readouterr().err
        # the counter sees the factor of a nonempty scan
        rc = main(["modulus-scan", "--out", str(tmp_path / "run"),
                   "--set", "eps=[0.1]", "--set", "n_samples=2",
                   "--set", "n_points=21"])
        assert rc == 0 and len(calls) == 1

    @pytest.mark.parametrize("bad", BAD_ELEMENTS, ids=["str", "bool", "list"])
    @pytest.mark.parametrize("kind,key,default", LIST_KEYS)
    def test_wrongly_typed_list_element_exits_2(self, tmp_path, capsys, kind,
                                                key, default, bad):
        value = _with_first_leaf(default, bad)
        out = tmp_path / "run"
        rc = main([kind, "--out", str(out), "--set", f"{key}={json.dumps(value)}"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert f"config key {key!r} expects a number in each element" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("kind,key,default", LIST_KEYS)
    def test_non_finite_list_element_exits_2(self, tmp_path, capsys, kind,
                                             key, default):
        value = _with_first_leaf(default, math.nan)
        out = tmp_path / "run"
        rc = main([kind, "--out", str(out), "--set", f"{key}={json.dumps(value)}"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError",
                       "message": f"config key {key!r} must be finite, got nan"}
        assert not out.exists()

    @pytest.mark.parametrize("doc", ["[1]", "3", '"abc"'],
                             ids=["list", "number", "string"])
    def test_config_file_not_an_object_exits_2(self, tmp_path, capsys, doc):
        path = tmp_path / "cfg.json"
        path.write_text(doc)
        out = tmp_path / "run"
        rc = main(["metric-check", "--config", str(path), "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert str(path) in err["message"] and "JSON object" in err["message"]
        assert not out.exists()

    def test_numerical_check_failure_exits_2(self, tmp_path, capsys,
                                             monkeypatch):
        def broken(*args, **kwargs):
            raise NumericalCheckFailed("routes disagree")
        monkeypatch.setattr(calibration, "spectral_blocks", broken)
        rc = main(["calib-sim", "--out", str(tmp_path / "run"),
                   "--set", "n_replicates=2"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "NumericalCheckFailed",
                       "message": "routes disagree"}

    def test_bad_key_exits_2(self, tmp_path, capsys):
        rc = main(["metric-check", "--out", str(tmp_path / "run"),
                   "--set", "nope=1"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"


    @pytest.mark.parametrize("item", [
        "chaining_r=0.3", "chaining_n_max=3", "chaining_beta=30.0",
        "series_d=3", "series_c=2.0", "series_L=0.5", "series_k_max=10"])
    def test_removed_chaining_keys_exit_2(self, tmp_path, capsys, item):
        # metric-check evaluates no chaining constant: without a model's
        # condition-1 constant and drift, its free settings meant nothing
        out = tmp_path / "run"
        assert main(["metric-check", "--out", str(out), "--set", item]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "unknown config keys" in err["message"]
        assert item.split("=")[0] in err["message"]
        assert not out.exists()

    def test_removed_calib_sim_T_exits_2(self, tmp_path, capsys):
        # calib-sim writes only well-definedness verdicts, which T never
        # moves; in calib-noiseless T only divided psi~ and its closed form
        # alike (psi_estimator keeps T for library callers)
        out = tmp_path / "run"
        for kind in ("calib-sim", "calib-noiseless"):
            assert main([kind, "--out", str(out), "--set", "T=2.0"]) == 2
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "ValueError"
            assert "unknown config keys" in err["message"]
            assert "'T'" in err["message"]
            assert not out.exists()

    @pytest.mark.parametrize("value", [-5, 0])
    def test_nonpositive_test_grid_points_exits_2(self, tmp_path, capsys,
                                                  value):
        # n ** (1/N) of a negative count is complex; zero points cover nothing
        out = tmp_path / "run"
        rc = main(["metric-check", "--out", str(out),
                   "--set", f"test_grid_points={value}"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "n_points >= 1" in err["message"]
        assert not out.exists()

    def test_test_grid_points_beyond_float64_exits_2(self, tmp_path, capsys):
        # n ** (1/N) of an int beyond float64 once overflowed, a traceback
        out = tmp_path / "run"
        rc = main(["metric-check", "--out", str(out),
                   "--set", f"test_grid_points={10**400}"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "config key 'test_grid_points' must be held by float64" in err["message"]
        assert not out.exists()

    # the int params keys but test_grid_points, which the test above takes
    @pytest.mark.parametrize("kind,key", [
        (kind, key) for kind, key, annotation in NUMERIC_KEYS
        if annotation is int and key != "test_grid_points"],
        ids=lambda case: case)
    def test_int_key_beyond_float64_exits_2(self, tmp_path, capsys,
                                            monkeypatch, kind, key):
        # the row budget and the ball-grid step once overflowed converting
        # the int to a float, a traceback, and a replicate count ran until
        # killed; each is refused where the params are parsed, before any
        # factor
        def factor(cov):
            raise AssertionError("factored before the refusal")
        monkeypatch.setattr(fieldmod, "cholesky_with_jitter", factor)
        out = tmp_path / "run"
        rc = main([kind, "--out", str(out), "--set", f"{key}={10**400}"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert f"config key {key!r} must be held by float64" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("reused", [False, True], ids=["new", "reused"])
    def test_failure_after_the_first_block_leaves_no_output(
            self, tmp_path, capsys, monkeypatch, reused):
        # the draws run while results.csv is written; a failure after the
        # first block removes that file, and the directory if the run made it
        real = calibration.spectral_blocks
        out = tmp_path / "run"
        seen = []

        def one_block_then_fail(*args, **kwargs):
            yield next(iter(real(*args, **kwargs)))
            seen.append((out / "results.csv").exists())
            raise NumericalCheckFailed("the second block failed")
        monkeypatch.setattr(calibration, "spectral_blocks", lambda *a, **k: fieldmod.Draws(
            one_block_then_fail(*a, **k), (0.0, 0.0)))
        if reused:
            out.mkdir()
            (out / "notes.txt").write_text("not the run's")
        rc = main(["calib-sim", "--out", str(out), "--set", "n_replicates=600"])
        assert rc == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "NumericalCheckFailed", "message": "the second block failed"}
        assert seen == [True]
        if reused:
            assert os.listdir(out) == ["notes.txt"]
        else:
            assert not out.exists()

    @pytest.mark.parametrize("kind,item", [("field-sim", "n_grid=0"),
                                           ("modulus-scan", "n_points=0")])
    def test_empty_grid_exits_2(self, tmp_path, capsys, kind, item):
        out = tmp_path / "run"
        assert main([kind, "--out", str(out), "--set", item]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert not out.exists()


def fmt_rule(x) -> str:
    """The per-value rule results.csv was written by before the block
    writer, kept as the reference: a float to 17 significant digits,
    anything else by str."""
    return f"{x:.17g}" if isinstance(x, float) else str(x)


class TestCsvWriter:
    # a format with a column it formats: the values the runners hand over,
    # as lists of Python or numpy scalars and as numpy arrays
    COLUMNS = [
        ("%d", [0, 7, -12, 2**70, np.int64(-5)]),
        ("%d", np.array([0, -5, 2**62])),
        ("%s", [True, False, np.True_, np.False_, "", "zero-hit", "ok"]),
        ("%s", np.array([True, False])),
        ("%.17g", [0.1, 1.0 / 3.0, math.nan, math.inf, -math.inf, -0.0, 0.0,
                   5e-324, 1e300, np.float64(0.1), np.float64(-2.5e-17)]),
        ("%.17g", np.array([0.1, math.nan, -math.inf, -0.0, 5e-324]))]

    @pytest.mark.parametrize("fmt,column", COLUMNS, ids=[
        "int", "int-array", "bool-str", "bool-array", "float", "float-array"])
    def test_one_column_has_the_bytes_of_the_rule(self, tmp_path, fmt, column):
        path = tmp_path / "out.csv"
        digest = experiments._write_csv(str(path), {"x": fmt}, [(column,)])
        want = "x\n" + "".join(fmt_rule(v) + "\n" for v in column)
        assert path.read_bytes() == want.encode()
        assert digest == hashlib.sha256(want.encode()).hexdigest()

    def test_blocks_of_mixed_columns(self, tmp_path):
        # several blocks, each a tuple of columns of one length, lists and
        # arrays mixed; the rows follow one another in block order
        blocks = [(np.arange(3), np.array([0.1, math.nan, -0.0]), ["a", "", "b"]),
                  ([3], [np.float64(1e-300)], [np.True_]),
                  (np.array([4, 5]), [math.inf, 2.0], [False, "phase-jump"])]
        path = tmp_path / "out.csv"
        digest = experiments._write_csv(
            str(path), {"i": "%d", "f": "%.17g", "s": "%s"}, iter(blocks))
        rows = [",".join(map(fmt_rule, row)) for block in blocks
                for row in zip(*block)]
        want = "\n".join(["i,f,s", *rows]) + "\n"
        assert path.read_bytes() == want.encode()
        assert digest == hashlib.sha256(want.encode()).hexdigest()

    def test_a_block_is_written_in_slices(self, tmp_path, monkeypatch):
        # a block longer than a slice, cut at every row boundary a slice of
        # two rows can fall on, has the bytes of the rows written at once
        monkeypatch.setattr(experiments, "_CSV_ROWS", 2)
        blocks = [(np.arange(5), [0.1, math.nan, -0.0, 2.0, 1e300],
                   ["a", "", "b", True, "phase-jump"]), ([5], [3.0], ["c"])]
        path = tmp_path / "out.csv"
        digest = experiments._write_csv(
            str(path), {"i": "%d", "f": "%.17g", "s": "%s"}, iter(blocks))
        rows = [",".join(map(fmt_rule, row)) for block in blocks
                for row in zip(*block)]
        want = "\n".join(["i,f,s", *rows]) + "\n"
        assert path.read_bytes() == want.encode()
        assert digest == hashlib.sha256(want.encode()).hexdigest()

    @pytest.mark.parametrize("kind,items,column,want", [
        ("calib-sim", ["noise_scales=[1e-3,1]"], "noise_scale",
         ["0.001", "1"] * 2),
        ("calib-sim", [f"noise_scales=[{10**20}]"], "noise_scale",
         ["100000000000000000000"] * 2),
        ("metric-check", ["entropy_x=[1,0.5]", "cover_radii=[1,0.5]"], "param",
         ["1", "0.5", "1", "0.5"])],
        ids=["calib-sim-int-scale", "calib-sim-huge-int-scale",
             "metric-check-int-params"])
    def test_config_ints_keep_their_digits(self, tmp_path, kind, items,
                                           column, want):
        # a config value is kept as given, so an int in a float column is
        # written as an int: 1 as 1, and 10**20 in full, not as 1e+20
        size = "n_replicates=2" if kind == "calib-sim" else "test_grid_points=100"
        argv = [kind, "--out", str(tmp_path / "run"), "--set", size]
        for item in items:
            argv += ["--set", item]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        with open(tmp_path / "run" / "results.csv", newline="") as fh:
            got = [row[column] for row in csv.DictReader(fh)]
        given = [v for item in items for v in json.loads(item.split("=", 1)[1])]
        assert got == want
        assert set(got) == set(map(fmt_rule, given))


def _scan_p_hat(kind, items, out):
    """p_hat column of a CLI scan run with every warning an error."""
    argv = [kind, "--out", str(out), "--set", "n_mc=50"]
    if kind == "polarity-scan":
        argv += ["--set", "grid_step=0.0625"]
    for item in items:
        argv += ["--set", item]
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        assert main(argv) == 0
    lines = (out / "results.csv").read_text().splitlines()
    return [float(line.split(",")[1]) for line in lines[1:]]


class TestScanOverflow:
    # squared distances beyond float64 once overflowed with a numpy warning
    # and a run that exited 0, with p_hat = 0 at every delta for the far
    # centre

    def test_far_centre_is_hit_at_every_delta(self, tmp_path):
        p_hat = _scan_p_hat("polarity-scan", [
            "center=[1e200,0]", "deltas=[1e300,1e250,1e201]"], tmp_path / "r")
        assert p_hat == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize("kind", ["polarity-scan", "hitting-scan"])
    def test_huge_mixing_misses(self, tmp_path, kind):
        p_hat = _scan_p_hat(kind, ["mixing=[[6e153,0],[0,6e153]]"], tmp_path / "r")
        assert p_hat == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("kind,radii", [("polarity-scan", "deltas"),
                                            ("hitting-scan", "radii")])
    def test_huge_affine_drift_as_a_large_one(self, tmp_path, kind, radii):
        # f(s) = L rho(0, s) e_1 leaves only s = 0 within reach for any
        # large L, so L = 1e200 (squares overflow) gives the p_hat of
        # L = 1e100 (they do not); the wide radii make them nonzero
        runs = [_scan_p_hat(kind, ["drift_kind=affine", f"drift_L={L}",
                                   f"{radii}=[3,2,1]"], tmp_path / L)
                for L in ("1e200", "1e100")]
        assert runs[0] == runs[1] and max(runs[0]) > 0


class TestRunMemory:
    @pytest.mark.parametrize("kind,over,count", [
        ("polarity-scan", {"drift_kind": "field", "drift_L": 0.5,
                           "grid_step": 1.0 / 128.0}, "n_mc"),
        ("hitting-scan", {}, "n_mc"),
        ("modulus-scan", {}, "n_samples"),
        ("field-sim", {"n_grid": 64}, "n_samples")],
        ids=["polarity-field-drift", "hitting-scan", "modulus-scan", "field-sim"])
    def test_run_holds_one_draw_block(self, tmp_path, kind, over, count):
        # the field is drawn in blocks of 256 replicates, each reduced or
        # written before the next, so from 512 to 4096 replicates the traced
        # peak of a whole run stays flat; one array of every replicate had
        # made it 2 to 8 times larger
        def traced(n, name):
            cfg = ExperimentConfig.from_dict(kind, dict(
                over, **{count: n}, out_dir=str(tmp_path / name)))
            tracemalloc.start()
            try:
                run_experiment(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        traced(512, "warm")  # imports and caches are in place
        peak_lo = traced(512, "lo")
        peak_hi = traced(4096, "hi")
        assert peak_hi <= 1.25 * peak_lo, (peak_lo, peak_hi)


class TestReproducibility:
    @staticmethod
    def run(kind, overrides, out, seed=5, workers=1):
        data = dict(overrides)
        data.update(seed=seed, workers=workers, out_dir=str(out))
        cfg = ExperimentConfig.from_dict(kind, data)
        return run_experiment(cfg)

    def test_rerun_byte_identical(self, tmp_path):
        over = {"n_samples": 30, "n_grid": 5}
        m1 = self.run("field-sim", over, tmp_path / "a")
        m2 = self.run("field-sim", over, tmp_path / "b")
        assert m1.outputs == m2.outputs
        assert (tmp_path / "a" / "results.csv").read_bytes() == \
               (tmp_path / "b" / "results.csv").read_bytes()

    def test_worker_count_invariant(self, tmp_path):
        over = {"n_mc": 60, "radii": [0.2, 0.1]}
        m1 = self.run("hitting-scan", over, tmp_path / "w1", workers=1)
        m4 = self.run("hitting-scan", over, tmp_path / "w4", workers=4)
        assert m1.outputs == m4.outputs

    def test_seed_changes_data(self, tmp_path):
        over = {"n_samples": 30, "n_grid": 5}
        m1 = self.run("field-sim", over, tmp_path / "s1", seed=1)
        m2 = self.run("field-sim", over, tmp_path / "s2", seed=2)
        assert m1.outputs["results.csv"] != m2.outputs["results.csv"]

    @pytest.mark.parametrize(
        "kind,over,results,report", GOLDEN,
        ids=[g[0] + (f"-{g[1]['drift_kind']}-drift" if "drift_kind" in g[1]
                     else "") for g in GOLDEN])
    def test_golden_digests(self, tmp_path, kind, over, results, report):
        # pinned digests: a change of any output bit must be declared
        man = self.run(kind, over, tmp_path / "g", seed=17)
        assert man.outputs == {"results.csv": results, "report.json": report}

    def test_jittered_factor_recorded_in_both_files(self, tmp_path):
        # H = 1 on a 129-point lattice draws from K + 1e-10 I, a different
        # law from K's: the manifest records it, and the report beside p_hat
        out = tmp_path / "h1"
        man = self.run("polarity-scan", {"hurst": [1.0], "grid_step": 0.0078125}, out)
        doc = json.loads((out / "manifest.json").read_text())
        report = json.loads((out / "report.json").read_text())
        assert man.jitter == doc["jitter"] == report["jitter"] == {"kernel": 1e-10}

    @pytest.mark.parametrize("kind,factors", [
        ("polarity-scan", ["kernel"]), ("calib-sim", ["spec-cos", "spec-sin"]),
        ("hitting-scan", ["kernel r=0.2", "kernel r=0.1", "kernel r=0.05"]),
        ("metric-check", [])], ids=["polarity-scan", "calib-sim", "hitting-scan",
                                    "metric-check"])
    def test_default_run_records_zero_jitter(self, tmp_path, kind, factors):
        # one entry per factor taken, in the manifest only
        self.run(kind, {}, tmp_path / "d")
        doc = json.loads((tmp_path / "d" / "manifest.json").read_text())
        report = json.loads((tmp_path / "d" / "report.json").read_text())
        assert doc["jitter"] == dict.fromkeys(factors, 0.0)
        assert "jitter" not in report

    def test_metric_check_all_ok_covers_every_row(self, tmp_path):
        self.run("metric-check", {}, tmp_path / "m")
        lines = (tmp_path / "m" / "results.csv").read_text().splitlines()
        oks = [line.split(",")[-1] for line in lines[1:]]
        assert oks and set(oks) <= {"True", "False"}
        report = json.loads((tmp_path / "m" / "report.json").read_text())
        assert report["all_ok"] == all(ok == "True" for ok in oks)

    def test_golden_digests_calib_sim_fine(self, tmp_path):
        over, seed, results, report = GOLDEN_CALIB_FINE
        man = self.run("calib-sim", over, tmp_path / "g", seed=seed)
        assert man.outputs == {"results.csv": results, "report.json": report}

    def test_golden_digests_polarity_field_drift(self, tmp_path):
        over, seed, results, report = GOLDEN_POLARITY_FIELD_DRIFT
        man = self.run("polarity-scan", over, tmp_path / "g", seed=seed)
        assert man.outputs == {"results.csv": results, "report.json": report}

    def test_manifest_structure(self, tmp_path):
        self.run("calib-sim", {"n_replicates": 3, "V": 2.0, "step": 0.25},
                 tmp_path / "m")
        doc = json.loads((tmp_path / "m" / "manifest.json").read_text())
        assert doc["kind"] == "calib-sim"
        # the BLAS state sits outside the digested files
        assert set(doc["blas"]) == {"library", "threads", "pinned"}
        if doc["blas"]["pinned"]:
            assert doc["blas"]["library"] and doc["blas"]["threads"] >= 1
        assert doc["version"]
        assert doc["config"]["seed"] == 5
        assert len(doc["outputs"]["results.csv"]) == 64

