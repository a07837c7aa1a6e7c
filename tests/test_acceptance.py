"""End-to-end acceptance checks for the full toolkit.

Each test covers one headline guarantee at its stated tolerance and prints a
single [ACCEPT] pass/fail line (run pytest with -s to see them).
"""
import math

import numpy as np
import pytest
from scipy import integrate

from anisofield.calibration import (FrequencyGrid, NoiseLevel,
                                    holder_bound_check, lambda_min_on_IV,
                                    psi_estimator, spectral_blocks,
                                    tail_integral, total_mass)
from anisofield.field import (FieldModel, modulus_statistic, path_blocks,
                              verify_condition1, verify_condition2)
from anisofield.hitting import LipschitzDrift, hitting_scan, polarity_scan
from anisofield.metric import (HurstVector, IndexSet, chaining_series_bound,
                               covering_number_upper,
                               entropy_integral_closed_form, grid_cover)
from anisofield.experiments import ExperimentConfig, run_experiment
from conftest import build_covariance, drawn


def _accept(name, fn):
    try:
        fn()
    except BaseException:
        print(f"[ACCEPT] {name}: FAIL")
        raise
    print(f"[ACCEPT] {name}: PASS")


MODEL_2X2 = ((1.0, 0.0), (1.0, 1.0))


def test_01_entropy_integral_closed_form():
    def body():
        for x in (0.01, 0.05, 0.1, 0.25, 0.45, 0.9, 1.0):
            oracle, _ = integrate.quad(lambda y: math.sqrt(-math.log(y)),
                                       0.0, x, epsabs=1e-12, limit=200)
            assert abs(entropy_integral_closed_form(x) - oracle) <= 1e-8
        assert abs(entropy_integral_closed_form(1.0)
                   - math.sqrt(math.pi) / 2.0) <= 1e-6
    _accept("entropy-integral-closed-form", body)


def test_02_grid_cover_arithmetic():
    def body():
        cases = [(1, HurstVector(H=(1.0,))),
                 (1, HurstVector(H=(0.5,))),
                 (2, HurstVector(H=(0.75, 0.75)))]
        for N, H in cases:
            I = IndexSet([0.0] * N, [1.0] * N)
            pts = I.mesh(math.ceil(10_000 ** (1 / N)))
            r_I = sum(0.5 ** h for h in H.H)
            for k in range(1, 7):
                r = 2.0 ** -k
                gc = grid_cover(I, r, H)
                assert gc.is_valid_on(pts)
                assert gc.count <= gc.c8 * r ** (-H.Q) + 1e-9
                if r <= r_I:
                    assert gc.count <= covering_number_upper(r_I, r, H) + 1e-9
    _accept("grid-cover-count-bounds", body)


def test_03_chaining_series_threshold():
    def body():
        Q = 4.0 / 3.0
        _, conv28 = chaining_series_bound(28.0, 0.0, 1.0, 2, Q, 30)
        _, conv27 = chaining_series_bound(27.0, 0.0, 1.0, 2, Q, 30)
        assert conv28 and not conv27
        sums = [chaining_series_bound(28.0, 0.0, 1.0, 2, Q, k)[0]
                for k in range(2, 30)]
        assert all(b >= a - 1e-15 for a, b in zip(sums, sums[1:]))
        assert all(math.isfinite(s) for s in sums)
    _accept("chaining-series-threshold", body)


def test_04_field_simulation_exactness():
    def body():
        m = FieldModel(H=HurstVector(H=(0.5,)), mixing=MODEL_2X2)
        g = np.linspace(0.0, 1.0, 10)[:, None]
        n = 20_000
        paths = drawn(path_blocks(m, g, n, 7))
        flat = paths.reshape(n, -1)
        ana = build_covariance(m, g)
        emp = flat.T @ flat / n
        se = np.sqrt((np.outer(np.diag(ana), np.diag(ana)) + ana ** 2) / n)
        assert np.all(np.abs(emp - ana) <= 5.0 * se)
        max_ratio, c_analytic, ok1 = verify_condition1(m, g)
        assert ok1 and max_ratio <= c_analytic
        assert abs(verify_condition2(m) - (3.0 - math.sqrt(5.0)) / 2.0) <= 1e-12
    _accept("field-simulation-exactness", body)


def test_05_hitting_probability_scaling():
    def body():
        m = FieldModel(H=HurstVector(H=(0.75,)), mixing=MODEL_2X2)
        I = IndexSet([0.0], [1.0])
        rep = hitting_scan(m, I, [0.5], (0.2, 0.1, 0.05, 0.025),
                           LipschitzDrift(kind="zero"), 10_000, 11, 16)
        assert rep.status == "ok"
        assert rep.fitted_slope >= 1.7
    _accept("hitting-probability-scaling", body)


def test_06_polarity_scaling_both_drifts():
    def body():
        m = FieldModel(H=HurstVector(H=(0.75,)), mixing=MODEL_2X2)
        I = IndexSet([0.0], [1.0])
        deltas = [0.2, 0.1, 0.05, 0.025]
        for drift in (LipschitzDrift(kind="zero"),
                      LipschitzDrift(kind="field", L=0.5)):
            rep = polarity_scan(m, I, drift, [0.0, 0.0], deltas,
                                10_000, 13, 1.0 / 128.0)
            assert rep.fitted_slope >= 0.36
            p = [e.p_hat for e in rep.estimates]
            # shared per-replicate randomness makes this exact, not statistical
            assert all(a >= b for a, b in zip(p, p[1:]))
    _accept("polarity-scaling-both-drifts", body)


def test_07_modulus_of_continuity_stability():
    def body():
        m = FieldModel(H=HurstVector(H=(0.5,)), mixing=MODEL_2X2)
        g = np.linspace(0.0, 0.2, 1281)[:, None]
        paths = drawn(path_blocks(m, g, 2000, 21))
        rep = modulus_statistic(paths, g, m.H, [0.025, 0.05, 0.1, 0.2])
        assert not any(rep.missing)
        q95 = np.quantile(rep.M, 0.95, axis=0)
        assert float(q95.max() / q95.min()) < 3.0
    _accept("modulus-of-continuity-stability", body)


def test_08_calibration_closed_forms():
    def body():
        noise = NoiseLevel(a=1.5, p=1.5)
        assert abs(tail_integral(noise, 1.5) - 4.0) <= 1e-8
        assert abs(total_mass(noise) - 1.0) <= 1e-8
        lams = [lambda_min_on_IV(noise, V) for V in (2.0, 5.0, 10.0)]
        assert lams[-1] > 0.0
        assert lams[0] >= lams[1] >= lams[2]
        us = np.linspace(-10.0, 10.0, 50)
        pairs = [(u, v) for u in us for v in us]
        worst, ok = holder_bound_check(noise, 1.5, pairs)
        assert ok and worst <= 1e-8
    _accept("calibration-closed-forms", body)


def test_09_psi_noiseless_oracle():
    def body():
        grid = FrequencyGrid(10.0, 0.01)
        est = psi_estimator(grid, 0.0, T=1.0)
        assert est.well_defined
        oracle = 2j * np.arctan(grid.points)
        assert float(np.max(np.abs(est.values - oracle))) <= 1e-10
        assert float(np.max(np.abs(np.abs(est.arg_values) - 1.0))) <= 1e-10
        assert est.values[0] == 0.0
    _accept("psi-noiseless-oracle", body)


def test_10_psi_noisy_well_definedness():
    def body():
        noise = NoiseLevel(a=1.5, p=1.5)
        grid = FrequencyGrid(10.0, 0.05)
        n_rep = 200
        samples = drawn(spectral_blocks(noise, grid, n_rep, 123))
        scales = (1e-3, 1e-2, 1e-1)
        ok = np.zeros((n_rep, len(scales)), dtype=bool)
        for i in range(n_rep):
            for j, scale in enumerate(scales):
                est = psi_estimator(grid, scale, spectral_values=samples[i],
                                    T=1.0)
                ok[i, j] = est.well_defined
        assert np.all(ok[:, 0])          # smallest scale: every replicate
        # same randomness per replicate: losing well-definedness as the
        # noise grows can only be one-way
        assert np.all(ok[:, 1] >= ok[:, 2])
        assert np.all(ok[:, 0] >= ok[:, 1])
    _accept("psi-noisy-well-definedness", body)


def test_11_experiment_determinism(tmp_path):
    def body():
        small = {
            "metric-check": {},
            "field-sim": {"n_samples": 40, "n_grid": 6},
            "hitting-scan": {"n_mc": 200, "radii": [0.2, 0.1]},
            "polarity-scan": {"n_mc": 200, "deltas": [0.2, 0.1]},
            "modulus-scan": {"n_samples": 40, "n_points": 101,
                             "eps": [0.05, 0.1]},
            "calib-noiseless": {"V": 5.0, "step": 0.05},
            "calib-sim": {"n_replicates": 10, "V": 3.0, "step": 0.2},
        }
        for kind, over in small.items():
            digests = set()
            for tag, workers in (("a", 1), ("b", 1), ("w4", 4)):
                data = dict(over)
                data.update(seed=17, workers=workers,
                            out_dir=str(tmp_path / kind / tag))
                cfg = ExperimentConfig.from_dict(kind, data)
                man = run_experiment(cfg)
                digests.add((man.outputs["results.csv"],
                             man.outputs["report.json"]))
            assert len(digests) == 1, f"{kind} not byte-identical"
    _accept("experiment-determinism", body)
