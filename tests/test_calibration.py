import csv
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from anisofield.calibration import (FrequencyGrid, NoiseLevel,
                                    cos_transform, cos_transform_many,
                                    fourier_O,
                                    holder_bound_check,
                                    holder_exponent,
                                    lambda_min_on_IV, moment_integral,
                                    psi_estimator, psi_verdicts,
                                    spectral_blocks, tail_integral,
                                    total_mass)
from anisofield import calibration
from anisofield import field as fieldmod
from anisofield.errors import NumericalCheckFailed
from anisofield.experiments import ExperimentConfig, run_experiment
from anisofield.field import cholesky_with_jitter, standard_normal_batch
from conftest import (drawn, holm_rejects, increment_z, increment_z_cov,
                      ito_covariance)

POW = NoiseLevel(a=1.5, p=1.5)


def fourier_O_numeric(v: float) -> float:
    """Quadrature cross-check of fourier_O; O is even so only the cosine part survives."""
    if v == 0.0:
        val, _ = integrate.quad(lambda x: math.exp(-x), 0.0, np.inf,
                                epsabs=1e-10, limit=400)
    else:
        val, _ = integrate.quad(lambda x: math.exp(-x), 0.0, np.inf,
                                weight="cos", wvar=v, epsabs=1e-10, limit=400)
    return 2.0 * val


def quadpack_cos_transform(noise: NoiseLevel, w: float) -> float:
    """C(w) by QUADPACK's QAWF on (0, inf) (the transform's former
    implementation)."""
    if w == 0.0:
        return 2.0 / (2.0 * noise.a - 1.0)
    val, _ = integrate.quad(lambda x: (1.0 + x) ** (-2.0 * noise.a),
                            0.0, np.inf, weight="cos", wvar=w,
                            epsabs=1e-10, limit=400)
    return 2.0 * val


class TestNoiseLevel:
    def test_family_validation(self):
        with pytest.raises(ValueError):
            NoiseLevel(a=0.5)
        with pytest.raises(ValueError):
            NoiseLevel(a=float("nan"))

    def test_certify_tail(self):
        assert POW.certify_tail() == 1.5
        with pytest.raises(ValueError, match="diverges"):
            NoiseLevel(a=1.0).certify_tail(1.5)
        with pytest.raises(ValueError):
            POW.certify_tail(0.5)


class TestIntegrals:
    def test_tail_integral_closed_form(self):
        # (1+|x|)^1.5 (1+|x|)^-3 integrates to 4 on the whole line
        assert tail_integral(POW, 1.5) == pytest.approx(4.0, abs=1e-8)

    def test_tail_integral_divergent_rejected(self):
        with pytest.raises(ValueError):
            tail_integral(NoiseLevel(a=1.0), 1.5)

    def test_total_mass_closed_form(self):
        assert total_mass(POW) == pytest.approx(1.0, abs=1e-10)

    def test_moment_closed_form(self):
        # 2 Gamma(q+1) Gamma(2a-q-1) / Gamma(2a) at a=1.5, q=1.5 is 3 pi / 4
        assert moment_integral(POW, 1.5) == pytest.approx(3.0 * math.pi / 4.0,
                                                          abs=1e-12)
        assert moment_integral(POW, 0.0) == pytest.approx(1.0)

    def test_moment_matches_quadrature(self):
        oracle, _ = integrate.quad(lambda x: x ** 1.2 * (1 + x) ** -3.0,
                                   0.0, np.inf, epsabs=1e-12, limit=400)
        assert moment_integral(POW, 1.2) == pytest.approx(2.0 * oracle, rel=1e-9)

    def test_moment_divergent_rejected(self):
        with pytest.raises(ValueError):
            moment_integral(POW, 2.0)
        with pytest.raises(ValueError):
            moment_integral(POW, -0.5)


class TestCosTransform:
    def test_zero_frequency_is_mass(self):
        assert cos_transform(POW, 0.0) == pytest.approx(total_mass(POW))

    def test_even_in_w(self):
        assert cos_transform(POW, 1.3) == cos_transform(POW, -1.3)

    def test_against_integration_by_parts_oracle(self):
        # two integrations by parts turn int_0^inf cos(wx)(1+x)^-3 dx into
        # 3/(2w^2) - (12/w^2) int cos(wx)(1+x)^-5 dx, whose integrand decays
        # fast enough for plain adaptive quadrature on a truncated range
        for w in (0.5, 1.0, 2.5):
            body, _ = integrate.quad(lambda x: math.cos(w * x) * (1 + x) ** -5.0,
                                     0.0, 300.0, epsabs=1e-13, limit=4000)
            oracle = 2.0 * (3.0 - 12.0 * body) / w ** 2
            assert cos_transform(POW, w) == pytest.approx(oracle, abs=1e-8)

    def test_bounded_by_mass(self):
        ws = np.linspace(0.0, 20.0, 41)
        vals = cos_transform_many(POW, ws)
        assert np.all(np.abs(vals) <= total_mass(POW) + 1e-12)

    def test_many_matches_scalar(self):
        ws = np.array([[0.0, 0.7], [-0.7, 3.0]])
        vals = cos_transform_many(POW, ws)
        assert vals.shape == (2, 2)
        assert vals[0, 1] == cos_transform(POW, 0.7)
        assert vals[1, 0] == vals[0, 1]

    def test_scalar_and_vector_routes_share_the_key(self):
        # the 35 of 2,000,000 uniform w in [0, 40] (default_rng(0)) on which
        # Python's round(w, 10) and np.round(w, 10) disagree
        ws = [38.68223015175, 35.37839504045, 25.45055793805, 18.38677109305,
              22.09225884135, 11.83693780145, 36.02428998555, 32.17728976115,
              24.31101013395, 34.10828076875, 23.69394269095, 38.55134984685,
              33.61320426335, 12.99373981645, 24.69377857235, 19.03707076445,
              16.57610480075, 37.15457883195, 21.24931994605, 18.23227476865,
              36.13188399435, 34.18394304775, 35.61195850675, 18.23912493805,
              26.82928673155, 37.74628588295, 29.58055684545, 38.56836007305,
              35.95443288685, 38.92847203215, 9.09931897865, 34.29872847845,
              18.19616546955, 14.30957274515, 26.77482771425]
        assert all(round(w, 10) != np.round(w, 10) for w in ws)
        many = cos_transform_many(POW, np.array(ws))
        for w, v in zip(ws, many):
            assert cos_transform(POW, w) == v
            assert cos_transform(POW, -w) == v


class TestCosTransformAtItsArgument:
    def test_strictly_decreasing_near_a_kink(self):
        # C falls like -|w|^(2a-1) from its value at 0, steeply at a = 0.75;
        # a transform evaluated at a rounded argument is piecewise constant
        # on these 50 arguments 1e-12 apart
        noise = NoiseLevel(a=0.75, p=1.05)
        vals = [cos_transform(noise, 1e-3 + k * 1e-12) for k in range(1, 51)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        many = cos_transform_many(noise, 1e-3 + np.arange(1, 51) * 1e-12)
        assert many.tolist() == vals


class TestCosCache:
    def test_cache_is_bounded(self):
        maxsize = calibration._cos_transform_cached.cache_info().maxsize
        assert maxsize is not None and maxsize >= 2617

    def test_one_miss_per_distinct_argument(self):
        # the calib-sim-fine grid: the Toeplitz lags, the Hankel sums and
        # the anchor row are looked up at their own values, 2617 of them
        g = FrequencyGrid(10.0, 0.01)
        pos = g.positive
        s = np.arange(2 * pos.size - 1)
        ws = np.concatenate([pos - pos[0], pos[s - s // 2] + pos[s // 2],
                             g.points])
        distinct = np.unique(np.abs(ws)).size
        calibration._cos_transform_cached.cache_clear()
        drawn(spectral_blocks(POW, g, 1, 0))
        info = calibration._cos_transform_cached.cache_info()
        assert info.misses == distinct == 2617
        assert info.currsize == distinct


@pytest.fixture
def lookup_sizes(monkeypatch):
    """Sizes of the argument arrays passed to cos_transform_many."""
    sizes = []
    many = calibration.cos_transform_many

    def recording(noise, ws):
        sizes.append(np.size(ws))
        return many(noise, ws)

    monkeypatch.setattr(calibration, "cos_transform_many", recording)
    return sizes


class TestPairTransforms:
    """The lag assembly of both spectral covariance blocks: bit for bit the
    Toeplitz and Hankel layout of one transform per lag, and within the
    lattice's rounding of cos_transform_many on the full argument matrices."""

    @staticmethod
    def per_entry(noise, q1):
        Cm = cos_transform_many(noise, q1[:, None] - q1[None, :])
        Cp = cos_transform_many(noise, q1[:, None] + q1[None, :])
        return 0.5 * (Cm + Cp), 0.5 * (Cm[1:, 1:] - Cp[1:, 1:])

    @staticmethod
    def assert_lag_layout(noise, q1, cov1, cov2):
        # every entry of a lag takes the lag's transform
        pos = q1[1:]
        i, j = np.indices((pos.size, pos.size))
        T = cos_transform_many(noise, pos - pos[0])[np.abs(i - j)]
        H = cos_transform_many(noise, pos[(i + j) - (i + j) // 2]
                               + pos[(i + j) // 2])
        assert np.array_equal(cov1[1:, 1:], 0.5 * (T + H))
        assert np.array_equal(cov2, 0.5 * (T - H))
        edge = cos_transform_many(noise, q1)
        assert np.array_equal(cov1[0], edge) and np.array_equal(cov1[:, 0], edge)

    @pytest.mark.parametrize("noise,grid", [
        (POW, FrequencyGrid(10.0, 0.01)),       # calib-sim-fine
        (POW, FrequencyGrid(10.0, 0.013)),
        (POW, FrequencyGrid(4.0, 1.0 / 3.0)),
        (POW, FrequencyGrid(10.0, 1.0 / 3.0)),
    ], ids=["fine", "step-0.013", "step-1/3-V4", "step-1/3-V10"])
    def test_matches_cos_transform_many(self, noise, grid):
        q1 = grid.points
        cov1, cov2 = calibration._spectral_covariances(noise, grid.positive)
        self.assert_lag_layout(noise, q1, cov1, cov2)
        # pos_i - pos_j and its lag pos_|i-j| - pos_0 differ by the lattice's
        # rounding (at most 7.1e-15 on these grids), and |C'| is at most
        # int |x| eps^2 = 1 at a = 1.5; measured, the blocks move by 4.4e-16
        ref1, ref2 = self.per_entry(noise, q1)
        assert np.max(np.abs(cov1 - ref1)) <= 1e-14
        assert np.max(np.abs(cov2 - ref2)) <= 1e-14

    def test_rounding_boundary_is_toeplitz_plus_hankel(self):
        # the grid on which the former 10-decimal key split the entries of a
        # lag: each still takes the lag's transform, within rounding of the
        # per-entry lookup
        q1 = FrequencyGrid(5.0, 0.05000000005).points
        cov1, cov2 = calibration._spectral_covariances(POW, q1[1:])
        self.assert_lag_layout(POW, q1, cov1, cov2)
        ref1, ref2 = self.per_entry(POW, q1)
        assert not np.array_equal(cov1, ref1)
        assert np.max(np.abs(cov1 - ref1)) <= 1e-10
        assert np.max(np.abs(cov2 - ref2)) <= 1e-10

    def test_no_n_squared_lookup_on_the_fine_grid(self, lookup_sizes):
        g = FrequencyGrid(10.0, 0.01)
        drawn(spectral_blocks(POW, g, 1, 0))
        n = g.points.size
        # only the anchor's row and column are looked up outside the lags
        assert lookup_sizes and max(lookup_sizes) <= 2 * n


class TestQuadpackOracle:
    """The numpy-only quadratures against scipy's QUADPACK and the former
    scipy-based implementations."""

    @pytest.mark.parametrize("a", [0.6, 0.75, 1.0, 1.5, 3.0])
    def test_power_law_transform(self, a):
        noise = NoiseLevel(a=a, p=1.05)
        # at the arguments themselves: C has an infinite slope at 0 for
        # a <= 1, where a rounded argument alone once moved C by 1.5e-10
        ws = np.concatenate([[0.0], np.geomspace(1e-3, 40.0, 81),
                             np.linspace(0.01, 20.0, 40)])
        got = cos_transform_many(noise, ws)
        want = np.array([quadpack_cos_transform(noise, w) for w in ws])
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_tail_integral(self):
        # the former route: QUADPACK on (0, 50) plus the analytic tail
        for a, p in [(1.5, 1.5), (1.2, 1.3), (3.0, 2.0)]:
            noise = NoiseLevel(a=a, p=p)
            expo = p - 2.0 * a
            body, _ = integrate.quad(lambda x: (1.0 + x) ** expo, 0.0, 50.0,
                                     epsabs=1e-12, limit=200)
            old = 2.0 * (body - 51.0 ** (expo + 1.0) / (expo + 1.0))
            assert tail_integral(noise, p) == pytest.approx(old, abs=1e-8)

    def test_moment_integral(self):
        from scipy.special import gamma
        for a, q in [(1.5, 1.5), (1.5, 0.0), (3.0, 2.0), (0.9, 0.5)]:
            noise = NoiseLevel(a=a)
            old = 2.0 * gamma(q + 1.0) * gamma(2.0 * a - q - 1.0) / gamma(2.0 * a)
            assert moment_integral(noise, q) == pytest.approx(old, rel=1e-9)

    @pytest.mark.parametrize("noise,V", [(POW, 2.0), (POW, 10.0),
                                         (NoiseLevel(a=0.75), 5.0)])
    def test_lambda_min(self, noise, V):
        # the former route: the eigenvalue floor on the same v grid from
        # QUADPACK transforms, refined by scipy's bounded minimize_scalar
        from scipy.optimize import minimize_scalar
        M = quadpack_cos_transform(noise, 0.0)
        vs = np.linspace(1.0 / V, V, calibration._N_V)
        route = 0.5 * (M - np.abs([quadpack_cos_transform(noise, 2.0 * v)
                                   for v in vs]))
        k = int(np.argmin(route))
        res = minimize_scalar(
            lambda v: 0.5 * (M - abs(quadpack_cos_transform(noise, 2.0 * v))),
            bounds=(vs[max(0, k - 1)], vs[min(vs.size - 1, k + 1)]),
            method="bounded", options={"xatol": 1e-10})
        old = min(float(route.min()), res.fun)
        assert lambda_min_on_IV(noise, V) == pytest.approx(old, abs=1e-9)


class TestHolderExponent:
    def test_values(self):
        assert holder_exponent(1.5) == 0.75
        assert holder_exponent(2.0) == 1.0
        assert holder_exponent(7.0) == 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            holder_exponent(1.0)


class TestItoCovariance:
    def test_diagonal_and_symmetric_roles(self):
        cov = ito_covariance(POW, 0.8, 0.8)
        assert cov[0, 1] == 0.0 and cov[1, 0] == 0.0
        # variances of real and imaginary parts sum to the total mass
        assert cov[0, 0] + cov[1, 1] == pytest.approx(total_mass(POW))

    def test_anchor_degenerates(self):
        cov = ito_covariance(POW, 0.0, 0.0)
        assert cov[0, 0] == pytest.approx(total_mass(POW))
        assert cov[1, 1] == pytest.approx(0.0, abs=1e-12)

    def test_psd_two_by_two(self):
        for u, v in [(0.3, 0.9), (1.0, 1.0), (0.1, 5.0)]:
            w = np.linalg.eigvalsh(ito_covariance(POW, u, v))
            # cross-covariance blocks; entries bounded by the mass
            assert np.all(np.abs(w) <= total_mass(POW) + 1e-9)

    def test_quadrature_oracle(self):
        u, v = 0.6, 1.7
        cc, _ = integrate.quad(
            lambda x: math.cos(u * x) * math.cos(v * x) * (1 + abs(x)) ** -3.0,
            -np.inf, np.inf, epsabs=1e-10, limit=4000)
        ss, _ = integrate.quad(
            lambda x: math.sin(u * x) * math.sin(v * x) * (1 + abs(x)) ** -3.0,
            -np.inf, np.inf, epsabs=1e-10, limit=4000)
        cov = ito_covariance(POW, u, v)
        assert cov[0, 0] == pytest.approx(cc, abs=1e-7)
        assert cov[1, 1] == pytest.approx(ss, abs=1e-7)


class TestLambdaMin:
    def test_positive_and_below_half_mass(self):
        lam = lambda_min_on_IV(POW, 10.0)
        assert 0.0 < lam <= 0.5 * total_mass(POW) + 1e-12

    def test_nonincreasing_in_V(self):
        lams = [lambda_min_on_IV(POW, V) for V in (2.0, 5.0, 10.0)]
        assert lams[0] >= lams[1] >= lams[2]

    def test_domain(self):
        with pytest.raises(ValueError):
            lambda_min_on_IV(POW, 1.0)

    def test_route_disagreement_is_a_typed_error(self, monkeypatch):
        # a transform that returns NaN leaves the grid and eigenvalue routes
        # incomparable; that must surface as a typed error, not an assert
        monkeypatch.setattr(calibration, "cos_transform_many",
                            lambda noise, ws: np.full(np.shape(ws), np.nan))
        with pytest.raises(NumericalCheckFailed, match="disagree"):
            lambda_min_on_IV(POW, 2.0)

    def test_matches_direct_phase_quadrature(self):
        # independent oracle: smallest int sin^2(phi + vx) eps^2 over a grid
        best = np.inf
        for v in np.linspace(0.5, 2.0, 7):
            for phi in np.linspace(0.0, math.pi, 19, endpoint=False):
                val, _ = integrate.quad(
                    lambda x: math.sin(phi + v * x) ** 2 * (1 + abs(x)) ** -3.0,
                    -np.inf, np.inf, epsabs=1e-10, limit=4000)
                best = min(best, val)
        assert lambda_min_on_IV(POW, 2.0) <= best + 1e-6


class TestHolderBound:
    def test_power_law_pairs_ok(self):
        pairs = [(u, v) for u in np.linspace(-10, 10, 15)
                 for v in np.linspace(-10, 10, 15)]
        worst, ok = holder_bound_check(POW, 1.5, pairs)
        assert ok and worst <= 1e-8

    def test_pointwise_inequality_by_quadrature(self):
        # the bound rests on 1 - cos(t) <= 2^(1-q) |t|^q for q in (0, 2]
        q = 1.5
        ts = np.linspace(-30, 30, 2001)
        assert np.all(1.0 - np.cos(ts) <= 2.0 ** (1.0 - q) * np.abs(ts) ** q + 1e-12)
        # integrated against eps^2 this is exactly lhs <= rhs for one pair
        u, v = 0.4, 2.1
        lhs, _ = integrate.quad(
            lambda x: 2.0 * (1.0 - math.cos((u - v) * x)) * (1 + abs(x)) ** -3.0,
            -np.inf, np.inf, epsabs=1e-10, limit=4000)
        rhs = 2.0 ** (2.0 - q) * abs(u - v) ** q * moment_integral(POW, q)
        assert lhs <= rhs + 1e-8


class TestFrequencyGrid:
    def test_build_structure(self):
        # the anchor first, then the lattice 1/V + k step on [1/V, V]
        g = FrequencyGrid(5.0, 0.1)
        pos = g.positive
        assert g.points[0] == 0.0 and np.array_equal(g.points[1:], pos)
        assert pos.size == 49 and np.all(pos > 0.0)
        assert not g.points.flags.writeable
        assert np.allclose(np.diff(pos), 0.1, rtol=0.0, atol=1e-12)
        assert pos[0] == pytest.approx(0.2) and pos[-1] <= 5.0 + 1e-12

    def test_rejects_bad_build_args(self):
        for V, step in [(1.0, 0.1), (5.0, 0.0), (math.nan, 0.1), (5.0, math.nan),
                        (math.inf, 0.1), (5.0, math.inf)]:
            with pytest.raises(ValueError):
                FrequencyGrid(V, step)


class TestSpectralSimulation:
    def test_empty(self):
        with pytest.raises(ValueError, match="n_samples must be >= 1"):
            drawn(spectral_blocks(POW, FrequencyGrid(3.0, 0.5), 0, 0))

    def test_deterministic_and_worker_invariant(self):
        g = FrequencyGrid(3.0, 0.25)
        a = drawn(spectral_blocks(POW, g, 50, 11))
        b = drawn(spectral_blocks(POW, g, 50, 11))
        assert a.tobytes() == b.tobytes()

    def test_empirical_covariance_matches_ito(self):
        g = FrequencyGrid(4.0, 0.5)
        n = 40_000
        s = drawn(spectral_blocks(POW, g, n, 3))
        # anchor variance equals the total mass
        var0 = float(np.var(s[:, 0].real))
        M = total_mass(POW)
        assert abs(var0 - M) <= 5.0 * M * math.sqrt(2.0 / n)
        # real/imag variances at a positive frequency match the Ito blocks
        k = 3
        v = g.points[k]
        cov = ito_covariance(POW, v, v)
        for idx, part in enumerate((s[:, k].real, s[:, k].imag)):
            target = cov[idx, idx]
            assert abs(np.var(part) - target) <= 5.0 * target * math.sqrt(2.0 / n)

    def test_matches_four_transform_construction(self):
        # reference: the blocks over [0, *pos] and over pos (whose entries
        # TestPairTransforms holds against the four per-entry transform
        # matrices), each factored and applied to its stream in one product
        g = FrequencyGrid(5.0, 0.05)
        n, seed = 50, 8
        q1 = g.points
        pos = g.positive
        cov1, cov2 = calibration._spectral_covariances(POW, pos)
        X1 = standard_normal_batch(q1.size, n, seed, "spec-cos") @ \
            cholesky_with_jitter(cov1)[0].T
        X2 = standard_normal_batch(pos.size, n, seed, "spec-sin") @ \
            cholesky_with_jitter(cov2)[0].T
        ref = X1 + 1j * np.concatenate([np.zeros((n, 1)), X2], axis=1)
        s = drawn(spectral_blocks(POW, g, n, seed))
        assert np.array_equal(s, ref)
        assert np.all(s[:, 0].imag == 0.0)

    def test_blocks_are_row_ranges_of_the_streams(self):
        # 600 rows: two full blocks and a partial one, each its streams'
        # rows lo.. times the transposed factors; a second draw repeats
        # them bit for bit
        g = FrequencyGrid(5.0, 0.05)
        n, seed, rows = 600, 8, fieldmod._DRAW_ROWS
        cov1, cov2 = calibration._spectral_covariances(POW, g.positive)
        L1 = cholesky_with_jitter(cov1)[0]
        L2 = cholesky_with_jitter(cov2)[0]
        blocks = list(calibration.spectral_blocks(POW, g, n, seed))
        assert [(lo, X.shape) for lo, X in blocks] == [
            (lo, (min(rows, n - lo), g.points.size))
            for lo in range(0, n, rows)]
        assert blocks[-1][1].shape[0] < rows
        for lo, X in blocks:
            k = X.shape[0]
            z1 = standard_normal_batch(L1.shape[0], k, seed, "spec-cos", start=lo)
            z2 = standard_normal_batch(L2.shape[0], k, seed, "spec-sin", start=lo)
            assert np.array_equal(X.real, z1 @ L1.T)
            assert np.array_equal(X.imag[:, 1:], z2 @ L2.T)
            assert np.all(X.imag[:, 0] == 0.0)
        s = drawn(spectral_blocks(POW, g, n, seed))
        assert s.tobytes() == np.concatenate([X for _, X in blocks]).tobytes()

    def test_factors_through_the_field_seam(self, monkeypatch):
        # both spectral components are factored by field.cholesky_with_jitter
        calls = []
        real = fieldmod.cholesky_with_jitter

        def counting(cov):
            calls.append(cov.shape)
            return real(cov)

        monkeypatch.setattr(fieldmod, "cholesky_with_jitter", counting)
        # once each, over three draw blocks
        g = FrequencyGrid(3.0, 0.25)
        n = 2 * fieldmod._DRAW_ROWS + 4
        s = drawn(spectral_blocks(POW, g, n, 0))
        m = g.positive.size
        assert calls == [(m + 1, m + 1), (m, m)]
        assert s.shape == (n, m + 1) and s.dtype == complex

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError):
            drawn(spectral_blocks(POW, FrequencyGrid(2.0, 0.5), -1, 0))


class TestIncrementLaw:
    """The spectral law at scale, through exact moments of the quadratic
    variations of X1 and X2 on the positive lattice (conftest.increment_z_cov):
    V = 10 and step 0.01 (calib-sim-fine's grid, 991 positive frequencies),
    1,000 replicates and lags 1, 2, 8 and 64, judged jointly by Holm at
    level 0.01. The covariances are built apart from _spectral_covariances,
    from the full matrices of u - v and u + v. The seed, 23, was fixed
    before the first run."""

    SEED, LAGS, ALPHA, R = 23, (1, 2, 8, 64), 0.01, 1000

    @classmethod
    def setup_class(cls):
        cls.grid = FrequencyGrid(10.0, 0.01)
        u = cls.grid.positive
        Cm = cos_transform_many(POW, u[:, None] - u[None, :])
        Cp = cos_transform_many(POW, u[:, None] + u[None, :])
        cls.cov = (0.5 * (Cm + Cp), 0.5 * (Cm - Cp))
        cls.X = drawn(spectral_blocks(POW, cls.grid, cls.R, cls.SEED))

    def z(self, X):
        # column 0 is the anchor v = 0; X1 first, then X2
        return np.concatenate([increment_z_cov(part[:, 1:], c, self.LAGS)
                               for part, c in zip((X.real, X.imag), self.cov)])

    def test_exact_draw_passes(self):
        z = self.z(self.X)
        assert holm_rejects(z, self.ALPHA) == [], z

    def test_exponent_off_by_one_percent_rejected(self):
        wrong = drawn(spectral_blocks(NoiseLevel(a=1.515, p=1.5), self.grid,
                                      self.R, self.SEED))
        z = self.z(wrong)
        assert holm_rejects(z, self.ALPHA), z

    def test_variance_off_by_two_percent_rejected(self):
        z = self.z(self.X * math.sqrt(1.02))
        assert holm_rejects(z, self.ALPHA), z

    def test_moments_match_the_stationary_ones(self):
        # on a stationary kernel the n^2 moments equal increment_z's O(n) sums
        x = np.random.default_rng(0).standard_normal((5, 257))
        s = np.arange(257) / 256.0
        c = 2.0 * np.exp(-np.abs(s[:, None] - s[None, :]) ** 1.5)
        np.testing.assert_allclose(increment_z_cov(x, c, self.LAGS),
                                   increment_z(x, 1.0 / 256, 0.75, 2.0, self.LAGS),
                                   rtol=1e-9)


class TestFourierO:
    def test_closed_form_values(self):
        assert fourier_O(0.0) == pytest.approx(2.0)
        assert fourier_O(1.0) == pytest.approx(1.0)

    def test_numeric_cross_check(self):
        for v in (0.0, 0.5, 2.0, 7.0):
            assert fourier_O(v) == pytest.approx(fourier_O_numeric(v),
                                                 abs=1e-8)

    def test_model_validation(self):
        # the maturity scale T divides psi~, so it must be positive
        for T in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="maturity scale T"):
                psi_estimator(FrequencyGrid(2.0, 0.5), 0.0, T=T)


def psi_along(grid: FrequencyGrid, A: np.ndarray):
    """psi_estimator at noise scale 1 on the spectral values that make its log
    argument A on the grid (up to rounding); A[0] is the anchor 1."""
    v = grid.points
    assert A.shape == v.shape and A[0] == 1.0
    spec = np.zeros(v.size, dtype=complex)
    spec[1:] = ((A[1:] - 1.0) / (1j * v[1:] * (1.0 + 1j * v[1:]))
                - fourier_O(v[1:]))
    return psi_estimator(grid, 1.0, spectral_values=spec)


def lattice_of(n: int) -> FrequencyGrid:
    """A grid of the anchor and n lattice points on [1/2, 2]."""
    g = FrequencyGrid(2.0, 1.5 / (n - 1) if n > 1 else 2.0)
    assert g.positive.size == n
    return g


class TestDistinguishedLog:
    """psi_estimator's unwrapping on log arguments chosen through X."""

    def test_constant_path_is_zero(self):
        est = psi_along(lattice_of(8), np.ones(9, dtype=complex))
        assert np.allclose(est.values, 0.0) and est.max_phase_jump == 0.0

    def test_winding_path_oracle(self):
        # A(v) = (1+iv)^2 / (1+v^2) has modulus 1 and log = 2i arctan(v);
        # the principal-branch angle would wrap, the distinguished one does not
        g = FrequencyGrid(20.0, 0.01)
        v = g.points
        est = psi_along(g, (1.0 + 1j * v) ** 2 / (1.0 + v * v))
        assert np.max(np.abs(est.values - 2j * np.arctan(v))) < 1e-10

    def test_exp_inverts_log(self):
        rng = np.random.default_rng(5)
        steps = rng.normal(scale=0.2, size=50) + 1j * rng.normal(scale=0.2, size=50)
        z = np.exp(np.concatenate([[0.0], np.cumsum(steps)]))
        est = psi_along(lattice_of(50), z)
        assert np.max(np.abs(np.exp(est.values) - est.arg_values)) < 1e-12
        assert np.max(np.abs(est.arg_values - z)) < 1e-12

    def test_zero_hit(self):
        est = psi_along(lattice_of(2), np.array([1.0, 1e-13, 1.0], dtype=complex))
        assert est.failure == "zero-hit" and not est.well_defined
        assert est.min_arg_modulus < calibration._TOL_ZERO

    def test_phase_jump(self):
        # reported, with its size, on a path that stays well defined
        est = psi_along(lattice_of(1), np.array([1.0, -1.0], dtype=complex))
        assert est.failure == "phase-jump" and est.well_defined
        assert est.max_phase_jump == pytest.approx(math.pi)

    def test_anchor_must_be_one(self, monkeypatch):
        # 1 + c(0)(...) is 1 for any X since c(0) = 0, so the argument is
        # replaced to reach the check
        monkeypatch.setattr(calibration, "_log_argument",
                            lambda FO, c, scale, X: np.full(FO.shape, 2.0 + 0j))
        with pytest.raises(ValueError, match="anchor"):
            psi_estimator(lattice_of(1), 0.0)

    @given(st.integers(0, 2 ** 31))
    def test_branch_continuity(self, seed):
        rng = np.random.default_rng(seed)
        steps = (rng.normal(scale=0.3, size=30)
                 + 1j * rng.normal(scale=0.3, size=30))
        z = np.exp(np.concatenate([[0.0], np.cumsum(steps)]))
        est = psi_along(lattice_of(30), z)
        # adjacent imaginary parts never differ by more than the raw increment
        assert np.max(np.abs(np.diff(est.values.imag))) <= est.max_phase_jump + 1e-12


class TestPsiEstimator:
    def test_noiseless_oracle(self):
        g = FrequencyGrid(10.0, 0.01)
        est = psi_estimator(g, 0.0)
        assert est.well_defined and est.failure is None
        v = g.points
        assert np.max(np.abs(est.values - 2j * np.arctan(v))) < 1e-10
        assert np.max(np.abs(np.abs(est.arg_values) - 1.0)) < 1e-10
        assert est.values[0] == 0.0

    def test_maturity_equivariance(self):
        g = FrequencyGrid(5.0, 0.05)
        a = psi_estimator(g, 0.0, T=1.0)
        b = psi_estimator(g, 0.0, T=2.0)
        assert np.allclose(b.values, a.values / 2.0)

    def test_small_noise_close_to_oracle(self):
        g = FrequencyGrid(5.0, 0.05)
        est = psi_estimator(g, 1e-4,
                            drawn(spectral_blocks(POW, g, 1, 9))[0])
        assert est.well_defined
        assert np.max(np.abs(est.values - 2j * np.arctan(g.points))) < 1e-2

    def test_zero_hit_reported_not_raised(self):
        g = FrequencyGrid(2.0, 0.5)
        # inject spectral values that drive the argument to zero at one point
        v = g.points
        FO = fourier_O(v)
        k = 1
        spec = np.zeros_like(v, dtype=complex)
        # choose X(v_k) so 1 + iv(1+iv)(FO + X) = 0 exactly
        spec[k] = -1.0 / (1j * v[k] * (1.0 + 1j * v[k])) - FO[k]
        est = psi_estimator(g, 1.0, spectral_values=spec)
        assert not est.well_defined and est.failure == "zero-hit"
        assert np.all(np.isnan(est.values.real))

    def test_nan_value_not_well_defined(self):
        g = FrequencyGrid(2.0, 0.5)
        spec = np.zeros(g.points.size, dtype=complex)
        spec[2] = np.nan
        est = psi_estimator(g, 0.1, spec)
        assert not est.well_defined and est.failure == "nan"
        assert math.isnan(est.min_arg_modulus)
        assert np.all(np.isnan(est.values))

    def test_noisy_run_requires_noise_model(self):
        g = FrequencyGrid(2.0, 0.5)
        with pytest.raises(ValueError, match="spectral values"):
            psi_estimator(g, 0.1)

    def test_constant_spectral_value_refused(self):
        g = FrequencyGrid(2.0, 0.5)
        with pytest.raises(ValueError, match=rf"shape \({g.points.size},\)"):
            psi_estimator(g, 0.1, np.array([0.5 + 0j]))

    def test_replicate_block_refused(self):
        g = FrequencyGrid(2.0, 0.5)
        spec = drawn(spectral_blocks(POW, g, 3, 0))
        with pytest.raises(ValueError, match=rf"shape \({g.points.size},\)"):
            psi_estimator(g, 0.1, spec)


class TestPsiVerdicts:
    SCALES = (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0)

    @staticmethod
    def assert_rows_match(verdicts, grid, scale, spec):
        failures = verdicts.failures
        for i in range(spec.shape[0]):
            est = psi_estimator(grid, scale, spectral_values=spec[i])
            assert verdicts.min_arg_modulus[i] == est.min_arg_modulus
            assert bool(verdicts.well_defined[i]) == est.well_defined
            assert failures[i] == est.failure

    def test_matches_per_row_estimator(self):
        # 300 rows judged in one pass; large scales force phase jumps
        g = FrequencyGrid(10.0, 0.05)
        spec = drawn(spectral_blocks(POW, g, 300, 4))
        seen = set()
        for scale in self.SCALES:
            vd = psi_verdicts(g, scale, spec)
            self.assert_rows_match(vd, g, scale, spec)
            seen.update(vd.failures)
        assert "phase-jump" in seen and None in seen

    def test_zero_hit_row(self):
        g = FrequencyGrid(2.0, 0.5)
        v = g.points
        FO = fourier_O(v)
        k = 1
        spec = np.zeros((3, v.size), dtype=complex)
        spec[1, k] = -1.0 / (1j * v[k] * (1.0 + 1j * v[k])) - FO[k]
        vd = psi_verdicts(g, 1.0, spec)
        assert vd.zero_hit.tolist() == [False, True, False]
        assert vd.failures[1] == "zero-hit" and np.isnan(vd.max_phase_jump[1])
        self.assert_rows_match(vd, g, 1.0, spec)

    def test_nan_row(self):
        # not well defined and named, with neighbours kept
        g = FrequencyGrid(2.0, 0.5)
        spec = np.zeros((300, g.points.size), dtype=complex)
        spec[[1, 200], 2] = np.nan
        vd = psi_verdicts(g, 0.1, spec)
        bad = np.isin(np.arange(300), [1, 200])
        assert np.array_equal(vd.well_defined, ~bad)
        assert [i for i, f in enumerate(vd.failures) if f == "nan"] == [1, 200]
        assert set(vd.failures) == {"nan", None}
        assert np.array_equal(np.isnan(vd.min_arg_modulus), bad)

    def test_nan_row_not_counted(self, tmp_path, monkeypatch):
        # through calib-sim: the row is written with its failure and left
        # out of well_defined_counts
        real = calibration.spectral_blocks

        def with_nan(*args, **kwargs):
            for lo, X in real(*args, **kwargs):
                if lo <= 1 < lo + X.shape[0]:
                    X[1 - lo, 3] = np.nan
                yield lo, X
        monkeypatch.setattr(calibration, "spectral_blocks", lambda *a, **k: fieldmod.Draws(
            with_nan(*a, **k), (0.0, 0.0)))
        cfg = ExperimentConfig.from_dict("calib-sim", {
            "n_replicates": 4, "V": 3.0, "step": 0.2,
            "noise_scales": [1e-3], "out_dir": str(tmp_path / "run")})
        run_experiment(cfg)
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["well_defined_counts"] == {"0.001": 3}
        with open(tmp_path / "run" / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["well_defined"], r["failure"]) for r in rows] == [
            ("True", ""), ("False", "nan"), ("True", ""), ("True", "")]

    def test_runner_rows_equal_psi_verdicts(self, tmp_path):
        # 600 replicates: two full draw blocks and a partial one; each row
        # is psi_verdicts' verdict on the same row of the blocks concatenated
        scales = [1e-3, 1.0, 100.0]
        cfg = ExperimentConfig.from_dict("calib-sim", {
            "n_replicates": 600, "V": 3.0, "step": 0.2, "seed": 5,
            "noise_scales": scales, "out_dir": str(tmp_path / "run")})
        run_experiment(cfg)
        g = FrequencyGrid(3.0, 0.2)
        spec = drawn(spectral_blocks(POW, g, 600, 5))
        vds = [psi_verdicts(g, scale, spec) for scale in scales]
        want = ["replicate,noise_scale,well_defined,min_arg_modulus,failure"]
        for i in range(600):
            for scale, vd in zip(scales, vds):
                failure = vd.failures[i]
                want.append(f"{i},{scale:.17g},{bool(vd.well_defined[i])},"
                            f"{float(vd.min_arg_modulus[i]):.17g},"
                            f"{'' if failure is None else failure}")
        got = (tmp_path / "run" / "results.csv").read_text().splitlines()
        assert got == want
        assert {line.rsplit(",", 1)[1] for line in got[1:]} == {"", "phase-jump"}

    @pytest.mark.parametrize("rows", [1, 33, 77, 256])
    def test_tiles_do_not_move_a_verdict(self, rows):
        # blocks that are not all multiples of the tile; past one row, the
        # block holds a NaN row and, at each scale, a zero-hit row, and the
        # largest scale forces phase jumps
        g = FrequencyGrid(10.0, 0.05)
        v, k = g.points, 7
        c = 1j * v[k] * (1.0 + 1j * v[k])
        seen = set()
        for scale in (1e-3, 100.0):
            spec = drawn(spectral_blocks(POW, g, rows, 6))
            if rows > 1:
                spec[rows // 2, 3] = np.nan
                spec[rows - 1, k] = (-1.0 / c - fourier_O(v[k])) / scale
            vd = psi_verdicts(g, scale, spec)
            failures = vd.failures
            for i in range(rows):
                est = psi_estimator(g, scale, spectral_values=spec[i])
                assert (vd.min_arg_modulus[i].tobytes()
                        == np.float64(est.min_arg_modulus).tobytes())
                assert (vd.max_phase_jump[i].tobytes()
                        == np.float64(est.max_phase_jump).tobytes())
                assert bool(vd.zero_hit[i]) == (est.failure == "zero-hit")
                assert failures[i] == est.failure
            seen.update(failures)
        if rows > 1:
            assert seen == {None, "nan", "zero-hit", "phase-jump"}

    def test_run_holds_two_factors_and_one_block(self):
        # calib-sim's loop over the draw blocks: each factor is written over
        # its covariance and the verdicts are formed in tiles, so past the
        # factors the traced peak is one block with its normals and their
        # product, 2.0 blocks (3.5 while each factor had its own array and
        # A was formed for the whole block)
        g = FrequencyGrid(5.0, 0.01)
        scales = (1e-3, 1e-2, 1e-1)

        def run():
            for lo, X in calibration.spectral_blocks(POW, g, 600, 3):
                vds = [psi_verdicts(g, scale, X) for scale in scales]
                del X, vds

        run()  # the transforms are cached
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m = g.positive.size
        factors = 8 * ((m + 1) ** 2 + m * m)
        block = fieldmod._DRAW_ROWS * (m + 1) * 16
        assert peak <= factors + 2.5 * block

    def test_runner_memory_does_not_grow_with_replicates(self, tmp_path):
        # the rows are streamed to results.csv one draw block at a time, so
        # from 512 to 4096 replicates the traced peak of a whole run stays
        # flat; while every row was held it grew from 1,097 to 2,542 KiB
        def traced(n, name):
            cfg = ExperimentConfig.from_dict("calib-sim", {
                "n_replicates": n, "V": 3.0, "step": 0.05,
                "noise_scales": [1e-3, 1e-2, 1e-1],
                "out_dir": str(tmp_path / name)})
            tracemalloc.start()
            try:
                run_experiment(cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            lines = (tmp_path / name / "results.csv").read_text().splitlines()
            assert len(lines) == 1 + 3 * n
            return peak

        traced(512, "warm")  # the transforms and the quadrature rule are cached
        peak_lo = traced(512, "lo")
        peak_hi = traced(4096, "hi")
        assert peak_hi - peak_lo < 128 * 1024

    @staticmethod
    def mirrored_verdicts(grid, scale, spec):
        """Verdict fields on the full path over [-V, V]: X(-v) = conj X(v)
        mirrors the half block, and A is formed at every v of both halves."""
        pos = grid.positive
        v = np.concatenate([-pos[::-1], grid.points])
        X = np.concatenate([np.conj(spec[:, :0:-1]), spec], axis=1)
        A = 1.0 + 1j * v * (1.0 + 1j * v) * (fourier_O(v) + scale * X)
        mods = np.abs(A)
        zero = np.any(mods < calibration._TOL_ZERO, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            jump = np.max(np.abs(np.angle(A[:, 1:] / A[:, :-1])), axis=1)
        labels = ["zero-hit" if z else
                  "phase-jump" if j >= math.pi - calibration._UNWRAP_MARGIN
                  else None for z, j in zip(zero, jump)]
        return np.min(mods, axis=1), zero, labels

    @pytest.mark.parametrize("zero_row", [False, True],
                             ids=["phase-jumps", "zero-hit"])
    def test_half_grid_matches_mirrored_path(self, zero_row):
        # the half grid's verdicts against the conjugate-mirrored full path,
        # on a random block with X(0) real whose rows grow from 1e-4 to 1
        g = FrequencyGrid(10.0, 0.05)
        rng = np.random.default_rng(31)
        spec = (rng.normal(size=(200, g.points.size))
                + 1j * rng.normal(size=(200, g.points.size)))
        spec[:, 0] = spec[:, 0].real
        spec *= np.geomspace(1e-4, 1.0, 200)[:, None]
        scale = 1.0
        if zero_row:
            v, k = g.points, 7
            spec[3, k] = (-1.0 / (1j * v[k] * (1.0 + 1j * v[k]))
                          - fourier_O(v[k]))
        vd = psi_verdicts(g, scale, spec)
        min_mod, zero, labels = self.mirrored_verdicts(g, scale, spec)
        assert np.array_equal(vd.min_arg_modulus, min_mod)
        assert np.array_equal(vd.zero_hit, zero)
        assert vd.failures == labels
        assert "phase-jump" in labels and None in labels
        assert ("zero-hit" in labels) == zero_row

    def test_noiseless_rows_ignore_spectral_values(self):
        g = FrequencyGrid(5.0, 0.05)
        spec = drawn(spectral_blocks(POW, g, 4, 1))
        vd = psi_verdicts(g, 0.0, spec)
        est = psi_estimator(g, 0.0)
        assert np.all(vd.min_arg_modulus == est.min_arg_modulus)
        assert vd.failures == [None] * 4

    def test_empty_block_and_shape_check(self):
        g = FrequencyGrid(2.0, 0.5)
        vd = psi_verdicts(g, 1.0, np.empty((0, g.points.size)))
        assert vd.min_arg_modulus.shape == (0,) and vd.failures == []
        with pytest.raises(ValueError, match="shape"):
            psi_verdicts(g, 1.0, np.zeros(g.points.size))
