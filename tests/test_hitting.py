import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from anisofield import field as fieldmod
from anisofield import hitting
from anisofield import metric as metricmod
from anisofield.errors import Refusal
from anisofield.field import FieldModel
from anisofield.hitting import (HittingEstimate, LipschitzDrift,
                                hitting_scan, polarity_scan,
                                scaling_exponent, wilson_interval)
from anisofield.metric import HurstVector, IndexSet, rho_to_point
from conftest import drawn, max_pair_ratio
from oracle_ou import hit_probability

H075 = HurstVector(H=(0.75,))
UNIT = IndexSet([0.0], [1.0])


def model(H=(0.75,)):
    return FieldModel(H=HurstVector(H=H), mixing=((1.0, 0.0), (1.0, 1.0)))


def drift_values(f, points, n_mc, seed, index_set=UNIT, H=H075):
    """The drift for the d = 2 field, as a scan on index_set evaluates it."""
    return f.evaluate_many(index_set, points, H, 2, n_mc, seed)


@pytest.fixture
def factor_calls(monkeypatch):
    """Shape and jitter of every covariance factored while the test runs."""
    calls = []
    real = fieldmod.cholesky_with_jitter

    def counting(cov):
        L, jitter = real(cov)
        calls.append((cov.shape, jitter))
        return L, jitter

    monkeypatch.setattr(fieldmod, "cholesky_with_jitter", counting)
    return calls


class TestWilsonInterval:
    def test_brackets_p_hat(self):
        lo, hi = wilson_interval(3, 10)
        assert lo <= 0.3 <= hi

    def test_extremes_stay_in_unit_interval(self):
        lo0, hi0 = wilson_interval(0, 20)
        loN, hiN = wilson_interval(20, 20)
        assert lo0 == 0.0 and hi0 < 0.25
        assert hiN == 1.0 and loN > 0.75

    @given(st.integers(1, 500), st.data())
    def test_ordering(self, n, data):
        k = data.draw(st.integers(0, n))
        lo, hi = wilson_interval(k, n)
        assert 0.0 <= lo <= k / n <= hi <= 1.0

    def test_coverage_on_synthetic_bernoulli(self):
        # 1000 seeded trials at p = 0.3, n = 200: empirical 95% coverage
        rng = np.random.default_rng(1234)
        p, n = 0.3, 200
        covered = 0
        for _ in range(1000):
            k = rng.binomial(n, p)
            lo, hi = wilson_interval(int(k), n)
            covered += lo <= p <= hi
        assert 0.93 <= covered / 1000 <= 0.97

    @pytest.mark.parametrize("confidence", [0.5, 0.8, 0.9, 0.95, 0.99, 0.999])
    def test_z_is_norm_ppf_bit_for_bit(self, confidence):
        # the interval's z is the 95% quantile of norm.ppf and scipy's ndtri,
        # bit for bit, and no other level's: at 0.95 the interval equals the
        # formula at norm.ppf's z, at a lower level it contains the formula's
        # interval strictly, at a higher one it lies strictly inside it
        from scipy.special import ndtri
        from scipy.stats import norm
        q95 = 0.5 + 0.95 / 2.0
        assert (hitting._Z95.hex() == float(norm.ppf(q95)).hex()
                == float(ndtri(q95)).hex())
        z = float(norm.ppf(0.5 + confidence / 2.0))
        lo, hi = wilson_interval(7, 40)
        p, n = 7 / 40, 40
        denom = 1.0 + z * z / n
        center = (p + z * z / (2 * n)) / denom
        half = (z / denom) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
        lo_z, hi_z = (min(p, max(0.0, center - half)),
                      max(p, min(1.0, center + half)))
        if confidence == 0.95:
            assert (lo, hi) == (lo_z, hi_z)
        elif confidence < 0.95:
            assert lo < lo_z and hi_z < hi
        else:
            assert lo_z < lo and hi < hi_z


class TestLipschitzDrift:
    def test_constant_zero_ok(self):
        f = LipschitzDrift(kind="zero")
        g = np.linspace(0, 1, 20)[:, None]
        ratio = max_pair_ratio(drift_values(f, g, 1, 0), g, H075)[0]
        assert ratio == 0.0 and ratio <= f.L * (1.0 + 1e-9)

    def test_affine_saturates_but_respects_bound(self):
        f = LipschitzDrift(kind="affine", L=2.0)
        g = np.linspace(0, 1, 30)[:, None]
        ratio = max_pair_ratio(drift_values(f, g, 1, 0), g, H075)[0]
        assert ratio <= f.L * (1.0 + 1e-9) and ratio <= 2.0 + 1e-9
        assert ratio == pytest.approx(2.0, rel=1e-9)  # adjacent points saturate

    def test_violating_function_flagged(self):
        # raw values with slope 2 checked against a claimed bound of 0.1
        g = np.linspace(0, 1, 10)[:, None]
        f = LipschitzDrift(kind="affine", L=2.0)
        ratio = max_pair_ratio(drift_values(f, g, 1, 0), g, H075)[0]
        assert not ratio <= 0.1 * (1.0 + 1e-9) and ratio > 0.1
        # the same values pass against the honest bound
        assert ratio <= 2.0 * (1.0 + 1e-9)

    def test_drift_independent_of_field_stream(self, monkeypatch):
        # the coefficients come from the drift stream, not the field's, and
        # repeat bit for bit
        fdrift = LipschitzDrift(kind="field", L=1.0)
        g = np.linspace(0, 1, 12)[:, None]
        a = drift_values(fdrift, g, 1, 5)[0]
        b = drift_values(fdrift, g, 1, 5)[0]
        assert np.array_equal(a, b)
        real = hitting.standard_normal_batch
        monkeypatch.setattr(hitting, "standard_normal_batch",
                            lambda dim, n, seed, stream, start=0:
                            real(dim, n, seed, "field", start))
        c = drift_values(fdrift, g, 1, 5)[0]
        assert not np.allclose(a, c)

    def test_field_drift_needs_positive_widths(self):
        line = IndexSet([0.0, 0.5], [1.0, 0.5])
        pts = np.array([[0.0, 0.5], [1.0, 0.5]])
        with pytest.raises(ValueError, match="positive width"):
            drift_values(LipschitzDrift(kind="field", L=1.0), pts, 1, 1,
                         index_set=line, H=HurstVector(H=(0.75, 0.75)))

    def test_unknown_kind_refused(self):
        with pytest.raises(ValueError, match="unknown drift kind"):
            LipschitzDrift(kind="bump", L=1.0)

    def test_values_on_other_points_refused(self):
        # a 1-D array is not one point with ten components
        g = np.linspace(0, 1, 10)[:, None]
        with pytest.raises(ValueError, match="shape"):
            max_pair_ratio((100 * np.linspace(0, 1, 10))[None], g, H075)


class TestBatchedFieldDrift:
    GRID = np.linspace(0, 1, 33)[:, None]

    def drift(self, L=0.5):
        return LipschitzDrift(kind="field", L=L)

    def test_rows_match_single_seed_evaluate(self):
        # one product per replicate: a row's bits do not depend on the others
        f = self.drift()
        many = drift_values(f, self.GRID, 6, 4)
        assert many.shape == (6, 33, 2)
        for i in range(6):
            assert many[i].tobytes() == drift_values(
                f, self.GRID, i + 1, 4)[i].tobytes()

    def test_replicate_does_not_depend_on_n_mc(self, monkeypatch):
        # the scan keys replicate i's streams by (seed, i) alone
        seen = []
        real = LipschitzDrift.evaluate_many

        def recording(drift, *args):
            out = real(drift, *args)
            seen.append(out.copy())
            return out

        monkeypatch.setattr(LipschitzDrift, "evaluate_many", recording)
        for n_mc in (40, 7):
            polarity_scan(model(), UNIT, self.drift(), [0.0, 0.0],
                          [0.2, 0.1], n_mc, 4, 1 / 16)
        assert [v.shape[0] for v in seen] == [40, 7]
        assert seen[0][:7].tobytes() == seen[1].tobytes()

    def test_field_replicate_does_not_depend_on_n_mc(self):
        # a replicate's bits depend on its draw block alone: the first block
        # of 256 is the same in draws of any larger count; one product over
        # every replicate had moved some of its entries at each count
        m = model(H=(0.5,))
        pts = IndexSet((0.0,), (0.2,)).mesh(401)
        ref = drawn(fieldmod.path_blocks(m, pts, 256, 3))
        for n_mc in (300, 512, 1000, 2000):
            got = drawn(fieldmod.path_blocks(m, pts, n_mc, 3))
            assert got[:256].tobytes() == ref.tobytes(), n_mc

    def test_continuum_bound_on_a_ladder(self):
        # 200 replicates are <= L on every grid from step 2^-4 to 2^-11, 16
        # times finer than the benchmark's 2^-7: the bound is the
        # continuum's, not a grid's
        f = self.drift()
        for e in range(4, 12):
            g = (np.arange(2 ** e + 1) / 2.0 ** e)[:, None]
            ratio = max_pair_ratio(drift_values(f, g, 200, 21), g, H075)
            assert ratio.max() <= 0.5 * (1.0 + 1e-9), e
            # not a vanishing drift either: about a third of L at the median
            assert np.median(ratio) > 0.1
        # on a 2-D box whose sides differ, at two steps
        H2 = HurstVector(H=(0.5, 0.9))
        box = IndexSet([0.0, -1.0], [1.0, 1.0])
        for step in (1 / 8, 1 / 16):
            pts = box.lattice(step)
            ratio = max_pair_ratio(drift_values(f, pts, 200, 21, box, H2), pts, H2)
            assert ratio.max() <= 0.5 * (1.0 + 1e-9), step

    def test_nested_grids_agree_at_shared_points(self):
        f = self.drift()
        fine = (np.arange(2049) / 2048.0)[:, None]
        top = drift_values(f, fine, 50, 22)
        for e in (4, 7, 10):
            g = fine[::2 ** (11 - e)]
            np.testing.assert_allclose(drift_values(f, g, 50, 22),
                                       top[:, ::2 ** (11 - e)],
                                       rtol=0.0, atol=1e-14)

    def test_scans_never_walk_pairs(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("pair walk")

        monkeypatch.setattr(metricmod, "lag_gaps", refuse)
        monkeypatch.setattr(fieldmod, "lag_gaps", refuse)
        f = self.drift()
        polarity_scan(model(), UNIT, f, [0.0, 0.0], [0.2, 0.1], 30, 2, 1 / 64)
        hitting_scan(model(), UNIT, [0.5], [0.1], f, 30, 2, 16)
        with pytest.raises(AssertionError, match="pair walk"):
            max_pair_ratio(np.zeros((1, 3, 2)), self.GRID[:3], H075)

    def test_deterministic_kinds_repeat_per_seed(self):
        f = LipschitzDrift(kind="affine", L=2.0)
        many = drift_values(f, self.GRID, 3, 0)
        one = drift_values(f, self.GRID, 1, 0)[0]
        assert all(np.array_equal(row, one) for row in many)
        zero = drift_values(LipschitzDrift(kind="zero"), self.GRID, 2, 0)
        assert zero.shape == (2, 33, 2) and not zero.any()

    def test_affine_is_L_rho_along_e1(self):
        # bit for bit the outer product of L rho(0, s) with the unit vector e_1
        f = LipschitzDrift(kind="affine", L=0.7)
        vals = drift_values(f, self.GRID, 1, 0)[0]
        rho = rho_to_point(self.GRID, (0.0,), H075)
        e1 = np.array([1.0, 0.0])
        assert np.array_equal(vals, (0.7 * rho)[:, None] * e1[None, :])


class TestHittingProbability:
    def test_zero_replicates_rejected(self):
        with pytest.raises(ValueError):
            hitting_scan(model(), UNIT, [0.5], [0.1],
                         LipschitzDrift(kind="zero"), 0, 0, 16)

    def test_huge_radius_always_hits(self):
        # r far above the field scale: non-hit probability < 1e-6
        m = model()
        (est,) = hitting_scan(m, UNIT, [0.5], [20.0],
                              LipschitzDrift(kind="zero"), 500, 0, 16).estimates
        # the ball's box is far wider than [0, 1], so its 16 steps leave few
        # lattice points in the index set
        assert est.p_hat == 1.0

    def test_coarse_grid_refused(self):
        with pytest.raises(Refusal):
            hitting_scan(model(), UNIT, [0.5], [0.05],
                         LipschitzDrift(kind="zero"), 10, 0, 4)

    def test_empty_ball_intersection_refused(self):
        far = IndexSet([5.0], [6.0])
        with pytest.raises(Refusal):
            hitting_scan(model(), far, [0.5], [0.05],
                         LipschitzDrift(kind="zero"), 10, 0, 16)

    def test_p_hat_decreasing_in_r(self):
        ests = hitting_scan(model(), UNIT, [0.5], [0.2, 0.1, 0.05],
                            LipschitzDrift(kind="zero"), 4000, 11, 16).estimates
        # monotone up to MC noise: assert via non-overlapping Wilson CIs
        assert ests[0].ci_low > ests[1].ci_high
        assert ests[1].ci_low > ests[2].ci_high

    @pytest.mark.parametrize("r", [0.2, 0.1, 0.05, 0.025])
    def test_ball_grid_keeps_both_boundary_points(self, r):
        # the hitting-scan default: 16 steps across the ball's box, whose
        # quotient lands a few ulps off 16, and two ends at rho = r up to
        # rounding; all 17 lattice points lie in the closed ball
        pts = hitting._ball_grid(np.array([0.5]), r, UNIT, H075, 16)
        assert pts.shape == (17, 1)

    def test_field_drift_factors_once(self, factor_calls):
        m = model()
        hitting_scan(m, UNIT, [0.5], [0.1], LipschitzDrift(kind="field", L=0.5),
                     50, 2, 16)
        assert len(factor_calls) == 1


class TestScalingExponent:
    @staticmethod
    def synthetic(radii, C, d, n=10_000):
        ests = []
        for r in radii:
            p = C * r ** d
            ests.append(HittingEstimate(p_hat=p, ci_low=p, ci_high=p,
                                        n_mc=n, r=r))
        return ests

    def test_exact_power_law(self):
        rep = scaling_exponent(self.synthetic([0.2, 0.1, 0.05, 0.025], 1.0, 2))
        assert rep.fitted_slope == pytest.approx(2.0, abs=1e-12)
        assert rep.slope_se == pytest.approx(0.0, abs=1e-10)

    def test_prefactor_invariance(self):
        a = scaling_exponent(self.synthetic([0.2, 0.1, 0.05], 1.0, 2))
        b = scaling_exponent(self.synthetic([0.2, 0.1, 0.05], 37.0, 2))
        assert a.fitted_slope == pytest.approx(b.fitted_slope)

    def test_all_zero_estimates_reported(self):
        ests = [HittingEstimate(p_hat=0.0, ci_low=0.0, ci_high=0.1,
                                n_mc=10, r=r) for r in (0.2, 0.1, 0.05)]
        rep = scaling_exponent(ests)
        assert rep.status == "too-few-nonzero-estimates"
        assert np.isnan(rep.fitted_slope)


class TestPolarityScan:
    def test_q_ge_d_refused(self):
        rough = FieldModel(H=HurstVector(H=(0.4,)),
                           mixing=((1.0, 0.0), (1.0, 1.0)))
        with pytest.raises(Refusal, match="Q < d"):
            polarity_scan(rough, UNIT, LipschitzDrift(kind="zero"),
                          [0.0, 0.0], [0.2, 0.1, 0.05], 10, 0, 1 / 64)

    def test_huge_delta_hits_everything(self):
        rep = polarity_scan(model(), UNIT, LipschitzDrift(kind="zero"),
                            [0.0, 0.0], [50.0, 0.1, 0.05], 200, 0, 1 / 64)
        assert rep.estimates[0].p_hat == 1.0

    def test_hits_monotone_in_delta(self):
        rep = polarity_scan(model(), UNIT, LipschitzDrift(kind="zero"),
                            [0.0, 0.0], [0.2, 0.1, 0.05, 0.025], 2000, 3, 1 / 64)
        p = [e.p_hat for e in rep.estimates]
        assert all(a >= b for a, b in zip(p, p[1:]))

    def test_empty_deltas_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            polarity_scan(model(), UNIT, LipschitzDrift(kind="zero"),
                          [0.0, 0.0], [], 10, 0, 1 / 64)

    def test_field_drift_factors_once(self, factor_calls):
        m = model()
        polarity_scan(m, UNIT, LipschitzDrift(kind="field", L=0.5),
                      [0.0, 0.0], [0.2, 0.1, 0.05], 50, 1, 1 / 64)
        assert len(factor_calls) == 1

    def test_field_drift_golden(self):
        # re-pinned when replicate i's stream came to be keyed by the
        # stream's hash and i (tool version 0.7.0)
        m = model()
        rep = polarity_scan(m, UNIT,
                            LipschitzDrift(kind="field", L=0.5),
                            [0.0, 0.0], [0.2, 0.1, 0.05, 0.025], 600, 7, 1 / 128)
        assert [e.p_hat for e in rep.estimates] == [
            0.255, 0.15833333333333333, 0.09333333333333334, 0.03]
        assert rep.fitted_slope == 1.0024889210024361

    def test_deltas_must_decrease(self):
        with pytest.raises(ValueError):
            polarity_scan(model(), UNIT, LipschitzDrift(kind="zero"),
                          [0.0, 0.0], [0.1, 0.2], 10, 0, 1 / 64)

    def test_worker_invariance(self):
        args = (model(), UNIT, LipschitzDrift(kind="zero"),
                [0.0, 0.0], [0.2, 0.1, 0.05], 400, 8, 1 / 64)
        a = polarity_scan(*args)
        b = polarity_scan(*args)
        assert [e.p_hat for e in a.estimates] == [e.p_hat for e in b.estimates]


class TestContinuumOracle:
    """H = 1/2, the mixing I_3 (d = 3, d - Q = 1), centre 0 on [0, 1]: the
    scan's grid probabilities against the exact continuum value of
    oracle_ou.hit_probability."""

    DELTAS = (0.4, 0.2, 0.1, 0.05, 0.025)
    STEP = 2.0 ** -9
    SEED = 15015  # fixed before the first run

    @pytest.fixture(scope="class")
    def scan(self):
        I3 = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        m = FieldModel(H=HurstVector(H=(0.5,)), mixing=I3)
        return polarity_scan(m, UNIT, LipschitzDrift(kind="zero"), [0.0] * 3,
                             self.DELTAS, 20_000, self.SEED, self.STEP)

    def test_oracle_agrees_at_two_resolutions(self):
        for delta in self.DELTAS:
            coarse, fine = hit_probability(delta), hit_probability(delta, 2000, 4000)
            assert abs(coarse - fine) <= 1e-4, delta

    def test_grid_never_above_the_continuum(self, scan):
        # a grid can only miss hits: every p_hat sits at or below the
        # oracle, up to its Wilson interval
        assert [e.r for e in scan.estimates] == list(self.DELTAS)
        for e in scan.estimates:
            assert e.ci_low <= hit_probability(e.r), e

    def test_shifted_oracle_inside_each_interval(self, scan):
        # a barrier monitored at step h acts like a continuous one moved by
        # beta sigma sqrt(h), beta = -zeta(1/2) / sqrt(2 pi) and sigma = sqrt(2)
        # (Broadie, Glasserman & Kou 1997); the shift holds for delta >= 2 s
        s = 0.5826 * math.sqrt(2.0 * self.STEP)
        checked = [e for e in scan.estimates if e.r >= 2.0 * s]
        assert [e.r for e in checked] == [0.4, 0.2, 0.1]
        for e in checked:
            assert e.ci_low <= hit_probability(e.r - s) <= e.ci_high, e


class TestDistances:
    @staticmethod
    def distances(monkeypatch, fv, center):
        """hitting._distances of the field values fv (n_mc, n, 2), with a
        zero drift."""
        monkeypatch.setattr(hitting, "path_blocks",
                            lambda *a: fieldmod.Draws([(0, fv.copy())], (0.0,)))
        n_mc, n, _ = fv.shape
        pts = np.linspace(0.0, 1.0, n)[:, None]
        return hitting._distances(model(), UNIT, pts, LipschitzDrift(kind="zero"),
                                  n_mc, 0, 1.0, np.asarray(center, dtype=float))[0]

    def test_scaled_path_keeps_the_bits_where_nothing_overflows(self, monkeypatch):
        # entries up to 2**510 take the scaled path; no square overflows
        # there, and the minimum norm has the bits of the direct formula
        rng = np.random.default_rng(3)
        fv = np.ldexp(rng.uniform(-1, 1, (40, 9, 2)), rng.integers(-30, 510, (40, 9, 2)))
        center = [2.0 ** 505, -3.0]
        got = self.distances(monkeypatch, fv, center)
        want = np.sqrt(np.add.reduce(np.square(fv - center), axis=2).min(axis=1))
        assert got.tobytes() == want.tobytes()

    def test_overflowing_squares_give_the_exact_norm(self, monkeypatch):
        # one point far beyond 2**512 and one near the centre, per replicate:
        # the minimum is the near one, at any magnitude of the far one
        rng = np.random.default_rng(4)
        fv = rng.normal(size=(30, 3, 2))
        fv[:, 0] *= 1e300
        fv[:, 2] *= np.ldexp(1.0, rng.integers(-600, 600, 30))[:, None]
        with np.errstate(all="raise"):
            got = self.distances(monkeypatch, fv, [0.0, 0.0])
        want = [min(math.hypot(*p) for p in rep) for rep in fv]
        assert np.allclose(got, want, rtol=1e-15, atol=0.0)
        far = self.distances(monkeypatch, fv[:, :1], [0.0, 0.0])
        assert np.all(far > 1e290) and np.all(np.isfinite(far))
