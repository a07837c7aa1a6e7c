import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from anisofield.metric import (EuclideanBall, HurstVector, IndexSet,
                               ball_bounding_box, chaining_c2,
                               chaining_series_bound, covering_number_upper,
                               entropy_integral_closed_form, grid_cover,
                               hausdorff_premeasure, lag_gaps)
from anisofield.field import modulus_statistic
from conftest import lag_point_sets, max_pair_ratio, rho_pairwise

H1 = HurstVector(H=(1.0,))
H05 = HurstVector(H=(0.5,))


def hursts(max_n=4):
    return st.lists(st.floats(0.05, 1.0), min_size=1, max_size=max_n).map(
        lambda hs: HurstVector(H=tuple(hs)))


class TestHurstVector:
    def test_validation(self):
        with pytest.raises(ValueError):
            HurstVector(H=())
        with pytest.raises(ValueError):
            HurstVector(H=(0.0,))
        with pytest.raises(ValueError):
            HurstVector(H=(1.5,))

    def test_anisotropy_index(self):
        assert HurstVector(H=(1.0, 1.0)).Q == 2.0
        assert H05.Q == 2.0
        assert HurstVector(H=(0.75, 0.75)).Q == pytest.approx(8.0 / 3.0)

    @given(hursts())
    def test_q_at_least_n(self, H):
        assert H.Q >= H.N - 1e-12
        if all(h == 1.0 for h in H.H):
            assert H.Q == H.N


class TestRhoDistance:
    """rho between two points, read off rho_pairwise over the stacked pair."""

    @staticmethod
    def rho(s, t, H):
        return rho_pairwise(np.array([s, t], dtype=float), H)[0, 1]

    def test_identity(self):
        assert self.rho([0.3, -1.0], [0.3, -1.0], HurstVector(H=(0.5, 1.0))) == 0.0

    def test_values(self):
        assert self.rho([0.0], [0.25], H05) == pytest.approx(0.5)
        got = self.rho([0.0, 0.0], [0.1, 0.04], HurstVector(H=(1.0, 0.5)))
        assert got == pytest.approx(0.3)

    def test_dimension_mismatch(self):
        # points with two coordinates against a one-axis Hurst vector
        with pytest.raises(ValueError, match="dimension"):
            rho_pairwise(np.zeros((2, 2)), H1)

    @given(hursts(3), st.data())
    def test_metric_axioms(self, H, data):
        coords = st.floats(-5, 5)
        pt = st.lists(coords, min_size=H.N, max_size=H.N)
        pts = np.array([data.draw(pt), data.draw(pt), data.draw(pt)])
        rho = rho_pairwise(pts, H)
        dst = rho[0, 1]
        assert dst == rho[1, 0]
        assert dst >= 0.0 and np.all(np.diag(rho) == 0.0)
        # each |.|^H with H <= 1 is subadditive, so rho satisfies the triangle
        assert dst <= rho[0, 2] + rho[2, 1] + 1e-9


class TestMaxPairRatio:
    @staticmethod
    def all_pairs(vals, rho):
        best = np.zeros(vals.shape[0])
        n = vals.shape[1]
        for i in range(n):
            for j in range(i + 1, n):
                if rho[i, j] > 0:
                    r = np.linalg.norm(vals[:, i] - vals[:, j], axis=1) / rho[i, j]
                    best = np.maximum(best, r)
        return best

    def test_matches_all_pairs_on_irregular_grid_with_duplicates(self):
        rng = np.random.default_rng(4)
        H = HurstVector(H=(0.5, 0.9))
        pts = rng.uniform(size=(15, 2))
        pts = np.concatenate([pts, pts[[2, 7]]])   # duplicates: rho = 0 pairs
        rho = rho_pairwise(pts, H)
        vals = rng.standard_normal((4, pts.shape[0], 3))
        got = max_pair_ratio(vals, pts, H)
        assert got.shape == (4,)
        assert np.allclose(got, self.all_pairs(vals, rho), rtol=1e-12, atol=0.0)

    def test_unordered_points_max_on_last_superdiagonal(self):
        # the closest pair is (0, 2), which only the last lag visits
        pts = np.array([[0.0], [1.0], [0.01]])
        vals = np.array([[[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]])
        got = max_pair_ratio(vals, pts, H1)
        assert got == pytest.approx([100.0], rel=1e-12)

    def test_points_of_another_dimension_refused(self):
        with pytest.raises(ValueError, match="dimension"):
            max_pair_ratio(np.zeros((1, 4, 2)), np.zeros((4, 2)), H1)

    def test_no_pair_with_positive_distance(self):
        pts = np.zeros((3, 1))
        assert np.array_equal(max_pair_ratio(np.ones((2, 3, 2)), pts, H05), [0.0, 0.0])
        single = np.zeros((1, 1))
        assert np.array_equal(max_pair_ratio(np.ones((2, 1, 2)), single, H05), [0.0, 0.0])


def _lattice():
    return (np.arange(129) / 128.0)[:, None], HurstVector(H=(0.75,))


def _linspace():
    return np.linspace(0.0, 1.0, 37)[:, None], HurstVector(H=(0.75,))


def _irregular_2d():
    pts = np.random.default_rng(4).uniform(size=(15, 2))
    pts = np.concatenate([pts, pts[[2, 7]]])   # duplicates: rho = 0 pairs
    return pts, HurstVector(H=(0.5, 0.9))


class TestPairReductionsBitExact:
    """max_pair_ratio and modulus_statistic against a per-pair reference:
    every pair's norm and ratio taken on its own, then the max, so the
    reductions before the root must give the same bits."""

    GRIDS = {"lattice": _lattice, "linspace": _linspace,
             "irregular-2d": _irregular_2d}

    @staticmethod
    def pair_norms(vals, points, H):
        """(rho, norm) of every pair i < j, norms of shape (k, pairs)."""
        i, j = np.triu_indices(points.shape[0], 1)
        diff = vals[:, j] - vals[:, i]
        sq = diff[..., 0] * diff[..., 0]
        for c in range(1, diff.shape[2]):
            sq = sq + diff[..., c] * diff[..., c]
        return rho_pairwise(points, H)[i, j], np.sqrt(sq)

    def ratio_reference(self, vals, points, H):
        rho, norm = self.pair_norms(vals, points, H)
        best = np.zeros(vals.shape[0])
        for p in np.flatnonzero(rho > 0):
            best = np.maximum(best, norm[:, p] / rho[p])
        return best

    def modulus_reference(self, vals, points, H, eps):
        rho, norm = self.pair_norms(vals, points, H)
        M = np.full((vals.shape[0], len(eps)), np.nan)
        for col, e in enumerate(eps):
            if (rho <= e).any():
                best = np.max(norm[:, rho <= e], axis=1)
                M[:, col] = best / (e * np.sqrt(np.log(1.0 / e)))
        return M

    def test_lags_share_one_distance_only_on_the_lattice(self):
        # the grids cover lags of one distance, lags of mixed distances and
        # lags that drop a rho == 0 pair
        def shared(points, H):
            rho = rho_pairwise(points, H)
            return [bool((np.diagonal(rho, lag) == rho[0, lag]).all())
                    for lag in range(1, points.shape[0])]
        assert all(shared(*_lattice()))
        assert sum(not s for s in shared(*_linspace())) == 28
        # the duplicates drop a rho == 0 pair from lags that keep others
        points, H = _irregular_2d()
        rho = rho_pairwise(points, H)
        dropped = [lag for lag in range(1, points.shape[0])
                   if (np.diagonal(rho, lag) == 0).any()]
        assert dropped == [9, 13]
        assert all((np.diagonal(rho, lag) > 0).any() for lag in dropped)

    @pytest.mark.parametrize("name", lag_point_sets())
    def test_lag_rho_is_the_all_pairs_superdiagonal(self, name):
        points, H = lag_point_sets()[name]
        rho = rho_pairwise(points, H)
        walked = [(gaps.copy(), den) for gaps, den in lag_gaps(points, H)]
        assert len(walked) == points.shape[0] - 1
        for lag, (gaps, den) in enumerate(walked, 1):
            assert den.tobytes() == np.diagonal(rho, lag).tobytes()
            assert np.array_equal(gaps, np.abs(points[:-lag] - points[lag:]))

    @pytest.mark.parametrize("grid", GRIDS)
    def test_max_pair_ratio(self, grid):
        points, H = self.GRIDS[grid]()
        vals = np.random.default_rng(11).standard_normal((5, points.shape[0], 3))
        got = max_pair_ratio(vals, points, H)
        assert np.array_equal(got, self.ratio_reference(vals, points, H))

    @pytest.mark.parametrize("grid", GRIDS)
    def test_modulus_statistic(self, grid):
        # every lag's squares are summed into the same buffers, one
        # component at a time; on the lattice and the linspace the lags
        # beyond eps = 0.9 are skipped
        points, H = self.GRIDS[grid]()
        eps = [0.02, 0.1, 0.3, 0.9]
        for d in (1, 2, 3):
            vals = np.random.default_rng(12).standard_normal((5, points.shape[0], d))
            rep = modulus_statistic(vals, points, H, eps)
            assert np.array_equal(rep.M, self.modulus_reference(vals, points, H, eps),
                                  equal_nan=True), d

    @pytest.mark.parametrize("grid", GRIDS)
    def test_nan_value_gives_nan(self, grid):
        # a NaN is kept by both reductions (np.max, np.maximum, not fmax)
        points, H = self.GRIDS[grid]()
        vals = np.random.default_rng(13).standard_normal((3, points.shape[0], 2))
        vals[1, 4, 1] = np.nan
        got = max_pair_ratio(vals, points, H)
        assert np.isnan(got).tolist() == [False, True, False]
        assert np.array_equal(got, self.ratio_reference(vals, points, H),
                              equal_nan=True)
        eps = [0.9]
        rep = modulus_statistic(vals, points, H, eps)
        assert np.isnan(rep.M[:, 0]).tolist() == [False, True, False]
        assert np.array_equal(rep.M, self.modulus_reference(vals, points, H, eps),
                              equal_nan=True)


class TestWalkMemory:
    def test_modulus_statistic_holds_only_its_walk_buffers(self):
        # a (256, 2049, 2) draw block: the walk's point-major copy of each
        # component, the squares and one difference, each 2049 x 256
        # doubles; the 2049 x 2049 rho read by the walk had made it 6 times
        # larger
        points = np.linspace(0.0, 0.2, 2049)[:, None]
        vals = np.random.default_rng(15).standard_normal((256, 2049, 2))
        buffers = 4 * vals.shape[0] * vals.shape[1] * 8
        tracemalloc.start()
        try:
            modulus_statistic(vals, points, H05, [0.2, 0.1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * buffers, (peak, buffers)

    def test_one_component_takes_no_difference_buffer(self):
        # the copy and the squares: a difference buffer would be a third
        points = np.linspace(0.0, 0.2, 2049)[:, None]
        vals = np.random.default_rng(15).standard_normal((256, 2049, 1))
        buffers = 2 * vals.shape[0] * vals.shape[1] * 8
        tracemalloc.start()
        try:
            modulus_statistic(vals, points, H05, [0.2, 0.1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * buffers, (peak, buffers)


class TestBallBoundingBox:
    def test_examples(self):
        lo, hi = ball_bounding_box([0.0], 0.25, H05)
        assert lo[0] == pytest.approx(-0.0625) and hi[0] == pytest.approx(0.0625)
        lo, hi = ball_bounding_box([1.0, 1.0], 1.0, HurstVector(H=(1.0, 1.0)))
        assert np.allclose(lo, [0, 0]) and np.allclose(hi, [2, 2])
        lo, hi = ball_bounding_box([0.0, 0.0], 0.5, HurstVector(H=(0.5, 1.0)))
        assert np.allclose(lo, [-0.25, -0.5]) and np.allclose(hi, [0.25, 0.5])

    @given(hursts(2), st.floats(0.01, 2.0), st.data())
    def test_contains_ball_boundary(self, H, r, data):
        t = np.array(data.draw(
            st.lists(st.floats(-2, 2), min_size=H.N, max_size=H.N)))
        lo, hi = ball_bounding_box(t, r, H)
        # random points at rho-distance exactly <= r stay inside the box
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        pts = t + (rng.uniform(-1, 1, size=(64, H.N))
                   * (r ** (1.0 / H.as_array())))
        from anisofield.metric import rho_to_point
        inside = rho_to_point(pts, t, H) <= r
        assert np.all((pts[inside] >= lo - 1e-12) & (pts[inside] <= hi + 1e-12))


class TestIndexSetContains:
    def test_union_of_boxes_refused(self):
        # the index set is one box, held as lo and hi; there is no boxes field
        with pytest.raises(TypeError, match="boxes"):
            IndexSet(boxes=(((0.0,), (0.5,)), ((0.5,), (1.0,))))

    def test_boxes_widened_by_1e12(self):
        I = IndexSet([1.0, -0.5], [2.0, 0.5])
        pts = np.array([[1.0, 0.0], [2.0 + 5e-13, 0.5], [2.0 + 1e-11, 0.0],
                        [0.75, 0.0], [1.0 - 5e-13, -0.5 - 5e-13], [1.5, 0.5 + 1e-11],
                        [1.0 - 1e-11, 0.0]])
        assert I.contains(pts).tolist() == [True, True, False, False,
                                            True, False, False]

    @pytest.mark.parametrize("width", [1, 3])
    def test_points_of_another_width_refused(self, width):
        # (m, 1) points would broadcast against 2-D bounds
        with pytest.raises(ValueError, match="dimension 2"):
            IndexSet([0.0, 0.0], [1.0, 1.0]).contains(np.full((4, width), 0.5))


class TestLattice:
    def test_upper_edge_kept(self):
        # (0.7 - 0) / 0.1 is 6.999999999999999 in floating point
        pts = IndexSet([0.0], [0.7]).lattice(0.1)
        assert pts.shape == (8, 1)
        assert pts[-1, 0] == pytest.approx(0.7, rel=1e-15)

    def test_binary_steps_unchanged(self):
        for step in (1 / 64, 1 / 128):
            pts = IndexSet([0.0], [1.0]).lattice(step)
            assert np.array_equal(pts[:, 0], np.arange(round(1 / step) + 1) * step)

    def test_rows_distinct_below_the_double_spacing(self):
        # the step 1/8 is below the spacing of doubles at 2^53, so axis 0
        # repeats its values: each row is kept once, with the order and
        # bits of the row-wise de-duplication of tool version 0.9.1
        pts = IndexSet([2.0 ** 53, 0.0], [2.0 ** 53 + 64, 1.0]).lattice(1 / 8)
        assert pts.shape == (297, 2)
        assert hashlib.sha256(pts.tobytes()).hexdigest() == (
            "003dafe9aae46a9c5ae8e5c568db45ea6a94393d084e8c9a3202bfd4bde4b6e6")

    @pytest.mark.parametrize("lo,hi", [((0.1, -0.3), (0.8, 0.45))], ids=["one-box"])
    def test_binary_steps_nest(self, lo, hi):
        # k h and 2k (h/2) are the same double, so halving a binary step
        # keeps every row bit for bit, off-lattice lower corners included
        I = IndexSet(lo, hi)
        for h in (1 / 16, 1 / 32, 1 / 64):
            coarse, fine = I.lattice(h), I.lattice(h / 2)
            assert len(fine) > len(coarse)
            assert ({row.tobytes() for row in coarse}
                    <= {row.tobytes() for row in fine}), h


class TestGridCover:
    def test_unit_interval_halves(self):
        gc = grid_cover(IndexSet([0.0], [1.0]), 0.5, H1)
        assert gc.count == 2
        assert gc.is_valid_on(IndexSet([0.0], [1.0]).mesh(10_000))

    def test_big_radius_single_center(self):
        gc = grid_cover(IndexSet([0.0], [1.0]), 1.5, H1)
        assert gc.count == 1

    def test_square_count_bound(self):
        H = HurstVector(H=(0.5, 0.5))
        I = IndexSet([0.0, 0.0], [1.0, 1.0])
        gc = grid_cover(I, 0.25, H)
        assert gc.count <= gc.c8 * 0.25 ** (-H.Q)
        assert gc.is_valid_on(I.mesh(100))

    def test_count_without_centers(self):
        # 1,368,900 balls: counted from the cells, no array of centers built
        H = HurstVector(H=(0.75, 0.75))
        tracemalloc.start()
        try:
            gc = grid_cover(IndexSet([0.0, 0.0], [1.0, 1.0]), 0.01, H)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gc.count == 1170 ** 2
        assert peak < 1 << 20


class TestCoveringNumberUpper:
    def test_examples(self):
        assert covering_number_upper(1.0, 0.5, H1) == pytest.approx(5.0)
        assert covering_number_upper(1.0, 1.0, H1) == pytest.approx(3.0)
        H = HurstVector(H=(0.5, 1.0))
        expect = ((2 * 1 * 2 / 0.1) ** 2 + 1) * ((2 * 1 * 2 / 0.1) + 1)
        assert covering_number_upper(1.0, 0.1, H) == pytest.approx(expect)

    def test_errors(self):
        with pytest.raises(ValueError):
            covering_number_upper(1.0, 0.0, H1)
        with pytest.raises(ValueError):
            covering_number_upper(1.0, 2.0, H1)

    @given(st.floats(0.1, 2.0), st.floats(0.01, 1.0), hursts(3))
    def test_monotone_in_eps(self, r, frac, H):
        eps_hi = r
        eps_lo = r * frac
        assert (covering_number_upper(r, eps_lo, H)
                >= covering_number_upper(r, eps_hi, H) - 1e-9)
        assert covering_number_upper(r, eps_lo, H) >= 1.0


class TestChainingSchedule:
    def test_c2_series_value(self):
        # independent oracle: brute-force partial sums of the defining series
        total = sum(2.0 ** ((l + 1) / 2.0) * math.exp(-(2.0 ** (l + 1)))
                    for l in range(1, 60))
        assert chaining_c2(1.0) == pytest.approx(1.0 + total, abs=1e-12)
        assert chaining_c2(7.0) == pytest.approx(1.0 + 7.0 * total, abs=1e-12)


class TestChainingSeriesBound:
    def test_threshold(self):
        # analytic threshold beta* = sqrt(32 Q d (d+1)^2 c^2) = sqrt(768)
        _, conv28 = chaining_series_bound(28.0, 0.0, 1.0, 2, 4.0 / 3.0, 30)
        _, conv27 = chaining_series_bound(27.0, 0.0, 1.0, 2, 4.0 / 3.0, 30)
        assert conv28 and not conv27
        assert math.isclose(math.sqrt(32 * (4 / 3) * 2 * 9), math.sqrt(768))

    def test_partial_sums_monotone_bounded(self):
        sums = [chaining_series_bound(28.0, 0.0, 1.0, 2, 4.0 / 3.0, k)[0]
                for k in range(2, 30)]
        assert all(b >= a for a, b in zip(sums, sums[1:]))
        assert sums[-1] < 10.0

    @given(st.floats(0.5, 60.0), st.floats(0.5, 60.0))
    def test_converges_monotone_in_beta(self, b1, b2):
        lo, hi = sorted([b1, b2])
        _, c_lo = chaining_series_bound(lo, 0.0, 1.0, 2, 4.0 / 3.0, 10)
        _, c_hi = chaining_series_bound(hi, 0.0, 1.0, 2, 4.0 / 3.0, 10)
        assert c_hi or not c_lo

    def test_small_q_converges(self):
        _, conv = chaining_series_bound(1.0, 0.0, 1.0, 2, 1e-6, 20)
        assert conv


class TestHausdorffPremeasure:
    def test_point_cover(self):
        val = hausdorff_premeasure([EuclideanBall(center=(0.0,), radius=0.01)],
                                   2.0 / 3.0)
        assert val == pytest.approx(0.02 ** (2.0 / 3.0))
        assert val == pytest.approx(0.0737, abs=5e-4)

    def test_segment_scaling_identity(self):
        for k in (1, 4, 17):
            cover = [EuclideanBall(center=((i + 0.5) / k,), radius=1.0 / (2 * k))
                     for i in range(k)]
            assert hausdorff_premeasure(cover, 1.0) == pytest.approx(1.0)

    def test_negative_radius_rejected(self):
        ball = EuclideanBall(center=(0.0,), radius=0.0)
        object.__setattr__(ball, "radius", -1.0)
        with pytest.raises(ValueError):
            hausdorff_premeasure([ball], 1.0)

    @given(st.lists(st.floats(1e-6, 10.0), min_size=1, max_size=10),
           st.floats(0.1, 3.0), st.floats(0.1, 10.0))
    def test_homogeneous_in_radius(self, radii, alpha, lam):
        cover = [EuclideanBall(center=(0.0,), radius=r) for r in radii]
        scaled = [EuclideanBall(center=(0.0,), radius=lam * r) for r in radii]
        a = hausdorff_premeasure(cover, alpha)
        b = hausdorff_premeasure(scaled, alpha)
        assert b == pytest.approx(lam ** alpha * a, rel=1e-9)


class TestEntropyIntegral:
    def test_endpoint_value(self):
        assert entropy_integral_closed_form(1.0) == pytest.approx(
            math.sqrt(math.pi) / 2.0, abs=1e-12)

    def test_domain(self):
        for bad in (0.0, -0.5, 1.01):
            with pytest.raises(ValueError):
                entropy_integral_closed_form(bad)

    @pytest.mark.parametrize("x", [0.01, 0.05, 0.1, 0.25, 0.45, 0.9, 1.0])
    def test_against_quadrature(self, x):
        oracle, _ = integrate.quad(lambda y: math.sqrt(-math.log(y)), 0.0, x,
                                   epsabs=1e-12, limit=200)
        assert entropy_integral_closed_form(x) == pytest.approx(oracle, abs=1e-8)

    def test_vanishes_at_zero(self):
        assert entropy_integral_closed_form(1e-12) < 1e-5
