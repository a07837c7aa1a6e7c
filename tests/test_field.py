import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from anisofield.errors import ModelRejected
from anisofield import _blas, calibration, hitting
from anisofield import field as fieldmod
from anisofield.field import (FieldModel, build_covariance,
                              cholesky_with_jitter, modulus_statistic,
                              path_blocks, standard_normal_batch,
                              verify_condition1, verify_condition2)
from anisofield.metric import HurstVector, IndexSet, product_grid, rho_to_point
from anisofield.seeds import MASK64, stream_key
from conftest import drawn, holm_rejects, increment_z, lag_point_sets, rho_pairwise


def model_2x2(H=(0.5,)):
    return FieldModel(H=HurstVector(H=H), mixing=((1.0, 0.0), (1.0, 1.0)))


class TestBuildCovariance:
    def test_single_point_identity_mixing(self):
        m = FieldModel(H=HurstVector(H=(0.5,)), mixing=((1.0, 0.0), (0.0, 1.0)))
        cov = build_covariance(m, np.array([[0.3]]))
        assert np.allclose(cov, np.eye(2))

    def test_duplicated_point_still_factorizes(self):
        m = model_2x2()
        cov = build_covariance(m, np.array([[0.1], [0.1]]))
        assert np.allclose(cov[:2, :2], cov[2:, 2:])
        # the factor is written over its argument, and cov is read below
        L, jitter = cholesky_with_jitter(cov.copy())
        assert np.allclose(L @ L.T, cov, atol=1e-8)

    def test_exponential_toeplitz_entries(self):
        m = model_2x2(H=(0.5,))
        g = np.linspace(0.0, 1.0, 5)[:, None]
        K = m.kernel_matrix(g)
        expect = np.exp(-np.abs(g[:, 0][:, None] - g[:, 0][None, :]))
        assert np.allclose(K, expect)
        cov = build_covariance(m, g)
        assert np.allclose(cov, cov.T)

    @pytest.mark.parametrize("name", lag_point_sets())
    def test_kernel_has_the_bits_of_the_all_axes_power(self, name):
        points, H = lag_point_sets()[name]
        exps = 2.0 * H.as_array()
        ref = np.exp(-np.sum(np.abs(points[:, None, :] - points[None, :, :]) ** exps,
                             axis=2))
        K = FieldModel(H=H, mixing=((1.0,),)).kernel_matrix(points)
        assert K.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("H,n_per_axis,bound", [
        ((0.5,), 2025, 1.05), ((0.5, 0.9), 45, 2.05)], ids=["N=1", "N=2"])
    def test_kernel_build_peak(self, H, n_per_axis, bound):
        # K itself, and for N > 1 one buffer; the all-axes power had held
        # 2N more n x n arrays
        points = IndexSet.unit_box(len(H)).mesh(n_per_axis)
        m = FieldModel(H=HurstVector(H=H), mixing=((1.0,),))
        tracemalloc.start()
        try:
            m.kernel_matrix(points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 8 * len(points) ** 2, peak

    def test_jitter_reported(self):
        assert cholesky_with_jitter(build_covariance(
            model_2x2(), np.array([[0.1], [0.1]])))[1] > 0.0
        assert cholesky_with_jitter(build_covariance(
            model_2x2(), np.linspace(0, 1, 4)[:, None]))[1] == 0.0

    def test_point_set_of_another_dimension_refused(self):
        # without the check, (4, 1) points broadcast against two exponents
        H = HurstVector(H=(0.7, 0.9))
        pts = np.linspace(0.0, 1.0, 4)[:, None]
        with pytest.raises(ValueError, match="dimension"):
            FieldModel(H=H, mixing=((1.0,),)).kernel_matrix(pts)
        with pytest.raises(ValueError, match="dimension"):
            rho_to_point(pts, (0.0, 0.0), H)


def copying_factor(cov):
    """The factor and jitter of np.linalg.cholesky on copies of cov: cov
    itself, then cov plus 1e-10, 2e-10, ... up to 1e-6 of its largest
    diagonal entry on the diagonal; cov is left as it is."""
    scale = float(np.max(np.diag(cov)))
    try:
        return np.linalg.cholesky(cov), 0.0
    except np.linalg.LinAlgError:
        pass
    rel = fieldmod.JITTER_REL
    while rel <= fieldmod.JITTER_REL_MAX:
        try:
            return (np.linalg.cholesky(cov + rel * scale * np.eye(len(cov))),
                    rel * scale)
        except np.linalg.LinAlgError:
            rel *= 2.0
    raise ModelRejected("no jitter factors it")


def calib_covariances(V, step):
    g = calibration.FrequencyGrid(V, step)
    return calibration._spectral_covariances(calibration.NoiseLevel(a=1.5),
                                             g.positive)


class TestFactorInPlace:
    """cholesky_with_jitter writes the factor over its argument, with the
    bits of np.linalg.cholesky on a copy."""

    @pytest.fixture(params=["dpotrf", "fallback"])
    def lookup(self, request, monkeypatch):
        if request.param == "dpotrf":
            if _blas.dpotrf() is None:
                pytest.skip("the loaded BLAS exports no dpotrf")
        else:
            monkeypatch.setattr(_blas, "dpotrf", lambda: None)
        return request.param

    @pytest.mark.parametrize("cov", [
        pytest.param(lambda: calib_covariances(5.0, 0.1)[0], id="calib-X1-5-0.1"),
        pytest.param(lambda: calib_covariances(5.0, 0.1)[1], id="calib-X2-5-0.1"),
        pytest.param(lambda: calib_covariances(10.0, 0.01)[0], id="calib-X1-10-0.01"),
        pytest.param(lambda: calib_covariances(10.0, 0.01)[1], id="calib-X2-10-0.01"),
        *(pytest.param(lambda n=n: model_2x2().kernel_matrix(
            np.linspace(0.0, 1.0, n)[:, None]), id=f"kernel-{n}")
          for n in (2, 129, 1025))])
    def test_bits_of_the_copying_factor(self, lookup, cov):
        cov = cov()
        ref, ref_jitter = copying_factor(cov)
        L, jitter = cholesky_with_jitter(cov)
        assert L is cov and np.shares_memory(L, cov)
        assert jitter == ref_jitter == 0.0
        assert L.flags.c_contiguous and L.tobytes() == ref.tobytes()
        rng = np.random.default_rng(len(L))
        for rows in (1, 7, 256):
            z = rng.standard_normal((rows, len(L)))
            assert (z @ L.T).tobytes() == (z @ ref.T).tobytes()

    def test_duplicated_point_jitter(self, lookup):
        cov = build_covariance(model_2x2(), np.array([[0.1], [0.1]]))
        ref, ref_jitter = copying_factor(cov)
        L, jitter = cholesky_with_jitter(cov.copy())
        assert jitter == ref_jitter > 0.0
        assert L.tobytes() == ref.tobytes()
        assert L.tobytes() == np.linalg.cholesky(
            build_covariance(model_2x2(), np.array([[0.1], [0.1]]))
            + jitter * np.eye(4)).tobytes()

    def test_indefinite_matrix_rejected(self, lookup):
        # eigenvalues 3 and -1: no jitter up to 1e-6 of the diagonal helps
        with pytest.raises(ModelRejected, match="jitter up to 1e-06"):
            cholesky_with_jitter(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestConditions:
    def test_condition1_identity_mixing(self):
        m = FieldModel(H=HurstVector(H=(0.5,)), mixing=((1.0, 0.0), (0.0, 1.0)))
        g = np.linspace(0.0, 1.0, 40)[:, None]
        max_ratio, c_analytic, ok = verify_condition1(m, g)
        assert c_analytic == pytest.approx(2.0)
        assert ok and max_ratio <= 2.0

    def test_condition1_scaling_homogeneity(self):
        m1 = model_2x2()
        m3 = FieldModel(H=m1.H, mixing=tuple(tuple(3.0 * x for x in row)
                                             for row in m1.mixing))
        g = np.linspace(0.0, 1.0, 15)[:, None]
        r1, c1, _ = verify_condition1(m1, g)
        r3, c3, _ = verify_condition1(m3, g)
        assert r3 == pytest.approx(3.0 * r1)
        assert c3 == pytest.approx(3.0 * c1)

    @pytest.mark.parametrize("name", lag_point_sets())
    def test_condition1_matches_all_pairs(self, name):
        points, H = lag_point_sets()[name]
        m = FieldModel(H=H, mixing=((1.0, 0.0), (1.0, 1.0)))
        rho, K = rho_pairwise(points, H), m.kernel_matrix(points)
        canon = np.sqrt(np.maximum(0.0, 2.0 * float(np.trace(m.gram)) * (1.0 - K)))
        mask = rho > 0
        assert verify_condition1(m, points)[0] == float(np.max(canon[mask] / rho[mask]))

    def test_condition1_builds_no_pair_matrix(self):
        # the n x n rho, K, canonical-distance and mask arrays of 2,049
        # points had peaked at 164 MiB
        g = np.linspace(0.0, 1.0, 2049)[:, None]
        tracemalloc.start()
        try:
            verify_condition1(model_2x2(H=(0.75,)), g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    def test_condition2_closed_forms(self):
        ident = FieldModel(H=HurstVector(H=(0.5,)), mixing=((1.0, 0.0), (0.0, 1.0)))
        assert verify_condition2(ident) == pytest.approx(1.0)
        assert verify_condition2(model_2x2()) == pytest.approx(
            (3.0 - math.sqrt(5.0)) / 2.0, abs=1e-12)

    def test_condition2_rejects_zero_row(self):
        degenerate = FieldModel(H=HurstVector(H=(0.5,)),
                                mixing=((1.0, 0.0), (0.0, 0.0)))
        with pytest.raises(ModelRejected):
            verify_condition2(degenerate)

    def test_overflowing_gram_fails_without_warning(self):
        # A A^T = 1e400 I overflows to inf, whose lambda_min was a NaN that
        # passed the floor; 1.69e308 I is finite, but its trace is not, so
        # the domination constant sqrt(2 trace) is infinite
        H = HurstVector(H=(0.5,))
        g = np.linspace(0.0, 1.0, 5)[:, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelRejected, match="singular or not finite"):
                verify_condition2(FieldModel(H=H, mixing=((1e200, 0.0),
                                                          (0.0, 1e200))))
            big = FieldModel(H=H, mixing=((1.3e154, 0.0), (0.0, 1.3e154)))
            with pytest.raises(ModelRejected, match=r"sqrt\(2 trace\) = inf"):
                verify_condition2(big)
            max_ratio, c_analytic, ok = verify_condition1(big, g)
        assert c_analytic == math.inf and ok is False


class TestSamplePaths:
    def test_empty(self):
        with pytest.raises(ValueError, match="n_samples must be >= 1"):
            drawn(path_blocks(model_2x2(), np.linspace(0, 1, 4)[:, None], 0, 0))

    def test_deterministic_and_worker_invariant(self):
        m = model_2x2()
        g = np.linspace(0.0, 1.0, 8)[:, None]
        a = drawn(path_blocks(m, g, 300, 99))
        b = drawn(path_blocks(m, g, 300, 99))
        assert a.tobytes() == b.tobytes()

    @staticmethod
    def check_mean_and_covariance(m, g):
        n = 20_000
        paths = drawn(path_blocks(m, g, n, 7))
        flat = paths.reshape(n, -1)
        ana = build_covariance(m, g)
        sd = np.sqrt(np.diag(ana))
        assert np.all(np.abs(flat.mean(axis=0)) <= 4.0 * sd / math.sqrt(n))
        emp = flat.T @ flat / n
        se = np.sqrt((np.outer(np.diag(ana), np.diag(ana)) + ana ** 2) / n)
        assert np.all(np.abs(emp - ana) <= 5.0 * se)

    def test_mean_and_covariance_exact(self):
        self.check_mean_and_covariance(model_2x2(),
                                       np.linspace(0.0, 1.0, 10)[:, None])

    def test_mean_and_covariance_exact_2d_product_grid(self):
        g = product_grid([np.linspace(0.0, 1.0, 3), np.linspace(0.0, 0.5, 3)])
        self.check_mean_and_covariance(model_2x2(H=(0.6, 0.8)), g)

    def test_two_point_correlation(self):
        m = FieldModel(H=HurstVector(H=(0.5,)), mixing=((1.0,),))
        g = np.array([[0.0], [0.4]])
        n = 20_000
        vals = drawn(path_blocks(m, g, n, 3))[:, :, 0]
        expect = math.exp(-0.4)
        corr = float(np.mean(vals[:, 0] * vals[:, 1]))
        se = math.sqrt((1.0 + expect ** 2) / n)
        assert abs(corr - expect) <= 5.0 * se

    def test_gaussianity_ks(self):
        m = model_2x2()
        g = np.linspace(0.0, 1.0, 5)[:, None]
        vals = drawn(path_blocks(m, g, 20_000, 17))
        sd = math.sqrt(build_covariance(m, g)[0, 0])
        _, pval = stats.kstest(vals[:, 0, 0] / sd, "norm")
        assert pval > 1e-3


def dense_reference(m, pts, n_samples, seed):
    """The draw through the factor of the full n d x n d covariance."""
    cov = build_covariance(m, pts)
    L, jitter = cholesky_with_jitter(cov)
    assert jitter == 0.0
    z = standard_normal_batch(cov.shape[0], n_samples, seed, "field")
    return (z @ L.T).reshape(n_samples, -1, m.d)


class TestKroneckerDraw:
    """path_blocks factors the n x n kernel and G = A A^T apart; its draws
    equal those of the dense factor of K (x) G up to rounding."""

    # the largest relative difference seen was 2.2e-11, at n = 1025
    RTOL = 1e-9

    def check(self, m, pts, n_samples=30, seed=4):
        got = drawn(path_blocks(m, pts, n_samples, seed))
        ref = dense_reference(m, pts, n_samples, seed)
        assert got.shape == ref.shape == (n_samples, len(pts), m.d)
        assert np.max(np.abs(got - ref)) <= self.RTOL * np.max(np.abs(ref))

    def test_1d_lattice(self):
        self.check(model_2x2(H=(0.75,)), np.linspace(0.0, 1.0, 129)[:, None])

    def test_2d_ball_grid(self):
        H = HurstVector(H=(0.8, 0.9))
        pts = hitting._ball_grid(np.array([0.5, 0.5]), 0.3,
                                 IndexSet.box((0.0, 0.0), (1.0, 1.0)), H, 14)
        self.check(FieldModel(H=H, mixing=((1.0, 0.0), (1.0, 1.0))), pts)

    def test_touching_boxes_union(self):
        halves = IndexSet(boxes=(((0.0,), (0.5,)), ((0.5,), (1.0,))))
        self.check(model_2x2(H=(0.75,)), halves.lattice(1 / 16))

    def test_more_fields_than_components(self):
        m = FieldModel(H=HurstVector(H=(0.6,)),
                       mixing=((1.0, 0.5, -0.3), (0.2, 1.0, 0.7)))
        self.check(m, np.linspace(0.0, 1.0, 40)[:, None])

    def test_scalar_field(self):
        m = FieldModel(H=HurstVector(H=(0.5,)), mixing=((1.7,),))
        self.check(m, np.linspace(0.0, 1.0, 40)[:, None])

    def test_gram_that_does_not_factor_refused(self):
        # three components from one field: G = A A^T has rank 1
        m = FieldModel(H=HurstVector(H=(0.5,)), mixing=((1.0,), (2.0,), (3.0,)))
        with pytest.raises(ValueError):
            drawn(path_blocks(m, np.linspace(0.0, 1.0, 5)[:, None], 3, 0))


class TestDrawLoop:
    """path_blocks and spectral_blocks are factor builders around the one
    loop field.draw_blocks: they factor at the call, before any normal is
    drawn, and the loop steps in blocks of _DRAW_ROWS replicates."""

    @pytest.fixture
    def normals(self, monkeypatch):
        calls = []
        real = fieldmod.standard_normal_batch

        def counting(dim, n, seed, stream, start=0):
            calls.append((stream, start, n))
            return real(dim, n, seed, stream, start=start)
        monkeypatch.setattr(fieldmod, "standard_normal_batch", counting)
        return calls

    def builders(self):
        noise = calibration.NoiseLevel(a=1.5)
        grid = calibration.FrequencyGrid(3.0, 0.5)
        return {"path_blocks": lambda n: path_blocks(
                    model_2x2(), np.linspace(0, 1, 9)[:, None], n, 4),
                "spectral_blocks": lambda n: calibration.spectral_blocks(
                    noise, grid, n, 4)}

    @pytest.mark.parametrize("name", ["path_blocks", "spectral_blocks"])
    def test_refusal_at_the_call(self, monkeypatch, normals, name):
        def refuse(cov):
            raise ModelRejected("no jitter factors it")
        monkeypatch.setattr(fieldmod, "cholesky_with_jitter", refuse)
        with pytest.raises(ModelRejected):
            self.builders()[name](600)  # not iterated
        assert normals == []

    def test_jitter_known_before_the_first_block(self, normals):
        # H = 1 on 129 lattice points factors K + 1e-10 I, a default grid
        # nothing; each is known before a normal is drawn
        m = model_2x2(H=(1.0,))
        draws = path_blocks(m, IndexSet.unit_box(1).lattice(1 / 128), 3, 0)
        assert draws.jitter == (1e-10,)
        assert self.builders()["spectral_blocks"](3).jitter == (0.0, 0.0)
        assert self.builders()["path_blocks"](3).jitter == (0.0,)
        assert normals == []
        assert drawn(draws).shape == (3, 129, 2) and normals == [("field", 0, 3)]

    @pytest.mark.parametrize("name", ["path_blocks", "spectral_blocks"])
    @pytest.mark.parametrize("n,blocks", [(1, [(0, 1)]), (256, [(0, 256)]),
                                          (257, [(0, 256), (256, 1)]),
                                          (600, [(0, 256), (256, 256), (512, 88)])])
    def test_blocks_of_draw_rows(self, normals, name, n, blocks):
        # each block is drawn from its own rows of every stream, in stream
        # order, and a stream's rows are drawn only as its factor is applied
        draws = self.builders()[name](n)
        got = [(lo, len(X)) for lo, X in draws]
        assert got == blocks
        streams = ["field"] if name == "path_blocks" else ["spec-cos", "spec-sin"]
        assert normals == [(s, lo, k) for lo, k in blocks for s in streams]


class TestIncrementLaw:
    """The field's law at scale, through exact moments of its quadratic
    variations (conftest.increment_z): H = 0.75, the 2 x 2 mixing, a
    2,049-point mesh of [0, 1], 200 replicates and lags 1, 2, 8 and 64 on
    both components, judged jointly by Holm at level 0.01. The seed, 21,
    was fixed before the first run."""

    H, SEED, LAGS, ALPHA = 0.75, 21, (1, 2, 8, 64), 0.01

    @classmethod
    def setup_class(cls):
        cls.points = IndexSet.box((0.0,), (1.0,)).mesh(2049)
        cls.paths = drawn(path_blocks(model_2x2(H=(cls.H,)), cls.points, 200, cls.SEED))

    def z(self, paths):
        # component a of the 2 x 2 mixing has variance G_aa = 1 + a
        return np.concatenate([increment_z(paths[:, :, a], 1.0 / 2048, self.H,
                                           1.0 + a, self.LAGS) for a in (0, 1)])

    def test_exact_draw_passes(self):
        z = self.z(self.paths)
        assert holm_rejects(z, self.ALPHA) == [], z

    def test_hurst_off_by_one_percent_rejected(self):
        wrong = drawn(path_blocks(model_2x2(H=(self.H * 1.01,)), self.points,
                                  200, self.SEED))
        z = self.z(wrong)
        assert {0, 4} <= set(holm_rejects(z, self.ALPHA)), z  # lag 1, both

    def test_gram_off_by_two_percent_rejected(self):
        # paths of the mixing sqrt(1.02) A, whose G is 1.02 A A^T
        z = self.z(self.paths * math.sqrt(1.02))
        assert {0, 4} <= set(holm_rejects(z, self.ALPHA)), z  # lag 1, both


def philox_row(master, stream, i, dim):
    """The first dim normals of a fresh generator keyed [stream_key, i]."""
    key = np.array([stream_key(master, stream), i], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal(dim)


class TestKeyedDraws:
    """standard_normal_batch keys one Philox per row: row i of a stream is
    the first draw of the generator keyed [stream_key(master, stream), i]."""

    EDGE_MASTERS = [0, 1, 2**32, 2**63, 2**64 - 1, -1, -2**70]

    def test_rows_equal_one_generator_per_seed(self):
        # 992 normals per row run through the ziggurat's rejection paths, and
        # each row must start from a fresh stream, not where the last ended
        for master in self.EDGE_MASTERS:
            got = standard_normal_batch(992, 5, master, "field")
            assert got.shape == (5, 992)
            for i, row in enumerate(got):
                assert row.tobytes() == philox_row(master, "field", i,
                                                   992).tobytes()

    @given(st.integers(-2**70, 2**70), st.integers(1, 40))
    def test_rows_match_philox_key(self, master, n):
        got = standard_normal_batch(3, n, master, "x")
        assert np.all(got == np.stack([philox_row(master, "x", i, 3)
                                       for i in range(n)]))

    @pytest.mark.parametrize("bad", [-1, 2**64, 2**70])
    def test_master_outside_64_bits_is_masked(self, bad):
        assert np.array_equal(standard_normal_batch(3, 4, bad, "x"),
                              standard_normal_batch(3, 4, bad & MASK64, "x"))

    def test_no_seeds(self):
        assert standard_normal_batch(7, 0, 3, "x").shape == (0, 7)

    @pytest.mark.parametrize("lo,n", [(0, 600), (256, 256), (512, 88),
                                      (599, 1), (3, 0)])
    def test_row_range_equals_rows_of_one_batch(self, lo, n):
        # a row block drawn on its own has the bits of the same rows of one
        # batch from replicate 0
        full = standard_normal_batch(992, 600, 101, "spec-cos")
        part = standard_normal_batch(992, n, 101, "spec-cos", start=lo)
        assert part.shape == (n, 992)
        assert part.tobytes() == full[lo:lo + n].tobytes()

    def test_consecutive_keys_independent(self):
        # keys that differ in their last word give uncorrelated rows
        z = standard_normal_batch(1000, 1000, 11, "field")
        c = z - z.mean(axis=1, keepdims=True)
        corr = np.sum(c[:-1] * c[1:], axis=1) / np.sqrt(
            np.sum(c[:-1] ** 2, axis=1) * np.sum(c[1:] ** 2, axis=1))
        assert np.max(np.abs(corr)) < 5.0 / math.sqrt(1000)
        _, pval = stats.kstest(z.ravel(), "norm")
        assert pval > 1e-3


class TestModulusStatistic:
    def setup_method(self):
        self.m = model_2x2(H=(0.5,))
        self.grid = np.linspace(0.0, 0.2, 201)[:, None]  # rho spacing 0.0316
        self.paths = drawn(path_blocks(self.m, self.grid, 50, 5))

    def test_empty_eps_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            modulus_statistic(self.paths, self.grid, self.m.H, [])

    def test_eps_out_of_range(self):
        with pytest.raises(ValueError):
            modulus_statistic(self.paths, self.grid, self.m.H, [1.0])

    def test_missing_flagged_not_zero(self):
        rep = modulus_statistic(self.paths, self.grid, self.m.H, [0.03, 0.2])
        assert rep.missing[0] is True and np.all(np.isnan(rep.M[:, 0]))
        assert rep.missing[1] is False and np.all(np.isfinite(rep.M[:, 1]))

    def test_shift_invariant(self):
        rep = modulus_statistic(self.paths, self.grid, self.m.H, [0.2])
        shifted = drawn(path_blocks(self.m, self.grid, 50, 5)) + np.array([3.0, -1.0])
        rep2 = modulus_statistic(shifted, self.grid, self.m.H, [0.2])
        assert np.allclose(rep.M[:, 0], rep2.M[:, 0])

    def test_nonnegative(self):
        rep = modulus_statistic(self.paths, self.grid, self.m.H, [0.1, 0.2])
        assert np.all(rep.M[:, :] >= 0)

    def test_values_on_other_grid_refused(self):
        # every pair of both grids lies within eps, so no pair mask is partial
        small = np.linspace(0.0, 0.2, 10)[:, None]
        big = np.linspace(0.0, 0.2, 20)[:, None]
        for drawn_on, grid in ((big, small), (small, big)):
            values = drawn(path_blocks(self.m, drawn_on, 5, 1))
            with pytest.raises(ValueError, match="shape"):
                modulus_statistic(values, grid, self.m.H, [0.9])


class TestModulusMatchesAllPairs:
    """modulus_statistic against an inline loop over every pair s < t."""

    @staticmethod
    def all_pairs(vals, points, H, eps_list):
        rho = rho_pairwise(points, H)
        eps = sorted(eps_list)
        M = np.full((vals.shape[0], len(eps)), np.nan)
        for col, e in enumerate(eps):
            best = None
            for i in range(vals.shape[1]):
                for j in range(i + 1, vals.shape[1]):
                    if rho[i, j] <= e:
                        diff = vals[:, i] - vals[:, j]
                        norm = np.sqrt(np.sum(diff * diff, axis=1))
                        best = norm if best is None else np.maximum(best, norm)
            if best is not None:
                M[:, col] = best / (e * np.sqrt(np.log(1.0 / e)))
        return M, tuple(np.isnan(M[0]))

    def check(self, model, points, eps, n_samples=6, seed=3):
        paths = drawn(path_blocks(model, points, n_samples, seed))
        rep = modulus_statistic(paths, points, model.H, eps)
        M, missing = self.all_pairs(paths, points, model.H, eps)
        assert np.array_equal(rep.M, M, equal_nan=True)
        assert rep.missing == missing
        return rep

    def test_1d_grid_with_missing_eps(self):
        rep = self.check(model_2x2(H=(0.5,)), np.linspace(0.0, 0.2, 41)[:, None],
                         [0.2, 0.08, 0.05])
        assert rep.missing == (True, False, False)

    def test_2d_grid(self):
        g = np.stack(np.meshgrid(np.linspace(0, 0.3, 6), np.linspace(0, 0.1, 5),
                                 indexing="ij"), axis=-1).reshape(-1, 2)
        rep = self.check(model_2x2(H=(0.5, 0.8)), g, [0.1, 0.3, 0.6])
        assert not any(rep.missing)

    def test_duplicate_points(self):
        pts = np.random.default_rng(8).uniform(size=(12, 1))
        pts = np.concatenate([pts, pts[[1, 5]]])   # rho = 0 pairs count
        m = FieldModel(H=HurstVector(H=(0.7,)), mixing=((1.0, 0.0, 0.0),
                                                        (0.0, 1.0, 0.0),
                                                        (1.0, 1.0, 1.0)))
        rep = self.check(m, pts, [1e-3, 0.2, 0.2])
        assert not any(rep.missing)
