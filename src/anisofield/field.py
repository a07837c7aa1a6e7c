"""Exact-covariance sampling of anisotropic (N, d)-Gaussian random fields.

The model family is a product-exponential kernel k(s, t) = exp(-sum_j
|s_j - t_j|^(2 H_j)) on m independent scalar fields, mixed into d output
components by a constant matrix A. This family certifies both standing
assumptions with explicit constants:

* canonical-metric domination with c = sqrt(2 trace(A A^T)), because
  1 - exp(-a) <= a and sum of squares <= square of sums (verify_condition1
  checks it on a grid's pairs, lag by lag);
* an eigenvalue floor lambda = lambda_min(A A^T) > 0 for nonsingular A A^T.

A set of index points is an (n, N) array, one point per row. The covariance
of the field's values on n points is the Kronecker product K (x) G of the
n x n scalar kernel matrix K and G = A A^T, so an exact draw is L_K Z L_G^T,
with Z an (n, d) block of standard normals (Gilboa, Saatci & Cunningham
2015). K is built in place, with one n x n buffer for N > 1
(kernel_matrix), and no run allocates another n x n array: path_blocks
factors K in its own memory when it is called, so a refusal and the
jitter come before any draw, and draw_blocks, the one draw loop of every
sampler (the spectral process's too), streams any number of replicates
from the factors in blocks, one Philox stream per replicate;
grids are kept small (a few thousand points), exactness over scale.
Philox is counter-based, so a stream is only its key: replicate i
of a stream is keyed by the stream's hash and i (see seeds).
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
# numpy loads numpy.random on first attribute access; importing it here puts
# that cost (~20 ms) in the package import instead of the first draw
from numpy.random import Generator, Philox

from . import _blas
from ._record import frozen
from .errors import ModelRejected
from .metric import HurstVector, lag_gaps, pair_lags
from .seeds import stream_key

JITTER_REL = 1e-10
JITTER_REL_MAX = 1e-6
_DRAW_ROWS = 256  # replicates per block of draw_blocks (the bits depend on it)


@frozen
class FieldModel:
    """Stationary anisotropic Gaussian field with constant component mixing."""

    H: HurstVector
    mixing: tuple[tuple[float, ...], ...]  # d x m matrix A

    def __post_init__(self):
        A = np.asarray(self.mixing, dtype=float)
        if A.ndim != 2 or A.size == 0:
            raise ValueError("mixing must be a nonempty 2-D matrix")
        object.__setattr__(self, "mixing",
                           tuple(tuple(float(x) for x in row) for row in A))

    @property
    def d(self) -> int:
        return len(self.mixing)

    @property
    def mixing_array(self) -> np.ndarray:
        return np.asarray(self.mixing, dtype=float)

    @property
    def gram(self) -> np.ndarray:
        """Component covariance A A^T at any single point."""
        A = self.mixing_array
        return A @ A.T

    @property
    def condition1_constant(self) -> float:
        """Analytic c with sqrt(E||X(s)-X(t)||^2) <= c rho(s, t)."""
        return float(np.sqrt(2.0 * np.trace(self.gram)))

    def kernel_matrix(self, points: np.ndarray) -> np.ndarray:
        """Scalar kernel exp(-sum_j |ds_j|^(2 H_j)) on all point pairs, summed in
        axis order in K and, for N > 1, one buffer (metric.check_kernel_fits):
        the bits of np.sum over the axes, for N < 8 (it pairs 8 or more)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        n, N = pts.shape
        if N != self.H.N:
            raise ValueError("points dimension does not match model")
        K, buf = np.empty((n, n)), np.empty((n, n) if N > 1 else 0)
        for j, e in enumerate(2.0 * self.H.as_array()):
            out = buf if j else K
            np.abs(np.subtract.outer(pts[:, j], pts[:, j], out=out), out=out)
            # numpy takes a scalar exponent 2 or 0.5 as a square or a root, a
            # row as pow: the bits of the (n, n, N) power for N = 1 and N > 1
            np.power(out, e if N == 1 else np.full(n, e), out=out)
            if j:
                K += buf
        return np.exp(np.negative(K, out=K), out=K)


def build_covariance(model: FieldModel, points: np.ndarray) -> np.ndarray:
    """Dense covariance of the stacked vector (X(t_1), ..., X(t_n)) over the
    rows t_p of an (n, N) array: the reference law that path_blocks draws.

    Ordering is point-major: row p*d + a corresponds to component a at point p.
    """
    return np.kron(model.kernel_matrix(points), model.gram)


def cholesky_with_jitter(cov: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor L of the bitwise-symmetric cov, written over cov
    (L is cov), with relative diagonal jitter if needed: (L, jitter).

    A C-ordered float64 cov is factored in place by OpenBLAS's dpotrf('L'),
    numpy's call on its copy of the same bytes, and the L^T left above the
    diagonal is moved below it; else np.linalg.cholesky's factor is copied
    in. Either way L has the bits of np.linalg.cholesky(cov + jitter I); the
    jitter doubles from 1e-10 of the max diagonal up to 1e-6, then fails.
    """
    n, diag, scale = len(cov), cov.diagonal().copy(), float(np.max(cov.diagonal()))
    ok = cov.flags.c_contiguous and cov.dtype == float and cov.shape == (n, n)
    potrf, jitter, rel = _blas.dpotrf() if ok else None, 0.0, JITTER_REL
    while True:
        if potrf is None:
            try:
                cov[...] = np.linalg.cholesky(cov)
                return cov, jitter
            except np.linalg.LinAlgError:
                pass
        elif potrf(cov) == 0:
            for i in range(1, n):
                cov[i, :i], cov[:i, i] = cov[:i, i], 0.0  # row i of L
            return cov, jitter
        if rel > JITTER_REL_MAX:
            raise ModelRejected("covariance factorization failed after "
                                f"jitter up to {JITTER_REL_MAX:g} relative")
        for i in range(n):  # a failed try wrote on and above the diagonal only
            cov[i, i + 1:] = cov[i + 1:, i]
        jitter, rel = rel * scale, 2.0 * rel
        cov.flat[::n + 1] = diag + jitter


def verify_condition1(model: FieldModel, points: np.ndarray) -> tuple[float, float, bool]:
    """Max over the pairs of metric.lag_gaps with rho > 0 of canonical distance
    / rho, against the analytic constant; no n x n array is built."""
    if len(points) < 2:
        raise ValueError("need at least two grid points")
    exps, max_ratio = 2.0 * model.H.as_array(), 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # trace(A A^T) may overflow
        tr = float(np.trace(model.gram))
        for gaps, rho in lag_gaps(points, model.H):  # K: kernel_matrix's bits at N < 8
            mask = rho > 0
            K = np.exp(-np.sum(gaps[mask] ** exps, axis=1))
            canon = np.sqrt(np.maximum(0.0, 2.0 * tr * (1.0 - K)))
            max_ratio = np.maximum(max_ratio, np.max(canon / rho[mask], initial=0.0))
        max_ratio, c_analytic = float(max_ratio), model.condition1_constant
    # not ok unless both the ratio and the constant are finite
    return max_ratio, c_analytic, max_ratio <= c_analytic * (1.0 + 1e-12) < np.inf


def verify_condition2(model: FieldModel) -> float:
    """Smallest eigenvalue of A A^T; rejects a singular A A^T, and one whose
    entries or whose condition-1 constant sqrt(2 trace) are not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        G = model.gram
        c = model.condition1_constant
    lam = float(np.linalg.eigvalsh(G)[0]) if np.isfinite(G).all() else np.nan
    if not (lam > 0.0 and np.isfinite(c)):
        raise ModelRejected(
            f"component covariance is singular or not finite (lambda_min = "
            f"{lam:g}, sqrt(2 trace) = {c:g}); the eigenvalue-floor or the "
            "domination condition fails")
    return lam


def standard_normal_batch(dim: int, n: int, master_seed: int,
                          stream: str, start: int = 0) -> np.ndarray:
    """(n, dim) standard normals of replicates start, ..., start + n - 1;
    row i has the bits of
    Generator(Philox(key=[stream_key(master_seed, stream), start + i])).standard_normal(dim).

    Any row range is therefore drawable on its own, with the bits of the
    same rows of one batch from 0. One generator draws every row, its state
    reset before each row to the row's key, counter 0 and an empty buffer.
    The (n, dim) array is allocated before the first draw, so a count too
    large for memory is refused at once.
    """
    z = np.empty((n, dim))
    bit_gen = Philox(0)
    gen = Generator(bit_gen)
    key = [stream_key(master_seed, stream), 0]
    state = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0,
             "uinteger": 0}
    for i in range(n):
        key[1] = start + i
        bit_gen.state = state
        gen.standard_normal(dim, out=z[i])
    return z


@frozen
class Draws:
    """A sampler's blocks (lo, X), drawn once, as iterated, and its factors' jitter."""

    blocks: Iterator[tuple[int, np.ndarray]]
    jitter: tuple[float, ...]

    def __iter__(self):
        return iter(self.blocks)


def draw_blocks(n_samples: int, seed: int, draw) -> Iterator[tuple[int, np.ndarray]]:
    """The one draw loop: (lo, draw(k, normals)) for lo = 0, _DRAW_ROWS, ...,
    k = min(_DRAW_ROWS, n_samples - lo), normals(dim, stream) giving the block's
    rows of a stream (standard_normal_batch); no block is held once yielded."""
    for lo in range(0, n_samples, _DRAW_ROWS):
        k = min(_DRAW_ROWS, n_samples - lo)
        yield lo, draw(k, lambda dim, s: standard_normal_batch(dim, k, seed, s, start=lo))


def path_blocks(model: FieldModel, points: np.ndarray, n_samples: int,
                seed: int) -> Draws:
    """Exact draws of the field on the n points, in blocks of (k, n, d) views.
    Replicate i is L_K Z_i L_G^T, L_K and L_G the factors of the n x n kernel
    matrix and of G = A A^T, taken at the call (the jitter is L_K's), and Z_i
    row i of stream "field" as a point-major (n, d) block. A G that does not
    factor raises np.linalg.LinAlgError, a K ModelRejected."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    L_G = np.linalg.cholesky(model.gram)
    L_K, jitter = cholesky_with_jitter(model.kernel_matrix(points))
    n, d = L_K.shape[0], model.d

    def draw(k, normals):  # one GEMM over the point axis, not k slower ones
        y = normals(n * d, "field").reshape(k, n, d).transpose(0, 2, 1).copy()
        np.matmul(L_G, (y.reshape(-1, n) @ L_K.T).reshape(k, d, n), out=y)  # over the normals
        return y.transpose(0, 2, 1)
    return Draws(draw_blocks(n_samples, seed, draw), (jitter,))


@frozen
class ModulusReport:
    """Per-sample, per-epsilon modulus statistic M(eps).

    M is NaN (and flagged missing) where no grid pair has rho <= eps.
    """

    eps: tuple[float, ...]
    M: np.ndarray           # (n_samples, n_eps)
    missing: tuple[bool, ...]


def modulus_statistic(values: np.ndarray, points: np.ndarray, H: HurstVector,
                      eps_list: list[float]) -> ModulusReport:
    """max over point pairs with rho(s,t) <= eps of ||X(s)-X(t)|| / (eps sqrt(log 1/eps)).

    values holds the draws on the n points, shape (n_samples, n, d).
    """
    eps_sorted = sorted(float(e) for e in eps_list)
    if not eps_sorted:
        raise ValueError("eps list must be nonempty")
    for e in eps_sorted:
        if not (0.0 < e < 1.0):
            raise ValueError("each eps must lie in (0, 1) so the normalizer is real")
    # pairs with rho == 0 count toward every eps
    n_samples = values.shape[0]
    # largest squared norms: the root is taken once, after the max, with the
    # same bits (see metric.pair_lags)
    best = np.zeros((len(eps_sorted), n_samples))
    found = [False] * len(eps_sorted)
    for den, sq, _ in pair_lags(values, points, H,
                                lambda den: den <= eps_sorted[-1]):
        for col, e in enumerate(eps_sorted):
            mask = den <= e
            if mask.any():
                found[col] = True
                part = sq if mask.all() else sq[mask]
                np.maximum(best[col], part.max(axis=0), out=best[col])
    M = np.full((n_samples, len(eps_sorted)), np.nan)
    for col, e in enumerate(eps_sorted):
        if found[col]:
            M[:, col] = np.sqrt(best[col]) / (e * np.sqrt(np.log(1.0 / e)))
    return ModulusReport(eps=tuple(eps_sorted), M=M,
                         missing=tuple(not f for f in found))
