"""Exact-covariance sampling of anisotropic (N, d)-Gaussian random fields.

The model family is a product-exponential kernel k(s, t) = exp(-sum_j
|s_j - t_j|^(2 H_j)) on m independent scalar fields, mixed into d output
components by a constant matrix A. This family certifies both standing
assumptions with explicit constants:

* canonical-metric domination with c = sqrt(2 trace(A A^T)), because
  1 - exp(-a) <= a and sum of squares <= square of sums;
* an eigenvalue floor lambda = lambda_min(A A^T) > 0 for nonsingular A A^T.

A set of index points is an (n, N) array, one point per row. The covariance
of the field's values on n points is the Kronecker product K (x) G of the
n x n scalar kernel matrix K and G = A A^T, so an exact draw is L_K Z L_G^T,
with Z an (n, d) block of standard normals (Gilboa, Saatci & Cunningham
2015). sample_paths factors K once, by dense Cholesky, and draws any number
of replicates from it, one Philox stream per replicate; grids are kept small
(a few thousand points), exactness over scale. Philox is
counter-based, so a stream is only its key: standard_normals derives the
keys of all seeds in one vectorised port of numpy's SeedSequence and draws
every row from one generator, with the bits of Generator(Philox(seed)).
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np
# numpy loads numpy.random on first attribute access; importing it here puts
# that cost (~20 ms) in the package import instead of the first draw
from numpy.random import Generator, Philox

from .errors import ModelRejected
from .metric import HurstVector, pair_lags, rho_pairwise
from .seeds import MASK64, derive_seed

JITTER_REL = 1e-10
JITTER_REL_MAX = 1e-6


@dataclass(frozen=True)
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
        """Scalar kernel exp(-sum_j |ds_j|^(2 H_j)) on all point pairs."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.H.N:
            raise ValueError("points dimension does not match model")
        exps = 2.0 * self.H.as_array()
        diff = np.abs(pts[:, None, :] - pts[None, :, :])
        return np.exp(-np.sum(diff ** exps, axis=2))


def build_covariance(model: FieldModel, points: np.ndarray) -> np.ndarray:
    """Dense covariance of the stacked vector (X(t_1), ..., X(t_n)) over the
    rows t_p of an (n, N) array: the reference law that sample_paths draws.

    Ordering is point-major: row p*d + a corresponds to component a at point p.
    """
    return np.kron(model.kernel_matrix(points), model.gram)


def cholesky_with_jitter(cov: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor, adding relative diagonal jitter if needed.

    Starts at 1e-10 of the max diagonal and doubles up to 1e-6 before
    rejecting the model.
    """
    scale = float(np.max(np.diag(cov)))
    try:
        return np.linalg.cholesky(cov), 0.0
    except np.linalg.LinAlgError:
        pass
    rel = JITTER_REL
    eye = np.eye(cov.shape[0])
    while rel <= JITTER_REL_MAX:
        try:
            return np.linalg.cholesky(cov + rel * scale * eye), rel * scale
        except np.linalg.LinAlgError:
            rel *= 2.0
    raise ModelRejected(
        f"covariance factorization failed after jitter up to {JITTER_REL_MAX:g} relative")


def verify_condition1(model: FieldModel, points: np.ndarray) -> tuple[float, float, bool]:
    """Max over point pairs of canonical distance / rho, against the analytic constant."""
    if len(points) < 2:
        raise ValueError("need at least two grid points")
    rho = rho_pairwise(points, model.H)
    K = model.kernel_matrix(points)
    tr = float(np.trace(model.gram))
    canon = np.sqrt(np.maximum(0.0, 2.0 * tr * (1.0 - K)))
    mask = rho > 0
    max_ratio = float(np.max(canon[mask] / rho[mask])) if np.any(mask) else 0.0
    c_analytic = model.condition1_constant
    return max_ratio, c_analytic, max_ratio <= c_analytic * (1.0 + 1e-12)


def verify_condition2(model: FieldModel) -> float:
    """Smallest eigenvalue of A A^T; rejects a degenerate (singular) mixing."""
    lam = float(np.linalg.eigvalsh(model.gram)[0])
    if lam <= 0.0:
        raise ModelRejected(
            f"component covariance is singular (lambda_min = {lam:g}); "
            "the eigenvalue-floor condition fails")
    return lam


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_SIZE = 4


def _hash_constants(init: int, mult: int,
                    count: int) -> list[tuple[np.uint32, np.uint32]]:
    """(xor, multiplier) of hashmix's first count calls: the hash constant
    is multiplied by mult between its xor and its product, whatever the data."""
    out = []
    c = init
    for _ in range(count):
        nxt = (c * mult) & 0xFFFFFFFF
        out.append((np.uint32(c), np.uint32(nxt)))
        c = nxt
    return out


# mix_entropy calls hashmix once per pool word, then once per ordered pair of
# distinct words; generate_state(2, np.uint64) hashes four words
_ENTROPY_HASH = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_STATE_HASH = _hash_constants(_INIT_B, _MULT_B, 4)


def _hashmix(value: np.ndarray, xor: np.uint32, mult: np.uint32) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ (r >> np.uint32(16))


def _philox_keys(seeds: np.ndarray) -> np.ndarray:
    """(len(seeds), 2) uint64 Philox keys, row i equal to
    SeedSequence(seeds[i]).generate_state(2, np.uint64).

    seeds holds integers in [0, 2^64). All rows are hashed at once in uint32
    arithmetic, which wraps like numpy's C code. A seed below 2^64 is at most
    two little-endian 32-bit words, and SeedSequence fills a 4-word pool
    past its entropy with the hash of 0, so every seed is mixed as the
    words (low, high, 0, 0).
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    zero = np.zeros(seeds.shape, dtype=np.uint32)
    words = [(seeds & np.uint64(0xFFFFFFFF)).astype(np.uint32),
             (seeds >> np.uint64(32)).astype(np.uint32), zero, zero]
    consts = iter(_ENTROPY_HASH)
    pool = [_hashmix(w, *next(consts)) for w in words]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(consts)))
    state = [_hashmix(w, *c).astype(np.uint64) for w, c in zip(pool, _STATE_HASH)]
    keys = np.empty(seeds.shape + (2,), dtype=np.uint64)
    keys[..., 0] = state[0] | (state[1] << np.uint64(32))
    keys[..., 1] = state[2] | (state[3] << np.uint64(32))
    return keys


def standard_normals(dim: int, seeds: Sequence[int]) -> np.ndarray:
    """(len(seeds), dim) standard normals; row i is drawn from Philox(seeds[i]).

    A seed that is not an integer raises TypeError, and one outside
    [0, 2^64) raises ValueError, before anything is drawn. The rows have
    the bits of Generator(Philox(seeds[i])).standard_normal(dim), drawn from
    one generator whose state is reset to a fresh stream of the seed's key
    before each row: counter 0 and an empty buffer.
    """
    seeds = [operator.index(s) for s in seeds]
    bad = [s for s in seeds if not 0 <= s <= MASK64]
    if bad:
        raise ValueError(f"seed {bad[0]} outside [0, 2**64)")
    z = np.empty((len(seeds), dim))
    bit_gen = Philox(0)
    gen = Generator(bit_gen)
    fresh = {"counter": [0, 0, 0, 0], "key": None}
    state = {"bit_generator": "Philox", "state": fresh, "buffer": [0, 0, 0, 0],
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for i, key in enumerate(_philox_keys(seeds)):
        fresh["key"] = key.tolist()
        bit_gen.state = state
        gen.standard_normal(dim, out=z[i])
    return z


def standard_normal_batch(dim: int, n: int, master_seed: int,
                          stream: str) -> np.ndarray:
    """(n, dim) standard normals, replicate i seeded by derive_seed(master_seed, i, stream)."""
    return standard_normals(dim, [derive_seed(master_seed, i, stream)
                                  for i in range(n)])


def sample_paths(model: FieldModel, points: np.ndarray, n_samples: int,
                 seed: int) -> np.ndarray:
    """Exact Gaussian draws of the field on the n points, shape (n_samples, n, d).

    Replicate i is L_K Z_i L_G^T, with L_K the factor of the n x n kernel
    matrix, L_G that of G = A A^T and Z_i the point-major normals of
    derive_seed(seed, i, "field") as an (n, d) block. A G that does not
    factor raises np.linalg.LinAlgError, a ValueError. The result is a
    transposed view of an (n_samples, d, n) array.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    L_G = np.linalg.cholesky(model.gram)
    L_K = cholesky_with_jitter(model.kernel_matrix(points))[0]
    n, d = L_K.shape[0], model.d
    z = standard_normal_batch(n * d, n_samples, seed, "field")
    # component-major rows, so that one GEMM over the point axis serves every
    # replicate; n_samples batched L_K @ Z_i products are several times slower
    y = np.ascontiguousarray(
        z.reshape(n_samples, n, d).transpose(0, 2, 1)).reshape(-1, n)
    del z
    y = y @ L_K.T
    return np.matmul(L_G, y.reshape(n_samples, d, n)).transpose(0, 2, 1)


@dataclass(frozen=True)
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
    rho = rho_pairwise(points, H)
    # pairs with rho == 0 count toward every eps
    n_samples = values.shape[0]
    # largest squared norms: the root is taken once, after the max, with the
    # same bits (see metric.pair_lags)
    best = np.zeros((len(eps_sorted), n_samples))
    found = [False] * len(eps_sorted)
    for den, sq, _ in pair_lags(values, rho,
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
