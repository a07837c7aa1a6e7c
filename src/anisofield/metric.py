"""Deterministic geometry of the anisotropic metric.

rho(s, t) = sum_j |s_j - t_j|^{H_j} with per-axis exponents H_j in (0, 1].
Everything here is pure arithmetic: distances, the one walk over point
pairs (lag_gaps, lag by lag, so no n x n array is built), balls, the
index-set grids (IndexSet.lattice and IndexSet.mesh) and the refusal of
a grid whose kernel matrix would not fit, grid covers,
covering-number upper bounds, the chaining constant c2, Hausdorff
premeasure sums and the entropy-integral closed form.
"""
from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ._record import frozen
from .errors import Refusal, check_fits

_C2_TERM_FLOOR = 1e-16
_LOG_OVERFLOW = 700.0
_MAX_AXIS_CELLS = 2.0 ** 53  # the largest cell count float64 indexes exactly
_CONTAINS_ATOL = 1e-12  # IndexSet.contains widens every box by this much
# relative slack on a lattice count and on a ball's boundary: a quotient or
# a distance a few ulps off an integer or off r neither drops nor adds a point
GRID_RTOL = 1e-12


@frozen
class HurstVector:
    """Per-axis smoothness exponents, each in (0, 1]."""

    H: tuple[float, ...]

    def __post_init__(self):
        H = tuple(float(h) for h in self.H)
        if len(H) < 1:
            raise ValueError("need at least one exponent")
        for h in H:
            if not (0.0 < h <= 1.0):
                raise ValueError(f"exponent {h} outside (0, 1]")
        object.__setattr__(self, "H", H)

    @property
    def N(self) -> int:
        return len(self.H)

    @property
    def Q(self) -> float:
        """Anisotropy index: sum of reciprocal exponents. Always >= N."""
        return float(sum(1.0 / h for h in self.H))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.H, dtype=float)


def lag_gaps(points: np.ndarray, H: HurstVector) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """For lag = 1, ..., n - 1 of the rows t_i of an (n, N) array, (gaps, rho):
    the (n - lag, N) per-axis gaps |t_{i+lag} - t_i| and their rho, the bits
    of the all-pairs rho matrix's lag-th superdiagonal (pair i in row i)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != H.N:
        raise ValueError("points dimension does not match Hurst vector")
    exps = H.as_array()
    for lag in range(1, pts.shape[0]):
        gaps = np.abs(pts[lag:] - pts[:-lag])
        yield gaps, np.sum(gaps ** exps, axis=1)


def pair_lags(values: np.ndarray, points: np.ndarray, H: HurstVector,
              keep: Callable[[np.ndarray], np.ndarray]
              ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Walk the pairs i < j of the points one lag at a time (lag_gaps).

    values has shape (k, n, d), drawn on the n rows of the (n, N) points. For
    each lag = j - i, yields (den, sq, mask): den the lag's rho distances
    (lag_gaps), sq the (n - lag, k) squared norms
    ||v(j) - v(i)||^2 (pair i in row i), and mask = keep(den), the pairs of
    the lag that the caller reduces over. sq is a view of the leading
    n - lag rows of one (n, k) buffer that every lag reuses: the caller may
    overwrite it, but it holds the next lag's squares once the walk moves
    on, so a caller that keeps it must copy it. A lag where no pair is kept
    is skipped before its norms are computed. Each component is held
    point-major, as one contiguous (n, k) copy, so a lag's two slices are
    contiguous row blocks: no (k, pairs, d) gather is ever built and no grid
    regularity is assumed. Memory is that copy per component plus two (n, k)
    buffers, the squares and (for d > 1) one component's difference,
    allocated once for the whole walk. values of any other shape raise
    ValueError.

    Squares are yielded, not norms, so that a caller can reduce before the
    root: sqrt is correctly rounded, hence non-decreasing, and so is
    division by a positive constant c. So max_i sqrt(sq_i) / c equals
    sqrt(max_i sq_i) / c bit for bit, and a NaN propagates through both
    (np.max and np.maximum, not np.fmax).
    """
    vals = np.asarray(values, dtype=float)
    n = np.atleast_2d(points).shape[0]
    if vals.ndim != 3 or vals.shape[1] != n:
        raise ValueError(f"values must have shape (k, {n}, d) to match the "
                         f"points, got {vals.shape}")
    comps = [np.ascontiguousarray(vals[:, :, c].T) for c in range(vals.shape[2])]
    sq_buf = np.empty_like(comps[0])
    diff_buf = np.empty_like(comps[0]) if len(comps) > 1 else None
    for lag, (_, den) in enumerate(lag_gaps(points, H), 1):
        mask = keep(den)
        if not mask.any():
            continue
        # the squares are summed in place, in component order: the same
        # additions as a plain sum, written into the leading rows of the
        # two buffers instead of fresh arrays
        sq = np.subtract(comps[0][lag:], comps[0][:-lag], out=sq_buf[:n - lag])
        np.square(sq, out=sq)
        for v in comps[1:]:
            diff = np.subtract(v[lag:], v[:-lag], out=diff_buf[:n - lag])
            sq += np.square(diff, out=diff)
        yield den, sq, mask


def max_pair_ratio(values: np.ndarray, points: np.ndarray, H: HurstVector) -> np.ndarray:
    """Per replicate, max over pairs s < t with rho(s, t) > 0 of ||v(s) - v(t)|| / rho(s, t).

    values has shape (k, n, d), drawn on the n rows of the (n, N) points;
    the result has shape (k,) and is 0 where no pair has rho > 0. The pairs
    come from pair_lags, and each pair divides by its own rho: in place on
    the lag's squares when the lag keeps every pair, on one masked copy when
    it drops a pair with rho == 0.
    """
    best = np.zeros(np.shape(values)[0])
    for den, sq, mask in pair_lags(values, points, H, lambda den: den > 0):
        if not mask.all():
            sq, den = sq[mask], den[mask]
        ratio = np.sqrt(sq, out=sq)
        ratio /= den[:, None]
        np.maximum(best, ratio.max(axis=0), out=best)
    return best


def product_grid(axes: Sequence[np.ndarray]) -> np.ndarray:
    """Rows of the product of 1-D axes, shape (prod of lengths, len(axes)),
    with the last axis varying fastest."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def rho_to_point(points: np.ndarray, t, H: HurstVector) -> np.ndarray:
    """rho distances from each row of points to a single point t."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != H.N:
        raise ValueError("points dimension does not match Hurst vector")
    t = np.asarray(t, dtype=float).reshape(-1)
    return np.sum(np.abs(pts - t) ** H.as_array(), axis=1)


def ball_bounding_box(t, r: float, H: HurstVector) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned box containing the rho-ball of radius r around t.

    Per axis the ball extends at most r^(1/H_j) from the center.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    t = np.asarray(t, dtype=float).reshape(-1)
    if t.size != H.N:
        raise ValueError("center dimension does not match Hurst vector")
    half = r ** (1.0 / H.as_array())
    return t - half, t + half


def check_kernel_fits(n: float, N: int, grid: str) -> None:
    """Raise MemoryError if the kernel matrix of a grid of n points in R^N would
    not fit in physical memory: FieldModel.kernel_matrix peaks at 8 n^2 bytes
    for N = 1 and at 16 n^2, K and one buffer, for N >= 2."""
    check_fits(f"the {n:.3g}^2 kernel matrix entries of a {n:.3g}-point {grid}",
               8.0 * min(N, 2) * n * n)


@frozen
class IndexSet:
    """Finite union of bounded axis-aligned closed boxes in R^N.

    Each box is a (lo, hi) pair of equal-length tuples with lo <= hi.
    """

    boxes: tuple[tuple[tuple[float, ...], tuple[float, ...]], ...]

    def __post_init__(self):
        norm = []
        if len(self.boxes) == 0:
            raise ValueError("index set needs at least one box")
        dim = None
        for lo, hi in self.boxes:
            lo = tuple(float(x) for x in lo)
            hi = tuple(float(x) for x in hi)
            if len(lo) != len(hi) or len(lo) == 0:
                raise ValueError("malformed box")
            if dim is None:
                dim = len(lo)
            elif len(lo) != dim:
                raise ValueError("boxes of mixed dimension")
            for a, b in zip(lo, hi):
                if not (math.isfinite(a) and math.isfinite(b)) or a > b:
                    raise ValueError(f"empty or unbounded box [{a}, {b}]")
            norm.append((lo, hi))
        object.__setattr__(self, "boxes", tuple(norm))

    @classmethod
    def box(cls, lo: Sequence[float], hi: Sequence[float]) -> "IndexSet":
        return cls(boxes=(((tuple(lo)), tuple(hi)),))

    @classmethod
    def unit_box(cls, N: int) -> "IndexSet":
        return cls.box([0.0] * N, [1.0] * N)

    @property
    def dim(self) -> int:
        return len(self.boxes[0][0])

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask: which rows of points lie in the union of boxes, each
        widened by _CONTAINS_ATOL. Points must have dim coordinates."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise ValueError(f"points have {pts.shape[1]} coordinates but the "
                             f"index set has dimension {self.dim}")
        mask = np.zeros(pts.shape[0], dtype=bool)
        for lo, hi in self.boxes:
            lo = np.asarray(lo) - _CONTAINS_ATOL
            hi = np.asarray(hi) + _CONTAINS_ATOL
            mask |= np.all((pts >= lo) & (pts <= hi), axis=1)
        return mask

    def lattice(self, step: float) -> np.ndarray:
        """Rows lo_j + k step, 0 <= k <= floor((hi_j - lo_j) / step) taken with
        a relative slack of GRID_RTOL, of every box in box order; a row that
        touching boxes share is kept where it first appears. Fewer than 8
        points on an axis of a box raise Refusal, and n points whose kernel
        matrix would not fit MemoryError (check_kernel_fits), both from the
        per-axis counts before any array is built; n counts a shared row
        once per box."""
        if not (math.isfinite(step) and step > 0.0):
            raise ValueError(f"grid_step must be finite and positive, got {step!r}")
        counts = [[float(np.floor((b - a) / step * (1.0 + GRID_RTOL))) + 1.0
                   for a, b in zip(lo, hi)] for lo, hi in self.boxes]
        for axes in counts:
            for j, n_pts in enumerate(axes):
                if n_pts < 8:
                    raise Refusal(
                        f"grid_step {step:g} gives {n_pts:.0f} points on axis {j}; "
                        "at least 8 per axis are required")
        n = sum(map(math.prod, counts))
        check_kernel_fits(n, self.dim, f"lattice of step {step:g}")
        pts = np.concatenate([product_grid([a + np.arange(int(k)) * step
                                            for a, k in zip(lo, axes)])
                              for (lo, _), axes in zip(self.boxes, counts)], axis=0)
        _, first = np.unique(pts, axis=0, return_index=True)
        return pts[np.sort(first)]

    def mesh(self, n_per_axis: int) -> np.ndarray:
        """Rows of the product of linspace(lo_j, hi_j, n_per_axis) over the
        axes of every box, in box order; each box needs hi_j > lo_j."""
        if n_per_axis < 1:
            raise ValueError(f"a grid needs >= 1 point per axis, got {n_per_axis}")
        for lo, hi in self.boxes:
            if any(b <= a for a, b in zip(lo, hi)):
                raise ValueError(f"box needs box_hi > box_lo on every axis, got "
                                 f"box_lo={list(lo)}, box_hi={list(hi)}")
        return np.concatenate([product_grid([np.linspace(a, b, n_per_axis)
                                             for a, b in zip(lo, hi)])
                               for lo, hi in self.boxes], axis=0)


@frozen
class GridCover:
    """Product-grid cover of an IndexSet by rho-balls of radius r.

    Built by cutting each box orthogonal to axis j with spacing (r/N)^(1/H_j);
    every resulting cell sits inside one rho-ball centered at the cell midpoint.
    ``c8`` is the constructive constant with count <= c8 * r^(-Q), valid for
    all radii r <= 1 (computed from the box side lengths). The centers are
    never materialized: their number grows like r^(-Q).
    """

    radius: float
    H: HurstVector
    c8: float
    # per box: (lo, piece widths, per-axis counts)
    cells: tuple[tuple[tuple[float, ...], tuple[float, ...], tuple[int, ...]], ...]

    @property
    def count(self) -> int:
        """Number of balls: the cells of every box."""
        return sum(math.prod(counts) for _, _, counts in self.cells)

    def nearest_center_distance(self, points: np.ndarray) -> np.ndarray:
        """rho distance from each point to its covering cell center.

        Uses the grid structure: the covering center of a point inside a box is
        the midpoint of the cell the point falls in. Points in several boxes
        take the minimum over boxes.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        exps = self.H.as_array()
        best = np.full(pts.shape[0], np.inf)
        for lo, piece, counts in self.cells:
            lo = np.asarray(lo)
            piece = np.asarray(piece)
            counts = np.asarray(counts)
            safe = np.where(piece > 0, piece, 1.0)
            idx = np.clip(np.floor((pts - lo) / safe), 0, counts - 1)
            centers = lo + (idx + 0.5) * piece
            inside = np.all((pts >= lo - 1e-12) & (pts <= lo + piece * counts + 1e-12),
                            axis=1)
            d = np.sum(np.abs(pts - centers) ** exps, axis=1)
            best = np.where(inside, np.minimum(best, d), best)
        return best

    def is_valid_on(self, points: np.ndarray) -> bool:
        d = self.nearest_center_distance(points)
        return bool(np.all(d <= self.radius * (1.0 + 1e-12)))


def grid_cover(I: IndexSet, r: float, H: HurstVector) -> GridCover:
    """Cover the index set with rho-balls of radius r by axis-aligned cutting."""
    if r <= 0:
        raise ValueError("radius must be positive")
    if I.dim != H.N:
        raise ValueError("index set dimension does not match Hurst vector")
    N = H.N
    spacing = (r / N) ** (1.0 / H.as_array())
    sides = [np.asarray(hi) - np.asarray(lo) for lo, hi in I.boxes]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        per_axis = np.max(sides, axis=0) / spacing
        c8 = 0.0
        for L in sides:
            c8 += float(np.prod(L * (N ** (1.0 / H.as_array())) + 1.0))
    # refused before any count is taken: more cells on an axis than float64
    # indexes exactly, a spacing that underflows to 0, or a bound
    # c8 r^(-Q) that overflows would each print a wrong row
    log_bound = math.log(c8) - H.Q * math.log(r)
    if not (np.all(per_axis <= _MAX_AXIS_CELLS) and log_bound <= _LOG_OVERFLOW):
        raise Refusal(
            f"a cover by rho-balls of radius {r:g} at H = {list(H.H)} needs "
            f"{np.max(per_axis):.3g} cells on an axis (at most 2^53) and a "
            f"count bound of exp({log_bound:.4g}) (at most exp({_LOG_OVERFLOW:g}));"
            " use a larger radius or exponent")
    cells = []
    for (lo, _), L in zip(I.boxes, sides):
        counts = np.maximum(1, np.ceil(L / spacing - 1e-12).astype(int))
        piece = L / counts
        cells.append((tuple(np.asarray(lo)), tuple(piece),
                      tuple(int(c) for c in counts)))
    return GridCover(radius=float(r), H=H, c8=c8, cells=tuple(cells))


def covering_number_upper(r: float, eps: float, H: HurstVector) -> float:
    """Upper bound on the number of eps-balls needed to cover a rho-ball of radius r."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if eps > r:
        raise ValueError("need eps <= r")
    N = H.N
    return float(np.prod((2.0 * r * N / eps) ** (1.0 / H.as_array()) + 1.0))


def chaining_c2(beta: float) -> float:
    """c2 of the chaining radii eps_n = r exp(-2^(n+1)), r_n = beta eps_n 2^((n+1)/2)."""
    if not beta > 0:
        raise ValueError("beta must be positive")
    # c2 = 1 + beta * sum_l 2^((l+1)/2) exp(-2^(l+1)); terms die off doubly fast
    total = 0.0
    l = 1
    while True:
        term = 2.0 ** ((l + 1) / 2.0) * math.exp(-(2.0 ** (l + 1)))
        if term < _C2_TERM_FLOOR:
            break
        total += term
        l += 1
    return 1.0 + beta * total


def chaining_series_bound(beta: float, L: float, c: float, d: int, Q: float,
                          k_max: int) -> tuple[float, bool]:
    """Partial sum of the tail series controlling the chaining argument.

    Terms are exp(Q 2^(k+1) - (beta 2^(k/2) - L)^2 / (16 d (d+1)^2 c^2)) for
    k = 2..k_max. The series converges iff beta^2 / (16 d (d+1)^2 c^2) > 2 Q
    and beta > max(L/2, 0); terms overflowing double precision are reported
    as divergence.
    """
    if beta <= 0 or c <= 0 or d <= 0 or Q <= 0 or L < 0:
        raise ValueError("beta, c, d, Q must be positive and L nonnegative")
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    denom = 16.0 * d * (d + 1) ** 2 * c * c
    converges = (beta * beta / denom > 2.0 * Q) and (beta > max(L / 2.0, 0.0))
    partial = 0.0
    overflowed = False
    for k in range(2, k_max + 1):
        log_term = Q * 2.0 ** (k + 1) - (beta * 2.0 ** (k / 2.0) - L) ** 2 / denom
        if log_term > _LOG_OVERFLOW:
            overflowed = True
            partial = math.inf
            break
        partial += math.exp(log_term)
    return partial, (converges and not overflowed)


@frozen
class EuclideanBall:
    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("negative radius")
        object.__setattr__(self, "center", tuple(float(x) for x in self.center))
        object.__setattr__(self, "radius", float(self.radius))


def hausdorff_premeasure(cover: Iterable[EuclideanBall], alpha: float) -> float:
    """Cover sum sum_l (2 r_l)^alpha: an upper bound on the alpha-dimensional
    Hausdorff measure of whatever the given balls cover."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    total = 0.0
    for ball in cover:
        if ball.radius < 0:
            raise ValueError("negative radius")
        total += (2.0 * ball.radius) ** alpha
    return total


def entropy_integral_closed_form(x: float) -> float:
    """Closed form of the truncated entropy integral of sqrt(log(1/y)) on (0, x].

    Equals sqrt(pi)/2 - sqrt(pi)/2 * erf(sqrt(log(1/x))) + x*sqrt(log(1/x)).
    """
    if not (0.0 < x <= 1.0):
        raise ValueError("x must lie in (0, 1]")
    if x == 1.0:
        return math.sqrt(math.pi) / 2.0
    s = math.sqrt(math.log(1.0 / x))
    return math.sqrt(math.pi) / 2.0 * (1.0 - math.erf(s)) + x * s
