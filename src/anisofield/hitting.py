"""Monte Carlo hitting probabilities and polarity scans.

Two empirical scaling laws are probed: the probability that the field comes
within r of a drift on a small rho-ball (expected to decay like r^d), and
the probability that the shifted field range meets a small Euclidean ball
(expected to decay like delta^(d-Q) when Q < d). Only upper bounds are
proved in the theory, so the fitted exponents are compared against the
predicted exponent minus a desk-scale tolerance.

A drift is zero, affine in rho(0, s), or a random trigonometric polynomial
drawn independently of the field and scaled by a closed-form bound, so that
||f(s) - f(t)|| <= L rho(s, t) holds on the whole index set, a box, not
only on the scan's grid. Each scan draws the field in blocks from
field.path_blocks, which factors its n x n kernel matrix once, reducing each
block before the next; a field drift costs one small product per replicate.
The jitter of every kernel factor a scan takes is carried in its report.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ._record import frozen
from .errors import Refusal
from .field import FieldModel, path_blocks, standard_normal_batch
from .metric import (GRID_RTOL, HurstVector, IndexSet, ball_bounding_box,
                     rho_to_point)

# the two-sided 95% normal quantile, ndtri(0.975) to the last bit
_Z95 = 1.959963984540054
# frequencies per axis of a field drift: pi m / D_j for m = 1.._DRIFT_FREQS
_DRIFT_FREQS = 8


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a Bernoulli proportion; well-behaved at 0 and 1."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not (0 <= successes <= trials):
        raise ValueError("successes out of range")
    z = _Z95
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    # clip against p so rounding can never push a bound past the point estimate
    return min(p, max(0.0, center - half)), max(p, min(1.0, center + half))


@frozen
class LipschitzDrift:
    """Drift f with ||f(s) - f(t)|| <= L rho(s, t).

    kinds:
      * "zero"   -- f = 0;
      * "affine" -- f(s) = L * rho(0, s) * e_1;
      * "field"  -- a random trigonometric polynomial per component, scaled
        so that the bound holds on the whole box of the index set.
    """

    kind: str
    L: float = 0.0

    def __post_init__(self):
        if self.kind not in ("zero", "affine", "field"):
            raise ValueError(f"unknown drift kind {self.kind!r}")
        if self.L < 0:
            raise ValueError("Lipschitz constant must be nonnegative")

    def evaluate_many(self, index_set: IndexSet, points: np.ndarray,
                      H: HurstVector, d: int, n_mc: int,
                      seed: int, start: int = 0) -> np.ndarray:
        """Drift values on the points for replicates start, ...,
        start + n_mc - 1, shape (n_mc, n, d).

        For the "field" kind, let [lo_j, lo_j + D_j] be axis j of the box
        index_set, and w_jm = pi m / D_j for m = 1..M, M = _DRIFT_FREQS.
        Replicate i is

            g(s) = sum_j sum_m a_jm cos(w_jm (s_j - lo_j))
                              + b_jm sin(w_jm (s_j - lo_j))

        with independent coefficient vectors a_jm, b_jm in R^d whose entries
        are N(0, 1/m^4): row i of stream "drift" (standard_normal_batch),
        a stream apart from the field's, so replicate i depends on (seed, i)
        alone, whatever start and n_mc are. Along axis j, g is Lipschitz with
        constant Lambda_j = sum_m w_jm sqrt(|a_jm|^2 + |b_jm|^2), and
        |s_j - t_j| <= D_j^(1-H_j) |s_j - t_j|^H_j on the box, so
        ||g(s) - g(t)|| <= B rho(s, t) with B = max_j Lambda_j D_j^(1-H_j).
        The drift is f = (L / B) g. It depends on the index set, never on the
        points: two grids give equal values at the points they share, up to
        the rounding of the product.
        A box of zero width on some axis raises ValueError.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        n = pts.shape[0]
        if self.kind == "zero":
            return np.zeros((n_mc, n, d))
        if self.kind == "affine":
            vals = np.zeros((n, d))
            vals[:, 0] = self.L * rho_to_point(pts, (0.0,) * H.N, H)
            return np.repeat(vals[None], n_mc, axis=0)
        lo = np.asarray(index_set.lo)
        side = np.asarray(index_set.hi) - lo
        if not (side > 0).all():
            raise ValueError("a field drift needs an index set of positive "
                             f"width on every axis, got widths {side.tolist()}")
        m = np.arange(1, _DRIFT_FREQS + 1)
        omega = np.pi * m / side[:, None]                      # (N, M)
        phase = (pts - lo)[:, :, None] * omega                 # (n, N, M)
        basis = np.stack([np.cos(phase), np.sin(phase)], axis=2).reshape(n, -1)
        coef = standard_normal_batch(basis.shape[1] * d, n_mc, seed, "drift", start)
        coef = coef.reshape(n_mc, H.N, 2, _DRIFT_FREQS, d)
        coef /= (m * m)[:, None]
        lam = (omega * np.sqrt(np.square(coef).sum(axis=(2, 4)))).sum(axis=2)
        bound = (lam * side ** (1.0 - H.as_array())).max(axis=1)
        # one (n, 2 M N) x (2 M N, d) product per replicate, whatever n_mc is
        vals = np.matmul(basis, coef.reshape(n_mc, -1, d))
        vals *= (self.L / bound)[:, None, None]
        return vals


@frozen
class HittingEstimate:
    p_hat: float
    ci_low: float
    ci_high: float
    n_mc: int
    r: float

    def __post_init__(self):
        if not (self.ci_low <= self.p_hat <= self.ci_high):
            raise ValueError("Wilson interval must bracket the point estimate")


@frozen
class ScalingReport:
    radii: tuple[float, ...]
    estimates: tuple[HittingEstimate, ...]
    fitted_slope: float
    slope_se: float
    status: str = "ok"
    jitter: tuple[float, ...] = ()  # of each kernel factor the scan took


def _ball_grid(t: np.ndarray, r: float, I: IndexSet, H: HurstVector,
               points_per_axis: int) -> np.ndarray:
    """Lattice of step 2 min_j r^(1/H_j) / points_per_axis on the bounding
    box of B_rho(t, r), filtered to ball and I; a point at distance r up to
    GRID_RTOL relative is on the ball. A step that overflows or underflows,
    or a box that rounds to zero width, raises ValueError naming radii."""
    with np.errstate(over="ignore"):
        width = 2.0 * r ** (1.0 / H.as_array())
        lo, hi = ball_bounding_box(t, r, H)
    step = float(width.min()) / points_per_axis
    if not (width.max() < math.inf and step > 0.0 and (lo < hi).all()):
        raise ValueError(f"radii value {r:g} needs a finite, positive ball-"
                         "grid step 2 r^(1/H_j) / points_per_axis and a ball "
                         "box t +- r^(1/H_j) of nonzero width on every axis")
    pts = IndexSet(lo, hi).lattice(step)
    mask = (rho_to_point(pts, t, H) <= r * (1.0 + GRID_RTOL)) & I.contains(pts)
    pts = pts[mask]
    if pts.shape[0] == 0:
        raise Refusal("the rho-ball does not intersect the index set")
    return pts


def _distances(model: FieldModel, index_set: IndexSet, pts: np.ndarray,
               f: LipschitzDrift, n_mc: int, seed: int, sign: float,
               center) -> tuple[np.ndarray, float]:
    """Per replicate, min over the points of ||X(s) + sign * f(s) - center||,
    and the jitter of the field's kernel factor on the points.

    X is drawn from stream "field" and the drift from stream "drift", so a
    field drift is independent of X. sign is the direction of the drift's
    translation in the event: -1 for a hit on the graph of f, +1 for the
    shifted field X + f. The distances have shape (n_mc,).
    """
    dist = np.empty(n_mc)  # before the first draw: too large a count fails at once
    draws = path_blocks(model, pts, n_mc, seed)
    for lo, fv in draws:
        # the sum has the bits of the drift plus the field, since IEEE
        # addition commutes and sign is +1 or -1
        drift = f.evaluate_many(index_set, pts, model.H, model.d, len(fv), seed, lo)
        drift *= sign
        fv += drift
        fv -= center
        if math.frexp(max(fv.max(), -fv.min()))[1] > 500:
            # squares overflow from 2**512 on: scale each point's vector by the power of
            # two of its largest entry (one for all flushes small squares to 0), then back
            k = np.frexp(np.abs(fv).max(axis=2))[1]
            norms = np.sqrt(np.add.reduce(np.square(np.ldexp(fv, -k[..., None])), axis=2))
            with np.errstate(over="ignore"):  # a norm beyond float64 is inf
                dist[lo:lo + len(fv)] = np.ldexp(norms, k).min(axis=1)
        else:
            # the min before the root: sqrt is non-decreasing, so the bits are
            # those of the min over np.linalg.norm(fv, axis=2)
            dist[lo:lo + len(fv)] = np.sqrt(
                np.add.reduce(np.square(fv, out=fv), axis=2).min(axis=1))
    return dist, draws.jitter[0]


def _estimate(dist: np.ndarray, r: float) -> HittingEstimate:
    """Fraction of replicates with distance <= r, with its Wilson interval."""
    n_mc = dist.shape[0]
    hits = int(np.sum(dist <= r))
    lo, hi = wilson_interval(hits, n_mc)
    return HittingEstimate(p_hat=hits / n_mc, ci_low=lo, ci_high=hi,
                           n_mc=n_mc, r=float(r))


def scaling_exponent(estimates: Sequence[HittingEstimate],
                     jitter: Sequence[float] = ()) -> ScalingReport:
    """Log-log least-squares slope of p_hat against r over nonzero estimates;
    jitter, that of each factor behind them, is carried into the report."""
    ests = tuple(sorted(estimates, key=lambda e: -e.r))
    radii = tuple(e.r for e in ests)
    if len(set(radii)) != len(radii):
        raise ValueError("radii must be distinct")
    nonzero = [e for e in ests if e.p_hat > 0]
    if len(nonzero) < 3:
        return ScalingReport(radii=radii, estimates=ests,
                             fitted_slope=float("nan"), slope_se=float("nan"),
                             status="too-few-nonzero-estimates", jitter=tuple(jitter))
    x = np.log([e.r for e in nonzero])
    y = np.log([e.p_hat for e in nonzero])
    n = len(x)
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - y.mean())) / sxx)
    resid = y - (y.mean() + slope * (x - xbar))
    se = math.sqrt(float(np.sum(resid ** 2)) / max(1, n - 2) / sxx)
    return ScalingReport(radii=radii, estimates=ests, fitted_slope=slope,
                         slope_se=se, jitter=tuple(jitter))


def hitting_scan(model: FieldModel, index_set: IndexSet, t,
                 radii: Sequence[float], f: LipschitzDrift, n_mc: int,
                 seed: int, ball_points_per_axis: int) -> ScalingReport:
    """Estimate P(inf over the ball grid of ||X(s) - f(s)|| <= r) per radius,
    each from its own draws at seed; every grid is built before the first.
    Each radius has its own ball lattice and the lattices do not nest, so
    p_hat need not be monotone in r (see the README's Sampling section).
    The grid minimum overstates the continuum infimum: p_hat is biased low.
    Each lattice's kernel is factored just before its draws, one at a time;
    the report's jitter has one entry per radius, in the order given. A ball
    grid's narrowest axis has ball_points_per_axis + 1 points and a lattice
    needs 8, so a ball_points_per_axis below 7 raises Refusal."""
    radii = [float(r) for r in radii]
    if not all(r > 0 for r in radii):
        raise ValueError(f"radii must be positive, got {radii}")
    if n_mc <= 0:
        raise ValueError("n_mc must be positive")
    if ball_points_per_axis < 7:
        raise Refusal(f"ball_points_per_axis {ball_points_per_axis} is below its "
                      "minimum of 7: the ball grid needs at least 8 points per axis")
    t = np.asarray(t, dtype=float).reshape(-1)
    grids = [_ball_grid(t, r, index_set, model.H, ball_points_per_axis)
             for r in radii]

    def estimate(r, pts):  # one radius's distances are held at a time
        dist, jitter = _distances(model, index_set, pts, f, n_mc, seed, -1.0, 0.0)
        return _estimate(dist, r), jitter
    estimates, jitter = zip(*map(estimate, radii, grids))
    return scaling_exponent(estimates, jitter)


def polarity_scan(model: FieldModel, index_set: IndexSet, drift: LipschitzDrift,
                  target_center: Sequence[float], deltas: Sequence[float],
                  n_mc: int, seed: int, grid_step: float) -> ScalingReport:
    """Estimate P(exists grid s with X(s) + Y(s) in B(center, delta)) per delta.

    One field draw (and one drift draw) per replicate is shared across all
    deltas, so the hit indicator is exactly monotone in delta.
    """
    Q = model.H.Q
    if Q >= model.d:
        raise Refusal(
            f"polarity bound requires Q < d, got Q = {Q:g} >= d = {model.d}; "
            "no nontrivial polar sets are predicted in this regime")
    deltas = [float(x) for x in deltas]
    if not deltas:
        raise ValueError("deltas must be nonempty")
    if any(x <= 0 for x in deltas) or any(
            a <= b for a, b in zip(deltas, deltas[1:])):
        raise ValueError("deltas must be positive and strictly decreasing")
    if n_mc <= 0:
        raise ValueError("n_mc must be positive")
    center = np.asarray(target_center, dtype=float).reshape(-1)
    if center.size != model.d:
        raise ValueError("target center dimension mismatch")

    pts = index_set.lattice(grid_step)
    dmin, jitter = _distances(model, index_set, pts, drift, n_mc, seed, 1.0, center)
    return scaling_exponent([_estimate(dmin, delta) for delta in deltas], [jitter])
