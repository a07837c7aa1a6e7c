"""Spectral calibration in the white-noise observation model.

The observed object is dO~(x) = O(x) dx + eps(x) dW(x); its Fourier
transform splits into a deterministic part FO(v) and the Gaussian spectral
process X(v) = int e^{ivx} eps(x) dW(x). We simulate X exactly through
field.draw_blocks, from the factors of its Ito-isometry covariances, taken
before the first draw and returned with their jitter; we evaluate the
eigenvalue floor lambda_V on the punctured interval I_V = [-V, -1/V] u
[1/V, V], check the tail-moment Hoelder bound, and run the estimator

    psi~(v) = (1/T) log(1 + iv(1+iv) (FO(v) + noise_scale X(v)))

through the distinguished (continuous, anchored at 0) logarithm. A real
driving noise makes every quantity conjugate-symmetric in v, so the
frequency grid holds only v >= 0. The maturity scale T only divides the
log path, so psi_estimator takes it and psi_verdicts does not.

The noise level is the power law eps(x) = (1+|x|)^(-a). It is symmetric in
x, so every sine transform of eps^2 vanishes and all covariances reduce to
the cosine transform C(w) = int cos(wx) eps(x)^2 dx.
"""
from __future__ import annotations

import functools
import math
from typing import Optional, Sequence

import numpy as np

from ._record import DERIVED, frozen
from .errors import NumericalCheckFailed
from . import field as fieldmod

_LOG_STEP = 0.15  # trapezoid step in log u of the power-law transform
_LOG_RANGE = (-20.0, 30.0)  # log u range of that rule (334 nodes)
_COS_CACHE_SIZE = 1 << 16  # distinct transform arguments kept; V=10, step=0.01 needs 2617
_VERDICT_ROWS = 32  # rows of a block judged at once (no bit depends on it)
_TOL_ZERO = 1e-12  # |A| below this is a zero hit of the log argument
_UNWRAP_MARGIN = math.pi / 2.0  # increments from pi - margin on are phase jumps
_N_V = 400  # frequencies of lambda_min_on_IV's grid search over [1/V, V]
_N_PHI = 200  # phases of that search over [0, pi); even, so 0 and pi/2 are on it


@frozen
class NoiseLevel:
    """Power-law noise level eps(x) = (1+|x|)^(-a) with a claimed tail
    exponent p; the tail condition int (1+|x|)^p eps^2 < infinity is exactly
    2a - p > 1.
    """

    a: float
    p: float = 1.5

    def __post_init__(self):
        if not (self.a > 0.5):
            raise ValueError("power-law exponent a must exceed 1/2 for eps in L^2")

    def eps(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return (1.0 + np.abs(x)) ** (-self.a)

    def certify_tail(self, p: Optional[float] = None) -> float:
        """Symbolic convergence check for int (1+|x|)^p eps^2; returns p."""
        p = self.p if p is None else float(p)
        if p <= 1:
            raise ValueError("tail exponent p must exceed 1")
        if not (2.0 * self.a - p > 1.0):
            raise ValueError(
                f"tail integral diverges: need 2a - p > 1, got "
                f"2*{self.a:g} - {p:g} = {2 * self.a - p:g} <= 1")
        return p


def tail_integral(noise: NoiseLevel, p: float) -> float:
    """int (1+|x|)^p eps(x)^2 dx, in closed form 2 / (2a - p - 1)."""
    noise.certify_tail(p)
    return 2.0 / (2.0 * noise.a - p - 1.0)


def total_mass(noise: NoiseLevel) -> float:
    """int eps(x)^2 dx."""
    return cos_transform(noise, 0.0)


def moment_integral(noise: NoiseLevel, q: float) -> float:
    """int |x|^q eps(x)^2 dx.

    In closed Beta form: 2 Gamma(q+1) Gamma(2a-q-1) / Gamma(2a).
    """
    if q < 0:
        raise ValueError("q must be nonnegative")
    if not (2.0 * noise.a - q - 1.0 > 0):
        raise ValueError("moment diverges: need 2a - q > 1")
    return (2.0 * math.gamma(q + 1.0) * math.gamma(2.0 * noise.a - q - 1.0)
            / math.gamma(2.0 * noise.a))


@functools.lru_cache(maxsize=16)
def _power_law_rule(a: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes u_k and weights g_k with C(w) = sum_k g_k exp(-w u_k) for w > 0.

    Rotating the ray x >= 0 onto x = iu (Cauchy's theorem; the integrand
    decays in the first quadrant) turns int_0^inf (1+x)^(-2a) e^{iwx} dx into
    i int_0^inf (1+iu)^(-2a) e^{-wu} du, whose integrand does not oscillate.
    Its real part is half of C(w):

        C(w) = 2 int_0^inf (1+u^2)^(-a) sin(2a arctan u) e^{-wu} du.

    With u = e^t the integrand is analytic in the strip |Im t| < pi/2 and
    decays at both ends, so the trapezoid rule in t converges geometrically
    as _LOG_STEP shrinks; at 0.15 it stayed within 4e-13 of a 25-digit
    reference for a in [0.51, 10] and w in [1e-10, 1000]. The range
    _LOG_RANGE drops under 1e-17 below u = e^-20 and, for every w >= 1e-10,
    under e^-1000 above u = e^30. For 0 < w < 1e-10 the part above e^30 is
    at most 2 e^(30 (1 - 2a)) / (2a - 1), under 2e-13 for every a >= 1 (the
    exponents with a finite tail moment, 2a - p > 1 with p > 1).
    """
    t = np.arange(_LOG_RANGE[0], _LOG_RANGE[1] + _LOG_STEP / 2.0, _LOG_STEP)
    u = np.exp(t)
    g = 2.0 * _LOG_STEP * u * (1.0 + u * u) ** (-a) * np.sin(2.0 * a * np.arctan(u))
    return u, g


@functools.lru_cache(maxsize=_COS_CACHE_SIZE)
def _cos_transform_cached(noise: NoiseLevel, w: float) -> float:
    if w == 0.0:
        return 2.0 / (2.0 * noise.a - 1.0)
    u, g = _power_law_rule(noise.a)
    return float(np.dot(g, np.exp(-w * u)))


def cos_transform(noise: NoiseLevel, w: float) -> float:
    """C(w) = int cos(wx) eps(x)^2 dx (even in w), evaluated at |w| itself,
    which is also the cache key."""
    return _cos_transform_cached(noise, abs(float(w)))


def cos_transform_many(noise: NoiseLevel, ws: np.ndarray) -> np.ndarray:
    """cos_transform of every entry of ws, one lookup per distinct |w|."""
    ws = np.asarray(ws, dtype=float)
    uniq, inv = np.unique(np.abs(ws.ravel()), return_inverse=True)
    vals = np.array([_cos_transform_cached(noise, float(w)) for w in uniq])
    return vals[inv].reshape(ws.shape)


def _spectral_covariances(noise: NoiseLevel,
                          pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Covariances of X1 on [0, *pos] and of X2 on pos, an evenly stepped grid.

    Entry (u, v) is (C(u - v) + C(u + v)) / 2 for X1 and (C(u - v) -
    C(u + v)) / 2 for X2. On pos, pos_i - pos_j depends only on i - j
    (Toeplitz) and pos_i + pos_j only on i + j (Hankel), up to rounding of
    the lattice, so one transform per lag fills both blocks: the lags
    pos - pos[0] and the sums pos[s - s//2] + pos[s//2], laid out as strided
    views. The anchor 0 breaks the step; its row and column are C(pos), its
    corner C(0).
    Both blocks are allocated first, so that a grid too large to hold them
    fails before any transform.
    """
    m = pos.size
    cov1 = np.empty((m + 1, m + 1))
    cov2 = np.empty((m, m))
    windows = np.lib.stride_tricks.sliding_window_view
    lags = cos_transform_many(noise, pos - pos[0])
    s = np.arange(2 * m - 1)
    H = windows(cos_transform_many(noise, pos[s - s // 2] + pos[s // 2]), m)
    T = windows(np.concatenate([lags[:0:-1], lags]), m)[::-1]
    np.add(T, H, out=cov1[1:, 1:])
    cov1[1:, 1:] *= 0.5
    np.subtract(T, H, out=cov2)
    cov2 *= 0.5
    cov1[0] = cov1[:, 0] = cos_transform_many(noise, np.concatenate([[0.0], pos]))
    return cov1, cov2


def holder_exponent(p: float) -> float:
    """Path-regularity exponent min(p/2, 1) induced by the tail exponent p."""
    if p <= 1:
        raise ValueError("p must exceed 1")
    return min(p / 2.0, 1.0)


def ito_covariance(noise: NoiseLevel, u: float, v: float) -> np.ndarray:
    """Covariance blocks of (X1, X2) = (Re X, Im X) between frequencies u and v.

    Entries are int cos(ux)cos(vx) eps^2, int cos(ux)sin(vx) eps^2, etc.;
    the cross entries vanish because eps^2 is even.
    """
    Cm = cos_transform(noise, u - v)
    Cp = cos_transform(noise, u + v)
    return np.array([[0.5 * (Cm + Cp), 0.0],
                     [0.0, 0.5 * (Cm - Cp)]])


def lambda_min_on_IV(noise: NoiseLevel, V: float) -> float:
    """Minimum over I_V x [0, 2pi] of g(v, phi) = int sin^2(phi + vx) eps^2 dx.

    g(v, phi) = (M - cos(2 phi) C(2v)) / 2, so the phi-minimum at fixed v is
    (M - |C(2v)|) / 2, which is also the smaller eigenvalue of the Ito
    covariance at v. Both routes are computed and cross-checked; g is even in
    v and pi-periodic in phi, so the search runs over [1/V, V] x [0, pi).
    """
    if V <= 1:
        raise ValueError("V must exceed 1")
    M = total_mass(noise)
    vs = np.linspace(1.0 / V, V, _N_V)
    C2 = cos_transform_many(noise, 2.0 * vs)
    phis = np.linspace(0.0, math.pi, _N_PHI, endpoint=False)
    g = 0.5 * (M - np.cos(2.0 * phis)[None, :] * C2[:, None])
    grid_min = float(g.min())

    eigen_route = 0.5 * (M - np.abs(C2))
    eigen_min = float(eigen_route.min())
    # with the even _N_PHI the phi grid holds 0 and pi/2, the minimizing
    # phases for C(2v) >= 0 and <= 0, so the two routes agree up to rounding
    # and this check only fires on a NaN transform (an infinite one gives
    # -inf on both routes and passes)
    if not math.isclose(grid_min, eigen_min, rel_tol=1e-3, abs_tol=1e-6):
        raise NumericalCheckFailed(
            f"grid search ({grid_min:g}) and eigenvalue route ({eigen_min:g}) disagree")

    # local refinement in v around the eigenvalue-route minimizer
    k = int(np.argmin(eigen_route))
    lo = vs[max(0, k - 1)]
    hi = vs[min(_N_V - 1, k + 1)]
    refined = _golden_min(lambda v: 0.5 * (M - abs(cos_transform(noise, 2.0 * v))),
                          lo, hi, xtol=1e-10)
    return float(min(eigen_min, refined))


def _golden_min(f, lo: float, hi: float, xtol: float) -> float:
    """Smallest value of f found by golden-section search on [lo, hi].

    Each step keeps the sub-interval around the better of the two interior
    points, so for a unimodal f the bracket holds the minimizer and shrinks
    by the factor 0.618 until it is narrower than xtol.
    """
    r = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - r * (hi - lo), lo + r * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > xtol:
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - r * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + r * (hi - lo)
            fd = f(d)
    return min(fc, fd)


def holder_bound_check(noise: NoiseLevel, p: float,
                       pairs: Sequence[tuple[float, float]]) -> tuple[float, bool]:
    """Check E||X(u)-X(v)||^2 <= 2^(2-q) |u-v|^q int |x|^q eps^2 with q = min(p, 2).

    Returns the largest slack violation (positive means the bound failed) and
    an ok flag at 1e-8 tolerance.
    """
    noise.certify_tail(p)
    q = min(p, 2.0)
    M = total_mass(noise)
    mom = moment_integral(noise, q)
    pairs = [(float(u), float(v)) for u, v in pairs]
    dw = np.array([u - v for u, v in pairs])
    C = cos_transform_many(noise, dw)
    lhs = 2.0 * (M - C)
    rhs = 2.0 ** (2.0 - q) * np.abs(dw) ** q * mom
    worst = float(np.max(lhs - rhs))
    return worst, worst <= 1e-8


@frozen
class FrequencyGrid:
    """The anchor v = 0 followed by the lattice 1/V + k step on [1/V, V].

    Only v >= 0 is held: a real driving noise gives X(-v) = conj X(v), so
    A(-v) = conj A(v) and psi~(-v) = conj psi~(v) on the mirrored half of I_V.
    """

    V: float
    step: float
    points: np.ndarray = DERIVED

    def __post_init__(self):
        V, step = float(self.V), float(self.step)
        if not (1.0 < V < math.inf and 0.0 < step < math.inf):
            raise ValueError(f"need finite V > 1 and step > 0, got V={V}, step={step}")
        pos = np.arange(1.0 / V, V + step / 2.0, step)
        points = np.concatenate([[0.0], pos[pos <= V + 1e-12]])
        points.flags.writeable = False  # the lattice is not re-checked
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "points", points)

    @property
    def positive(self) -> np.ndarray:
        return self.points[1:]


def spectral_blocks(noise: NoiseLevel, grid: FrequencyGrid, n_samples: int,
                    seed: int) -> fieldmod.Draws:
    """Exact draws of X(v) = X1(v) + i X2(v) on the grid, in blocks (k,
    len(grid.points)); a real noise makes X2(0) = 0 and X(-v) = conj X(v),
    off the grid. X1 and X2 decouple (even noise): each is its stream's
    normals ("spec-cos", "spec-sin"), drawn as used, times the Cholesky factor
    (transposed; jitter: X1's, X2's) of its covariance, taken at the call."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    (L1, j1), (L2, j2) = map(fieldmod.cholesky_with_jitter,
                             _spectral_covariances(noise, grid.positive))

    def draw(k, normals):
        X = np.zeros((k, L1.shape[0]), dtype=complex)  # X2(0) = 0
        X.real = normals(L1.shape[0], "spec-cos") @ L1.T
        X.imag[:, 1:] = normals(L2.shape[0], "spec-sin") @ L2.T
        return X
    return fieldmod.Draws(fieldmod.draw_blocks(n_samples, seed, draw), (j1, j2))


def fourier_O(v) -> np.ndarray:
    """Fourier transform FO(v) = 2 / (1 + v^2) of the payoff-transform
    function O(x) = e^(-|x|) at frequency v."""
    v = np.asarray(v, dtype=float)
    return 2.0 / (1.0 + v * v)


def _verdict_rows(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(min modulus, zero-hit flag, max phase jump) of each row of A.

    The anchor A[:, 0] must equal 1, a modulus below _TOL_ZERO is a zero
    hit, and the jump is the largest wrapped increment between adjacent grid
    points (NaN on zero-hit rows). A NaN in a row makes its min modulus NaN
    (np.min propagates it), which _failures reads, so A gets no further pass.
    """
    if np.any(np.abs(A[:, 0] - 1.0) > 1e-9):
        raise ValueError("anchor value must equal 1")
    mods = np.abs(A)
    zero = np.any(mods < _TOL_ZERO, axis=1)
    min_mod = np.min(mods, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        incr = np.angle(A[:, 1:] / A[:, :-1])
        jump = np.max(np.abs(incr, out=incr), axis=1, initial=0.0)
    jump[zero] = np.nan
    return min_mod, zero, jump


def _failures(min_mod: np.ndarray, zero: np.ndarray,
              jump: np.ndarray) -> list[Optional[str]]:
    """"nan", "zero-hit", "phase-jump" (well defined but under-resolved) or
    None per row; the first two are not well defined."""
    nan = np.isnan(min_mod)
    under_resolved = jump >= math.pi - _UNWRAP_MARGIN
    return ["nan" if x else "zero-hit" if z else "phase-jump" if j else None
            for x, z, j in zip(nan.tolist(), zero.tolist(),
                               under_resolved.tolist())]


def _unwrap(z: np.ndarray) -> np.ndarray:
    """Log of a zero-free path, phase accumulated from the anchor z[0] on."""
    incr = np.angle(z[1:] / z[:-1])
    phase = np.angle(z[0]) + np.concatenate([[0.0], np.cumsum(incr)])
    return np.log(np.abs(z)) + 1j * phase


def _log_argument(FO: np.ndarray, c: np.ndarray, noise_scale: float,
                  spectral_values: Optional[np.ndarray]) -> np.ndarray:
    """A(v) = 1 + c(v) (FO(v) + noise_scale X(v)) with c = iv(1+iv).

    Each row of X gives one row of A; without noise A is the single
    noiseless row and X is not read.
    """
    if noise_scale != 0.0:
        F_obs = FO + noise_scale * spectral_values
    else:
        F_obs = FO.astype(complex)
    return 1.0 + c * F_obs


@frozen
class PsiVerdicts:
    """Per-replicate well-definedness of psi~, one entry per row of A."""

    min_arg_modulus: np.ndarray   # min_v |A(v)|, NaN where A holds a NaN
    zero_hit: np.ndarray          # |A| < _TOL_ZERO somewhere
    max_phase_jump: np.ndarray    # max |angle(A[j+1] / A[j])|, NaN on zero-hit

    @property
    def well_defined(self) -> np.ndarray:
        return ~self.zero_hit & ~np.isnan(self.min_arg_modulus)

    @property
    def failures(self) -> list[Optional[str]]:
        return _failures(self.min_arg_modulus, self.zero_hit,
                         self.max_phase_jump)


def psi_verdicts(grid: FrequencyGrid, noise_scale: float,
                 spectral_values: np.ndarray) -> PsiVerdicts:
    """Verdicts of psi_estimator for a (k, n) block of spectral replicates
    (calib-sim passes each block of spectral_blocks, once per noise scale),
    judged in tiles of _VERDICT_ROWS rows without unwrapping the log path.
    Row i equals psi_estimator's verdict on row i bit for bit, whatever the block."""
    X = np.asarray(spectral_values)
    v = grid.points
    if X.ndim != 2 or X.shape[1] != v.size:
        raise ValueError(f"spectral values must have shape (k, {v.size})")
    FO, c = fourier_O(v), 1j * v * (1.0 + 1j * v)
    return PsiVerdicts(*map(np.concatenate, zip(*(
        _verdict_rows(np.broadcast_to(_log_argument(FO, c, noise_scale, t), t.shape))
        for t in np.split(X, range(_VERDICT_ROWS, len(X), _VERDICT_ROWS))))))


@frozen
class PsiEstimate:
    """Estimator path psi~ on the frequency grid with a well-definedness verdict."""

    grid: FrequencyGrid
    values: np.ndarray           # complex psi~ per grid point (NaN unless well defined)
    arg_values: np.ndarray       # A(v), the argument of the logarithm
    well_defined: bool
    min_arg_modulus: float
    max_phase_jump: float
    failure: Optional[str] = None


def psi_estimator(grid: FrequencyGrid, noise_scale: float,
                  spectral_values: Optional[np.ndarray] = None,
                  T: float = 1.0) -> PsiEstimate:
    """psi~(v) = (1/T) log(1 + iv(1+iv)(FO(v) + noise_scale X(v))).

    T > 0 is the maturity scale. X is one spectral replicate on the grid,
    e.g. a row of a spectral_blocks block; a noisy call (noise_scale != 0)
    needs it. At the anchor v = 0 the argument is exactly 1 and psi~(0) = 0.
    A modulus below _TOL_ZERO (the polar-set event at machine scale), a NaN
    in A or a too-large phase increment is reported in the verdict instead
    of aborting; the verdict is psi_verdicts' rule applied to this one row.
    A well-defined path (no zero hit, no NaN) is unwrapped through the
    distinguished logarithm: phase increments between adjacent grid points,
    wrapped into (-pi, pi], are summed from the anchor on. On v < 0,
    psi~(-v) = conj psi~(v).
    """
    if not T > 0:
        raise ValueError("maturity scale T must be positive")
    v = grid.points
    if noise_scale != 0.0 and spectral_values is None:
        raise ValueError("noisy run needs spectral values")
    if spectral_values is not None and np.shape(spectral_values) != v.shape:
        raise ValueError(f"spectral values must have shape ({v.size},)")
    A = _log_argument(fourier_O(v), 1j * v * (1.0 + 1j * v),
                      noise_scale, spectral_values)
    vd = PsiVerdicts(*_verdict_rows(A[None, :]))
    well_defined = bool(vd.well_defined[0])
    if well_defined:
        values = _unwrap(A) / T
    else:
        values = np.full(v.shape, np.nan, complex)
    return PsiEstimate(grid=grid, values=values, arg_values=A,
                       well_defined=well_defined,
                       min_arg_modulus=float(vd.min_arg_modulus[0]),
                       max_phase_jump=float(vd.max_phase_jump[0]),
                       failure=vd.failures[0])
