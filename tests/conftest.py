import math

import numpy as np
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def drawn(blocks):
    """The (lo, X) draw blocks of field.path_blocks or
    calibration.spectral_blocks in one array, bit for bit."""
    return np.concatenate([X for _, X in blocks])


def increment_z(x, step, H, g, lags):
    """z per lag l of the replicate mean of S_l = sum_i (x_{i+l} - x_i)^2,
    for rows x of an (R, n) array drawn on a regular axis of the step, from a
    stationary field with covariance g exp(-|s - t|^(2H)). Both moments are
    exact: E S_l = 2 g (n - l)(1 - exp(-(l h)^(2H))), and Var S_l =
    2 sum_{i,j} Cov(D_i, D_j)^2 summed over the 2 (n - l) - 1 values of
    i - j, as the kernel is stationary (Kent & Wood, JRSS B 59(3), 1997)."""
    R, n = x.shape

    def k(m):
        return g * np.exp(-np.abs(m * step) ** (2.0 * H))
    z = []
    for lag in lags:
        N = n - lag
        S = np.square(x[:, lag:] - x[:, :-lag]).sum(axis=1)
        m = np.arange(1 - N, N)
        cov = 2.0 * k(m) - k(m + lag) - k(m - lag)  # Cov(D_i, D_i+m)
        var = 2.0 * float(np.sum((N - np.abs(m)) * cov * cov))
        z.append((S.mean() - 2.0 * N * (g - k(lag))) / math.sqrt(var / R))
    return np.array(z)


def increment_z_cov(x, c, lags):
    """z per lag l of the replicate mean of S_l = sum_i (x_{i+l} - x_i)^2,
    for rows x of an (R, n) array drawn on a regular axis from a centred
    Gaussian law with any (n, n) covariance c. The increments D_i have
    covariance S_D[i, j] = c[i+l, j+l] - c[i+l, j] - c[i, j+l] + c[i, j],
    so E S_l = trace(S_D) and Var S_l = 2 ||S_D||_F^2 exactly."""
    R = x.shape[0]
    z = []
    for lag in lags:
        S = np.square(x[:, lag:] - x[:, :-lag]).sum(axis=1)
        D = c[lag:, lag:] - c[lag:, :-lag] - c[:-lag, lag:] + c[:-lag, :-lag]
        var = 2.0 * float(np.sum(D * D))
        z.append((S.mean() - float(np.trace(D))) / math.sqrt(var / R))
    return np.array(z)


def holm_rejects(z, alpha):
    """Indices of the two-sided normal tests of z that Holm's step-down rule
    rejects at family-wise level alpha, whatever their dependence."""
    p = [math.erfc(abs(v) / math.sqrt(2.0)) for v in z]
    rejected = []
    for rank, i in enumerate(sorted(range(len(p)), key=p.__getitem__)):
        if p[i] > alpha / (len(p) - rank):
            break
        rejected.append(i)
    return rejected


def rho_pairwise(points, H):
    """The all-pairs reference of metric.lag_gaps: the (n, n) matrix of rho
    distances between the rows of an (n, N) array."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != H.N:
        raise ValueError("points dimension does not match Hurst vector")
    diff = np.abs(pts[:, None, :] - pts[None, :, :])
    return np.sum(diff ** H.as_array(), axis=2)


def lag_point_sets():
    """(points, H) by name: N = 1, 2 and 3, H = 0.5, 0.75 and 1, and an
    irregular set with a duplicated point (rho == 0 pairs) whose exponents
    1 and 0.5 meet numpy's square and root paths of a scalar power."""
    from anisofield.metric import HurstVector, IndexSet
    pts = np.random.default_rng(4).uniform(size=(15, 2))
    return {
        "1d-h0.5": (np.linspace(0.0, 1.0, 41)[:, None], HurstVector(H=(0.5,))),
        "1d-h0.75": ((np.arange(129) / 128.0)[:, None], HurstVector(H=(0.75,))),
        "1d-h1": (np.linspace(0.0, 0.2, 37)[:, None], HurstVector(H=(1.0,))),
        "2d": (IndexSet([0.0, -1.0], [1.0, 1.0]).mesh(9),
               HurstVector(H=(0.5, 0.9))),
        "3d": (IndexSet([0.0] * 3, [1.0] * 3).mesh(5), HurstVector(H=(1.0, 0.75, 0.5))),
        "irregular": (np.concatenate([pts, pts[[2, 7]]]), HurstVector(H=(1.0, 0.5))),
    }


def max_pair_ratio(values, points, H):
    """Per replicate, max over pairs s < t with rho(s, t) > 0 of
    ||v(s) - v(t)|| / rho(s, t): the Lipschitz check of a drift's values.

    values has shape (k, n, d), drawn on the n rows of the (n, N) points
    (any other shape raises ValueError); the result has shape (k,) and is 0
    where no pair has rho > 0. The pairs come lag by lag from
    metric.lag_gaps, so no n x n array is built: each lag's squares are
    summed in place, in component order, into the leading rows of two
    (n, k) buffers allocated once, and each pair divides by its own rho.
    """
    from anisofield import metric
    vals = np.asarray(values, dtype=float)
    n = np.atleast_2d(points).shape[0]
    if vals.ndim != 3 or vals.shape[1] != n:
        raise ValueError(f"values must have shape (k, {n}, d) to match the "
                         f"points, got {vals.shape}")
    comps = [np.ascontiguousarray(vals[:, :, c].T) for c in range(vals.shape[2])]
    sq_buf, diff_buf = np.empty_like(comps[0]), np.empty_like(comps[0])
    best = np.zeros(vals.shape[0])
    for lag, (_, den) in enumerate(metric.lag_gaps(points, H), 1):
        mask = den > 0
        if not mask.any():
            continue
        sq = np.subtract(comps[0][lag:], comps[0][:-lag], out=sq_buf[:n - lag])
        np.square(sq, out=sq)
        for v in comps[1:]:
            diff = np.subtract(v[lag:], v[:-lag], out=diff_buf[:n - lag])
            sq += np.square(diff, out=diff)
        if not mask.all():
            sq, den = sq[mask], den[mask]
        ratio = np.sqrt(sq, out=sq)
        ratio /= den[:, None]
        np.maximum(best, ratio.max(axis=0), out=best)
    return best


def build_covariance(model, points):
    """The reference law of field.path_blocks: the dense covariance K (x) G
    of the stacked vector (X(t_1), ..., X(t_n)) over the rows t_p of an
    (n, N) array, point-major (row p d + a is component a at point p)."""
    return np.kron(model.kernel_matrix(points), model.gram)


def ito_covariance(noise, u, v):
    """Covariance blocks of (X1, X2) = (Re X, Im X) of the spectral process
    between frequencies u and v: int cos(ux)cos(vx) eps^2 and int
    sin(ux)sin(vx) eps^2 on the diagonal; the cross entries vanish because
    eps^2 is even."""
    from anisofield.calibration import cos_transform
    Cm, Cp = cos_transform(noise, u - v), cos_transform(noise, u + v)
    return np.array([[0.5 * (Cm + Cp), 0.0],
                     [0.0, 0.5 * (Cm - Cp)]])
