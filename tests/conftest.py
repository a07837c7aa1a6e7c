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
