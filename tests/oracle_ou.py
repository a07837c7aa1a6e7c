"""Exact continuum hitting probability of one model, a test reference.

N = 1 and H = 1/2 make the kernel exp(-|s - t|): each component of X is the
stationary Ornstein-Uhlenbeck process dY = -Y dt + sqrt(2) dW, which is
Markov. With the mixing I_3 (d = 3, Q = 2) and a ball centred at the mean
0, |X| is a radial diffusion, and on the index set [0, 1]

    P(min_[0,1] |X| <= delta) = F_chi3(delta) + int_delta^R u(1, r) f_chi3(r) dr,

where u(t, r), the chance that the radial process started at r reaches
delta by time t, solves u_t = u_rr + (2/r - r) u_r on (delta, R) with
u(t, delta) = 1 and u(0, r) = 0. The tail beyond R = 9 (f_chi3(9) ~ 1e-16)
is dropped, and u(t, R) = 0.

The equation is solved by implicit Euler on nt equal time steps, over an
r-grid of nr cells clustered quadratically at delta, with second-order
three-point differences and scipy.linalg.solve_banded; the integral is the
trapezoid rule on the same grid. At (nr, nt) = (1000, 1000) the values at
delta = 0.4 ... 0.025 lie within 5e-5 of those at (2000, 4000).
"""
import math

import numpy as np
from scipy.linalg import solve_banded

R = 9.0


def chi3_cdf(x: float) -> float:
    return math.erf(x / math.sqrt(2.0)) - math.sqrt(2.0 / math.pi) * x * math.exp(-x * x / 2.0)


def hit_probability(delta: float, nr: int = 1000, nt: int = 1000) -> float:
    """P(min over t in [0, 1] of |X(t)| <= delta) for the 3-D stationary
    Ornstein-Uhlenbeck process X with unit-variance components."""
    if not 0.0 < delta < R:
        raise ValueError(f"delta must lie in (0, {R}), got {delta}")
    r = delta + (R - delta) * np.linspace(0.0, 1.0, nr + 1) ** 2
    hm, hp, ri = r[1:-1] - r[:-2], r[2:] - r[1:-1], r[1:-1]
    drift = 2.0 / ri - ri
    # u_rr + drift u_r at the interior nodes, from u at r_{i-1}, r_i, r_{i+1}
    below = (2.0 - drift * hp) / (hm * (hm + hp))
    above = (2.0 + drift * hm) / (hp * (hm + hp))
    diag = (-2.0 + drift * (hp - hm)) / (hm * hp)
    dt = 1.0 / nt
    ab = np.zeros((3, nr - 1))
    ab[0, 1:] = -dt * above[:-1]
    ab[1] = 1.0 - dt * diag
    ab[2, :-1] = -dt * below[1:]
    u = np.zeros(nr - 1)
    for _ in range(nt):
        u[0] += dt * below[0]  # u(t, delta) = 1 enters through the first node
        u = solve_banded((1, 1), ab, u, overwrite_b=True, check_finite=False)
    g = np.concatenate([[1.0], u, [0.0]]) * (
        math.sqrt(2.0 / math.pi) * r * r * np.exp(-r * r / 2.0))
    return chi3_cdf(delta) + float(np.sum((g[1:] + g[:-1]) * np.diff(r))) / 2.0
