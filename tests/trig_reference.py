"""Reference trigonometric evaluations as the package wrote them before it
built every table in one helper: root counts from two products on the split
coefficients a and b, the tangency guard's derivative from two products on
k-scaled tables and its midpoint value from one einsum per row, and the
small-ball weights from their own cos and sin tables.
"""

import math

import numpy as np


def trig_eval(t, a_coef, b_coef):
    """Q(t) = sum_k a_k cos(kt) + b_k sin(kt), rows of coefficients."""
    k = np.arange(1, a_coef.shape[1] + 1)
    phase = t[:, None] * k[None, :]
    return np.einsum("ij,ij->i", np.cos(phase), a_coef) + np.einsum("ij,ij->i", np.sin(phase), b_coef)


def root_tables(n: int, oversample: int) -> tuple:
    """The grid of ``oversample * n`` intervals on [0, pi] with its tables
    cos(k t) and sin(k t), k = 1..n, one row per grid point."""
    grid = np.linspace(0.0, math.pi, oversample * n + 1)
    phase = np.outer(grid, np.arange(1, n + 1))
    return grid, np.cos(phase), np.sin(phase)


def count_roots(a_coef: np.ndarray, b_coef: np.ndarray, grid, cosg, sing) -> np.ndarray:
    """Sign changes of each row's polynomial on the grid, plus 2 for each
    near-tangency interval whose derivative changes sign and whose midpoint
    value is tiny."""
    q = a_coef @ cosg.T + b_coef @ sing.T
    signs = np.where(q >= 0.0, 1.0, -1.0)
    flips = signs[:, 1:] * signs[:, :-1] < 0
    counts = np.count_nonzero(flips, axis=1)
    scale = np.max(np.abs(q), axis=1, keepdims=True)
    small = (np.abs(q[:, 1:]) < 1e-9 * scale) & (np.abs(q[:, :-1]) < 1e-9 * scale) & ~flips
    if np.any(small):
        k = np.arange(1, a_coef.shape[1] + 1)
        qp = b_coef @ (cosg * k[None, :]).T - a_coef @ (sing * k[None, :]).T
        dsign = np.where(qp >= 0.0, 1.0, -1.0)
        dflip = dsign[:, 1:] * dsign[:, :-1] < 0
        for rr, cc in zip(*np.nonzero(small & dflip)):
            tmid = 0.5 * (grid[cc] + grid[cc + 1])
            val = trig_eval(np.array([tmid]), a_coef[rr : rr + 1], b_coef[rr : rr + 1])[0]
            if abs(val) <= 1e-12 * scale[rr, 0]:
                counts[rr] += 2
    return counts


def trig_sum_weights(n: int, u_values: np.ndarray) -> np.ndarray:
    """The small-ball weights W, shape (2n, 2G): column 2g holds
    cos(k u_g / n) over the a_k rows and sin(k u_g / n) over the b_k rows,
    column 2g + 1 the derivative's -(k/n) sin and (k/n) cos, all scaled by
    1 / sqrt(n)."""
    k = np.arange(1, n + 1)
    phase = np.outer(u_values, k) / n
    cosm, sinm = np.cos(phase).T, np.sin(phase).T
    kn = (k / n)[:, None]
    p, dp = np.vstack([cosm, sinm]), np.vstack([-kn * sinm, kn * cosm])
    return (np.stack([p, dp], axis=-1) * (1.0 / math.sqrt(n))).reshape(2 * n, -1)
