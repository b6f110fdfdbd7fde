"""Super-kernel construction and mollification.

The kernel is the inverse Fourier transform of a symmetric, infinitely
smooth frequency window equal to 1 on a plateau around zero and tapered to
zero over a finite rolloff band.  Because the window is flat at the origin
every moment of the kernel of order >= 1 vanishes, so convolution with the
scaled kernel reproduces polynomials exactly up to the verified moment
order; unit mass is enforced by normalization.  The kernel itself takes
negative values: it is a mollifier, not a probability density.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import KernelMomentError


def smooth_step(u, power: int = 2) -> np.ndarray:
    """C-infinity step: 0 for u <= 0, 1 for u >= 1, built from
    f(u) = exp(-1/u**power) as f(u) / (f(u) + f(1-u)); every derivative
    vanishes at both endpoints."""
    u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(u > 0, np.exp(-1.0 / np.maximum(u, 1e-300) ** power), 0.0)
        b = np.where(u < 1, np.exp(-1.0 / np.maximum(1.0 - u, 1e-300) ** power), 0.0)
    return a / (a + b)


def frequency_window(xi, plateau: float, rolloff: float, power: int = 2) -> np.ndarray:
    """Symmetric C-infinity window: 1 on |xi| <= plateau, smooth-step taper
    to 0 across (plateau, plateau + rolloff), 0 beyond."""
    xi = np.abs(np.asarray(xi, dtype=float))
    return smooth_step((plateau + rolloff - xi) / rolloff, power=power)


@dataclass(frozen=True, eq=False)
class SuperKernel:
    """Uniform grid sample of the kernel on [-half_width, half_width]."""

    x: np.ndarray
    values: np.ndarray
    spacing: float
    plateau: float
    rolloff: float

    def mass(self) -> float:
        return float(np.trapezoid(self.values, dx=self.spacing))

    def moment(self, k: int) -> float:
        """Trapezoid moment folded over the antisymmetric grid: each x > 0
        is paired with -x, weighting v(x) + (-1)^k v(-x) by x^k, so odd
        orders of a symmetric kernel are exactly 0."""
        half = len(self.x) // 2
        x = self.x[half:]
        paired = self.values[half:] + (-1) ** k * self.values[half - 1 :: -1]
        weights = np.ones(half)
        weights[-1] = 0.5
        return float(self.spacing * np.sum(weights * x**k * paired))

    def abs_norm(self) -> float:
        """L1 norm of the kernel (finite; reported for diagnostics)."""
        return float(np.trapezoid(np.abs(self.values), dx=self.spacing))

    def weighted_derivative_norm(self, weight_power: int, deriv_order: int) -> float:
        """Grid estimate of int |y|^m |kernel^(j)(y)| dy via finite differences."""
        v = self.values
        for _ in range(deriv_order):
            v = np.gradient(v, self.spacing)
        return float(np.trapezoid(np.abs(v) * np.abs(self.x) ** weight_power, dx=self.spacing))

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("x,value\n")
            for xi, vi in zip(self.x, self.values):
                fh.write(f"{xi!r},{vi!r}\n")


def build_super_kernel(
    plateau: float = 10.0,
    rolloff: float = 20.0,
    half_width: float = 22.0,
    points: int = 1 << 13,
    moment_bound: float = 1e-6,
    max_checked_moment: int = 6,
    taper_nodes: int = 1200,
    step_power: int = 2,
) -> SuperKernel:
    """Construct the kernel by inverse Fourier evaluation on a fixed grid
    and normalize to unit mass.

    The plateau part of the transform has the closed form sin(plateau*x)/x;
    the taper band is integrated with a Gauss-Legendre rule dense enough to
    resolve the oscillation across the whole grid.  The result is
    band-limited, so once the spacing is below the Nyquist threshold the
    grid moments are limited only by the kernel tail beyond the half width
    and by double-precision rounding; the defaults leave an order of
    magnitude of margin on every checked moment.

    ``points`` must be a power of two >= 4096.  Moments
    1..max_checked_moment are verified against ``moment_bound``; failure
    reports the offending order (the usual cause is a grid too short or
    too coarse for the chosen window).
    """
    if plateau <= 0 or rolloff <= 0:
        raise ValueError("plateau and rolloff must be positive")
    if points < (1 << 12) or points & (points - 1):
        raise ValueError("points must be a power of two >= 4096")
    spacing = 2.0 * half_width / (points - 1)
    cutoff = plateau + rolloff
    if spacing * cutoff > 2.0:
        raise ValueError("grid spacing above the Nyquist threshold for this window")
    # exactly antisymmetric grid so odd moments cancel in floating point
    x = (np.arange(points) - (points - 1) / 2.0) * spacing

    min_nodes = int(half_width * rolloff / 2.0) + 200
    taper_nodes = max(taper_nodes, min_nodes)
    nodes, weights = np.polynomial.legendre.leggauss(taper_nodes)
    xi = plateau + 0.5 * rolloff * (nodes + 1.0)
    wxi = 0.5 * rolloff * weights * frequency_window(xi, plateau, rolloff, power=step_power)

    values = plateau * np.sinc(plateau * x / np.pi)
    chunk = 2048
    for start in range(0, points, chunk):
        block = x[start : start + chunk]
        values[start : start + chunk] += np.cos(np.outer(block, xi)) @ wxi
    values /= np.pi

    values = values / np.trapezoid(values, x)
    kernel = SuperKernel(
        x=x, values=values, spacing=spacing, plateau=plateau, rolloff=rolloff
    )
    for k in range(1, max_checked_moment + 1):
        mk = kernel.moment(k)
        if abs(mk) > moment_bound:
            raise KernelMomentError(k, mk, moment_bound)
    return kernel


def mollify(f, kernel: SuperKernel, delta: float, x) -> np.ndarray | float:
    """Convolution of ``f`` with the delta-scaled kernel at the points ``x``:
    integral of f(x - delta * u) against the kernel grid, trapezoid rule.

    ``f`` must be evaluable on [x - delta * half_width, x + delta * half_width].
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must be in (0, 1]")
    x = np.asarray(x, dtype=float)
    single = x.ndim == 0
    pts = np.atleast_1d(x)
    shifted = pts[:, None] - delta * kernel.x[None, :]
    vals = np.asarray(f(shifted), dtype=float)
    out = np.trapezoid(vals * kernel.values[None, :], dx=kernel.spacing, axis=1)
    return float(out[0]) if single else out
