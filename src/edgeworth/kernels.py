"""Super-kernel construction and mollification.

The kernel is the inverse Fourier transform of a symmetric, infinitely
smooth frequency window equal to 1 on a plateau around zero and tapered to
zero over a finite rolloff band.  Because the window is flat at the origin
every moment of the kernel of order >= 1 vanishes, so convolution with the
scaled kernel reproduces polynomials exactly up to the verified moment
order; unit mass is enforced by normalization.  The kernel itself takes
negative values: it is a mollifier, not a probability density.  The grid
values are one inverse real FFT of the sampled window, exact by Poisson
summation up to aliased copies of the kernel at distance ~4 * half_width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import KernelMomentError

STEP_POWER = 2
MAX_CHECKED_MOMENT = 6
MOLLIFY_BLOCK = 1 << 16  # elements of the shifted-argument array per mollify block: 8 rows of the default grid


def smooth_step(u) -> np.ndarray:
    """C-infinity step: 0 for u <= 0, 1 for u >= 1, built from
    f(u) = exp(-1/u**STEP_POWER) as f(u) / (f(u) + f(1-u)); every derivative
    vanishes at both endpoints."""
    u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(u > 0, np.exp(-1.0 / np.maximum(u, 1e-300) ** STEP_POWER), 0.0)
        b = np.where(u < 1, np.exp(-1.0 / np.maximum(1.0 - u, 1e-300) ** STEP_POWER), 0.0)
    return a / (a + b)


def frequency_window(xi, plateau: float, rolloff: float) -> np.ndarray:
    """Symmetric C-infinity window: 1 on |xi| <= plateau, smooth-step taper
    to 0 across (plateau, plateau + rolloff), 0 beyond."""
    xi = np.abs(np.asarray(xi, dtype=float))
    return smooth_step((plateau + rolloff - xi) / rolloff)


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
) -> SuperKernel:
    """Construct the kernel by one inverse real FFT of the window sampled
    at xi_k = k * 2*pi / L, L = 2 * points * spacing (about 4 * half_width),
    and normalize to unit mass.

    By Poisson summation that trapezoid sum is the kernel plus its copies
    shifted by multiples of L, so the only error beyond rounding is the
    kernel tail beyond about 3 * half_width, past the tail the grid already
    truncates.  On the default grid the worst |moment 1..6| over plateaus
    8..12 and rolloffs 18..24 (steps of 0.5) is 2.4e-8, 1/40 of the default
    ``moment_bound``.

    ``points`` must be a power of two >= 4096.  Moments
    1..MAX_CHECKED_MOMENT are verified against ``moment_bound``; failure
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

    h = np.pi / (points * spacing)
    k = np.arange(int(cutoff / h) + 1)
    # the half-sample twiddle moves the FFT's first sample from x = 0 to x[0]
    twiddle = np.exp(-1j * np.pi * k * (points - 1) / (2 * points))
    values = np.fft.irfft(frequency_window(k * h, plateau, rolloff) * twiddle, n=2 * points)
    values = values[:points] * (points * h / np.pi)
    # mirror the x > 0 half so the values are exactly symmetric
    half = points // 2
    values[:half] = values[half:][::-1]

    values = values / np.trapezoid(values, x)
    kernel = SuperKernel(
        x=x, values=values, spacing=spacing, plateau=plateau, rolloff=rolloff
    )
    for order in range(1, MAX_CHECKED_MOMENT + 1):
        mk = kernel.moment(order)
        if abs(mk) > moment_bound:
            raise KernelMomentError(order, mk, moment_bound)
    return kernel


def mollify(f, kernel: SuperKernel, delta: float, x) -> np.ndarray | float:
    """Convolution of ``f`` with the delta-scaled kernel at the points ``x``:
    integral of f(x - delta * u) against the kernel grid, trapezoid rule.

    ``f`` must be evaluable on [x - delta * half_width, x + delta * half_width]
    and act elementwise: it is applied to blocks of rows of the (points,
    kernel grid) array of shifted arguments, each block about
    ``MOLLIFY_BLOCK`` elements, so the temporaries stay in cache.  Each row's
    trapezoid sum reads only its own row, so the blocks change no value.
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must be in (0, 1]")
    x = np.asarray(x, dtype=float)
    single = x.ndim == 0
    pts = np.atleast_1d(x)
    u = delta * kernel.x
    rows = max(1, MOLLIFY_BLOCK // len(u))
    out = np.empty(len(pts))
    for start in range(0, len(pts), rows):
        vals = np.asarray(f(pts[start : start + rows, None] - u), dtype=float)
        out[start : start + rows] = np.trapezoid(vals * kernel.values, dx=kernel.spacing, axis=1)
    return float(out[0]) if single else out
