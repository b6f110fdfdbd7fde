"""Reference super-kernel values by direct quadrature of the inverse
Fourier transform, independent of the FFT used by the package.

The plateau part of the transform has the closed form sin(plateau*x)/x; the
taper band is integrated with a Gauss-Legendre rule dense enough to resolve
the oscillation across the whole grid.  The values are not normalized and
not checked against the moment guard.
"""

import numpy as np

from edgeworth.kernels import frequency_window


def reference_kernel_values(x, plateau: float, rolloff: float, half_width: float) -> np.ndarray:
    """(1/pi) * integral over xi >= 0 of window(xi) * cos(xi * x), at ``x``."""
    nodes, weights = np.polynomial.legendre.leggauss(max(1200, int(half_width * rolloff / 2.0) + 200))
    xi = plateau + 0.5 * rolloff * (nodes + 1.0)
    wxi = 0.5 * rolloff * weights * frequency_window(xi, plateau, rolloff)

    values = plateau * np.sinc(plateau * x / np.pi)
    chunk = 2048
    for start in range(0, len(x), chunk):
        block = x[start : start + chunk]
        values[start : start + chunk] += np.cos(np.outer(block, xi)) @ wxi
    return values / np.pi


def mollify_whole_array(f, kernel, delta: float, x):
    """``mollify`` as one (points, grid) array of shifted arguments, the
    form it had before it worked in row blocks; kept as its oracle."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 0
    pts = np.atleast_1d(x)
    shifted = pts[:, None] - delta * kernel.x[None, :]
    vals = np.asarray(f(shifted), dtype=float)
    out = np.trapezoid(vals * kernel.values[None, :], dx=kernel.spacing, axis=1)
    return float(out[0]) if single else out
