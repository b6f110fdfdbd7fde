"""Occupation time of the scaled random walk near zero.

The time-average of a narrow band indicator along the walk converges to
the local time of Brownian motion at zero; its expectation approaches
sqrt(2/pi) as the band shrinks.  The demo also shows the lattice-boundary
resonance: when the band edge lands exactly on the walk's lattice, the
boundary atoms swing the walk-vs-Gaussian gap by far more than the generic
trend (the reason one acceptance clause stays red; see the README).
"""

import math

import numpy as np
from scipy.special import bdtr

from edgeworth import rademacher
from edgeworth.experiments import (
    occupation_closed_form_gaussian,
    occupation_time,
)

print("=== walk occupation vs Brownian reference (moderate scale) ===\n")
res = occupation_time(
    rademacher(), rho=0.5, n_grid=[500, 2000, 8000], samples=4000, seed=17, ref_eps=0.02,
)
print(f"{'n':>6} {'band':>8} {'walk':>9} {'gauss MC':>9} {'gauss exact':>12} {'brownian':>9} {'gap':>9}")
for r in res.rows:
    print(f"{r['n']:>6} {r['eps']:>8.4f} {r['occupation']:>9.5f} "
          f"{r['occupation_gaussian']:>9.5f} {r['gaussian_exact']:>12.5f} "
          f"{r['brownian_ref']:>9.5f} {r['gap']:>9.5f}")
print(f"\nsmall-band Brownian reference: {res.notes['local_time_ref']:.5f}")
print(f"local-time limit sqrt(2/pi):   {math.sqrt(2/math.pi):.5f}\n")

print("=== lattice-boundary resonance in the exact gap (no Monte Carlo) ===\n")


def exact_walk_occupation(n, eps):
    # after k steps the walk sits at 2j - k for j ~ Binomial(k, 1/2); the band
    # holds j in [lo, hi], with both edges clipped into bdtr's 0..k domain
    lim = eps * math.sqrt(n)
    k = np.arange(1, n + 1)
    lo = np.ceil((k - lim) / 2.0).astype(int)
    hi = np.floor((k + lim) / 2.0).astype(int)
    below = np.where(lo >= 1, bdtr(np.maximum(lo - 1, 0), k, 0.5), 0.0)
    p = np.where(hi >= lo, bdtr(np.minimum(hi, k), k, 0.5) - below, 0.0)
    return float(p.sum()) / (n * 2.0 * eps)


print(f"{'n':>6} {'n^(1/4)':>9} {'exact |walk - gauss| gap':>26}")
for n in (4000, 4096, 6000, 6561, 8000, 10000, 12000):
    eps = n ** -0.25
    gap = abs(exact_walk_occupation(n, eps) - occupation_closed_form_gaussian(n, eps))
    marker = "  <- band edge on the lattice" if abs(n ** 0.25 - round(n ** 0.25)) < 1e-9 else ""
    print(f"{n:>6} {n**0.25:>9.4f} {gap:>26.5f}{marker}")
