"""Multi-index algebra on multiplicity vectors.

A multi-index is stored canonically as a tuple of per-coordinate
multiplicities ``beta = (b_1, ..., b_d)``; its order is ``sum(beta)``.
Ordered index tuples (coordinate lists like ``(1, 1, 3)``) that share the
same per-coordinate counts map to the same multiplicity vector, and sums
over ordered tuples are recovered through :func:`multinomial_weight`.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement


def check_multiindex(beta) -> tuple:
    beta = tuple(int(b) for b in beta)
    if len(beta) == 0:
        raise ValueError("multi-index needs at least one coordinate")
    if any(b < 0 for b in beta):
        raise ValueError(f"negative multiplicity in {beta}")
    return beta


def enumerate_multiindices(d: int, l: int) -> list[tuple]:
    """All multiplicity vectors of dimension ``d`` and order ``l``.

    Returned in descending lexicographic order of the multiplicity vector,
    which is fixed and deterministic; the count is C(l+d-1, d-1).
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if l < 0:
        raise ValueError("order must be >= 0")
    out = []
    # combinations_with_replacement of coordinate labels, converted to counts
    for combo in combinations_with_replacement(range(d), l):
        beta = [0] * d
        for i in combo:
            beta[i] += 1
        out.append(tuple(beta))
    out.sort(reverse=True)
    return out


def multinomial_weight(beta) -> int:
    """Number of ordered index tuples with per-coordinate counts ``beta``,
    i.e. ``|beta|! / prod(beta_i!)``."""
    beta = check_multiindex(beta)
    n = sum(beta)
    if n > 170:
        raise OverflowError("multi-index order too large for exact factorials")
    w = math.factorial(n)
    for b in beta:
        w //= math.factorial(b)
    return w


def concat(beta1, beta2) -> tuple:
    """Multiplicity vector of the concatenation of two index tuples
    (entrywise sum; orders add)."""
    if len(beta1) != len(beta2):
        raise ValueError(f"dimension mismatch: {len(beta1)} vs {len(beta2)}")
    return tuple(a + b for a, b in zip(beta1, beta2))


def from_ordered(alpha, d: int) -> tuple:
    """Convert an ordered tuple of coordinate labels (1-based, e.g. (1,1,3))
    to its multiplicity vector."""
    beta = [0] * d
    for a in alpha:
        if not 1 <= a <= d:
            raise ValueError(f"coordinate label {a} outside 1..{d}")
        beta[a - 1] += 1
    return tuple(beta)


def unit(d: int, i: int) -> tuple:
    """Multiplicity vector of the single coordinate ``i`` (0-based)."""
    beta = [0] * d
    beta[i] = 1
    return tuple(beta)
