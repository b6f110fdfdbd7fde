"""Multi-index algebra on multiplicity vectors.

A multi-index is stored canonically as a tuple of per-coordinate
multiplicities ``beta = (b_1, ..., b_d)``, each a nonnegative integer; its
order is ``sum(beta)``.
"""

from __future__ import annotations

import operator
from itertools import combinations_with_replacement


def check_multiindex(beta) -> tuple:
    """``beta`` as a tuple of Python ints.  An entry must be an integer
    (``operator.index``: a Python or numpy integer, not a float such as
    1.5 or 2.0), else a ValueError names it."""
    beta = tuple(beta)
    out = []
    for b in beta:
        try:
            out.append(operator.index(b))
        except TypeError:
            raise ValueError(f"multiplicity {b!r} in {beta} is not an integer") from None
    beta = tuple(out)
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
