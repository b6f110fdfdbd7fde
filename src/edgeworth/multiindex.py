"""Multi-index algebra on multiplicity vectors.

A multi-index is stored canonically as a tuple of per-coordinate
multiplicities ``beta = (b_1, ..., b_d)``; its order is ``sum(beta)``.
Inner loops that add indices carry them packed into one integer instead:
``PACK_BITS`` bits per coordinate, the first coordinate highest, so the
sum of two packed indices is the packed sum of the indices.  Each
coordinate of a packed index stays below ``PACK_LIMIT``, the field's top
bit, so a sum of two never carries into the next coordinate and
``check_packed`` finds a sum that left the field by that bit.
"""

from __future__ import annotations

from itertools import combinations_with_replacement


def check_multiindex(beta) -> tuple:
    beta = tuple(int(b) for b in beta)
    if len(beta) == 0:
        raise ValueError("multi-index needs at least one coordinate")
    if any(b < 0 for b in beta):
        raise ValueError(f"negative multiplicity in {beta}")
    return beta


PACK_BITS = 10  # bits per coordinate of a packed index: three coordinates fit one 30-bit int digit
PACK_LIMIT = 1 << (PACK_BITS - 1)  # every coordinate of a packed index is below this
_FIELD = (1 << PACK_BITS) - 1


def pack(beta: tuple) -> int:
    """The canonical multi-index ``beta`` as one integer."""
    key = 0
    for b in beta:
        if b >= PACK_LIMIT:
            raise ValueError(f"multiplicity {b} in {beta} does not fit a packed field (limit {PACK_LIMIT - 1})")
        key = key << PACK_BITS | b
    return key


def unpack(key: int, d: int) -> tuple:
    """The d-dimensional multi-index packed in ``key``."""
    return tuple(key >> (PACK_BITS * i) & _FIELD for i in range(d - 1, -1, -1))


def check_packed(keys, d: int) -> None:
    """Raises ValueError if a coordinate of one of the packed d-dimensional
    ``keys`` reached ``PACK_LIMIT``, as a sum of two packed indices may."""
    guard = sum(PACK_LIMIT << (PACK_BITS * i) for i in range(d))
    for key in keys:
        if key & guard:
            raise ValueError(f"multiplicity in {unpack(key, d)} does not fit a packed field (limit {PACK_LIMIT - 1})")


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
