"""Probabilists' Hermite polynomials, exact standard-normal moments, and
the one sparse polynomial type: test functions are Polynomials in x, and the
corrector operators are Polynomials read in the partial derivatives.

Everything here is exact in double precision for the orders the library
supports (degree <= 12): coefficients and Gaussian moments are integers,
so sums of products round only at the final accumulation.  Point values
go through products only: one evaluator serves both bases, reading a
Polynomial's monomials from a table of powers built by repeated
multiplication (``power_table``) and the corrector's Hermite terms from
``hermite_value_table``, so no libm ``pow`` enters a value and a power
x**k carries at most k - 1 roundings.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .multiindex import check_multiindex

MAX_DEGREE = 12

_HERMITE_CACHE: list[np.ndarray] = [np.array([1.0]), np.array([0.0, 1.0])]


def hermite1d(m: int) -> np.ndarray:
    """Coefficient vector of the probabilists' Hermite polynomial of order m.

    Position k holds the coefficient of ``x**k``.  Generated by the
    recurrence ``H_{m+1}(x) = x H_m(x) - m H_{m-1}(x)`` with H_0 = 1, H_1 = x;
    coefficients are exact integers up to the supported degree.
    """
    if m < 0:
        raise ValueError("order must be >= 0")
    if m > MAX_DEGREE:
        raise ValueError(f"polynomial arithmetic capped at degree {MAX_DEGREE}")
    while len(_HERMITE_CACHE) <= m:
        k = len(_HERMITE_CACHE) - 1
        hk, hk1 = _HERMITE_CACHE[k], _HERMITE_CACHE[k - 1]
        nxt = np.zeros(k + 2)
        nxt[1:] += hk
        nxt[: k] -= k * hk1
        _HERMITE_CACHE.append(nxt)
    return _HERMITE_CACHE[m].copy()


def hermite_value_table(max_order: int, x: np.ndarray) -> np.ndarray:
    """Table ``T[k, ...] = H_k(x)`` for k = 0..max_order, by the recurrence."""
    x = np.asarray(x, dtype=float)
    table = np.empty((max_order + 1,) + x.shape)
    table[0] = 1.0
    if max_order >= 1:
        table[1] = x
    for k in range(1, max_order):
        table[k + 1] = x * table[k] - k * table[k - 1]
    return table


def power_table(max_order: int, x: np.ndarray) -> np.ndarray:
    """Table ``T[k, ...] = x**k`` for k = 0..max_order, by ``T[k] = T[k-1] * x``."""
    x = np.asarray(x, dtype=float)
    table = np.empty((max_order + 1,) + x.shape)
    table[0] = 1.0
    if max_order >= 1:
        table[1] = x
    for k in range(1, max_order):
        table[k + 1] = table[k] * x
    return table


def gaussian_moment_1d(k: int) -> float:
    """E[Z^k] for Z standard normal: (k-1)!! for even k, 0 for odd k."""
    if k < 0:
        raise ValueError("moment order must be >= 0")
    if k % 2 == 1:
        return 0.0
    return float(math.prod(range(k - 1, 0, -2))) if k > 0 else 1.0


def gaussian_moment(beta) -> float:
    """E[W^beta] for W standard normal in R^d with independent coordinates."""
    beta = check_multiindex(beta)
    out = 1.0
    for b in beta:
        m = gaussian_moment_1d(b)
        if m == 0.0:
            return 0.0
        out *= m
    return out


def gauss_hermite(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights integrating exactly against the standard normal
    density up to degree 2*nodes - 1 (weights normalized to sum to 1)."""
    if nodes < 1:
        raise ValueError("need at least one node")
    x, w = np.polynomial.hermite_e.hermegauss(nodes)
    return x, w / w.sum()


def _evaluate(d: int, terms: dict, table_of, start: float, x) -> np.ndarray | float:
    """``start + sum c * prod_i T[beta_i, :, i]`` over the ``terms`` map
    beta -> c, with ``T = table_of(max order, points)``: ``power_table``
    reads the terms as monomials, ``hermite_value_table`` as Hermite
    polynomials.  ``x`` is one point (shape (d,), a float comes back) or a
    batch (shape (m, d)); an empty map builds no table."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    if pts.ndim != 2 or pts.shape[1] != d:
        raise ValueError("point dimension mismatch")
    out = np.full(pts.shape[0], start)
    if terms:
        table = table_of(max(max(b) for b in terms), pts)
        for beta, c in terms.items():
            term = np.full(pts.shape[0], c)
            for i, b in enumerate(beta):
                if b:
                    term *= table[b, :, i]
            out += term
    return float(out[0]) if single else out


class Polynomial:
    """Multivariate polynomial as a map monomial multi-index -> coefficient.

    Read in the partial derivatives instead of x, the same map is a
    constant-coefficient differential operator, and ``*`` composes two of
    them.  Called on one point (shape (d,)) or a batch (shape (m, d)), it
    evaluates through products: each term is its coefficient times rows of
    one ``power_table`` of the points."""

    __slots__ = ("d", "terms")

    def __init__(self, d: int, terms: dict | None = None):
        if d < 1:
            raise ValueError("dimension must be >= 1")
        self.d = d
        self.terms = {}
        for beta, c in (terms or {}).items():
            beta = check_multiindex(beta)
            if len(beta) != d:
                raise ValueError("monomial dimension mismatch")
            if c != 0.0:
                self.terms[beta] = self.terms.get(beta, 0.0) + c

    @classmethod
    def _of(cls, d: int, terms: dict) -> "Polynomial":
        """Unchecked constructor for canonical keys of dimension d: only
        drops zero coefficients."""
        p = cls.__new__(cls)
        p.d = d
        p.terms = {b: c for b, c in terms.items() if c != 0.0}
        return p

    @classmethod
    def monomial(cls, beta, coeff: float = 1.0) -> "Polynomial":
        beta = check_multiindex(beta)
        return cls(len(beta), {beta: coeff})

    def degree(self) -> int:
        return max((sum(b) for b in self.terms), default=0)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        terms = dict(self.terms)
        for b, c in other.terms.items():
            terms[b] = terms.get(b, 0.0) + c
        return Polynomial._of(self.d, terms)

    def scale(self, a: float) -> "Polynomial":
        return Polynomial._of(self.d, {b: a * c for b, c in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        terms: dict = {}
        for b1, c1 in self.terms.items():
            for b2, c2 in other.terms.items():
                b = tuple(map(operator.add, b1, b2))
                terms[b] = terms.get(b, 0.0) + c1 * c2
        return Polynomial._of(self.d, terms)

    def diff(self, gamma) -> "Polynomial":
        """Apply the differential operator with multiplicities ``gamma``."""
        gamma = check_multiindex(gamma)
        if len(gamma) != self.d:
            raise ValueError("dimension mismatch")
        terms: dict = {}
        for beta, c in self.terms.items():
            if any(b < g for b, g in zip(beta, gamma)):
                continue
            coeff = c
            for b, g in zip(beta, gamma):
                # falling factorial b (b-1) ... (b-g+1)
                for j in range(g):
                    coeff *= b - j
            nb = tuple(b - g for b, g in zip(beta, gamma))
            terms[nb] = terms.get(nb, 0.0) + coeff
        return Polynomial._of(self.d, terms)

    def __call__(self, x) -> np.ndarray | float:
        return _evaluate(self.d, self.terms, power_table, 0.0, x)

    def gaussian_expectation(self) -> float:
        return sum(c * gaussian_moment(b) for b, c in self.terms.items())

    def __repr__(self) -> str:  # pragma: no cover
        return f"Polynomial(d={self.d}, {len(self.terms)} terms, degree {self.degree()})"
