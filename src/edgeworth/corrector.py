"""Corrector operators and polynomials for the Edgeworth expansion of
scaled sums of independent, non-identically distributed random vectors.

The order-k corrector operator is

    sum_{m=1}^{k}  sum_{tuples}  n^{-m}  sum_{r_1 < ... < r_m}
        prod_i (1/l_i!) D^{(l_i)}_{r_i}
        prod_j ((-1)^{l'_j} / (2^{l'_j} l'_j!)) L_{sigma_{r_j}}^{l'_j}

where the inner tuples (l_i, l'_i) run over all ways to book derivative
orders l_i >= 3 and Laplace powers l'_i >= 0 with sum l_i + 2 sum l'_i =
k + 2m, D^{(l)}_r is the moment-gap differential operator of order l of
summand r, and L_sigma the Laplace operator of its covariance.

The tuples are closed under permutation and all operators commute, so the
increasing-index sums add up to 1/m! times sums over pairwise distinct
indices.  Those are Moebius sums over the set partitions pi of the m slots,

    sum_{r distinct} prod_i S_i(r_i) = sum_pi mu(pi) prod_{B in pi} P_B,
    mu(pi) = prod_B (-1)^{|B|-1} (|B|-1)!,   P_B = sum_r c_r prod_{i in B} S_i(r),

with the power sums P_B taken over the distinct summand records r, each
weighted by its count c_r (the averaged-cumulant form of non-iid Edgeworth
theory).  The cost depends on the number of records, not on n.

Converting each constant-coefficient operator to its Hermite dual and
summing n^{-k/2}-weighted terms yields the corrector polynomial

    1 + sum_{k=1}^{N} n^{-k/2} (Hermite dual of the order-k operator),

whose Gaussian expectation corrects E[f(W)] to match E[f(S_n)] up to
O(n^{-(N+1)/2}).
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import NumericalGuardError
from .hermite import (
    Polynomial,
    expect_poly_times_hermite,
    gauss_hermite,
    hermite_value_table,
)
from .multiindex import check_multiindex, concat, enumerate_multiindices, multinomial_weight, unit
from .moments import ModelSpec, Summand, gap_table


class DiffOp:
    """Constant-coefficient differential operator in multiplicity form.

    ``terms[beta]`` is the total coefficient of the derivative with
    per-coordinate multiplicities ``beta`` (ordered-tuple sums are already
    folded in).  Composition is coefficient convolution; everything
    commutes.
    """

    __slots__ = ("d", "terms")

    def __init__(self, d: int, terms: dict | None = None):
        self.d = d
        self.terms = {b: c for b, c in (terms or {}).items() if c != 0.0}

    @classmethod
    def identity(cls, d: int) -> "DiffOp":
        return cls(d, {(0,) * d: 1.0})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "DiffOp") -> "DiffOp":
        terms = dict(self.terms)
        for b, c in other.terms.items():
            terms[b] = terms.get(b, 0.0) + c
        return DiffOp(self.d, terms)

    def scale(self, a: float) -> "DiffOp":
        if a == 0.0:
            return DiffOp(self.d)
        return DiffOp(self.d, {b: a * c for b, c in self.terms.items()})

    def compose(self, other: "DiffOp") -> "DiffOp":
        terms: dict = {}
        for b1, c1 in self.terms.items():
            for b2, c2 in other.terms.items():
                b = concat(b1, b2)
                terms[b] = terms.get(b, 0.0) + c1 * c2
        return DiffOp(self.d, terms)

    def power(self, p: int) -> "DiffOp":
        out = DiffOp.identity(self.d)
        for _ in range(p):
            out = out.compose(self)
        return out

    def apply(self, f: Polynomial) -> Polynomial:
        out = Polynomial(f.d)
        for beta, c in self.terms.items():
            out = out + f.diff(beta).scale(c)
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"DiffOp(d={self.d}, {len(self.terms)} terms)"


def _gap_operator(d: int, gaps: dict, l: int) -> DiffOp:
    """Order-l operator read from a gap table, ordered-tuple counts folded in."""
    terms = {}
    for beta in enumerate_multiindices(d, l):
        gap = gaps.get(beta, 0.0)
        if gap != 0.0:
            terms[beta] = multinomial_weight(beta) * gap
    return DiffOp(d, terms)


def moment_gap_operator(summand: Summand, l: int) -> DiffOp:
    """Order-l operator whose coefficient at each derivative is the moment
    gap of the summand, with ordered-tuple counts folded in."""
    return _gap_operator(summand.C.shape[0], gap_table(summand.C, summand.components, l), l)


def _gap_tables(model: ModelSpec, K: int) -> list[tuple[Summand, int, dict]]:
    """Each summand record with its count and its gap table of orders 3..K."""
    return [(rec, count, gap_table(rec.C, rec.components, K)) for rec, count in model.unique_summands()]


def laplace_operator(sigma: np.ndarray) -> DiffOp:
    """Second-order operator sum_{i,j} sigma_ij d_i d_j in multiplicity form."""
    sigma = np.asarray(sigma, dtype=float)
    d = sigma.shape[0]
    terms: dict = {}
    for i in range(d):
        if sigma[i, i] != 0.0:
            terms[concat(unit(d, i), unit(d, i))] = sigma[i, i]
    for i in range(d):
        for j in range(i + 1, d):
            if sigma[i, j] != 0.0:
                terms[concat(unit(d, i), unit(d, j))] = 2.0 * sigma[i, j]
    return DiffOp(d, terms)


def corrector_index_tuples(m: int, k: int, N: int) -> list[tuple]:
    """All ordered tuples ((l_1,l'_1),...,(l_m,l'_m)) with
    N+2 >= l_i >= 3, floor(N/2) >= l'_i >= 0 and
    sum l_i + 2 sum l'_i = k + 2m, in lexicographic order."""
    if not 1 <= m <= k <= N:
        raise ValueError("need 1 <= m <= k <= N")
    target = k + 2 * m
    lp_max = N // 2
    pairs = [(l, lp) for l in range(3, N + 3) for lp in range(lp_max + 1)]

    out: list[tuple] = []

    def rec(prefix, remaining, slots):
        if slots == 0:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        for (l, lp) in pairs:
            cost = l + 2 * lp
            # remaining slots each cost at least 3
            if cost > remaining - 3 * (slots - 1):
                continue
            rec(prefix + [(l, lp)], remaining - cost, slots - 1)

    rec([], target, m)
    out.sort()
    return out


@lru_cache(maxsize=None)
def _set_partitions(m: int) -> tuple:
    """Set partitions of the slots 0..m-1 as pairs (Moebius weight, blocks),
    the weight prod_B (-1)^(|B|-1) (|B|-1)!."""
    parts = [[]]
    for i in range(m):
        # slot i opens a block of its own or joins one of the existing blocks
        parts = [p + [(i,)] for p in parts] + [
            p[:j] + [p[j] + (i,)] + p[j + 1:] for p in parts for j in range(len(p))
        ]
    return tuple(
        (math.prod((-1) ** (len(b) - 1) * math.factorial(len(b) - 1) for b in part), tuple(part))
        for part in parts
    )


class _PowerSums:
    """Count-weighted power sums over the distinct summand records of
    composed slot operators for expansions up to order N, with each record's
    gap table (orders 3..N+2) and every slot and block operator of the model
    built once and shared across corrector orders."""

    def __init__(self, model: ModelSpec, N: int):
        self.model = model
        self.N = N
        self.records = _gap_tables(model, N + 2)
        self.slots: dict = {}
        self.products: dict = {}
        self.sums: dict = {}

    def slot(self, r: int, l: int, lp: int) -> DiffOp:
        """(1/l!) D^{(l)}_r composed with ((-1)^{l'} / (2^{l'} l'!)) L^{l'} of record r."""
        key = (r, l, lp)
        if key not in self.slots:
            rec, _, gaps = self.records[r]
            if lp == 0:
                op = _gap_operator(self.model.d, gaps, l).scale(1.0 / math.factorial(l))
            else:
                op = self.slot(r, l, 0)
                if not op.is_zero():
                    lap = laplace_operator(rec.sigma()).power(lp)
                    op = op.compose(lap.scale(((-1.0) ** lp) / (2.0 ** lp * math.factorial(lp))))
            self.slots[key] = op
        return self.slots[key]

    def product(self, r: int, block: tuple) -> DiffOp:
        """Composition of the slot operators of record r over a sorted block
        of (l, l') pairs; blocks share their prefixes."""
        key = (r, block)
        if key not in self.products:
            last = self.slot(r, *block[-1])
            if len(block) == 1 or last.is_zero():
                self.products[key] = last
            else:
                self.products[key] = self.product(r, block[:-1]).compose(last)
        return self.products[key]

    def power_sum(self, block: tuple) -> DiffOp:
        """sum over records r of count_r * product(r, block)."""
        if block not in self.sums:
            total = DiffOp(self.model.d)
            for r, (_, count, _) in enumerate(self.records):
                total = total + self.product(r, block).scale(float(count))
            self.sums[block] = total
        return self.sums[block]

    def distinct(self, lam: tuple) -> DiffOp:
        """Sum over pairwise distinct summand indices r_1, ..., r_m of the
        composed slot operators of lam: Moebius sum over the set partitions
        of the m slots, one power sum per block."""
        total = DiffOp(self.model.d)
        for mu, part in _set_partitions(len(lam)):
            op = DiffOp.identity(self.model.d)
            for b in part:
                op = op.compose(self.power_sum(tuple(sorted(lam[i] for i in b))))
                if op.is_zero():
                    break
            total = total + op.scale(float(mu))
        return total

    def operator(self, k: int) -> DiffOp:
        """The order-k corrector operator for expansions up to order N.

        The tuples of each m are closed under permutation and the operators
        commute, so the sum of the increasing-index sums over the tuples
        equals 1/m! times the sum of the distinct-index sums; tuples that
        are permutations of each other share one distinct-index sum."""
        total = DiffOp(self.model.d)
        for m in range(1, k + 1):
            shapes = Counter(tuple(sorted(lam)) for lam in corrector_index_tuples(m, k, self.N))
            w = float(self.model.n) ** (-m) / math.factorial(m)
            for lam, mult in sorted(shapes.items()):
                total = total + self.distinct(lam).scale(mult * w)
        return total


def corrector_operator(model: ModelSpec, k: int, N: int) -> DiffOp:
    """The order-k corrector operator of the model for expansions up to
    order N, from count-weighted power sums over the distinct summand
    records (cost independent of n)."""
    if not 1 <= k <= N:
        raise ValueError("need 1 <= k <= N")
    return _PowerSums(model, N).operator(k)


@dataclass(frozen=True, eq=False)
class CorrectorPolynomial:
    """Constant plus Hermite-basis correction terms.

    Evaluation at x equals ``constant + sum coeff * H_beta(x)``; the
    standard-normal expectation equals the constant because every Hermite
    term of positive order is mean zero.
    """

    d: int
    constant: float
    terms: dict = field(default_factory=dict)
    n: int | None = None
    order: int | None = None

    def __post_init__(self):
        clean = {check_multiindex(b): float(c) for b, c in self.terms.items() if c != 0.0}
        # fixed descending-lexicographic term order: evaluation and
        # serialization are byte-stable regardless of construction order
        ordered = {b: clean[b] for b in sorted(clean, reverse=True)}
        object.__setattr__(self, "terms", ordered)

    def evaluate(self, x) -> np.ndarray | float:
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = x[None, :] if single else x
        if pts.shape[1] != self.d:
            raise ValueError("point dimension mismatch")
        out = np.full(pts.shape[0], self.constant)
        if self.terms:
            max_order = max(max(b) for b in self.terms)
            table = hermite_value_table(max_order, pts)
            for beta, c in self.terms.items():
                term = np.full(pts.shape[0], c)
                for i, b in enumerate(beta):
                    if b:
                        term *= table[b, :, i]
                out += term
        return float(out[0]) if single else out

    def to_json(self) -> dict:
        doc = {
            "d": self.d,
            "constant": self.constant,
            "terms": [
                {"beta": list(b), "coeff": c}
                for b, c in sorted(self.terms.items(), reverse=True)
            ],
        }
        if self.n is not None:
            doc["n"] = self.n
        if self.order is not None:
            doc["N"] = self.order
        return doc

    @staticmethod
    def from_json(doc: dict) -> "CorrectorPolynomial":
        return CorrectorPolynomial(
            d=int(doc["d"]),
            constant=float(doc["constant"]),
            terms={tuple(t["beta"]): float(t["coeff"]) for t in doc["terms"]},
            n=doc.get("n"),
            order=doc.get("N"),
        )

    def to_json_str(self) -> str:
        return json.dumps(self.to_json())


def corrector_polynomial(model: ModelSpec, N: int) -> CorrectorPolynomial:
    """The order-N corrector polynomial of the model (constant 1 plus
    n^{-k/2}-weighted Hermite duals of the order-k operators, k = 1..N).

    The Hermite dual of a constant-coefficient operator keeps its
    coefficient map and reads it over the Hermite basis (shared
    multiplicity form), so that Gaussian expectations of the operator
    applied to f match expectations of f times the dual polynomial."""
    if N < 0:
        raise ValueError("N must be >= 0")
    sums = _PowerSums(model, N)
    terms: dict = {}
    for k in range(1, N + 1):
        w = float(model.n) ** (-0.5 * k)
        for b, c in sums.operator(k).terms.items():
            terms[b] = terms.get(b, 0.0) + w * c
    return CorrectorPolynomial(d=model.d, constant=1.0, terms=terms, n=model.n, order=N)


def _ordered_gap_sums(model: ModelSpec, tables: list, l: int) -> dict:
    """Average moment gap per multiplicity vector of order l, with the
    ordered-tuple count folded in."""
    out = {}
    for beta in enumerate_multiindices(model.d, l):
        total = 0.0
        for _, count, gaps in tables:
            total += gaps.get(beta, 0.0) * count
        val = multinomial_weight(beta) * total / model.n
        if val != 0.0:
            out[beta] = val
    return out


def _weighted_gap_sums(model: ModelSpec, tables: list, l: int) -> dict:
    """Covariance-weighted average gaps: map (beta, i, j) -> value, ordered
    count folded into beta only (the (i, j) sum is already ordered)."""
    out = {}
    for beta in enumerate_multiindices(model.d, l):
        w = multinomial_weight(beta)
        totals = np.zeros((model.d, model.d))
        for rec, count, gaps in tables:
            gap = gaps.get(beta, 0.0)
            if gap != 0.0:
                totals += gap * rec.sigma() * count
        for i in range(model.d):
            for j in range(model.d):
                val = w * totals[i, j] / model.n
                if val != 0.0:
                    out[(beta, i, j)] = val
    return out


def explicit_order3(model: ModelSpec) -> tuple[CorrectorPolynomial, CorrectorPolynomial, CorrectorPolynomial]:
    """The three explicit order-3 Hermite correctors built directly from
    averaged moment gaps (closed forms; no operator machinery).

    The third polynomial's mixed term indexes Hermite polynomials by the
    concatenation (alpha, i, j) with i, j ranging over all coordinates.
    """
    d = model.d
    tables = _gap_tables(model, 5)
    c3 = _ordered_gap_sums(model, tables, 3)
    c4 = _ordered_gap_sums(model, tables, 4)
    c5 = _ordered_gap_sums(model, tables, 5)
    cbar3 = _weighted_gap_sums(model, tables, 3)

    h1 = {b: c / 6.0 for b, c in c3.items()}

    h2: dict = {b: c / 24.0 for b, c in c4.items()}
    for b1, v1 in c3.items():
        for b2, v2 in c3.items():
            b = concat(b1, b2)
            h2[b] = h2.get(b, 0.0) + v1 * v2 / 72.0

    h3: dict = {}
    for (beta, i, j), v in cbar3.items():
        b = concat(beta, concat(unit(d, i), unit(d, j)))
        h3[b] = h3.get(b, 0.0) - v / 12.0
    for b, c in c5.items():
        h3[b] = h3.get(b, 0.0) + c / 120.0
    for b1, v1 in c3.items():
        for b2, v2 in c4.items():
            b = concat(b1, b2)
            h3[b] = h3.get(b, 0.0) + v1 * v2 / 144.0
    for b1, v1 in c3.items():
        for b2, v2 in c3.items():
            for b3, v3 in c3.items():
                b = concat(concat(b1, b2), b3)
                h3[b] = h3.get(b, 0.0) + v1 * v2 * v3 / 1296.0

    def mk(t):
        return CorrectorPolynomial(d=d, constant=0.0, terms=t, n=model.n)

    return mk(h1), mk(h2), mk(h3)


def order2_discrepancy_terms(model: ModelSpec) -> dict:
    """Closed form of the gap between the order-2 operator dual and the
    explicit order-2 corrector:  -(1/(72 n)) sum over pairs of order-3
    indices of the averaged gap-product d(a, b) = (1/n) sum_r gap_r(a)
    gap_r(b), Hermite index the concatenation.  Exactly O(1/n)."""
    d = model.d
    prods: dict = {}
    betas3 = enumerate_multiindices(d, 3)
    tables = _gap_tables(model, 3)
    for b1 in betas3:
        w1 = multinomial_weight(b1)
        for b2 in betas3:
            w2 = multinomial_weight(b2)
            total = sum(g.get(b1, 0.0) * g.get(b2, 0.0) * c for _, c, g in tables)
            dval = total / model.n
            if dval != 0.0:
                b = concat(b1, b2)
                prods[b] = prods.get(b, 0.0) - w1 * w2 * dval / (72.0 * model.n)
    return prods


def order_discrepancy(model: ModelSpec, k: int, x) -> np.ndarray | float:
    """Pointwise gap between the operator-built Hermite corrector of order
    k and the explicit closed form: identically 0 for k = 1 and O(1/n)
    for k in {2, 3}."""
    if k not in (1, 2, 3):
        raise ValueError("explicit correctors exist for k in {1, 2, 3}")
    explicit = explicit_order3(model)[k - 1]
    diff_terms = dict(corrector_operator(model, k, N=3).terms)
    for b, c in explicit.terms.items():
        diff_terms[b] = diff_terms.get(b, 0.0) - c
    gap = CorrectorPolynomial(d=model.d, constant=0.0, terms=diff_terms, n=model.n)
    return gap.evaluate(x)


def edgeworth_expectation(
    f,
    gamma,
    phi: CorrectorPolynomial,
    backend: str = "exact",
    nodes: int = 40,
    tol: float = 1e-8,
) -> float:
    """Corrected Gaussian expectation E[d_gamma f(W) Phi(W)].

    exact backend: f must be a :class:`Polynomial`; the derivative and all
    Hermite products reduce to exact Gaussian moments.

    quadrature backend: tensorized Gauss-Hermite for the standard normal
    weight (d <= 3); f may be any vectorized callable when gamma is empty,
    or a Polynomial otherwise.  The rule is evaluated at ``nodes`` and
    ``2 * nodes`` points per axis and the run aborts if the two differ by
    more than ``tol`` (relative to scale 1 + |value|).
    """
    gamma = check_multiindex(gamma)
    d = phi.d
    if len(gamma) != d:
        raise ValueError("derivative index dimension != corrector dimension")

    if backend == "exact":
        if not isinstance(f, Polynomial):
            raise TypeError("exact backend needs a Polynomial test function")
        g = f.diff(gamma)
        total = phi.constant * g.gaussian_expectation()
        for beta, c in phi.terms.items():
            total += c * expect_poly_times_hermite(g, beta)
        return total

    if backend != "quadrature":
        raise ValueError(f"unknown backend {backend!r}")
    if d > 3:
        raise ValueError("quadrature backend supports d <= 3")
    if isinstance(f, Polynomial):
        g = f.diff(gamma)
        gfun = g.__call__
    elif sum(gamma) == 0:
        gfun = f
    else:
        raise TypeError("quadrature backend needs a Polynomial when gamma is nonempty")

    def quad(npts: int) -> float:
        x1, w1 = gauss_hermite(npts)
        grids = np.meshgrid(*([x1] * d), indexing="ij")
        wgrids = np.meshgrid(*([w1] * d), indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=-1)
        w = np.ones(pts.shape[0])
        for wg in wgrids:
            w *= wg.ravel()
        vals = np.asarray(gfun(pts), dtype=float) * phi.evaluate(pts)
        return float(np.sum(w * vals))

    coarse = quad(nodes)
    fine = quad(2 * nodes)
    if abs(fine - coarse) > tol * (1.0 + abs(fine)):
        raise NumericalGuardError(
            f"quadrature not converged: {coarse!r} vs {fine!r} at {nodes}/{2*nodes} nodes"
        )
    return fine


def normalize(model: ModelSpec, tol: float = 1e-12) -> ModelSpec:
    """Rescale every mixing matrix by the inverse square root of the mean
    summand covariance so the result satisfies the unit-covariance
    normalization."""
    cov = model.covariance_mean()
    vals, vecs = np.linalg.eigh(cov)
    if vals.min() < tol:
        raise NumericalGuardError(f"mean covariance nearly singular: min eigenvalue {vals.min():.3e}")
    inv_sqrt = (vecs * (1.0 / np.sqrt(vals))) @ vecs.T
    new = tuple(Summand(inv_sqrt @ s.C, s.components) for s in model.summands)
    return ModelSpec(d=model.d, n=model.n, summands=new, iid=model.iid)
