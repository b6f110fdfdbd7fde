"""Corrector operators and polynomials for the Edgeworth expansion of
scaled sums of independent, non-identically distributed random vectors.

The order-k corrector operator is

    sum_{m=1}^{k}  sum_{tuples}  n^{-m}  sum_{r_1 < ... < r_m}
        prod_i (1/l_i!) D^{(l_i)}_{r_i}
        prod_j ((-1)^{l'_j} / (2^{l'_j} l'_j!)) L_{sigma_{r_j}}^{l'_j}

where the inner tuples (l_i, l'_i) run over all ways to book derivative
orders l_i >= 3 and Laplace powers l'_i >= 0 with sum l_i + 2 sum l'_i =
k + 2m, D^{(l)}_r is the moment-gap differential operator of order l of
summand r, and L_sigma the Laplace operator of its covariance.  Converting
each constant-coefficient operator to its Hermite dual and summing
n^{-k/2}-weighted terms yields the corrector polynomial

    1 + sum_{k=1}^{N} n^{-k/2} (Hermite dual of the order-k operator),

whose Gaussian expectation corrects E[f(W)] to match E[f(S_n)] up to
O(n^{-(N+1)/2}).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import NumericalGuardError
from .hermite import (
    Polynomial,
    expect_poly_times_hermite,
    gauss_hermite,
    hermite_value_table,
)
from .multiindex import check_multiindex, concat, enumerate_multiindices, multinomial_weight, unit
from .moments import ModelSpec, Summand, moment_gap


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


def moment_gap_operator(summand: Summand, l: int) -> DiffOp:
    """Order-l operator whose coefficient at each derivative is the moment
    gap of the summand, with ordered-tuple counts folded in."""
    d = summand.C.shape[0]
    terms = {}
    for beta in enumerate_multiindices(d, l):
        gap = moment_gap(summand.C, summand.components, beta)
        if gap != 0.0:
            terms[beta] = multinomial_weight(beta) * gap
    return DiffOp(d, terms)


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


def _slot_operator(summand: Summand, l: int, lp: int, lap_cache: dict) -> DiffOp:
    op = moment_gap_operator(summand, l).scale(1.0 / math.factorial(l))
    if op.is_zero():
        return op
    if lp > 0:
        key = (id(summand), lp)
        if key not in lap_cache:
            lap = laplace_operator(summand.sigma()).power(lp)
            lap_cache[key] = lap.scale(((-1.0) ** lp) / (2.0 ** lp * math.factorial(lp)))
        op = op.compose(lap_cache[key])
    return op


def corrector_operator(model: ModelSpec, k: int, N: int) -> DiffOp:
    """The order-k corrector operator of the model for expansions up to
    order N, with the increasing-index sums computed by a dynamic program
    over summands."""
    if not 1 <= k <= N:
        raise ValueError("need 1 <= k <= N")
    d = model.d
    total = DiffOp(d)
    lap_cache: dict = {}
    slot_cache: dict = {}

    def slot(rec_key, summand, l, lp):
        key = (rec_key, l, lp)
        if key not in slot_cache:
            slot_cache[key] = _slot_operator(summand, l, lp, lap_cache)
        return slot_cache[key]

    for m in range(1, k + 1):
        for lam in corrector_index_tuples(m, k, N):
            # dp[j] = sum over r_1 < ... < r_j of composed slot operators
            dp = [DiffOp.identity(d)] + [DiffOp(d) for _ in range(m)]
            for r in range(model.n):
                rec = model.summand(r)
                rec_key = 0 if model.iid else r
                ops_r = [slot(rec_key, rec, l, lp) for (l, lp) in lam]
                for j in range(m, 0, -1):
                    if dp[j - 1].is_zero() or ops_r[j - 1].is_zero():
                        continue
                    dp[j] = dp[j] + dp[j - 1].compose(ops_r[j - 1])
            total = total + dp[m].scale(float(model.n) ** (-m))
    return total


def corrector_operator_enumerated(model: ModelSpec, k: int, N: int) -> DiffOp:
    """Brute-force version of :func:`corrector_operator` (explicit
    enumeration of increasing index tuples); test oracle for small n."""
    if not 1 <= k <= N:
        raise ValueError("need 1 <= k <= N")
    d = model.d
    total = DiffOp(d)
    lap_cache: dict = {}
    for m in range(1, k + 1):
        for lam in corrector_index_tuples(m, k, N):
            for rs in combinations(range(model.n), m):
                op = DiffOp.identity(d)
                for (l, lp), r in zip(lam, rs):
                    op = op.compose(_slot_operator(model.summand(r), l, lp, lap_cache))
                    if op.is_zero():
                        break
                total = total + op.scale(float(model.n) ** (-m))
    return total


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
    terms: dict = {}
    for k in range(1, N + 1):
        w = float(model.n) ** (-0.5 * k)
        for b, c in corrector_operator(model, k, N).terms.items():
            terms[b] = terms.get(b, 0.0) + w * c
    return CorrectorPolynomial(d=model.d, constant=1.0, terms=terms, n=model.n, order=N)


def _ordered_gap_sums(model: ModelSpec, l: int) -> dict:
    """Average moment gap per multiplicity vector of order l, with the
    ordered-tuple count folded in."""
    out = {}
    for beta in enumerate_multiindices(model.d, l):
        total = 0.0
        for rec, idxs in model.unique_summands():
            total += moment_gap(rec.C, rec.components, beta) * len(idxs)
        val = multinomial_weight(beta) * total / model.n
        if val != 0.0:
            out[beta] = val
    return out


def _weighted_gap_sums(model: ModelSpec, l: int) -> dict:
    """Covariance-weighted average gaps: map (beta, i, j) -> value, ordered
    count folded into beta only (the (i, j) sum is already ordered)."""
    out = {}
    for beta in enumerate_multiindices(model.d, l):
        w = multinomial_weight(beta)
        totals = np.zeros((model.d, model.d))
        for rec, idxs in model.unique_summands():
            gap = moment_gap(rec.C, rec.components, beta)
            if gap != 0.0:
                totals += gap * rec.sigma() * len(idxs)
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
    c3 = _ordered_gap_sums(model, 3)
    c4 = _ordered_gap_sums(model, 4)
    c5 = _ordered_gap_sums(model, 5)
    cbar3 = _weighted_gap_sums(model, 3)

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
    recs = model.unique_summands()
    gaps = {
        b: [moment_gap(rec.C, rec.components, b) for rec, _ in recs] for b in betas3
    }
    counts = [len(idxs) for _, idxs in recs]
    for b1 in betas3:
        w1 = multinomial_weight(b1)
        for b2 in betas3:
            w2 = multinomial_weight(b2)
            total = sum(g1 * g2 * c for g1, g2, c in zip(gaps[b1], gaps[b2], counts))
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
