"""Corrector operators and polynomials for the Edgeworth expansion of
scaled sums of independent, non-identically distributed random vectors.

The order-k corrector operator of the paper is

    Gamma_k = sum_{m=1}^{k}  n^{-m}  sum_{r_1 < ... < r_m}  sum_{tuples}
        prod_i (1/l_i!) D^{(l_i)}_{r_i} ((-1)^{l'_i} / (2^{l'_i} l'_i!)) L_{sigma_{r_i}}^{l'_i},

where the ordered tuples (l_i, l'_i) book derivative orders l_i >= 3 and
Laplace powers l'_i >= 0 with sum (l_i + 2 l'_i - 2) = k, D^{(l)}_r is the
moment-gap differential operator of order l of summand r, and L_sigma the
Laplace operator of its covariance.  Give slot (l, l') the grade
l + 2 l' - 2 >= 1.  Each assignment of slots to distinct summands appears
exactly once, so the operators of all orders are the graded parts of one
product of formal series in D,

    1 + Gamma_1 + ... + Gamma_N = prod_r (1 + T_r)    (grades <= N).

Summed over its slots, n T_r = (M_{C_r Y}(D) - M_{C_r G}(D)) / M_{C_r G}(D)
= exp(sum_{|beta|>=3} kappa_beta D^beta / beta!) - 1, with M the moment
generating function of the record C_r Y or of its Gaussian twin C_r G.  So

    T_r = (1/n) sum_{|beta|>=3} h_beta D^beta / beta!,   grade |beta| - 2,

where the h_beta are the record's Hermite moments, the moments of its
cumulant table with the order-2 entries dropped.  Records shared by several
summands enter by their count,

    prod_r (1 + T_r) = exp(sum_records count * log(1 + T_record)),

with log and exp truncated at grade N, so the cost depends on the number of
records, not on n.  Without the log, exp(sum_records count * T_record) is
the classical averaged-cumulant Edgeworth series, whose grades 1..3 are the
explicit order-3 correctors; the two differ from order 2 on, by O(1/n).

Reading each Gamma_k over the Hermite basis and summing n^{-k/2}-weighted
terms yields the corrector polynomial

    1 + sum_{k=1}^{N} n^{-k/2} (Hermite dual of Gamma_k),

whose Gaussian expectation corrects E[f(W)] to match E[f(S_n)] up to
O(n^{-(N+1)/2}).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import JSON_INTEGER, LIST, NUMBER, Field, NumericalGuardError, read_field, read_fields
from .hermite import Polynomial, _add, _evaluate, _nonzero, _product, _scale, gauss_hermite, hermite_value_table
from .multiindex import check_multiindex, pack
from .moments import ModelSpec, Summand, hermite_moments

QUAD_NODES = 40  # Gauss-Hermite nodes per axis of the coarse rule; the fine rule doubles them
QUAD_TOL = 1e-8  # largest coarse-to-fine change the quadrature accepts, relative to 1 + |value|
MIN_EIGENVALUE = 1e-12  # smallest mean-covariance eigenvalue that normalize inverts

# A graded series truncated at grade N is the list of its N + 1 grades, each
# a constant-coefficient operator stored as a term map on packed indices
# (``multiindex.pack``) read in the partial derivatives: the key of beta
# stands for d^beta, so products compose.  The grades are unpacked into
# Polynomials only when _graded_series returns them.

def _series_product(a: list, b: list, d: int) -> list:
    """Product of two graded series, truncated at the last grade of a."""
    out = [{} for _ in a]
    for i, ai in enumerate(a):
        for j in range(len(a) - i):
            if ai and b[j]:
                out[i + j] = _add(out[i + j], _product(ai, b[j], d))
    return out


def _power_series(s: list, coeffs: list, d: int) -> list:
    """sum_j coeffs[j] s^j for a series s without grade 0, truncated at its
    last grade N = len(coeffs) - 1 (s^j starts at grade j)."""
    out = [_nonzero({pack((0,) * d): coeffs[0]})] + [_scale(t, coeffs[1]) for t in s[1:]]
    power = s
    for c in coeffs[2:]:
        power = _series_product(power, s, d)
        out = [_add(o, _scale(p, c)) for o, p in zip(out, power)]
    return out


def _graded_series(model: ModelSpec, N: int, log: bool = True) -> list:
    """Grades 0..N of exp(sum_records count * log(1 + T_record)), whose grade
    k is Gamma_k, or with log=False of exp(sum_records count * T_record).

    Built once per call: the Hermite moments of all records, orders 3..N+2,
    from one cumulant-table call, the packed keys and 1 / (n beta!) weights
    of their indices, and the log's coefficients.  Built per record: its
    series and log series; a record of count 1 enters unscaled."""
    d = model.d
    betas, moments = hermite_moments([rec for rec, _ in model.records], N + 2)
    slots = [(sum(b) - 2, pack(b), model.n * math.prod(map(math.factorial, b))) for b in betas]
    log_coeffs = [0.0] + [(-1.0) ** (j + 1) / j for j in range(1, N + 1)]
    total: list = [{} for _ in range(N + 1)]
    for row, (_, count) in zip(moments, model.records):
        t: list = [{} for _ in range(N + 1)]
        for (grade, key, weight), h in zip(slots, row):
            if h != 0.0:
                t[grade][key] = h / weight
        t = [_nonzero(g) for g in t]
        if log:
            t = _power_series(t, log_coeffs, d)
        total = [_add(a, b if count == 1 else _scale(b, float(count))) for a, b in zip(total, t)]
    series = _power_series(total, [1.0 / math.factorial(j) for j in range(N + 1)], d)
    return [Polynomial._of_packed(d, g) for g in series]


def corrector_operator(model: ModelSpec, k: int, N: int) -> Polynomial:
    """The order-k corrector operator of the model for expansions up to
    order N: grade k of the product of the records' series (cost
    independent of n), as a :class:`Polynomial` read in the partial
    derivatives (the term ``beta: c`` is ``c d^beta``)."""
    if not 1 <= k <= N:
        raise ValueError("need 1 <= k <= N")
    return _graded_series(model, N)[k]


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
        clean = {}
        for b, c in self.terms.items():
            b = check_multiindex(b)
            if len(b) != self.d:
                raise ValueError(f"Hermite index {b} has {len(b)} coordinates, need d = {self.d}")
            if c != 0.0:
                clean[b] = float(c)
        # fixed descending-lexicographic term order: evaluation and
        # serialization are byte-stable regardless of construction order
        ordered = {b: clean[b] for b in sorted(clean, reverse=True)}
        object.__setattr__(self, "terms", ordered)

    def evaluate(self, x) -> np.ndarray | float:
        return _evaluate(self.d, self.terms, hermite_value_table, self.constant, x)

    def to_json(self) -> dict:
        doc = {
            "d": self.d,
            "constant": self.constant,
            "terms": [{"beta": list(b), "coeff": c} for b, c in self.terms.items()],
        }
        if self.n is not None:
            doc["n"] = self.n
        if self.order is not None:
            doc["N"] = self.order
        return doc

    @staticmethod
    def from_json(doc: dict) -> "CorrectorPolynomial":
        """Reads ``to_json``'s document, whose fields are those of
        ``CORRECTOR_FIELDS`` and each term's those of ``TERM_FIELDS``.  This
        is where outside input is checked for integers: ``check_multiindex``
        converts library indices with ``int()``."""
        phi = read_fields(doc, *CORRECTOR_FIELDS, "corrector", "corrector field")
        terms = {t["beta"]: t["coeff"] for t in phi["terms"]}
        return CorrectorPolynomial(d=phi["d"], constant=phi["constant"], terms=terms, n=phi.get("n"),
                                   order=phi.get("N"))

    def to_json_str(self) -> str:
        return json.dumps(self.to_json())


# (required, optional) fields of a corrector document and of each of its
# terms, whose index entries must be JSON integers; n and N may be null
_INDEX = Field(LIST.ok, LIST.what,
               lambda beta: tuple(read_field("beta", JSON_INTEGER, b, "corrector field") for b in beta))
TERM_FIELDS = ({"beta": _INDEX, "coeff": NUMBER}, {})
_TERMS = Field(LIST.ok, LIST.what,
               lambda docs: [read_fields(t, *TERM_FIELDS, "corrector term", "corrector field") for t in docs])
_OPTIONAL_INTEGER = Field(lambda value: value is None or JSON_INTEGER.ok(value), JSON_INTEGER.what)
CORRECTOR_FIELDS = ({"d": JSON_INTEGER, "constant": NUMBER, "terms": _TERMS},
                    {"n": _OPTIONAL_INTEGER, "N": _OPTIONAL_INTEGER})


def corrector_polynomial(model: ModelSpec, N: int) -> CorrectorPolynomial:
    """The order-N corrector polynomial of the model (constant 1 plus
    n^{-k/2}-weighted Hermite duals of the order-k operators, k = 1..N).

    The Hermite dual of a constant-coefficient operator keeps its
    coefficient map (the operator's :class:`Polynomial` terms) and reads
    it over the Hermite basis, so that Gaussian expectations of the
    operator applied to f match expectations of f times the dual
    polynomial."""
    if N < 0:
        raise ValueError("N must be >= 0")
    total = Polynomial(model.d)
    for k, op in enumerate(_graded_series(model, N)[1:], start=1):
        total = total + op.scale(float(model.n) ** (-0.5 * k))
    return CorrectorPolynomial(d=model.d, constant=1.0, terms=total.terms, n=model.n, order=N)


def explicit_order3(model: ModelSpec) -> tuple[CorrectorPolynomial, CorrectorPolynomial, CorrectorPolynomial]:
    """The three explicit order-3 Hermite correctors: grades 1, 2 and 3 of
    the classical averaged-cumulant series exp(sum_records count * T_record),
    the operator series without its log."""
    return tuple(
        CorrectorPolynomial(d=model.d, constant=0.0, terms=op.terms, n=model.n)
        for op in _graded_series(model, 3, log=False)[1:]
    )


def order_discrepancy(model: ModelSpec, k: int, x) -> np.ndarray | float:
    """Pointwise gap between the operator-built Hermite corrector of order
    k and the explicit closed form: identically 0 for k = 1 and O(1/n)
    for k in {2, 3}."""
    if k not in (1, 2, 3):
        raise ValueError("explicit correctors exist for k in {1, 2, 3}")
    explicit = _graded_series(model, k, log=False)[k]
    diff = corrector_operator(model, k, N=k) + explicit.scale(-1.0)
    gap = CorrectorPolynomial(d=model.d, constant=0.0, terms=diff.terms, n=model.n)
    return gap.evaluate(x)


def edgeworth_expectation(f, gamma, phi: CorrectorPolynomial) -> float:
    """Corrected Gaussian expectation E[d_gamma f(W) Phi(W)].

    A :class:`Polynomial` f is exact: by Gaussian integration by parts
    E[g H_beta] = E[d^beta g], so every term reduces to exact Gaussian
    moments of derivatives of f.

    Any other f is a vectorized callable, taken with gamma empty and
    integrated by tensorized Gauss-Hermite for the standard normal weight
    (d <= 3): the rule is evaluated at ``QUAD_NODES`` and twice as many
    points per axis, and the run aborts if the two differ by more than
    ``QUAD_TOL`` (relative to scale 1 + |value|).
    """
    gamma = check_multiindex(gamma)
    d = phi.d
    if len(gamma) != d:
        raise ValueError("derivative index dimension != corrector dimension")

    if isinstance(f, Polynomial):
        g = f.diff(gamma)
        total = phi.constant * g.gaussian_expectation()
        for beta, c in phi.terms.items():
            total += c * g.diff(beta).gaussian_expectation()
        return total

    if d > 3:
        raise ValueError("quadrature supports d <= 3")
    if sum(gamma) != 0:
        raise TypeError("a derivative index needs a Polynomial test function")

    def quad(npts: int) -> float:
        x1, w1 = gauss_hermite(npts)
        grids = np.meshgrid(*([x1] * d), indexing="ij")
        wgrids = np.meshgrid(*([w1] * d), indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=-1)
        w = np.ones(pts.shape[0])
        for wg in wgrids:
            w *= wg.ravel()
        vals = np.asarray(f(pts), dtype=float) * phi.evaluate(pts)
        return float(np.sum(w * vals))

    coarse = quad(QUAD_NODES)
    fine = quad(2 * QUAD_NODES)
    if abs(fine - coarse) > QUAD_TOL * (1.0 + abs(fine)):
        raise NumericalGuardError(
            f"quadrature not converged: {coarse!r} vs {fine!r} at {QUAD_NODES}/{2*QUAD_NODES} nodes"
        )
    return fine


def normalize(model: ModelSpec) -> ModelSpec:
    """Rescale every mixing matrix by the inverse square root of the mean
    summand covariance so the result satisfies the unit-covariance
    normalization; a smallest eigenvalue below ``MIN_EIGENVALUE`` aborts."""
    cov = model.covariance_mean()
    vals, vecs = np.linalg.eigh(cov)
    if vals.min() < MIN_EIGENVALUE:
        raise NumericalGuardError(f"mean covariance nearly singular: min eigenvalue {vals.min():.3e}")
    inv_sqrt = (vecs * (1.0 / np.sqrt(vals))) @ vecs.T
    return ModelSpec(d=model.d, records=tuple(
        (Summand(inv_sqrt @ s.C, s.components), count) for s, count in model.records))
