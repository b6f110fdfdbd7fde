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

One block algebra builds the series on flat float64 rows.  In a record's
series s = T_r every factor adds its grade plus 2 to the degree, so the
grade-k part of s^j has degree exactly k + 2j.  A row holds the constant,
then levels j = 1..N, level j the blocks of grades k = j..N, each block the
beta of order k + 2j in descending lexicographic order; s^j fills level j
alone, and log(1 + s) = sum_j c_j s^j scales s^j level by level, with no
additions between powers.  Each product is one gather, one multiply and
one np.bincount over a slice of one pair table cached per (d, N), whose
pairs run by (left level, right level, left grade, right grade, left beta,
right beta); bincount adds each position's pairs in that order, and the
records add in record order through an outer-axis np.add.reduce.  No BLAS
call and no sum along a contiguous axis enters a coefficient, so the order
is fixed and the same on every SIMD target.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import JSON_INTEGER, LIST, NUMBER, Field, NumericalGuardError, read_field, read_fields
from .hermite import MAX_DEGREE, Polynomial, _evaluate, gauss_hermite, gaussian_moment, hermite_value_table
from .multiindex import check_multiindex, enumerate_multiindices
from .moments import TABLE_BLOCK, ModelSpec, Summand, _blocks, hermite_moments

QUAD_NODES = 40  # Gauss-Hermite nodes per axis of the coarse rule; the fine rule doubles them
QUAD_TOL = 1e-8  # largest coarse-to-fine change the quadrature accepts, relative to 1 + |value|
MIN_EIGENVALUE = 1e-12  # smallest mean-covariance eigenvalue that normalize inverts


@dataclass(frozen=True, eq=False)
class _Layout:
    """The positions of the graded series of order N in dimension d: the
    ``keys`` (beta) and ``grades`` of each, the beta! of level 1, which
    starts at position 1, and the log coefficient c_j of each level j.
    ``powers[j]`` is the pair table's slice of (left, right, product)
    positions for s^j = s^{j-1} s, the pairs of a left factor on level
    j - 1 and a right one on level 1, and ``exp_powers[m]`` its slice for
    L^m = L^{m-1} L, the pairs of a left factor on a level >= m - 1.
    ``grade_positions[k]`` lists the positions of grade k in descending
    order of their beta, and ``targets`` places each position from 1 on
    at its beta in ``descending``, every beta of the layout in descending
    order."""

    keys: list
    grades: np.ndarray
    factorials: list
    log_row: np.ndarray
    powers: list
    exp_powers: list
    width: int
    grade_positions: list
    descending: list
    targets: np.ndarray


def _ranks(betas: np.ndarray) -> np.ndarray:
    """Position of each beta (last axis) in ``enumerate_multiindices`` of
    its order: the number of indices of the same order above it in
    descending lexicographic order, sum over i < d - 1 of C(a_i + d - i -
    2, d - i - 1), with a_i the order left after coordinate i."""
    d = betas.shape[-1]
    after = betas.sum(axis=-1, keepdims=True) - np.cumsum(betas[..., :-1], axis=-1)
    i = np.arange(d - 1)
    comb = np.array([[math.comb(x, y) for y in range(d)] for x in range(int(after.max(initial=0)) + d)],
                    dtype=np.intp)
    return comb[after + d - 2 - i, d - 1 - i].sum(axis=-1)


@lru_cache(maxsize=None)
def _layout(d: int, N: int) -> _Layout:
    """The layout of order N in dimension d.  Its one pair table runs by
    (left level, right level, left grade, right grade, left beta, right
    beta), and is built one (left block, right block) pair at a time by
    broadcasting index sums."""
    blocks = {(j, k): np.array(enumerate_multiindices(d, k + 2 * j)) for j in range(1, N + 1) for k in range(j, N + 1)}
    at, size = {}, 1
    for key, betas in blocks.items():
        at[key], size = size, size + len(betas)
    keys = [(0,) * d] + [beta for betas in blocks.values() for beta in map(tuple, betas.tolist())]
    grades = np.array([0] + [k for (_, k), betas in blocks.items() for _ in betas])
    log_row = np.array([0.0] + [(-1.0) ** (j + 1) / j for (j, _), betas in blocks.items() for _ in betas])
    pieces, starts, firsts, count = [], [], [], 0
    for j1 in range(1, N + 1):
        starts.append(count)
        firsts.append(count)
        for j2 in range(1, N + 1 - j1):
            for k1 in range(j1, N + 1 - j2):
                for k2 in range(j2, N + 1 - k1):
                    left, right = blocks[j1, k1], blocks[j2, k2]
                    shape = (len(left), len(right))
                    pieces.append(np.stack([np.broadcast_to(at[j1, k1] + np.arange(shape[0])[:, None], shape),
                                            np.broadcast_to(at[j2, k2] + np.arange(shape[1]), shape),
                                            at[j1 + j2, k1 + k2] + _ranks(left[:, None] + right)]).reshape(3, -1))
                    count += pieces[-1].shape[1]
            if j2 == 1:
                firsts[-1] = count
    pairs = np.concatenate(pieces, axis=1) if pieces else np.zeros((3, 0), dtype=np.intp)
    powers = [None, None] + [pairs[:, starts[j - 2]:firsts[j - 2]] for j in range(2, N + 1)]
    descending = sorted(set(keys[1:]), reverse=True)
    target = {beta: t for t, beta in enumerate(descending)}
    by_key = sorted(range(size), key=keys.__getitem__, reverse=True)
    return _Layout(keys, grades, [math.prod(map(math.factorial, b)) for k in range(1, N + 1) for b in blocks[1, k].tolist()],
                   log_row, powers, [None, None] + [pairs[:, starts[m - 2]:] for m in range(2, N + 1)],
                   max([size] + [p.shape[1] for p in powers[2:]]),
                   [[p for p in by_key if grades[p] == k] for k in range(N + 1)], descending,
                   np.array([target[beta] for beta in keys[1:]], dtype=np.intp))


def _product(a: np.ndarray, b: np.ndarray, pairs: np.ndarray, width: int) -> np.ndarray:
    """Rows (one per record) of the products of the rows of a and b on the
    ``pairs``, ``width`` positions a row: each position the sum from 0.0 of
    its pairs' products in table order."""
    left, right, out = pairs
    terms = a[:, left] * b[:, right]
    if len(a) > 1:
        out = (out + width * np.arange(len(a))[:, None]).ravel()
    return np.bincount(out, terms.ravel(), len(a) * width).reshape(len(a), width)


def _series(model: ModelSpec, N: int, log: bool = True) -> tuple:
    """The layout and the row of exp(sum_records count * log(1 + T_record)),
    whose grade k is Gamma_k, or with log=False of exp(sum_records count *
    T_record).

    The Hermite moments of all records, orders 3..N+2, come from one
    cumulant-table call, over h_beta / (n beta!) they fill level 1, and
    each record's powers s^j = s^{j-1} s fill the other levels, over blocks
    of records (about ``TABLE_BLOCK`` values a block).  The exp series adds
    the powers L^m / m!, L^m = L^{m-1} L, to 1 + L in order of m."""
    if N + 2 > MAX_DEGREE:
        raise ValueError(f"corrector order N = {N} is above its cap of {MAX_DEGREE - 2}"
                         f" (moments of order N + 2 <= {MAX_DEGREE})")
    layout = _layout(model.d, N)
    size, first = len(layout.keys), 1 + len(layout.factorials)
    total = np.zeros(size)
    if N:
        _, moments = hermite_moments([rec for rec, _ in model.records], N + 2)
        weights = np.array([float(model.n * f) for f in layout.factorials])
        counts = np.array([float(count) for _, count in model.records])
        for start, stop in _blocks(len(counts), max(1, TABLE_BLOCK // layout.width)):
            s = np.zeros((stop - start, size))
            s[:, 1:first] = moments[start:stop] / weights
            for j in range(2, N + 1 if log else 2):
                s += _product(s, s, layout.powers[j], size)
            # row 0 the running total, so the records add in record order
            rows = np.empty((stop - start + 1, size))
            rows[0] = total
            np.multiply(s * layout.log_row if log else s, counts[start:stop, None], out=rows[1:])
            total = np.add.reduce(rows, axis=0)
    series, power = total.copy(), total
    series[0] = 1.0
    for m in range(2, N + 1):
        power = _product(power[None], total[None], layout.exp_powers[m], size)[0]
        series += power * (1.0 / math.factorial(m))
    return layout, series


def _graded_series(model: ModelSpec, N: int, log: bool = True) -> list:
    """Grades 0..N of :func:`_series` as Polynomials read in the partial
    derivatives."""
    layout, series = _series(model, N, log)
    values = series.tolist()
    return [Polynomial._of(model.d, {layout.keys[p]: values[p] for p in positions})
            for positions in layout.grade_positions]


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

    @classmethod
    def _of(cls, d: int, constant: float, terms: dict, n: int | None = None,
            order: int | None = None) -> "CorrectorPolynomial":
        """Unchecked constructor for the library's own terms: canonical
        indices of dimension d, nonzero float coefficients, keys already in
        descending order."""
        phi = object.__new__(cls)
        phi.__dict__.update(d=d, constant=constant, terms=terms, n=n, order=order)
        return phi

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
        ``CORRECTOR_FIELDS`` and each term's those of ``TERM_FIELDS``, so a
        field of the wrong type is named as a corrector field; the
        constructor then checks each index with ``check_multiindex``, which
        takes integer entries only."""
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
    layout, series = _series(model, N)
    scale = np.array([float(model.n) ** (-0.5 * k) for k in range(N + 1)])
    values = np.bincount(layout.targets, series[1:] * scale[layout.grades[1:]], len(layout.descending)).tolist()
    return CorrectorPolynomial._of(model.d, 1.0, {b: c for b, c in zip(layout.descending, values) if c != 0.0},
                                   model.n, N)


def explicit_order3(model: ModelSpec) -> tuple[CorrectorPolynomial, CorrectorPolynomial, CorrectorPolynomial]:
    """The three explicit order-3 Hermite correctors: grades 1, 2 and 3 of
    the classical averaged-cumulant series exp(sum_records count * T_record),
    the operator series without its log."""
    return tuple(CorrectorPolynomial._of(model.d, 0.0, g.terms, model.n) for g in _graded_series(model, 3, False)[1:])


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


MOMENT_CACHE = 1 << 12  # Gaussian moments E[W^alpha] kept, by index


_moment = lru_cache(maxsize=MOMENT_CACHE)(gaussian_moment)


def _pairing(g: dict, total: float, phi: dict) -> float:
    """``total`` plus, for each term beta: c of ``phi`` in order, c times
    E[d^beta g(W)] for the term map ``g`` (canonical, nonzero), with the
    floats of ``g.diff(beta).gaussian_expectation()``: the sum from 0.0
    over the alpha >= beta in g's order of g_alpha times the falling
    factorials, coordinate by coordinate with j ascending, times the
    Gaussian moment of alpha - beta.  Each alpha - beta is distinct, so a
    coefficient of the derivative is its one product, and a product is
    never 0.0, as each factor alpha_i - j is at least 1.

    The alpha >= beta are those that list beta in their down-sets.  A beta
    that no alpha reaches pairs with the empty derivative, whose
    expectation is 0.0; c * 0.0 changes ``total`` only where total is
    +-0.0 or c is not finite, so only there it is added."""
    reach: dict = {}  # beta -> the (alpha, g_alpha) above it, in g's order
    for alpha, a in g.items():
        for beta in itertools.product(*[range(x + 1) for x in alpha]):
            reach.setdefault(beta, []).append((alpha, a))
    for beta, c in phi.items():
        terms = reach.get(beta)
        if terms is None:
            if total == 0.0 or not math.isfinite(c):
                total += c * 0.0
            continue
        inner = 0.0
        for alpha, coeff in terms:
            for x, b in zip(alpha, beta):
                for j in range(b):
                    coeff *= x - j
            inner += coeff * _moment(tuple([x - b for x, b in zip(alpha, beta)]))
        total += c * inner
    return total


def edgeworth_expectation(f, gamma, phi: CorrectorPolynomial) -> float:
    """Corrected Gaussian expectation E[d_gamma f(W) Phi(W)].

    A :class:`Polynomial` f is exact: by Gaussian integration by parts
    E[g H_beta] = E[d^beta g], so with g = d_gamma f the value is one
    contraction of the two term maps,

        constant E[g(W)] + sum_beta c_beta sum_{alpha >= beta} g_alpha (alpha)_beta E[W^(alpha - beta)],

    (alpha)_beta the falling factorials, in the order of the loops of
    ``g.diff(beta).gaussian_expectation()`` per beta (see
    :func:`_pairing`).

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
        return _pairing(g.terms, phi.constant * g.gaussian_expectation(), phi.terms)

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
