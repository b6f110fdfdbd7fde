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

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import JSON_INTEGER, LIST, NUMBER, Field, NumericalGuardError, read_field, read_fields
from .hermite import (MAX_DEGREE, Polynomial, _add, _evaluate, _nonzero, _product, _scale, _unpacked, gauss_hermite,
                      gaussian_moment, hermite_value_table)
from .multiindex import check_multiindex, pack
from .moments import ModelSpec, Summand, _blocks, _plan, hermite_moments

QUAD_NODES = 40  # Gauss-Hermite nodes per axis of the coarse rule; the fine rule doubles them
QUAD_TOL = 1e-8  # largest coarse-to-fine change the quadrature accepts, relative to 1 + |value|
MIN_EIGENVALUE = 1e-12  # smallest mean-covariance eigenvalue that normalize inverts

# A graded series truncated at grade N is the list of its N + 1 grades, each
# a constant-coefficient operator stored as a term map on packed indices
# (``multiindex.pack``) read in the partial derivatives: the key of beta
# stands for d^beta, so products compose.  The grades are unpacked only
# where they leave the series: into Polynomials by _graded_series, into a
# corrector's sorted terms by _descending.

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


PLAN_CACHE = 256  # compiled record-series plans kept: one per (d, N, log, zero pattern)
PLAN_BLOCK = 1 << 16  # values a record-series plan holds at once, over a block of records


@lru_cache(maxsize=None)
def _slots(d: int, N: int) -> tuple:
    """(grade |beta| - 2, packed key, beta!) of each index of the Hermite
    moments of orders 3 to N + 2, in their order."""
    return tuple((sum(b) - 2, pack(b), math.prod(map(math.factorial, b))) for b in _plan(d, N + 2, 3).table)


def _log_coeffs(N: int) -> list:
    return [0.0] + [(-1.0) ** (j + 1) / j for j in range(1, N + 1)]


def _record_series(row: list, n: int, d: int, N: int, log: bool) -> list:
    """One record's series T = sum h_beta D^beta / (n beta!) from its row of
    Hermite moments, or with log its log series log(1 + T), by the dict
    loops."""
    t: list = [{} for _ in range(N + 1)]
    for (grade, key, factorial), h in zip(_slots(d, N), row):
        if h != 0.0:
            t[grade][key] = h / (n * factorial)
    t = [_nonzero(g) for g in t]
    return _power_series(t, _log_coeffs(N), d) if log else t


def _loop_total(series: list, counts: list, N: int) -> list:
    """sum over records of count * series, by the dict loops in record order."""
    total: list = [{} for _ in range(N + 1)]
    for t, count in zip(series, counts):
        total = [_add(a, b if count == 1 else _scale(b, float(count))) for a, b in zip(total, t)]
    return total


def _grades(keys, values, N: int) -> list:
    """The graded series whose coefficient at (grade, key) of ``keys`` is
    the value at its position, zeros left out."""
    series: list = [{} for _ in range(N + 1)]
    for (grade, key), c in zip(keys, values):
        series[grade][key] = c
    return [_nonzero(g) for g in series]


class _Trace:
    """The dict loops of a record's series run on traced coefficients.  It
    numbers the rows of a plan's values as they appear: the constants (0.0
    first, then 1.0), the inputs, then each sum of products of earlier rows
    once something reads it, with its level, 1 + its operands' highest."""

    def __init__(self, constants: list):
        self.constants = {c: r for r, c in enumerate(constants)}
        self.levels = [0] * len(constants)
        self.terms: list = [None] * len(constants)  # a sum's pairs of rows

    def _new(self, level: int, terms=None) -> int:
        self.levels.append(level)
        self.terms.append(terms)
        return len(self.levels) - 1

    def input(self) -> "_Traced":
        return _Traced(self, None, self._new(0))

    def row(self, c: "_Traced") -> int:
        if c.row is None:
            c.row = self._new(1 + max(self.levels[r] for pair in c.terms for r in pair), c.terms)
        return c.row


class _Pair:
    """c1 * c2 in ``_product``, on two traced coefficients' rows."""

    __slots__ = ("trace", "rows")

    def __init__(self, trace: _Trace, rows: tuple):
        self.trace, self.rows = trace, rows

    def __radd__(self, zero: float) -> "_Traced":  # 0.0 + c1 * c2: a key's first pair
        return _Traced(self.trace, [self.rows])


class _Traced:
    """A coefficient of the series dict loops, traced instead of computed:
    the sum from 0.0, in order, of the products of its ``terms``, pairs of
    rows, or the value of its ``row`` once something reads it.  It never
    equals 0.0, so the loops keep every key; a record on which a row is 0.0
    leaves the plan for the loops."""

    __slots__ = ("trace", "terms", "row")

    def __init__(self, trace: _Trace, terms, row=None):
        self.trace, self.terms, self.row = trace, terms, row

    __hash__ = object.__hash__

    def __eq__(self, other):
        return False

    def __ne__(self, other):
        return True

    def __mul__(self, other: "_Traced") -> _Pair:  # c1 * c2 in _product
        return _Pair(self.trace, (self.trace.row(self), self.trace.row(other)))

    def __rmul__(self, s: float) -> "_Traced":  # s * c in _scale; 1.0 * c is c, bit for bit
        return self if s == 1.0 else _Traced(self.trace, [(self.trace.constants[s], self.trace.row(self))])

    def __radd__(self, zero: float) -> "_Traced":  # 0.0 + c in _add, a new key: c, as c != 0.0
        return self

    def __add__(self, other):
        if isinstance(other, _Pair):  # a key's next pair in _product
            self.terms.append(other.rows)
            return self
        # a + c in _add.  a is read, so it gets a row.  A one-term c enters
        # as its term: where that term is +-0.0 the loops drop c and keep a,
        # and a + (+-0.0) is a
        trace, one = self.trace, self.trace.constants[1.0]
        last = other.terms[0] if other.row is None and len(other.terms) == 1 else (one, trace.row(other))
        return _Traced(trace, [(one, trace.row(self)), last])


@dataclass(frozen=True, eq=False)
class _SeriesPlan:
    """The dict loops of a record's series, for the records whose Hermite
    moments are nonzero on the same slots, compiled to rows of values: the
    ``constants`` first (row 0 is 0.0), then the nonzero moments over their
    weights, at the slots ``inputs``, then ``groups`` of rows (start, stop),
    each row the sum from 0.0 over its column of the (2, terms, rows)
    ``pairs`` of products of rows of lower levels, padded with 0.0 * 0.0.
    ``outputs`` are the rows of the series' coefficients, at (grade, key)
    ``keys``, in the loops' order."""

    constants: np.ndarray
    inputs: np.ndarray
    groups: tuple
    outputs: np.ndarray
    keys: tuple
    size: int
    width: int


@lru_cache(maxsize=PLAN_CACHE)
def _series_plan(d: int, N: int, log: bool, pattern: bytes) -> _SeriesPlan:
    """Traces :func:`_record_series` for the zero pattern (the bytes of
    the bools h != 0.0 over the slots) and compiles it."""
    constants = [0.0, 1.0] + _log_coeffs(N)[2:]
    trace = _Trace(constants)
    t: list = [{} for _ in range(N + 1)]
    inputs = []
    for s, ((grade, key, _), live) in enumerate(zip(_slots(d, N), pattern)):
        if live:
            t[grade][key] = trace.input()
            inputs.append(s)
    series = _power_series(t, _log_coeffs(N), d) if log else t
    outputs = [(grade, key, trace.row(c)) for grade, g in enumerate(series) for key, c in g.items()]
    # rows by level and, within a level, by the bit length of their term
    # count, so that each group of sums is one slice of the values and is
    # padded to less than twice its terms
    group_of = lambda r: (trace.levels[r], 0 if trace.terms[r] is None else len(trace.terms[r]).bit_length())
    order = sorted(range(len(trace.levels)), key=lambda r: (group_of(r), r))
    at = np.empty(len(order), dtype=np.intp)
    at[order] = np.arange(len(order))
    groups = []
    for _, group in itertools.groupby(order[len(constants) + len(inputs):], key=group_of):
        group = list(group)
        pairs = np.zeros((2, max(len(trace.terms[r]) for r in group), len(group)), dtype=np.intp)
        for j, r in enumerate(group):
            pairs[:, :len(trace.terms[r]), j] = at[np.array(trace.terms[r]).T]
        groups.append((int(at[group[0]]), int(at[group[-1]]) + 1, pairs))
    return _SeriesPlan(np.array(constants), np.array(inputs, dtype=np.intp), tuple(groups),
                       at[[r for _, _, r in outputs]], tuple((g, k) for g, k, _ in outputs), len(order),
                       max([len(order)] + [pairs.size for _, _, pairs in groups]))


def _run_plan(plan: _SeriesPlan, moments_t: np.ndarray, weights: np.ndarray, rows: np.ndarray) -> tuple:
    """The plan's outputs (len(keys), len(rows)) on the records ``rows``,
    in blocks of two or more records (about ``PLAN_BLOCK`` values a block),
    and whether each record's rows are all nonzero.  ``np.add.reduce`` sums
    the outer terms axis as a running sum from ``initial``: numpy sums
    pairwise only along the contiguous axis, which holds the block's
    records.  A sum from +0.0 is never -0.0, so padding adds nothing."""
    x = moments_t[plan.inputs][:, rows] / weights[plan.inputs, None]
    first = len(plan.constants)
    values = np.empty((len(plan.outputs), len(rows)))
    good = np.empty(len(rows), dtype=bool)
    for start, stop in _blocks(len(rows), max(2, PLAN_BLOCK // plan.width)):
        v = np.empty((plan.size, stop - start))
        v[:first] = plan.constants[:, None]
        v[first:first + len(plan.inputs)] = x[:, start:stop]
        for lo, hi, pairs in plan.groups:
            p = v[pairs]
            np.multiply(p[0], p[1], out=p[0])
            np.add.reduce(p[0], axis=0, initial=0.0, out=v[lo:hi])
        good[start:stop] = (v[first:] != 0.0).all(axis=0)
        values[:, start:stop] = v[plan.outputs]
    return values, good


def _batched_total(moments: np.ndarray, counts: list, n: int, d: int, N: int, log: bool) -> list:
    """:func:`_loop_total` of the records' series, bit for bit and in the
    loops' key order.  Records are grouped by zero pattern; a group of two
    or more runs its compiled plan, and a lone record, or a record on which
    the plan meets a 0.0 that the loops would drop, runs the loops.  The
    running total is one ``np.add.accumulate`` over the records of a (1 +
    records, keys) table in first-appearance key order: row 0 is the
    start 0.0, and a record without a key adds -0.0, which changes no bit.
    A total that reaches 0.0 before the last record, which the loops drop
    and may add back at the end of the key order, sends the model to the
    loops."""
    groups: dict = {}
    for r, pattern in enumerate(np.ascontiguousarray(moments != 0.0)):
        groups.setdefault(pattern.tobytes(), []).append(r)
    moments_t = moments.T
    weights = np.array([float(n * f) for _, _, f in _slots(d, N)])
    parts = []  # (records, their (grade, key)s, values (keys, records))
    for pattern, rows in groups.items():
        if not any(pattern):
            continue  # no Hermite moments: the record's series is 0
        rows = np.array(rows)
        if len(rows) > 1:
            plan = _series_plan(d, N, log, pattern)
            values, good = _run_plan(plan, moments_t, weights, rows)
            if good.any():
                parts.append((rows[good], plan.keys, values[:, good]))
            rows = rows[~good]
        for r in rows.tolist():
            t = _record_series(moments[r].tolist(), n, d, N, log)
            parts.append((np.array([r]), [(g, k) for g, grade in enumerate(t) for k in grade],
                          np.array([c for grade in t for c in grade.values()]).reshape(-1, 1)))
    parts.sort(key=lambda part: part[0][0])
    columns = dict(zip(dict.fromkeys(itertools.chain.from_iterable(keys for _, keys, _ in parts)), itertools.count()))
    scale = np.array(counts, dtype=float)
    table = np.full((len(counts) + 1, len(columns)), -0.0)
    table[0] = 0.0
    for rows, keys, values in parts:
        table[rows[:, None] + 1, list(map(columns.__getitem__, keys))] = (values * scale[rows]).T
    running = np.add.accumulate(table, axis=0)
    if ((table[1:-1] != 0.0) & (running[1:-1] == 0.0)).any():
        series = sorted((r, _grades(keys, column, N))
                        for rows, keys, values in parts for r, column in zip(rows.tolist(), values.T.tolist()))
        return _loop_total([t for _, t in series], [counts[r] for r, _ in series], N)
    return _grades(columns, running[-1].tolist(), N)


def _packed_series(model: ModelSpec, N: int, log: bool = True) -> list:
    """Grades 0..N of exp(sum_records count * log(1 + T_record)), whose grade
    k is Gamma_k, or with log=False of exp(sum_records count * T_record), as
    term maps on packed keys.

    Built once per call: the Hermite moments of all records, orders 3..N+2,
    from one cumulant-table call.  The sum over records is
    :func:`_batched_total`, or for one record the dict loops; a record of
    count 1 enters unscaled.  The exp series runs the dict loops."""
    if N + 2 > MAX_DEGREE:
        raise ValueError(f"corrector order N = {N} is above its cap of {MAX_DEGREE - 2}"
                         f" (moments of order N + 2 <= {MAX_DEGREE})")
    d = model.d
    _, moments = hermite_moments([rec for rec, _ in model.records], N + 2)
    counts = [count for _, count in model.records]
    if len(counts) > 1 and moments.size:
        total = _batched_total(moments, counts, model.n, d, N, log)
    else:
        total = _loop_total([_record_series(row, model.n, d, N, log) for row in moments.tolist()], counts, N)
    return _power_series(total, [1.0 / math.factorial(j) for j in range(N + 1)], d)


def _graded_series(model: ModelSpec, N: int, log: bool = True) -> list:
    """:func:`_packed_series` as Polynomials."""
    return [Polynomial._of_packed(model.d, g) for g in _packed_series(model, N, log)]


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
    total: dict = {}
    for k, op in enumerate(_packed_series(model, N)[1:], start=1):
        total = _add(total, _scale(op, float(model.n) ** (-0.5 * k)))
    return CorrectorPolynomial._of(model.d, 1.0, _descending(total, model.d), model.n, N)


def _descending(terms: dict, d: int) -> dict:
    """A term map on packed keys as tuple-keyed terms in descending order:
    the first coordinate is packed highest, so the packed keys sort as the
    tuples do."""
    return {_unpacked(k, d): terms[k] for k in sorted(terms, reverse=True)}


def explicit_order3(model: ModelSpec) -> tuple[CorrectorPolynomial, CorrectorPolynomial, CorrectorPolynomial]:
    """The three explicit order-3 Hermite correctors: grades 1, 2 and 3 of
    the classical averaged-cumulant series exp(sum_records count * T_record),
    the operator series without its log."""
    return tuple(CorrectorPolynomial._of(model.d, 0.0, _descending(op, model.d), model.n)
                 for op in _packed_series(model, 3, log=False)[1:])


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
