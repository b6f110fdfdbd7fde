"""Distribution catalog with exact raw moments, model specification for
scaled sums of independent non-identically distributed vectors as counted
summand records (a law and how many summands share it), and the cumulant
tables of all records of a call in one numpy pass per block of records,
from which one moment recursion gives the records' Hermite moments, over
blocks of records at once, and the exact moments of the scaled sum.

All catalog entries are constrained to mean 0 and variance 1; correlation
between the coordinates of one summand is expressed through its mixing
matrix, never inside the component law.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import BOOLEAN, JSON_INTEGER, LIST, NUMBER, STRING, Field, check_object, read_fields
from .hermite import MAX_DEGREE, gaussian_moment_1d
from .multiindex import check_multiindex, enumerate_multiindices

SQRT3 = math.sqrt(3.0)
TABLE_BLOCK = 1 << 16  # gathered factors per block of records in cumulant_tables


def _normal_raw_moment(mu: float, sigma: float, k: int) -> float:
    total = 0.0
    for j in range(0, k + 1, 2):
        total += math.comb(k, j) * (sigma ** j) * gaussian_moment_1d(j) * (mu ** (k - j))
    return total


def _two_point_sum(count, rng, size, p, a, b):
    k = rng.binomial(count, p, size)
    return a * k - b * (count - k)


def _normal_pdf(x, mu: float, sigma: float):
    return np.exp(-0.5 * ((x - mu) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))


def _normal_icdf(u):
    from scipy.special import ndtri  # here, not at the top: scipy.special is slow to import
    return ndtri(u)


def _mixture_sample(rng, size, w, mu1, s1, mu2, s2):
    pick = rng.random(size=size) < w
    z = rng.standard_normal(size=size)
    return np.where(pick, mu1 + s1 * z, mu2 + s2 * z)


def _mixture_check(w, mu1, s1, mu2, s2):
    if not (0.0 <= w <= 1.0 and s1 > 0.0 and s2 > 0.0):
        raise ValueError(f"mixture needs 0 <= w <= 1 and sigma1, sigma2 > 0; got w {w}, sigmas {s1}, {s2}")


def _mixture_sum(count, rng, size, w, mu1, s1, mu2, s2):
    k = rng.binomial(count, w, size)
    z = rng.standard_normal(size)
    return k * mu1 + (count - k) * mu2 + np.sqrt(k * (s1 * s1) + (count - k) * (s2 * s2)) * z


@dataclass(frozen=True)
class _Law:
    """One kind's row of the catalog ``_LAWS``.  Each closed form takes the
    law's parameters last: ``moment(k, *p)`` = E[Y^k] for k >= 1,
    ``sample(rng, size, *p)``, ``density(x, *p)`` and ``icdf(u, *p)`` on
    floats, and ``fold_sum(c, rng, size, *p)``, draws of the sum of c iid
    copies exact in law.  The last three are None where the kind has no
    closed form.  ``check(*p)`` raises a ValueError for parameters outside
    the kind's domain, beyond the mean 0 and variance 1 that every kind
    needs."""

    params: tuple
    moment: Callable
    sample: Callable
    density: Callable | None = None
    icdf: Callable | None = None
    fold_sum: Callable | None = None
    check: Callable = lambda *p: None


_LAWS = {
    "rademacher": _Law(
        (), lambda k: 1.0 if k % 2 == 0 else 0.0,
        lambda rng, size: rng.integers(0, 2, size=size).astype(float) * 2.0 - 1.0,
        icdf=lambda u: np.array([1.0, -1.0]).take((u < 0.5).view(np.uint8)),
        fold_sum=lambda count, rng, size: 2.0 * rng.binomial(count, 0.5, size) - count),
    # (1/(2 sqrt 3)) int_{-s3}^{s3} x^k dx = 3^{k/2}/(k+1) for even k
    "uniform_centered": _Law(
        (), lambda k: (SQRT3 ** k) / (k + 1) if k % 2 == 0 else 0.0,
        lambda rng, size: rng.uniform(-SQRT3, SQRT3, size=size),
        density=lambda x: np.where(np.abs(x) <= SQRT3, 1.0 / (2.0 * SQRT3), 0.0),
        icdf=lambda u: (2.0 * u - 1.0) * SQRT3),
    "two_point": _Law(
        ("p", "a", "b"), lambda k, p, a, b: p * a ** k + (1.0 - p) * (-b) ** k,
        lambda rng, size, p, a, b: np.where(rng.random(size=size) < p, a, -b),
        icdf=lambda u, p, a, b: np.array([a, -b]).take((u < 1.0 - p).view(np.uint8)),
        fold_sum=_two_point_sum),
    "gaussian_mixture": _Law(
        ("w", "mu1", "sigma1", "mu2", "sigma2"),
        lambda k, w, mu1, s1, mu2, s2: w * _normal_raw_moment(mu1, s1, k) + (1.0 - w) * _normal_raw_moment(mu2, s2, k),
        _mixture_sample, fold_sum=_mixture_sum, check=_mixture_check,
        density=lambda x, w, mu1, s1, mu2, s2: w * _normal_pdf(x, mu1, s1) + (1.0 - w) * _normal_pdf(x, mu2, s2)),
    "standard_normal": _Law(
        (), lambda k: gaussian_moment_1d(k), lambda rng, size: rng.standard_normal(size=size),
        density=lambda x: np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi), icdf=_normal_icdf,
        fold_sum=lambda count, rng, size: math.sqrt(count) * rng.standard_normal(size)),
}


@dataclass(frozen=True)
class ComponentDistribution:
    """One scalar component law from the closed catalog (mean 0, variance 1)."""

    kind: str
    params: tuple = ()

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _LAWS:
            raise ValueError(f"unknown component kind {self.kind!r}")
        if len(self.params) != len(_LAWS[self.kind].params):
            raise ValueError(f"{self.kind} takes parameters {_LAWS[self.kind].params}, got {self.params}")
        _LAWS[self.kind].check(*self.params)
        m1 = raw_moment(self, 1)
        m2 = raw_moment(self, 2)
        # written so that a NaN or infinite moment fails it
        if not (abs(m1) <= 1e-12 and abs(m2 - 1.0) <= 1e-12):
            raise ValueError(f"{self.kind}{self.params}: mean {m1}, variance {m2}; need (0, 1)")

    def to_json(self) -> dict:
        return {"kind": self.kind} | dict(zip(_LAWS[self.kind].params, self.params))

    @staticmethod
    def from_json(doc: dict) -> "ComponentDistribution":
        """Reads :meth:`to_json` documents: a JSON object of ``kind`` plus
        exactly the parameters of that kind, each a number."""
        check_object(doc, "component")
        kind = doc.get("kind")
        if not isinstance(kind, str) or kind not in _LAWS:
            raise ValueError(f"unknown component kind {kind!r}")
        names = _LAWS[kind].params
        p = read_fields(doc, {"kind": STRING} | dict.fromkeys(names, NUMBER), {}, f"{kind} component",
                        f"{kind} component: field")
        return ComponentDistribution(kind, tuple(p[k] for k in names))


def rademacher() -> ComponentDistribution:
    return ComponentDistribution("rademacher")


def uniform_centered() -> ComponentDistribution:
    """Uniform on [-sqrt(3), sqrt(3)]."""
    return ComponentDistribution("uniform_centered")


def standard_normal() -> ComponentDistribution:
    return ComponentDistribution("standard_normal")


def two_point(p: float, a: float, b: float) -> ComponentDistribution:
    """Value ``a`` with probability p, value ``-b`` with probability 1-p."""
    return ComponentDistribution("two_point", (float(p), float(a), float(b)))


def skewed_two_point(p: float) -> ComponentDistribution:
    """The unique mean-0 variance-1 two-point law with P(positive) = p;
    skewness (1-2p)/sqrt(p(1-p)) is nonzero for p != 1/2."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0,1)")
    a = math.sqrt((1.0 - p) / p)
    b = math.sqrt(p / (1.0 - p))
    return two_point(p, a, b)


def gaussian_mixture(w: float, mu1: float, sigma1: float, mu2: float, sigma2: float) -> ComponentDistribution:
    return ComponentDistribution("gaussian_mixture", (float(w), float(mu1), float(sigma1), float(mu2), float(sigma2)))


def raw_moment(dist: ComponentDistribution, k: int) -> float:
    """Exact E[Y^k] in closed form."""
    if k < 0:
        raise ValueError("moment order must be >= 0")
    if k == 0:
        return 1.0
    return _LAWS[dist.kind].moment(k, *dist.params)


def has_density(dist: ComponentDistribution) -> bool:
    return _LAWS[dist.kind].density is not None


def has_icdf(dist: ComponentDistribution) -> bool:
    """Whether :func:`component_icdf` has a closed form for the law."""
    return _LAWS[dist.kind].icdf is not None


def pdf(dist: ComponentDistribution, x) -> np.ndarray:
    density = _LAWS[dist.kind].density
    if density is None:
        raise TypeError(f"{dist.kind} has no Lebesgue density")
    return density(np.asarray(x, dtype=float), *dist.params)


def sample_component(dist: ComponentDistribution, rng: np.random.Generator, size) -> np.ndarray:
    return _LAWS[dist.kind].sample(rng, size, *dist.params)


def component_icdf(dist: ComponentDistribution, u) -> np.ndarray:
    """Inverse CDF for kinds with a closed form (enables common-random-number
    coupling of different laws through shared uniforms).  A two-valued law
    looks its values up in a two-entry table: ``np.where``'s bits, in less
    time on the common-random-number blocks."""
    icdf = _LAWS[dist.kind].icdf
    if icdf is None:
        raise TypeError(f"{dist.kind} has no closed-form inverse CDF")
    return icdf(np.asarray(u, dtype=float), *dist.params)


@dataclass(frozen=True, eq=False)
class Summand:
    """Mixing matrix and independent component laws of one summand."""

    C: np.ndarray
    components: tuple

    def __post_init__(self):
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "components", tuple(self.components))
        if C.shape[1] != len(self.components):
            raise ValueError(f"matrix has {C.shape[1]} columns but {len(self.components)} components")
        if not np.isfinite(C).all():
            raise ValueError(f"mixing matrix {C.tolist()} has a non-finite entry")

    def sigma(self) -> np.ndarray:
        return self.C @ self.C.T


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Problem instance: S_n = n^{-1/2} sum_k C_k Y_k in R^d.

    ``records`` holds pairs (summand record, count): each record stands for
    ``count`` independent summands with its law, and n is the sum of the
    counts.  Identically distributed summands share one record of count n;
    summands that all differ each have a record of count 1.
    """

    d: int
    records: tuple
    n: int = field(init=False)

    def __post_init__(self):
        for _, c in self.records:
            if isinstance(c, bool) or not isinstance(c, numbers.Integral) or c < 1:
                raise ValueError(f"record count must be an integer >= 1, got {c!r}")
        object.__setattr__(self, "records", tuple((s, int(c)) for s, c in self.records))
        object.__setattr__(self, "n", sum(c for _, c in self.records))
        if self.d < 1 or self.n < 1:
            raise ValueError("need d >= 1 and n >= 1")
        for s, _ in self.records:
            if s.C.shape[0] != self.d:
                raise ValueError("summand matrix rows != model dimension")

    def covariance_mean(self) -> np.ndarray:
        """(1/n) sum_k C_k C_k^T, the covariance of S_n."""
        return sum(c * s.sigma() for s, c in self.records) / self.n

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "summands": [
                {"C": s.C.tolist(), "components": [c.to_json() for c in s.components], "count": count}
                for s, count in self.records
            ],
        }

    @staticmethod
    def from_json(doc: dict) -> "ModelSpec":
        """Reads :meth:`to_json` documents and the legacy layout: ``iid: true``
        is one record of count n, and a record without ``count`` counts once.
        The fields are those of ``MODEL_FIELDS`` and each record's those of
        ``RECORD_FIELDS``."""
        model = read_fields(doc, *MODEL_FIELDS, "model", "model field")
        iid, n, recs = model.get("iid", False), model["n"], model["summands"]
        if iid and len(recs) != 1:
            raise ValueError(f"expected 1 summand records, got {len(recs)}")
        records = []
        for rec in recs:
            rec = read_fields(rec, *RECORD_FIELDS, "model record", "model record field")
            records.append((Summand(rec["C"], rec["components"]), rec.get("count", n if iid else 1)))
        spec = ModelSpec(d=model["d"], records=tuple(records))
        if spec.n != n:
            raise ValueError(f"expected {n} summand records, got {spec.n}")
        return spec


# (required, optional) fields of a model document and of each of its
# records; ModelSpec checks a record's count, with its own message
_MATRIX = Field(lambda C: isinstance(C, list) and all(isinstance(row, list) and all(map(NUMBER.ok, row)) for row in C)
                and len({len(row) for row in C}) <= 1, "a list of equal-length lists of numbers")
_COMPONENTS = Field(LIST.ok, LIST.what, lambda docs: list(map(ComponentDistribution.from_json, docs)))
MODEL_FIELDS = ({"d": JSON_INTEGER, "n": JSON_INTEGER, "summands": LIST}, {"iid": BOOLEAN})
RECORD_FIELDS = ({"C": _MATRIX, "components": _COMPONENTS}, {"count": Field(lambda count: True, "an integer >= 1")})


def iid_model(dist: ComponentDistribution, n: int) -> ModelSpec:
    """One-dimensional model of n identically distributed summands with
    unit mixing matrix: one record of count n."""
    return ModelSpec(d=1, records=((Summand(np.eye(1), (dist,)), n),))


def iid_vector_model(dists, n: int) -> ModelSpec:
    """Model of n identically distributed summands in d = len(dists)
    dimensions with identity mixing: one record of count n."""
    dists = tuple(dists)
    return ModelSpec(d=len(dists), records=((Summand(np.eye(len(dists)), dists), n),))


@lru_cache(maxsize=None)
def _cumulant_factors(kind: str, params: tuple, K: int) -> tuple:
    """The cumulants kappa_0..kappa_K of one law from its raw moments,
    kappa_k = m_k - sum_{j<k} C(k-1, j-1) kappa_j m_{k-j}, then a gate for
    each: 1.0 where the cumulant is nonzero and 0.0 where it is 0.  Cached
    by the law's kind and parameters, whose hash and equality run in C, so
    each law's cumulants are worked out once for all records."""
    law = _LAWS[kind]
    m = [1.0] + [law.moment(k, *params) for k in range(1, K + 1)]
    kappa = [0.0] * (K + 1)
    for k in range(1, K + 1):
        total = 0.0
        for j in range(1, k):
            total += math.comb(k - 1, j - 1) * kappa[j] * m[k - j]
        kappa[k] = m[k] - total
    return tuple(kappa) + tuple(1.0 if k != 0.0 else 0.0 for k in kappa)


def cumulant_tables(summands, plan: _Plan) -> np.ndarray:
    """Cumulants kappa_beta(C Y) of summand records, zeros kept: one row per
    record in record order, one column per index of ``plan.table`` (the
    same for every record).

    Cumulants are multilinear and add over independent components:
    kappa_beta(C Y) = sum_j kappa_{|beta|}(Y_j) prod_i C_ij^{beta_i}.  The
    order-1 cumulants vanish because the components are centered.

    One numpy pass per block of records, about ``TABLE_BLOCK`` gathered
    factors, so that memory stays bounded for many records: each power
    C_ij^b, b <= K, is raised once with Python's float ``**`` (libm's pow,
    which numpy's ``power`` does not always match), and the factors of the
    block's terms are gathered from one array through ``plan.columns``.
    The product runs over the rows in row order and the sum over the
    components in component order from +0.0, as in a loop per record.
    Each product starts from the cumulant's gate: 1.0 keeps its bits, and
    0.0 makes the term of a zero cumulant +-0.0 even where the powers'
    product would overflow (0 * inf is NaN).  Such a term, and the padding
    of a record with fewer components, adds +-0.0, which changes no sum.
    Each law's cumulants are cached across records and calls.  A power
    that overflows a float is a ValueError naming the matrix entry.
    """
    K, columns = plan.K, plan.columns
    if K > MAX_DEGREE:
        raise ValueError(f"pushforward moment order capped at {MAX_DEGREE}")
    d = summands[0].C.shape[0]
    width = max(len(s.components) for s in summands)
    exponents = range(K + 1)
    table = np.empty((len(summands), columns.shape[1]))
    step = max(1, TABLE_BLOCK // max(1, columns.size * width))
    for start in range(0, len(summands), step):
        block = summands[start:start + step]
        # one row per component: C_ij ** e for each row i and e <= K, then
        # the law's cumulants and their gates; a padding row is all 0.0
        values = []
        for s in block:
            for column, c in zip(s.C.T.tolist(), s.components):
                try:
                    values += [x ** e for x in column for e in exponents]
                except OverflowError:
                    x = max(column, key=abs)
                    raise ValueError(f"mixing matrix entry {x!r} to the power {K} overflows a float") from None
                values += _cumulant_factors(c.kind, c.params, K)
            values += [0.0] * ((width - len(s.components)) * (d + 2) * (K + 1))
        factors = np.array(values).reshape(len(block) * width, (d + 2) * (K + 1)).take(columns, axis=1)
        terms = factors[:, d + 1] * factors[:, 0]
        for i in range(1, d):
            terms *= factors[:, i]
        terms *= factors[:, d]
        terms = terms.reshape(len(block), width, -1)
        rows = table[start:start + step]
        np.add(terms[:, 0], 0.0, out=rows)
        for j in range(1, width):
            rows += terms[:, j]
    return table


@lru_cache(maxsize=None)
def _recursion_steps(d: int, K: int) -> tuple:
    """Steps (beta, terms) of the moment recursion for 1 <= |beta| <= K in
    increasing order.  beta = gamma + e_i with i its last nonzero coordinate,
    and the terms (C(gamma, delta), delta + e_i, gamma - delta) run over
    0 != delta <= gamma (delta = 0 meets an order-1 cumulant, which is 0)."""
    steps = []
    for l in range(1, K + 1):
        for beta in enumerate_multiindices(d, l):
            i = max(k for k, b in enumerate(beta) if b)
            gamma = beta[:i] + (beta[i] - 1,) + beta[i + 1:]
            terms = []
            for delta in itertools.product(*(range(g + 1) for g in gamma)):
                if any(delta):
                    coef = math.prod(math.comb(g, e) for g, e in zip(gamma, delta))
                    kb = delta[:i] + (delta[i] + 1,) + delta[i + 1:]
                    terms.append((float(coef), kb, tuple(g - e for g, e in zip(gamma, delta))))
            steps.append((beta, tuple(terms)))
    return tuple(steps)


@dataclass(frozen=True, eq=False)
class _Plan:
    """Steps of the moment recursion compiled to positions, and the layout
    of the cumulant table they read.  The moments are a list: mu_0 = 1, then
    one per index of ``betas`` in step order.  The cumulants are a row of
    :func:`cumulant_tables` on ``table``, the betas of order lo to ``K``:
    ``orders`` holds each column's order |beta|, and ``columns`` the
    (d + 2, len(table)) positions, in a component's row of factors, of each
    column's term: the powers C_ij ** beta_i, the cumulant kappa_{|beta|}
    and its gate.  ``steps`` holds, per beta, its terms (coef, cumulant
    position, moment position); terms on cumulants of order below lo,
    which the row does not hold, are left out."""

    K: int
    betas: tuple
    table: tuple
    orders: tuple
    columns: np.ndarray
    steps: tuple

    @cached_property
    def levels(self) -> tuple:
        """The steps for many rows at once, one entry per order |beta|: the
        moment positions (start, stop) of its betas and three (terms, betas)
        arrays of coefs, cumulant positions and moment positions, each
        beta's terms in step order and padded to the longest with coef 0.0
        on the zero cumulant appended after the table's, times mu_0."""
        levels = []
        for _, group in itertools.groupby(range(len(self.steps)), key=lambda p: sum(self.betas[p])):
            group = list(group)
            padded = np.zeros((max(len(self.steps[p]) for p in group), len(group), 3))
            padded[:, :, 1] = len(self.table)
            for j, p in enumerate(group):
                padded[:len(self.steps[p]), j] = np.reshape(self.steps[p], (-1, 3))
            levels.append((group[0] + 1, group[-1] + 2, padded[:, :, :1], padded[:, :, 1].astype(np.intp),
                           padded[:, :, 2].astype(np.intp)))
        return tuple(levels)


def _compile(steps: tuple, d: int, K: int, lo: int) -> _Plan:
    betas = tuple(beta for beta, _ in steps)
    table = tuple(beta for beta in betas if sum(beta) >= lo)
    mu_at = {beta: p for p, beta in enumerate(((0,) * d,) + betas)}
    kappa_at = {beta: p for p, beta in enumerate(table)}
    b = np.array(table, dtype=np.intp).reshape(len(table), d)
    orders = b.sum(axis=1)
    columns = np.vstack([b.T, orders, orders]) + np.arange(d + 2)[:, None] * (K + 1)
    return _Plan(K, betas, table, tuple(orders.tolist()), columns, tuple(
        tuple((c, kappa_at[kb], mu_at[mb]) for c, kb, mb in terms if kb in kappa_at) for _, terms in steps))


@lru_cache(maxsize=None)
def _plan(d: int, K: int, lo: int = 2) -> _Plan:
    """The recursion for every 1 <= |beta| <= K on the cumulants of orders
    lo to K."""
    return _compile(_recursion_steps(d, K), d, K, lo)


@lru_cache(maxsize=None)
def _down_set_plan(top: tuple) -> _Plan:
    """The steps of :func:`_recursion_steps` for the down-set {0 != beta <=
    top}, in the same order: mu_top, the last, reads only cumulants and
    moments there."""
    steps = tuple(step for step in _recursion_steps(len(top), sum(top))
                  if all(b <= t for b, t in zip(step[0], top)))
    return _compile(steps, len(top), sum(top), 2)


def _moments(kappa: list, plan: _Plan) -> list:
    """Moments by position (mu_0 = 1 first) from a cumulant row on
    ``plan.table``: each is the sum from 0.0 of its terms in order."""
    mu = [1.0]
    for terms in plan.steps:
        total = 0.0
        for c, k, m in terms:
            total += c * kappa[k] * mu[m]
        mu.append(total)
    return mu


def _row_moments(table: np.ndarray, plan: _Plan) -> np.ndarray:
    """:func:`_moments` of every row of a cumulant table at once, one
    column per row, bit for bit: per order, one gather of each term's
    factors and one ordered sum over the terms.  ``np.add.reduce`` sums an
    outer axis as a running sum from ``initial`` (numpy sums pairwise only
    along the contiguous axis, which has two rows or more here); a padding
    term adds +-0.0 to a sum from +0.0, which changes no bit."""
    kappa = np.zeros((len(plan.table) + 1, len(table)))
    kappa[:-1] = table.T
    mu = np.empty((len(plan.betas) + 1, len(table)))
    mu[0] = 1.0
    for start, stop, coef, kpos, mpos in plan.levels:
        terms = coef * kappa[kpos]
        terms *= mu[mpos]
        np.add.reduce(terms, axis=0, initial=0.0, out=mu[start:stop])
    return mu


def hermite_moments(summands, K: int) -> tuple[tuple, np.ndarray]:
    """Hermite moments h_beta of summand records for 3 <= |beta| <= K: the
    moment recursion on each record's cumulant table with its order-2
    entries dropped.  They are the Taylor coefficients (over beta!) of
    E[exp(<t, C Y>)] exp(-t' C C' t / 2), the record's moment generating
    function over its Gaussian twin's.  Returns the indices, orders 3 to K
    in table order, and a (records, indices) array of the moments, zeros
    kept: one table call for all records, then the recursion over blocks of
    two or more records at once (about ``TABLE_BLOCK`` terms a block), or
    the list loop on a single record, where it costs less."""
    plan = _plan(summands[0].C.shape[0], K, 3)
    tail = len(plan.betas) + 1 - len(plan.table)  # the table's betas end the step order
    table = cumulant_tables(summands, plan)
    if len(table) == 1:
        return plan.table, np.array([_moments(table[0].tolist(), plan)[tail:]])
    out = np.empty((len(plan.table), len(table)))
    width = max([1] + [coef.size for _, _, coef, _, _ in plan.levels])
    for start, stop in _blocks(len(table), max(2, TABLE_BLOCK // width)):
        out[:, start:stop] = _row_moments(table[start:stop], plan)[tail:]
    return plan.table, out.T


def _blocks(total: int, step: int) -> list:
    """(start, stop) of about total / step blocks covering range(total), each
    at least ``step`` long (the whole range if it is shorter)."""
    count = max(1, total // step)
    return [(total * i // count, total * (i + 1) // count) for i in range(count)]


def _sum_moments(model: ModelSpec, K: int, top: tuple | None = None) -> list:
    """Exact E[S_n^beta] for every |beta| <= K, or with ``top`` for its
    down-set only, which is all the recursion for mu_top reads, by position
    (mu_0 = 1 first, mu_top last): one moment recursion on the cumulants of
    S_n.  Cumulants add over independent summands and scale by
    n^{-|delta|/2}, so kappa_delta(S_n) = n^{-|delta|/2} sum_records count *
    kappa_delta(record) for any count, summed in record order from +0.0 over
    one table call for all records."""
    if K > 8:
        raise ValueError("exact sum moment order capped at 8")
    plan = _plan(model.d, K) if top is None else _down_set_plan(top)
    summands, counts = zip(*model.records)
    scale = [float(model.n) ** (-0.5 * l) for l in range(K + 1)]
    terms = cumulant_tables(summands, plan)
    terms *= np.array(counts, dtype=float)[:, None]
    terms *= [scale[l] for l in plan.orders]
    # add.accumulate is a running sum in record order; its last row plus 0.0
    # is sum()'s from +0.0, which turns a run of -0.0 terms into +0.0
    return _moments((np.add.accumulate(terms, out=terms)[-1] + 0.0).tolist(), plan)


def exact_sum_moment_table(model: ModelSpec, K: int) -> dict:
    """Exact E[S_n^beta] for every |beta| <= K from the summand records'
    cumulant tables."""
    mu = _sum_moments(model, K)
    return dict(zip(((0,) * model.d,) + _plan(model.d, K).betas, mu))


def exact_sum_moment(model: ModelSpec, beta) -> float:
    """Exact E[S_n^beta]: the entry of :func:`exact_sum_moment_table`, bit
    for bit, from the cumulants and moments of the down-set {delta <= beta}
    only."""
    beta = check_multiindex(beta)
    if len(beta) != model.d:
        raise ValueError("index dimension != model dimension")
    return _sum_moments(model, sum(beta), beta)[-1]
