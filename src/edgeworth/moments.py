"""Distribution catalog with exact raw moments, model specification for
scaled sums of independent non-identically distributed vectors as counted
summand records (a law and how many summands share it), and one cumulant
table per record, from which a single moment recursion gives the record's
Hermite moments and the exact moments of the scaled sum.

All catalog entries are constrained to mean 0 and variance 1; correlation
between the coordinates of one summand is expressed through its mixing
matrix, never inside the component law.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import ndtri

from .errors import check_fields, check_integer, check_list, check_object
from .hermite import gaussian_moment_1d
from .multiindex import check_multiindex, enumerate_multiindices

SQRT3 = math.sqrt(3.0)

_KINDS = ("rademacher", "uniform_centered", "two_point", "gaussian_mixture", "standard_normal")
# parameter names of the parametrized kinds, in ``params`` order
_PARAMS = {"two_point": ("p", "a", "b"), "gaussian_mixture": ("w", "mu1", "sigma1", "mu2", "sigma2")}


@dataclass(frozen=True)
class ComponentDistribution:
    """One scalar component law from the closed catalog (mean 0, variance 1)."""

    kind: str
    params: tuple = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown component kind {self.kind!r}")
        m1 = raw_moment(self, 1)
        m2 = raw_moment(self, 2)
        if abs(m1) > 1e-12 or abs(m2 - 1.0) > 1e-12:
            raise ValueError(f"{self.kind}{self.params}: mean {m1}, variance {m2}; need (0, 1)")

    def to_json(self) -> dict:
        return {"kind": self.kind} | dict(zip(_PARAMS.get(self.kind, ()), self.params))

    @staticmethod
    def from_json(doc: dict) -> "ComponentDistribution":
        """Reads :meth:`to_json` documents: a JSON object of ``kind`` plus
        exactly the parameters of that kind."""
        check_object(doc, "component")
        kind = doc.get("kind")
        if kind not in _KINDS:
            raise ValueError(f"unknown component kind {kind!r}")
        names = _PARAMS.get(kind, ())
        check_fields(doc, {"kind", *names}, set(), f"{kind} component")
        for k in names:
            if isinstance(doc[k], bool) or not isinstance(doc[k], numbers.Real):
                raise ValueError(f"{kind} component: field {k!r} must be a number, got {doc[k]!r}")
        return ComponentDistribution(kind, tuple(float(doc[k]) for k in names))


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


def _normal_raw_moment(mu: float, sigma: float, k: int) -> float:
    total = 0.0
    for j in range(0, k + 1, 2):
        total += math.comb(k, j) * (sigma ** j) * gaussian_moment_1d(j) * (mu ** (k - j))
    return total


def raw_moment(dist: ComponentDistribution, k: int) -> float:
    """Exact E[Y^k] in closed form."""
    if k < 0:
        raise ValueError("moment order must be >= 0")
    if k == 0:
        return 1.0
    kind = dist.kind
    if kind == "rademacher":
        return 1.0 if k % 2 == 0 else 0.0
    if kind == "uniform_centered":
        # (1/(2 sqrt 3)) int_{-s3}^{s3} x^k dx = 3^{k/2}/(k+1) for even k
        return (SQRT3 ** k) / (k + 1) if k % 2 == 0 else 0.0
    if kind == "standard_normal":
        return gaussian_moment_1d(k)
    if kind == "two_point":
        p, a, b = dist.params
        return p * a ** k + (1.0 - p) * (-b) ** k
    if kind == "gaussian_mixture":
        w, mu1, s1, mu2, s2 = dist.params
        return w * _normal_raw_moment(mu1, s1, k) + (1.0 - w) * _normal_raw_moment(mu2, s2, k)
    raise ValueError(f"unsupported kind {kind!r}")


def has_density(dist: ComponentDistribution) -> bool:
    return dist.kind in ("uniform_centered", "standard_normal", "gaussian_mixture")


def has_icdf(dist: ComponentDistribution) -> bool:
    """Whether :func:`component_icdf` has a closed form for the law."""
    return dist.kind in ("rademacher", "uniform_centered", "standard_normal", "two_point")


def pdf(dist: ComponentDistribution, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    kind = dist.kind
    if kind == "uniform_centered":
        return np.where(np.abs(x) <= SQRT3, 1.0 / (2.0 * SQRT3), 0.0)
    if kind == "standard_normal":
        return np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
    if kind == "gaussian_mixture":
        w, mu1, s1, mu2, s2 = dist.params
        g1 = np.exp(-0.5 * ((x - mu1) / s1) ** 2) / (s1 * math.sqrt(2 * math.pi))
        g2 = np.exp(-0.5 * ((x - mu2) / s2) ** 2) / (s2 * math.sqrt(2 * math.pi))
        return w * g1 + (1.0 - w) * g2
    raise TypeError(f"{kind} has no Lebesgue density")


def sample_component(dist: ComponentDistribution, rng: np.random.Generator, size) -> np.ndarray:
    kind = dist.kind
    if kind == "rademacher":
        return rng.integers(0, 2, size=size).astype(float) * 2.0 - 1.0
    if kind == "uniform_centered":
        return rng.uniform(-SQRT3, SQRT3, size=size)
    if kind == "standard_normal":
        return rng.standard_normal(size=size)
    if kind == "two_point":
        p, a, b = dist.params
        return np.where(rng.random(size=size) < p, a, -b)
    if kind == "gaussian_mixture":
        w, mu1, s1, mu2, s2 = dist.params
        pick = rng.random(size=size) < w
        z = rng.standard_normal(size=size)
        return np.where(pick, mu1 + s1 * z, mu2 + s2 * z)
    raise ValueError(f"unsupported kind {kind!r}")


def component_icdf(dist: ComponentDistribution, u) -> np.ndarray:
    """Inverse CDF for kinds with a closed form (enables common-random-number
    coupling of different laws through shared uniforms).  A two-valued law
    looks its values up in a two-entry table: ``np.where``'s bits, in less
    time on the common-random-number blocks."""
    u = np.asarray(u, dtype=float)
    kind = dist.kind
    if kind == "rademacher":
        return np.array([1.0, -1.0]).take((u < 0.5).view(np.uint8))
    if kind == "uniform_centered":
        return (2.0 * u - 1.0) * SQRT3
    if kind == "standard_normal":
        return ndtri(u)
    if kind == "two_point":
        p, a, b = dist.params
        return np.array([a, -b]).take((u < 1.0 - p).view(np.uint8))
    raise TypeError(f"{kind} has no closed-form inverse CDF")


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
        The document and each record must be JSON objects, ``summands`` and
        each record's ``components`` JSON lists, and ``d`` and ``n`` JSON
        integers."""
        check_fields(doc, {"d", "n", "summands"}, {"iid"}, "model")
        check_list(doc["summands"], "model field 'summands'")
        iid = doc.get("iid", False)
        if not isinstance(iid, bool):
            raise ValueError(f"model field 'iid' must be true or false, got {iid!r}")
        d, n = (check_integer(doc[k], f"model field {k!r}") for k in ("d", "n"))
        if iid and len(doc["summands"]) != 1:
            raise ValueError(f"expected 1 summand records, got {len(doc['summands'])}")
        records = []
        for rec in doc["summands"]:
            check_fields(rec, {"C", "components"}, {"count"}, "model record")
            check_list(rec["components"], "model record field 'components'")
            summand = Summand(rec["C"], [ComponentDistribution.from_json(c) for c in rec["components"]])
            records.append((summand, rec.get("count", n if iid else 1)))
        model = ModelSpec(d=d, records=tuple(records))
        if model.n != n:
            raise ValueError(f"expected {n} summand records, got {model.n}")
        return model


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
def _component_cumulants(dist: ComponentDistribution, K: int) -> tuple:
    """Cumulants kappa_0, ..., kappa_K of one catalog law from its raw
    moments: kappa_k = m_k - sum_{j<k} C(k-1, j-1) kappa_j m_{k-j}.
    Cached, so each law's cumulants are worked out once for all records."""
    m = [raw_moment(dist, k) for k in range(K + 1)]
    kappa = [0.0] * (K + 1)
    for k in range(1, K + 1):
        kappa[k] = m[k] - sum(math.comb(k - 1, j - 1) * kappa[j] * m[k - j] for j in range(1, k))
    return tuple(kappa)


def _indices(d: int, lo: int, K: int) -> list[tuple]:
    """Multi-indices with lo <= |beta| <= K: by order, each order in
    :func:`enumerate_multiindices` order."""
    return [b for l in range(lo, K + 1) for b in enumerate_multiindices(d, l)]


def cumulant_table(C: np.ndarray, comps, K: int, betas=None) -> dict:
    """Cumulants kappa_beta(C Y) of one summand record for 2 <= |beta| <= K,
    zeros left out.

    Cumulants are multilinear and add over independent components:
    kappa_beta(C Y) = sum_j kappa_{|beta|}(Y_j) prod_i C_ij^{beta_i}.  The
    order-1 cumulants vanish because the components are centered.

    ``betas``, the indices to compute in table order, is the same for every
    record of a model: a caller that builds several tables builds it once
    per call and passes it; without it, all indices of orders 2 to K are
    built here.  Each law's cumulants are cached across records and calls.
    Per record, each power C_ij^b, b <= K, is raised once, and the order-l
    sum leaves out the components whose order-l cumulant is 0: adding +-0.0
    changes no nonzero sum, and zero sums are left out anyway.
    """
    if K > 12:
        raise ValueError("pushforward moment order capped at 12")
    rows = np.atleast_2d(np.asarray(C, dtype=float)).tolist()
    if betas is None:
        betas = _indices(len(rows), 2, K)
    # powers[j][i][b] = C_ij ** b
    powers = [[[row[j] ** b for b in range(K + 1)] for row in rows] for j in range(len(comps))]
    kappas = [_component_cumulants(c, K) for c in comps]
    by_order = {l: [(kap[l], pw) for kap, pw in zip(kappas, powers) if kap[l] != 0.0] for l in range(2, K + 1)}
    table = {}
    for beta in betas:
        v = sum(k * math.prod(map(list.__getitem__, pw, beta)) for k, pw in by_order[sum(beta)])
        if v != 0.0:
            table[beta] = v
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


def _recursion(kappa: dict, d: int, steps) -> dict:
    """Moments mu_beta from the cumulants ``kappa`` for the betas of
    ``steps``, a subsequence of :func:`_recursion_steps`, and mu_0 = 1."""
    mu = {(0,) * d: 1.0}
    for beta, terms in steps:
        mu[beta] = sum((c * kappa[kb] * mu[mb] for c, kb, mb in terms if kb in kappa), 0.0)
    return mu


def moments_from_cumulants(kappa: dict, d: int, K: int) -> dict:
    """Moments mu_beta, |beta| <= K, of a centered law in R^d from its
    cumulant table (missing entries are 0), by the recursion
    mu_{gamma+e_i} = sum_{delta <= gamma} prod_k C(gamma_k, delta_k) kappa_{delta+e_i} mu_{gamma-delta}."""
    return _recursion(kappa, d, _recursion_steps(d, K))


@lru_cache(maxsize=None)
def _down_set_steps(top: tuple) -> tuple:
    """The steps of :func:`_recursion_steps` for the down-set {0 != beta <=
    top}, in the same order: mu_top reads only cumulants and moments there."""
    return tuple(step for step in _recursion_steps(len(top), sum(top))
                 if all(b <= t for b, t in zip(step[0], top)))


def hermite_moments(C: np.ndarray, comps, K: int, betas: list) -> dict:
    """Hermite moments h_beta of one summand record for 3 <= |beta| <= K,
    zeros left out: the moment recursion on the record's cumulant table with
    its order-2 entries dropped.  They are the Taylor coefficients (over
    beta!) of E[exp(<t, C Y>)] exp(-t' C C' t / 2), the record's moment
    generating function over its Gaussian twin's.  ``betas`` are the
    indices of orders 3 to K, built once per call by the caller."""
    d = np.atleast_2d(C).shape[0]
    mu = moments_from_cumulants(cumulant_table(C, comps, K, betas), d, K)
    return {b: v for b, v in mu.items() if sum(b) >= 3 and v != 0.0}


def _sum_moments(model: ModelSpec, K: int, top: tuple | None = None) -> dict:
    """Exact E[S_n^beta] for every |beta| <= K, or with ``top`` for its
    down-set only, which is all the recursion for mu_top reads: one moment
    recursion on the cumulants of S_n.  Cumulants add over independent
    summands and scale by n^{-|delta|/2}, so kappa_delta(S_n) =
    n^{-|delta|/2} sum_records count * kappa_delta(record) for any count.
    The indices and the scales are built once per call; each record's
    cumulant table once per record."""
    if K > 8:
        raise ValueError("exact sum moment order capped at 8")
    steps = _recursion_steps(model.d, K) if top is None else _down_set_steps(top)
    betas = [b for b, _ in steps if sum(b) >= 2]
    scale = [float(model.n) ** (-0.5 * l) for l in range(K + 1)]
    kappa: dict = {}
    for rec, count in model.records:
        for delta, v in cumulant_table(rec.C, rec.components, K, betas).items():
            kappa[delta] = kappa.get(delta, 0.0) + count * v * scale[sum(delta)]
    return _recursion(kappa, model.d, steps)


def exact_sum_moment_table(model: ModelSpec, K: int) -> dict:
    """Exact E[S_n^beta] for every |beta| <= K from the summand records'
    cumulant tables."""
    return _sum_moments(model, K)


def exact_sum_moment(model: ModelSpec, beta) -> float:
    """Exact E[S_n^beta]: the entry of :func:`exact_sum_moment_table`, bit
    for bit, from the cumulants and moments of the down-set {delta <= beta}
    only."""
    beta = check_multiindex(beta)
    if len(beta) != model.d:
        raise ValueError("index dimension != model dimension")
    return _sum_moments(model, sum(beta), beta)[beta]
