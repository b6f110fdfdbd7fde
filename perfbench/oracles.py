"""Exact oracles the benchmark checks the program against.

Everything here is written independently of ``edgeworth``: models arrive as
the same JSON documents the program reads, component moments come from the
closed forms of the catalog, and moments of sums come from truncated moment
generating polynomials instead of the program's dynamic programs.

A truncated polynomial in ``t`` (dimension d, total degree <= D) is a dense
array of shape ``(D + 1,) * d`` whose entries of total degree > D are zero.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.integrate import quad
from scipy.sparse import csr_matrix
from scipy.special import ndtr


def _dfact(k: int) -> int:
    return math.prod(range(k - 1, 0, -2)) if k > 0 else 1


def gauss_moment_1d(k: int) -> float:
    return float(_dfact(k)) if k % 2 == 0 else 0.0


def _normal_moment(mu: float, sigma: float, k: int) -> float:
    return sum(math.comb(k, j) * sigma**j * _dfact(j) * mu ** (k - j) for j in range(0, k + 1, 2))


def component_moment(doc: dict, k: int) -> float:
    """E[Y^k] for one catalog component given by its JSON document."""
    kind = doc["kind"]
    if k == 0:
        return 1.0
    if kind == "rademacher":
        return 1.0 if k % 2 == 0 else 0.0
    if kind == "uniform_centered":
        return 3.0 ** (k / 2) / (k + 1) if k % 2 == 0 else 0.0
    if kind == "standard_normal":
        return gauss_moment_1d(k)
    if kind == "two_point":
        return doc["p"] * doc["a"] ** k + (1.0 - doc["p"]) * (-doc["b"]) ** k
    if kind == "gaussian_mixture":
        return doc["w"] * _normal_moment(doc["mu1"], doc["sigma1"], k) + (1.0 - doc["w"]) * _normal_moment(
            doc["mu2"], doc["sigma2"], k
        )
    raise ValueError(f"unknown component kind {kind!r}")


# ---------------------------------------------------------------------------
# truncated polynomials


class Basis:
    """Monomials t^alpha in d variables of total degree <= D, with the
    product table of truncated multiplication.  A polynomial is a vector of
    coefficients over ``monos``; leading axes index independent polynomials."""

    def __init__(self, d: int, D: int):
        self.d, self.D = d, D
        self.monos = [a for a in itertools.product(range(D + 1), repeat=d) if sum(a) <= D]
        self.index = {a: i for i, a in enumerate(self.monos)}
        self.degree = np.array([sum(a) for a in self.monos])
        pairs = [
            (i, j, self.index[tuple(x + y for x, y in zip(a, b))])
            for i, a in enumerate(self.monos)
            for j, b in enumerate(self.monos)
            if sum(a) + sum(b) <= D
        ]
        self.I, self.J, K = (np.array(c) for c in zip(*pairs))
        self.S = csr_matrix((np.ones(len(K)), (np.arange(len(K)), K)), shape=(len(K), len(self.monos)))

    def unit(self) -> np.ndarray:
        out = np.zeros(len(self.monos))
        out[self.index[(0,) * self.d]] = 1.0
        return out

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.asarray((a[..., self.I] * b[..., self.J]) @ self.S)

    def power(self, a: np.ndarray, p: int) -> np.ndarray:
        out = self.unit()
        while p:
            if p & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            p >>= 1
        return out

    def series(self, C: np.ndarray, moment_fns) -> np.ndarray:
        """Truncated Taylor series of E[exp(t . C Y)]: coefficient alpha is
        E[(CY)^alpha] / alpha!.  ``moment_fns[j](k)`` is E[Y_j^k]."""
        out = self.unit()
        for j, moment in enumerate(moment_fns):
            lin = np.zeros(len(self.monos))
            if self.D >= 1:
                for i in range(self.d):
                    lin[self.index[tuple(int(i == r) for r in range(self.d))]] = C[i, j]
            term, acc = self.unit(), np.zeros(len(self.monos))
            for k in range(self.D + 1):
                acc += moment(k) / math.factorial(k) * term
                term = self.mul(term, lin)
            out = self.mul(out, acc)
        return out


def _records(doc: dict):
    """(C, component docs, count) per summand record of a model document."""
    n = int(doc["n"])
    recs = [(np.atleast_2d(np.asarray(r["C"], dtype=float)), r["components"]) for r in doc["summands"]]
    if doc.get("iid", False):
        return [(recs[0][0], recs[0][1], n)]
    return [(C, comps, 1) for C, comps in recs]


def _moment_fns(comps, gaussian=False):
    if gaussian:
        return [gauss_moment_1d] * len(comps)
    return [lambda k, c=c: component_moment(c, k) for c in comps]


def sum_moment(doc: dict, beta) -> float:
    """E[S_n^beta] for S_n = n^{-1/2} sum_k C_k Y_k, as beta! times the
    beta coefficient of the product of the records' moment series."""
    beta = tuple(int(b) for b in beta)
    basis = Basis(int(doc["d"]), sum(beta))
    scale = float(doc["n"]) ** (-0.5 * basis.degree)
    total = basis.unit()
    for C, comps, count in _records(doc):
        total = basis.mul(total, basis.power(basis.series(C, _moment_fns(comps)) * scale, count))
    return float(total[basis.index[beta]] * math.prod(math.factorial(b) for b in beta))


def gaussian_scale(beta) -> float:
    """sqrt(E[G^(2 beta)]) for a standard normal vector: the natural size of
    a moment of order beta, used to scale absolute tolerances."""
    return math.sqrt(math.prod(gauss_moment_1d(2 * b) for b in beta))


# ---------------------------------------------------------------------------
# corrector polynomial by the set-partition (Moebius) form


def _index_tuples(m: int, k: int, N: int):
    pairs = [(l, lp) for l in range(3, N + 3) for lp in range(N // 2 + 1)]
    return [lam for lam in itertools.product(pairs, repeat=m) if sum(l + 2 * lp for l, lp in lam) == k + 2 * m]


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]


def corrector_terms(doc: dict, N: int) -> dict:
    """Hermite coefficients of the order-N corrector polynomial (constant 1
    omitted), computed by summing over distinct summand indices through
    set partitions of the slots with count-weighted power sums over records.

    This is an independent algorithm for the same quantity the program
    computes by a dynamic program over summands.
    """
    d, n = int(doc["d"]), int(doc["n"])
    basis = Basis(d, 3 * N)
    recs = _records(doc)
    counts = np.array([float(c) for _, _, c in recs])

    # slot operator (l, lp) of each record, stacked over records; the series
    # coefficient alpha, (E[(CY)^alpha] - E[(CG)^alpha]) / alpha!, equals the
    # order-l gap operator's multinomial(alpha) * gap / l!
    slots = {}
    for C, comps, _ in recs:
        gap = basis.series(C, _moment_fns(comps)) - basis.series(C, _moment_fns(comps, gaussian=True))
        sigma = C @ C.T
        lap = np.zeros(len(basis.monos))
        for i in range(d):
            for j in range(d):
                lap[basis.index[tuple(int(r == i) + int(r == j) for r in range(d))]] += sigma[i, j]
        for l in range(3, N + 3):
            g_l = np.where(basis.degree == l, gap, 0.0)
            for lp in range(N // 2 + 1):
                op = basis.mul(g_l, basis.power(lap, lp)) if lp else g_l
                slots.setdefault((l, lp), []).append(op * ((-1.0) ** lp / (2.0**lp * math.factorial(lp))))
    slots = {key: np.array(ops) for key, ops in slots.items()}

    power_sums: dict = {}

    def power_sum(pairs):
        key = tuple(sorted(pairs))
        if key not in power_sums:
            prod = slots[key[0]]
            for pair in key[1:]:
                prod = basis.mul(prod, slots[pair])
            power_sums[key] = counts @ prod
        return power_sums[key]

    total = np.zeros(len(basis.monos))
    for k in range(1, N + 1):
        for m in range(1, k + 1):
            for lam in _index_tuples(m, k, N):
                distinct = np.zeros(len(basis.monos))
                for part in _set_partitions(list(range(m))):
                    mu = math.prod((-1) ** (len(b) - 1) * math.factorial(len(b) - 1) for b in part)
                    prod = basis.unit()
                    for b in part:
                        prod = basis.mul(prod, power_sum([lam[i] for i in b]))
                    distinct += mu * prod
                total += distinct * (float(n) ** (-m - 0.5 * k) / math.factorial(m))
    return {basis.monos[i]: float(total[i]) for i in np.nonzero(total)[0]}


# ---------------------------------------------------------------------------
# Gaussian expectations and closed forms for the Monte Carlo drivers


def expect_monomial_times_hermite(beta, alpha) -> float:
    """E[W^beta He_alpha(W)] for a standard normal vector: by Gaussian
    integration by parts, prod_i beta_i! / (beta_i - alpha_i)! E[W_i^(beta_i - alpha_i)]."""
    out = 1.0
    for b, a in zip(beta, alpha):
        if a > b:
            return 0.0
        out *= math.factorial(b) / math.factorial(b - a) * gauss_moment_1d(b - a)
    return out


def corrected_expectation(f_terms: dict, constant: float, phi_terms: dict) -> float:
    """E[f(W) Phi(W)] for a monomial map f and a Hermite-basis corrector."""
    total = 0.0
    for beta, c in f_terms.items():
        total += c * constant * expect_monomial_times_hermite(beta, (0,) * len(beta))
        total += c * math.fsum(p * expect_monomial_times_hermite(beta, a) for a, p in phi_terms.items())
    return total


def kac_roots_per_n(n: int) -> float:
    """Kac's exact mean number of zeros on (0, pi) of a degree-n trigonometric
    polynomial with iid standard normal coefficients, divided by n."""
    return math.sqrt((n + 1) * (2 * n + 1) / 6.0) / n


def gaussian_box_density(a: float, delta: float) -> float:
    """P(|G - a| <= delta) / (2 delta) for a standard normal G."""
    return float(ndtr(a + delta) - ndtr(a - delta)) / (2.0 * delta)


def smallball_gaussian(n: int, eta: float) -> float:
    """P(|S_n(u)| <= eta) for the parametrized trigonometric sum with standard
    normal coefficients: S_n(u) is exactly N(0, diag(1, s^2)) with
    s^2 = (n + 1)(2n + 1) / (6 n^2), for every u."""
    s = math.sqrt((n + 1) * (2 * n + 1) / (6.0 * n * n))
    inner = lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi) * (
        2.0 * float(ndtr(math.sqrt(max(eta * eta - x * x, 0.0)) / s)) - 1.0
    )
    return quad(inner, -eta, eta, epsabs=1e-13, epsrel=1e-11)[0]


def gaussian_occupation(n: int, eps: float) -> float:
    """Exact mean of the banded occupation average of the Gaussian walk."""
    k = np.arange(1, n + 1)
    return float(np.mean(2.0 * ndtr(eps * np.sqrt(n / k)) - 1.0)) / (2.0 * eps)
