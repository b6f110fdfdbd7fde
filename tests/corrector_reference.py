"""Reference corrector operators written apart from the graded series used
by the package.

The order-k operator is built straight from its definition: ordered slot
tuples ((l_1, l'_1), ..., (l_m, l'_m)) with sum l_i + 2 sum l'_i = k + 2m,
each slot the moment-gap operator of order l composed with the l'-th power
of the summand's Laplace operator, summed over r_1 < ... < r_m either by
enumeration or by a dynamic program over the n summands.  The explicit
order-3 correctors are the hand-expanded closed forms in averaged moment
gaps, and the order-2 operator-versus-explicit gap has its own closed form.
The multi-index helpers for ordered index tuples and the record moment-gap
table that these forms read live here too.  :func:`series_loops` is the
graded series by the dict loops on tuple keys, one record at a time, which
the package's block algebra must match within a bound of each grade's
scale; run on absolute values it gives that scale.
:func:`edgeworth_expectation_reference` is the exact corrected expectation
by one differentiated :class:`Polynomial` per Hermite term, which the
package's one contraction must match bit for bit.

Operators are :class:`Polynomial` objects read in the partial derivatives
(the term ``beta: c`` is ``c d^beta``), so composition is ``*``.
"""

import math
from itertools import combinations

import numpy as np

from edgeworth.hermite import Polynomial
from edgeworth.multiindex import check_multiindex, enumerate_multiindices
from moment_reference import cumulant_table, hermite_moments_reference, moments_from_cumulants, summand_list


def multinomial_weight(beta) -> int:
    """Number of ordered index tuples with per-coordinate counts ``beta``,
    i.e. ``|beta|! / prod(beta_i!)``."""
    beta = check_multiindex(beta)
    n = sum(beta)
    if n > 170:
        raise OverflowError("multi-index order too large for exact factorials")
    w = math.factorial(n)
    for b in beta:
        w //= math.factorial(b)
    return w


def concat(beta1, beta2) -> tuple:
    """Multiplicity vector of the concatenation of two index tuples
    (entrywise sum; orders add)."""
    if len(beta1) != len(beta2):
        raise ValueError(f"dimension mismatch: {len(beta1)} vs {len(beta2)}")
    return tuple(a + b for a, b in zip(beta1, beta2))


def unit(d: int, i: int) -> tuple:
    """Multiplicity vector of the single coordinate ``i`` (0-based)."""
    beta = [0] * d
    beta[i] = 1
    return tuple(beta)


def gap_table(C: np.ndarray, comps, K: int) -> dict:
    """Moment gaps E[(C Y)^beta] - E[(C G)^beta], G standard normal of the
    same shape, for 3 <= |beta| <= K, zeros left out: the moment recursion on
    the record's cumulant table minus the same recursion on its order-2
    entries C C^T, the only cumulants of the Gaussian twin."""
    comps = tuple(comps)
    if all(c.kind == "standard_normal" for c in comps):
        return {}
    d = np.atleast_2d(C).shape[0]
    kappa = cumulant_table(C, comps, K)
    full = moments_from_cumulants(kappa, d, K)
    twin = moments_from_cumulants({b: v for b, v in kappa.items() if sum(b) == 2}, d, K)
    return {b: v - twin[b] for b, v in full.items() if sum(b) >= 3 and v != twin[b]}


def apply_operator(op: Polynomial, f: Polynomial) -> Polynomial:
    """The operator op, read in the partial derivatives, applied to f:
    sum over its terms of c * d^beta f."""
    out = Polynomial(f.d)
    for beta, c in op.terms.items():
        out = out + f.diff(beta).scale(c)
    return out


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


def moment_gap_operator(summand, l: int) -> Polynomial:
    """Order-l operator whose coefficient at each derivative is the moment
    gap of the summand, with ordered-tuple counts folded in."""
    d = summand.C.shape[0]
    gaps = gap_table(summand.C, summand.components, l)
    terms = {}
    for beta in enumerate_multiindices(d, l):
        gap = gaps.get(beta, 0.0)
        if gap != 0.0:
            terms[beta] = multinomial_weight(beta) * gap
    return Polynomial(d, terms)


def laplace_operator(sigma: np.ndarray, power: int = 1) -> Polynomial:
    """The power-th power of sum_{i,j} sigma_ij d_i d_j in multiplicity form,
    by repeated composition."""
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
    lap = Polynomial(d, terms)
    out = Polynomial.monomial((0,) * d)
    for _ in range(power):
        out = out * lap
    return out


def slot_operator(summand, l: int, lp: int) -> Polynomial:
    """(1/l!) D^{(l)} composed with ((-1)^{l'} / (2^{l'} l'!)) L^{l'} of one summand."""
    op = moment_gap_operator(summand, l).scale(1.0 / math.factorial(l))
    if not op.terms or lp == 0:
        return op
    lap = laplace_operator(summand.sigma(), lp)
    return op * lap.scale(((-1.0) ** lp) / (2.0 ** lp * math.factorial(lp)))


def corrector_operator_enumerated(model, k, N):
    """Oracle: the increasing-index sums by explicit enumeration of the
    index tuples r_1 < ... < r_m (small n only)."""
    summands = summand_list(model)
    total = Polynomial(model.d)
    for m in range(1, k + 1):
        for lam in corrector_index_tuples(m, k, N):
            for rs in combinations(range(model.n), m):
                op = Polynomial.monomial((0,) * model.d)
                for (l, lp), r in zip(lam, rs):
                    op = op * slot_operator(summands[r], l, lp)
                total = total + op.scale(float(model.n) ** (-m))
    return total


def corrector_operator_dp(model, k, N):
    """Oracle: the increasing-index sums by a dynamic program over the n
    summands, dp[j] = sum over r_1 < ... < r_j of composed slot operators."""
    summands = summand_list(model)
    total = Polynomial(model.d)
    for m in range(1, k + 1):
        for lam in corrector_index_tuples(m, k, N):
            dp = [Polynomial.monomial((0,) * model.d)] + [Polynomial(model.d) for _ in range(m)]
            for r in range(model.n):
                ops_r = [slot_operator(summands[r], l, lp) for (l, lp) in lam]
                for j in range(m, 0, -1):
                    dp[j] = dp[j] + dp[j - 1] * ops_r[j - 1]
            total = total + dp[m].scale(float(model.n) ** (-m))
    return total


def explicit_order3_closed_form(model) -> tuple[dict, dict, dict]:
    """Hermite coefficients of the three explicit order-3 correctors from
    the averaged moment gaps c_l (ordered-tuple counts folded in) and the
    covariance-weighted average cbar_3:

        h1 = c3/6,  h2 = c4/24 + c3 c3/72,
        h3 = c5/120 - cbar3 (x) e_i e_j / 12 + c3 c4/144 + c3 c3 c3/1296,

    products read as concatenations of the Hermite indices."""
    d = model.d
    tables = [(rec, count, gap_table(rec.C, rec.components, 5)) for rec, count in model.records]

    def averaged(l):
        out = {}
        for beta in enumerate_multiindices(d, l):
            total = sum(gaps.get(beta, 0.0) * count for _, count, gaps in tables)
            if total != 0.0:
                out[beta] = multinomial_weight(beta) * total / model.n
        return out

    c3, c4, c5 = averaged(3), averaged(4), averaged(5)

    def add(h, b, v):
        h[b] = h.get(b, 0.0) + v

    h1 = {b: c / 6.0 for b, c in c3.items()}

    h2: dict = {b: c / 24.0 for b, c in c4.items()}
    for b1, v1 in c3.items():
        for b2, v2 in c3.items():
            add(h2, concat(b1, b2), v1 * v2 / 72.0)

    h3: dict = {}
    for beta in enumerate_multiindices(d, 3):
        w = multinomial_weight(beta)
        cbar = sum(gaps.get(beta, 0.0) * rec.sigma() * count for rec, count, gaps in tables) / model.n
        for i in range(d):
            for j in range(d):
                add(h3, concat(beta, concat(unit(d, i), unit(d, j))), -w * cbar[i, j] / 12.0)
    for b, c in c5.items():
        add(h3, b, c / 120.0)
    for b1, v1 in c3.items():
        for b2, v2 in c4.items():
            add(h3, concat(b1, b2), v1 * v2 / 144.0)
        for b2, v2 in c3.items():
            for b3, v3 in c3.items():
                add(h3, concat(concat(b1, b2), b3), v1 * v2 * v3 / 1296.0)
    return h1, h2, h3


def order2_discrepancy_terms(model) -> dict:
    """Closed form of the gap between the order-2 operator dual and the
    explicit order-2 corrector:  -(1/(72 n)) sum over pairs of order-3
    indices of the averaged gap-product d(a, b) = (1/n) sum_r gap_r(a)
    gap_r(b), Hermite index the concatenation.  Exactly O(1/n).  The
    order-3 gaps of a centered law are its order-3 cumulants."""
    d = model.d
    prods: dict = {}
    betas3 = enumerate_multiindices(d, 3)
    tables = [(count, cumulant_table(rec.C, rec.components, 3)) for rec, count in model.records]
    for b1 in betas3:
        w1 = multinomial_weight(b1)
        for b2 in betas3:
            w2 = multinomial_weight(b2)
            total = sum(g.get(b1, 0.0) * g.get(b2, 0.0) * c for c, g in tables)
            dval = total / model.n
            if dval != 0.0:
                b = concat(b1, b2)
                prods[b] = prods.get(b, 0.0) - w1 * w2 * dval / (72.0 * model.n)
    return prods


def _add(a: dict, b: dict) -> dict:
    """a + b on tuple keys, a's keys in order, then b's new ones; zeros dropped."""
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0.0) + c
    return {k: c for k, c in out.items() if c != 0.0}


def _scale(a: dict, s: float) -> dict:
    return {k: s * c for k, c in a.items() if s * c != 0.0}


def _product(a: dict, b: dict) -> dict:
    """The pair loop: each key's products summed from 0.0 in pair order."""
    out: dict = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = tuple(x + y for x, y in zip(k1, k2))
            out[k] = out.get(k, 0.0) + c1 * c2
    return {k: c for k, c in out.items() if c != 0.0}


def _series_product(a: list, b: list) -> list:
    """Product of two graded series (lists of term maps), truncated at the
    last grade of a."""
    out: list = [{} for _ in a]
    for i, ai in enumerate(a):
        for j in range(len(a) - i):
            out[i + j] = _add(out[i + j], _product(ai, b[j]))
    return out


def _power_series(s: list, coeffs: list, d: int) -> list:
    """sum_j coeffs[j] s^j for a series s without grade 0, truncated at its
    last grade N = len(coeffs) - 1."""
    out = [_scale({(0,) * d: 1.0}, coeffs[0])] + [_scale(t, coeffs[1]) for t in s[1:]]
    power = s
    for c in coeffs[2:]:
        power = _series_product(power, s)
        out = [_add(o, _scale(p, c)) for o, p in zip(out, power)]
    return out


def series_loops(rows: list, betas: tuple, counts: list, n: int, d: int, N: int, log: bool = True,
                 absolute: bool = False) -> list:
    """Grades 0..N, as term maps on tuple keys read in the partial
    derivatives, of exp(sum_records count * log(1 + T_record)), or with
    log=False of exp(sum_records count * T_record), by the dict loops, one
    record at a time in record order.  ``rows`` holds each record's Hermite
    moments at the indices ``betas``, and T = sum h_beta D^beta / (n
    beta!).  With ``absolute``, every moment and series coefficient enters
    by its absolute value: the majorant series, whose coefficient at a key
    bounds the sum of the absolute values of the terms that reach it."""
    sign = abs if absolute else (lambda c: c)
    log_coeffs = [0.0] + [sign((-1.0) ** (j + 1) / j) for j in range(1, N + 1)]
    total: list = [{} for _ in range(N + 1)]
    for row, count in zip(rows, counts):
        t: list = [{} for _ in range(N + 1)]
        for b, h in zip(betas, row):
            if h != 0.0:
                t[sum(b) - 2][tuple(b)] = sign(h) / (n * math.prod(map(math.factorial, b)))
        if log:
            t = _power_series(t, log_coeffs, d)
        total = [_add(a, _scale(b, float(count))) for a, b in zip(total, t)]
    return _power_series(total, [1.0 / math.factorial(j) for j in range(N + 1)], d)


def graded_series_reference(model, N: int, log: bool = True, absolute: bool = False) -> list:
    """:func:`series_loops` of the model's records, on the Hermite moments
    of :func:`hermite_moments_reference`."""
    betas = [b for k in range(3, N + 3) for b in enumerate_multiindices(model.d, k)]
    rows = []
    for rec, _ in model.records:
        h = hermite_moments_reference(rec.C, rec.components, N + 2)
        rows.append([h.get(b, 0.0) for b in betas])
    return series_loops(rows, betas, [c for _, c in model.records], model.n, model.d, N, log, absolute)


def edgeworth_expectation_reference(f: Polynomial, gamma, phi) -> float:
    """E[d_gamma f(W) Phi(W)] by Gaussian integration by parts term by
    term: the constant times E[g] for g = d_gamma f, plus each Hermite
    term's coefficient times E[d^beta g], with d^beta g built as its own
    checked Polynomial."""
    g = f.diff(gamma)
    total = phi.constant * g.gaussian_expectation()
    for beta, c in phi.terms.items():
        total += c * g.diff(beta).gaussian_expectation()
    return total
