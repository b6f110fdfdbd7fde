"""Reference moments E[(C Y)^beta] by direct multilinear expansion,
independent of the cumulant tables used by the package.

Each output coordinate's multiplicity splits over the input coordinates;
every split contributes a multinomial count, powers of the matrix entries
and the grouped raw moments of the independent components.  The
summand-by-summand oracles read a model through :func:`summand_list`,
and :func:`sample_sum_reference` draws the scaled sum summand by summand.
:func:`sample_sum_matmul_reference` and :func:`icdf_where_reference` are
the matrix products and ``np.where`` selections that the package replaced by
same-bits shortcuts.  :func:`cumulant_table_reference` and
:func:`recursion_reference` are the cumulant table built one record at a
time and the moment recursion on dict keys, the loops that the package's
one-pass tables and position recursion must match bit for bit; they
compute each law's cumulants from its raw moments on their own.
:func:`hermite_moments_reference` runs that recursion on a record's
cumulants of order 3 and up, the oracle that the corrector's exp(u) - 1
must match within a bound of its majorant, the same recursion on absolute
values.  :func:`cumulant_table` and :func:`moments_from_cumulants` are
views of the package's own table rows and recursion on dict keys, for the
tests that read one record's table or moments by index.
"""

import itertools
import math

import numpy as np

from edgeworth.moments import _LAWS, Summand, _moments, _plan, cumulant_tables, raw_moment, sample_component
from edgeworth.multiindex import check_multiindex, enumerate_multiindices


def summand_list(model) -> list:
    """The model's n summands in order: each record repeated by its count."""
    return [rec for rec, count in model.records for _ in range(count)]


def sample_sum_reference(model, rng: np.random.Generator, size: int = 1) -> np.ndarray:
    """Draws of n^{-1/2} sum_k C_k Y_k, one summand at a time and one
    component at a time: the draw order ``sampling.sample_sum`` keeps for
    records of count 1 and records with a component without a closed-form
    c-fold sum."""
    out = np.zeros((size, model.d))
    scale = 1.0 / math.sqrt(model.n)
    for rec in summand_list(model):
        y = np.empty((size, len(rec.components)))
        for j, comp in enumerate(rec.components):
            y[:, j] = sample_component(comp, rng, size)
        out += y @ rec.C.T
    return out * scale


def sample_sum_matmul_reference(model, rng: np.random.Generator, size: int = 1) -> np.ndarray:
    """``sampling.sample_sum``'s draws, each record's matrix applied as
    ``y @ C.T`` whatever its shape: the law's closed-form c-fold sum per
    component for a record of count c > 1 whose components all have one,
    else summand by summand, component by component."""
    out = np.zeros((size, model.d))
    scale = 1.0 / math.sqrt(model.n)
    for rec, count in model.records:
        laws = [_LAWS[c.kind] for c in rec.components]
        per_summand = count == 1 or any(law.fold_sum is None for law in laws)
        for _ in range(count if per_summand else 1):
            y = np.empty((size, len(rec.components)))
            for j, comp in enumerate(rec.components):
                if per_summand:
                    y[:, j] = sample_component(comp, rng, size)
                else:
                    y[:, j] = laws[j].fold_sum(count, rng, size, *comp.params)
            out += y @ rec.C.T
    return out * scale


def icdf_where_reference(dist, u) -> np.ndarray:
    """The inverse CDF of a two-valued law as an ``np.where`` selection."""
    u = np.asarray(u, dtype=float)
    if dist.kind == "rademacher":
        return np.where(u < 0.5, -1.0, 1.0)
    p, a, b = dist.params
    return np.where(u < 1.0 - p, -b, a)


def pushforward_moment(C: np.ndarray, comps, beta) -> float:
    """E[(C Y)^beta] for independent components with exact raw moments.

    Multilinear expansion: each output coordinate's multiplicity splits
    over the input coordinates; per split a multinomial count, matrix
    entry powers, and grouped component raw moments.
    """
    beta = check_multiindex(beta)
    C = np.atleast_2d(np.asarray(C, dtype=float))
    d, m = C.shape
    if len(beta) != d:
        raise ValueError("index dimension != matrix rows")
    if sum(beta) > 12:
        raise ValueError("pushforward moment order capped at 12")

    states = {(0,) * m: 1.0}
    for i, bi in enumerate(beta):
        if bi == 0:
            continue
        splits = []
        for comp in enumerate_multiindices(m, bi):
            w = math.factorial(bi)
            entry = 1.0
            for j, kij in enumerate(comp):
                w //= math.factorial(kij)
                if kij:
                    entry *= C[i, j] ** kij
            if entry != 0.0:
                splits.append((comp, w * entry))
        new: dict = {}
        for exps, coeff in states.items():
            for comp, w in splits:
                ne = tuple(e + a for e, a in zip(exps, comp))
                new[ne] = new.get(ne, 0.0) + coeff * w
        states = new

    total = 0.0
    for exps, coeff in states.items():
        val = coeff
        for j, e in enumerate(exps):
            if e:
                val *= raw_moment(comps[j], e)
                if val == 0.0:
                    break
        total += val
    return total


def cumulant_table(C, comps, K: int) -> dict:
    """Cumulants kappa_beta(C Y), 2 <= |beta| <= K, of one record, zeros
    left out: its row of the package's ``cumulant_tables``."""
    s = Summand(C, comps)
    plan = _plan(s.C.shape[0], K)
    return {b: v for b, v in zip(plan.table, cumulant_tables([s], K, plan.columns)[0].tolist()) if v != 0.0}


def moments_from_cumulants(kappa: dict, d: int, K: int) -> dict:
    """Moments mu_beta, |beta| <= K, of a centered law in R^d from its
    cumulant table (missing entries are 0), keyed by index: the package's
    recursion mu_{gamma+e_i} = sum_{delta <= gamma} prod_k C(gamma_k,
    delta_k) kappa_{delta+e_i} mu_{gamma-delta}."""
    plan = _plan(d, K)
    return dict(zip(((0,) * d,) + plan.betas, _moments([kappa.get(b, 0.0) for b in plan.table], plan)))


def law_cumulants(dist, K: int) -> list:
    """Cumulants kappa_0, ..., kappa_K of one catalog law from its raw
    moments: kappa_k = m_k - sum_{j<k} C(k-1, j-1) kappa_j m_{k-j}."""
    m = [raw_moment(dist, k) for k in range(K + 1)]
    kappa = [0.0] * (K + 1)
    for k in range(1, K + 1):
        total = 0.0
        for j in range(1, k):
            total += math.comb(k - 1, j - 1) * kappa[j] * m[k - j]
        kappa[k] = m[k] - total
    return kappa


def cumulant_table_reference(C, comps, K: int) -> dict:
    """Cumulants kappa_beta(C Y), 2 <= |beta| <= K, zeros left out, one
    record on its own: per beta, the sum from 0 over the components with a
    nonzero order-|beta| cumulant, in component order, of the cumulant times
    the product over the rows, in row order, of the powers C_ij ** beta_i."""
    rows = np.atleast_2d(np.asarray(C, dtype=float)).tolist()
    powers = [[[row[j] ** b for b in range(K + 1)] for row in rows] for j in range(len(comps))]
    kappas = [law_cumulants(c, K) for c in comps]
    by_order = {l: [(kap[l], pw) for kap, pw in zip(kappas, powers) if kap[l] != 0.0] for l in range(2, K + 1)}
    table = {}
    for l in range(2, K + 1):
        for beta in enumerate_multiindices(len(rows), l):
            v = 0.0
            for k, pw in by_order[l]:
                v += k * math.prod(map(list.__getitem__, pw, beta))
            if v != 0.0:
                table[beta] = v
    return table


def recursion_reference(kappa: dict, d: int, K: int, top=None) -> dict:
    """Moments mu_beta, 1 <= |beta| <= K (or the down-set of ``top``), and
    mu_0 = 1, keyed by index by order and then in descending lexicographic
    order: mu_{gamma+e_i}, i the last nonzero coordinate, is the sum from
    0.0, over 0 != delta <= gamma in lexicographic order whose cumulant
    ``kappa`` holds, of prod_k C(gamma_k, delta_k) kappa_{delta+e_i}
    mu_{gamma-delta}."""
    mu = {(0,) * d: 1.0}
    betas = sorted(itertools.product(range(K + 1), repeat=d), key=lambda b: (sum(b), [-x for x in b]))
    for beta in betas:
        if not 1 <= sum(beta) <= K or (top is not None and any(b > t for b, t in zip(beta, top))):
            continue
        i = max(k for k in range(d) if beta[k])
        e = tuple(int(k == i) for k in range(d))
        gamma = tuple(b - x for b, x in zip(beta, e))
        total = 0.0
        for delta in itertools.product(*(range(g + 1) for g in gamma)):
            kb = tuple(x + y for x, y in zip(delta, e))
            if any(delta) and kb in kappa:
                coef = float(math.prod(math.comb(g, x) for g, x in zip(gamma, delta)))
                total += coef * kappa[kb] * mu[tuple(g - x for g, x in zip(gamma, delta))]
        mu[beta] = total
    return mu


def hermite_moments_reference(C, comps, K: int, absolute: bool = False) -> dict:
    """Nonzero Hermite moments, 3 <= |beta| <= K, of one record: the
    recursion on its cumulant table without the order-2 entries.  With
    ``absolute``, every cumulant enters by its absolute value: the
    majorant, whose moment at beta bounds the sum of the absolute values
    of the terms that reach it."""
    sign = abs if absolute else (lambda v: v)
    kappa = {b: sign(v) for b, v in cumulant_table_reference(C, comps, K).items() if sum(b) >= 3}
    d = np.atleast_2d(C).shape[0]
    return {b: v for b, v in recursion_reference(kappa, d, K).items() if sum(b) >= 3 and v != 0.0}


def sum_moments_reference(model, K: int, top=None) -> dict:
    """Exact E[S_n^beta], |beta| <= K (or the down-set of ``top``): the
    record tables accumulated one record at a time, count * value *
    n^{-|delta|/2} per nonzero entry, then the recursion."""
    scale = [float(model.n) ** (-0.5 * l) for l in range(K + 1)]
    kappa: dict = {}
    for rec, count in model.records:
        for delta, v in cumulant_table_reference(rec.C, rec.components, K).items():
            if top is None or all(b <= t for b, t in zip(delta, top)):
                kappa[delta] = kappa.get(delta, 0.0) + count * v * scale[sum(delta)]
    return recursion_reference(kappa, model.d, K, top)
