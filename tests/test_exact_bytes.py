"""Byte pins of the exact layer on non-identically distributed models.

The CSV pins guard these values only through iid models.  Here the repr of
every float of the cumulant tables, the exact sum moment tables, the
corrector polynomials of counted non-iid records and the exact corrected
expectations against them is hashed, so a change in how they are computed
must keep each operation and its order.
"""

import builtins
import hashlib
import itertools
import math

import numpy as np
import pytest

from edgeworth import corrector, hermite, moments
from edgeworth.corrector import CorrectorPolynomial, corrector_polynomial, edgeworth_expectation, explicit_order3
from edgeworth.moments import (
    ModelSpec,
    Summand,
    exact_sum_moment,
    exact_sum_moment_table,
    gaussian_mixture,
    rademacher,
    skewed_two_point,
    standard_normal,
    uniform_centered,
)
from edgeworth.hermite import Polynomial
from edgeworth.multiindex import enumerate_multiindices
from moment_reference import cumulant_table

KINDS = (rademacher(), uniform_centered(), skewed_two_point(0.3),
         gaussian_mixture(0.2, 0.8, 1.0, -0.2, math.sqrt(0.8)), standard_normal())


def _model(seed: int, d: int, shapes: list) -> ModelSpec:
    """Records of (components, count) with Gaussian mixing matrices; the
    component kinds cycle through the catalog."""
    rng = np.random.default_rng(seed)
    kinds = itertools.cycle(KINDS)
    records = []
    for m, count in shapes:
        C = rng.normal(size=(d, m)) + np.eye(d, m)
        records.append((Summand(C, tuple(next(kinds) for _ in range(m))), count))
    return ModelSpec(d=d, records=tuple(records))


# (model, N of the corrector, K of the moment and cumulant tables)
MODELS = {
    "d1": (_model(1, 1, [(1, 1), (1, 3), (2, 1), (1, 2), (3, 1), (1, 1), (2, 4)]), 4, 8),
    "d2": (_model(2, 2, [(2, 1), (2, 2), (1, 1), (3, 1), (2, 5), (2, 1)]), 4, 8),
    "d3": (_model(3, 3, [(3, 1), (3, 2), (2, 1), (3, 1), (1, 3)]), 3, 6),
}

PINS = {
    "d1": {
        "corrector": "0011fb729ff4f9247f2c3939cf678ec9f02c0d456c8f9d5255270bc4e0021152",
        "sum_moments": "f31aca41c7bc875b8a3966998bbc7620246f42063bd269448d50bf489c814102",
        "cumulants": "92f452826a3f7a17659cd8906167ba7972fda158d92fff6b799366e84779e94d",
        "expectation": "cfd2df13b01d82bfabdf7b1b2d564eec3c965fd453a397f79c2871e9f6cf3dd3",
    },
    "d2": {
        "corrector": "469b6a2e8aa956123cd5f547925943680babfb0160d6818a18cb6966bfbeb6e9",
        "sum_moments": "e045d5bd68ee4eaa295b4d0b35790c39caa64ed139ad8a035766c05d9a4d1607",
        "cumulants": "633635c43ffeecb7c6a0fbd81269f42981a5c79509ee64d866f8b58a07126c75",
        "expectation": "ecde16f1a32b82679ba68da4cbed591d97ea01085624cd4bd697d3f05ceaf7ad",
    },
    "d3": {
        "corrector": "5f589a3862bb24dae9434617451f3f6cc9c6b332c1c698feb0dc1ff5c91f4c38",
        "sum_moments": "6ea93e9674a79826aa0084720c1fab0ffcc08528d9779840eb41a2a8c059f132",
        "cumulants": "5b2130b7da2d8827b641d4547f596ded10ca8e4a8794834815e58ac48d29a5d1",
        "expectation": "d6f4fdeb5231addf817a11074bf784a3b26f2d569d3b6566d1c7e53d1707700b",
    },
}


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _expectations(name) -> list:
    """E[d_gamma f(W) Phi(W)] against the model's corrector, for gamma = 0
    and one gamma != 0, with f every monomial of order <= K under seeded
    coefficients, so every Hermite term of Phi up to order K is paired."""
    model, N, K = MODELS[name]
    d = model.d
    phi = corrector_polynomial(model, N)
    rng = np.random.default_rng(len(name) + d)
    betas = [b for order in range(K + 1) for b in enumerate_multiindices(d, order)]
    f = Polynomial(d, {b: float(rng.normal()) for b in betas})
    gammas = [(0,) * d, (2,) + (1,) * (d - 1)]
    return [edgeworth_expectation(f, gamma, phi) for gamma in gammas]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_exact_layer_bytes(name):
    model, N, K = MODELS[name]
    got = {
        "corrector": _sha(corrector_polynomial(model, N).terms),
        "sum_moments": _sha(exact_sum_moment_table(model, K)),
        "cumulants": _sha([cumulant_table(s.C, s.components, K) for s, _ in model.records]),
        "expectation": _sha(_expectations(name)),
    }
    assert got == PINS[name]


def _compensated_sum(iterable, start=0):
    """sum() as Python 3.12 computes it: Neumaier-compensated over floats,
    the builtin over anything else."""
    items = list(iterable)
    if type(start) not in (int, float) or not all(type(x) is float for x in items):
        return builtins.sum(items, start)
    total, c = float(start), 0.0
    for x in items:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


@pytest.mark.parametrize("name", sorted(MODELS))
def test_exact_layer_bytes_do_not_depend_on_sum(monkeypatch, name):
    # the exact layer adds its floats in explicit loops from 0.0, so the
    # pins hold whether sum() compensates (Python 3.12+) or not
    for module in (moments, hermite, corrector):
        monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)
    moments._cumulant_factors.cache_clear()
    try:
        test_exact_layer_bytes(name)
        # ((0.0 + 1.0) + 3e16) - 3e16 is 0.0 added in order, 1.0 compensated
        f = hermite.Polynomial(1, {(0,): 1.0, (2,): 3e16, (4,): -1e16})
        assert repr(f.gaussian_expectation()) == "0.0"
    finally:
        moments._cumulant_factors.cache_clear()


@pytest.mark.parametrize("name", sorted(MODELS))
def test_exact_sum_moment_is_its_table_entry(name):
    # the single moment reads the down-set of beta; every entry must be
    # the whole table's bit for bit
    model = MODELS[name][0]
    for K in range(7):
        table = exact_sum_moment_table(model, K)
        for beta in itertools.product(range(K + 1), repeat=model.d):
            if sum(beta) == K:
                assert repr(exact_sum_moment(model, beta)) == repr(table[beta])


def _fields(phi) -> tuple:
    return phi.d, repr(phi.constant), phi.n, phi.order, repr(list(phi.terms.items()))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_unchecked_correctors_equal_the_checked_constructor(name):
    # corrector_polynomial and explicit_order3 hand their canonical terms to
    # the unchecked constructor: the checked one must build the same
    # corrector from the same fields, terms and key order included
    model, N, _ = MODELS[name]
    for phi in (corrector_polynomial(model, N),) + explicit_order3(model):
        checked = CorrectorPolynomial(d=phi.d, constant=phi.constant, terms=dict(phi.terms), n=phi.n, order=phi.order)
        assert _fields(phi) == _fields(checked)
        shuffled = CorrectorPolynomial(phi.d, phi.constant, dict(reversed(phi.terms.items())), phi.n, phi.order)
        assert _fields(phi) == _fields(shuffled)
