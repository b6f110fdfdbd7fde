import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgeworth import corrector, moments
from edgeworth.corrector import (
    CorrectorPolynomial,
    _graded_series,
    corrector_operator,
    corrector_polynomial,
    edgeworth_expectation,
    explicit_order3,
    normalize,
    order_discrepancy,
)
from edgeworth.errors import NumericalGuardError
from edgeworth.hermite import Polynomial
from edgeworth.moments import (
    ModelSpec,
    Summand,
    exact_sum_moment,
    gaussian_mixture,
    iid_model,
    iid_vector_model,
    rademacher,
    skewed_two_point,
    standard_normal,
    two_point,
    uniform_centered,
)
from conftest import CATALOG_KINDS
from corrector_reference import (
    apply_operator,
    corrector_index_tuples,
    corrector_operator_dp,
    corrector_operator_enumerated,
    edgeworth_expectation_reference,
    explicit_order3_closed_form,
    graded_series_reference,
    order2_discrepancy_terms,
)
from hermite_helpers import random_polynomial, rodrigues_coeffs, univariate_polynomial


def random_model(rng, d, n, normalized=True):
    kinds = [rademacher(), uniform_centered(), skewed_two_point(0.25),
             gaussian_mixture(0.5, 0.6, 0.8, -0.6, 0.8), standard_normal()]
    summands = tuple(
        Summand(
            rng.normal(size=(d, d)) + np.eye(d),
            tuple(kinds[int(rng.integers(len(kinds)))] for _ in range(d)),
        )
        for _ in range(n)
    )
    model = ModelSpec(d=d, records=tuple((s, 1) for s in summands))
    return normalize(model) if normalized else model


def test_index_tuples_examples():
    assert corrector_index_tuples(1, 1, 3) == [((3, 0),)]
    assert corrector_index_tuples(1, 3, 3) == [((3, 1),), ((5, 0),)]
    assert corrector_index_tuples(2, 3, 3) == [((3, 0), (4, 0)), ((4, 0), (3, 0))]
    assert corrector_index_tuples(2, 2, 3) == [((3, 0), (3, 0))]
    for lam in corrector_index_tuples(2, 4, 4):
        assert sum(l for l, _ in lam) + 2 * sum(lp for _, lp in lam) == 4 + 2 * 2


def test_operator_algebra():
    # operators are polynomials read in the partial derivatives
    a = Polynomial(1, {(2,): 1.5})
    b = Polynomial(1, {(1,): 2.0, (0,): 1.0})
    c = a * b
    assert c.terms == {(3,): 3.0, (2,): 1.5}
    assert (a * b).terms == (b * a).terms
    f = Polynomial(1, {(4,): 1.0})
    assert apply_operator(a, f).terms == {(2,): 18.0}
    assert isinstance(corrector_operator(iid_model(uniform_centered(), 10), 2, 2), Polynomial)


def test_gamma_zero_for_gaussian_model():
    model = iid_model(standard_normal(), 25)
    for k in (1, 2, 3):
        assert not corrector_operator(model, k, 3).terms


def test_gamma_uniform_examples():
    model = iid_model(uniform_centered(), 100)
    assert not corrector_operator(model, 1, 2).terms
    g2 = corrector_operator(model, 2, 2)
    assert set(g2.terms) == {(4,)}
    assert g2.terms[(4,)] == pytest.approx(-1.0 / 20.0, abs=1e-15)


def test_gamma_dp_matches_enumeration():
    rng = np.random.default_rng(0)
    cases = [
        (random_model(rng, 2, 6, normalized=False), 3),
        (iid_model(skewed_two_point(0.3), 8), 3),
        (random_model(np.random.default_rng(4), 3, 6), 4),
    ]
    for model, N in cases:
        for k in range(1, N + 1):
            ops = [
                corrector_operator(model, k, N),
                corrector_operator_dp(model, k, N),
                corrector_operator_enumerated(model, k, N),
            ]
            keys = set().union(*(op.terms for op in ops))
            for a in ops[:2]:
                assert max(abs(a.terms.get(t, 0.0) - ops[2].terms.get(t, 0.0)) for t in keys) < 1e-12


def test_build_cost_is_per_record(monkeypatch):
    # one batched cumulant-table call, one row per record, is the unit of
    # work of corrector and moment builds; the number of calls and of rows
    # must depend on the records, not on n
    calls = []
    real = moments.cumulant_tables

    def counted(summands, *args):
        calls.append(len(summands))
        return real(summands, *args)

    monkeypatch.setattr(moments, "cumulant_tables", counted)

    def cost(model, N, betas):
        calls.clear()
        corrector_polynomial(model, N)
        for beta in betas:
            exact_sum_moment(model, beta)
        return list(calls)

    laws = (skewed_two_point(0.2), uniform_centered())
    for make, N, betas in [
        (lambda n: iid_model(laws[0], n), 4, [(8,), (5,)]),
        (lambda n: iid_vector_model(laws, n), 4, [(4, 4), (3, 2)]),
    ]:
        small = cost(make(10), N, betas)
        assert small == [1] * (1 + len(betas))
        assert cost(make(10**6), N, betas) == small

    # non-iid: one call over all records builds the tables of orders up to
    # N + 2 = 5 for all corrector orders, and one the moment's
    kinds = [rademacher(), uniform_centered(), skewed_two_point(0.25),
             gaussian_mixture(0.5, 0.6, 0.8, -0.6, 0.8)]
    rng = np.random.default_rng(12)
    records = tuple(
        (Summand(rng.normal(size=(3, 3)) + np.eye(3), tuple(kinds[int(rng.integers(4))] for _ in range(3))), 1)
        for _ in range(50)
    )
    model = normalize(ModelSpec(d=3, records=records))
    assert cost(model, 3, [(2, 1, 1)]) == [50, 50]
    # the pair table is built once per (d, N): a second build builds none
    built = corrector._layout.cache_info().misses
    assert cost(model, 3, [(2, 1, 1)]) == [50, 50]
    assert corrector._layout.cache_info().misses == built


def test_odd_orders_vanish_for_symmetric_components():
    model = iid_model(uniform_centered(), 50)
    for k in (1, 3):
        assert not corrector_operator(model, k, 4).terms


def test_corrector_polynomial_basics():
    assert corrector_polynomial(iid_model(uniform_centered(), 10), 0).terms == {}
    assert corrector_polynomial(iid_model(standard_normal(), 10), 3).terms == {}
    phi = corrector_polynomial(iid_model(uniform_centered(), 100), 2)
    assert phi.constant == 1.0
    assert phi.terms == pytest.approx({(4,): -5e-4})
    # mean one: Hermite terms integrate to zero
    assert edgeworth_expectation(Polynomial(1, {(0,): 1.0}), (0,), phi) == pytest.approx(1.0)


def test_corrector_mean_one_random_model():
    rng = np.random.default_rng(21)
    model = random_model(rng, 2, 12)
    phi = corrector_polynomial(model, 3)
    one = Polynomial(2, {(0, 0): 1.0})
    assert edgeworth_expectation(one, (0, 0), phi) == pytest.approx(1.0, abs=1e-12)


def test_hermitize_duality():
    # E[(Gamma f)(W)] = E[f(W) H_Gamma(W)] for a sample operator
    rng = np.random.default_rng(2)
    model = random_model(rng, 2, 5, normalized=False)
    op = corrector_operator(model, 2, 3)
    f = Polynomial(2, {(2, 1): 1.0, (0, 4): -0.5, (1, 0): 2.0, (2, 2): 0.25})
    lhs = apply_operator(op, f).gaussian_expectation()
    dual = CorrectorPolynomial(d=2, constant=0.0, terms=dict(op.terms))
    rhs = edgeworth_expectation(f, (0, 0), dual)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
    # spec example: a * d^4 -> a * H_4, E[d^4 x^4] = 24 = E[x^4 H_4]
    quart = Polynomial(1, {(4,): 1.0})
    assert apply_operator(quart, Polynomial(1, {(4,): 1.0})).gaussian_expectation() == 24.0


def test_order1_identity_and_order2_discrepancy():
    rng = np.random.default_rng(5)
    model = random_model(rng, 2, 10)
    x = rng.normal(size=(25, 2))
    assert np.max(np.abs(order_discrepancy(model, 1, x))) < 1e-12

    tp = skewed_two_point(0.2)
    x1 = np.array([0.7])
    vals = {n: float(n * order_discrepancy(iid_model(tp, n), 2, x1)) for n in (50, 100, 200)}
    spread = max(abs(a - b) for a in vals.values() for b in vals.values())
    assert spread < 1e-10
    closed = CorrectorPolynomial(
        d=1, constant=0.0, terms=order2_discrepancy_terms(iid_model(tp, 100))
    )
    assert 100 * closed.evaluate(x1) == pytest.approx(vals[100], abs=1e-10)
    # symmetric model: no third-order gaps, so no order-2 discrepancy
    assert order2_discrepancy_terms(iid_model(uniform_centered(), 40)) == {}
    assert order_discrepancy(iid_model(uniform_centered(), 40), 2, x1) == pytest.approx(0.0, abs=1e-15)


def test_explicit_order3_symmetric_first_corrector_vanishes():
    model = iid_model(uniform_centered(), 30)
    h1, h2, h3 = explicit_order3(model)
    assert h1.terms == {}
    assert h2.terms == pytest.approx({(4,): -1.0 / 20.0})
    model_r = iid_model(rademacher(), 30)
    assert explicit_order3(model_r)[1].terms == pytest.approx({(4,): -1.0 / 12.0})


def test_explicit_order3_matches_closed_form():
    # non-iid models, where the covariance-weighted order-3 term of h3
    # differs from record to record; the seeds draw skewed laws, so no
    # grade is empty
    for d, n, seed in [(1, 7, 42), (2, 6, 42), (3, 5, 43)]:
        model = random_model(np.random.default_rng(seed), d, n)
        for h, ref in zip(explicit_order3(model), explicit_order3_closed_form(model)):
            scale = max(abs(c) for c in ref.values())
            assert scale > 0.0
            keys = set(h.terms) | set(ref)
            assert max(abs(h.terms.get(b, 0.0) - ref.get(b, 0.0)) for b in keys) < 1e-12 * scale


def test_edgeworth_expectation_matches_exact_moments():
    model = iid_model(uniform_centered(), 100)
    phi = corrector_polynomial(model, 2)
    f = Polynomial(1, {(4,): 1.0})
    val = edgeworth_expectation(f, (0,), phi)
    assert val == pytest.approx(3.0 - 1.2 / 100.0, abs=1e-13)
    assert val == pytest.approx(exact_sum_moment(model, (4,)), abs=1e-13)
    h4 = univariate_polynomial(rodrigues_coeffs(4))
    assert edgeworth_expectation(h4, (0,), phi) == pytest.approx(-0.012, abs=1e-14)


def test_exact_vs_quadrature_backends():
    # a Polynomial takes the exact path, the same polynomial as a plain callable the quadrature
    rng = np.random.default_rng(9)
    model = random_model(rng, 2, 8)
    phi = corrector_polynomial(model, 2)
    for _ in range(3):
        f = random_polynomial(rng, 2, degree=6)
        exact = edgeworth_expectation(f, (0, 0), phi)
        quad = edgeworth_expectation(f.__call__, (0, 0), phi)
        assert quad == pytest.approx(exact, abs=1e-8 * max(1.0, abs(exact)))
    # plain callable against the trivial corrector: plain Gaussian expectation
    trivial = CorrectorPolynomial(d=1, constant=1.0, terms={})
    val = edgeworth_expectation(lambda x: np.cos(x[:, 0]), (0,), trivial)
    assert val == pytest.approx(np.exp(-0.5), abs=1e-10)
    with pytest.raises(TypeError):
        edgeworth_expectation(lambda x: x[:, 0], (1, 0), phi)


def test_evaluate_checks_point_dimension():
    one, two = CorrectorPolynomial(1, 1.0, {(2,): 0.5}), CorrectorPolynomial(2, 1.0, {(1, 1): 0.5})
    # 1 + 0.5 He_2(x), He_2(x) = x^2 - 1
    assert one.evaluate([2.0]) == 2.5 and np.array_equal(one.evaluate([[2.0], [0.0]]), [2.5, 0.5])
    for phi, x in [(one, 2.0), (two, 2.0), (one, np.ones((4, 2))), (two, np.ones((4, 1))),
                   (one, np.ones((2, 3, 1)))]:
        with pytest.raises(ValueError, match="point dimension mismatch"):
            phi.evaluate(x)


def test_quadrature_guard_trips_for_rough_function():
    phi = CorrectorPolynomial(d=1, constant=1.0, terms={})

    def rough(x):
        return np.abs(x[:, 0])  # kink: the 40- and 80-node rules differ by about 4e-3

    with pytest.raises(NumericalGuardError):
        edgeworth_expectation(rough, (0,), phi)


def test_derivative_index_exact_mode():
    # E[d_gamma f(W) Phi] equals the expectation of the differentiated polynomial
    model = iid_model(skewed_two_point(0.2), 64)
    phi = corrector_polynomial(model, 1)
    f = Polynomial(1, {(4,): 1.0})
    lhs = edgeworth_expectation(f, (2,), phi)
    rhs = edgeworth_expectation(f.diff((2,)), (0,), phi)
    assert lhs == pytest.approx(rhs, rel=1e-14)


def test_normalize():
    model = iid_model(uniform_centered(), 10)
    scaled = ModelSpec(d=1, records=((Summand(2.0 * np.eye(1), (uniform_centered(),)), 10),))
    normed = normalize(scaled)
    assert normed.records[0][0].C[0, 0] == pytest.approx(1.0)
    again = normalize(normed)
    assert again.records[0][0].C[0, 0] == pytest.approx(1.0)
    assert normalize(model).records[0][0].C[0, 0] == pytest.approx(1.0)
    rng = np.random.default_rng(31)
    rand = random_model(rng, 2, 7, normalized=False)
    assert np.max(np.abs(normalize(rand).covariance_mean() - np.eye(2))) <= 1e-10
    degenerate = ModelSpec(
        d=2,
        records=(
            (Summand(np.array([[1.0, 0.0], [0.0, 0.0]]), (rademacher(), rademacher())), 1),
            (Summand(np.array([[1.0, 0.0], [0.0, 0.0]]), (rademacher(), rademacher())), 1),
        ),
    )
    with pytest.raises(NumericalGuardError):
        normalize(degenerate)


def test_corrector_json_roundtrip():
    phi = corrector_polynomial(iid_model(skewed_two_point(0.2), 50), 3)
    doc = json.loads(phi.to_json_str())
    back = CorrectorPolynomial.from_json(doc)
    assert back.d == phi.d and back.constant == phi.constant
    assert back.terms == phi.terms
    x = np.linspace(-2, 2, 7).reshape(-1, 1)
    np.testing.assert_array_equal(back.evaluate(x), phi.evaluate(x))


@st.composite
def _corrector_polynomials(draw):
    d = draw(st.integers(1, 3))
    coeff = st.floats(allow_nan=False, allow_infinity=False)
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 6)] * d), coeff, max_size=8))
    return CorrectorPolynomial(
        d=d,
        constant=draw(coeff),
        terms=terms,
        n=draw(st.none() | st.integers(1, 10**6)),
        order=draw(st.none() | st.integers(0, 8)),
    )


@settings(derandomize=True, deadline=None, max_examples=100)
@given(phi=_corrector_polynomials())
def test_corrector_json_roundtrip_property(phi):
    back = CorrectorPolynomial.from_json(json.loads(phi.to_json_str()))
    assert (back.d, back.constant, back.n, back.order) == (phi.d, phi.constant, phi.n, phi.order)
    assert list(back.terms.items()) == list(phi.terms.items())
    assert back.to_json_str() == phi.to_json_str()


_NOT_JSON_INTEGER = st.one_of(
    st.booleans(), st.floats(allow_nan=False).filter(lambda x: not x.is_integer()), st.text(max_size=3),
    st.lists(st.integers(), max_size=2),
)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(phi=_corrector_polynomials(), data=st.data())
def test_corrector_json_rejects_non_integers(phi, data):
    doc = json.loads(phi.to_json_str())
    name = data.draw(st.sampled_from(["d", "n", "N", "beta"] if doc["terms"] else ["d", "n", "N"]))
    value = data.draw(_NOT_JSON_INTEGER)
    if name == "beta":
        data.draw(st.sampled_from(doc["terms"]))["beta"][data.draw(st.integers(0, phi.d - 1))] = value
    else:
        doc[name] = value
    with pytest.raises(ValueError, match=f"corrector field '{name}'"):
        CorrectorPolynomial.from_json(doc)


def test_corrector_json_loose_document_rejected():
    doc = {"d": 1, "constant": 1.0, "terms": [{"beta": [1.7], "coeff": 2.0}], "n": "abc", "N": 2.5}
    with pytest.raises(ValueError, match="corrector field 'beta' must be an integer, got 1.7"):
        CorrectorPolynomial.from_json(doc)
    doc["terms"][0]["beta"] = [1]
    with pytest.raises(ValueError, match="corrector field 'n' must be an integer, got 'abc'"):
        CorrectorPolynomial.from_json(doc)
    doc["n"] = 4
    with pytest.raises(ValueError, match="corrector field 'N' must be an integer, got 2.5"):
        CorrectorPolynomial.from_json(doc)
    doc["N"] = 2
    doc["d"] = 1.7
    with pytest.raises(ValueError, match="corrector field 'd' must be an integer, got 1.7"):
        CorrectorPolynomial.from_json(doc)


@pytest.mark.parametrize("field, value, message", [
    # the first two used to load as the constant 1.5 and 1.0
    pytest.param("constant", "1.5", "corrector field 'constant' must be a number, got '1.5'", id="string-constant"),
    pytest.param("constant", True, "corrector field 'constant' must be a number, got True", id="bool-constant"),
    pytest.param("coeff", math.nan, "corrector field 'coeff' must be a number, got nan", id="nan-coeff"),
    pytest.param("terms", 3, "corrector field 'terms' must be a JSON list, got 3", id="number-terms"),
    # used to be dropped
    pytest.param("order", 2, "corrector: unknown fields ['order']", id="unknown-field"),
])
def test_corrector_json_ill_typed_field_rejected(field, value, message):
    doc = {"d": 1, "constant": 1.0, "terms": [{"beta": [3], "coeff": 2.0}], "n": 4, "N": 2}
    if field == "coeff":
        doc["terms"][0]["coeff"] = value
    else:
        doc[field] = value
    with pytest.raises(ValueError) as err:
        CorrectorPolynomial.from_json(doc)
    assert str(err.value) == message


def test_corrector_rejects_index_of_wrong_dimension():
    doc = {"d": 2, "constant": 1.0, "terms": [{"beta": [3], "coeff": 1.0}]}
    with pytest.raises(ValueError, match="Hermite index"):
        CorrectorPolynomial.from_json(doc)
    with pytest.raises(ValueError, match="Hermite index"):
        CorrectorPolynomial(d=1, constant=0.0, terms={(1, 0): 1.0})
    # the library builds its own terms unchecked; the public constructor
    # still checks every index
    with pytest.raises(ValueError, match=r"^negative multiplicity in \(2, -1\)$"):
        CorrectorPolynomial(d=2, constant=1.0, terms={(3, 0): 0.5, (2, -1): 1.0})


def test_gamma_requires_valid_order():
    model = iid_model(rademacher(), 5)
    with pytest.raises(ValueError):
        corrector_operator(model, 4, 3)
    with pytest.raises(ValueError):
        corrector_index_tuples(2, 1, 3)


def test_corrector_order_cap():
    # the series reads Hermite moments up to order N + 2 <= MAX_DEGREE = 12
    model = iid_model(rademacher(), 10)
    message = r"^corrector order N = 11 is above its cap of 10 \(moments of order N \+ 2 <= 12\)$"
    with pytest.raises(ValueError, match=message):
        corrector_polynomial(model, 11)
    with pytest.raises(ValueError, match=message):
        corrector_operator(model, 2, 11)
    assert corrector_polynomial(model, 10).order == 10


# mixing entries that put exact and signed zeros into the moments (identity
# and sparse mixing), and floats of either sign
_ENTRY = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5]), st.floats(-2.0, 2.0))
_LAWS = CATALOG_KINDS + (two_point(0.2, 2.0, 0.5),)

# records whose log series has a coefficient that sums to exactly 0.0: in
# d = 2 from N = 3 on and in d = 3 from N = 2 on, when n is a power of 2
_CANCELLING = {
    2: Summand(np.array([[1.0, -2.0, 1.0], [1.0, 0.0, 0.0]]), (two_point(0.2, 2.0, 0.5),) * 3),
    3: Summand(np.array([[-1.0, -2.0], [-2.0, 2.0], [1.0, 0.0]]), (two_point(0.2, 2.0, 0.5),) * 2),
}


@st.composite
def _counted_models(draw):
    """1 to 12 counted records drawn from a pool of records, each pool
    record with its negation -C, so that zero patterns repeat and a C, -C
    pair cancels in the running total; d = 2 and 3 pools hold a record
    whose log series cancels to 0.0."""
    d = draw(st.integers(1, 3), label="d")
    pool = []
    for _ in range(draw(st.integers(1, 3), label="pool")):
        m = draw(st.integers(1, 3), label="m")
        C = draw(st.lists(st.lists(_ENTRY, min_size=m, max_size=m), min_size=d, max_size=d), label="C")
        pool.append(Summand(np.array(C), tuple(draw(st.lists(st.sampled_from(_LAWS), min_size=m, max_size=m)))))
    if d in _CANCELLING:
        pool.append(_CANCELLING[d])
    pool += [Summand(-s.C, s.components) for s in pool]
    records = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 5)), min_size=1, max_size=12),
                   label="records")
    return ModelSpec(d=d, records=tuple(records))


LOOPS_BOUND = 1e-13  # largest |block algebra - dict loops| over the grade's scale


def _loops_gap(model, N: int, log: bool) -> tuple:
    """The largest |coefficient - dict loops' coefficient| over the grade's
    scale, on every key of every grade, and the keys that exactly one side
    holds.  The scale of grade k is the largest coefficient of grade k of
    the majorant series, the dict loops on absolute values: for the sum
    over records it is sum_records count * the record's largest |log-series
    coefficient| in the grade, so a cancelling C, -C pair is measured
    against the size of its terms, and it carries that sum of absolute
    values through the log and exp products.  A key the majorant lacks is
    a structural zero, which both sides must drop."""
    got = [g.terms for g in _graded_series(model, N, log)]
    loops = graded_series_reference(model, N, log)
    majorant = graded_series_reference(model, N, log, absolute=True)
    worst, one_sided = 0.0, set()
    for k, (a, b, m) in enumerate(zip(got, loops, majorant)):
        assert set(a) <= set(m) and set(b) <= set(m), f"grade {k}: a structural zero is nonzero"
        scale = max(m.values(), default=0.0)
        for key in m:
            x, y = a.get(key, 0.0), b.get(key, 0.0)
            if (x == 0.0) != (y == 0.0):
                one_sided.add((k, key))
            if x != y:
                worst = max(worst, abs(x - y) / scale)
    return worst, one_sided


@settings(derandomize=True, deadline=None, max_examples=200)
@given(model=_counted_models(), N=st.integers(0, 4), log=st.booleans())
def test_series_match_the_dict_loops(model, N, log):
    # every coefficient of every grade is the per-record dict loops' within
    # the bound; a coefficient whose nonzero terms cancel in exact
    # arithmetic may round to 0.0 on one side only, within the bound
    assert _loops_gap(model, N, log)[0] <= LOOPS_BOUND


def _cancel_models() -> list:
    """(model, N): records whose log series holds a coefficient that sums to
    exactly 0.0, and a C, -C pair whose running total reaches 0.0, each
    before a record whose series holds the same keys."""
    rng = np.random.default_rng(35)
    dense = {d: Summand(rng.normal(size=(d, d)) + np.eye(d), (skewed_two_point(0.3),) * d) for d in (2, 3)}
    skewed = Summand(np.array([[1.0, 0.5], [-0.3, 1.2]]), (skewed_two_point(0.2), two_point(0.2, 2.0, 0.5)))
    negated = Summand(-skewed.C, skewed.components)
    return [
        (ModelSpec(d=2, records=((_CANCELLING[2], 1), (_CANCELLING[2], 1), (dense[2], 2))), 3),
        (ModelSpec(d=3, records=((_CANCELLING[3], 2), (_CANCELLING[3], 2), (dense[3], 4))), 2),
        (ModelSpec(d=2, records=((skewed, 1), (negated, 1), (dense[2], 1))), 3),
        (ModelSpec(d=2, records=((skewed, 3), (negated, 3), (dense[2], 1), (skewed, 1))), 2),
    ]


@pytest.mark.parametrize("log", [True, False])
@pytest.mark.parametrize("case", range(4))
def test_cancelling_records_match_the_dict_loops(case, log):
    # exact cancellations, within a record's series and across a C, -C
    # pair, leave the same exactly-zero terms on both sides
    worst, one_sided = _loops_gap(*_cancel_models()[case], log)
    assert worst <= LOOPS_BOUND and not one_sided


@pytest.mark.parametrize("records", [2, 5, 7])
def test_record_blocks_keep_the_bytes(monkeypatch, records):
    # blocks of one and of two records: every byte is the one block's, as
    # the records add in record order either way
    rng = np.random.default_rng(records)
    skewed = (skewed_two_point(0.2), skewed_two_point(0.35), gaussian_mixture(0.2, 0.8, 1.0, -0.2, math.sqrt(0.8)))
    model = ModelSpec(d=3, records=tuple((Summand(rng.normal(size=(3, 3)), skewed), k % 3 + 1)
                                         for k in range(records)))
    for N in (3, 4):
        whole = repr(corrector._series(model, N)[1].tolist())
        monkeypatch.setattr(moments, "TABLE_BLOCK", 1)
        for per_block in (1, 2):
            monkeypatch.setattr(corrector, "TABLE_BLOCK", per_block * corrector._layout(3, N).width)
            assert repr(corrector._series(model, N)[1].tolist()) == whole
        monkeypatch.undo()


def test_cold_high_order_build_memory():
    # a d = 3, N = 8 build of ten records builds its pair table (382k
    # pairs) one block pair at a time
    rng = np.random.default_rng(8)
    model = ModelSpec(d=3, records=tuple((Summand(rng.normal(size=(3, 3)), (skewed_two_point(0.3),) * 3), 1)
                                         for _ in range(10)))
    corrector._layout.cache_clear()
    tracemalloc.start()
    try:
        corrector_polynomial(model, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20


_F_COEFF = st.one_of(st.sampled_from([1.0, -1.0, 0.5, 3.0]), st.floats(-4.0, 4.0).filter(lambda c: c != 0.0))


@st.composite
def _pairings(draw):
    """(f, gamma, Phi): a Phi of order N = 0..4 of a counted model, at times
    with another constant and one coefficient set to +inf, and f of 1 to 6
    terms; gamma != 0 can leave g = d_gamma f without terms, whose
    expectation is 0.0, so that the total starts at -0.0 for a negative
    constant."""
    model = draw(_counted_models())
    d = model.d
    phi = corrector_polynomial(model, draw(st.integers(0, 4), label="N"))
    constant = draw(st.sampled_from([phi.constant, 0.0, -0.0, -1.0]), label="constant")
    terms = dict(phi.terms)
    if draw(st.booleans(), label="inf"):
        terms[draw(st.tuples(*[st.integers(0, 6)] * d), label="inf at")] = math.inf
    phi = CorrectorPolynomial(d, constant, terms, phi.n, phi.order)
    f = Polynomial(d, draw(st.dictionaries(st.tuples(*[st.integers(0, 5)] * d), _F_COEFF, min_size=1, max_size=6),
                           label="f"))
    return f, draw(st.tuples(*[st.integers(0, 2)] * d), label="gamma"), phi


# the total is -0.0 (-1 * E[x] = -0.0) and no alpha reaches (4,): the
# reference adds 0.5 * 0.0 and ends at +0.0
_NEGATIVE_ZERO = (Polynomial(1, {(1,): 1.0}), (0,), CorrectorPolynomial(1, -1.0, {(4,): 0.5}))
# no alpha reaches the +inf coefficient, whose product with 0.0 is nan
_INFINITE = (Polynomial(2, {(1, 0): 2.0, (2, 2): -1.0}), (0, 1),
             CorrectorPolynomial(2, 1.0, {(3, 0): math.inf, (1, 1): 0.25}))


@settings(derandomize=True, deadline=None, max_examples=200)
@example(case=_NEGATIVE_ZERO)
@example(case=_INFINITE)
@given(case=_pairings())
def test_pairing_keeps_the_per_term_bytes(case):
    # the one contraction is the per-beta Polynomial loop, repr for repr
    f, gamma, phi = case
    assert repr(edgeworth_expectation(f, gamma, phi)) == repr(edgeworth_expectation_reference(f, gamma, phi))


def test_pairing_edge_values():
    assert repr(edgeworth_expectation(*_NEGATIVE_ZERO)) == "0.0"
    assert math.isnan(edgeworth_expectation(*_INFINITE))


def test_pairing_checks_dimensions():
    phi = CorrectorPolynomial(2, 1.0, {(3, 0): 0.5})
    with pytest.raises(ValueError, match="derivative index dimension != corrector dimension"):
        edgeworth_expectation(Polynomial(2, {(2, 0): 1.0}), (0,), phi)
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        edgeworth_expectation(Polynomial(1, {(2,): 1.0}), (0, 0), phi)
