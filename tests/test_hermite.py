import functools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeworth.hermite import (
    MAX_DEGREE,
    Polynomial,
    gauss_hermite,
    gaussian_moment,
    gaussian_moment_1d,
    hermite_value_table,
    power_table,
)
from edgeworth.corrector import CorrectorPolynomial
from edgeworth.multiindex import enumerate_multiindices
from hermite_helpers import (
    corrector_loop_reference,
    duality_check,
    expect_poly_times_hermite,
    hermite_inner,
    polynomial_loop_reference,
    pow_evaluate,
    random_polynomial,
    rodrigues_coeffs,
    tuple_product_reference,
    tuple_scale_reference,
    tuple_sum_reference,
)


def test_low_order_coefficients():
    assert list(rodrigues_coeffs(0)) == [1.0]
    assert list(rodrigues_coeffs(1)) == [0.0, 1.0]
    assert list(rodrigues_coeffs(2)) == [-1.0, 0.0, 1.0]
    assert list(rodrigues_coeffs(3)) == [0.0, -3.0, 0.0, 1.0]


@pytest.mark.parametrize("m", range(9))
def test_recurrence_matches_rodrigues(m):
    # at integer points both sides are exact integers
    x = np.arange(-4.0, 5.0)
    assert np.array_equal(hermite_value_table(m, x)[m], np.polynomial.polynomial.polyval(x, rodrigues_coeffs(m)))


def test_eval():
    def hermite_eval(beta, x):
        return CorrectorPolynomial(len(beta), 0.0, {beta: 1.0}).evaluate(x)

    assert hermite_eval((0, 0), np.array([3.0, -1.0])) == 1.0
    assert hermite_eval((3,), np.array([2.0])) == 2.0
    assert hermite_eval((1, 1), np.array([2.0, 3.0])) == 6.0
    pts = np.array([[0.5, 1.0], [2.0, -1.0]])
    np.testing.assert_allclose(
        hermite_eval((2, 1), pts), (pts[:, 0] ** 2 - 1) * pts[:, 1]
    )


def test_gaussian_moments():
    assert gaussian_moment((4,)) == 3.0
    assert gaussian_moment((2, 2)) == 1.0
    assert gaussian_moment((3, 2)) == 0.0
    assert gaussian_moment_1d(6) == 15.0
    assert gaussian_moment_1d(0) == 1.0


def test_mean_zero_for_positive_order():
    for d in (1, 2):
        for l in range(1, 7):
            for beta in enumerate_multiindices(d, l):
                poly = Polynomial(d, {(0,) * d: 1.0})
                assert expect_poly_times_hermite(poly, beta) == 0.0


def test_inner_products_match_closed_form_exactly():
    for d in (1, 2):
        idx = [b for l in range(7) for b in enumerate_multiindices(d, l)]
        for b1 in idx:
            for b2 in idx:
                expected = (
                    float(math.prod(math.factorial(x) for x in b1)) if b1 == b2 else 0.0
                )
                assert hermite_inner(b1, b2) == expected


def test_duality_identity():
    rng = np.random.default_rng(7)
    for d in (1, 2):
        betas = [b for l in range(5) for b in enumerate_multiindices(d, l)]
        for trial in range(5):
            f = random_polynomial(rng, d, degree=6)
            for beta in betas:
                lhs, rhs = duality_check(beta, f)
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_duality_spec_examples():
    lhs, rhs = duality_check((2,), Polynomial(1, {(4,): 1.0}))
    assert lhs == rhs == 12.0
    lhs, rhs = duality_check((1,), Polynomial(1, {(0,): 5.0}))
    assert lhs == rhs == 0.0
    lhs, rhs = duality_check((1, 1), Polynomial(2, {(1, 1): 1.0}))
    assert lhs == rhs == 1.0


def test_polynomial_algebra():
    f = Polynomial(1, {(2,): 1.0, (0,): -1.0})
    g = Polynomial(1, {(1,): 2.0})
    assert (f * g).terms == {(3,): 2.0, (1,): -2.0}
    assert f.diff((1,)).terms == {(1,): 2.0}
    assert f(np.array([[2.0]]))[0] == 3.0
    assert f.gaussian_expectation() == 0.0


def test_sum_leaves_operands_unchanged():
    # the term-map add accumulates into its first argument, so p + q must
    # hand it a copy of p's terms
    p = Polynomial(2, {(1, 0): 1.0, (0, 1): 2.0})
    q = Polynomial(2, {(1, 0): -1.0, (2, 0): 3.0})
    assert (p + q).terms == {(0, 1): 2.0, (2, 0): 3.0}
    assert p.terms == {(1, 0): 1.0, (0, 1): 2.0}
    assert q.terms == {(1, 0): -1.0, (2, 0): 3.0}


# dyadic coefficients k/4: products and sums of a few of them are exact, so
# p * q and q * p agree exactly whatever order the products are summed in
_COEFF = st.integers(-20, 20).filter(bool).map(lambda k: k / 4.0)


def _sparse_polynomial(data, d, label):
    index = st.tuples(*[st.integers(0, 4)] * d)
    return Polynomial(d, data.draw(st.dictionaries(index, _COEFF, max_size=6), label=label))


def _abs_value(p, x):
    """The polynomial with |coefficients| at |x|: the scale that bounds the
    rounding of any summation order of p(x)."""
    return Polynomial(p.d, {b: abs(c) for b, c in p.terms.items()})(np.abs(x))


@settings(derandomize=True, deadline=None, max_examples=80)
@given(data=st.data())
def test_polynomial_algebra_pointwise(data):
    d = data.draw(st.integers(1, 3), label="d")
    p, q = _sparse_polynomial(data, d, "p"), _sparse_polynomial(data, d, "q")
    a = data.draw(st.floats(-3.0, 3.0, allow_subnormal=False), label="a")
    x = np.array(data.draw(st.lists(st.floats(-1.5, 1.5, allow_subnormal=False),
                                    min_size=d, max_size=d), label="x"))
    sp, sq = _abs_value(p, x), _abs_value(q, x)
    assert abs((p * q)(x) - p(x) * q(x)) <= 1e-12 * sp * sq
    assert abs((p + q)(x) - (p(x) + q(x))) <= 1e-12 * (sp + sq)
    assert abs(p.scale(a)(x) - a * p(x)) <= 1e-12 * abs(a) * sp
    assert (p * q).terms == (q * p).terms
    assert not (p + p.scale(-1.0)).terms


@functools.cache
def _indices_to(d: int, degree: int) -> list:
    return [b for l in range(degree + 1) for b in enumerate_multiindices(d, l)]


def _bits(terms: dict) -> list:
    """The term map as (key, coefficient bytes) pairs in key order."""
    return [(b, struct.pack("<d", c)) for b, c in terms.items()]


# any finite coefficients, with small integers so that sums cancel to zero
_ANY_COEFF = st.floats(-4.0, 4.0, allow_subnormal=False) | st.integers(-2, 2).map(float)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_term_algebra_matches_tuple_loops(data):
    # the product and the shared add and scale give the tuple-keyed loops'
    # coefficients bit for bit and their keys in the same order
    d = data.draw(st.integers(1, 4), label="d")
    index = st.sampled_from(_indices_to(d, data.draw(st.integers(0, MAX_DEGREE), label="degree")))
    p, q = (Polynomial(d, data.draw(st.dictionaries(index, _ANY_COEFF, max_size=8), label=label))
            for label in ("p", "q"))
    a = data.draw(_ANY_COEFF, label="a")
    assert _bits((p * q).terms) == _bits(tuple_product_reference(p, q))
    assert _bits((p + q).terms) == _bits(tuple_sum_reference(p, q))
    assert _bits(p.scale(a).terms) == _bits(tuple_scale_reference(p, a))


def test_power_table_layout():
    x = np.array([[0.5, -3.0], [2.0, 1.5]])
    table = power_table(4, x)
    assert table.shape == (5, 2, 2)
    assert np.array_equal(table[0], np.ones_like(x)) and np.array_equal(table[1], x)
    assert np.array_equal(table[4], x * x * x * x)
    assert np.array_equal(power_table(0, x), np.ones((1, 2, 2)))


# |x| in [1e-3, 2] or 0: no power of degree <= 12 reaches the subnormal range,
# where a relative rounding bound no longer holds
_POINT = st.floats(1e-3, 2.0) | st.floats(-2.0, -1e-3) | st.just(0.0)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_evaluation_through_products_matches_pow_oracle(data):
    d = data.draw(st.integers(1, 3), label="d")
    degree = data.draw(st.integers(0, MAX_DEGREE), label="degree")
    index = st.sampled_from([b for l in range(degree + 1) for b in enumerate_multiindices(d, l)])
    f = Polynomial(d, data.draw(st.dictionaries(index, _COEFF, max_size=6), label="terms"))
    m = data.draw(st.integers(1, 8), label="m")
    x = np.array(data.draw(st.lists(st.lists(_POINT, min_size=d, max_size=d), min_size=m, max_size=m), label="x"))
    values, oracle = f(x), pow_evaluate(f, x)
    if f.degree() <= 2:
        # numpy's x**2 is x*x, so the two routes take the same products
        assert np.array_equal(values, oracle)
    else:
        # the table's x**k carries up to k - 1 roundings where one pow carries one
        bound = (f.degree() - 1) * 2.0**-52 * _abs_value(f, x)
        assert np.all(np.abs(values - oracle) <= bound)
    for i, row in enumerate(x):
        assert f(row) == values[i]
    assert np.array_equal(Polynomial(d)(x), np.zeros(m)) and Polynomial(d)(x[0]) == 0.0


def _same_bits(a, b) -> bool:
    return type(a) is type(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_shared_evaluator_matches_both_loops(data):
    # one evaluator serves both bases: bit for bit the two loops it replaced,
    # on single points and (m, d) batches, with and without terms
    d = data.draw(st.integers(1, 3), label="d")
    degree = data.draw(st.integers(0, MAX_DEGREE), label="degree")
    index = st.sampled_from([b for l in range(degree + 1) for b in enumerate_multiindices(d, l)])
    terms = data.draw(st.dictionaries(index, _COEFF, max_size=6), label="terms")
    constant = data.draw(_COEFF | st.just(0.0), label="constant")
    point = st.lists(st.floats(-4.0, 4.0, allow_subnormal=False), min_size=d, max_size=d)
    if data.draw(st.booleans(), label="single"):
        x = np.array(data.draw(point, label="x"))
    else:
        x = np.array(data.draw(st.lists(point, min_size=1, max_size=8), label="x"))
    for f, phi in [(Polynomial(d, terms), CorrectorPolynomial(d, constant, terms)),
                   (Polynomial(d), CorrectorPolynomial(d, constant))]:
        assert _same_bits(f(x), polynomial_loop_reference(f, x))
        assert _same_bits(phi.evaluate(x), corrector_loop_reference(phi, x))


def test_point_dimension_is_checked():
    one, two = Polynomial(1, {(3,): 1.0}), Polynomial(2, {(1, 2): 1.0})
    for poly, x in [(one, np.ones((4, 2))), (two, np.ones((4, 1))), (one, 2.0), (two, 2.0)]:
        with pytest.raises(ValueError, match="point dimension mismatch"):
            poly(x)


def test_public_constructor_checks():
    with pytest.raises(ValueError, match="negative multiplicity"):
        Polynomial(2, {(1, -1): 1.0})
    with pytest.raises(ValueError, match="monomial dimension mismatch"):
        Polynomial(2, {(1,): 1.0})
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        Polynomial(0)


def test_gauss_hermite_exactness():
    x, w = gauss_hermite(12)
    assert abs(w.sum() - 1.0) < 1e-14
    for k in range(0, 23, 2):
        np.testing.assert_allclose((w * x**k).sum(), gaussian_moment_1d(k), rtol=1e-10)
    assert abs((w * x**7).sum()) < 1e-12
