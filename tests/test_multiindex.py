import math
import re

import numpy as np
import pytest

from corrector_reference import concat, multinomial_weight, unit
from edgeworth.hermite import Polynomial
from edgeworth.multiindex import check_multiindex, enumerate_multiindices


def test_enumeration_examples():
    assert enumerate_multiindices(2, 3) == [(3, 0), (2, 1), (1, 2), (0, 3)]
    assert enumerate_multiindices(1, 5) == [(5,)]
    assert len(enumerate_multiindices(3, 2)) == 6


@pytest.mark.parametrize("d,l", [(1, 0), (1, 7), (2, 5), (3, 4), (4, 3)])
def test_enumeration_count_and_uniqueness(d, l):
    out = enumerate_multiindices(d, l)
    assert len(out) == math.comb(l + d - 1, d - 1)
    assert len(set(out)) == len(out)
    assert all(sum(b) == l and len(b) == d for b in out)
    assert out == sorted(out, reverse=True)


@pytest.mark.parametrize("d,l", [(1, 4), (2, 5), (3, 4), (4, 3)])
def test_weight_sum_is_power(d, l):
    assert sum(multinomial_weight(b) for b in enumerate_multiindices(d, l)) == d**l


def test_weights():
    assert multinomial_weight((2, 1)) == 3
    assert multinomial_weight((0, 0)) == 1
    assert multinomial_weight((1, 1, 1)) == 6


def test_concat():
    assert concat((3, 0), (0, 3)) == (3, 3)
    assert concat((2, 1), (1, 1)) == (3, 2)
    assert concat((2, 1), (0, 0)) == (2, 1)
    a, b, c = (1, 2), (3, 0), (0, 4)
    assert concat(a, b) == concat(b, a)
    assert concat(concat(a, b), c) == concat(a, concat(b, c))
    assert sum(concat(a, b)) == sum(a) + sum(b)
    with pytest.raises(ValueError):
        concat((1, 2), (1, 2, 3))


def test_unit():
    assert unit(3, 1) == (0, 1, 0)


@pytest.mark.parametrize("beta", [(1.5,), (2, 2.0), (1, "3"), (np.float64(1.0),)])
def test_non_integer_entries_are_rejected(beta):
    # int() used to read x^1.5 as x^1, and summed keys that truncate alike
    bad = re.escape(repr(beta[-1]))
    with pytest.raises(ValueError, match=rf"^multiplicity {bad} in .* is not an integer$"):
        check_multiindex(beta)
    with pytest.raises(ValueError, match=rf"^multiplicity {bad} in "):
        Polynomial(len(beta), {beta: 1.0, (1,) * len(beta): -1.0})
    # integers of any integer type pass, as Python ints
    assert check_multiindex((np.int64(2), True, 3)) == (2, 1, 3)
