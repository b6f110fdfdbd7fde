"""Ill-typed JSON values, one Hypothesis strategy per shared Field of
``edgeworth.errors``: the tests of the CLI configs and of the model,
component and corrector documents draw from the same ones."""

import math

from hypothesis import strategies as st

from edgeworth import errors

# values that JSON reads as numbers but that are no finite float
NOT_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, 10**400])

# maps rather than filters: the ill-typed tests draw one value per field in every example
NOT_INTEGER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(
        lambda x: x + 0.5 if x.is_integer() and abs(x) < 2**51 else math.inf if x.is_integer() else x),
    st.booleans(), st.text(max_size=4), st.none(), st.lists(st.integers(), max_size=2),
)
NOT_JSON_INTEGER_OR_NULL = st.one_of(st.floats(), st.booleans(), st.text(max_size=4),
                                     st.lists(st.integers(), max_size=2))
NOT_JSON_INTEGER = st.one_of(st.none(), NOT_JSON_INTEGER_OR_NULL)
NOT_BOOLEAN = st.one_of(st.integers(), st.floats(), st.text(max_size=5), st.none())
NOT_NUMBER_OR_NULL = st.one_of(
    NOT_FINITE, st.booleans(), st.text(max_size=5), st.lists(st.floats(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
NOT_NUMBER = st.one_of(st.none(), NOT_NUMBER_OR_NULL)
NOT_STRING = st.one_of(st.integers(), st.floats(), st.booleans(), st.none(), st.lists(st.text(max_size=3), max_size=2),
                       st.dictionaries(st.text(max_size=3), st.text(max_size=3), max_size=2))
NOT_OBJECT = st.one_of(st.integers(), st.floats(), st.booleans(), st.none(), st.text(max_size=5),
                       st.lists(st.integers(), max_size=2))
NOT_LIST = st.one_of(st.integers(), st.floats(), st.booleans(), st.text(max_size=5),
                     st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
NOT_NUMBER_ENTRY = st.one_of(NOT_FINITE, st.none(), st.booleans(), st.text(max_size=3))


def list_with(bad):
    """A list with at least one entry drawn from ``bad``."""
    return st.tuples(st.lists(st.integers(0, 5), max_size=2), bad).map(lambda t: t[0] + [t[1]])


# every shared Field and the values it must reject
ILL_TYPED = {
    errors.INTEGER: NOT_INTEGER,
    errors.JSON_INTEGER: NOT_JSON_INTEGER,
    errors.BOOLEAN: NOT_BOOLEAN,
    errors.NUMBER: NOT_NUMBER,
    errors.STRING: NOT_STRING,
    errors.OBJECT: NOT_OBJECT,
    errors.LIST: st.one_of(st.none(), NOT_LIST),
}
