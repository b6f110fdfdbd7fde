"""Every field of the model, component and corrector documents rejects an
ill-typed value with a ValueError that names the field."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeworth.corrector import CORRECTOR_FIELDS, TERM_FIELDS, CorrectorPolynomial
from edgeworth.errors import NUMBER, STRING
from edgeworth.moments import (MODEL_FIELDS, RECORD_FIELDS, _LAWS, ComponentDistribution, ModelSpec, gaussian_mixture,
                               rademacher, skewed_two_point, standard_normal, uniform_centered)
from ill_typed import ILL_TYPED, NOT_FINITE, NOT_JSON_INTEGER, NOT_JSON_INTEGER_OR_NULL, NOT_LIST, list_with

_COMPONENTS = [rademacher(), uniform_centered(), skewed_two_point(0.2), gaussian_mixture(0.5, 0.6, 0.8, -0.6, 0.8),
               standard_normal()]
# every field, with an optional one set: two records, the first counted twice
_MODEL = {"d": 2, "n": 3, "iid": False, "summands": [
    {"C": [[1.0, 0.25], [0.0, 0.5]], "components": [c.to_json() for c in _COMPONENTS[2:4]], "count": 2},
    {"C": [[0.5, 0.0], [0.1, 1.0]], "components": [c.to_json() for c in _COMPONENTS[:2]]},
]}
_CORRECTOR = {"d": 2, "constant": 1.0, "terms": [{"beta": [3, 0], "coeff": -0.5}, {"beta": [1, 2], "coeff": 0.25}],
              "n": 40, "N": 2}


def _component_fields(kind: str) -> dict:
    """The fields ``ComponentDistribution.from_json`` reads for ``kind``."""
    return {"kind": STRING} | dict.fromkeys(_LAWS[kind].params, NUMBER)


# (name, reader, valid document, path to the sub-document, its fields)
DOCUMENTS = [
    ("model", ModelSpec.from_json, _MODEL, (), MODEL_FIELDS[0] | MODEL_FIELDS[1]),
    ("model record", ModelSpec.from_json, _MODEL, ("summands", 0), RECORD_FIELDS[0] | RECORD_FIELDS[1]),
    *((f"{c.kind} component", ComponentDistribution.from_json, c.to_json(), (), _component_fields(c.kind))
      for c in _COMPONENTS),
    ("corrector", CorrectorPolynomial.from_json, _CORRECTOR, (), CORRECTOR_FIELDS[0] | CORRECTOR_FIELDS[1]),
    ("corrector term", CorrectorPolynomial.from_json, _CORRECTOR, ("terms", 0), TERM_FIELDS[0] | TERM_FIELDS[1]),
]

# the document Fields that are not shared ones, and the values each must reject
_ILL_TYPED = {
    **ILL_TYPED,
    # ragged, then rows with an entry that is no number, then entries that are no rows
    RECORD_FIELDS[0]["C"]: st.one_of(st.integers(0, 3).map(lambda k: [[1.0] * k, [1.0] * (k + 1)]),
                                     st.lists(list_with(st.one_of(NOT_FINITE, st.none(), st.text(max_size=3),
                                                                  st.booleans())), min_size=1, max_size=2),
                                     list_with(st.one_of(st.none(), NOT_LIST)), st.none(), NOT_LIST),
    RECORD_FIELDS[0]["components"]: st.one_of(st.none(), NOT_LIST),
    RECORD_FIELDS[1]["count"]: st.one_of(NOT_JSON_INTEGER, st.integers(max_value=0)),
    TERM_FIELDS[0]["beta"]: st.one_of(st.none(), NOT_LIST, list_with(NOT_JSON_INTEGER)),
    CORRECTOR_FIELDS[0]["terms"]: st.one_of(st.none(), NOT_LIST),
    CORRECTOR_FIELDS[1]["n"]: NOT_JSON_INTEGER_OR_NULL,
}
# two fields keep the library's own check and its message: a component's
# kind picks its fields, and ModelSpec checks a record's count
_NAMED_AS = {"kind": "unknown component kind ", "count": "record count must be an integer >= 1, got "}


def test_every_document_field_has_ill_typed_values():
    missing = [(doc, name) for doc, _, _, _, fields in DOCUMENTS for name, field in fields.items()
               if field not in _ILL_TYPED]
    assert not missing


def test_documents_are_valid():
    for _, reader, doc, path, fields in DOCUMENTS:
        reader(copy.deepcopy(doc))
        sub = doc
        for key in path:
            sub = sub[key]
        assert sub.keys() == fields.keys()


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_document_rejects_ill_typed_field(data):
    # each example puts one ill-typed value in every field of every document
    for where, reader, valid, path, fields in DOCUMENTS:
        for name, field in fields.items():
            doc = copy.deepcopy(valid)
            sub = doc
            for key in path:
                sub = sub[key]
            sub[name] = value = data.draw(_ILL_TYPED[field], label=f"{where}.{name}")
            with pytest.raises(ValueError) as err:
                reader(doc)
            assert _NAMED_AS.get(name, f"field '{name}' must be ") in str(err.value), (where, name, value)
