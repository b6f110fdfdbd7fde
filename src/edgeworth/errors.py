"""Shared exception types and the one reader of JSON documents.

Every JSON input (a CLI config, a model, a component, a corrector) is read
the same way: its reader declares the required and optional fields of the
document as ``{name: Field}`` maps, and :func:`read_fields` rejects a
document that is not an object, lacks a required field or has an unknown
one, then reads each field through its :class:`Field`.  A value that does
not fit its field is an error that names the field.

The fields here are the shared vocabulary.  ``NUMBER`` is a finite real
number: NaN, the infinities and integers too large for a float are not.
There are two integer rules: ``INTEGER``, for configs, also takes an
integral float (``1e5`` reads as 100000), and ``JSON_INTEGER``, for
documents the library writes, takes only a JSON integer, so that nothing
is truncated.
"""

import sys
from collections.abc import Callable
from dataclasses import dataclass


class ConfigError(ValueError):
    """A config or model document is malformed."""


def check_object(doc, where: str) -> None:
    """Rejects a document that is not a JSON object."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object, got {doc!r}")


@dataclass(frozen=True)
class Field:
    """Type of a document field: ``ok`` holds for a well-typed value, which
    ``read`` converts; any other value is an error that names the field and
    ``what`` it must be."""

    ok: Callable
    what: str
    read: Callable = lambda value: value


def read_field(name: str, field: Field, value, label: str = "field"):
    """``value`` read through ``field``, which it must fit; the error calls
    the field ``label`` and ``name``."""
    if not field.ok(value):
        raise ConfigError(f"{label} {name!r} must be {field.what}, got {value!r}")
    return field.read(value)


def read_fields(doc, required: dict, optional: dict, where: str, label: str = "field") -> dict:
    """The fields of the document ``doc``, called ``where``, each read
    through its Field: ``doc`` must be a JSON object with every ``required``
    field and none outside ``required | optional``.  An absent optional
    field is left out."""
    check_object(doc, where)
    missing = required.keys() - doc.keys()
    if missing:
        raise ConfigError(f"{where}: missing fields {sorted(missing)}")
    unknown = doc.keys() - required.keys() - optional.keys()
    if unknown:
        raise ConfigError(f"{where}: unknown fields {sorted(unknown)}")
    fields = required | optional
    return {name: read_field(name, fields[name], value, label) for name, value in doc.items()}


JSON_INTEGER = Field(lambda value: isinstance(value, int) and not isinstance(value, bool), "an integer")
INTEGER = Field(lambda value: JSON_INTEGER.ok(value) or isinstance(value, float) and value.is_integer(),
                "an integer", int)
# a comparison with NaN is false, and Python compares a large integer with a float exactly
NUMBER = Field(lambda value: isinstance(value, (int, float)) and not isinstance(value, bool)
               and abs(value) <= sys.float_info.max, "a number", float)
BOOLEAN = Field(lambda value: isinstance(value, bool), "true or false")
STRING = Field(lambda value: isinstance(value, str), "a string")
OBJECT = Field(lambda value: isinstance(value, dict), "a JSON object")
LIST = Field(lambda value: isinstance(value, list), "a JSON list")


class NumericalGuardError(RuntimeError):
    """A numerical sanity guard tripped (quadrature non-convergence,
    root-count bound violation, degenerate covariance, ...)."""


class CertificateError(NumericalGuardError):
    """A Doeblin certificate is invalid or yields unusable acceptance rates."""


class KernelMomentError(NumericalGuardError):
    """Super-kernel moment cancellation failed at the configured grid."""

    def __init__(self, order: int, value: float, bound: float):
        self.order = order
        self.value = value
        self.bound = bound
        super().__init__(
            f"kernel moment of order {order} is {value:.3e}, exceeds bound {bound:.1e} "
            "(grid too coarse or window too small)"
        )
