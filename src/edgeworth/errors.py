"""Shared exception types and the checks of JSON documents."""


class ConfigError(ValueError):
    """A config or model document is malformed."""


def check_object(doc, where: str) -> None:
    """Rejects a document that is not a JSON object."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object, got {doc!r}")


def check_list(doc, where: str) -> None:
    """Rejects a document that is not a JSON list."""
    if not isinstance(doc, list):
        raise ConfigError(f"{where} must be a JSON list, got {doc!r}")


def check_fields(doc: dict, required: set, optional: set, where: str) -> None:
    """Rejects a document that is not a JSON object, lacks a required field
    or has one outside ``required | optional``."""
    check_object(doc, where)
    missing = required - doc.keys()
    if missing:
        raise ConfigError(f"{where}: missing fields {sorted(missing)}")
    unknown = doc.keys() - required - optional
    if unknown:
        raise ConfigError(f"{where}: unknown fields {sorted(unknown)}")


def check_integer(value, where: str) -> int:
    """``value`` if it is a JSON integer (an int that is not a bool), so
    that nothing is truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


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
