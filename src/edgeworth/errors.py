"""Shared exception types and the field check of JSON documents."""


class ConfigError(ValueError):
    """A config or model document is malformed."""


def check_fields(doc: dict, required: set, optional: set, where: str) -> None:
    """Rejects a document that lacks a required field or has one outside
    ``required | optional``."""
    missing = required - doc.keys()
    if missing:
        raise ConfigError(f"{where}: missing fields {sorted(missing)}")
    unknown = doc.keys() - required - optional
    if unknown:
        raise ConfigError(f"{where}: unknown fields {sorted(unknown)}")


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
