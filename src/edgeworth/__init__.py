"""Edgeworth corrector polynomials for scaled sums of independent,
non-identically distributed random vectors, plus the sampling and
experiment machinery used to verify their convergence rates."""

from .corrector import (
    CorrectorPolynomial,
    corrector_operator,
    corrector_polynomial,
    edgeworth_expectation,
    explicit_order3,
    normalize,
    order_discrepancy,
)
from .errors import CertificateError, KernelMomentError, NumericalGuardError
from .hermite import Polynomial, gauss_hermite, gaussian_moment
from .moments import (
    ComponentDistribution,
    ModelSpec,
    Summand,
    exact_sum_moment,
    gaussian_mixture,
    iid_model,
    iid_vector_model,
    rademacher,
    raw_moment,
    skewed_two_point,
    standard_normal,
    two_point,
    uniform_centered,
)
from .multiindex import enumerate_multiindices

__version__ = "0.1.0"
