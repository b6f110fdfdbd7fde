"""Test-side Hermite helpers: independent routes that the tests pit against
the library's closed forms, and random integer polynomials."""

import operator

import numpy as np

from edgeworth.hermite import Polynomial, gaussian_moment_1d, hermite_value_table, power_table
from edgeworth.multiindex import check_multiindex, enumerate_multiindices


def rodrigues_coeffs(m: int) -> np.ndarray:
    """Coefficient vector of the probabilists' Hermite polynomial H_m
    (position k holds the coefficient of ``x**k``) via the Rodrigues-type
    derivative recursion, a route independent of the library's three-term
    recurrence ``hermite_value_table``.

    Writes d^m/dx^m e^{-x^2/2} = p_m(x) e^{-x^2/2} with
    p_{m+1} = p_m' - x p_m, then H_m = (-1)^m p_m.
    """
    p = np.array([1.0])
    for _ in range(m):
        dp = np.arange(1, len(p)) * p[1:] if len(p) > 1 else np.zeros(0)
        nxt = np.zeros(len(p) + 1)
        nxt[: len(dp)] += dp
        nxt[1:] -= p
        p = nxt
    return ((-1) ** m) * p


def hermite_inner(beta1, beta2) -> float:
    """E[H_{beta1}(W) H_{beta2}(W)], computed by expanding the product to
    monomials and summing exact Gaussian moments.

    Equals ``prod_i beta_i!`` when the indices coincide and 0 otherwise;
    the expansion route lets tests pit it against that closed form.
    """
    beta1 = check_multiindex(beta1)
    beta2 = check_multiindex(beta2)
    if len(beta1) != len(beta2):
        raise ValueError("dimension mismatch")
    out = 1.0
    for b1, b2 in zip(beta1, beta2):
        prod = np.convolve(rodrigues_coeffs(b1), rodrigues_coeffs(b2))
        m = sum(c * gaussian_moment_1d(k) for k, c in enumerate(prod) if c != 0.0)
        if m == 0.0:
            return 0.0
        out *= m
    return out


def expect_poly_times_hermite(f: Polynomial, beta) -> float:
    """E[f(W) H_beta(W)] computed exactly through monomial moments."""
    beta = check_multiindex(beta)
    if len(beta) != f.d:
        raise ValueError("dimension mismatch")
    total = 0.0
    hcoeffs = [rodrigues_coeffs(b) for b in beta]
    for mono, c in f.terms.items():
        fac = c
        for m, h in zip(mono, hcoeffs):
            fac *= sum(h[k] * gaussian_moment_1d(m + k) for k in range(len(h)) if h[k] != 0.0)
            if fac == 0.0:
                break
        total += fac
    return total


def duality_check(beta, f: Polynomial) -> tuple[float, float]:
    """Both sides of the Gaussian integration-by-parts identity
    ``E[d_beta f(W)] = E[f(W) H_beta(W)]``, each computed exactly.

    Returns the pair; the caller asserts equality.
    """
    return f.diff(beta).gaussian_expectation(), expect_poly_times_hermite(f, beta)


def univariate_polynomial(coeffs) -> Polynomial:
    """One-variable Polynomial from a coefficient vector (position k holds
    the coefficient of x**k)."""
    return Polynomial(1, {(k,): float(c) for k, c in enumerate(coeffs) if c != 0.0})


def random_polynomial(rng, d: int, degree: int, coeff_range: int = 3) -> Polynomial:
    """Random polynomial with integer coefficients (keeps both sides of
    duality identities exactly representable)."""
    terms = {}
    for l in range(degree + 1):
        for beta in enumerate_multiindices(d, l):
            c = int(rng.integers(-coeff_range, coeff_range + 1))
            if c:
                terms[beta] = float(c)
    return Polynomial(d, terms)


def pow_evaluate(f: Polynomial, x) -> np.ndarray:
    """f at the rows of the (m, d) array x, one ``**`` per factor of each
    term: the per-term route that ``Polynomial.__call__`` replaced, kept as
    its oracle."""
    pts = np.asarray(x, dtype=float)
    out = np.zeros(pts.shape[0])
    for beta, c in f.terms.items():
        mono = np.ones(pts.shape[0]) * c
        for i, b in enumerate(beta):
            if b:
                mono *= pts[:, i] ** b
        out += mono
    return out


def polynomial_loop_reference(f: Polynomial, x):
    """``Polynomial.__call__`` as its own loop over one ``power_table``, the
    form it had before it shared the corrector's evaluator; kept as the
    oracle that the shared one equals bit for bit."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    if pts.ndim != 2 or pts.shape[1] != f.d:
        raise ValueError("point dimension mismatch")
    out = np.zeros(pts.shape[0])
    table = power_table(max((max(b) for b in f.terms), default=0), pts)
    for beta, c in f.terms.items():
        term = np.full(pts.shape[0], c)
        for i, b in enumerate(beta):
            if b:
                term *= table[b, :, i]
        out += term
    return float(out[0]) if single else out


def corrector_loop_reference(phi, x):
    """``CorrectorPolynomial.evaluate`` as its own loop over one
    ``hermite_value_table``, the form it had before it shared the
    evaluator of ``Polynomial``; kept as the oracle of the shared one."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    if pts.ndim != 2 or pts.shape[1] != phi.d:
        raise ValueError("point dimension mismatch")
    out = np.full(pts.shape[0], phi.constant)
    if phi.terms:
        max_order = max(max(b) for b in phi.terms)
        table = hermite_value_table(max_order, pts)
        for beta, c in phi.terms.items():
            term = np.full(pts.shape[0], c)
            for i, b in enumerate(beta):
                if b:
                    term *= table[b, :, i]
            out += term
    return float(out[0]) if single else out


def tuple_product_reference(p: Polynomial, q: Polynomial) -> dict:
    """``(p * q).terms`` by the tuple-keyed pair loop, written apart from
    ``Polynomial``: the same pairs in the same order, so the same bits and
    key order."""
    terms: dict = {}
    for b1, c1 in p.terms.items():
        for b2, c2 in q.terms.items():
            b = tuple(map(operator.add, b1, b2))
            terms[b] = terms.get(b, 0.0) + c1 * c2
    return {b: c for b, c in terms.items() if c != 0.0}


def tuple_sum_reference(p: Polynomial, q: Polynomial) -> dict:
    """``(p + q).terms`` by the tuple-keyed loop it replaced."""
    terms = dict(p.terms)
    for b, c in q.terms.items():
        terms[b] = terms.get(b, 0.0) + c
    return {b: c for b, c in terms.items() if c != 0.0}


def tuple_scale_reference(p: Polynomial, a: float) -> dict:
    """``p.scale(a).terms`` by the tuple-keyed loop it replaced."""
    scaled = {b: a * c for b, c in p.terms.items()}
    return {b: c for b, c in scaled.items() if c != 0.0}
