"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict table.
Criterion 8's third clause asserts a monotone gap decrease that the exact
lattice oracle shows to be false at the stated parameters; that test prints
the oracle numbers and is expected to stay red (see the module's notes in
the README).
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.special import bdtr
from scipy.stats import binom, ks_2samp, norm

from conftest import make_random_model
from corrector_reference import order2_discrepancy_terms
from edgeworth.cli import main as cli_main
from edgeworth.corrector import (
    CorrectorPolynomial,
    corrector_polynomial,
    edgeworth_expectation,
    corrector_operator,
    explicit_order3,
    order_discrepancy,
)
from edgeworth.experiments import (
    density_experiment,
    kac_rice_roots,
    occupation_time,
    rate_experiment,
)
from edgeworth.hermite import Polynomial
from edgeworth.kernels import build_super_kernel, mollify
from edgeworth.moments import (
    exact_sum_moment,
    iid_model,
    rademacher,
    sample_component,
    skewed_two_point,
    standard_normal,
    uniform_centered,
)
from edgeworth.multiindex import enumerate_multiindices
from edgeworth.sampling import DoeblinCert, RngStream, nummelin_sample
from hermite_helpers import duality_check, hermite_inner, random_polynomial

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_order1_corrector_identity():
    t0 = time.time()
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for trial in range(5):
        d = 1 + trial % 2
        n = 10 if trial < 3 else 100
        model = make_random_model(rng, d, n)
        pts = rng.normal(size=(100, d))
        gap = np.max(np.abs(order_discrepancy(model, 1, pts)))
        worst = max(worst, float(gap))
    dt = time.time() - t0
    ok = worst <= 1e-12 and dt < 1.0
    assert _verdict(1, ok, f"order-1 operator vs explicit corrector: max |gap| {worst:.2e} "
                           f"over 5 models x 100 points (tol 1e-12), {dt:.2f}s")


def test_criterion_02_order2_discrepancy_scaling():
    t0 = time.time()
    tp = skewed_two_point(0.2)
    x = np.array([0.7])
    scaled = {}
    for n in (50, 100, 200, 400):
        model = iid_model(tp, n)
        scaled[n] = float(n * order_discrepancy(model, 2, x))
        closed = CorrectorPolynomial(
            d=1, constant=0.0, terms=order2_discrepancy_terms(model)
        )
        assert abs(n * closed.evaluate(x) - scaled[n]) <= 1e-9
    spread = max(abs(a - b) for a in scaled.values() for b in scaled.values())
    dt = time.time() - t0
    ok = spread <= 1e-9 and dt < 5.0
    assert _verdict(2, ok, f"n x order-2 discrepancy constant across n=50..400: "
                           f"spread {spread:.2e} (tol 1e-9), matches closed form, {dt:.2f}s")


def test_criterion_03_moment_oracle_rates():
    t0 = time.time()
    tp = skewed_two_point(0.2)
    f = Polynomial(1, {(3,): 1.0, (4,): 1.0})
    grid = [8, 16, 32, 64, 128, 256]
    slopes = []
    details = []
    ok = True
    for N in (0, 1, 2, 3):
        res = rate_experiment(lambda n: iid_model(tp, n), f, N, grid)
        if res.notes["all_degenerate"]:
            # the corrector reproduces every moment of f exactly: error is
            # identically zero, faster than any power; record as -inf
            slopes.append(float("-inf"))
            details.append(f"N={N}: error=0 (exact)")
        else:
            slopes.append(res.fitted_slope)
            details.append(f"N={N}: slope {res.fitted_slope:.3f}")
            ok &= res.fitted_slope <= -(N + 1) / 2.0 + 0.3
    ok &= all(slopes[i + 1] <= slopes[i] + 1e-12 for i in range(3))
    dt = time.time() - t0
    ok &= dt < 10.0
    assert _verdict(3, ok, "exact-oracle rate slopes non-increasing and within bounds: "
                           + "; ".join(details) + f", {dt:.2f}s")


def test_criterion_04_duality_and_orthogonality():
    t0 = time.time()
    rng = np.random.default_rng(4)
    worst = 0.0
    for d in (1, 2):
        betas = [b for l in range(5) for b in enumerate_multiindices(d, l)]
        for _ in range(5):
            f = random_polynomial(rng, d, degree=6)
            for beta in betas:
                lhs, rhs = duality_check(beta, f)
                worst = max(worst, abs(lhs - rhs))
    inner_exact = True
    for d in (1, 2):
        idx = [b for l in range(7) for b in enumerate_multiindices(d, l)]
        for b1 in idx:
            for b2 in idx:
                expected = float(math.prod(math.factorial(x) for x in b1)) if b1 == b2 else 0.0
                inner_exact &= hermite_inner(b1, b2) == expected
    dt = time.time() - t0
    ok = worst <= 1e-12 and inner_exact and dt < 1.0
    assert _verdict(4, ok, f"integration-by-parts identity |lhs-rhs| max {worst:.2e} "
                           f"(tol 1e-12); inner products exact: {inner_exact}; {dt:.2f}s")


def test_criterion_05_trig_root_count_limit():
    t0 = time.time()
    limit = 1.0 / math.sqrt(3.0)
    res_g = kac_rice_roots(standard_normal(), [100], samples=2000, seed=1001)
    res_u = kac_rice_roots(uniform_centered(), [100], samples=2000, seed=1002)
    rg, ru = res_g.rows[0], res_u.rows[0]
    dev_g = abs(rg["roots_per_n"] - limit) / limit
    dev_u = abs(ru["roots_per_n"] - limit) / limit
    counts_ok = rg["max_count"] <= 200 and ru["max_count"] <= 200
    dt = time.time() - t0
    ok = dev_g <= 0.02 and dev_u <= 0.03 and counts_ok and dt < 180.0
    assert _verdict(5, ok, f"mean roots/n at n=100: gaussian {rg['roots_per_n']:.5f} "
                           f"({dev_g*100:.2f}% off 1/sqrt3, tol 2%), uniform {ru['roots_per_n']:.5f} "
                           f"({dev_u*100:.2f}%, tol 3%), counts <= 2n: {counts_ok}, {dt:.0f}s")


def test_criterion_06_density_splitting():
    t0 = time.time()
    dist = uniform_centered()
    cert = DoeblinCert(center=0.0, radius=0.25, epsilon=0.2)
    draws, chi = nummelin_sample(dist, cert, RngStream(777, 0).generator(), 100_000)
    direct = sample_component(dist, RngStream(777, 1).generator(), 100_000)
    stat = float(ks_2samp(draws, direct).statistic)
    crit = 1.628 * math.sqrt(2.0 / 100_000)
    p1 = cert.split_probability
    se = math.sqrt(p1 * (1 - p1) / 100_000)
    chi_dev = abs(chi.mean() - p1)
    dt = time.time() - t0
    ok = stat < crit and chi_dev <= 3 * se and dt < 30.0
    assert _verdict(6, ok, f"splitting vs direct: KS {stat:.5f} < 1% critical {crit:.5f}; "
                           f"split frequency off by {chi_dev:.5f} <= 3se {3*se:.5f}; {dt:.1f}s")


def test_criterion_07_approximate_density():
    t0 = time.time()
    res_g = density_experiment(
        lambda n: iid_model(standard_normal(), n), 0, [0.0], [256],
        samples=1_000_000, seed=701,
    )
    row = res_g.rows[0]
    target = 0.3989422804014327
    dev = abs(row["estimate"] - target)
    part1 = dev <= 3 * row["se"] and not row["flagged"]

    res_u = density_experiment(
        lambda n: iid_model(uniform_centered(), n), 2, [0.0], [64, 256, 1024],
        delta_rule=lambda n: 1.5 * float(n) ** -0.25,
        samples=1_000_000, seed=702,
    )
    errs = [r["error"] for r in res_u.rows]
    part2 = errs[0] > errs[1] > errs[2] and not any(r["flagged"] for r in res_u.rows)
    dt = time.time() - t0
    ok = part1 and part2 and dt < 120.0
    assert _verdict(7, ok, f"box density at 0: {row['estimate']:.5f} vs {target:.5f} "
                           f"(|dev| {dev:.2e} <= 3se {3*row['se']:.2e}); corrected-density error "
                           f"monotone over n=64,256,1024: {[f'{e:.4f}' for e in errs]}; {dt:.0f}s")


def _exact_rademacher_band_occupation(n: int, eps: float) -> float:
    # after k steps the walk sits at 2j - k for j ~ Binomial(k, 1/2); the band
    # holds j in [lo, hi], with both edges clipped into bdtr's 0..k domain
    lim = eps * math.sqrt(n)
    k = np.arange(1, n + 1)
    lo = np.ceil((k - lim) / 2.0).astype(int)
    hi = np.floor((k + lim) / 2.0).astype(int)
    below = np.where(lo >= 1, bdtr(np.maximum(lo - 1, 0), k, 0.5), 0.0)
    p = np.where(hi >= lo, bdtr(np.minimum(hi, k), k, 0.5) - below, 0.0)
    return float(p.sum()) / (n * 2.0 * eps)


@pytest.mark.parametrize("n", [1, 10, 100, 1000])
@pytest.mark.parametrize("eps", [0.003, 0.1, 0.5, 3.0])
def test_band_occupation_oracle_matches_binomial_loop(n, eps):
    # criterion 8's vectorised oracle against the step-by-step binomial CDF
    # sum, over bands that are empty, partial and wider than the walk
    lim = eps * math.sqrt(n)
    total = 0.0
    for k in range(1, n + 1):
        lo, hi = math.ceil((k - lim) / 2.0), math.floor((k + lim) / 2.0)
        total += 0.0 if hi < lo else float(binom.cdf(hi, k, 0.5) - binom.cdf(lo - 1, k, 0.5))
    assert _exact_rademacher_band_occupation(n, eps) == pytest.approx(total / (n * 2.0 * eps), rel=1e-12)


def _exact_gaussian_band_occupation(n: int, eps: float) -> float:
    k = np.arange(1, n + 1)
    return float(np.mean(2.0 * norm.cdf(eps * np.sqrt(n / k)) - 1.0)) / (2.0 * eps)


def test_criterion_08_occupation_time():
    t0 = time.time()
    res = occupation_time(
        rademacher(), rho=0.5, n_grid=[1000, 10_000], samples=10_000, seed=808, ref_eps=0.015,
    )
    by_n = {r["n"]: r for r in res.rows}
    row4 = by_n[10_000]

    ref_matched = row4["brownian_ref"]
    dev_a = abs(row4["occupation_gaussian"] - ref_matched) / ref_matched
    part_a = dev_a <= 0.05

    lt_ref = res.notes["local_time_ref"]
    dev_b = abs(lt_ref - SQRT_2_OVER_PI) / SQRT_2_OVER_PI
    part_b = dev_b <= 0.02

    gap3, gap4 = by_n[1000]["gap"], by_n[10_000]["gap"]
    part_c = gap4 < gap3

    # exact lattice oracle for the walk gap at the stated parameters
    oracle = {}
    for n in (1000, 10_000):
        eps = float(n) ** -0.25
        oracle[n] = abs(
            _exact_rademacher_band_occupation(n, eps) - _exact_gaussian_band_occupation(n, eps)
        )
    print(
        "[criterion  8]   note - exact band-occupation gaps (binomial vs normal CDF): "
        f"n=1000: {oracle[1000]:.5f}, n=10000: {oracle[10000]:.5f}; the gap grows because "
        "eps_n*sqrt(n) = n^(1/4) = 10 is an integer at n=10^4, so the walk's boundary "
        "atoms at +-10 sit exactly on the band edge; the monotone-decrease clause "
        "contradicts the exact values and is expected to fail."
    )
    dt = time.time() - t0
    ok = part_a and part_b and part_c and dt < 180.0
    assert _verdict(8, ok, f"walk-vs-Brownian at matched band {dev_a*100:.2f}% (tol 5%); "
                           f"small-band Brownian reference {lt_ref:.5f} vs sqrt(2/pi) "
                           f"{dev_b*100:.2f}% (tol 2%); walk gap decrease 10^3->10^4: "
                           f"{gap3:.5f} -> {gap4:.5f} ({'decreases' if part_c else 'increases'}); "
                           f"{dt:.0f}s")


def test_criterion_09_super_kernel():
    t0 = time.time()
    kernel = build_super_kernel()
    mass_dev = abs(kernel.mass() - 1.0)
    worst_moment = max(abs(kernel.moment(k)) for k in range(1, 7))

    def poly(y):
        return 0.25 * y**4 - y**3 + 2.0 * y**2 - 3.0 * y + 1.0

    xs = np.linspace(-1.5, 1.5, 7)
    repro = float(np.max(np.abs(mollify(poly, kernel, 0.8, xs) - poly(xs))))
    dt = time.time() - t0
    ok = mass_dev <= 1e-8 and worst_moment <= 1e-6 and repro <= 1e-6 and dt < 1.0
    assert _verdict(9, ok, f"kernel mass off by {mass_dev:.1e} (tol 1e-8); max |moment 1..6| "
                           f"{worst_moment:.1e} (tol 1e-6); degree-4 reproduction {repro:.1e} "
                           f"(tol 1e-6); {dt:.2f}s")


def test_criterion_10_determinism(tmp_path):
    t0 = time.time()
    cfg = {
        "experiment": "smallball",
        "component": {"kind": "uniform_centered"},
        "n": 25,
        "samples": 5000,
        "u_grid_size": 16,
        "eta_grid": [0.1, 0.3],
        "seed": 10,
    }
    cpath = tmp_path / "sb.json"
    cpath.write_text(json.dumps(cfg))
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert cli_main(["smallball", "--config", str(cpath), "--seed", "10",
                         "--workers", "1", "--out-dir", str(out)]) == 0
        outs.append((out / "smallball.csv").read_bytes())
    same_mc = outs[0] == outs[1]

    cfg2 = {
        "experiment": "occupation",
        "component": {"kind": "rademacher"},
        "rho": 0.5,
        "n_grid": [64],
        "samples": 2000,
        "seed": 11,
    }
    cpath2 = tmp_path / "occ.json"
    cpath2.write_text(json.dumps(cfg2))
    outs2 = []
    for run in ("c", "d"):
        out = tmp_path / run
        assert cli_main(["occupation", "--config", str(cpath2), "--seed", "11",
                         "--out-dir", str(out)]) == 0
        outs2.append((out / "occupation.csv").read_bytes())
    same_occ = outs2[0] == outs2[1]
    dt = time.time() - t0
    ok = same_mc and same_occ
    assert _verdict(10, ok, f"byte-identical CSVs on rerun with fixed seed/workers: "
                            f"smallball {same_mc}, occupation {same_occ}; {dt:.1f}s")
