import inspect
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import ks_2samp

from edgeworth import experiments, sampling
from edgeworth.experiments import (
    CRN_CHUNK,
    SMALLBALL_BLOCK,
    ExperimentResult,
    _brownian_band_occupation,
    _count_roots,
    _crn_block,
    _ks_statistic,
    _root_grid,
    _trig_sum_weights,
    density_experiment,
    fit_loglog,
    gaussian_density,
    kac_rice_roots,
    kernel_experiment,
    nummelin_experiment,
    occupation_closed_form_gaussian,
    occupation_time,
    rate_experiment,
    small_ball,
)
from edgeworth.hermite import Polynomial
from edgeworth.moments import (
    ComponentDistribution,
    component_icdf,
    gaussian_mixture,
    has_icdf,
    iid_model,
    rademacher,
    skewed_two_point,
    standard_normal,
    uniform_centered,
)
from edgeworth.sampling import DoeblinCert, RngStream, block_plan, driver_stream, nummelin_sample, sample_component

import trig_reference
from conftest import CATALOG_KINDS


def test_fit_loglog_recovers_slope():
    ns = np.array([8, 16, 32, 64, 128])
    slope, stderr = fit_loglog(ns, 3.0 * ns**-1.5)
    assert slope == pytest.approx(-1.5, abs=1e-12)
    assert stderr == pytest.approx(0.0, abs=1e-10)


def test_gaussian_density_values():
    assert gaussian_density([0.0]) == pytest.approx(0.3989422804014327)
    assert gaussian_density([0.0, 0.0]) == pytest.approx(1.0 / (2 * math.pi))


def test_rate_rademacher_plain_clt():
    # symmetric summands: the odd corrector vanishes and the error is 2/n exactly
    f = Polynomial(1, {(4,): 1.0})
    res = rate_experiment(lambda n: iid_model(rademacher(), n), f, 0, [8, 16, 32, 64, 128])
    for row in res.rows:
        assert row["error"] == pytest.approx(2.0 / row["n"], rel=1e-12)
    assert res.fitted_slope == pytest.approx(-1.0, abs=1e-10)


def test_rate_uniform_order2_degenerate():
    f = Polynomial(1, {(4,): 1.0})
    res = rate_experiment(lambda n: iid_model(uniform_centered(), n), f, 2, [16, 64, 256])
    assert all(row["degenerate"] for row in res.rows)
    assert res.notes["all_degenerate"] and res.fitted_slope is None


def test_rate_all_degenerate_note_needs_every_row():
    # a grid that mixes degenerate and usable rows (test_rate_uniform_order2_degenerate
    # holds the all-degenerate case): Gaussian sums have E S^4 = 3 exactly,
    # Rademacher sums 3 - 2/n
    f = Polynomial(1, {(4,): 1.0})
    mixed = rate_experiment(lambda n: iid_model(standard_normal() if n == 8 else rademacher(), n), f, 0,
                            [8, 16, 32])
    assert [row["degenerate"] for row in mixed.rows] == [True, False, False]
    assert mixed.notes["all_degenerate"] is False
    assert mixed.fitted_slope == pytest.approx(-1.0, abs=1e-10)


def test_rate_slopes_monotone_in_order():
    f = Polynomial(1, {(3,): 1.0, (4,): 1.0, (6,): 1.0})
    tp = skewed_two_point(0.2)
    slopes = []
    for N in (0, 1, 2, 3):
        res = rate_experiment(lambda n: iid_model(tp, n), f, N, [8, 16, 32, 64, 128, 256])
        assert not res.notes["all_degenerate"]
        slopes.append(res.fitted_slope)
    assert all(slopes[i + 1] <= slopes[i] + 1e-9 for i in range(len(slopes) - 1))
    assert slopes[0] <= -0.5 + 0.35
    assert slopes[2] <= -1.5 + 0.3


def test_rate_unknown_mode_rejected_before_any_model():
    def no_model(n):
        raise AssertionError("a model was built")

    with pytest.raises(ValueError, match="^unknown mode 'bogus'$"):
        rate_experiment(no_model, Polynomial(1, {(4,): 1.0}), 1, [8, 16], mode="bogus")


def test_rate_mc_mode():
    f = Polynomial(1, {(4,): 1.0})
    res = rate_experiment(
        lambda n: iid_model(rademacher(), n), f, 0, [8, 32], mode="mc", samples=40_000, seed=3
    )
    for row in res.rows:
        # MC estimate sees the exact moment through the noise
        assert abs(row["estimate"] - (3.0 - 2.0 / row["n"])) <= 5 * row["se"]


def test_rate_mc_common_random_numbers():
    f = Polynomial(1, {(4,): 1.0})

    def run():
        return rate_experiment(
            lambda n: iid_model(rademacher(), n), f, 0, [8, 32],
            mode="mc", samples=40_000, seed=3, crn=True,
        )

    res, again = run(), run()
    assert [r["estimate"] for r in res.rows] == [r["estimate"] for r in again.rows]
    for row in res.rows:
        assert abs(row["estimate"] - (3.0 - 2.0 / row["n"])) <= 5 * row["se"]
    assert res.parameters["crn"] is True

    from edgeworth.moments import ModelSpec, Summand, iid_vector_model

    with pytest.raises(ValueError):
        rate_experiment(
            lambda n: iid_vector_model((rademacher(), rademacher()), n),
            Polynomial(2, {(2, 2): 1.0}), 0, [8], mode="mc", samples=1000, seed=0, crn=True,
        )
    # the shared uniforms need a closed-form inverse CDF
    mix = gaussian_mixture(0.5, 0.6, 0.8, -0.6, 0.8)
    with pytest.raises(ValueError, match="inverse CDF"):
        rate_experiment(
            lambda n: iid_model(mix, n), f, 0, [8, 16], mode="mc", samples=1000, seed=0, crn=True,
        )


def test_rate_mc_estimate_contract():
    family = lambda n: iid_model(rademacher(), n)
    # a constant f has no spread
    [row] = rate_experiment(family, Polynomial(1, {(0,): 1.0}), 0, [10], mode="mc", samples=1000, seed=0).rows
    assert row["estimate"] == 1.0 and row["se"] == 0.0
    # the worker count never changes the estimate, which sees E[S_10^4] = 3 - 2/10
    quartic = Polynomial(1, {(4,): 1.0})
    rows1, rows3 = (rate_experiment(family, quartic, 0, [10], mode="mc", samples=150_000, seed=5, workers=w).rows
                    for w in (1, 3))
    assert rows1 == rows3
    assert abs(rows1[0]["estimate"] - 2.8) <= 4 * rows1[0]["se"]
    with pytest.raises(ValueError, match="'samples' must be at least 100"):
        rate_experiment(family, quartic, 0, [10], mode="mc", samples=10, seed=0)


@pytest.mark.parametrize("crn", [False, True])
def test_rate_mc_makes_one_grid_run(monkeypatch, crn):
    # like every other block driver, one plan over the whole n-grid
    grids, real = [], sampling.run_grid

    def counted(seed, driver, grid, *args):
        grids.append((driver, list(grid)))
        return real(seed, driver, grid, *args)

    monkeypatch.setattr(experiments, "run_grid", counted)
    res = rate_experiment(lambda n: iid_model(rademacher(), n), Polynomial(1, {(4,): 1.0}), 0, [8, 16],
                          mode="mc", samples=500, seed=1, crn=crn)
    assert grids == ([("rate_crn", [16])] if crn else [("mc_expectation", [8, 16])])
    assert [row["n"] for row in res.rows] == [8, 16]


def test_density_gaussian_matches_density():
    res = density_experiment(
        lambda n: iid_model(standard_normal(), n), 0, [0.0], [128],
        samples=200_000, seed=17,
    )
    row = res.rows[0]
    assert row["reference"] == pytest.approx(gaussian_density([0.0]))
    assert abs(row["estimate"] - row["reference"]) <= 4 * row["se"]
    assert not row["flagged"]


def test_density_flags_starved_rows():
    res = density_experiment(
        lambda n: iid_model(standard_normal(), n), 0, [6.0], [64],
        delta_rule=lambda n: 0.05, samples=2000, seed=1,
    )
    assert res.rows[0]["flagged"]  # far tail: essentially no hits


def test_density_fit_skips_zero_error_and_flagged_rows(monkeypatch):
    # stand-in sums: the first hits[n] rows sit on the point a = 0, the rest far off
    samples, reference = 4096, gaussian_density([0.0])  # N = 0: the reference is the Gaussian density
    hits = {8: 1024, 16: 2048, 32: 1536, 64: 50}
    # half-width at which n = 8's estimate (1024 / samples) / (2 delta) is exactly the reference
    delta0 = 0.125 / reference
    assert (hits[8] / samples) / (2.0 * delta0) == reference
    monkeypatch.setattr(
        experiments, "sample_sum",
        lambda model, rng, size: np.where(np.arange(size)[:, None] < hits[model.n], 0.0, 10.0),
    )
    res = density_experiment(lambda n: iid_model(standard_normal(), n), 0, [0.0], list(hits),
                             delta_rule=lambda n: delta0 if n == 8 else 0.25, samples=samples, seed=1)
    assert [row["hits"] for row in res.rows] == list(hits.values())
    assert [row["error"] == 0.0 for row in res.rows] == [True, False, False, False]
    assert [row["flagged"] for row in res.rows] == [False, False, False, True]
    # only the n = 16 and n = 32 rows enter the fit
    slope, _ = fit_loglog([16, 32], [res.rows[1]["error"], res.rows[2]["error"]])
    assert res.fitted_slope == slope and math.isnan(res.slope_stderr)


def test_occupation_time_gaussian_row():
    res = occupation_time(standard_normal(), rho=0.5, n_grid=[400], samples=4000, seed=9, ref_eps=0.05)
    row = res.rows[0]
    exact = occupation_closed_form_gaussian(400, 400 ** -0.25)
    assert abs(row["occupation_gaussian"] - exact) <= 4 * row["se_gaussian"]
    # same-law coupling makes the two walks identical
    assert row["gap"] == pytest.approx(0.0, abs=1e-12)
    assert row["gaussian_exact"] == pytest.approx(exact)
    # the Brownian reference is the closed form, with no standard error beside it
    assert row["brownian_ref"] == _brownian_band_occupation(row["eps"])
    assert res.notes["local_time_ref"] == _brownian_band_occupation(0.05)
    assert "brownian_ref_se" not in res.columns and "local_time_ref_se" not in res.notes
    assert res.notes["local_time_exact_limit"] == pytest.approx(math.sqrt(2 / math.pi))


@pytest.mark.parametrize("eps", [0.015, 0.02, 0.1, 0.56])
def test_brownian_band_occupation_matches_quadrature(eps):
    # (1/2 eps) int_0^1 P(|B_t| <= eps) dt, with P(|B_t| <= eps) = 2 Phi(eps / sqrt(t)) - 1
    integral, _ = quad(lambda t: 2.0 * ndtr(eps / math.sqrt(t)) - 1.0, 0.0, 1.0,
                       points=[eps * eps], epsabs=0.0, epsrel=1e-13, limit=200)
    assert _brownian_band_occupation(eps) == pytest.approx(integral / (2.0 * eps), rel=1e-12, abs=0.0)


def test_brownian_band_occupation_tends_to_local_time():
    # E(eps) = sqrt(2/pi) - eps/2 + O(eps^2)
    lim = math.sqrt(2.0 / math.pi)
    gaps = [abs(_brownian_band_occupation(eps) - lim) for eps in (1e-1, 1e-2, 1e-3, 1e-5)]
    assert gaps == sorted(gaps, reverse=True) and gaps[-1] < 1e-5
    for eps in (1e-2, 1e-3, 1e-5):
        assert abs(_brownian_band_occupation(eps) - (lim - eps / 2.0)) <= eps * eps


def test_occupation_brownian_reference_convergence():
    # the band functional's exact grid value stabilizes as the band shrinks
    v1 = occupation_closed_form_gaussian(10_000, 0.05)
    v2 = occupation_closed_form_gaussian(10_000, 0.02)
    lim = math.sqrt(2 / math.pi)
    assert abs(v2 - lim) < abs(v1 - lim)
    # grid refinement at fixed small band moves the value by under 1%
    a = occupation_closed_form_gaussian(5_000, 0.05)
    b = occupation_closed_form_gaussian(20_000, 0.05)
    assert abs(a - b) / b < 0.01


def test_occupation_mc_brownian_reference():
    # Monte Carlo check of the closed form: simulate the Gaussian walk
    grid, paths, eps = 4000, 8000, 0.05
    rng = np.random.default_rng(4)
    occ = []
    for _ in range(paths // 1000):
        w = np.cumsum(rng.standard_normal((1000, grid)), axis=1) / math.sqrt(grid)
        occ.append(np.count_nonzero(np.abs(w) <= eps, axis=1) / (grid * 2.0 * eps))
    occ = np.concatenate(occ)
    se = occ.std() / math.sqrt(paths)
    assert abs(occ.mean() - occupation_closed_form_gaussian(grid, eps)) <= 4 * se


def test_kac_rice_single_harmonic():
    # n = 1: R cos(t - phase) has exactly one zero per half period
    res = kac_rice_roots(standard_normal(), [1], samples=500, seed=2, oversample=16)
    row = res.rows[0]
    assert row["roots_per_n"] == 1.0
    assert row["max_count"] <= 2
    # Kac's limit is one note, not a constant column
    assert res.notes["limit"] == 1.0 / math.sqrt(3.0) and "limit" not in res.columns


def test_kac_rice_gaussian_small_n():
    res = kac_rice_roots(standard_normal(), [20], samples=400, seed=21)
    row = res.rows[0]
    exact = math.sqrt((20 + 1) * (2 * 20 + 1) / 6.0) / 20.0
    assert abs(row["roots_per_n"] - exact) <= 4 * row["se"] + 5e-3
    assert row["max_count"] <= 40


UNCOUPLED = [pytest.param(gaussian_mixture(0.5, 0.6, 0.8, -0.6, 0.8), id="no-inverse-cdf")]


def _check_uncoupled(row, name):
    assert row["gap"] == abs(row[name] - row[f"{name}_gaussian"])
    assert row["gap_se"] == pytest.approx(math.hypot(row["se"], row["se_gaussian"]), rel=1e-12)


@pytest.mark.parametrize("dist", UNCOUPLED)
def test_occupation_time_uncoupled(dist):
    res = occupation_time(dist, rho=0.5, n_grid=[100, 400], samples=2000, seed=4)
    assert res.parameters["crn"] is False
    for row in res.rows:
        _check_uncoupled(row, "occupation")
        assert abs(row["occupation_gaussian"] - row["gaussian_exact"]) <= 5 * row["se_gaussian"]
        assert row["brownian_ref"] == _brownian_band_occupation(row["eps"])
    assert res.notes["local_time_ref"] == _brownian_band_occupation(0.02)


@pytest.mark.parametrize("dist", UNCOUPLED)
def test_kac_rice_uncoupled(dist):
    res = kac_rice_roots(dist, [10, 20], samples=300, seed=6)
    assert res.parameters["crn"] is False
    for row in res.rows:
        _check_uncoupled(row, "roots_per_n")
        n = row["n"]
        exact = math.sqrt((n + 1) * (2 * n + 1) / 6.0) / n
        assert abs(row["roots_per_n_gaussian"] - exact) <= 5 * row["se_gaussian"]


@pytest.mark.parametrize("dist", CATALOG_KINDS, ids=lambda dist: dist.kind)
def test_law_pair_coupled_exactly_with_inverse_cdf(dist):
    # the law picks the path: common uniforms exactly when it has a closed inverse CDF
    occupation = occupation_time(dist, rho=0.5, n_grid=[16], samples=100, seed=1)
    roots = kac_rice_roots(dist, [5], samples=20, seed=1)
    assert occupation.parameters["crn"] is roots.parameters["crn"] is has_icdf(dist)


def test_draws_go_through_the_public_entry_points(monkeypatch):
    # perfbench times sample_component and component_icdf where the drivers
    # call them, as module globals; its moments.sample_component_s and
    # moments.icdf_s read 0 if the drivers reach the closed forms another way
    calls = {"sample_component": 0, "component_icdf": 0}

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(sampling, "sample_component")
    count(experiments, "component_icdf")
    sampling.sample_sum(iid_model(rademacher(), 1), RngStream(1, 1).generator(), 4)
    assert calls == {"sample_component": 1, "component_icdf": 0}
    occupation_time(rademacher(), rho=0.5, n_grid=[4], samples=8, seed=1)
    assert calls["component_icdf"] >= 1


def _tangent_row(n, oversample):
    """Coefficients [a | b] of Q(t) = sin t (cos t - cos t0)^8, which
    touches zero at t0 without a sign change; t0 is the midpoint of a grid
    interval, so only the tangency guard can count the double root."""
    t0 = 30.5 * math.pi / (oversample * n)
    t = np.linspace(0.0, math.pi, 400)
    k = np.arange(1, n + 1)
    target = np.sin(t) * (np.cos(t) - math.cos(t0)) ** 8
    b = np.linalg.lstsq(np.sin(np.outer(t, k)), target, rcond=None)[0]
    return np.concatenate([np.zeros(n), b])[None, :]


def test_count_roots_tangency_guard():
    n, oversample = 9, 8
    y = _tangent_row(n, oversample)
    counts = _count_roots(y, *_root_grid(n, oversample))
    assert counts.tolist() == [2]
    want = trig_reference.count_roots(y[:, :n], y[:, n:], *trig_reference.root_tables(n, oversample))
    assert np.array_equal(counts, want)


@pytest.mark.parametrize("oversample", [1, 3, 8])
@pytest.mark.parametrize("n", [1, 5, 25, 100])
def test_count_roots_equals_split_products(n, oversample):
    # one product on [a | b] counts what the two products on a and b counted
    y = np.random.default_rng(100 * n + oversample).standard_normal((400, 2 * n))
    got = _count_roots(y, *_root_grid(n, oversample))
    want = trig_reference.count_roots(y[:, :n], y[:, n:], *trig_reference.root_tables(n, oversample))
    assert np.array_equal(got, want)
    assert got.max() <= 2 * n


def _root_tables_per_call(n, oversample):
    """The grid and tables as each root count built them before the driver
    shared them across blocks."""
    grid, cosg, sing = trig_reference.root_tables(n, oversample)
    k = np.arange(1, n + 1)
    return grid, np.vstack([cosg.T, sing.T]), np.vstack([-k[:, None] * sing.T, k[:, None] * cosg.T])


@pytest.mark.parametrize("dist", [standard_normal(), gaussian_mixture(0.5, 0.6, 0.8, -0.6, 0.8)],
                         ids=lambda dist: dist.kind)
def test_kac_rice_shared_tables_keep_rows(monkeypatch, dist):
    # a coarse grid, so that the counts depend on it, and two blocks at n = 16
    n_grid, samples, oversample = [8, 16], 50_000, 3
    shared = kac_rice_roots(dist, n_grid, samples=samples, seed=4, oversample=oversample)
    calls = []

    def per_call(y, *tables):
        calls.append(y.shape[0])
        return _count_roots(y, *_root_tables_per_call(y.shape[1] // 2, oversample))

    monkeypatch.setattr(experiments, "_count_roots", per_call)
    again = kac_rice_roots(dist, n_grid, samples=samples, seed=4, oversample=oversample)
    assert len(calls) > 2 * len(n_grid)
    assert shared.rows == again.rows


@pytest.mark.parametrize("n", [1, 10, 25, 100])
def test_trig_sum_weights_bits_unchanged(n):
    u = np.concatenate([[1.3], np.linspace(0.0, math.pi, 64)])
    assert np.array_equal(_trig_sum_weights(n, u), trig_reference.trig_sum_weights(n, u))


def test_trig_parametrized_sum_shapes_and_values():
    y = np.zeros((2, 6))
    y[0, 0] = 1.0  # a_1 = 1: P(u) = cos(u/3)/sqrt(3), P'(u) = -sin(u/3)/(3 sqrt 3)
    out = (y @ _trig_sum_weights(3, np.array([0.0, 1.0]))).reshape(2, 2, 2)
    assert out.shape == (2, 2, 2)
    assert out[0, 0, 0] == pytest.approx(1 / math.sqrt(3))
    assert out[0, 1, 0] == pytest.approx(math.cos(1 / 3) / math.sqrt(3))
    assert out[0, 1, 1] == pytest.approx(-math.sin(1 / 3) / (3 * math.sqrt(3)))


def _trig_parametrized_sum_four_products(y, u_values):
    """S_n on the u-values by the four products a @ cos, b @ sin,
    (b k/n) @ cos and (a k/n) @ sin, stacked."""
    n = y.shape[1] // 2
    k = np.arange(1, n + 1)
    a, b = y[:, :n], y[:, n:]
    phase = np.outer(u_values, k) / n
    cosm, sinm = np.cos(phase), np.sin(phase)
    scale = 1.0 / math.sqrt(n)
    p = (a @ cosm.T + b @ sinm.T) * scale
    dp = ((b * (k / n)) @ cosm.T - (a * (k / n)) @ sinm.T) * scale
    return np.stack([p, dp], axis=-1)


def _small_ball_hits_two_evaluations(dist, n, u_point, eta_grid, u_grid_size, samples, seed, theta=1.0):
    """Small-ball hits with S_n evaluated twice per block, at u_point and
    over the u-grid, by the four-product formula."""
    u_values = np.linspace(0.0, math.pi, u_grid_size)
    hits = np.zeros(len(eta_grid) + 1, dtype=int)
    for bid, bsize in block_plan(samples, SMALLBALL_BLOCK):
        y = sample_component(dist, driver_stream(seed, "smallball", n, bid), (bsize, 2 * n))
        s_point = _trig_parametrized_sum_four_products(y, np.array([u_point]))[:, 0, :]
        norms = np.hypot(s_point[:, 0], s_point[:, 1])
        s_grid = _trig_parametrized_sum_four_products(y, u_values)
        min_norm = np.min(np.hypot(s_grid[..., 0], s_grid[..., 1]), axis=1)
        hits += [np.count_nonzero(norms <= eta) for eta in eta_grid] + [np.count_nonzero(min_norm <= n**-theta)]
    return hits.tolist()


@pytest.mark.parametrize("u_grid_size", [8, 64])
@pytest.mark.parametrize("n", [10, 25, 100])
@pytest.mark.parametrize("dist", [standard_normal(), uniform_centered()], ids=lambda dist: dist.kind)
def test_small_ball_hits_equal_two_evaluations(dist, n, u_grid_size):
    samples = 2 * SMALLBALL_BLOCK + 300  # three blocks, the last one short
    eta_grid = [0.05, 0.1, 0.2, 0.4, 1.0]
    res = small_ball(dist, n, theta=0.5, u_point=1.3, eta_grid=eta_grid, u_grid_size=u_grid_size,
                     samples=samples, seed=31)
    want = _small_ball_hits_two_evaluations(dist, n, 1.3, eta_grid, u_grid_size, samples, 31, theta=0.5)
    assert [row["hits"] for row in res.rows] == want
    assert 0 < want[-1] < samples  # the infimum row is neither empty nor full


@pytest.mark.parametrize("n", [1, 10, 100])
def test_trig_parametrized_sum_equals_four_products(n):
    y = np.random.default_rng(n).standard_normal((50, 2 * n))
    u = np.concatenate([[1.0], np.linspace(0.0, math.pi, 33)])
    got, want = (y @ _trig_sum_weights(n, u)).reshape(50, len(u), 2), _trig_parametrized_sum_four_products(y, u)
    assert got.shape == want.shape == (50, 34, 2)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_small_ball_sections():
    res = small_ball(
        standard_normal(), n=40, theta=1.0, u_point=1.0,
        eta_grid=[0.1, 0.2, 0.4, 10.0], u_grid_size=32, samples=30_000, seed=12,
    )
    point_rows = [r for r in res.rows if r["section"] == "pointwise"]
    inf_rows = [r for r in res.rows if r["section"] == "infimum"]
    assert len(inf_rows) == 1
    by_eta = {r["eta"]: r for r in point_rows}
    assert by_eta[10.0]["probability"] > 0.999  # the ball swallows the bulk
    # union bound: infimum hits bounded by pointwise at matched radius times grid size
    # (the infimum radius is far smaller here, so just sanity-check ordering)
    assert inf_rows[0]["probability"] <= by_eta[0.4]["probability"] * 32 + 1e-9
    # nondegenerate 2-D small-ball exponent near 2
    usable = [(e, by_eta[e]["probability"]) for e in (0.1, 0.2, 0.4)]
    slope, _ = fit_loglog([u[0] for u in usable], [u[1] for u in usable])
    assert 1.6 <= slope <= 2.4


def test_small_ball_gaussian_exponent_tight():
    res = small_ball(
        standard_normal(), n=50, u_point=1.0,
        eta_grid=[0.05, 0.1, 0.2, 0.4], u_grid_size=16, samples=100_000, seed=29,
    )
    assert 1.8 <= res.fitted_slope <= 2.2


def test_small_ball_zero_hits_reported_one_sided():
    res = small_ball(
        standard_normal(), n=30, theta=4.0, eta_grid=[1e-6], u_grid_size=8,
        samples=2000, seed=5,
    )
    row = [r for r in res.rows if r["section"] == "pointwise"][0]
    assert row["flagged"] and row["hits"] == 0
    assert row["probability"] == pytest.approx(3.0 / 2000)


def test_csv_header_is_the_row_keys(tmp_path):
    # a row whose keys differ from the first row's is an error, not a blank cell
    res = ExperimentResult(name="t", parameters={}, rows=[{"n": 1, "error": 0.5}, {"n": 2, "eror": 0.25}])
    assert res.columns == ["n", "error"]
    with pytest.raises(KeyError, match="error"):
        res.write_csv(tmp_path / "t.csv")


def test_experiment_result_csv_roundtrip(tmp_path):
    f = Polynomial(1, {(4,): 1.0})
    res = rate_experiment(lambda n: iid_model(rademacher(), n), f, 0, [8, 16])
    p = tmp_path / "rate.csv"
    res.write_csv(p)
    lines = p.read_text().splitlines()
    assert lines[0].split(",") == res.columns
    assert len(lines) == 3
    res.write_json(tmp_path / "rate.json")
    assert (tmp_path / "rate.json").read_text().startswith("{")
    doc = json.loads((tmp_path / "rate.json").read_text())
    assert all(type(row["degenerate"]) is bool for row in doc["rows"])
    assert type(doc["notes"]["all_degenerate"]) is bool


@pytest.mark.parametrize("driver", [nummelin_experiment, kernel_experiment])
def test_single_thread_drivers_take_no_worker_count(driver):
    # the Nummelin splitting and the super-kernel table run no blocks
    assert "workers" not in inspect.signature(driver).parameters


@pytest.mark.parametrize("driver", [rate_experiment, density_experiment, occupation_time, kac_rice_roots, small_ball])
def test_block_drivers_take_a_worker_count(driver):
    assert inspect.signature(driver).parameters["workers"].default == 1


_BLOCK_DRIVER_CALLS = {
    "rate": lambda workers: rate_experiment(lambda n: iid_model(rademacher(), n), Polynomial(1, {(4,): 1.0}), 0,
                                            [8], mode="mc", samples=200, workers=workers),
    "density": lambda workers: density_experiment(lambda n: iid_model(uniform_centered(), n), 1, [0.3], [8],
                                                  samples=200, workers=workers),
    "occupation": lambda workers: occupation_time(uniform_centered(), 0.5, [4], samples=20, workers=workers),
    "roots": lambda workers: kac_rice_roots(standard_normal(), [5], samples=20, workers=workers),
    "smallball": lambda workers: small_ball(uniform_centered(), 16, u_grid_size=8, samples=20, workers=workers),
}


@pytest.mark.parametrize("workers", [0, -3])
@pytest.mark.parametrize("driver", sorted(_BLOCK_DRIVER_CALLS))
def test_block_drivers_reject_a_worker_count_below_one(monkeypatch, driver, workers):
    # run_grid checks the count before it makes any stream, so no driver
    # records a count it could not run with
    made = []
    monkeypatch.setattr(sampling, "driver_stream", lambda *key: made.append(key))
    with pytest.raises(ValueError, match=f"^'workers' must be at least 1, got {workers}$"):
        _BLOCK_DRIVER_CALLS[driver](workers)
    assert made == []


def test_nummelin_experiment_streams():
    dist = uniform_centered()
    res = nummelin_experiment(dist, 0.0, 0.25, 0.2, samples=5000, seed=3)
    split, _ = nummelin_sample(dist, DoeblinCert(0.0, 0.25, 0.2), driver_stream(3, "nummelin", 0, 0), 5000)
    direct = sample_component(dist, driver_stream(3, "nummelin", 0, 1), 5000)
    row = res.rows[0]
    assert row["mean_split"] == float(split.mean()) and row["mean_direct"] == float(direct.mean())
    assert res.notes["ks_pass"]
    assert ComponentDistribution.from_json(res.parameters["component"]) == dist


def test_kernel_experiment_records_given_window():
    assert kernel_experiment().parameters == {}
    assert kernel_experiment(moment_bound=1e-3).parameters == {"moment_bound": 1e-3}


def _crn_block_whole(laws, n_max, rng, bsize):
    """The common-random-number block as one draw: each n sums the law's
    inverse CDF over its prefix of one (bsize, n_max) array of uniforms."""
    u = rng.random((bsize, n_max))
    return {
        n: component_icdf(dist, u[:, :n]).sum(axis=1) * (scale / math.sqrt(n)) for n, (dist, scale) in laws.items()
    }


@pytest.mark.parametrize("n_grid, bsize", [([1, 7, 100], 6000), ([3, 64, 131], 2003)])
@pytest.mark.parametrize("laws", ["two_point", "uniform", "mixed"])
def test_crn_block_equals_whole_block_formula(n_grid, bsize, laws):
    n_max = max(n_grid)
    rows = CRN_CHUNK // n_max
    assert CRN_CHUNK % n_max and bsize > rows and bsize % rows  # several chunks, the last one short
    dists = {"two_point": [skewed_two_point(0.2)], "uniform": [uniform_centered()],
             "mixed": [skewed_two_point(0.2), uniform_centered()]}[laws]
    laws = {n: (dists[i % len(dists)], 1.0 + n / 1000) for i, n in enumerate(n_grid)}
    got = _crn_block(laws, n_max, RngStream(11, 2).generator(), bsize)
    want = _crn_block_whole(laws, n_max, RngStream(11, 2).generator(), bsize)
    assert list(got) == list(want)
    for n in want:
        assert np.array_equal(got[n], want[n])


@pytest.mark.parametrize("kind", ["continuous", "tied", "unequal"])
def test_ks_statistic_equals_scipy(kind):
    rng = np.random.default_rng(8)
    # sizes on both sides of scipy's exact-mode limit of 10 000 draws
    for n1, n2 in [(500, 500), (9000, 9000), (20_000, 20_000), (3001, 1700), (12_000, 10_001), (10_000, 37)]:
        if kind != "unequal":
            n2 = n1
        if kind == "tied":
            x, y = rng.integers(0, 6, n1).astype(float), rng.binomial(5, 0.5, n2).astype(float)
        else:
            x, y = rng.standard_normal(n1), 0.02 + 1.05 * rng.standard_normal(n2)
        assert _ks_statistic(x, y) == ks_2samp(x, y).statistic


def _stream_keys(monkeypatch, run) -> set:
    """Keys (seed, tag, n, block) of every stream that ``run()`` draws from."""
    keys = []

    class Recording(sampling.RngStream):
        def generator(self):
            keys.append((self.seed, *self.key))
            return super().generator()

    with monkeypatch.context() as m:
        m.setattr(sampling, "RngStream", Recording)
        run()
    assert len(keys) == len(set(keys))  # one stream per block
    return set(keys)


def _assert_streams_differ(keys_a: set, keys_b: set) -> None:
    assert keys_a and keys_b and not keys_a & keys_b
    heads = [RngStream(*key).generator().random(4).tobytes() for key in keys_a | keys_b]
    assert len(set(heads)) == len(heads)


def test_driver_stream_keys_never_collide(monkeypatch):
    # the three pairs that shared a stream under XOR-shifted seeds:
    # density and the rate Monte Carlo path at one n
    family = lambda n: iid_model(uniform_centered(), n)
    density = _stream_keys(monkeypatch, lambda: density_experiment(family, 1, [0.3], [8], samples=2000, seed=5))
    rate = _stream_keys(monkeypatch, lambda: rate_experiment(
        family, Polynomial(1, {(4,): 1.0}), 1, [8], mode="mc", samples=2000, seed=5))
    _assert_streams_differ(density, rate)
    # an uncoupled occupation run draws the law and its Gaussian twin from
    # one stream per block, so no twin key can equal another n's key
    mix = gaussian_mixture(0.5, 0.6, 0.8, -0.6, 0.8)
    occupation = _stream_keys(monkeypatch, lambda: occupation_time(mix, 0.5, [1, 3], samples=200, seed=5))
    tag = sampling.STREAM_TAGS["occupation"]
    assert occupation == {(5, tag, 1, 0), (5, tag, 3, 0)}
    _assert_streams_differ({(5, tag, 1, 0)}, {(5, tag, 1 ^ (1 << 16), 0)})
    # roots at n = 1 and small balls at n = 256
    roots = _stream_keys(monkeypatch, lambda: kac_rice_roots(uniform_centered(), [1], samples=200, seed=5))
    balls = _stream_keys(monkeypatch, lambda: small_ball(uniform_centered(), 256, u_grid_size=8, samples=200, seed=5))
    _assert_streams_differ(roots, balls)
    # every key carries its driver's tag
    for keys, driver in ((density, "density"), (rate, "mc_expectation"), (roots, "roots"), (balls, "smallball")):
        assert {key[1] for key in keys} == {sampling.STREAM_TAGS[driver]}
