import hashlib
import math
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from conftest import make_random_model
from edgeworth import sampling
from edgeworth.errors import CertificateError
from edgeworth.moments import (
    ModelSpec,
    Summand,
    exact_sum_moment,
    gaussian_mixture,
    iid_model,
    iid_vector_model,
    pdf,
    rademacher,
    sample_component,
    skewed_two_point,
    standard_normal,
    two_point,
    uniform_centered,
)
from edgeworth.multiindex import enumerate_multiindices
from edgeworth.sampling import (
    DoeblinCert,
    RngStream,
    block_plan,
    bump_mass,
    doeblin_check,
    driver_stream,
    mean_var,
    nummelin_sample,
    run_blocks,
    run_grid,
    sample_sum,
    smoothed_ball_indicator,
    taper_exponent,
)
from moment_reference import sample_sum_matmul_reference, sample_sum_reference

# the laws whose sum of c iid copies sample_sum draws in one go
CLOSED_FORM = [
    standard_normal(),
    rademacher(),
    skewed_two_point(0.2),
    two_point(0.2, 2.0, 0.5),
    gaussian_mixture(0.5, 0.6, 0.6, -0.6, math.sqrt(0.92)),  # skewed: unequal component widths
]


def test_stream_determinism_and_independence():
    a = RngStream(123, 0).generator().standard_normal(8)
    b = RngStream(123, 0).generator().standard_normal(8)
    c = RngStream(123, 1).generator().standard_normal(8)
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, c)


def test_smoothed_indicator_shape():
    r = 0.8
    t = np.array([0.0, 0.5 * r, r, 1.5 * r, 2.0 * r, 2.5 * r])
    v = smoothed_ball_indicator(r, t)
    assert v[0] == v[1] == v[2] == 1.0  # continuity at |t| = r: taper exponent is 0
    assert 0.0 < v[3] < 1.0
    assert v[4] == 0.0 and v[5] == 0.0
    assert abs(taper_exponent(r, r)) < 1e-14
    # a scalar in the taper band gives a 0-d array with the array's value
    scalar = smoothed_ball_indicator(r, 1.5 * r)
    assert np.shape(scalar) == () and scalar == v[3]
    fine = np.linspace(0, 2.5 * r, 10001)
    vals = smoothed_ball_indicator(r, fine)
    assert np.all(np.diff(vals) <= 1e-12)  # monotone taper
    assert np.max(np.abs(np.diff(vals))) < 5e-3  # no jumps at grid scale


# the bump on the real line, the one the splitting certificate uses
@pytest.mark.parametrize("dim", [1])
def test_bump_mass_bounds(dim):
    r = 0.7
    lower = 2.0 * math.sqrt(r) ** dim
    upper = 2.0 * math.sqrt(2 * r) ** dim
    m = bump_mass(r)
    assert lower < m < upper


def test_doeblin_check():
    ok, margin = doeblin_check(uniform_centered(), 0.0, 0.25, 0.2)
    assert ok and margin == pytest.approx(1 / (2 * math.sqrt(3)) - 0.2)
    # epsilon above the density minimum on the ball fails
    mix = gaussian_mixture(0.5, 0.6, 0.8, -0.6, 0.8)
    ok_bad, margin_bad = doeblin_check(mix, 0.0, 0.5, 1.0)
    assert not ok_bad and margin_bad < 0
    with pytest.raises(TypeError):
        doeblin_check(rademacher(), 0.0, 0.25, 0.1)


def test_certificate_validation():
    with pytest.raises(CertificateError):
        DoeblinCert(0.0, 0.25, 50.0)  # epsilon * mass > 1
    with pytest.raises(CertificateError):
        DoeblinCert(0.0, -1.0, 0.1)


def test_splitting_mixture_identity():
    cert = DoeblinCert(0.0, 0.25, 0.2)
    dist = uniform_centered()
    xs = np.linspace(-1.7, 1.7, 4001)
    p = pdf(dist, xs)
    bump = smoothed_ball_indicator(cert.radius, (xs - cert.center) ** 2)
    p1 = cert.split_probability
    recomposed = p1 * bump / cert.mass + (1 - p1) * (p - cert.epsilon * bump) / (1 - p1)
    assert np.max(np.abs(recomposed - p)) < 1e-10


def test_nummelin_sampler_statistics():
    dist = uniform_centered()
    cert = DoeblinCert(0.0, 0.25, 0.2)
    rng = RngStream(777, 0).generator()
    draws, chi = nummelin_sample(dist, cert, rng, 100_000)
    direct = sample_component(dist, RngStream(777, 1).generator(), 100_000)
    stat = ks_2samp(draws, direct).statistic
    assert stat < 1.628 * math.sqrt(2 / 100_000)

    p1 = cert.split_probability
    se = math.sqrt(p1 * (1 - p1) / 100_000)
    assert abs(chi.mean() - p1) <= 3 * se
    # smooth-branch draws stay inside the bump support
    assert np.max(np.abs(draws[chi] - cert.center)) <= cert.support_radius + 1e-12


def _philox(seed: int, stream_id: int) -> np.random.Generator:
    """A generator fixed here rather than by the package's stream rule, so
    the pins below move only when the sampler's own draws do."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream_id], dtype=np.uint64)))


# sha256 over seeds 0-9 of 5000 draws and their split indicators: the two
# branches draw proposals, then uniforms, bump branch first
NUMMELIN_DIGESTS = [
    (uniform_centered(), (0.0, 0.25, 0.2), "f60b98ebc7a637d3233d7cf1544c97d0f5295a608170c02d0f41453755da0212"),
    (standard_normal(), (0.0, 0.5, 0.2), "e7d2f95603887514940bc6d5f6663a858b84dc6578b43e5de262665ac6b75685"),
    (uniform_centered(), (0.0, 0.5, 0.25), "1ac1ed6de2dcebeb46089616aa8c6bcf503a475bf54273dffae957e464717179"),
]


@pytest.mark.parametrize("dist, cert, digest", NUMMELIN_DIGESTS)
def test_nummelin_draws_pinned(dist, cert, digest):
    h = hashlib.sha256()
    for seed in range(10):
        draws, chi = nummelin_sample(dist, DoeblinCert(*cert), _philox(seed, 0), 5000)
        h.update(draws.tobytes())
        h.update(chi.tobytes())
    assert h.hexdigest() == digest


# sha256 of 256 draws, as little-endian 8-byte values, from the stream of
# one fixed key, per numpy Generator method in each argument form the
# library calls it with; taken on numpy 2.4.6.  numpy keeps PCG64's stream
# stable across releases but not its Generator methods, so when the
# CSV_DIGESTS pins move these name the method that moved.
GENERATOR_DIGESTS = {
    "random": (lambda g: g.random(256), "02bc77a71d6464bcf46531a25551a956512243c18514988bf307f7a5e91561ff"),
    "random_2d": (lambda g: g.random((16, 16)), "02bc77a71d6464bcf46531a25551a956512243c18514988bf307f7a5e91561ff"),
    "standard_normal": (lambda g: g.standard_normal(256),
                        "44596fa2a7a988340e3d79f043a007f726ef29c365133629556f0e84592bf4e9"),
    # numpy draws count * min(p, 1 - p) <= 30 by inversion, larger ones by BTPE
    "binomial_inversion": (lambda g: g.binomial(10, 0.5, 256),
                           "23e2c925d84e9807440277e04f11ea9e6b713226e26ff2213a5456fa29ce9aa6"),
    "binomial_inversion_p_above_half": (lambda g: g.binomial(100, 0.8, 256),
                                        "15a07518967f81bcc11700e3fa7d0be25eae853c58edcee75d36efd007743787"),
    "binomial_btpe": (lambda g: g.binomial(1000, 0.5, 256),
                      "847aada15ed47dd1252c5148af48a2705c52c42816312dbad7c11ea446f4d2fd"),
    "uniform": (lambda g: g.uniform(-math.sqrt(3.0), math.sqrt(3.0), 256),
                "c2c84440e8ec5ca5bbda806a35b523e58c59cb3f40257b8dfc45ce5db64725b2"),
    "integers": (lambda g: g.integers(0, 2, 256), "460ba2d6a274a12975bd3fa61a61b994e36994cfdec4bd9dce227e44daa76add"),
}


@pytest.mark.parametrize("form", GENERATOR_DIGESTS)
def test_generator_methods_pinned(form):
    draw, digest = GENERATOR_DIGESTS[form]
    x = draw(driver_stream(5, "density", 16, 2))
    assert x.size == 256
    x = np.ascontiguousarray(x, dtype="<i8" if x.dtype.kind == "i" else "<f8")
    assert hashlib.sha256(x.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("threshold, message", [
    (0.99, "bump rejection acceptance 9.02e-01 below 1e+00"),
    (0.8, "remainder rejection acceptance 7.53e-01 below 8e-01"),
])
def test_nummelin_low_acceptance_aborts(monkeypatch, threshold, message):
    monkeypatch.setattr(sampling, "MIN_ACCEPTANCE", threshold)
    with pytest.raises(CertificateError, match=f"^{re.escape(message)}$"):
        nummelin_sample(uniform_centered(), DoeblinCert(0.0, 0.25, 0.2), _philox(3, 0), 5000)


def test_nummelin_rejects_bad_certificate():
    dist = uniform_centered()
    cert = DoeblinCert(0.0, 0.25, 0.3)  # above the uniform density: remainder goes negative
    with pytest.raises(CertificateError):
        nummelin_sample(dist, cert, RngStream(1, 0).generator(), 5000)


def test_nummelin_discrete_rejected():
    cert = DoeblinCert(0.0, 0.25, 0.2)
    with pytest.raises(TypeError):
        nummelin_sample(rademacher(), cert, RngStream(0, 0).generator(), 10)


def test_sample_sum_moments_against_oracle():
    dists = [rademacher(), uniform_centered(), skewed_two_point(0.2),
             gaussian_mixture(0.5, 0.6, 0.8, -0.6, 0.8), standard_normal()]
    for i, dist in enumerate(dists):
        model = iid_model(dist, 10)
        x = sample_sum(model, RngStream(100 + i, 0).generator(), 60_000)[:, 0]
        for order in (2, 3, 4):
            target = exact_sum_moment(model, (order,))
            est = (x**order).mean()
            se = (x**order).std() / math.sqrt(len(x))
            assert abs(est - target) <= 4 * se + 1e-12, (dist.kind, order)


@pytest.mark.parametrize("d", [1, 2])
def test_sample_sum_per_summand_records_match_reference(d):
    # count-1 records and records with a uniform component keep the
    # summand-by-summand draw order bit for bit
    rng = np.random.default_rng(40 + d)
    uniform = Summand(rng.normal(size=(d, d)) + np.eye(d), (uniform_centered(),) * d)
    mixed = Summand(rng.normal(size=(d, d)) + np.eye(d), (uniform_centered(),) + (skewed_two_point(0.2),) * (d - 1))
    models = [
        make_random_model(rng, d, 12),
        iid_vector_model((uniform_centered(),) * d, 37),
        ModelSpec(d=d, records=((uniform, 5), (mixed, 3), (uniform, 1))),
    ]
    for seed, model in enumerate(models):
        assert np.array_equal(sample_sum(model, RngStream(seed, 3).generator(), 500),
                              sample_sum_reference(model, RngStream(seed, 3).generator(), 500))


# one-dimensional records: any catalog law, a random scalar matrix, counts
# of 1 (summand by summand) and above (closed-form sums, uniform summands)
ONE_DIM_RECORDS = st.tuples(
    st.sampled_from(CLOSED_FORM + [uniform_centered()]),
    st.floats(-4.0, 4.0, allow_nan=False),
    st.integers(1, 40),
)


@settings(max_examples=60, deadline=None)
@given(records=st.lists(ONE_DIM_RECORDS, min_size=1, max_size=4), size=st.integers(1, 300),
       seed=st.integers(0, 2**32 - 1))
def test_sample_sum_scalar_matrices_match_matmul(records, size, seed):
    # a 1x1 matrix multiplies instead of running matmul: the same bits, on
    # one-record (iid) and several-record (non-iid) models
    model = ModelSpec(d=1, records=tuple((Summand([[c]], (dist,)), count) for dist, c, count in records))
    new = sample_sum(model, RngStream(seed, 4).generator(), size)
    assert new.tobytes() == sample_sum_matmul_reference(model, RngStream(seed, 4).generator(), size).tobytes()


@pytest.mark.parametrize("count", [1, 2, 7, 1000])
@pytest.mark.parametrize("dist", CLOSED_FORM, ids=lambda dist: "-".join([dist.kind, *map(str, dist.params)]))
def test_closed_form_sums_match_exact_moments(dist, count):
    model = iid_model(dist, count)
    x = sample_sum(model, RngStream(count, 11).generator(), 200_000)[:, 0]
    for order in (1, 2, 3, 4):
        xk = x**order
        target = exact_sum_moment(model, (order,))
        assert abs(xk.mean() - target) <= 5 * xk.std() / math.sqrt(len(x)) + 1e-12, order


@pytest.mark.parametrize("count", [2, 7, 1000])
def test_closed_form_record_moments_in_two_dimensions(count):
    # one record, two closed-form components mixed by a full matrix
    rec = Summand(np.array([[1.0, 0.4], [-0.3, 0.8]]), (two_point(0.2, 2.0, 0.5), CLOSED_FORM[-1]))
    model = ModelSpec(d=2, records=((rec, count),))
    x = sample_sum(model, RngStream(count, 13).generator(), 200_000)
    for order in (1, 2, 3, 4):
        for beta in enumerate_multiindices(2, order):
            xb = x[:, 0] ** beta[0] * x[:, 1] ** beta[1]
            target = exact_sum_moment(model, beta)
            assert abs(xb.mean() - target) <= 5 * xb.std() / math.sqrt(len(x)) + 1e-12, beta


@pytest.mark.parametrize("count", [1, 2, 7, 1000])
@pytest.mark.parametrize("dist", [rademacher(), skewed_two_point(0.2), two_point(0.2, 2.0, 0.5)],
                         ids=lambda dist: "-".join([dist.kind, *map(str, dist.params)]))
def test_lattice_sums_stay_on_lattice(dist, count):
    # every draw of c summands with values a, -b is a k - b (c - k), 0 <= k <= c
    a, b = dist.params[1:] if dist.params else (1.0, 1.0)
    s = sample_sum(iid_model(dist, count), RngStream(count, 12).generator(), 20_000)[:, 0] * math.sqrt(count)
    k = np.rint((s + b * count) / (a + b))
    assert np.all((k >= 0) & (k <= count))
    assert np.max(np.abs(s - (a * k - b * (count - k)))) <= 1e-12 * (a + b) * count


def test_sample_sum_normalized_vector_model():
    model = iid_vector_model((standard_normal(), standard_normal()), 4)
    x = sample_sum(model, RngStream(5, 0).generator(), 50_000)
    mean = x.mean(axis=0)
    cov = np.cov(x.T)
    assert np.max(np.abs(mean)) < 4 / math.sqrt(50_000) * 1.1
    assert np.max(np.abs(cov - np.eye(2))) < 0.03


def test_run_blocks_plan_and_order():
    finished = []
    block1_done = threading.Event()

    def block_fn(bid, bsize):
        if bid == 0:
            assert block1_done.wait(timeout=30)  # block 0 finishes after block 1
        if bid == 1:
            block1_done.set()
        finished.append(bid)
        return bid, bsize

    plan = block_plan(1003, 100)
    out = run_blocks(plan, block_fn, workers=3)
    assert finished.index(1) < finished.index(0)
    # results come back in block order; the last block takes the remainder
    assert out == [(bid, 100) for bid in range(10)] + [(10, 3)]
    assert sum(bsize for _, bsize in out) == 1003
    assert run_blocks(plan, lambda bid, bsize: (bid, bsize)) == out

    def draw(bid, bsize):
        return float(RngStream(9, bid).generator().standard_normal(bsize).sum())

    assert run_blocks(plan, draw) == run_blocks(plan, draw, workers=3)
    # a plan keyed by more than the block id comes back in plan order too
    keyed = [(key, bid, bsize) for key in (2, 7) for bid, bsize in plan]
    assert run_blocks(keyed, lambda key, bid, bsize: (key, bid), workers=3) == [entry[:2] for entry in keyed]


@pytest.mark.parametrize("workers", [1, 2])
def test_run_grid_starts_largest_blocks_first(monkeypatch, workers):
    plans, real = [], sampling.run_blocks

    def recording(plan, block_fn, workers=1):
        plans.append(list(plan))
        return real(plan, block_fn, workers)

    monkeypatch.setattr(sampling, "run_blocks", recording)
    grid, samples, rows = [16, 128, 64], 250, lambda n: 100
    out = run_grid(7, "density", grid, samples, rows, lambda n, rng, bsize: (n, bsize, rng.random()), workers)
    # per n, its blocks in block order, each from its own keyed stream
    assert out == [[(n, bsize, driver_stream(7, "density", n, bid).random()) for bid, bsize in block_plan(samples, 100)]
                   for n in grid]
    # the pool receives every block once, in decreasing n * bsize
    [plan] = plans
    assert sorted(plan) == [(i, bid, bsize) for i in range(3) for bid, bsize in block_plan(samples, 100)]
    costs = [grid[i] * bsize for i, _, bsize in plan]
    assert costs == sorted(costs, reverse=True) and costs[0] == 128 * 100


def test_mean_var():
    assert mean_var(6.0, 20.0, 2) == (3.0, 1.0)
    assert mean_var(2.0, 2.0 - 1e-15, 2) == (1.0, 0.0)  # rounding never gives a negative variance
