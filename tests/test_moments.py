import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeworth.moments import (
    ComponentDistribution,
    ModelSpec,
    Summand,
    component_icdf,
    cumulant_tables,
    exact_sum_moment,
    exact_sum_moment_table,
    gaussian_mixture,
    has_density,
    has_icdf,
    iid_model,
    iid_vector_model,
    pdf,
    rademacher,
    raw_moment,
    skewed_two_point,
    standard_normal,
    two_point,
    uniform_centered,
)
from edgeworth import moments
from edgeworth.corrector import corrector_polynomial
from edgeworth.hermite import MAX_DEGREE
from edgeworth.sampling import RngStream, sample_sum
from corrector_reference import gap_table
from moment_reference import (
    cumulant_table,
    cumulant_table_reference,
    icdf_where_reference,
    moments_from_cumulants,
    pushforward_moment,
    recursion_reference,
    sum_moments_reference,
    summand_list,
)

CATALOG = [
    rademacher(),
    uniform_centered(),
    skewed_two_point(0.2),
    gaussian_mixture(0.5, 0.6, 0.8, -0.6, 0.8),
    standard_normal(),
]


def test_raw_moment_examples():
    assert raw_moment(rademacher(), 4) == 1.0
    assert raw_moment(uniform_centered(), 4) == pytest.approx(9.0 / 5.0, abs=1e-15)
    assert raw_moment(standard_normal(), 6) == 15.0


@pytest.mark.parametrize("dist", CATALOG)
def test_catalog_standardized(dist):
    assert abs(raw_moment(dist, 1)) < 1e-12
    assert abs(raw_moment(dist, 2) - 1.0) < 1e-12


def test_invalid_parameterizations_rejected():
    cases = [
        (lambda: two_point(0.3, 1.0, 1.0), "need \\(0, 1\\)"),  # mean != 0
        (lambda: ComponentDistribution("lognormal"), "unknown component kind"),
        (lambda: ComponentDistribution(["rademacher"]), "unknown component kind"),
        (lambda: ComponentDistribution("two_point", (0.5, 1.0)), "two_point takes parameters"),
        # a NaN or infinite moment used to pass the mean and variance check
        (lambda: two_point(math.nan, 1.0, 1.0), "need \\(0, 1\\)"),
        (lambda: two_point(0.5, math.inf, math.inf), "need \\(0, 1\\)"),
        (lambda: gaussian_mixture(0.5, 0.0, math.nan, 0.0, 1.0), "mixture needs"),
        # mean 0 and variance 1, but no law: a weight outside [0, 1], sigma <= 0
        (lambda: gaussian_mixture(2.0, 0.0, 1.0, 0.0, 1.0), "mixture needs"),
        (lambda: gaussian_mixture(-1.0, 0.0, 1.0, 0.0, 1.0), "mixture needs"),
        (lambda: gaussian_mixture(0.5, 0.0, -1.0, 0.0, -1.0), "mixture needs"),
        (lambda: gaussian_mixture(0.5, 1.0, 0.0, -1.0, 0.0), "mixture needs"),
    ]
    for make, match in cases:
        with pytest.raises(ValueError, match=match):
            make()


def test_mixture_moments_against_quadrature():
    dist = gaussian_mixture(0.5, 0.6, 0.8, -0.6, 0.8)
    xs = np.linspace(-12, 12, 200001)
    dens = pdf(dist, xs)
    for k in range(1, 7):
        quad = np.trapezoid(dens * xs**k, xs)
        assert raw_moment(dist, k) == pytest.approx(quad, abs=1e-8)


def table_moment(C, comps, beta):
    """E[(C Y)^beta] from the record's cumulant table and the moment recursion."""
    C = np.atleast_2d(C)
    return moments_from_cumulants(cumulant_table(C, comps, sum(beta)), C.shape[0], sum(beta))[beta]


# the library's per-record table and the multilinear-expansion oracle
MOMENTS = (table_moment, pushforward_moment)


def test_pushforward_examples():
    for moment in MOMENTS:
        assert moment(np.eye(1), (rademacher(),), (3,)) == 0.0
        assert moment(np.eye(1), (uniform_centered(),), (4,)) == pytest.approx(9 / 5)
        assert moment(np.eye(2), (rademacher(), rademacher()), (2, 2)) == 1.0


def test_pushforward_multilinear_in_rows():
    rng = np.random.default_rng(3)
    C = rng.normal(size=(2, 3))
    comps = (uniform_centered(), skewed_two_point(0.3), rademacher())
    beta = (3, 2)
    for moment in MOMENTS:
        base = moment(C, comps, beta)
        C2 = C.copy()
        C2[0] *= 2.5  # row scaling multiplies by 2.5^beta_0
        assert moment(C2, comps, beta) == pytest.approx(2.5**3 * base, rel=1e-12)


def test_pushforward_vs_direct_expansion():
    # brute-force over discrete outcomes
    rng = np.random.default_rng(5)
    C = rng.normal(size=(2, 2))
    tp = skewed_two_point(0.25)
    vals = [(math.sqrt(3.0), 0.25), (-math.sqrt(1.0 / 3.0), 0.75)]
    for beta in [(2, 1), (3, 2), (4, 0)]:
        total = 0.0
        for (y1, p1) in vals:
            for (y2, p2) in vals:
                z = C @ np.array([y1, y2])
                total += p1 * p2 * z[0] ** beta[0] * z[1] ** beta[1]
        for moment in MOMENTS:
            assert moment(C, (tp, tp), beta) == pytest.approx(total, rel=1e-12)


@pytest.mark.parametrize("dist", CATALOG)
def test_has_icdf_matches_component_icdf(dist):
    # each capability predicate holds exactly when its closed form runs, and
    # the closed form of a law without one raises a TypeError that names it
    x = np.array([0.25, 0.5, 0.75])
    for has, closed_form, message in ((has_icdf, component_icdf, "has no closed-form inverse CDF"),
                                      (has_density, pdf, "has no Lebesgue density")):
        if has(dist) is True:
            assert closed_form(dist, x).shape == x.shape
        else:
            assert has(dist) is False
            with pytest.raises(TypeError, match=f"^{dist.kind} {message}$"):
                closed_form(dist, x)


TWO_VALUED = [rademacher(), skewed_two_point(0.2), two_point(0.2, 2.0, 0.5), skewed_two_point(0.5)]


@pytest.mark.parametrize("dist", TWO_VALUED, ids=lambda dist: "-".join([dist.kind, *map(str, dist.params)]))
def test_two_valued_tables_match_where(dist):
    # the table lookups give np.where's bits, at the switch point 1 - p
    # (0.5 for Rademacher) and on either side of it too
    p = dist.params[0] if dist.params else 0.5
    edge = [0.0, 0.5, 1.0 - p, np.nextafter(1.0 - p, 0.0), np.nextafter(1.0 - p, 1.0), np.nextafter(1.0, 0.0)]
    u = np.concatenate([edge, RngStream(3, 1).generator().random(4096)])
    for x in (u, u.reshape(-1, 2)[:, :1], u[0], 0.5, 1.0 - p):
        new = component_icdf(dist, x)
        assert np.shape(new) == np.shape(x) and new.tobytes() == icdf_where_reference(dist, x).tobytes()


def test_catalog_covers_every_kind():
    from edgeworth.moments import _LAWS

    assert {c.kind for c in CATALOG} == set(_LAWS)


@pytest.mark.parametrize("dist", CATALOG)
def test_moment_gap_vanishes_to_second_order(dist):
    # the table holds orders >= 3 only: every lower-order gap reads as 0
    assert gap_table(np.eye(1), (dist,), 2) == {}


def test_moment_gap_examples():
    assert gap_table(np.eye(1), (rademacher(),), 4)[(4,)] == pytest.approx(-2.0)
    assert gap_table(np.eye(1), (uniform_centered(),), 4)[(4,)] == pytest.approx(-6.0 / 5.0)
    assert gap_table(np.eye(1), (standard_normal(),), 6) == {}


def _enumerate_discrete_sum_moment(model, beta):
    # full enumeration over discrete outcomes, n <= 4
    outcomes = []
    for rec in summand_list(model):
        per_comp = []
        for comp in rec.components:
            if comp.kind == "rademacher":
                per_comp.append([(1.0, 0.5), (-1.0, 0.5)])
            elif comp.kind == "two_point":
                p, a, b = comp.params
                per_comp.append([(a, p), (-b, 1 - p)])
            else:
                raise AssertionError("enumeration oracle needs discrete components")
        outcomes.append((rec.C, per_comp))
    total = 0.0
    grids = [list(itertools.product(*per_comp)) for _, per_comp in outcomes]
    for combo in itertools.product(*grids):
        prob = 1.0
        s = np.zeros(model.d)
        for (C, _), draws in zip(outcomes, combo):
            y = np.array([v for v, _ in draws])
            prob *= math.prod(p for _, p in draws)
            s += C @ y
        s /= math.sqrt(model.n)
        total += prob * math.prod(s[i] ** b for i, b in enumerate(beta))
    return total


def _sum_moment_loop(model, beta):
    """Oracle: E[S_n^beta] by a dynamic program that absorbs the summands
    one at a time, a part delta of the multiplicity per summand."""
    subs = [
        delta for delta in itertools.product(*(range(b + 1) for b in beta)) if sum(delta) != 1
    ]
    moms = {}  # per record, scaled moment of every part
    state = {(0,) * model.d: 1.0}
    for rec in summand_list(model):
        if id(rec) not in moms:
            moms[id(rec)] = {
                delta: (pushforward_moment(rec.C, rec.components, delta) if sum(delta) else 1.0)
                * model.n ** (-0.5 * sum(delta))
                for delta in subs
            }
        new: dict = {}
        for gamma, acc in state.items():
            for delta, mom in moms[id(rec)].items():
                ng = tuple(g + dv for g, dv in zip(gamma, delta))
                if any(x > b for x, b in zip(ng, beta)):
                    continue
                split = math.prod(math.comb(gv, dv) for gv, dv in zip(ng, delta))
                new[ng] = new.get(ng, 0.0) + acc * split * mom
        state = new
    return state.get(tuple(beta), 0.0)


def test_exact_sum_moment_squaring_matches_loop():
    # summed cumulants against the summand-by-summand loop, small n to 1000
    C = np.array([[1.0, 0.4], [-0.3, 0.9]])
    d1 = Summand(np.eye(1), (skewed_two_point(0.2),))
    d2 = Summand(C, (skewed_two_point(0.3), gaussian_mixture(0.5, 0.6, 0.8, -0.6, 0.8)))
    betas = {
        1: [(k,) for k in range(2, 9)],
        2: [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3), (4, 4), (0, 8)],
    }
    for rec in (d1, d2):
        d = rec.C.shape[0]
        for n in (1, 2, 3, 5, 8, 1000):
            model = ModelSpec(d=d, records=((rec, n),))
            for beta in betas[d]:
                ref = _sum_moment_loop(model, beta)
                assert exact_sum_moment(model, beta) == pytest.approx(ref, rel=1e-12)


def test_exact_sum_moment_examples():
    assert exact_sum_moment(iid_model(rademacher(), 2), (4,)) == pytest.approx(2.0)
    for n in (2, 3, 7, 50, 1024, 10**6):
        got = exact_sum_moment(iid_model(rademacher(), n), (4,))
        assert got == pytest.approx(3.0 - 2.0 / n, rel=1e-12)
    # odd orders vanish for symmetric components
    assert exact_sum_moment(iid_model(uniform_centered(), 9), (3,)) == 0.0
    assert exact_sum_moment(iid_model(rademacher(), 5), (5,)) == 0.0


def test_exact_sum_moment_vs_enumeration():
    rng = np.random.default_rng(11)
    tp = skewed_two_point(0.25)
    for n in (2, 3, 4):
        summands = tuple(
            Summand(rng.normal(size=(2, 2)), (rademacher(), tp)) for _ in range(n)
        )
        model = ModelSpec(d=2, records=tuple((s, 1) for s in summands))
        for beta in [(2, 0), (1, 1), (3, 1), (2, 2), (0, 3)]:
            dp = exact_sum_moment(model, beta)
            brute = _enumerate_discrete_sum_moment(model, beta)
            assert dp == pytest.approx(brute, abs=1e-12)


def test_second_moments_reproduce_covariance():
    rng = np.random.default_rng(13)
    summands = tuple(Summand(rng.normal(size=(2, 2)), (uniform_centered(), rademacher())) for _ in range(6))
    model = ModelSpec(d=2, records=tuple((s, 1) for s in summands))
    cov = model.covariance_mean()
    assert exact_sum_moment(model, (2, 0)) == pytest.approx(cov[0, 0], rel=1e-12)
    assert exact_sum_moment(model, (1, 1)) == pytest.approx(cov[0, 1], rel=1e-12)
    from edgeworth.corrector import normalize

    normed = normalize(model)
    assert np.max(np.abs(normed.covariance_mean() - np.eye(2))) <= 1e-10
    assert exact_sum_moment(normed, (2, 0)) == pytest.approx(1.0, rel=1e-10)
    assert exact_sum_moment(normed, (1, 1)) == pytest.approx(0.0, abs=1e-12)


def test_model_json_roundtrip():
    a = Summand(np.array([[1.0, 0.3], [-0.2, 0.9]]), (skewed_two_point(0.2), gaussian_mixture(0.5, 0.6, 0.8, -0.6, 0.8)))
    b = Summand(np.eye(2), (rademacher(), two_point(0.2, 2.0, 0.5)))
    counted = ModelSpec(d=2, records=((a, 3), (b, 1), (a, 2)))
    for model in (iid_vector_model((skewed_two_point(0.2), uniform_centered()), 12), counted):
        doc = json.loads(json.dumps(model.to_json()))
        assert "iid" not in doc and [r["count"] for r in doc["summands"]] == [c for _, c in model.records]
        back = ModelSpec.from_json(doc)
        assert back.d == model.d and back.n == model.n
        for (r1, c1), (r2, c2) in zip(back.records, model.records, strict=True):
            assert c1 == c2 and np.array_equal(r1.C, r2.C) and r1.components == r2.components
        assert exact_sum_moment(back, (2, 2)) == exact_sum_moment(model, (2, 2))


def test_model_json_legacy_layout():
    # documents with an iid flag and no counts, shaped like the benchmark's
    rec = {"C": [[1.0, 0.25], [0.0, 0.5]],
           "components": [{"kind": "two_point", "p": 0.2, "a": 2.0, "b": 0.5}, {"kind": "uniform_centered"}]}
    other = {"C": [[0.5, 0.0], [0.1, 1.0]], "components": [{"kind": "rademacher"}, {"kind": "standard_normal"}]}
    iid = ModelSpec.from_json({"d": 2, "n": 100, "iid": True, "summands": [rec]})
    assert iid.n == 100 and [c for _, c in iid.records] == [100]
    assert np.array_equal(iid.records[0][0].C, rec["C"])
    assert iid.records[0][0].components == (two_point(0.2, 2.0, 0.5), uniform_centered())
    for flag in ({"iid": False}, {}):
        model = ModelSpec.from_json({"d": 2, "n": 3, **flag, "summands": [rec, other, rec]})
        assert model.n == 3 and [c for _, c in model.records] == [1, 1, 1]
        assert [r.components[0].kind for r, _ in model.records] == ["two_point", "rademacher", "two_point"]
    # a document whose n disagrees with its records keeps its message
    with pytest.raises(ValueError, match=r"^expected 4 summand records, got 3$"):
        ModelSpec.from_json({"d": 2, "n": 4, "iid": False, "summands": [rec, other, rec]})
    with pytest.raises(ValueError, match=r"^expected 1 summand records, got 2$"):
        ModelSpec.from_json({"d": 2, "n": 4, "iid": True, "summands": [rec, other]})
    with pytest.raises(ValueError, match=r"^expected 5 summand records, got 4$"):
        ModelSpec.from_json({"d": 2, "n": 5, "summands": [dict(rec, count=3), other]})


BAD_MODEL_DOCS = [
    pytest.param({"d": 1, "n": 5, "iid": "false", "summands": [{"C": [[1.0]], "components": [{"kind": "rademacher"}]}]},
                 "model field 'iid' must be true or false, got 'false'", id="iid-string"),
    pytest.param({"d": 1, "summands": [{"C": [[1.0]], "components": [{"kind": "rademacher"}]}]},
                 "model: missing fields ['n']", id="missing-model-field"),
    pytest.param({"d": 1, "n": 5, "idd": True, "summands": [{"C": [[1.0]], "components": [{"kind": "rademacher"}]}]},
                 "model: unknown fields ['idd']", id="unknown-model-field"),
    pytest.param({"d": 1, "n": 5, "summands": [{"C": [[1.0]], "components": [{"kind": "rademacher"}], "cnt": 5}]},
                 "model record: unknown fields ['cnt']", id="unknown-record-field"),
    pytest.param({"d": 1, "n": 5, "summands": [{"C": [[1.0]], "components": [{"kind": "rademacher"}], "count": 5.0}]},
                 "record count must be an integer >= 1, got 5.0", id="float-count"),
    pytest.param({"d": 1, "n": 1, "summands": [{"C": [[1.0]], "components": [{"kind": "rademacher"}], "count": True}]},
                 "record count must be an integer >= 1, got True", id="bool-count"),
    pytest.param({"d": 1, "n": 0, "summands": [{"C": [[1.0]], "components": [{"kind": "rademacher"}], "count": 0}]},
                 "record count must be an integer >= 1, got 0", id="zero-count"),
    pytest.param({"d": 1, "n": 1, "summands": [{"C": [[1.0]], "components": [{"kind": "uniform_centered", "p": 0.3}]}]},
                 "uniform_centered component: unknown fields ['p']", id="unknown-component-field"),
    pytest.param({"d": 1, "n": 1, "summands": [{"C": [[1.0]], "components": [{"kind": "two_point", "p": 0.2, "a": 2.0}]}]},
                 "two_point component: missing fields ['b']", id="missing-component-field"),
    pytest.param({"d": 1, "n": 1, "summands": [{"C": [[1.0]], "components": [{"kind": "two_point", "p": None, "a": 2.0, "b": 0.5}]}]},
                 "two_point component: field 'p' must be a number, got None", id="null-component-field"),
    pytest.param({"d": 1, "n": 1, "summands": [{"C": [[1.0]], "components": [{"kind": "two_point", "p": "0.2", "a": 2.0, "b": 0.5}]}]},
                 "two_point component: field 'p' must be a number, got '0.2'", id="string-component-field"),
    # d and n used to go through int(): 1.7 loaded as d = 1, 2.9 as n = 2
    pytest.param({"d": 1.7, "n": 1, "summands": [{"C": [[1.0]], "components": [{"kind": "rademacher"}]}]},
                 "model field 'd' must be an integer, got 1.7", id="float-d"),
    pytest.param({"d": 1, "n": 2.9, "iid": True, "summands": [{"C": [[1.0]], "components": [{"kind": "rademacher"}]}]},
                 "model field 'n' must be an integer, got 2.9", id="float-n"),
    pytest.param({"d": True, "n": 1, "summands": [{"C": [[1.0]], "components": [{"kind": "rademacher"}]}]},
                 "model field 'd' must be an integer, got True", id="bool-d"),
    pytest.param({"d": 1, "n": "2", "iid": True, "summands": [{"C": [[1.0]], "components": [{"kind": "rademacher"}]}]},
                 "model field 'n' must be an integer, got '2'", id="string-n"),
    pytest.param([], "model must be a JSON object, got []", id="list-model"),
    pytest.param({"d": 1, "n": 1, "summands": [3]}, "model record must be a JSON object, got 3", id="number-record"),
    pytest.param({"d": 1, "n": 1, "summands": [{"C": [[1.0]], "components": ["rademacher"]}]},
                 "component must be a JSON object, got 'rademacher'", id="string-component"),
    pytest.param({"d": 1, "n": 1, "summands": 3}, "model field 'summands' must be a JSON list, got 3",
                 id="number-summands"),
    pytest.param({"d": 1, "n": 1, "iid": True, "summands": "r"},
                 "model field 'summands' must be a JSON list, got 'r'", id="string-summands"),
    pytest.param({"d": 1, "n": 1, "summands": [{"C": [[1.0]], "components": 3}]},
                 "model record field 'components' must be a JSON list, got 3", id="number-components"),
    # the first two used to load as [[1.0]], the third into a NaN corrector
    pytest.param({"d": 1, "n": 1, "summands": [{"C": [["1.0"]], "components": [{"kind": "rademacher"}]}]},
                 "model record field 'C' must be a list of equal-length lists of numbers, got [['1.0']]",
                 id="string-matrix-entry"),
    pytest.param({"d": 1, "n": 1, "summands": [{"C": [[True]], "components": [{"kind": "rademacher"}]}]},
                 "model record field 'C' must be a list of equal-length lists of numbers, got [[True]]",
                 id="bool-matrix-entry"),
    pytest.param({"d": 1, "n": 1, "summands": [{"C": [[math.nan]], "components": [{"kind": "rademacher"}]}]},
                 "model record field 'C' must be a list of equal-length lists of numbers, got [[nan]]",
                 id="nan-matrix-entry"),
    pytest.param({"d": 2, "n": 1, "summands": [{"C": [[1.0], [1.0, 2.0]], "components": [{"kind": "rademacher"}]}]},
                 "model record field 'C' must be a list of equal-length lists of numbers, got [[1.0], [1.0, 2.0]]",
                 id="ragged-matrix"),
    pytest.param({"d": 1, "n": 1, "summands": [{"C": "abc", "components": [{"kind": "rademacher"}]}]},
                 "model record field 'C' must be a list of equal-length lists of numbers, got 'abc'",
                 id="string-matrix"),
    # this exited with the law's moment check, which named no field
    pytest.param({"d": 1, "n": 1, "summands": [{"C": [[1.0]], "components": [{"kind": "two_point", "p": math.nan, "a": 1.0, "b": 1.0}]}]},
                 "two_point component: field 'p' must be a number, got nan", id="nan-component-field"),
]


@pytest.mark.parametrize("doc, message", BAD_MODEL_DOCS)
def test_model_json_rejects_loose_documents(doc, message):
    with pytest.raises(ValueError) as err:
        ModelSpec.from_json(doc)
    assert str(err.value) == message


@settings(derandomize=True, deadline=None, max_examples=40)
@given(data=st.data())
def test_counted_records_equal_expanded_model(data):
    # ((A, c1), (B, c2)) against the same summands as count-1 records
    d = data.draw(st.integers(1, 3), label="d")
    a, b = _record(data, d), _record(data, d)
    c1, c2 = data.draw(st.integers(1, 4), label="c1"), data.draw(st.integers(1, 4), label="c2")
    counted = ModelSpec(d=d, records=((a, c1), (b, c2)))
    expanded = ModelSpec(d=d, records=tuple((rec, 1) for rec in [a] * c1 + [b] * c2))
    assert counted.n == expanded.n == c1 + c2

    def close(x: dict, y: dict):
        scale = max([1.0] + [abs(v) for v in x.values()])
        assert all(abs(x.get(k, 0.0) - y.get(k, 0.0)) <= 1e-12 * scale for k in x.keys() | y.keys())

    K = 4 if d == 3 else 6
    close(exact_sum_moment_table(counted, K), exact_sum_moment_table(expanded, K))
    close(corrector_polynomial(counted, 3).terms, corrector_polynomial(expanded, 3).terms)
    cov = counted.covariance_mean()
    assert np.max(np.abs(cov - expanded.covariance_mean())) <= 1e-12 * max(1.0, np.max(np.abs(cov)))
    # records without a closed-form sum draw summand by summand, so their
    # draws are the expanded model's bit for bit; the closed-form records are
    # checked in law by tests/test_sampling.py
    if all(count == 1 or uniform_centered() in rec.components for rec, count in counted.records):
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        assert np.array_equal(sample_sum(counted, RngStream(seed, 0).generator(), 16),
                              sample_sum(expanded, RngStream(seed, 0).generator(), 16))
    back = ModelSpec.from_json(json.loads(json.dumps(counted.to_json())))
    assert back.n == counted.n and exact_sum_moment_table(back, K) == exact_sum_moment_table(counted, K)


def test_exact_sum_moment_table_entries():
    # one table serves every monomial: each entry is the single-moment
    # call bit for bit, whatever order the table was built to
    rng = np.random.default_rng(17)
    noniid = ModelSpec(d=2, records=tuple(
        (Summand(rng.normal(size=(2, 2)) + np.eye(2), (CATALOG[k % 5], CATALOG[(k + 2) % 5])), 1)
        for k in range(30)
    ))
    models = [
        noniid,
        iid_model(skewed_two_point(0.2), 1000),
        iid_vector_model((skewed_two_point(0.3), uniform_centered(), rademacher()), 50),
    ]
    for model in models:
        for K in (6, 8):
            table = exact_sum_moment_table(model, K)
            assert set(table) == {
                b for b in itertools.product(range(K + 1), repeat=model.d) if sum(b) <= K
            }
            for beta, v in table.items():
                assert v == exact_sum_moment(model, beta)


def test_order_cap():
    with pytest.raises(ValueError, match="exact sum moment order capped at 8"):
        exact_sum_moment(iid_model(rademacher(), 4), (9,))
    with pytest.raises(ValueError, match="exact sum moment order capped at 8"):
        exact_sum_moment_table(iid_model(rademacher(), 4), 9)
    with pytest.raises(ValueError, match="index dimension != model dimension"):
        exact_sum_moment(iid_model(rademacher(), 4), (2, 2))
    with pytest.raises(ValueError, match="pushforward moment order capped at 12"):
        cumulant_table(np.eye(1), (rademacher(),), 13)


def _record(data, d):
    m = data.draw(st.integers(1, 3), label="m")
    entry = st.floats(-2.0, 2.0, allow_subnormal=False)
    C = data.draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=d, max_size=d), label="C")
    comps = data.draw(st.lists(st.sampled_from(CATALOG), min_size=m, max_size=m), label="comps")
    return Summand(np.array(C), tuple(comps))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data())
def test_table_moments_match_oracle(data):
    # random records: d, m <= 3, catalog laws, 3 <= |beta| <= 6
    d = data.draw(st.integers(1, 3), label="d")
    rec = _record(data, d)
    beta = tuple(data.draw(
        st.lists(st.integers(0, 6), min_size=d, max_size=d).filter(lambda b: 3 <= sum(b) <= 6), label="beta"
    ))
    law = pushforward_moment(rec.C, rec.components, beta)
    twin = pushforward_moment(rec.C, tuple(standard_normal() for _ in rec.components), beta)
    gap = gap_table(rec.C, rec.components, sum(beta)).get(beta, 0.0)
    assert abs(gap - (law - twin)) <= 1e-12 * max(1.0, abs(law))

    n = data.draw(st.integers(1, 5), label="n")
    if data.draw(st.booleans(), label="iid"):
        model = ModelSpec(d=d, records=((rec, n),))
    else:
        model = ModelSpec(d=d, records=((rec, 1),) + tuple((_record(data, d), 1) for _ in range(n - 1)))
    ref = _sum_moment_loop(model, beta)
    assert abs(exact_sum_moment(model, beta) - ref) <= 1e-12 * max(1.0, abs(ref))


# matrix entries: signed zeros and units, so that powers and products meet
# exact zeros, and floats of either sign
_ENTRY = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-3.0, 3.0))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_one_pass_tables_and_recursion_keep_the_record_loops_bytes(data):
    # records with 1 to 3 components each (shorter ones are padded in the
    # one pass), every catalog law (the symmetric ones and the normal have
    # zero cumulants): every cumulant and exact sum moment is the
    # per-record loop's and the dict recursion's float, repr for repr
    d = data.draw(st.integers(1, 3), label="d")
    records = []
    for _ in range(data.draw(st.integers(1, 4), label="records")):
        m = data.draw(st.integers(1, 3), label="m")
        C = np.array(data.draw(st.lists(st.lists(_ENTRY, min_size=m, max_size=m), min_size=d, max_size=d),
                               label="C"))
        comps = tuple(data.draw(st.lists(st.sampled_from(CATALOG), min_size=m, max_size=m), label="comps"))
        records.append((Summand(C, comps), data.draw(st.integers(1, 5), label="count")))
    model = ModelSpec(d=d, records=tuple(records))
    summands = [s for s, _ in records]

    K = data.draw(st.integers(2, MAX_DEGREE), label="K")
    plan = moments._plan(d, K)
    rows = cumulant_tables(summands, K, plan.columns).tolist()
    for s, row in zip(summands, rows):
        ref = cumulant_table_reference(s.C, s.components, K)
        assert repr(cumulant_table(s.C, s.components, K)) == repr(ref)
        assert repr(row) == repr([ref.get(b, 0.0) for b in plan.table])
        assert repr(moments_from_cumulants(ref, d, K)) == repr(recursion_reference(ref, d, K))

    K = data.draw(st.integers(0, 8), label="sum K")
    table = exact_sum_moment_table(model, K)
    assert repr(table) == repr(sum_moments_reference(model, K))
    top = data.draw(st.sampled_from(sorted(table)), label="top")
    assert repr(exact_sum_moment(model, top)) == repr(sum_moments_reference(model, sum(top), top)[top])


@pytest.mark.parametrize("block", [1, 700, 1000])
def test_table_blocks_keep_the_bytes(monkeypatch, block):
    # 300 factors per record here, so blocks of 1, 2 and 3 records: the rows
    # are the record loop's whatever the block boundaries and padding
    rng = np.random.default_rng(32)
    summands = [Summand(rng.normal(size=(2, m)), tuple(CATALOG[(k + j) % 5] for j in range(m)))
                for k, m in enumerate([1, 3, 2, 3, 1, 2, 2, 3, 1])]
    model = ModelSpec(d=2, records=tuple((s, k + 1) for k, s in enumerate(summands)))
    plan = moments._plan(2, 6)
    monkeypatch.setattr(moments, "TABLE_BLOCK", block)
    rows = cumulant_tables(summands, 6, plan.columns).tolist()
    for s, row in zip(summands, rows):
        ref = cumulant_table_reference(s.C, s.components, 6)
        assert repr(row) == repr([ref.get(b, 0.0) for b in plan.table])
    assert repr(exact_sum_moment_table(model, 6)) == repr(sum_moments_reference(model, 6))


def test_symmetric_odd_moments_are_positive_zero():
    # the one-pass sums start from +0.0 like the loops they replace, so a
    # moment that vanishes by symmetry prints as '0.0', never '-0.0'
    for law in (uniform_centered(), rademacher(), standard_normal()):
        for beta in [(1,), (3,), (5,), (7,)]:
            assert repr(exact_sum_moment(iid_model(law, 5), beta)) == "0.0"
    model = iid_vector_model((uniform_centered(), standard_normal()), 7)
    assert repr(exact_sum_moment(model, (2, 1))) == "0.0"
    assert repr(exact_sum_moment(model, (3, 2))) == "0.0"
    C = np.array([[-1.0, 0.5], [-0.0, -2.0]])
    plan = moments._plan(2, 5)
    row = cumulant_tables([Summand(C, (rademacher(), uniform_centered()))], 5, plan.columns)[0].tolist()
    assert [repr(v) for v, l in zip(row, plan.orders) if l % 2] == ["0.0"] * 10


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_summand_rejects_a_non_finite_matrix(bad):
    for C in ([[bad]], [[1.0, 0.0], [0.2, bad]]):
        comps = (skewed_two_point(0.3),) * len(C[0])
        with pytest.raises(ValueError, match="mixing matrix .* non-finite"):
            Summand(np.array(C), comps)


def test_overflowing_matrix_entry_is_a_value_error():
    # a finite entry whose power overflows a float is named, not an OverflowError
    model = ModelSpec(d=1, records=((Summand(np.array([[1e200]]), (rademacher(),)), 2),))
    with pytest.raises(ValueError, match=r"^mixing matrix entry 1e\+200 to the power 4 overflows a float$"):
        corrector_polynomial(model, 2)
    C = np.array([[1.0, 0.5], [-1e100, 2.0]])
    model = ModelSpec(d=2, records=((Summand(C, (rademacher(), skewed_two_point(0.3))), 3),))
    with pytest.raises(ValueError, match=r"^mixing matrix entry -1e\+100 to the power 5 overflows a float$"):
        exact_sum_moment(model, (3, 2))
