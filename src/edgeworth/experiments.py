"""Experiment drivers: convergence-rate tables with fitted slopes,
approximate-density checks, occupation time of the scaled random walk,
expected root counts of random trigonometric polynomials, small-ball
probabilities for parametrized sums, the Nummelin splitting check and the
super-kernel's moment table.

Every Monte Carlo driver takes a seed and draws from the streams of one
key rule, (seed, driver tag, n, block) (``sampling.driver_stream``), so
rerunning with the same seed reproduces results bit for bit.  The block
drivers (rate in mc mode, density, occupation, roots, small ball) also
take a worker count and make one ``sampling.run_grid`` call per call: one
plan of fixed-size blocks over the whole n-grid, results combined in block
order, so the worker count, which threads the plan, never changes results.
The Nummelin splitting draws blocks 0 and 1 of its tag; the super-kernel
table draws nothing.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .corrector import corrector_polynomial, edgeworth_expectation
from .errors import NumericalGuardError
from .hermite import Polynomial
from .kernels import build_super_kernel, mollify
from .moments import (
    _LAWS,
    ComponentDistribution,
    component_icdf,
    exact_sum_moment_table,
    has_density,
    has_icdf,
    sample_component,
)
from .sampling import (
    DoeblinCert,
    doeblin_check,
    driver_stream,
    fsums,
    mean_var,
    nummelin_sample,
    run_grid,
    sample_sum,
)

SCHEMA_VERSION = 2


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _json_scalar(v):
    # numpy scalars become native JSON numbers and booleans
    return v.item() if isinstance(v, np.generic) else _fmt(v)


def _strict(v):
    """``v`` with every non-finite float, in any dict or list, as None: the
    summary is strict JSON, with null where a value is NaN or infinite."""
    if isinstance(v, dict):
        return {k: _strict(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_strict(x) for x in v]
    if isinstance(v, (float, np.floating)) and not math.isfinite(v):
        return None
    return v


@dataclass
class ExperimentResult:
    """Tabular record of one experiment run: ``rows`` is a nonempty list
    of dicts with one key order, which is the CSV header."""

    name: str
    parameters: dict
    rows: list
    fitted_slope: float | None = None
    slope_stderr: float | None = None
    seed: int | None = None
    workers: int = 1
    notes: dict = field(default_factory=dict)

    @property
    def columns(self) -> list:
        return list(self.rows[0])

    def config_hash(self) -> str:
        blob = json.dumps(self.parameters, sort_keys=True, default=str).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(",".join(self.columns) + "\n")
            for row in self.rows:
                fh.write(",".join(_fmt(row[c]) for c in self.columns) + "\n")

    def summary(self) -> dict:
        return {
            "name": self.name,
            "schema_version": SCHEMA_VERSION,
            "parameters": self.parameters,
            "config_hash": self.config_hash(),
            "seed": self.seed,
            "workers": self.workers,
            "fitted_slope": self.fitted_slope,
            "slope_stderr": self.slope_stderr,
            "rows": self.rows,
            "notes": self.notes,
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(_strict(self.summary()), fh, indent=1, sort_keys=True, default=_json_scalar, allow_nan=False)
            fh.write("\n")


def fit_loglog(xs, ys) -> tuple[float, float]:
    """Least-squares slope of log y against log x with its standard error."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < 2:
        raise ValueError("need at least two points to fit a slope")
    lx, ly = np.log(xs), np.log(ys)
    A = np.stack([lx, np.ones_like(lx)], axis=1)
    coef, res, *_ = np.linalg.lstsq(A, ly, rcond=None)
    slope = float(coef[0])
    if len(xs) == 2:
        return slope, float("nan")
    rss = float(res[0]) if len(res) else float(np.sum((A @ coef - ly) ** 2))
    sxx = float(np.sum((lx - lx.mean()) ** 2))
    stderr = math.sqrt(rss / (len(xs) - 2) / sxx)
    return slope, stderr


def _fitted_slope(rows, x: str, y: str, usable) -> tuple:
    """Log-log slope of column y against column x with its standard error,
    fitted through the rows for which ``usable`` holds; (None, None) with
    fewer than two such rows."""
    points = [(r[x], r[y]) for r in rows if usable(r)]
    if len(points) < 2:
        return None, None
    return fit_loglog(*zip(*points))


def _sizes(n_grid, name: str = "n_grid") -> list[int]:
    """The sizes of ``n_grid`` as ints: a nonempty list, each entry at
    least 1, so a driver has one row per entry and at least one row."""
    ns = [int(n) for n in n_grid]
    if not ns:
        raise ValueError(f"{name!r} must not be empty")
    if min(ns) < 1:
        raise ValueError(f"sizes in {name!r} must be at least 1, got {min(ns)}")
    return ns


def gaussian_density(a) -> float:
    """Standard normal density at the point ``a``, through ``math`` so that
    the value does not depend on numpy's SIMD loops."""
    a = [float(x) for x in np.atleast_1d(a)]
    return math.exp(-0.5 * math.fsum(x * x for x in a)) / (2.0 * math.pi) ** (len(a) / 2.0)


# ---------------------------------------------------------------------------
# convergence-rate experiment


MC_BLOCK = 1 << 14  # rows per block of the plain Monte Carlo path
MC_MIN_SAMPLES = 100  # fewest draws Monte Carlo mode takes
CRN_CHUNK = 1 << 18  # uniforms per row chunk of a common-random-number block
DEGENERATE_RTOL = 1e-12  # exact-mode error, relative to max(1, |truth|), that counts as machine noise


def _crn_block(laws: dict, n_max: int, rng: np.random.Generator, bsize: int) -> dict:
    """Scaled sums of one common-random-number block: for each n of ``laws``
    (n -> (component, scale)), ``bsize`` rows of scale / sqrt(n) times the
    sum of the component's inverse CDF over the first n of ``n_max`` shared
    uniforms.  The uniforms are drawn in row chunks of about ``CRN_CHUNK``
    by successive calls on the one generator, which give the same numbers
    as one draw of the whole block; each distinct law goes through its
    (elementwise) inverse CDF once per chunk, and each n reads its prefix
    columns."""
    sums = {n: np.empty(bsize) for n in laws}
    dists = {dist for dist, _ in laws.values()}
    rows = max(1, CRN_CHUNK // n_max)
    for start in range(0, bsize, rows):
        u = rng.random((min(rows, bsize - start), n_max))
        y = {dist: component_icdf(dist, u) for dist in dists}
        for n, (dist, scale) in laws.items():
            sums[n][start : start + len(u)] = y[dist][:, :n].sum(axis=1) * (scale / math.sqrt(n))
    return sums


def _mc_estimates(models: dict, g: Polynomial, samples: int, seed: int, workers: int, crn: bool) -> dict:
    """Monte Carlo means and standard errors of g(S_n), n -> (mean, se), over
    the family ``models`` (n -> model) from one ``run_grid`` plan.  The plain
    path draws ``sample_sum`` at each n in blocks of ``MC_BLOCK``; ``crn``
    runs one plan at the largest n whose uniforms drive every n through the
    component's inverse CDF (``_crn_block``), so estimates across the grid
    are coupled."""

    def power_sums(vals):
        return vals.sum(), (vals * vals).sum()

    if crn:
        laws = {}
        for n, model in models.items():
            rec = model.records[0][0]
            if not (len(model.records) == 1 and rec.C.shape == (1, 1)):
                raise ValueError("common random numbers need a one-dimensional iid model family")
            if not has_icdf(rec.components[0]):
                raise ValueError(
                    f"common random numbers need a closed-form inverse CDF; {rec.components[0].kind} has none"
                )
            laws[n] = (rec.components[0], float(rec.C[0, 0]))
        tag, grid, rows = "rate_crn", [max(models)], lambda n: max(64, (1 << 21) // n)

        def block_sums(n_max, rng, bsize):
            return [t for s in _crn_block(laws, n_max, rng, bsize).values() for t in power_sums(g(s[:, None]))]
    else:
        tag, grid, rows = "mc_expectation", list(models), lambda n: MC_BLOCK

        def block_sums(n, rng, bsize):
            return power_sums(g(sample_sum(models[n], rng, bsize)))

    # per n, in the order of models: its sum and its sum of squares
    totals = [t for blocks in run_grid(seed, tag, grid, samples, rows, block_sums, workers) for t in fsums(blocks)]
    estimates = {}
    for i, n in enumerate(models):
        mean, var = mean_var(totals[2 * i], totals[2 * i + 1], samples)
        estimates[n] = (mean, math.sqrt(var / samples))
    return estimates


def rate_experiment(
    model_builder,
    f: Polynomial,
    N: int,
    n_grid,
    gamma=None,
    mode: str = "exact",
    samples: int = 100_000,
    seed: int = 0,
    workers: int = 1,
    crn: bool = False,
) -> ExperimentResult:
    """err(n) = |E[d_gamma f(S_n)] - E[d_gamma f(W) Phi_{n,N}(W)]| over an
    n-grid, with a log-log slope fitted through the usable rows.

    exact mode evaluates both sides through exact moments (polynomial f);
    mc mode estimates the left side by Monte Carlo, with ``crn`` sharing
    one stream of uniforms across the whole n-grid (variance reduction for
    the error profile; needs a one-dimensional one-record family whose
    component has a closed inverse CDF).  Rows where the error is below
    the resolution of the method (``DEGENERATE_RTOL`` relative to the exact
    value, or three standard errors for mc) are flagged degenerate and
    excluded from the fit; if every row is degenerate the corrector
    reproduces the test function's moments identically, the slope is None
    and the ``all_degenerate`` note is true.
    """
    if mode not in ("exact", "mc"):
        raise ValueError(f"unknown mode {mode!r}")
    ns = _sizes(n_grid)
    if mode == "mc" and samples < MC_MIN_SAMPLES:
        raise ValueError(f"'samples' must be at least {MC_MIN_SAMPLES} in mc mode, got {samples}")
    gamma = tuple(gamma) if gamma else None
    g = f.diff(gamma) if gamma is not None else f
    models = {n: model_builder(n) for n in ns}
    if mode == "mc":
        estimates = _mc_estimates(models, g, samples, seed, workers, crn)
    rows = []
    for n in ns:
        model = models[n]
        phi = corrector_polynomial(model, N)
        corrected = edgeworth_expectation(g, (0,) * model.d, phi)
        if mode == "exact":
            mu = exact_sum_moment_table(model, g.degree())
            truth, se = math.fsum(c * mu[b] for b, c in g.terms.items()), 0.0
        else:
            truth, se = estimates[n]
        err = abs(truth - corrected)
        resolution = DEGENERATE_RTOL * max(1.0, abs(truth)) if mode == "exact" else 3.0 * se
        rows.append({"n": n, "estimate": truth, "se": se, "corrected": corrected, "error": err,
                     "degenerate": err <= resolution})

    slope, stderr = _fitted_slope(rows, "n", "error", lambda r: not r["degenerate"])
    result = ExperimentResult(
        name="rate",
        parameters={
            "N": N,
            "gamma": list(gamma) if gamma else None,
            "mode": mode,
            "crn": bool(crn and mode == "mc"),
            "model": models[ns[0]].to_json(),
            "n_grid": ns,
            "samples": samples if mode == "mc" else None,
            "f_terms": {str(list(b)): c for b, c in f.terms.items()},
        },
        rows=rows,
        fitted_slope=slope,
        slope_stderr=stderr,
        seed=seed,
        workers=workers,
        notes={"all_degenerate": all(r["degenerate"] for r in rows)},
    )
    return result


# ---------------------------------------------------------------------------
# approximate-density experiment

DENSITY_BLOCK = 1 << 16
DENSITY_MIN_HITS = 100


def density_experiment(
    model_builder,
    N: int,
    a,
    n_grid,
    delta_rule=None,
    samples: int = 1_000_000,
    seed: int = 0,
    workers: int = 1,
) -> ExperimentResult:
    """Monte Carlo check that the box-probability density estimate
    P(|S_n - a|_sup <= delta) / (2 delta)^d approaches the corrected
    Gaussian density at a.

    ``delta_rule`` maps n to the box half-width (default n^{-(N+1)/2}),
    which must be finite and positive at every n of the grid; a width that
    is not is a ValueError before any sampling.  Rows with fewer than
    ``DENSITY_MIN_HITS`` hits are flagged and excluded from the slope fit.
    The blocks run through ``sampling.run_grid``.
    """
    if delta_rule is None:
        delta_rule = lambda n: float(n) ** (-0.5 * (N + 1))
    a = np.atleast_1d(np.asarray(a, dtype=float))
    ns = _sizes(n_grid)
    grid = {}
    for n in ns:
        delta = float(delta_rule(n))
        if not 0.0 < delta < math.inf:
            raise ValueError(f"box half-width delta at n = {n} is {delta!r}, need a finite number > 0")
        model = model_builder(n)
        if len(a) != model.d:
            raise ValueError("point dimension != model dimension")
        phi = corrector_polynomial(model, N)
        grid[n] = (model, delta, gaussian_density(a) * phi.evaluate(a))

    def block_hits(n, rng, bsize):
        model, delta, _ = grid[n]
        pts = sample_sum(model, rng, bsize)
        return int(np.sum(np.max(np.abs(pts - a[None, :]), axis=1) <= delta))

    rows = []
    for n, blocks in zip(ns, run_grid(seed, "density", ns, samples, lambda n: DENSITY_BLOCK, block_hits, workers)):
        model, delta, reference = grid[n]
        h = sum(blocks)
        vol = (2.0 * delta) ** model.d
        p_hat = h / samples
        est = p_hat / vol
        se = math.sqrt(p_hat * (1.0 - p_hat) / samples) / vol
        rows.append(
            {
                "n": n,
                "delta": delta,
                "hits": h,
                "estimate": est,
                "se": se,
                "reference": reference,
                "error": abs(est - reference),
                "flagged": h < DENSITY_MIN_HITS,
            }
        )

    slope, stderr = _fitted_slope(rows, "n", "error", lambda r: not r["flagged"] and r["error"] > 0)
    return ExperimentResult(
        name="density",
        parameters={
            "N": N,
            "a": a.tolist(),
            "model": grid[ns[0]][0].to_json(),
            "n_grid": ns,
            "samples": samples,
            "delta": {str(n): grid[n][1] for n in ns},
        },
        rows=rows,
        fitted_slope=slope,
        slope_stderr=stderr,
        seed=seed,
        workers=workers,
    )


# ---------------------------------------------------------------------------
# a law against its Gaussian twin, block by block


def _paired_draws(dist, couple: bool, rng: np.random.Generator, shape):
    """One block of draws from ``dist`` and from standard normals: the same
    uniforms through both inverse CDFs when ``couple``, otherwise the law's
    draws, then independent normals, from the one generator."""
    if couple:
        u = rng.random(shape)
        return component_icdf(dist, u), _LAWS["standard_normal"].icdf(u)
    y = sample_component(dist, rng, shape)
    return y, rng.standard_normal(shape)


def _paired_sums(y: np.ndarray, g: np.ndarray) -> tuple:
    """Sums and sums of squares of y, g and y - g."""
    d = y - g
    return y.sum(), (y * y).sum(), g.sum(), (g * g).sum(), d.sum(), (d * d).sum()


def _paired_row(totals, samples: int, couple: bool, name: str) -> dict:
    """Means and standard errors of the law, its Gaussian twin and their gap
    from the reduced ``_paired_sums``; uncoupled runs are independent, so
    their gap variance is the sum of the two variances."""
    mean, var = mean_var(totals[0], totals[1], samples)
    mean_g, var_g = mean_var(totals[2], totals[3], samples)
    mean_d, var_d = mean_var(totals[4], totals[5], samples)
    return {
        name: mean,
        "se": math.sqrt(var / samples),
        f"{name}_gaussian": mean_g,
        "se_gaussian": math.sqrt(var_g / samples),
        "gap": abs(mean_d) if couple else abs(mean - mean_g),
        "gap_se": math.sqrt(var_d / samples) if couple else math.sqrt((var + var_g) / samples),
    }


# ---------------------------------------------------------------------------
# occupation time


def occupation_closed_form_gaussian(n: int, eps: float) -> float:
    """Exact E of the banded occupation average for Gaussian steps."""
    from scipy.special import ndtr  # here, not at the top: scipy.special is slow to import
    k = np.arange(1, n + 1)
    return float(np.mean(2.0 * ndtr(eps * np.sqrt(n / k)) - 1.0)) / (2.0 * eps)


def _brownian_band_occupation(eps: float) -> float:
    """Exact (1/2 eps) int_0^1 P(|B_t| <= eps) dt for Brownian motion B,
    in closed form through ``math`` alone; it tends to sqrt(2/pi) as eps
    shrinks."""
    x = eps / math.sqrt(2.0)
    phi = math.exp(-0.5 * eps * eps) / math.sqrt(2.0 * math.pi)
    return (math.erf(x) + 2.0 * eps * phi - eps * eps * math.erfc(x)) / (2.0 * eps)


def _walk_band_fraction(steps: np.ndarray, eps: float) -> np.ndarray:
    """Per-row average of 1(|cumsum/sqrt(n)| <= eps), scaled to the band."""
    n = steps.shape[1]
    s = np.cumsum(steps, axis=1) / math.sqrt(n)
    return np.count_nonzero(np.abs(s) <= eps, axis=1) / (n * 2.0 * eps)


def occupation_time(
    dist: ComponentDistribution,
    rho: float,
    n_grid,
    samples: int = 10_000,
    seed: int = 0,
    ref_eps: float | None = None,
    workers: int = 1,
) -> ExperimentResult:
    """Banded occupation average of the scaled random walk against its
    Gaussian twin and Brownian motion.

    Per n: eps_n = n^{-(1-rho)/2}; Monte Carlo estimates of the occupation
    average for the given law and for Gaussian steps (coupled through
    common uniforms exactly when the law has a closed inverse CDF, recorded
    as the ``crn`` parameter), plus exact closed-form Gaussian values.  The
    Brownian reference is the closed-form expected occupation average of
    Brownian motion on [0, 1] (``_brownian_band_occupation``), taken both
    at each matched eps_n and at ``ref_eps`` (a small band approximating
    the local time at zero; default 0.02), which must be finite and
    positive.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must be in (0,1)")
    ref_eps = 0.02 if ref_eps is None else float(ref_eps)
    if not 0.0 < ref_eps < math.inf:
        raise ValueError(f"'ref_eps' must be a finite number > 0, got {ref_eps!r}")
    couple = has_icdf(dist)
    ns = _sizes(n_grid)

    def band(n: int) -> float:
        return float(n) ** (-0.5 * (1.0 - rho))

    def block_sums(n, rng, bsize):
        y, g = _paired_draws(dist, couple, rng, (bsize, n))
        return _paired_sums(_walk_band_fraction(y, band(n)), _walk_band_fraction(g, band(n)))

    rows = []
    for n, blocks in zip(ns, run_grid(seed, "occupation", ns, samples, lambda n: max(64, (1 << 21) // n),
                                      block_sums, workers)):
        eps, totals = band(n), fsums(blocks)
        rows.append(
            {"n": n, "eps": eps}
            | _paired_row(totals, samples, couple, "occupation")
            | {
                "gaussian_exact": occupation_closed_form_gaussian(n, eps),
                "brownian_ref": _brownian_band_occupation(eps),
            }
        )

    return ExperimentResult(
        name="occupation",
        parameters={
            "kind": dist.kind,
            "rho": rho,
            "n_grid": ns,
            "samples": samples,
            "crn": couple,
            "ref_eps": ref_eps,
        },
        rows=rows,
        seed=seed,
        workers=workers,
        notes={
            "local_time_ref": _brownian_band_occupation(ref_eps),
            "local_time_exact_limit": math.sqrt(2.0 / math.pi),
        },
    )


# ---------------------------------------------------------------------------
# root counts of random trigonometric polynomials


def _trig_tables(phase: np.ndarray, rate: np.ndarray) -> tuple:
    """The tables of Q = sum_k a_k cos(phase_k) + b_k sin(phase_k) over
    coefficient rows y = [a | b], for a phase matrix with one row per point
    and one column per k whose phase grows at ``rate[k]``: y @ P is Q and
    y @ dP its derivative at every point, with P = [cos; sin] and
    dP = [-rate sin; rate cos], written in place into one block: built from
    temporaries, the tables took about twice the time of their cos and sin."""
    n = len(rate)
    P, dP = np.empty((2, 2 * n, phase.shape[0]))
    np.cos(phase.T, out=P[:n])
    np.sin(phase.T, out=P[n:])
    np.multiply(-rate[:, None], P[n:], out=dP[:n])
    np.multiply(rate[:, None], P[:n], out=dP[n:])
    return P, dP


def _root_grid(n: int, oversample: int) -> tuple:
    """The grid of ``oversample * n`` intervals on [0, pi] that
    ``_count_roots`` reads, with its tables P and dP of degree n."""
    grid = np.linspace(0.0, math.pi, oversample * n + 1)
    k = np.arange(1, n + 1)
    return (grid, *_trig_tables(np.outer(grid, k), k))


def _count_roots(y: np.ndarray, grid, P, dP) -> np.ndarray:
    """Roots on (0, pi) of the trigonometric polynomial of each coefficient
    row y = [a | b]: sign changes on the grid of ``_root_grid``, whose
    tables the caller builds once per degree; near-tangency intervals get a
    derivative-sign check so double roots are not silently dropped."""
    q = y @ P
    flips = np.diff(q >= 0.0, axis=1)
    counts = np.count_nonzero(flips, axis=1)

    # tangency guard: intervals without sign change whose endpoint values
    # are tiny relative to the row scale get a derivative-sign check
    scale = np.max(np.abs(q), axis=1, keepdims=True)
    small = (np.abs(q[:, 1:]) < 1e-9 * scale) & (np.abs(q[:, :-1]) < 1e-9 * scale) & ~flips
    if np.any(small):
        dflip = np.diff(y @ dP >= 0.0, axis=1)
        k = np.arange(1, y.shape[1] // 2 + 1)
        for rr, cc in zip(*np.nonzero(small & dflip)):
            p_mid, _ = _trig_tables(np.outer([0.5 * (grid[cc] + grid[cc + 1])], k), k)
            if abs(y[rr] @ p_mid[:, 0]) <= 1e-12 * scale[rr, 0]:
                counts[rr] += 2
    return counts


def kac_rice_roots(
    dist: ComponentDistribution,
    n_grid,
    samples: int = 2000,
    seed: int = 0,
    oversample: int = 8,
    workers: int = 1,
) -> ExperimentResult:
    """Expected number of zeros on (0, pi) of random trigonometric
    polynomials with independent coefficient pairs drawn from ``dist``,
    against the Gaussian-coefficient count (coupled through common uniforms
    exactly when the law admits a closed inverse CDF, recorded as the
    ``crn`` parameter).

    Per-sample counts above twice the degree violate the trigonometric
    root bound and abort.  The ``limit`` note is Kac's 1/sqrt(3), the
    large-n count per degree.
    """
    if oversample < 1:
        raise ValueError(f"'oversample' must be at least 1, got {oversample}")
    couple = has_icdf(dist)
    ns = _sizes(n_grid)
    tables = {n: _root_grid(n, oversample) for n in ns}

    def block_sums(n, rng, bsize):
        y, g = _paired_draws(dist, couple, rng, (bsize, 2 * n))
        cy, cg = _count_roots(y, *tables[n]), _count_roots(g, *tables[n])
        max_count = int(max(cy.max(initial=0), cg.max(initial=0)))
        if max_count > 2 * n:
            raise NumericalGuardError("root count exceeds twice the degree: counting bug")
        return _paired_sums(cy / n, cg / n), max_count

    rows = []
    for n, results in zip(ns, run_grid(seed, "roots", ns, samples, lambda n: max(16, (1 << 21) // (oversample * n)),
                                       block_sums, workers)):
        rows.append(
            {"n": n}
            | _paired_row(fsums(sums for sums, _ in results), samples, couple, "roots_per_n")
            | {"max_count": max(m for _, m in results)}
        )
    return ExperimentResult(
        name="roots",
        parameters={
            "kind": dist.kind,
            "n_grid": ns,
            "samples": samples,
            "oversample": oversample,
            "crn": couple,
        },
        rows=rows,
        seed=seed,
        workers=workers,
        notes={"limit": 1.0 / math.sqrt(3.0)},
    )


# ---------------------------------------------------------------------------
# small-ball probabilities for the parametrized trigonometric sum

SMALLBALL_BLOCK = 1 << 13


def _trig_sum_weights(n: int, u_values: np.ndarray) -> np.ndarray:
    """W of shape (2n, 2G) with y @ W = S_n at the G points ``u_values``:
    the ``_trig_tables`` of phase k u_g / n, P_n in column 2g and P_n' in
    column 2g + 1, all scaled by 1 / sqrt(n)."""
    k = np.arange(1, n + 1)
    p, dp = _trig_tables(np.outer(u_values, k) / n, k / n)
    return (np.stack([p, dp], axis=-1) * (1.0 / math.sqrt(n))).reshape(2 * n, -1)


def small_ball(
    dist: ComponentDistribution,
    n: int,
    theta: float = 1.0,
    u_point: float = 1.0,
    eta_grid=None,
    u_grid_size: int = 64,
    samples: int = 100_000,
    seed: int = 0,
    workers: int = 1,
) -> ExperimentResult:
    """Small-ball probabilities for the two-dimensional parametrized sum
    built from random trigonometric polynomials (d = 2, one parameter).

    Pointwise section: P(|S_n(u_point)| <= eta) over an eta-grid with the
    fitted log-log exponent (compare with the nondegenerate-Gaussian value
    d = 2).  Infimum section: P(min over the u-grid of |S_n(u)| <= n^{-theta}),
    reported with the upper-bound exponent theta*(d - ell) = theta (ell = 1).
    Zero-hit rows report the one-sided 95% bound 3/samples and are flagged.

    Each block evaluates S_n at u_point and on the u-grid in one matrix
    product with the weights of ``_trig_sum_weights``, built once per call:
    column 0 gives the pointwise norms, the others the infimum.
    """
    [n] = _sizes([n], "n")
    if u_grid_size < 1:
        raise ValueError(f"'u_grid_size' must be at least 1, got {u_grid_size}")
    if eta_grid is None:
        # geometric from 0.05 to 0.4 in Python floats: no numpy SIMD loop
        # touches the grid, so its digits and config_hash are the same on
        # every x86 target
        eta_grid = [0.05 * 8.0 ** (k / 5) for k in range(6)]
    eta_grid = np.asarray(sorted(float(e) for e in eta_grid))
    u_values = np.linspace(0.0, math.pi, u_grid_size)
    delta_inf = float(n) ** (-theta)
    weights = _trig_sum_weights(n, np.concatenate([[u_point], u_values]))

    def block_hits(n, rng, bsize):
        y = sample_component(dist, rng, (bsize, 2 * n))
        s = (y @ weights).reshape(bsize, -1, 2)
        p, dp = s[..., 0], s[..., 1]
        s_norms = np.sqrt(p * p + dp * dp)
        norms = s_norms[:, 0]
        min_norm = np.min(s_norms[:, 1:], axis=1)
        return [int(np.count_nonzero(norms <= eta)) for eta in eta_grid] + [
            int(np.count_nonzero(min_norm <= delta_inf))
        ]

    [blocks] = run_grid(seed, "smallball", [n], samples, lambda n: SMALLBALL_BLOCK, block_hits, workers)
    *hits_eta, hits_inf = (sum(col) for col in zip(*blocks))

    rows = []
    pointwise = [("pointwise", float(eta), h) for eta, h in zip(eta_grid, hits_eta)]
    for section, eta, h in pointwise + [("infimum", delta_inf, hits_inf)]:
        p = h / samples
        rows.append(
            {
                "section": section,
                "eta": eta,
                "hits": h,
                "probability": p if h else 3.0 / samples,
                "se": math.sqrt(p * (1 - p) / samples),
                "flagged": h == 0,
            }
        )
    slope, stderr = _fitted_slope(rows, "eta", "probability",
                                  lambda r: r["section"] == "pointwise" and not r["flagged"])

    return ExperimentResult(
        name="smallball",
        parameters={
            "kind": dist.kind,
            "n": n,
            "theta": theta,
            "u_point": u_point,
            "u_grid_size": u_grid_size,
            "eta_grid": [float(e) for e in eta_grid],
            "samples": samples,
        },
        rows=rows,
        fitted_slope=slope,
        slope_stderr=stderr,
        seed=seed,
        workers=workers,
        notes={
            "eta_exponent_reference": 2.0,
            "infimum_bound_exponent": float(theta),
        },
    )


# ---------------------------------------------------------------------------
# Nummelin splitting against direct draws

KS_EXACT_MAX = 10_000  # samples up to which the KS statistic snaps to the 1/lcm lattice


def _ks_statistic(x, y) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup |F_x - F_y|, equal bit for
    bit to ``scipy.stats.ks_2samp(x, y).statistic``: the two sorted samples
    are merged by a stable argsort, and the empirical CDFs are read as
    cumulative counts at the last index of each run of equal values.  Up to
    ``KS_EXACT_MAX`` draws per sample the statistic is rounded to a
    multiple of 1/lcm(len(x), len(y)), as scipy's exact mode does."""
    x, y = np.sort(x), np.sort(y)
    n1, n2 = len(x), len(y)
    if min(n1, n2) == 0:
        raise ValueError("the two-sample KS statistic needs two non-empty samples")
    merged = np.concatenate([x, y])
    order = np.argsort(merged, kind="stable")
    values = merged[order]
    last = np.flatnonzero(np.append(values[1:] != values[:-1], True))
    c1 = np.cumsum(order < n1)[last]
    diffs = c1 / n1 - (last + 1 - c1) / n2
    d = max(float(np.clip(-diffs.min(), 0, 1)), float(diffs.max()))
    if max(n1, n2) <= KS_EXACT_MAX:
        lcm = n1 // math.gcd(n1, n2) * n2
        d = round(d * lcm) / lcm
    return d


def nummelin_experiment(
    dist: ComponentDistribution,
    center: float,
    radius: float,
    epsilon: float,
    samples: int = 100_000,
    seed: int = 0,
) -> ExperimentResult:
    """Draws through the density splitting of ``dist`` on the certified ball
    (stream block 0 of the driver) against direct draws (block 1), compared
    by the two-sample Kolmogorov-Smirnov statistic at the 1% level.  A law
    without a density, ``samples`` below 1 and a ``radius`` or ``epsilon``
    that is not positive are ValueErrors, raised before any work; a failed
    grid check of the lower bound aborts."""
    if samples < 1:
        raise ValueError(f"'samples' must be at least 1, got {samples}")
    for name, value in (("radius", radius), ("epsilon", epsilon)):
        if value <= 0:
            raise ValueError(f"{name!r} must be positive, got {value}")
    if not has_density(dist):
        raise ValueError(f"nummelin splitting needs a law with a density; {dist.kind} has none")
    ok, margin = doeblin_check(dist, center, radius, epsilon)
    if not ok:
        raise NumericalGuardError(f"lower-bound check failed: margin {margin:.3e}")
    cert = DoeblinCert(center, radius, epsilon)
    split, _ = nummelin_sample(dist, cert, driver_stream(seed, "nummelin", 0, 0), samples)
    direct = sample_component(dist, driver_stream(seed, "nummelin", 0, 1), samples)
    stat = _ks_statistic(split, direct)
    crit = 1.628 * np.sqrt(2.0 / samples)
    row = {
        "samples": samples,
        "ks_statistic": stat,
        "ks_critical_1pct": float(crit),
        "split_probability": cert.split_probability,
        "bump_mass": cert.mass,
        "margin": margin,
        "mean_split": float(split.mean()),
        "mean_direct": float(direct.mean()),
        "in_band_fraction": float(np.mean(np.abs(split - center) <= cert.support_radius)),
    }
    return ExperimentResult(
        name="nummelin",
        parameters={"component": dist.to_json(), "center": center, "radius": radius, "epsilon": epsilon,
                    "samples": samples},
        rows=[row],
        seed=seed,
        notes={"ks_pass": stat < crit},
    )


# ---------------------------------------------------------------------------
# super-kernel moment table


def kernel_experiment(seed: int = 0, **window) -> ExperimentResult:
    """Mass, absolute norm, moments 1..6 and the degree-4 reproduction error
    (a quartic mollified at scale 0.5 on nine points of [-2, 2]) of the
    super-kernel built from the ``build_super_kernel`` keywords ``window``.
    The parameters record only the keywords given."""
    kernel = build_super_kernel(**window)
    rows = [{"quantity": "mass", "value": kernel.mass()}, {"quantity": "abs_norm", "value": kernel.abs_norm()}]
    rows += [{"quantity": f"moment_{k}", "value": kernel.moment(k)} for k in range(1, 7)]
    probe = Polynomial(1, {(0,): -7.0, (1,): 1.0, (3,): -2.0, (4,): 1.5})
    xs = np.linspace(-2.0, 2.0, 9)
    smoothed = mollify(lambda y: probe(y.reshape(-1, 1)).reshape(y.shape), kernel, 0.5, xs)
    err = float(np.max(np.abs(smoothed - probe(xs.reshape(-1, 1)))))
    rows.append({"quantity": "degree4_reproduction_error", "value": err})
    return ExperimentResult(name="kernel", parameters=dict(window), rows=rows, seed=seed)
