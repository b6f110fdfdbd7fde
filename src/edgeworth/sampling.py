"""Seeded random generation: keyed deterministic streams, samplers for the
model sum, the block runner of every Monte Carlo driver with its
reductions (compensated sums, mean and variance), and the density-splitting
sampler backed by a Doeblin lower-bound certificate.

Determinism contract: every stochastic routine takes a 64-bit seed.  A
driver's stream is keyed by (seed, tag, n, block), ``tag`` the driver's
entry in ``STREAM_TAGS``, and seeds numpy's default bit generator (PCG64)
through ``SeedSequence``, so no two drivers, sizes or blocks share a
stream.  ``run_grid`` draws each n of a grid in fixed-size blocks, one
stream per block, and returns the block results in block order; drivers
combine them with compensated summation, so estimates are bit-identical
for a fixed seed regardless of the worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import CertificateError, NumericalGuardError
from .moments import _LAWS, ComponentDistribution, ModelSpec, has_density, pdf, sample_component

BUMP_RTOL = 1e-8  # relative change at which bump_mass stops doubling its grid
BUMP_MAX_DOUBLINGS = 24
MIN_ACCEPTANCE = 1e-3  # smallest acceptance rate a splitting branch tolerates
DOEBLIN_GRID = 256  # points of doeblin_check's grid on the ball


# one stream tag per Monte Carlo driver, the first word of its stream keys;
# rate's plain and common-random-number paths each have their own
STREAM_TAGS = {name: tag for tag, name in enumerate(
    ("mc_expectation", "rate_crn", "density", "occupation", "roots", "smallball", "nummelin"))}


class RngStream:
    """The stream keyed by ``(seed, *key)``: PCG64 seeded through
    ``SeedSequence(seed mod 2^64, spawn_key=key)``.  Identical keys
    reproduce the same sequence; distinct keys of one length, each word
    below 2^32, give independent ones."""

    def __init__(self, seed: int, *key: int):
        self.seed, self.key = seed, key

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.seed % (1 << 64), spawn_key=self.key))


def driver_stream(seed: int, driver: str, n: int, block: int) -> np.random.Generator:
    """The generator of block ``block`` at size ``n`` of ``driver``, keyed
    by (seed, STREAM_TAGS[driver], n, block): the one key rule of every
    Monte Carlo driver."""
    return RngStream(seed, STREAM_TAGS[driver], n, block).generator()


def taper_exponent(radius: float, t) -> np.ndarray:
    """Exponent of the smooth taper on (radius, 2*radius):
    1 - 1/(1 - (t/radius - 1)^2); tends to 0 at t = radius and to
    -infinity at t = 2*radius."""
    t = np.abs(np.asarray(t, dtype=float))
    u = t / radius - 1.0
    denom = 1.0 - u * u
    with np.errstate(divide="ignore"):
        return 1.0 - 1.0 / denom


def smoothed_ball_indicator(radius: float, t) -> np.ndarray:
    """1 on |t| <= radius, exp(taper) on radius < |t| <= 2*radius, 0 beyond;
    continuous, values in [0, 1]."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    t = np.abs(np.asarray(t, dtype=float))
    out = np.array(t <= radius, dtype=float)
    mid = (t > radius) & (t < 2.0 * radius)
    if np.any(mid):
        out[mid] = np.exp(taper_exponent(radius, t[mid]))
    return out


def bump_mass(radius: float) -> float:
    """Integral over R of the smoothed ball indicator of y^2.

    The integrand is even with support radius sqrt(2*radius), so the
    integral is twice the one over [0, sqrt(2*radius)]; the trapezoid rule
    is refined by doubling, at most ``BUMP_MAX_DOUBLINGS`` times, until the
    relative change drops below ``BUMP_RTOL``.
    """
    upper = math.sqrt(2.0 * radius)

    def integral(npts: int) -> float:
        rho = np.linspace(0.0, upper, npts)
        return 2.0 * float(np.trapezoid(smoothed_ball_indicator(radius, rho * rho), rho))

    npts = 257
    prev = integral(npts)
    for _ in range(BUMP_MAX_DOUBLINGS):
        npts = 2 * npts - 1
        cur = integral(npts)
        if abs(cur - prev) <= BUMP_RTOL * abs(cur):
            return cur
        prev = cur
    raise NumericalGuardError("bump mass quadrature did not converge")


@dataclass(frozen=True)
class DoeblinCert:
    """Certificate that a density dominates epsilon times the smoothed ball
    bump centered at ``center`` with squared-radius parameter ``radius``."""

    center: float
    radius: float
    epsilon: float
    mass: float = field(init=False)

    def __post_init__(self):
        if self.radius <= 0 or self.epsilon <= 0:
            raise CertificateError("radius and epsilon must be positive")
        object.__setattr__(self, "mass", bump_mass(self.radius))
        p1 = self.epsilon * self.mass
        if not 0.0 < p1 < 1.0:
            raise CertificateError(f"epsilon * mass = {p1:.4f} is not a probability in (0,1)")

    @property
    def split_probability(self) -> float:
        return self.epsilon * self.mass

    @property
    def support_radius(self) -> float:
        return math.sqrt(2.0 * self.radius)


def doeblin_check(dist: ComponentDistribution, center: float, radius: float, epsilon: float) -> tuple[bool, float]:
    """Grid check of the local lower bound: the density must exceed epsilon
    on the ball around ``center`` whose radius covers both the 2*radius
    ball of the lower-bound condition and the support of the smoothed bump.

    Returns (ok, margin) where margin = min(p) - epsilon on a grid of
    ``DOEBLIN_GRID`` points; a sufficient condition at grid scale only.
    """
    if not has_density(dist):
        raise TypeError(f"{dist.kind} has no density; the lower-bound condition needs one")
    reach = max(2.0 * radius, math.sqrt(2.0 * radius))
    x = np.linspace(center - reach, center + reach, DOEBLIN_GRID)
    margin = float(np.min(pdf(dist, x)) - epsilon)
    return margin >= 0.0, margin


def nummelin_sample(dist: ComponentDistribution, cert: DoeblinCert, rng: np.random.Generator,
                    size: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Draws from ``dist`` through the density splitting: with probability
    epsilon * mass a draw V from the normalized smoothed bump, otherwise a
    draw U from the normalized remainder (density - epsilon * bump).

    Both branches use rejection sampling; an acceptance rate below
    ``MIN_ACCEPTANCE`` or a negative remainder density aborts with a
    certificate error.  Returns the draws and the Bernoulli split
    variable chi, True where a draw came from the bump.
    """
    if not has_density(dist):
        raise TypeError(f"{dist.kind} is discrete; splitting needs a Lebesgue lower bound")
    p1 = cert.split_probability
    chi = rng.random(size) < p1
    R = cert.support_radius

    def bump(m):
        # target density bump(|x-center|^2)/mass on [center - R, center + R]
        # under a uniform proposal there
        x = rng.uniform(cert.center - R, cert.center + R, m)
        return x, smoothed_ball_indicator(cert.radius, (x - cert.center) ** 2)

    def remainder(m):
        # target density (p - eps * bump)/(1 - eps * mass) under the proposal
        # p itself: acceptance probability 1 - eps * bump / p
        x = sample_component(dist, rng, m)
        px = pdf(dist, x)
        eps_bump = cert.epsilon * smoothed_ball_indicator(cert.radius, (x - cert.center) ** 2)
        ratio = 1.0 - np.divide(eps_bump, px, out=np.zeros_like(px), where=px > 0)
        if np.any(ratio < -1e-12):
            raise CertificateError(
                "remainder density negative: certificate epsilon too large for this law"
            )
        return x, np.clip(ratio, 0.0, 1.0)

    out = np.empty(size)
    for branch, propose, mask in (("bump", bump, chi), ("remainder", remainder, ~chi)):
        count = int(mask.sum())
        if count:
            out[mask] = _rejection_draws(branch, propose, rng, count)
    return out, chi


def _rejection_draws(branch: str, propose, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` accepted draws of one splitting branch: each round
    proposes m points through ``propose(m) -> (x, acceptance probability)``,
    then draws m uniforms and keeps the points whose uniform is at most
    their probability.  Once 1024 points have been proposed, an acceptance
    rate below ``MIN_ACCEPTANCE`` aborts."""
    out = np.empty(count)
    done = 0
    proposed = accepted = 0
    while done < count:
        m = max(2 * (count - done), 64)
        x, prob = propose(m)
        kept = x[rng.random(m) <= prob]
        proposed += m
        accepted += len(kept)
        take = min(len(kept), count - done)
        out[done : done + take] = kept[:take]
        done += take
        if proposed >= 1024 and accepted < MIN_ACCEPTANCE * proposed:
            raise CertificateError(
                f"{branch} rejection acceptance {accepted/proposed:.2e} below {MIN_ACCEPTANCE:.0e}"
            )
    return out


def sample_sum(model: ModelSpec, rng: np.random.Generator, size: int = 1) -> np.ndarray:
    """Draws of the scaled sum n^{-1/2} sum_k C_k Y_k; shape (size, d).

    A record of count c > 1 whose components all have a closed-form c-fold
    sum draws that sum once per component and multiplies by its matrix
    once.  Any other record draws summand by summand, component by
    component, and so keeps its streams.
    """
    out = np.zeros((size, model.d))
    scale = 1.0 / math.sqrt(model.n)
    for rec, count in model.records:
        folds = [_LAWS[c.kind].fold_sum for c in rec.components]
        per_summand = count == 1 or None in folds
        for _ in range(count if per_summand else 1):
            y = np.empty((size, len(rec.components)))
            for j, comp in enumerate(rec.components):
                y[:, j] = sample_component(comp, rng, size) if per_summand else folds[j](count, rng, size, *comp.params)
            # a 1x1 matrix multiplies: the same product, without matmul's generic loop
            out += y * rec.C[0, 0] if rec.C.shape == (1, 1) else y @ rec.C.T
    return out * scale


def block_plan(samples: int, block: int) -> list[tuple[int, int]]:
    """The fixed plan of ``samples`` draws in blocks of ``block``: one
    ``(bid, bsize)`` entry per block, the last block taking the remainder."""
    return [(bid, min(block, samples - start)) for bid, start in enumerate(range(0, samples, block))]


def run_blocks(plan, block_fn, workers: int = 1) -> list:
    """Runs ``block_fn(*entry)`` for every entry of ``plan`` (a
    ``block_plan``, or one keyed by more than the block id) and returns the
    results in plan order.  ``workers > 1`` runs the entries on a thread
    pool, which changes scheduling only."""
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda entry: block_fn(*entry), plan))
    return [block_fn(*entry) for entry in plan]


def run_grid(seed: int, driver: str, grid, samples: int, rows, block_fn, workers: int = 1) -> list[list]:
    """``samples`` draws at each n of ``grid``, in blocks of ``rows(n)``
    rows, run as one plan over the whole grid: block b of n calls
    ``block_fn(n, rng, bsize)`` with ``rng = driver_stream(seed, driver, n,
    b)``; ``samples`` and ``workers`` must be at least 1.  Returns, per grid
    entry, its block results in block order.
    The plan starts the most costly blocks, by n * bsize, first, and
    ``workers > 1`` threads it across n as well as within it; both change
    scheduling only."""
    if samples < 1:
        raise ValueError(f"'samples' must be at least 1, got {samples}")
    if workers < 1:
        raise ValueError(f"'workers' must be at least 1, got {workers}")
    # a stable sort keeps each n's blocks in block order: all share one
    # size but the last, which is no larger
    plan = sorted(((i, bid, bsize) for i, n in enumerate(grid) for bid, bsize in block_plan(samples, rows(n))),
                  key=lambda entry: -grid[entry[0]] * entry[2])

    def run(i, bid, bsize):
        return block_fn(grid[i], driver_stream(seed, driver, grid[i], bid), bsize)

    results = [[] for _ in grid]
    for (i, _, _), result in zip(plan, run_blocks(plan, run, workers)):
        results[i].append(result)
    return results


def fsums(results) -> list[float]:
    """Compensated sum of each position across the per-block results."""
    return [math.fsum(col) for col in zip(*results)]


def mean_var(total: float, total_sq: float, samples: int) -> tuple[float, float]:
    """Mean and (population) variance from a sum and a sum of squares."""
    mean = total / samples
    return mean, max(total_sq / samples - mean * mean, 0.0)
