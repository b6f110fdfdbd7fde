import numpy as np

from edgeworth.corrector import normalize
from edgeworth.moments import (
    ModelSpec,
    Summand,
    gaussian_mixture,
    rademacher,
    skewed_two_point,
    standard_normal,
    uniform_centered,
)

CATALOG_KINDS = (
    rademacher(),
    uniform_centered(),
    skewed_two_point(0.25),
    gaussian_mixture(0.5, 0.6, 0.8, -0.6, 0.8),
    standard_normal(),
)


def make_random_model(rng: np.random.Generator, d: int, n: int, normalized: bool = True) -> ModelSpec:
    """Seeded random model: random mixing matrices near the identity and
    component laws drawn from the catalog."""
    summands = tuple(
        Summand(
            rng.normal(scale=0.5, size=(d, d)) + np.eye(d),
            tuple(CATALOG_KINDS[int(rng.integers(len(CATALOG_KINDS)))] for _ in range(d)),
        )
        for _ in range(n)
    )
    model = ModelSpec(d=d, records=tuple((s, 1) for s in summands))
    return normalize(model) if normalized else model
