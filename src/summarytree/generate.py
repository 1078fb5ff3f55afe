"""Reproducible random tree generation for benchmarks and acceptance tests."""

from __future__ import annotations

import math
from typing import Optional, Union

import numpy as np

from .tree_model import InputTree, from_arrays

__all__ = ["random_tree"]

SHAPES = ("uniform", "fixed-degree")
WEIGHT_KINDS = ("unit", "uniform", "integer")


def random_parents(n: int, shape: str, rng: np.random.Generator, degree: int = 2) -> np.ndarray:
    """Parent-index array (root = -1) for the requested tree shape.

    ``uniform`` attaches node i to a uniformly random earlier node;
    ``fixed-degree`` builds the complete ``degree``-ary tree.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    parents = np.empty(n, dtype=np.int64)
    parents[0] = -1
    if n == 1:
        return parents
    if shape == "uniform":
        parents[1:] = (rng.random(n - 1) * np.arange(1, n)).astype(np.int64)
    elif shape == "fixed-degree":
        if degree < 1:
            raise ValueError("degree must be >= 1")
        parents[1:] = (np.arange(1, n) - 1) // degree
    else:
        raise ValueError(f"unknown shape {shape!r}; expected one of {SHAPES}")
    return parents


def random_tree(
    n: int,
    shape: str = "uniform",
    weights: str = "uniform",
    max_weight: float = 8.0,
    degree: int = 2,
    seed: Optional[Union[int, np.random.Generator]] = None,
) -> InputTree:
    """A validated random tree with the requested shape and weight law.

    Weight kinds: ``unit`` (all 1), ``uniform`` (real in [0, max_weight)),
    ``integer`` (0..max_weight inclusive, resampled until the total is
    positive).  Deterministic for a fixed seed.

    Raises:
        ValueError: ``max_weight`` is not finite and positive, or is below
            1 for ``integer`` weights.
    """
    if not 0 < max_weight < math.inf or (weights == "integer" and max_weight < 1):
        raise ValueError(
            f"max_weight must be finite and positive (>= 1 for integer weights), got {max_weight!r}"
        )
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    parents = random_parents(n, shape, rng, degree)
    if weights == "unit":
        w = np.ones(n)
    elif weights == "uniform":
        w = rng.uniform(0.0, max_weight, size=n)
        while not w.any():
            w = rng.uniform(0.0, max_weight, size=n)
    elif weights == "integer":
        w = rng.integers(0, int(max_weight) + 1, size=n).astype(np.float64)
        while not w.any():
            w = rng.integers(0, int(max_weight) + 1, size=n).astype(np.float64)
    else:
        raise ValueError(f"unknown weight kind {weights!r}; expected one of {WEIGHT_KINDS}")
    return from_arrays(parents, w)
