"""Workload definitions and seeded input generation for the benchmark.

Every input is generated by the benchmark itself from ``--seed``: the
parent array, the weights and the ids are plain numpy/Python values that
the output checker uses as its reference.  The package only sees them
through ``from_arrays`` and the CSV file written from its result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

WIDE_DEGREE = 40
PARETO_SHAPE = 1.3
MAX_WEIGHT = 8.0


@dataclass(frozen=True)
class Workload:
    name: str
    law: str  # "uniform", "wide" or "skewed": tree shape plus weight law
    n: int
    K: int
    algorithm: str
    epsilon: Optional[float] = None
    # In-process loads per round, so that load_s is sampled for about as
    # long as solve_s even where the input is small.
    loads: int = 2
    why: str = ""


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "uniform-exact", "uniform", 50_000, 16, "exact",
            why="large shallow irregular tree at small K: ingest, members and JSON outweigh the DP",
        ),
        Workload(
            "wide-exact", "wide", 10_000, 32, "exact", loads=6,
            why="complete 40-ary tree at K=32: near-prefix sweeps and reconstruction dominate",
        ),
        Workload(
            "wide-greedy", "wide", 10_000, 32, "greedy", loads=6,
            why="same input as wide-exact, prefix classes only: the greedy layer runs, and a near-prefix change should leave it unchanged",
        ),
        Workload(
            "skewed-approx", "skewed", 50_000, 16, "approx", epsilon=0.1,
            why="heavy-tailed weights so most nodes round to zero: the approx-only layers run",
        ),
    )
}

# One stream per input law, so wide-exact and wide-greedy share their input.
_LAW_KEY = {"uniform": 1, "wide": 2, "skewed": 3}


@dataclass
class Arrays:
    """A tree as the benchmark owns it: ``parents[i]`` is -1 for the root."""

    parents: np.ndarray
    weights: np.ndarray
    ids: list

    @property
    def n(self) -> int:
        return self.parents.shape[0]


def make_arrays(law: str, n: int, rng: np.random.Generator) -> Arrays:
    """Parent array, weights and ids of an n-node tree drawn from ``law``."""
    parents = np.empty(n, dtype=np.int64)
    parents[0] = -1
    i = np.arange(1, n)
    if law == "wide":
        # The complete 40-ary tree, as random_tree(shape="fixed-degree") builds it.
        parents[1:] = (i - 1) // WIDE_DEGREE
    else:
        # Uniform attachment: node i hangs under a uniformly drawn earlier node.
        parents[1:] = (rng.random(n - 1) * i).astype(np.int64)
    if law == "skewed":
        weights = rng.pareto(PARETO_SHAPE, n)
    else:
        weights = rng.uniform(0.0, MAX_WEIGHT, n)
    # Ids are a shuffled numbering, so id order tells nothing about the shape.
    width = len(str(n - 1))
    perm = rng.permutation(n)
    ids = [f"v{int(p):0{width}d}" for p in perm]
    return Arrays(parents, weights, ids)


def workload_arrays(w: Workload, seed: int) -> Arrays:
    return make_arrays(w.law, w.n, np.random.default_rng([seed, _LAW_KEY[w.law]]))


def small_arrays(w: Workload, seed: int, count: int = 6) -> list[Arrays]:
    """Trees of 4..10 nodes from the workload's law, for the exhaustive check."""
    rng = np.random.default_rng([seed, _LAW_KEY[w.law], 99])
    return [make_arrays(w.law, int(rng.integers(4, 11)), rng) for _ in range(count)]


def write_csv(tree, path) -> None:
    """Write an InputTree as ``id,parent,weight`` with exactly round-tripping weights."""
    ids = tree.ids
    par = tree.parent_idx.tolist()
    wts = tree.weights.tolist()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("id,parent,weight\n")
        fh.writelines(
            f"{ids[i]},{ids[p] if p >= 0 else ''},{wts[i]!r}\n" for i, p in enumerate(par)
        )
