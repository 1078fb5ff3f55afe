"""Greedy summary trees: the exact DP restricted to prefix group sets.

The greedy solver reuses the exact sweep machinery with two changes:
near-prefix candidate classes are never evaluated, and the children
v_1 .. v_{d_v - K} of every node are absorbed into the group seed
without individual processing (within a K-node budget a prefix group
must contain them whenever it exists at all).  This drops the solve
cost to O(Kn + n log n) at the price of optimality: the best
prefix-restricted tree can carry measurably less entropy than the true
optimum, and the test suite pins a 7-node instance where the gap is
roughly 1.5 vs 1.0 bits.
"""

from __future__ import annotations

from .exact_solver import DPTables
from .tree_model import CanonicalTree

__all__ = ["solve_greedy"]


def solve_greedy(t: CanonicalTree, K: int) -> DPTables:
    """Best summary trees whose every group is a prefix of the sorted children.

    Returns tables with the same surface as :func:`solve_exact`; values
    never exceed the exact optimum, and coincide with it on trees (such
    as paths) where no near-prefix group can help.
    """
    return DPTables(t, K, mode="greedy")
