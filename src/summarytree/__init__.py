"""Maximum-entropy k-node summary trees of node-weighted rooted trees.

A summary tree contracts an n-node weighted rooted tree to k nodes,
each a single node, a whole collapsed subtree, or a group of sibling
subtrees; the best summary is taken to be the one whose node-weight
distribution has maximum Shannon entropy.  This package provides an
exact O(K^2 n + n log n) solver for all orders k <= K, a faster greedy
restricted to prefix groups, an additive-epsilon approximation whose
cost is independent of the weight magnitudes, a brute-force oracle for
small trees, and a CLI.
"""

from .approx_solver import ApproxResult, compute_W0, solve_approx
from .entropy_core import entropy
from .exact_solver import DPTables, solve_exact, solve_greedy
from .generate import random_tree
from .oracle import BruteForceResult, brute_force_opt, enumerate_all
from .summary import InvariantError, SummaryNode, SummaryTree, validate_summary_tree
from .tree_model import (
    CanonicalTree,
    InputTree,
    TreeError,
    build_tree,
    canonicalize,
    from_arrays,
    read_csv,
    read_json,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxResult",
    "BruteForceResult",
    "CanonicalTree",
    "DPTables",
    "InputTree",
    "InvariantError",
    "SummaryNode",
    "SummaryTree",
    "TreeError",
    "brute_force_opt",
    "build_tree",
    "canonicalize",
    "compute_W0",
    "entropy",
    "enumerate_all",
    "from_arrays",
    "random_tree",
    "read_csv",
    "read_json",
    "solve_approx",
    "solve_exact",
    "solve_greedy",
    "validate_summary_tree",
]
