"""Print the make-up of every workload's input for one seed, as a Markdown table.

Run from the repository root:  python3 perfbench/describe.py --seed 1
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, workload_arrays


def describe(w, seed: int) -> dict:
    from summarytree import canonicalize, compute_W0, from_arrays, solve_approx

    a = workload_arrays(w, seed)
    ct = canonicalize(from_arrays(a.parents, a.weights, a.ids))
    row = {
        "workload": w.name,
        "n": ct.n,
        "internal": int((ct.degree[1:] > 0).sum()),
        "depth": int(ct.depth.max()),
        "W0": "-",
        "reduced nodes": "-",
        "chains": "-",
    }
    dp_tree = ct  # the tree the DP fills tables for
    if w.algorithm == "approx":
        res = solve_approx(ct, w.K, w.epsilon)
        dp_tree = res.reduced.tree
        row["W0"] = compute_W0(w.K, w.epsilon)
        row["reduced nodes"] = dp_tree.n
        row["chains"] = len(res.reduced.chains)
    row["DP table cells"] = int(np.minimum(w.K, dp_tree.count[1:]).sum())
    deg = dp_tree.degree[1:]
    deg = deg[deg > 0]
    if w.algorithm == "greedy":
        row["near-prefix classes per internal DP node"] = "0"
    else:
        # classes j = max(3, d - K + 3) .. d, as the exact sweep runs them
        classes = np.maximum(deg - np.maximum(3, deg - w.K + 3) + 1, 0)
        row["near-prefix classes per internal DP node"] = f"{classes.mean():.2f} (max {classes.max()})"
    return row


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    sys.path.insert(0, str(Path.cwd() / "src"))
    rows = [describe(w, args.seed) for w in WORKLOADS.values()]
    cols = list(rows[0])
    print("| " + " | ".join(cols) + " |")
    print("|" + "---|" * len(cols))
    for r in rows:
        print("| " + " | ".join(str(r[c]) for c in cols) + " |")


if __name__ == "__main__":
    main()
