"""The output checker accepts the CLI's output and rejects known corruptions.

Run from the repository root:  python3 -m pytest perfbench/test_check.py
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from summarytree import cli  # noqa: E402

from check import CheckError, Reference, check_result, entropy_bits  # noqa: E402
from workloads import make_arrays, write_csv  # noqa: E402

K = 12


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    from summarytree import from_arrays

    # Two levels of a 40-ary tree: at k = 12 the optimum has two groups.
    arrays = make_arrays("wide", 120, np.random.default_rng(5))
    tmp = tmp_path_factory.mktemp("check")
    write_csv(from_arrays(arrays.parents, arrays.weights, arrays.ids), tmp / "in.csv")
    argv = ["--input", str(tmp / "in.csv"), "-K", str(K), "--output", str(tmp / "out.json")]
    assert cli.run(argv) == 0
    doc = json.loads((tmp / "out.json").read_text())
    return doc, Reference(arrays.parents, arrays.weights, arrays.ids)


def node_of_kind(res, kind):
    return next(nd for nd in res["nodes"] if nd["kind"] == kind)


def move_member(doc, ref):
    # Weights and entropy are kept consistent, so only the structure is wrong.
    res = doc["results"][-1]
    src = node_of_kind(res, "group")
    dst = node_of_kind(res, "subtree")
    m = src["members"].pop()
    dst["members"].append(m)
    w = float(ref.weights[ref.index[m]])
    src["weight"] -= w
    dst["weight"] += w
    res["entropy_bits"] = entropy_bits([nd["weight"] for nd in res["nodes"]], ref.W)


def change_weight(doc, ref):
    doc["results"][2]["nodes"][1]["weight"] += 0.5


def change_entropy(doc, ref):
    doc["results"][4]["entropy_bits"] += 1e-6


def drop_node(doc, ref):
    res = doc["results"][5]
    parents = {nd["parent"] for nd in res["nodes"]}
    leaf = next(nd for nd in res["nodes"] if nd["label"] not in parents)
    res["nodes"].remove(leaf)


def group_under_other_parent(doc, ref):
    res = doc["results"][-1]
    group = node_of_kind(res, "group")
    busy = {nd["parent"] for nd in res["nodes"] if nd["kind"] == "group"}
    other = next(
        nd for nd in res["nodes"]
        if nd["kind"] == "singleton" and nd["label"] not in busy
    )
    group["label"] = f"other:{other['label']}"
    group["parent"] = other["label"]


def test_accepts_cli_output(solved):
    doc, ref = solved
    ents = check_result(doc, ref, K)
    assert len(ents) == K
    # the corruptions below need both kinds of composite node
    node_of_kind(doc["results"][-1], "group")
    node_of_kind(doc["results"][-1], "subtree")


@pytest.mark.parametrize(
    "corrupt, reason",
    [
        (move_member, "not anchored at its label"),
        (change_weight, "weight .* != "),
        (change_entropy, "entropy_bits .* != recomputed"),
        (drop_node, "k=6: 5 nodes"),
        (group_under_other_parent, "not 2\\+ children of its parent"),
    ],
)
def test_rejects_corruption(solved, corrupt, reason):
    doc, ref = solved
    bad = copy.deepcopy(doc)
    corrupt(bad, ref)
    with pytest.raises(CheckError, match=reason):
        check_result(bad, ref, K)
