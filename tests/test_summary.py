"""Member sets of summary nodes, as ``attach_members`` builds them, and group weights."""

import math
from dataclasses import replace

import numpy as np
import pytest

from summarytree import canonicalize, from_arrays, solve_approx, solve_exact, solve_greedy
from summarytree.summary import (InvariantError, SummaryNode, SummaryTree, attach_members,
                                 summary_node)
from tests.conftest import path_tree, star_tree

# Ids whose string order differs from their numeric or code-point-length order.
ID_POOL = ["10", "9", "100", "é", "e", "𝔘x", "Z", 'q"uote', "back\\slash", "tab\t", "a,b", "~"]


def reference_members(nd: SummaryNode, ct) -> tuple:
    """Sorted external ids of a node, collected label by label."""
    if nd.kind == "singleton":
        labels = [nd.anchor]
    else:
        roots = nd.child_roots if nd.kind == "group" else (nd.anchor,)
        labels = [int(v) for c in roots for v in ct.subtree_labels(c)]
    return tuple(sorted(ct.ext(v) for v in labels))


def odd_id_tree(rng, n: int, zero_share: float):
    ids = [f"{ID_POOL[i % len(ID_POOL)]}{i // len(ID_POOL) or ''}" for i in range(n)]
    rng.shuffle(ids)
    parents = np.concatenate(([-1], (rng.random(n - 1) * np.arange(1, n)).astype(np.int64)))
    weights = np.where(rng.random(n) < zero_share, 0.0, rng.random(n) * 5)
    weights[0] += 1.0
    return canonicalize(from_arrays(parents, weights, ids))


def test_members_match_sorted_reference():
    rng = np.random.default_rng(41)
    padded = 0
    for _ in range(60):
        n = int(rng.integers(1, 70))
        K = int(rng.integers(1, 12))
        t = odd_id_tree(rng, n, float(rng.random()))
        trees = [tb.reconstruct(k) for tb in (solve_exact(t, K), solve_greedy(t, K))
                 for k in range(1, tb.max_k + 1)]
        ap = solve_approx(t, max(K, n), 0.5)
        padded += len(ap.trees) - ap.tables.max_k
        for s in trees + ap.trees:
            assert [nd.members for nd in s.nodes] == [reference_members(nd, t) for nd in s.nodes]
    assert padded > 100  # approx trees past the reduced size come from _pad_to_k
    # A 300-node tree at every k up to n, whose trees share most nodes.
    t = odd_id_tree(rng, 300, 0.3)
    tb = solve_greedy(t, 300)
    assert tb.max_k == 300
    for k in range(1, 301):
        s = tb.reconstruct(k)
        assert [nd.members for nd in s.nodes] == [reference_members(nd, t) for nd in s.nodes]


def test_members_past_65536_nodes():
    # Every node of a 70,000-node tree is a singleton: the sort keys, owner * n
    # plus id rank, pass 2**32.
    t = odd_id_tree(np.random.default_rng(43), 70_000, 0.0)
    nodes = [SummaryNode("singleton", v, v // 2 - 1, float(t.weight[v])) for v in range(1, t.n + 1)]
    s = attach_members(SummaryTree(t.n, 0.0, t.W, nodes), t)
    assert [nd.members for nd in s.nodes] == [reference_members(nd, t) for nd in s.nodes]


def test_id_rank_orders_ids():
    rng = np.random.default_rng(42)
    t = odd_id_tree(rng, 40, 0.6)
    assert np.array_equal(t.with_scaled_weights(3.0).id_rank, t.id_rank)
    # a reduced tree, with placeholder ids, ranks its ids on first use
    reduced = solve_approx(t, 4, 0.5).reduced.tree
    assert reduced.n < t.n
    for tree in (t, reduced):
        ranked = sorted(range(1, tree.n + 1), key=tree.ext)
        assert [int(tree.id_rank[v]) for v in ranked] == list(range(tree.n))
        assert list(tree.ids_by_rank) == sorted(tree.ext_of_label[1:])


@pytest.mark.parametrize(
    "nodes",
    [
        # subtree of 2 overlaps the singleton 3 below it
        [("singleton", 1, -1, ()), ("subtree", 2, 0, ()), ("singleton", 3, 1, ())],
        # label 4 is in no member set
        [("singleton", 1, -1, ()), ("singleton", 2, 0, ()), ("singleton", 3, 1, ())],
        # a group repeats its root
        [("singleton", 1, -1, ()), ("group", 1, 0, (2, 2))],
    ],
)
def test_overlap_or_gap_raises(nodes):
    t = path_tree([1, 2, 3, 4])
    s = SummaryTree(len(nodes), 0.0, t.W, [SummaryNode(k, a, p, 0.0, (), r) for k, a, p, r in nodes])
    with pytest.raises(InvariantError, match="overlap or leave a gap"):
        attach_members(s, t)


def all_k_trees(rng, trials: int):
    """(canonical tree, its summary trees for every k) from exact, greedy and approx."""
    for _ in range(trials):
        n = int(rng.integers(2, 200))
        K = int(rng.integers(2, 20))
        t = odd_id_tree(rng, n, float(rng.random()))
        for tb in (solve_exact(t, K), solve_greedy(t, K)):
            yield t, [tb.reconstruct(k) for k in range(1, tb.max_k + 1)]
        yield t, solve_approx(t, K, 0.5).trees


def test_shared_members_equal_uncached_members():
    for t, trees in all_k_trees(np.random.default_rng(44), 20):
        for s in trees:
            fresh = SummaryTree(s.k, 0.0, t.W, [replace(nd, members=()) for nd in s.nodes])
            attach_members(fresh, t)
            assert [nd.members for nd in s.nodes] == [nd.members for nd in fresh.nodes]


def test_node_repeated_across_k_shares_one_tuple():
    shared = 0
    for t, trees in all_k_trees(np.random.default_rng(45), 20):
        seen: dict = {}
        for s in trees:
            for nd in s.nodes:
                key = (nd.kind, nd.anchor, nd.child_roots)
                if key in seen:
                    assert nd.members is seen[key]
                    shared += 1
                seen[key] = nd.members
    assert shared > 200


@pytest.mark.parametrize(
    "nodes",
    [
        # subtree of 2 overlaps subtree 3 below it
        [("singleton", 1, -1, ()), ("subtree", 2, 0, ()), ("subtree", 3, 0, ())],
        # labels 3 and 4 are in no member set
        [("singleton", 1, -1, ()), ("singleton", 2, 0, ())],
    ],
)
def test_overlap_or_gap_raises_when_every_node_is_built(nodes):
    t = path_tree([1, 2, 3, 4])
    built: dict = {}
    for valid in (
        [("singleton", 1, -1, ()), ("subtree", 2, 0, ())],
        [("singleton", 1, -1, ()), ("singleton", 2, 0, ()), ("subtree", 3, 1, ())],
    ):
        nds = [SummaryNode(k, a, p, 0.0, (), r) for k, a, p, r in valid]
        attach_members(SummaryTree(len(nds), 0.0, t.W, nds), t, built)
    s = SummaryTree(len(nodes), 0.0, t.W, [SummaryNode(k, a, p, 0.0, (), r) for k, a, p, r in nodes])
    assert all((nd.kind, nd.anchor, nd.child_roots) in built for nd in s.nodes)
    with pytest.raises(InvariantError, match="overlap or leave a gap"):
        attach_members(s, t, built)


def left_to_right(sizes) -> float:
    """One float += per size, starting from +0.0."""
    acc = 0.0
    for x in sizes:
        acc += float(x)
    return acc


def test_group_of_negative_zero_sizes_weighs_plus_zero():
    t = star_tree(1.0, [-0.0] * 4 + [5, 6, 7])
    for roots in ([2, 3, 4, 5], np.array([2, 3, 4]), (5, 4)):
        w = summary_node(t, 1, roots, 0).weight
        assert math.copysign(1.0, w) == 1.0
    # At k = 5 the optimum groups the four zero leaves.
    group = [nd for nd in solve_exact(t, 5).rebuild(5) if nd.kind == "group"]
    assert [nd.child_roots for nd in group] == [(2, 3, 4, 5)]
    assert math.copysign(1.0, group[0].weight) == 1.0


def test_group_weight_adds_left_to_right():
    # Heavy-tailed leaf sizes, for which float addition is far from
    # associative: a group weighs its sizes added one by one in the order
    # given, neither pairwise (np.sum) nor in another order.
    rng = np.random.default_rng(46)
    t = star_tree(1.0, (rng.pareto(1.1, 3000) * 1e3).tolist())
    roots = np.arange(2, t.n + 1)
    for order in (roots, roots[::-1], rng.permutation(roots)):
        w = summary_node(t, 1, order, 0).weight
        assert w.hex() == left_to_right(t.size[order]).hex()
    assert len({summary_node(t, 1, o, 0).weight for o in (roots, roots[::-1])}) == 2
    assert summary_node(t, 1, roots, 0).weight != float(np.sum(t.size[roots]))
    tb = solve_exact(t, 16)
    for k in range(2, 17):
        group = [nd for nd in tb.rebuild(k) if nd.kind == "group"]
        assert len(group) == 1
        assert group[0].weight.hex() == left_to_right(t.size[list(group[0].child_roots)]).hex()
