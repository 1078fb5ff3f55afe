"""Member sets of summary nodes, as ``attach_members`` builds them."""

import numpy as np
import pytest

from summarytree import canonicalize, from_arrays, solve_approx, solve_exact, solve_greedy
from summarytree.summary import InvariantError, SummaryNode, SummaryTree, attach_members
from tests.conftest import path_tree

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
    # Trees of more than 256 nodes number their owners past uint8.
    t = odd_id_tree(rng, 300, 0.3)
    tb = solve_greedy(t, 300)
    assert tb.max_k == 300
    for k in range(1, 301):
        s = tb.reconstruct(k)
        assert [nd.members for nd in s.nodes] == [reference_members(nd, t) for nd in s.nodes]


def test_members_past_65536_nodes():
    # Owners past uint16: every node of a 70,000-node tree is a singleton.
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
