"""Shared fixtures and strategies for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from summarytree import CanonicalTree, SummaryTree, build_tree, canonicalize

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def root_group_roots(s: SummaryTree) -> tuple[int, ...]:
    """Grouped child labels of the root's group node, if any (else ())."""
    for nd in s.nodes:
        if nd.kind == "group" and nd.parent >= 0 and s.nodes[nd.parent].parent < 0:
            return nd.child_roots
    return ()


def assert_group_classes(s: SummaryTree, ct: CanonicalTree) -> None:
    """Every group's children are a prefix or a near-prefix of its parent's sorted children."""
    for nd in s.nodes:
        if nd.kind != "group":
            continue
        pos = sorted(c - int(ct.first_child[nd.anchor]) + 1 for c in nd.child_roots)
        m = len(pos)
        is_prefix = pos == list(range(1, m + 1))
        is_near = pos[:-1] == list(range(1, m)) and pos[-1] >= m + 1
        assert is_prefix or is_near, f"group child positions {pos} are neither prefix nor near-prefix"


def make_tree(records) -> CanonicalTree:
    return canonicalize(build_tree(records))


def path_tree(weights) -> CanonicalTree:
    """A descending path with the given weights, root first."""
    recs = []
    for i, w in enumerate(weights):
        recs.append((f"p{i}", None if i == 0 else f"p{i-1}", w))
    return make_tree(recs)


def star_tree(root_weight, leaf_weights) -> CanonicalTree:
    recs = [("r", None, root_weight)]
    recs += [(f"l{i}", "r", w) for i, w in enumerate(leaf_weights)]
    return make_tree(recs)


def deep_json_chain(depth: int) -> str:
    """A nested-JSON tree that is a path of ``depth`` + 1 unit-weight nodes."""
    head = "".join(f'{{"id": "n{i}", "weight": 1.0, "children": [' for i in range(depth))
    return head + f'{{"id": "n{depth}", "weight": 1.0}}' + "]}" * depth


# A star whose pairwise weights.sum() is finite but whose size fold, which
# adds the leaves from the last to the first, overflows to inf.
OVERFLOW_STAR = [("r", None, 0.0), ("l1", "r", 1.3828408729710143e307)] + [
    (f"l{i}", "r", 1.3828408729710123e307) for i in range(2, 14)
]

# The same for a star of 100 leaves, wide enough that the fold sums the
# root's children with numpy rather than in a Python loop.
WIDE_OVERFLOW_STAR = [("r", None, 0.0)] + [
    (f"l{i}", "r", 1.7976931348623125e306) for i in range(100)
]


def csv_text(records) -> str:
    """``id,parent,weight`` CSV of records, with exactly round-tripping weights."""
    return "id,parent,weight\n" + "".join(f"{i},{p or ''},{w!r}\n" for i, p, w in records)


@pytest.fixture
def p4() -> CanonicalTree:
    """Unit-weight path of four nodes; best 2-node split is (1, 3)."""
    return path_tree([1, 1, 1, 1])


@pytest.fixture
def gap7() -> CanonicalTree:
    """7-node instance where only a near-prefix group is optimal at k=4.

    Root children sorted by size: v1 (0) < v2-subtree (4) < v3-subtree
    (4.0625, driven by v6 slightly above 2).  The unique 4-node optimum
    groups {v1, v3} for entropy close to 1.5 bits, while the best
    prefix-only tree reaches only about 1 bit with group {v1, v2}.
    """
    return make_tree(
        [
            ("v0", None, 0),
            ("v1", "v0", 0),
            ("v2", "v0", 2),
            ("v3", "v0", 0),
            ("v4", "v2", 2),
            ("v5", "v3", 2),
            ("v6", "v3", 2.0625),
        ]
    )


@st.composite
def tree_records(draw, max_n: int = 20, integer_weights: bool = False):
    """Random (id, parent, weight) records forming a valid rooted tree."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    if integer_weights:
        ws = draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
    else:
        ws = draw(
            st.lists(
                st.floats(0, 64, allow_nan=False, allow_infinity=False),
                min_size=n,
                max_size=n,
            )
        )
    if sum(ws) <= 0:
        ws = list(ws)
        ws[draw(st.integers(0, n - 1))] = 1
    recs = [
        (f"n{i:03d}", None if i == 0 else f"n{parents[i - 1]:03d}", float(ws[i]))
        for i in range(n)
    ]
    return recs


# Weights at the ends of float64: the smallest subnormal, other subnormals,
# the smallest normal, 1e300 and values between.  Over a total near 1e300
# the subnormal ones underflow to p = 0.
EXTREME_WEIGHTS = (0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 1.0, 3.0, 1e150, 1e300)


@st.composite
def extreme_tree_records(draw, max_n: int = 10):
    """Tree records whose weights are subnormal, up to 1e300, or mostly zero."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    ws = draw(st.lists(st.sampled_from(EXTREME_WEIGHTS), min_size=n, max_size=n))
    if draw(st.booleans()):  # mostly zero: keep one or two weights
        keep = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=2))
        ws = [w if i in keep else 0.0 for i, w in enumerate(ws)]
    if sum(ws) <= 0:
        ws[draw(st.integers(0, n - 1))] = draw(st.sampled_from(EXTREME_WEIGHTS[1:]))
    return [
        (f"n{i:03d}", None if i == 0 else f"n{parents[i - 1]:03d}", ws[i]) for i in range(n)
    ]


def assert_canonical(t: CanonicalTree) -> None:
    """Check the labelling invariants every canonical tree promises."""
    n = t.n
    # ext_of_label is a bijection from labels 1..n onto n distinct ids
    assert len(t.ext_of_label) == n + 1 and t.ext_of_label[0] is None
    assert len(set(t.ext_of_label[1:])) == n
    assert int(t.parent[1]) == 0 and int(t.depth[1]) == 0
    for v in range(2, n + 1):
        p = int(t.parent[v])
        assert 1 <= p < v
        assert int(t.depth[v]) == int(t.depth[p]) + 1
    # children are consecutive labels, sorted by size
    for v in range(1, n + 1):
        kids = list(t.children(v))
        assert all(int(t.parent[c]) == v for c in kids)
        sizes = [float(t.size[c]) for c in kids]
        assert sizes == sorted(sizes)
    assert int(t.degree[1:].sum()) == n - 1
    # labels within a depth level are consecutive (depth nondecreasing by label)
    depths = [int(t.depth[v]) for v in range(1, n + 1)]
    assert depths == sorted(depths)
    # counts consistent
    for v in range(1, n + 1):
        assert int(t.count[v]) == 1 + sum(int(t.count[c]) for c in t.children(v))
    # every subtree is the contiguous preorder slice at pre_pos
    desc = [{v} for v in range(n + 1)]
    for v in range(n, 1, -1):
        desc[int(t.parent[v])] |= desc[v]
    for v in range(1, n + 1):
        assert int(t.preorder[t.pre_pos[v]]) == v
        assert set(int(x) for x in t.subtree_labels(v)) == desc[v]
    assert sorted(int(x) for x in t.preorder) == list(range(1, n + 1))


def random_canonical(rng: np.random.Generator, n: int, weights: str = "uniform") -> CanonicalTree:
    from summarytree import random_tree

    return canonicalize(random_tree(n, weights=weights, seed=rng))


def reference_chains(t: CanonicalTree) -> list:
    """(top, bottom, seq) of each maximal zero-weight chain, found node by node.

    A chain node weighs zero and has one child, or two children of which
    exactly one is a zero-weight leaf (either one); the other child
    continues the chain.  ``seq`` lists the chain nodes top-down as
    (node, zero leaf or 0), and the bottom is the first node after them.
    """
    cont, zleaf = {}, {}
    for v in range(1, t.n + 1):
        kids = list(t.children(v))
        if t.weight[v] != 0 or len(kids) not in (1, 2):
            continue
        zero_leaf = [t.degree[c] == 0 and t.weight[c] == 0 for c in kids]
        if len(kids) == 1:
            cont[v], zleaf[v] = kids[0], 0
        elif zero_leaf[0] != zero_leaf[1]:
            z = 0 if zero_leaf[0] else 1
            cont[v], zleaf[v] = kids[1 - z], kids[z]
    out = []
    for v in sorted(cont):
        if cont.get(int(t.parent[v])) == v:
            continue  # interior of a longer chain
        seq, cur = [], v
        while cur in cont:
            seq.append((cur, zleaf[cur]))
            cur = cont[cur]
        out.append((v, cur, tuple(seq)))
    return out


def zero_chain_records(length: int = 3000) -> list:
    """A root of weight 1 over a ``length``-node zero-weight chain ending in a leaf of weight 2.

    Every third chain node also holds a zero-weight leaf, so the chain mixes
    degree-1 nodes with nodes whose first child is a zero leaf.
    """
    recs = [("r", None, 1.0)] + [(f"c{i}", f"c{i - 1}" if i else "r", 0.0) for i in range(length)]
    recs += [(f"z{i}", f"c{i}", 0.0) for i in range(1, length, 3)]
    return recs + [("u", f"c{length - 1}", 2.0)]
