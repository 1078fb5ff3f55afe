import math

import numpy as np
import pytest
from hypothesis import given, settings

from summarytree import (
    brute_force_opt,
    canonicalize,
    compute_W0,
    random_tree,
    solve_approx,
    solve_exact,
    validate_summary_tree,
)
from summarytree.approx_solver import discrepancy_round, reduce_tree, rescale
from summarytree.summary import (InvariantError, SummaryTree, attach_members, node_weight,
                                 summary_node)
from summarytree.tree_model import from_arrays
from tests.conftest import (assert_canonical, make_tree, path_tree, reference_chains, star_tree,
                            tree_records)


def chain_records(red):
    """(top, bottom, l, lprime) of each chain, counted node by node.

    ``red.chains`` must map exactly the reference tops to their bottoms, in
    label order, and each top's count must exceed its bottom's by the l
    chain nodes plus the lprime zero leaves between them.
    """
    ref = reference_chains(red.tree)
    assert list(red.chains.items()) == [(top, bottom) for top, bottom, _ in ref]
    out = [(top, bottom, len(seq), sum(1 for _, z in seq if z)) for top, bottom, seq in ref]
    count = red.tree.count
    assert all(count[top] - count[bottom] == l + lp for top, bottom, l, lp in out)
    return out


def positive_weight_nodes(red):
    return int((red.tree.weight[1:] > 0).sum())


def reference_placeholder_roots(red, base):
    """The removed input children each placeholder stands for, collected per input node.

    An input node of zero rounded size under a positively sized one is
    removed, and the one placeholder under its parent's reduced node
    stands for it.
    """
    t, ol = red.tree, red.orig_label.tolist()
    s_r = red.rounded.s_rounded
    reduced_of = {o: v for v, o in enumerate(ol) if o}
    ph_of = {}
    for v in range(1, t.n + 1):
        if not ol[v]:
            assert int(t.parent[v]) not in ph_of, "two placeholders under one node"
            ph_of[int(t.parent[v])] = v
    out = {}
    for c in range(2, base.n + 1):
        p = int(base.parent[c])
        if s_r[c] == 0 and s_r[p] > 0:
            out.setdefault(ph_of[reduced_of[p]], []).append(c)
    assert sorted(out) == sorted(ph_of.values())
    return out


def zero_branching_nodes(red):
    """Zero-weight reduced nodes with two or more positively sized children."""
    t = red.tree
    return sum(
        1
        for v in range(1, t.n + 1)
        if t.weight[v] == 0 and sum(t.size[c] > 0 for c in t.children(v)) >= 2
    )


class TestComputeW0:
    def test_documented_values(self):
        assert compute_W0(4, 0.5) == 67
        assert compute_W0(1, 1) == 4

    def test_monotone_in_epsilon(self):
        prev = None
        for eps in (1.0, 0.5, 0.2, 0.1, 0.05):
            w0 = compute_W0(8, eps)
            if prev is not None:
                assert w0 >= prev
            prev = w0

    def test_clamped_below_by_2K(self):
        assert compute_W0(100, 1000.0) == 200

    def test_infeasible_epsilon_rejected(self):
        # 1e-308 overflows the W0 formula; 1e-15 gives W0 = 2.07e17 >= 2**53.
        for eps in (float("nan"), float("inf"), 1e-308, 1e-15):
            with pytest.raises(ValueError, match="epsilon"):
                compute_W0(2, eps)
        assert compute_W0(2, 1e-13) < 2**53

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            compute_W0(0, 0.5)
        with pytest.raises(ValueError):
            compute_W0(4, 0.0)


class TestRescale:
    def test_proportional(self):
        t = path_tree([1, 1, 2])
        s = rescale(t, 8)
        assert sorted(float(w) for w in s.weight[1:]) == [2.0, 2.0, 4.0]
        assert s.W == pytest.approx(8.0, rel=1e-12)

    def test_identity_when_total_matches(self):
        t = path_tree([2, 2, 4])
        s = rescale(t, 8)
        assert np.array_equal(s.weight, t.weight)

    def test_total_exact_before_rounding(self):
        rng = np.random.default_rng(0)
        t = canonicalize(random_tree(500, weights="uniform", seed=rng))
        s = rescale(t, 123)
        assert float(s.weight[1:].sum()) == pytest.approx(123.0, rel=1e-9)


class TestDiscrepancyRound:
    def test_integer_weights_unchanged(self):
        t = make_tree([("r", None, 3), ("a", "r", 0), ("b", "r", 5)])
        rt = discrepancy_round(t)
        assert np.array_equal(rt.w_rounded[1:], t.weight[1:].astype(np.int64))
        rt.check()

    def test_half_weight_path(self):
        t = path_tree([0.5, 0.5, 0.5, 0.5])
        rt = discrepancy_round(t)
        assert [int(rt.w_rounded[v]) for v in t.preorder] == [1, 0, 1, 0]
        assert rt.W0 == 2
        rt.check()

    def test_small_star(self):
        t = make_tree([("r", None, 0.3), ("a", "r", 0.3), ("b", "r", 0.4)])
        rt = discrepancy_round(t)
        assert [int(rt.w_rounded[v]) for v in t.preorder] == [0, 1, 0]
        assert int(rt.s_rounded[1]) == 1
        rt.check()

    @given(tree_records(max_n=40))
    @settings(max_examples=30)
    def test_invariants_on_random_trees(self, recs):
        t = make_tree(recs)
        for w0 in (1, 2, 7, 40):
            if not math.isfinite(w0 / t.W):  # e.g. a lone 2.2e-308 root with w0=7
                with pytest.raises(ValueError, match="too small to rescale"):
                    rescale(t, w0)
                continue
            rt = discrepancy_round(rescale(t, w0))
            rt.check()
            assert int(rt.w_rounded.sum()) == w0


class TestReduceTree:
    def test_star_placeholder_collects_removed_ids(self):
        t = star_tree(5.0, [0, 0, 0, 0, 0, 0])
        red = reduce_tree(discrepancy_round(t))
        assert red.tree.n == 2
        (roots,) = reference_placeholder_roots(red, t).values()
        assert sorted(t.ext(int(v)) for v in roots) == [f"l{i}" for i in range(6)]
        (group,) = [nd for nd in solve_approx(t, 2, 0.5).trees[1].nodes if nd.kind == "group"]
        assert group.child_roots == tuple(roots)

    def test_zero_chain_recorded(self):
        t = make_tree(
            [
                ("r", None, 1),
                ("a", "r", 0),
                ("b", "a", 0),
                ("c", "b", 0),
                ("u", "c", 3),
                ("x", "u", 1),
            ]
        )
        red = reduce_tree(discrepancy_round(t))
        assert len(chain_records(red)) == 1
        top, bottom, l, lprime = chain_records(red)[0]
        assert (l, lprime) == (3, 0)
        assert red.tree.ext(top) == "a" and red.tree.ext(bottom) == "u"

    def test_chain_with_zero_leaves(self):
        t = make_tree(
            [
                ("r", None, 1),
                ("a", "r", 0),
                ("z1", "a", 0),
                ("b", "a", 0),
                ("z2", "b", 0),
                ("u", "b", 2),
            ]
        )
        red = reduce_tree(discrepancy_round(t))
        assert len(chain_records(red)) == 1
        _, _, l, lprime = chain_records(red)[0]
        assert (l, lprime) == (2, 2)

    @given(tree_records(max_n=40, integer_weights=True))
    @settings(max_examples=30)
    def test_reduced_tree_is_canonical(self, recs):
        t = make_tree(recs)
        for w0 in (1, 2, 7, 40):
            rt = discrepancy_round(rescale(t, w0))
            if rt.s_rounded[1] > 0:
                assert_canonical(reduce_tree(rt).tree)

    def test_chains_match_per_node_reference(self):
        rng = np.random.default_rng(27)
        found = 0
        for _ in range(300):
            n = int(rng.integers(2, 60))
            parents = np.concatenate(([-1], (rng.random(n - 1) * np.arange(1, n)).astype(np.int64)))
            weights = np.where(rng.random(n) < rng.random(), 0.0, rng.integers(1, 4, n))
            weights[0] += 1.0
            t = canonicalize(from_arrays(parents, weights))
            for w0 in (1, 3, 10):
                red = reduce_tree(discrepancy_round(rescale(t, w0)))
                found += len(chain_records(red))
        assert found > 500

    @given(tree_records(max_n=40, integer_weights=True))
    @settings(max_examples=40)
    def test_zero_leaf_is_first_and_only_zero_child(self, recs):
        """No zero-weight node has a zero leaf after its first child, so chains need no other case."""
        t = make_tree(recs)
        for w0 in (1, 2, 7, 40):
            rt = discrepancy_round(rescale(t, w0))
            if rt.s_rounded[1] <= 0:
                continue
            red = reduce_tree(rt).tree
            for v in range(1, red.n + 1):
                kids = list(red.children(v))
                zero = [c for c in kids if red.size[c] == 0]
                assert all(red.degree[c] == 0 and red.weight[c] == 0 for c in zero)
                assert zero in ([], kids[:1])

    def test_interior_chain_nodes_have_no_table(self):
        rng = np.random.default_rng(28)
        interior = 0
        for _ in range(40):
            n = int(rng.integers(2, 150))
            parents = np.concatenate(([-1], (rng.random(n - 1) * np.arange(1, n)).astype(np.int64)))
            weights = np.where(rng.random(n) < 0.9, 0.0, rng.integers(1, 4, n)).astype(float)
            weights[0] += 1.0
            tables = solve_approx(canonicalize(from_arrays(parents, weights)), 8, 0.5).tables
            ref = reference_chains(tables.tree)
            assert tables.chains == {top: bottom for top, bottom, _ in ref}
            for top, _, seq in ref:
                tables.value(top, 1)
                for v, z in seq:
                    if z:
                        assert tables.value(z, 1) == 0.0  # zero leaves keep their table
                    if v == top:
                        continue
                    with pytest.raises(ValueError, match="outside"):
                        tables.value(v, 1)
                    interior += 1
        assert interior > 20

    def test_all_zero_rejected(self):
        t = make_tree([("r", None, 0.2), ("a", "r", 0.2)])
        rt = discrepancy_round(t)  # rounds to W0 = 0
        with pytest.raises(ValueError):
            reduce_tree(rt)

    def test_reduced_optimum_matches_original(self):
        """Collapsing zero-rounded structure preserves every F(root, k)."""
        rng = np.random.default_rng(21)
        for _ in range(25):
            n = int(rng.integers(2, 10))
            t = canonicalize(random_tree(n, weights="integer", max_weight=3, seed=rng))
            red = reduce_tree(discrepancy_round(t))
            np_prime = red.tree.n
            for k in range(1, min(n, np_prime) + 1):
                a = brute_force_opt(t, k).best
                b = brute_force_opt(red.tree, k).best
                assert a == pytest.approx(b, abs=1e-9)

    def test_shortcut_tables_match_oracle_on_chains(self):
        t = make_tree(
            [
                ("r", None, 2),
                ("s", "r", 1),
                ("a", "r", 0),
                ("z", "a", 0),
                ("b", "a", 0),
                ("u", "b", 4),
                ("w", "u", 1),
            ]
        )
        red = reduce_tree(discrepancy_round(t))
        assert chain_records(red)
        ap = solve_approx(t, t.n, 0.5)
        for k in range(1, t.n + 1):
            assert ap.entropy_bits[k - 1] == pytest.approx(
                brute_force_opt(t, k).best, abs=1e-9
            )


class TestSolveApprox:
    def test_k1_zero_entropy(self, gap7):
        ap = solve_approx(gap7, 1, 0.5)
        assert ap.entropy_bits == [0.0]

    def test_within_epsilon_of_exact_small(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            n = int(rng.integers(2, 10))
            t = canonicalize(random_tree(n, weights="integer", max_weight=8, seed=rng))
            ex = solve_exact(t, n)
            ap = solve_approx(t, n, 0.5)
            for k in range(1, len(ap.trees) + 1):
                gap = ex.entropy_bits(k) - ap.entropy_bits[k - 1]
                assert -1e-9 <= gap <= 0.5 + 1e-9

    def test_within_epsilon_real_weights(self):
        rng = np.random.default_rng(23)
        for n, K, eps in ((60, 4, 0.5), (200, 8, 0.1), (200, 16, 0.05)):
            t = canonicalize(random_tree(n, weights="uniform", seed=rng))
            ex = solve_exact(t, K)
            ap = solve_approx(t, K, eps)
            for k in range(1, len(ap.trees) + 1):
                gap = ex.entropy_bits(k) - ap.entropy_bits[k - 1]
                assert -1e-9 <= gap <= eps + 1e-9

    def test_trees_are_valid_and_sized(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            n = int(rng.integers(2, 40))
            t = canonicalize(random_tree(n, weights="uniform", seed=rng))
            ap = solve_approx(t, 12, 0.25)
            assert len(ap.trees) == min(12, n)
            for k in range(1, len(ap.trees) + 1):
                tree = ap.trees[k - 1]
                assert tree.k == k == len(tree.nodes)
                validate_summary_tree(tree, t)

    def test_padding_fills_past_reduced_size(self):
        recs = [("r", None, 4.0), ("p", "r", 4.0)]
        recs += [(f"z{i}", "r", 0.0) for i in range(10)]
        t = make_tree(recs)
        ap = solve_approx(t, t.n, 0.5)
        assert ap.reduced.tree.n < t.n
        for k in range(1, t.n + 1):
            assert len(ap.trees[k - 1].nodes) == k
            validate_summary_tree(ap.trees[k - 1], t)
        # splitting zero weight off never changes the rounded entropy
        assert ap.entropy_bits_rounded[-1] == pytest.approx(
            ap.entropy_bits_rounded[ap.tables.max_k - 1], abs=1e-12
        )

    def test_rounded_entropy_reported_separately(self):
        rng = np.random.default_rng(25)
        t = canonicalize(random_tree(300, weights="uniform", max_weight=1, seed=rng))
        ap = solve_approx(t, 8, 2.0)  # coarse W0 so rounding is visible
        assert len(ap.entropy_bits_rounded) == len(ap.trees)
        assert any(
            abs(a - b) > 1e-6
            for a, b in zip(ap.entropy_bits, ap.entropy_bits_rounded)
        )

    def test_large_star_reduces_to_w0_scale(self):
        n = 100001
        parents = np.zeros(n, dtype=np.int64)
        parents[0] = -1
        t = canonicalize(from_arrays(parents, np.ones(n)))
        ap = solve_approx(t, 4, 0.5)
        assert ap.W0 == 67
        assert positive_weight_nodes(ap.reduced) <= ap.W0
        assert ap.reduced.tree.n <= 3 * ap.W0
        for k in range(1, 5):
            assert len(ap.trees[k - 1].nodes) == k

    def test_reduced_size_accounting(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            n = int(rng.integers(50, 400))
            t = canonicalize(random_tree(n, weights="uniform", max_weight=1, seed=rng))
            ap = solve_approx(t, 4, 1.0)
            red = ap.reduced
            assert positive_weight_nodes(red) <= ap.W0
            assert zero_branching_nodes(red) <= ap.W0 - 1
            # Each maximal chain bottoms out at a distinct positive-size,
            # non-chain, non-root node, of which there are at most 2(W0-1).
            assert len(chain_records(red)) <= 2 * (ap.W0 - 1)

    def test_two_chains_can_share_one_mass_pair(self):
        # Regression: a zero-weight branch point feeding two zero chains
        # yields W0 = 2 but two recorded chains, so W0 - 1 is not a valid
        # chain-count bound; 2(W0 - 1) is.
        t = make_tree(
            [("r", None, 0), ("c1", "r", 0), ("c2", "r", 0), ("u1", "c1", 1), ("u2", "c2", 1)]
        )
        red = reduce_tree(discrepancy_round(t))
        assert red.rounded.W0 == 2
        assert len(chain_records(red)) == 2
        ap = solve_approx(t, 5, 0.5)
        ex = solve_exact(t, 5)
        assert ap.entropy_bits == pytest.approx(ex.all_entropy_bits(), abs=1e-9)

    def test_bad_arguments(self, p4):
        with pytest.raises(ValueError):
            solve_approx(p4, 4, 0.0)
        with pytest.raises(ValueError):
            solve_approx(p4, 0, 0.5)


def reference_map_to_original(nodes, red, base):
    """Map reduced-tree nodes back by editing them in place, as solve_approx once did."""
    ol = red.orig_label
    placeholder_roots = reference_placeholder_roots(red, base)
    for i, nd in enumerate(nodes):
        if nd.kind == "group":
            roots = []
            for c in nd.child_roots:
                oc = int(ol[c])
                if oc:
                    roots.append(oc)
                else:
                    roots.extend(placeholder_roots[c])
            nodes[i] = summary_node(base, int(ol[nd.anchor]), roots, nd.parent)
        elif ol[nd.anchor]:
            nd.anchor = int(ol[nd.anchor])
            nd.weight = float(node_weight(nd, base.weight, base.size))
        else:  # a placeholder stands for the zero-sized children it removed
            roots = list(placeholder_roots[nd.anchor])
            parent_orig = int(ol[red.tree.parent[nd.anchor]])
            nodes[i] = summary_node(base, parent_orig, roots, nd.parent)
    return nodes


def reference_pad_to_k(nodes, k, red, base):
    """Pad by rescanning from node 0 after every split, as solve_approx once did."""
    s_r = red.rounded.s_rounded
    w_r = red.rounded.w_rounded
    while len(nodes) < k:
        done = False
        for i, nd in enumerate(nodes):
            if nd.kind == "group":
                zero_roots = [c for c in nd.child_roots if s_r[c] == 0]
                if not zero_roots:
                    continue
                c = zero_roots[0]
                rest = tuple(x for x in nd.child_roots if x != c)
                piece = summary_node(base, nd.anchor, (c,), nd.parent)
                if len(rest) == 1:
                    nodes[i] = summary_node(base, nd.anchor, rest, nd.parent)
                else:
                    nd.child_roots = rest
                    nd.weight -= float(base.size[c])
                nodes.append(piece)
                done = True
                break
            if nd.kind == "subtree":
                y = nd.anchor
                if int(base.count[y]) < 2:
                    continue
                tail = int(s_r[y]) - int(w_r[y])
                if int(w_r[y]) != 0 and tail != 0:
                    continue
                kids = list(base.children(y))
                nodes[i] = summary_node(base, y, (), nd.parent)
                nodes.append(summary_node(base, y, kids, i))
                done = True
                break
        if not done:
            raise InvariantError(f"cannot pad summary tree to {k} nodes")


def zero_heavy_tree(rng):
    """n in 4..60, a random half of the weights zero, the rest Pareto with shape 0.6."""
    n = int(rng.integers(4, 61))
    parents = np.concatenate(([-1], rng.integers(0, np.arange(1, n))))
    weights = rng.pareto(0.6, n)
    weights[rng.permutation(n)[: n // 2]] = 0.0
    return canonicalize(from_arrays(parents, weights))


def node_fields(nodes):
    return [(nd.kind, nd.anchor, nd.parent, nd.weight, nd.child_roots, nd.members) for nd in nodes]


@pytest.mark.parametrize("seed", range(4))
def test_padded_trees_match_reference_node_by_node(seed):
    """Every approx tree equals the in-place map and restart padding, weights to the bit."""
    rng = np.random.default_rng(seed)
    for _ in range(100):
        t = zero_heavy_tree(rng)
        ap = solve_approx(t, int(rng.integers(4, 41)), float(rng.choice([1.0, 3.0, 8.0])))
        for k, tree in enumerate(ap.trees, start=1):
            rebuilt = ap.tables.rebuild(min(k, ap.tables.max_k))
            nodes = reference_map_to_original(rebuilt, ap.reduced, t)
            reference_pad_to_k(nodes, k, ap.reduced, t)
            want = attach_members(SummaryTree(k, 0.0, t.W, nodes), t)
            assert node_fields(tree.nodes) == node_fields(want.nodes)


def reference_node_weight(nd, weight, size):
    """A node's weight summed one root at a time, as node_weight once did."""
    if nd.kind == "singleton":
        return weight[nd.anchor]
    if nd.kind == "subtree":
        return size[nd.anchor]
    return sum(size[c] for c in nd.child_roots)


def test_star_matches_reference_map_and_rounded_weights():
    """A 20,000-leaf star: most leaves round to zero, so one placeholder maps to most of them."""
    rng = np.random.default_rng(11)
    n = 20_000
    t = canonicalize(from_arrays(np.r_[-1, np.zeros(n - 1, dtype=np.int64)], rng.random(n) * 8))
    ap = solve_approx(t, 16, 0.1)
    (roots,) = reference_placeholder_roots(ap.reduced, t).values()
    assert len(roots) > n // 2
    w_r, s_r = ap.reduced.rounded.w_rounded, ap.reduced.rounded.s_rounded
    for k, tree in enumerate(ap.trees, start=1):
        nodes = reference_map_to_original(ap.tables.rebuild(min(k, ap.tables.max_k)), ap.reduced, t)
        reference_pad_to_k(nodes, k, ap.reduced, t)
        want = attach_members(SummaryTree(k, 0.0, t.W, nodes), t)
        assert node_fields(tree.nodes) == node_fields(want.nodes)
        weights = [reference_node_weight(nd, w_r, s_r) for nd in tree.nodes]
        assert [node_weight(nd, w_r, s_r) for nd in tree.nodes] == weights
        ent = sum(0.0 if w == 0 else -(w / ap.W0) * math.log2(w / ap.W0) for w in weights)
        assert ap.entropy_bits_rounded[k - 1] == pytest.approx(ent, rel=1e-12, abs=1e-12)
