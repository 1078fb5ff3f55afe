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
from summarytree.tree_model import from_arrays
from tests.conftest import assert_canonical, make_tree, path_tree, star_tree, tree_records


def chain_records(red):
    return [(c.top, c.bottom, c.l, c.lprime) for c in red.chains.values()]


def positive_weight_nodes(red):
    return int((red.tree.weight[1:] > 0).sum())


def reference_chains(t):
    """Maximal zero-weight chains found by a per-node loop over the reduced tree."""
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
        out.append((v, cur, len(seq), sum(1 for _, z in seq if z), tuple(seq)))
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
        (roots,) = red.placeholder_roots.values()
        assert sorted(t.ext(int(v)) for v in roots) == [f"l{i}" for i in range(6)]

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
                got = [(c.top, c.bottom, c.l, c.lprime, c.seq) for c in red.chains.values()]
                assert got == reference_chains(red.tree)
                found += len(got)
        assert found > 500

    def test_interior_chain_nodes_have_no_table(self):
        rng = np.random.default_rng(28)
        interior = 0
        for _ in range(40):
            n = int(rng.integers(2, 150))
            parents = np.concatenate(([-1], (rng.random(n - 1) * np.arange(1, n)).astype(np.int64)))
            weights = np.where(rng.random(n) < 0.9, 0.0, rng.integers(1, 4, n)).astype(float)
            weights[0] += 1.0
            tables = solve_approx(canonicalize(from_arrays(parents, weights)), 8, 0.5).tables
            for ch in tables.chains.values():
                tables.value(ch.top, 1)
                for v, _ in ch.seq[1:]:
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
