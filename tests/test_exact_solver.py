import math

import numpy as np
import pytest
from hypothesis import given, settings

from summarytree import (
    brute_force_opt,
    canonicalize,
    from_arrays,
    node_pseudo_entropy,
    random_tree,
    solve_approx,
    solve_exact,
    solve_greedy,
    validate_summary_tree,
)
from tests.conftest import make_tree, path_tree, root_group_roots, star_tree, tree_records

H_1_3 = 0.8112781244591328


def reference_pair_cost(tables) -> int:
    """Pair cost as the per-node loop charged it during the fill.

    Every internal node the fill sweeps (not a chain top or interior,
    and only when K > 1) pays min(prefix, K) * min(count, K) for each
    prefix-class combining step, where prefix is the descendant count of
    the children before the combined one.
    """
    t, K = tables.tree, tables.K
    if K == 1:
        return 0
    chained = {v for ch in tables.chains.values() for v, _ in ch.seq}
    total = 0
    for v in range(1, t.n + 1):
        d = int(t.degree[v])
        if d == 0 or v in chained:
            continue
        counts = [int(t.count[c]) for c in t.children(v)]
        a = max(1, d - K + (1 if tables.mode == "greedy" else 2))
        if a > 1:
            pref, start = sum(counts[: a - 1]), a
        else:
            pref, start = counts[0], 2
        for pos in range(start, d + 1):
            c = counts[pos - 1]
            total += min(pref, K) * min(c, K)
            pref += c
    return total


class TestSmallInstances:
    def test_p4_all_orders(self, p4):
        tb = solve_exact(p4, 4)
        assert tb.all_entropy_bits() == pytest.approx([0.0, H_1_3, 1.5, 2.0], abs=1e-12)

    def test_k1_is_zero_entropy(self):
        t = make_tree([("r", None, 3), ("a", "r", 0.7), ("b", "a", 9)])
        assert solve_exact(t, 1).entropy_bits(1) == 0.0

    def test_single_node_tree(self):
        t = make_tree([("r", None, 5)])
        tb = solve_exact(t, 10)
        assert tb.max_k == 1
        s = tb.reconstruct(1)
        assert s.nodes[0].kind == "singleton" and s.entropy_bits == 0.0

    def test_f_v1_equals_node_pseudo_entropy(self, gap7):
        tb = solve_exact(gap7, 4)
        for v in range(1, gap7.n + 1):
            assert tb.value(v, 1) == pytest.approx(
                node_pseudo_entropy(float(gap7.size[v]), gap7.W).value, abs=1e-12
            )

    def test_value_range_checked(self, p4):
        tb = solve_exact(p4, 2)
        with pytest.raises(ValueError):
            tb.value(1, 3)
        with pytest.raises(ValueError):
            tb.value(1, 0)
        with pytest.raises(ValueError):
            tb.entropy_bits(5)


def _h(x: float, W: float) -> float:
    """Pseudo-entropy term -(x/W) lg(x/W) of one summary node of weight x."""
    return -(x / W) * math.log2(x / W) if x > 0 else 0.0


class TestSweeps:
    def test_max_plus_on_singleton_tables(self):
        t = star_tree(5, [1, 2])
        tb = solve_exact(t, 8)
        assert tb.value(1, 2) == pytest.approx(_h(5, 8) + _h(3, 8), abs=1e-15)  # group of both
        assert tb.value(1, 3) == pytest.approx(_h(5, 8) + _h(1, 8) + _h(2, 8), abs=1e-15)

    def test_max_plus_two_by_two(self):
        # Children a (1, leaf 1) and b (1, leaf 2) under a zero-weight root:
        # a 3-node forest splits one child and keeps the other whole.
        t = make_tree(
            [("r", None, 0), ("a", "r", 1), ("a1", "a", 1), ("b", "r", 1), ("b1", "b", 2)]
        )
        W = 5.0
        a1, a2 = _h(2, W), _h(1, W) + _h(1, W)
        b1, b2 = _h(3, W), _h(1, W) + _h(2, W)
        tb = solve_exact(t, 8)
        assert tb.value(1, 4) == pytest.approx(max(a1 + b2, a2 + b1), abs=1e-15)
        assert tb.value(1, 4) == pytest.approx(brute_force_opt(t, 4).best, abs=1e-12)

    def test_forced_seed_contributes_weight(self):
        # d = 4 > K - 1 = 2: the two smallest leaves go into the group unswept.
        t = star_tree(8, [1, 1, 2, 4])
        tb = solve_exact(t, 3)
        assert tb.value(1, 2) == pytest.approx(_h(8, 16) + _h(8, 16), abs=1e-15)
        assert tb.value(1, 3) == pytest.approx(_h(8, 16) + _h(4, 16) + _h(4, 16), abs=1e-15)
        assert tb.value(1, 3) == pytest.approx(brute_force_opt(t, 3).best, abs=1e-12)

    def test_near_prefix_seeds_child_j(self, gap7):
        # The 4-node optimum groups v1 with child 3 (the v3 subtree), skips
        # child 2 and splits the v2 subtree into v2 and v4.
        W = gap7.W
        tb = solve_exact(gap7, 4)
        assert tb.value(1, 4) == pytest.approx(
            _h(0 + 4.0625, W) + _h(2, W) + _h(2, W), abs=1e-15
        )
        assert tb.value(1, 4) == pytest.approx(brute_force_opt(gap7, 4).best, abs=1e-12)

    def test_prefix_class_wins_ties(self):
        # Grouping any two of three equal leaves gives the same entropy; the
        # prefix class (first two children) is taken before near-prefix j=3.
        t = star_tree(1, [1, 1, 1])
        s = solve_exact(t, 3).reconstruct(3)
        assert root_group_roots(s) == (2, 3)

    def test_p4_prefix_sweep_matches_oracle(self):
        # On paths the prefix class alone is exact for every k.
        for n in range(2, 7):
            t = path_tree([1.0] * n)
            tb = solve_exact(t, n)
            for k in range(1, n + 1):
                assert tb.entropy_bits(k) == pytest.approx(
                    brute_force_opt(t, k).best, abs=1e-9
                )


class TestOracleEquivalence:
    def test_random_small_trees(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            n = int(rng.integers(1, 10))
            t = canonicalize(random_tree(n, weights="integer", max_weight=8, seed=rng))
            tb = solve_exact(t, n)
            for k in range(1, n + 1):
                r = brute_force_opt(t, k)
                assert tb.entropy_bits(k) == pytest.approx(r.best, abs=1e-9)
                assert r.best == pytest.approx(r.near_prefix_max, abs=1e-9)

    def test_small_K_with_forced_group_membership(self):
        """With d_v > K the smallest children are absorbed unprocessed;
        the values must still match the unrestricted k-node optimum."""
        from summarytree.tree_model import from_arrays

        rng = np.random.default_rng(2025)
        for trial in range(40):
            n = int(rng.integers(4, 11))
            parents = np.full(n, -1, dtype=np.int64)
            if trial % 2:
                parents[1:] = 0  # wide star
            else:
                for i in range(1, n):
                    parents[i] = rng.integers(0, max(1, min(i, 3)))
            w = rng.integers(0, 5, size=n).astype(float)
            if w.sum() <= 0:
                w[0] = 1
            t = canonicalize(from_arrays(parents, w))
            for K in (2, 3, 4):
                tb = solve_exact(t, K)
                for k in range(1, tb.max_k + 1):
                    r = brute_force_opt(t, k)
                    assert tb.entropy_bits(k) == pytest.approx(r.best, abs=1e-9)
                    validate_summary_tree(tb.reconstruct(k), t, strict_classes=True)


class TestReconstruct:
    def test_k1_single_node_holds_everything(self, gap7):
        s = solve_exact(gap7, 4).reconstruct(1)
        assert len(s.nodes) == 1
        assert len(s.nodes[0].members) == gap7.n

    def test_k_equals_n_unit_weights(self):
        t = path_tree([1.0] * 6)
        tb = solve_exact(t, 6)
        s = tb.reconstruct(6)
        assert all(nd.kind == "singleton" for nd in s.nodes)
        assert s.entropy_bits == pytest.approx(math.log2(6), abs=1e-12)

    def test_p4_k2_structure(self, p4):
        s = solve_exact(p4, 2).reconstruct(2)
        kinds = sorted((nd.kind, len(nd.members)) for nd in s.nodes)
        assert kinds == [("singleton", 1), ("subtree", 3)]
        assert s.entropy_bits == pytest.approx(H_1_3, rel=1e-12)

    def test_entropy_matches_table_and_validates(self):
        rng = np.random.default_rng(7)
        trees = [
            canonicalize(random_tree(int(rng.integers(2, 40)), weights="uniform", seed=rng))
            for _ in range(25)
        ]
        # Integer weights with degree > K make class ties common.
        trees += [
            canonicalize(
                random_tree(
                    n, shape="fixed-degree", degree=12, weights="integer", max_weight=2, seed=s
                )
            )
            for n, s in ((13, 1), (40, 2), (80, 3))
        ]
        for t in trees:
            tb = solve_exact(t, 8)
            for k in range(1, tb.max_k + 1):
                s = tb.reconstruct(k)
                assert s.entropy_bits == pytest.approx(tb.entropy_bits(k), abs=1e-9)
                validate_summary_tree(s, t, strict_classes=True)

    def test_k_out_of_range(self, p4):
        tb = solve_exact(p4, 2)
        with pytest.raises(ValueError):
            tb.reconstruct(3)


class TestProperties:
    @given(tree_records(max_n=16))
    @settings(max_examples=25)
    def test_monotone_and_bounded(self, recs):
        t = make_tree(recs)
        tb = solve_exact(t, 8)
        prev = -1.0
        for k in range(1, tb.max_k + 1):
            e = tb.entropy_bits(k)
            assert e >= prev - 1e-9
            assert e <= math.log2(k) + 1e-9
            prev = e

    def test_scale_invariance_power_of_two(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 30))
            t = canonicalize(random_tree(n, weights="uniform", seed=rng))
            t4 = t.with_scaled_weights(4.0)
            a = solve_exact(t, 6)
            b = solve_exact(t4, 6)
            assert a.all_entropy_bits() == b.all_entropy_bits()
            for k in range(1, a.max_k + 1):
                sa = a.reconstruct(k)
                sb = b.reconstruct(k)
                assert [nd.members for nd in sa.nodes] == [nd.members for nd in sb.nodes]

    def test_scale_invariance_large_factor(self):
        rng = np.random.default_rng(6)
        t = canonicalize(random_tree(200, weights="uniform", seed=rng))
        a = solve_exact(t, 16).all_entropy_bits()
        b = solve_exact(t.with_scaled_weights(1e6), 16).all_entropy_bits()
        assert a == pytest.approx(b, abs=1e-9)

    def test_pair_cost_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(2, 500))
            K = int(rng.integers(1, 40))
            t = canonicalize(random_tree(n, weights="uniform", seed=rng))
            tb = solve_exact(t, K)
            assert tb.pair_cost <= 2 * K * n

    def test_pair_cost_matches_per_node_reference(self):
        rng = np.random.default_rng(31)
        chains = 0
        for _ in range(120):
            n = int(rng.integers(1, 120))
            K = int(rng.integers(1, 14))
            shape = ("uniform", "fixed-degree")[int(rng.integers(0, 2))]
            t = canonicalize(
                random_tree(n, shape=shape, degree=int(rng.integers(2, 20)), seed=rng)
            )
            for solver in (solve_exact, solve_greedy):
                tb = solver(t, K)
                assert tb.pair_cost == reference_pair_cost(tb)
            parents = np.concatenate(([-1], (rng.random(n - 1) * np.arange(1, n)).astype(np.int64)))
            weights = np.where(rng.random(n) < 0.9, 0.0, rng.integers(1, 4, n))
            weights[0] += 1.0
            tb = solve_approx(canonicalize(from_arrays(parents, weights)), K, 0.5).tables
            assert tb.pair_cost == reference_pair_cost(tb)
            chains += len(tb.chains)
        assert chains > 50

    def test_zero_weight_nodes_allowed(self):
        t = make_tree([("r", None, 0), ("a", "r", 0), ("b", "r", 2), ("c", "b", 2)])
        tb = solve_exact(t, 4)
        assert tb.entropy_bits(1) == 0.0
        s = tb.reconstruct(tb.max_k)
        validate_summary_tree(s, t, strict_classes=True)

    def test_per_node_tables_monotone(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(2, 50))
            t = canonicalize(random_tree(n, weights="uniform", seed=rng))
            tb = solve_exact(t, 6)
            for v in range(1, n + 1):
                cap = min(6, int(t.count[v]))
                vals = [tb.value(v, k) for k in range(1, cap + 1)]
                for a, b in zip(vals, vals[1:]):
                    assert b >= a - 1e-9

    def test_concurrent_solves_match_serial(self):
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(10)
        trees = [
            canonicalize(random_tree(int(rng.integers(2, 80)), seed=rng))
            for _ in range(12)
        ]
        serial = [solve_exact(t, 8).all_entropy_bits() for t in trees]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(lambda t: solve_exact(t, 8).all_entropy_bits(), trees))
        assert serial == parallel
