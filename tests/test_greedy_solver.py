import math

import numpy as np
import pytest

from summarytree import (
    brute_force_opt,
    canonicalize,
    random_tree,
    solve_exact,
    solve_greedy,
    validate_summary_tree,
)
from tests.conftest import assert_group_classes, make_tree, path_tree, root_group_roots


class TestGreedyOnPaths:
    def test_identical_to_exact_on_paths(self):
        rng = np.random.default_rng(1)
        for n in range(2, 21):
            t = path_tree(list(rng.uniform(0.1, 5.0, size=n)))
            a = solve_exact(t, 8)
            b = solve_greedy(t, 8)
            assert a.all_entropy_bits() == b.all_entropy_bits()

    def test_k1_zero(self):
        t = path_tree([2, 3, 4])
        assert solve_greedy(t, 1).entropy_bits(1) == 0.0


class TestGapInstance:
    def test_greedy_one_bit_with_prefix_group(self, gap7):
        tb = solve_greedy(gap7, 4)
        assert tb.entropy_bits(4) == pytest.approx(1.0, abs=0.1)
        s = tb.reconstruct(4)
        roots = sorted(gap7.ext(c) for c in root_group_roots(s))
        assert roots == ["v1", "v2"]

    def test_exact_beats_greedy_here(self, gap7):
        ex = solve_exact(gap7, 4)
        gr = solve_greedy(gap7, 4)
        assert ex.entropy_bits(4) == pytest.approx(1.5, abs=0.1)
        assert ex.entropy_bits(4) > gr.entropy_bits(4) + 0.4
        roots = sorted(gap7.ext(c) for c in root_group_roots(ex.reconstruct(4)))
        assert roots == ["v1", "v3"]


class TestDominanceAndOracle:
    def test_never_exceeds_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(2, 120))
            t = canonicalize(random_tree(n, weights="uniform", seed=rng))
            ex = solve_exact(t, 16)
            gr = solve_greedy(t, 16)
            for k in range(1, ex.max_k + 1):
                assert gr.entropy_bits(k) <= ex.entropy_bits(k) + 1e-9

    def test_matches_prefix_restricted_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            n = int(rng.integers(1, 10))
            t = canonicalize(random_tree(n, weights="integer", max_weight=8, seed=rng))
            tb = solve_greedy(t, n)
            for k in range(1, n + 1):
                r = brute_force_opt(t, k)
                assert tb.entropy_bits(k) == pytest.approx(r.prefix_max, abs=1e-9)

    def test_monotone_bounded_and_valid(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 60))
            t = canonicalize(random_tree(n, weights="uniform", seed=rng))
            tb = solve_greedy(t, 12)
            prev = -1.0
            for k in range(1, tb.max_k + 1):
                e = tb.entropy_bits(k)
                assert prev - 1e-9 <= e <= math.log2(k) + 1e-9
                prev = e
                s = tb.reconstruct(k)
                assert s.entropy_bits == pytest.approx(e, abs=1e-9)
                validate_summary_tree(s, t)
                assert_group_classes(s, t)

    def test_pair_cost_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            n = int(rng.integers(2, 400))
            K = int(rng.integers(1, 32))
            t = canonicalize(random_tree(n, weights="uniform", seed=rng))
            assert solve_greedy(t, K).pair_cost <= 2 * K * n

    def test_small_K_matches_prefix_oracle_on_wide_trees(self):
        """Greedy's unprocessed absorption of the d-K smallest children
        must not change the best prefix-restricted value."""
        import numpy as np
        from summarytree.tree_model import from_arrays

        rng = np.random.default_rng(2026)
        for trial in range(30):
            n = int(rng.integers(4, 11))
            parents = np.full(n, -1, dtype=np.int64)
            if trial % 2:
                parents[1:] = 0
            else:
                for i in range(1, n):
                    parents[i] = rng.integers(0, max(1, min(i, 3)))
            w = rng.integers(0, 5, size=n).astype(float)
            if w.sum() <= 0:
                w[0] = 1
            t = canonicalize(from_arrays(parents, w))
            for K in (2, 3, 4):
                tb = solve_greedy(t, K)
                for k in range(1, tb.max_k + 1):
                    r = brute_force_opt(t, k)
                    assert tb.entropy_bits(k) == pytest.approx(r.prefix_max, abs=1e-9)

    def test_wide_star_forced_membership(self):
        # d_v > K forces the smallest children into the group; the sweep
        # only touches the largest K children, yet all orders are exact
        # here because every optimum is a prefix group.
        leaves = [(f"l{i:02d}", "r", float(i + 1)) for i in range(20)]
        t = make_tree([("r", None, 1.0)] + leaves)
        K = 5
        gr = solve_greedy(t, K)
        ex = solve_exact(t, K)
        for k in range(1, K + 1):
            assert gr.entropy_bits(k) == pytest.approx(ex.entropy_bits(k), abs=1e-9)
            s = gr.reconstruct(k)
            validate_summary_tree(s, t)
            assert_group_classes(s, t)
