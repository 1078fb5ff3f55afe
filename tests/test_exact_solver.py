import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from summarytree import (
    CanonicalTree,
    DPTables,
    brute_force_opt,
    canonicalize,
    from_arrays,
    random_tree,
    solve_approx,
    solve_exact,
    solve_greedy,
    validate_summary_tree,
)
from summarytree.entropy_core import _fresh_terms, _term, _terms
from summarytree.summary import InvariantError
from tests.conftest import (
    assert_group_classes,
    extreme_tree_records,
    make_tree,
    path_tree,
    reference_chains,
    root_group_roots,
    star_tree,
    tree_records,
    zero_chain_records,
)

H_1_3 = 0.8112781244591328
NEG_INF = float("-inf")


def chains_of(tables) -> list:
    """(top, bottom, seq) of each chain the tables hold, as the per-node reference finds them."""
    if not tables.chains:
        return []
    ref = reference_chains(tables.tree)
    assert tables.chains == {top: bottom for top, bottom, _ in ref}
    return ref


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
    chained = {v for _, _, seq in chains_of(tables) for v, _ in seq}
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


def _skew_maxplus(G, B):
    """out[t-2] = max_h G[h-1] + B[t-h-1] for t = 2..len(G)+len(B)."""
    lg, lb = G.shape[0], B.shape[0]
    if lb == 1:
        return G + B[0]
    if lg == 1:
        return G[0] + B
    P = np.full((lg, lg + lb), NEG_INF)
    P[:, :lb] = np.add.outer(G, B)
    return P.ravel()[:-lg].reshape(lg, lg + lb - 1).max(axis=0)


def _sweep_one_class(tables, sizes, counts, W, K, seed, seed_nonempty, start, skip):
    """Forest table of one candidate class, one child position at a time."""
    if seed_nonempty:
        G, cum, avail, positions = np.array([_term(seed, W)]), seed, 1, range(start, len(tables) + 1)
    else:
        G, cum, avail, positions = tables[0], float(sizes[0]), int(counts[0]), range(2, len(tables) + 1)
    for pos in positions:
        if pos == skip:
            continue
        out = _skew_maxplus(G, tables[pos - 1])
        c = int(counts[pos - 1])
        new_avail = min(K - 1, avail + c)
        cum += float(sizes[pos - 1])
        G = np.empty(new_avail)
        G[0] = _term(cum, W)
        G[1:] = out[: new_avail - 1]
        avail += c
    return G


def reference_fill(tables):
    """F, win and the mask of filled entries, sweeping each class on its own.

    The classes of a node are swept one after another, prefix class first
    and then the near-prefix classes by increasing j; an entry's winner
    is the first class that attains the maximum.
    """
    t, K, W = tables.tree, tables.K, tables.tree.W
    greedy = tables.mode == "greedy"
    chains = {top: (bottom, seq) for top, bottom, seq in chains_of(tables)}
    interior = {v for _, seq in chains.values() for v, _ in seq[1:]}
    caps = np.minimum(K, t.count).astype(np.int64)
    caps[0] = 0
    caps[list(interior)] = 0  # interior chain nodes have no table
    offs = np.zeros(t.n + 1, dtype=np.int64)
    offs[1:] = np.cumsum(caps[1:]) - caps[1:]
    F = np.full(int(caps.sum()), np.nan)
    win = np.zeros(F.shape[0], dtype=np.int32)
    pw, ps = _terms(t.weight, W), _terms(t.size, W)
    for v in range(t.n, 0, -1):
        off, cap, d = int(offs[v]), int(caps[v]), int(t.degree[v])
        if v in interior:
            continue
        if v in chains:
            # Shift by the chain nodes and zero leaves between v and its bottom.
            bottom, seq = chains[v]
            u, s = int(offs[bottom]), min(len(seq) + sum(1 for _, z in seq if z), cap)
            F[off : off + s] = F[u]
            F[off + s : off + cap] = F[u : u + cap - s]
            continue
        F[off] = ps[v]
        if d == 0 or cap == 1:
            continue
        fc = int(t.first_child[v])
        sizes, counts = t.size[fc : fc + d], t.count[fc : fc + d]
        kids = [F[offs[c] : offs[c] + min(K - 1, caps[c])] for c in range(fc, fc + d)]
        a = max(1, d - (K if greedy else K - 1) + 1)
        seed = float(sizes[: a - 1].sum()) if a > 1 else 0.0
        best = None
        for j in [0] if greedy else [0, *range(max(3, d - K + 3), d + 1)]:
            G = _sweep_one_class(
                kids, sizes, counts, W, K, seed + float(sizes[j - 1]) if j else seed, a > 1 or j > 0, a, j
            )
            if best is None:
                best = G.copy()
                continue
            m = min(G.shape[0], best.shape[0])
            gt = G[:m] > best[:m]
            best[:m][gt] = G[:m][gt]
            win[off + 1 : off + 1 + m][gt] = j
        F[off + 1 : off + cap] = pw[v] + best[: cap - 1]
    return F, win, ~np.isnan(F)


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
            assert tb.value(v, 1) == pytest.approx(_h(float(gap7.size[v]), gap7.W), abs=1e-12)

    @pytest.mark.parametrize("mode", ["greedyy", None, "Exact", ""])
    def test_unknown_mode_rejected(self, p4, mode):
        with pytest.raises(ValueError, match="mode"):
            DPTables(p4, 2, mode=mode)

    @pytest.mark.parametrize("solve", [solve_exact, solve_greedy])
    def test_K_far_above_n_equals_K_n(self, gap7, solve):
        big, at_n = solve(gap7, 10**6), solve(gap7, gap7.n)
        assert big.F.view(np.int64).tolist() == at_n.F.view(np.int64).tolist()
        assert big.win.tolist() == at_n.win.tolist() and big.pair_cost == at_n.pair_cost
        for k in range(1, gap7.n + 1):
            assert big.rebuild(k) == at_n.rebuild(k)
            assert big.entropy_bits(k).hex() == at_n.entropy_bits(k).hex()

    def test_K_far_above_n_allocates_no_K_wide_array(self, gap7):
        # Reconstruction's record-mode steps were K wide: 12 MB at K=10**6.
        tracemalloc.start()
        try:
            for solve in (solve_exact, solve_greedy):
                tables = solve(gap7, 10**6)
                for k in range(1, tables.max_k + 1):
                    tables.reconstruct(k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

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


class TestStackedSweep:
    """The one stacked sweep gives the per-class reference F, win and pair_cost."""

    @staticmethod
    def check(tables) -> None:
        F, win, filled = reference_fill(tables)
        assert np.array_equal(tables.F[filled], F[filled])
        assert np.array_equal(tables.win, win)
        assert tables.pair_cost == reference_pair_cost(tables)

    def test_empty_and_nonempty_prefix_seeds(self):
        # Degree 12 against K: every internal node has d <= K-1 (empty
        # prefix seed) at K = 13 and 16, and d >= K (a seed of absorbed
        # children) at K = 4, 8 and 12.
        rng = np.random.default_rng(41)
        for K in (4, 8, 12, 13, 16):
            for weights in ("uniform", "integer"):
                t = canonicalize(
                    random_tree(157, shape="fixed-degree", degree=12, weights=weights, seed=rng)
                )
                self.check(solve_exact(t, K))

    def test_nodes_without_near_prefix_classes(self):
        # Degree < 3 everywhere: the prefix class is the only row.
        rng = np.random.default_rng(42)
        for n in (2, 3, 9, 60):
            for K in (2, 3, 5, 9):
                self.check(solve_exact(path_tree(rng.uniform(0, 4, n)), K))
                t = canonicalize(random_tree(n, shape="fixed-degree", degree=2, seed=rng))
                self.check(solve_exact(t, K))

    def test_tie_heavy_integer_weights(self):
        rng = np.random.default_rng(43)
        wins = 0
        for trial in range(60):
            n = int(rng.integers(2, 90))
            shape = ("uniform", "fixed-degree")[trial % 2]
            t = canonicalize(
                random_tree(
                    n, shape=shape, degree=int(rng.integers(3, 20)), weights="integer",
                    max_weight=2, seed=rng,
                )
            )
            tables = solve_exact(t, int(rng.integers(2, 14)))
            self.check(tables)
            wins += np.count_nonzero(tables.win)
        for leaves in ([1] * 7, [1, 1, 2, 2, 2, 3], [0, 0, 1, 1, 1]):
            for K in (3, 4, 6, 8):
                self.check(solve_exact(star_tree(1, leaves), K))
        assert wins > 0

    def test_greedy_mode(self):
        rng = np.random.default_rng(44)
        for trial in range(40):
            n = int(rng.integers(2, 120))
            shape = ("uniform", "fixed-degree")[trial % 2]
            weights = ("uniform", "integer")[(trial // 2) % 2]
            t = canonicalize(
                random_tree(n, shape=shape, degree=int(rng.integers(2, 20)), weights=weights, seed=rng)
            )
            self.check(solve_greedy(t, int(rng.integers(1, 14))))

    def test_zero_heavy_approx_reductions_with_chains(self):
        rng = np.random.default_rng(45)
        chains = 0
        for _ in range(60):
            n = int(rng.integers(2, 150))
            parents = np.concatenate(([-1], (rng.random(n - 1) * np.arange(1, n)).astype(np.int64)))
            weights = np.where(rng.random(n) < 0.9, 0.0, rng.integers(1, 4, n)).astype(float)
            weights[0] += 1.0
            t = canonicalize(from_arrays(parents, weights))
            tables = solve_approx(t, int(rng.integers(2, 14)), 0.5).tables
            self.check(tables)
            chains += len(tables.chains)
        assert chains > 20

    def test_long_zero_chain_with_zero_leaves(self):
        # One 3000-node chain, a third of its nodes with a zero leaf, ending in a positive leaf.
        t = make_tree(zero_chain_records(3000))
        for K in (2, 5, 16):
            for eps in (0.5, 0.1):
                ap = solve_approx(t, K, eps)
                ((top, bottom, seq),) = chains_of(ap.tables)
                assert len(seq) == 3000 and sum(1 for _, z in seq if z) == 1000
                assert ap.reduced.tree.ext(bottom) == "u"
                self.check(ap.tables)
                plain = DPTables(ap.reduced.tree, K)  # sweeps every chain node
                assert ap.tables.all_entropy_bits() == pytest.approx(plain.all_entropy_bits(), abs=1e-12)
                for tree in ap.trees:
                    validate_summary_tree(tree, t)

    @staticmethod
    def _record_groups(monkeypatch) -> list:
        """Capture the node groups that the fill sweeps, and check the table layout."""
        groups = []
        sweep = DPTables._sweep_group

        def spy(self, vs, js, record=False):
            groups.append(vs.copy())
            out = sweep(self, vs, js, record)
            assert out[0].shape[1:] == (len(js), len(vs))  # G[t-1, r, b]: nodes last
            return out

        monkeypatch.setattr(DPTables, "_sweep_group", spy)
        return groups

    @staticmethod
    def _padded_tree(m: int, rng) -> CanonicalTree:
        # m nodes of degree 3 and height 3 under one root: each holds a
        # path of 3 nodes and two stars of 0..14 leaves, so the child
        # tables of one group differ in length.
        parents, weights = [-1], [1.0]

        def add(parent):
            parents.append(parent)
            weights.append(float(rng.integers(0, 5)))
            return len(parents) - 1

        for _ in range(m):
            v = add(0)
            add(add(add(v)))
            for _ in range(2):
                star = add(v)
                for _ in range(int(rng.integers(0, 15))):
                    add(star)
        return canonicalize(from_arrays(parents, weights))

    def test_padded_groups_of_many_nodes(self, monkeypatch):
        rng = np.random.default_rng(46)
        t = self._padded_tree(60, rng)
        groups = self._record_groups(monkeypatch)
        for K in (4, 9, 16):
            groups.clear()
            tables = solve_exact(t, K)
            self.check(tables)
            padded = [
                g for g in groups
                if len(g) >= 30
                and len({min(K - 1, int(tables.caps[c])) for v in g.tolist() for c in t.children(v)}) > 2
            ]
            assert padded, "no large group with child tables of different lengths"

    def test_groups_split_across_chunks(self, monkeypatch):
        from summarytree import exact_solver

        rng = np.random.default_rng(47)
        trees = [self._padded_tree(40, rng)]
        trees += [canonicalize(random_tree(600, shape="uniform", seed=rng)) for _ in range(2)]
        whole = [(solve_exact(t, 8), solve_greedy(t, 8)) for t in trees]
        monkeypatch.setattr(exact_solver, "_SWEEP_BYTES", 3000)
        groups = self._record_groups(monkeypatch)
        for t, (ex, gr) in zip(trees, whole):
            height = np.zeros(t.n + 1, dtype=np.int64)
            for v in range(t.n, 1, -1):  # children carry larger labels
                height[t.parent[v]] = max(height[t.parent[v]], height[v] + 1)
            for solver, ref in ((solve_exact, ex), (solve_greedy, gr)):
                groups.clear()
                tables = solver(t, 8)
                self.check(tables)
                assert np.array_equal(tables.F.view(np.int64), ref.F.view(np.int64))
                assert np.array_equal(tables.win, ref.win)
                # A group is one (height, degree); some group was split.
                keys = [(int(height[g[0]]), int(t.degree[g[0]])) for g in groups]
                assert len(keys) > len(set(keys))

    @pytest.mark.parametrize("K", [4, 16, 64])
    def test_uniform_and_40_ary_trees(self, K):
        rng = np.random.default_rng(48)
        trees = [
            canonicalize(random_tree(1500, shape="uniform", seed=rng)),
            canonicalize(random_tree(1700, shape="fixed-degree", degree=40, seed=rng)),
            canonicalize(random_tree(900, shape="fixed-degree", degree=40, weights="integer",
                                     max_weight=2, seed=rng)),
        ]
        for t in trees:
            self.check(solve_exact(t, K))
            self.check(solve_greedy(t, K))

    def test_row_wise_seed_sum_matches_per_row_sum(self):
        # A group's seeds are one row-wise sum over a slice of gathered
        # child weights; each must have the bits of the 1-D sum of that
        # node's seed children.  The running group weights are one cumsum
        # per row; each must have the bits of one += per position.
        rng = np.random.default_rng(49)
        for length in (1, 2, 7, 8, 9, 16, 17, 127, 128, 129, 300, 1000, 2049, 8193, 100_003):
            size = rng.pareto(1.3, 6 * length + 3) * rng.uniform(0, 1e3)
            at = rng.integers(0, size.shape[0] - length - 2, 40)[:, None] + np.arange(length + 3)
            rows = size[at]
            seeds = rows[:, :length].sum(axis=1)
            for i in range(rows.shape[0]):
                assert seeds[i].view(np.int64) == size[at[i, :length]].sum().view(np.int64)
            run = rows[:, None, : min(length, 40)].copy()
            got = np.cumsum(run, axis=2)
            for i in range(rows.shape[0]):
                acc = float(run[i, 0, 0])
                for col in range(1, run.shape[2]):
                    acc += float(run[i, 0, col])
                    assert float(got[i, 0, col]).hex() == acc.hex()

    def test_fresh_terms_match_term(self):
        rng = np.random.default_rng(50)
        W = 1234.5678
        weights = np.concatenate([
            rng.uniform(0, W, 20_000),
            rng.pareto(1.3, 5_000),
            [0.0, -0.0, W, 5e-324, 1e-310, 2.2250738585072014e-308, W * (1 - 2**-52)],
        ])
        got = _fresh_terms(weights.reshape(-1, 1), W).ravel()
        want = np.array([_term(float(x), W) for x in weights])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert _fresh_terms(np.array([[W, 0.0]]), W).view(np.int64).tolist() == [[0, 0]]
        tiny = np.array([1e-300, 5e-324])  # against W = 1e10, p is subnormal or 0
        assert np.array_equal(_fresh_terms(tiny, 1e10), [_term(x, 1e10) for x in tiny.tolist()])


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
                    s = tb.reconstruct(k)
                    validate_summary_tree(s, t)
                    assert_group_classes(s, t)


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
                validate_summary_tree(s, t)
                assert_group_classes(s, t)

    def test_k_out_of_range(self, p4):
        tb = solve_exact(p4, 2)
        with pytest.raises(ValueError):
            tb.reconstruct(3)


class TestReplayCache:
    """Reconstructing every k sweeps each (node, class) once per table."""

    @staticmethod
    def _trees() -> list:
        """A uniform tree, a 40-ary tree and a tie-heavy integer-weight tree.

        Seeds where some node is rebuilt under two classes for different k.
        """
        return [
            canonicalize(random_tree(300, weights="uniform", seed=11)),
            canonicalize(random_tree(1641, shape="fixed-degree", degree=40, seed=4)),
            canonicalize(
                random_tree(200, shape="fixed-degree", degree=5, weights="integer", max_weight=3, seed=3)
            ),
        ]

    def _tables(self):
        """Exact, greedy and approx tables on each of ``_trees``."""
        for t in self._trees():
            yield solve_exact(t, 12)
            yield solve_greedy(t, 12)
            yield solve_approx(t, 12, 1.0).tables

    @staticmethod
    def _record_sweeps(monkeypatch) -> list:
        """Capture the (node, class) of every record-mode sweep."""
        swept = []
        sweep = DPTables._sweep_group

        def spy(self, vs, js, record=False):
            if record:
                swept.append((int(vs[0]), js[0]))
            return sweep(self, vs, js, record)

        monkeypatch.setattr(DPTables, "_sweep_group", spy)
        return swept

    def test_every_k_matches_a_table_built_for_it_alone(self):
        for tb in self._tables():
            for k in range(1, tb.max_k + 1):
                fresh = DPTables(tb.tree, tb.K, tb.mode, tb.chains)
                assert tb.rebuild(k) == fresh.rebuild(k)

    def test_each_node_class_swept_once(self, monkeypatch):
        swept = self._record_sweeps(monkeypatch)
        visits = []
        rebuild_node = DPTables._rebuild_node
        monkeypatch.setattr(
            DPTables, "_rebuild_node", lambda self, v, kk: visits.append(v) or rebuild_node(self, v, kk)
        )
        two_classes = 0
        for tb in self._tables():
            swept.clear()
            visits.clear()
            for k in range(1, tb.max_k + 1):
                tb.rebuild(k)
            assert len(swept) == len(set(swept))
            assert len(visits) > len(swept)  # later k read the replays
            two_classes += len(swept) - len({v for v, _ in swept})
        assert two_classes >= 3  # the cache tells a node's classes apart

    def test_table_check_runs_on_a_cache_hit(self, monkeypatch):
        tb = solve_exact(self._trees()[2], 12)
        root = tb.offs[1]
        by_class: dict = {}
        for k in range(2, tb.max_k + 1):
            by_class.setdefault(int(tb.win[root + k - 1]), []).append(k)
        k1, k2 = next(ks for ks in by_class.values() if len(ks) > 1)[:2]
        tb.reconstruct(k1)
        swept = self._record_sweeps(monkeypatch)
        tb.F[root + k2 - 1] += 1.0
        with pytest.raises(InvariantError, match="disagrees with table"):
            tb.reconstruct(k2)
        assert swept == []  # the root's class came from the replay of k1


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

    @given(extreme_tree_records())
    @settings(max_examples=80)
    def test_extreme_weights(self, recs):
        t = make_tree(recs)
        K = min(t.n, 6)
        exact, greedy = solve_exact(t, K), solve_greedy(t, K)
        ex, gr = exact.all_entropy_bits(), greedy.all_entropy_bits()
        for k in range(1, K + 1):
            e, g = ex[k - 1], gr[k - 1]
            assert g <= e + 1e-9
            assert e <= math.log2(k) + 1e-9 and g <= math.log2(k) + 1e-9
            if k > 1:
                assert e >= ex[k - 2] - 1e-9 and g >= gr[k - 2] - 1e-9
            for tables, value in ((exact, e), (greedy, g)):
                s = tables.reconstruct(k)
                assert s.entropy_bits == pytest.approx(value, abs=1e-9)
                validate_summary_tree(s, t)
            if t.n <= 8:
                r = brute_force_opt(t, k)
                assert e == pytest.approx(r.best, abs=1e-9)
                assert g == pytest.approx(r.prefix_max, abs=1e-9)
        try:
            ap = solve_approx(t, K, 0.5)
        except ValueError as exc:  # only a total too small to rescale
            assert "too small to rescale" in str(exc) and t.W < 1e-300
            return
        assert len(ap.trees) == K
        for s in ap.trees:
            validate_summary_tree(s, t)

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
        validate_summary_tree(s, t)
        assert_group_classes(s, t)

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
