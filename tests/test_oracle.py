from itertools import combinations

import numpy as np
import pytest

from summarytree import (
    CanonicalTree,
    brute_force_opt,
    canonicalize,
    enumerate_all,
    random_tree,
    validate_summary_tree,
)
from summarytree.oracle import _check_cap
from tests.conftest import make_tree, path_tree, star_tree

H_1_3 = 0.8112781244591328


def count_summary_trees(t: CanonicalTree) -> list[int]:
    """Independent count of k-node summary trees for k = 1..n.

    Reference code for the tests.  Computed with generating polynomials
    (one coefficient vector per subtree, combined by convolution) rather
    than by enumeration, so it cross-checks :func:`enumerate_all` for
    both duplicates and omissions.  It takes trees up to the oracle's cap.
    """
    _check_cap(t)
    memo: dict[int, np.ndarray] = {}

    def poly(v: int) -> np.ndarray:
        got = memo.get(v)
        if got is not None:
            return got
        nv = int(t.count[v])
        out = np.zeros(nv + 1, dtype=np.int64)
        out[1] = 1
        if nv > 1:
            kids = list(t.children(v))
            kid_polys = {c: poly(c) for c in kids}
            for m in [0] + list(range(2, len(kids) + 1)):
                for other in combinations(kids, m):
                    other_set = set(other)
                    acc = np.ones(1, dtype=np.int64)
                    for c in kids:
                        if c not in other_set:
                            acc = np.convolve(acc, kid_polys[c][1:])
                    shift = 1 + (1 if m else 0) + (len(kids) - m)
                    hi = min(nv + 1, shift + acc.shape[0])
                    if shift < hi:
                        out[shift:hi] += acc[: hi - shift]
        memo[v] = out
        return out

    root = poly(1)
    return [int(root[k]) for k in range(1, t.n + 1)]


class TestEnumeration:
    def test_single_node(self):
        t = make_tree([("r", None, 2)])
        trees = list(enumerate_all(t, 1))
        assert len(trees) == 1
        assert trees[0].nodes[0].members == ("r",)

    def test_two_leaf_star_counts(self):
        t = star_tree(1, [1, 1])
        counts = count_summary_trees(t)
        for k in range(1, 4):
            assert sum(1 for _ in enumerate_all(t, k)) == counts[k - 1]
        # k=2 admits exactly the {root} + group{a, b} shape
        assert counts == [1, 1, 1]

    def test_wider_star_counts(self):
        t = star_tree(1, [1, 2, 3, 4])
        counts = count_summary_trees(t)
        # groups have size >= 2 or are absent: k=2 -> group of all 4,
        # k=3 -> choose 3 of 4, k=4 -> choose 2 of 4, k=5 -> no group
        assert counts == [1, 1, 4, 6, 1]
        for k in range(1, 6):
            assert sum(1 for _ in enumerate_all(t, k)) == counts[k - 1]

    def test_paths_have_one_tree_per_k(self):
        t = path_tree([1, 2, 3, 4, 5])
        assert count_summary_trees(t) == [1] * 5

    def test_no_duplicates_and_all_valid(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            n = int(rng.integers(1, 9))
            t = canonicalize(random_tree(n, weights="integer", max_weight=4, seed=rng))
            counts = count_summary_trees(t)
            for k in range(1, n + 1):
                seen = set()
                m = 0
                for s in enumerate_all(t, k):
                    validate_summary_tree(s, t)
                    key = tuple(sorted(nd.members for nd in s.nodes))
                    assert key not in seen
                    seen.add(key)
                    m += 1
                assert m == counts[k - 1]

    def test_cap_enforced(self):
        t = canonicalize(random_tree(13, seed=0))
        with pytest.raises(ValueError, match="cap"):
            list(enumerate_all(t, 2))
        with pytest.raises(ValueError, match="cap"):
            brute_force_opt(t, 2)
        with pytest.raises(ValueError, match="cap"):
            count_summary_trees(t)


class TestBruteForceOpt:
    def test_p4_k2(self, p4):
        r = brute_force_opt(p4, 2)
        assert r.best == pytest.approx(H_1_3, rel=1e-12)
        assert r.witness.k == 2

    def test_k1_zero(self, gap7):
        assert brute_force_opt(gap7, 1).best == 0.0

    def test_witness_is_deterministic_and_valid(self, gap7):
        r1 = brute_force_opt(gap7, 4)
        r2 = brute_force_opt(gap7, 4)
        assert [nd.members for nd in r1.witness.nodes] == [
            nd.members for nd in r2.witness.nodes
        ]
        validate_summary_tree(r1.witness, gap7)

    def test_restricted_never_exceeds_unrestricted(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            n = int(rng.integers(1, 9))
            t = canonicalize(random_tree(n, weights="integer", max_weight=8, seed=rng))
            for k in range(1, n + 1):
                r = brute_force_opt(t, k)
                assert r.prefix_max <= r.near_prefix_max + 1e-12
                assert r.near_prefix_max <= r.best + 1e-12

    def test_unrestricted_equals_near_prefix_restricted(self):
        """The structural claim the fast solver rests on, on a small batch."""
        rng = np.random.default_rng(13)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            t = canonicalize(random_tree(n, weights="integer", max_weight=8, seed=rng))
            for k in range(1, n + 1):
                r = brute_force_opt(t, k)
                assert r.best == pytest.approx(r.near_prefix_max, abs=1e-9)
