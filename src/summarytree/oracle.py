"""Brute-force ground truth: enumerate every summary tree of a small tree.

The enumeration walks the recursive definition directly, with group
("other") subsets ranging over *arbitrary* child subsets, so it is
independent of the prefix/near-prefix restriction the fast solvers rely
on.  Comparing the unrestricted maximum against the class-restricted
maximum is the empirical check that the restriction loses nothing.

Single-child groups are equivalent to collapsing that child's subtree,
and both describe the same partition of the input nodes, so groups are
enumerated only at sizes >= 2; this makes every distinct summary tree
appear exactly once.  The test suite cross-checks the enumeration count
against an independent generating-polynomial counter.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Optional

from .entropy_core import _term
from .summary import SummaryNode, SummaryTree, attach_members
from .tree_model import CanonicalTree

__all__ = [
    "BruteForceResult",
    "enumerate_all",
    "brute_force_opt",
]

# Largest tree the oracle takes: the enumeration grows exponentially in n.
_CAP = 12

# light node record: (kind, parent_index_within_tree, anchor, group_child_roots)
_Rec = tuple[str, int, int, tuple[int, ...]]


@dataclass(frozen=True)
class BruteForceResult:
    """Maxima over the full enumeration and over restricted group shapes."""

    best: float
    witness: SummaryTree
    near_prefix_max: float
    prefix_max: float


def _check_cap(t: CanonicalTree) -> None:
    if t.n > _CAP:
        raise ValueError(f"tree has {t.n} nodes, above the enumeration cap {_CAP}")


class _Enumerator:
    def __init__(self, t: CanonicalTree):
        self.t = t
        # memo[(v, k)] -> list of (records, prefix_ok, near_prefix_ok)
        self.memo: dict[tuple[int, int], list] = {}

    def trees(self, v: int, k: int) -> list:
        key = (v, k)
        got = self.memo.get(key)
        if got is None:
            got = self._build(v, k)
            self.memo[key] = got
        return got

    def _build(self, v: int, k: int) -> list:
        t = self.t
        nv = int(t.count[v])
        if k < 1 or k > nv:
            return []
        if nv == 1:
            return [((("singleton", -1, v, ()),), True, True)]
        if k == 1:
            return [((("subtree", -1, v, ()),), True, True)]
        kids = list(t.children(v))
        out = []
        for other in self._other_subsets(kids):
            rest = [c for c in kids if c not in other]
            budget = k - 1 - (1 if other else 0)
            if budget < len(rest):
                continue
            if budget > sum(int(t.count[c]) for c in rest):
                continue
            if not rest:
                if budget:
                    continue
                cls_p, cls_np = self._classify(v, other)
                out.append(
                    ((("singleton", -1, v, ()), ("group", 0, v, other)), cls_p, cls_np)
                )
                continue
            cls_p0, cls_np0 = self._classify(v, other)
            head: list[_Rec] = [("singleton", -1, v, ())]
            if other:
                head.append(("group", 0, v, other))
            for combo in self._assignments(rest, budget):
                recs = list(head)
                ok_p, ok_np = cls_p0, cls_np0
                for sub, sub_p, sub_np in combo:
                    off = len(recs)
                    for kind, par, anchor, roots in sub:
                        recs.append(
                            (kind, 0 if par < 0 else par + off, anchor, roots)
                        )
                    ok_p = ok_p and sub_p
                    ok_np = ok_np and sub_np
                out.append((tuple(recs), ok_p, ok_np))
        return out

    def _other_subsets(self, kids: list) -> Iterator[tuple[int, ...]]:
        yield ()
        for m in range(2, len(kids) + 1):
            yield from combinations(kids, m)

    def _classify(self, v: int, other: tuple[int, ...]) -> tuple[bool, bool]:
        """(is prefix, is prefix-or-near-prefix) of v's sorted children."""
        if not other:
            return True, True
        fc = int(self.t.first_child[v])
        pos = [c - fc + 1 for c in other]
        m = len(pos)
        is_prefix = pos == list(range(1, m + 1))
        is_near = pos[:-1] == list(range(1, m)) and pos[-1] >= m + 1
        return is_prefix, is_prefix or is_near

    def _assignments(self, rest: list, budget: int) -> Iterator[tuple]:
        """All per-child tree choices with sizes summing to ``budget``."""
        t = self.t
        if len(rest) == 1:
            for sub in self.trees(rest[0], budget):
                yield (sub,)
            return
        c = rest[0]
        tail = rest[1:]
        tail_min = len(tail)
        tail_max = sum(int(t.count[x]) for x in tail)
        lo = max(1, budget - tail_max)
        hi = min(int(t.count[c]), budget - tail_min)
        for kc in range(lo, hi + 1):
            subs = self.trees(c, kc)
            if not subs:
                continue
            for rest_combo in self._assignments(tail, budget - kc):
                for sub in subs:
                    yield (sub,) + rest_combo


def _node_weight(t: CanonicalTree, rec: _Rec) -> float:
    kind, _, anchor, roots = rec
    if kind == "singleton":
        return float(t.weight[anchor])
    if kind == "subtree":
        return float(t.size[anchor])
    return float(sum(t.size[c] for c in roots))


def _to_summary_tree(t: CanonicalTree, recs: tuple[_Rec, ...]) -> SummaryTree:
    weights = [_node_weight(t, r) for r in recs]
    W = t.W
    ent = 0.0
    for w in weights:
        ent += _term(w, W)
    nodes = [
        SummaryNode(kind, anchor, par, w, (), tuple(sorted(roots)))
        for (kind, par, anchor, roots), w in zip(recs, weights)
    ]
    return attach_members(SummaryTree(len(recs), ent, W, nodes), t)


def enumerate_all(t: CanonicalTree, k: int) -> Iterator[SummaryTree]:
    """Yield every structurally valid k-node summary tree exactly once.

    Raises:
        ValueError: tree larger than the enumeration cap of 12 nodes.
    """
    _check_cap(t)
    enum = _Enumerator(t)
    for recs, _, _ in enum.trees(1, k):
        yield _to_summary_tree(t, recs)


def brute_force_opt(t: CanonicalTree, k: int) -> BruteForceResult:
    """Maximum entropy over all k-node summary trees, with restricted maxima.

    Returns the unrestricted maximum and witness, plus the maxima when
    every group is required to be a prefix / a prefix-or-near-prefix of
    its parent's size-sorted children.  The witness is the first
    maximizer in the deterministic enumeration order.
    """
    _check_cap(t)
    enum = _Enumerator(t)
    W = t.W
    best = -1.0
    best_recs: Optional[tuple[_Rec, ...]] = None
    best_np = -1.0
    best_p = -1.0
    for recs, ok_p, ok_np in enum.trees(1, k):
        ent = 0.0
        for r in recs:
            ent += _term(_node_weight(t, r), W)
        if ent > best:
            best = ent
            best_recs = recs
        if ok_np and ent > best_np:
            best_np = ent
        if ok_p and ent > best_p:
            best_p = ent
    if best_recs is None:
        raise ValueError(f"no {k}-node summary trees exist (n = {t.n})")
    return BruteForceResult(best, _to_summary_tree(t, best_recs), best_np, best_p)
