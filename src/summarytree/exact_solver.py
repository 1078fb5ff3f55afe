"""Exact maximum-entropy k-node summary trees for every k <= K.

The solver runs one bottom-up dynamic program over the canonical tree.
For each node v it computes F(v, k), the best pseudo-entropy of a k-node
summary tree of v's subtree, for 1 <= k <= min(K, n_v).  A k-node tree
is the singleton {v} on top of a (k-1)-node summary forest over v's
child subtrees, so the work at v is building optimal forest tables.

Although the group ("other") node of a summary tree may in principle
absorb an arbitrary nonempty subset of v's children, restricting
candidates to prefixes and near-prefixes of the size-sorted child order
loses no entropy; the brute-force oracle cross-checks that claim on
small instances.  The solver therefore evaluates one forest table per
candidate class:

* the prefix class, whose group absorbs some prefix of the children
  (possibly empty, covering trees with no group at all), and
* one near-prefix class per feasible j, whose group absorbs child j
  plus some prefix ending below j.

Each class is swept incrementally: extending a forest table over the
first l subtrees to cover subtree l+1 is a max-plus combination of two
small tables, plus a fresh "absorb everything so far" entry at forest
size 1.  Children v_1 .. v_{d_v - K + 1} can never be split off within a
K-node budget, so they are absorbed into the sweep's seed unprocessed;
this, together with the table caps at K-1, is what keeps the total
sweep cost within the 2Kn pair-cost budget that ``DPTables.pair_cost``
tracks.

Ties are broken deterministically: prefix class first, then near-prefix
classes by increasing j, then the smallest left-table split inside a
max-plus combination.  The fill records the winning class of every
table entry, so reconstruction replays only that one class, in record
mode, to recover the split.

One object, :class:`DPTables`, fills and reconstructs the tables for all
three solvers: exact, greedy (``mode="greedy"``) and approx, which builds
it on its reduced tree with the recorded zero-weight ``chains``.
``rebuild(k)`` yields the :class:`SummaryNode` list of an optimal tree,
weighted by :func:`summary.node_weight`; ``reconstruct(k)`` adds the
entropy and the members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .entropy_core import _terms
from .summary import InvariantError, SummaryNode, SummaryTree, attach_members, node_weight
from .tree_model import CanonicalTree

__all__ = ["DPTables", "solve_exact"]

NEG_INF = float("-inf")


@dataclass
class _Chain:
    """A compressed descending chain of zero-weight nodes (reduced trees only).

    ``seq`` lists the chain nodes top-down as (node, zero_leaf_or_0);
    ``bottom`` is the positively-sized child under the last chain node.
    The table at the top is the bottom's table shifted by l + lprime.
    """

    top: int
    bottom: int
    l: int
    lprime: int
    seq: tuple[tuple[int, int], ...]


def _skew_maxplus(G: np.ndarray, B: np.ndarray, want_arg: bool):
    """Max-plus combination out[t-2] = max_h G[h-1] + B[t-h-1], t = 2..len(G)+len(B).

    Returns (out, arg) where arg[t-2] = h-1 for the smallest maximizing h
    (``arg`` is None unless ``want_arg``).
    """
    lg = G.shape[0]
    lb = B.shape[0]
    if lb == 1:
        out = G + B[0]
        return out, (np.arange(lg, dtype=np.int64) if want_arg else None)
    if lg == 1:
        out = G[0] + B
        return out, (np.zeros(lb, dtype=np.int64) if want_arg else None)
    M = np.add.outer(G, B)
    P = np.full((lg, lg + lb), NEG_INF)
    P[:, :lb] = M
    S = P.ravel()[:-lg].reshape(lg, lg + lb - 1)
    out = S.max(axis=0)
    arg = S.argmax(axis=0) if want_arg else None
    return out, arg


def _sweep_tables(
    tables: list[np.ndarray],
    sizes: np.ndarray,
    counts: np.ndarray,
    pent,
    K: int,
    seed_weight: float,
    seed_nonempty: bool,
    start_pos: int,
    skip: int,
    record: bool,
):
    """Forest-table sweep shared by all candidate classes.

    ``tables[i]`` holds the best pseudo-entropies of summary trees of the
    (i+1)-th swept subtree, truncated to forest-feasible sizes.  Children
    before ``start_pos`` (and child ``skip``, when nonzero) are already in
    the seed, whose total weight is ``seed_weight``.

    Returns (G, steps, base_pos): G[t-1] is the best t-node forest;
    ``steps`` (recording mode only) holds (position, argmax rows) per
    combining step; ``base_pos`` is the position whose table seeded the
    sweep when the seed was empty, else 0.
    """
    d = len(tables)
    steps = [] if record else None
    if seed_nonempty:
        G = np.array([pent(seed_weight)])
        cum = seed_weight
        avail = 1
        pos_iter = range(start_pos, d + 1)
        base_pos = 0
    else:
        G = tables[0]
        cum = float(sizes[0])
        avail = int(counts[0])
        pos_iter = range(2, d + 1)
        base_pos = 1
    for pos in pos_iter:
        if pos == skip:
            continue
        B = tables[pos - 1]
        out, arg = _skew_maxplus(G, B, record)
        c = int(counts[pos - 1])
        new_avail = min(K - 1, avail + c)
        cum += float(sizes[pos - 1])
        newG = np.empty(new_avail)
        newG[0] = pent(cum)
        if new_avail > 1:
            newG[1:] = out[: new_avail - 1]
        if record:
            steps.append((pos, arg))
        G = newG
        avail += c
    return G, steps, base_pos


class DPTables:
    """Bottom-up DP tables F(v, k) plus reconstruction, shared by all solvers.

    F(v, k) is the maximum pseudo-entropy of any k-node summary tree of
    v's subtree, defined for 1 <= k <= min(K, n_v).  At the root the
    pseudo-entropy equals the entropy, so ``entropy_bits(k)`` reads the
    table directly.  ``mode="greedy"`` drops the near-prefix classes and
    absorbs one more child into every seed.  ``chains`` (reduced trees
    only) maps each chain top to its :class:`_Chain`; the top's table is
    the bottom's shifted, and the interior chain nodes get no table.

    ``pair_cost`` is the sum of min(prefix, K) * min(child, K) over
    prefix-class combining steps, where prefix is the descendant count
    already covered; it is at most 2*K*n.
    """

    def __init__(
        self,
        tree: CanonicalTree,
        K: int,
        mode: str = "exact",
        chains: Optional[dict] = None,
    ):
        if K < 1:
            raise ValueError("K must be >= 1")
        self.tree = tree
        self.K = K
        self.mode = mode
        self.chains = chains or {}
        # Children a sweep combines at most: the last K-1, or K in greedy mode.
        self._span = K if mode == "greedy" else K - 1
        W = tree.W
        log2 = math.log2

        def pent(x: float) -> float:
            if x <= 0.0:
                return 0.0
            p = x / W
            return -p * log2(p)

        self._pent = pent
        n = tree.n
        caps = np.minimum(K, tree.count).astype(np.int64)
        caps[0] = 0
        offs = np.zeros(n + 1, dtype=np.int64)
        offs[1:] = np.cumsum(caps[1:]) - caps[1:]
        self.caps = caps
        self.offs = offs
        self.max_k = int(caps[1])
        self.F = np.empty(int(caps.sum()), dtype=np.float64)
        # Candidate class that attains each F entry: 0 for the prefix
        # class, j for the near-prefix class whose group holds child j.
        self.win = np.zeros(self.F.shape[0], dtype=np.int32)
        self.pw = np.zeros(n + 1)
        self.ps = np.zeros(n + 1)
        self.pw[1:] = _terms(tree.weight[1:], W)
        self.ps[1:] = _terms(tree.size[1:], W)
        self._solve()

    # -- solving ---------------------------------------------------------- #

    def _solve(self) -> None:
        t = self.tree
        deg = t.degree
        leaves = np.flatnonzero(deg[1:] == 0) + 1
        self.F[self.offs[leaves]] = self.ps[leaves]
        internal = (np.flatnonzero(deg[1:] > 0) + 1)[::-1]
        chains = self.chains
        skip = {node for ch in chains.values() for node, _ in ch.seq[1:]}
        swept = deg > 0
        swept[list(chains)] = False
        swept[list(skip)] = False
        self.pair_cost = self._pair_cost(swept) if self.K > 1 else 0
        for v in internal:
            v = int(v)
            if chains:
                if v in skip:
                    continue
                ch = chains.get(v)
                if ch is not None:
                    self._fill_chain_top(ch)
                    continue
            self._fill_node(v)

    def _pair_cost(self, swept: np.ndarray) -> int:
        """Sum of min(prefix, K) * min(count, K) over prefix-class combining steps.

        ``swept`` marks the nodes whose classes are swept.  A step
        combines a child at or after the sweep start with the prefix of
        its earlier siblings, whose descendant count is an exclusive
        prefix sum over the consecutive child labels; a first child's
        empty prefix costs nothing.
        """
        t = self.tree
        K = self.K
        child = np.arange(2, t.n + 1)
        p = t.parent[child]
        before = np.cumsum(t.count) - t.count  # count summed over labels < c
        prefix = before[child] - before[t.first_child[p]]
        pos = child - t.first_child[p] + 1
        charged = swept[p] & (pos >= t.degree[p] - self._span + 1)
        cost = np.minimum(prefix, K) * np.minimum(t.count[child], K)
        return int(cost[charged].sum())

    def _fill_chain_top(self, ch: _Chain) -> None:
        off_v = self.offs[ch.top]
        cap_v = int(self.caps[ch.top])
        off_u = self.offs[ch.bottom]
        shift = ch.l + ch.lprime
        s = min(shift, cap_v)
        self.F[off_v : off_v + s] = self.F[off_u]
        if cap_v > s:
            self.F[off_v + s : off_v + cap_v] = self.F[off_u : off_u + cap_v - s]

    def _child_views(self, fc: int, d: int):
        K1 = self.K - 1
        offs = self.offs
        caps = self.caps
        F = self.F
        return [
            F[offs[c] : offs[c] + min(K1, caps[c])] for c in range(fc, fc + d)
        ]

    def _sweep_start(self, d: int) -> int:
        """First child position a sweep combines; earlier children seed it."""
        return max(1, d - self._span + 1)

    def _near_prefix_js(self, d: int) -> range:
        if self.mode == "greedy":
            return range(0)
        return range(max(3, d - self.K + 3), d + 1)

    def _classes(self, v: int, only: Optional[int] = None):
        """Sweep the candidate classes at internal node v, prefix class first.

        Yields (j, G, steps, base_pos) per class, with j = 0 for the prefix
        class and j > 0 for the near-prefix class whose group holds child
        j; G, steps and base_pos are as returned by ``_sweep_tables``.
        Without ``only``, sweeps every class in fill mode; with it, sweeps
        just class ``only`` in record mode.
        """
        t = self.tree
        d = int(t.degree[v])
        fc = int(t.first_child[v])
        sizes = t.size[fc : fc + d]
        counts = t.count[fc : fc + d]
        a = self._sweep_start(d)
        tables = self._child_views(fc, d)
        seed = float(sizes[: a - 1].sum()) if a > 1 else 0.0
        record = only is not None
        js = (only,) if record else (0, *self._near_prefix_js(d))
        for j in js:
            G, steps, base_pos = _sweep_tables(
                tables,
                sizes,
                counts,
                self._pent,
                self.K,
                seed + float(sizes[j - 1]) if j else seed,
                a > 1 or j > 0,
                a,
                j,
                record,
            )
            yield j, G, steps, base_pos

    def _fill_node(self, v: int) -> None:
        off_v = self.offs[v]
        cap_v = int(self.caps[v])
        self.F[off_v] = self.ps[v]
        if cap_v == 1:
            return
        classes = self._classes(v)
        _, best, _, _ = next(classes)
        for j, G, _, _ in classes:
            m = min(G.shape[0], best.shape[0])
            gt = G[:m] > best[:m]
            if np.count_nonzero(gt):  # rare: near-prefix classes seldom win
                np.copyto(best[:m], G[:m], where=gt)
                self.win[off_v + 1 : off_v + 1 + m][gt] = j
        self.F[off_v + 1 : off_v + cap_v] = self.pw[v] + best[: cap_v - 1]

    # -- reconstruction --------------------------------------------------- #

    def value(self, v: int, k: int) -> float:
        """F(v, k): best pseudo-entropy of a k-node summary tree of subtree v."""
        cap = int(self.caps[v])
        if not 1 <= k <= cap:
            raise ValueError(f"k={k} outside 1..{cap} for node {v}")
        return float(self.F[self.offs[v] + k - 1])

    def entropy_bits(self, k: int) -> float:
        """Maximum entropy (bits) over k-node summary trees of the whole tree."""
        return self.value(1, k)

    def all_entropy_bits(self) -> list[float]:
        return [self.entropy_bits(k) for k in range(1, self.max_k + 1)]

    def reconstruct(self, k: int) -> SummaryTree:
        """Materialize an optimal k-node summary tree."""
        t = self.tree
        nodes = self.rebuild(k)
        ent = float(_terms(np.array([nd.weight for nd in nodes]), t.W).sum())
        return attach_members(SummaryTree(k, ent, t.W, nodes), t)

    def rebuild(self, k: int) -> list[SummaryNode]:
        """The nodes of an optimal k-node summary tree, without members."""
        if not 1 <= k <= self.max_k:
            raise ValueError(f"k={k} outside 1..{self.max_k}")
        t = self.tree
        nodes: list[SummaryNode] = []
        stack: list[tuple[int, int, int]] = [(1, k, -1)]
        while stack:
            v, kk, par = stack.pop()
            if kk > 1 and v in self.chains:
                self._walk_chain(self.chains[v], kk, par, nodes, stack)
                continue
            if kk == 1 or int(t.count[v]) == 1:
                nodes.append(self._collapsed(v, par))
                continue
            other, splits = self._rebuild_node(v, kk)
            me = len(nodes)
            nodes.append(self._node("singleton", v, par))
            if other:
                nodes.append(self._node("group", v, me, tuple(sorted(other))))
            for c, kc in sorted(splits, reverse=True):
                stack.append((c, kc, me))
        return nodes

    def _node(self, kind: str, v: int, par: int, roots: tuple[int, ...] = ()) -> SummaryNode:
        nd = SummaryNode(kind, v, par, 0.0, (), roots)
        nd.weight = float(node_weight(nd, self.tree.weight, self.tree.size))
        return nd

    def _collapsed(self, v: int, par: int) -> SummaryNode:
        kind = "subtree" if int(self.tree.count[v]) > 1 else "singleton"
        return self._node(kind, v, par)

    def _walk_chain(self, ch: _Chain, kk: int, par: int, nodes, stack) -> None:
        """Re-materialize a zero-weight chain: peel singletons down to the budget."""
        b = kk
        cur = par
        seq = ch.seq
        for idx, (vi, zi) in enumerate(seq):
            if b == 1:
                nodes.append(self._collapsed(vi, cur))
                return
            me = len(nodes)
            nodes.append(self._node("singleton", vi, cur))
            cur = me
            b -= 1
            if zi:
                if b == 1:
                    nxt = seq[idx + 1][0] if idx + 1 < len(seq) else ch.bottom
                    nodes.append(self._node("group", vi, cur, tuple(sorted((zi, nxt)))))
                    return
                nodes.append(self._collapsed(zi, cur))
                b -= 1
        stack.append((ch.bottom, b, cur))

    def _rebuild_node(self, v: int, kk: int):
        t = self.tree
        d = int(t.degree[v])
        fc = int(t.first_child[v])
        kf = kk - 1
        j = int(self.win[self.offs[v] + kf])
        _, G, steps, base_pos = next(self._classes(v, only=j))
        got = self.pw[v] + (G[kf - 1] if kf <= G.shape[0] else NEG_INF)
        want = self.value(v, kk)
        if abs(got - want) > 1e-9 * max(1.0, abs(want)):
            raise InvariantError(
                f"reconstruction value {got} disagrees with table {want} at node {v}, k={kk}"
            )

        tpos = kf
        splits_pos: list[tuple[int, int]] = []
        i = len(steps) - 1
        while i >= 0 and tpos >= 2:
            pos, arg = steps[i]
            h = int(arg[tpos - 2]) + 1
            splits_pos.append((pos, tpos - h))
            tpos = h
            i -= 1
        if tpos >= 2:
            if not base_pos:
                raise InvariantError("sweep backtrack escaped the seed")
            splits_pos.append((base_pos, tpos))
        # Every child not split off is absorbed into the group.
        split = {p for p, _ in splits_pos}
        other_pos = [p for p in range(1, d + 1) if p not in split]
        if len(other_pos) == 1:
            splits_pos.append((other_pos[0], 1))
            other_pos = []
        other = [fc + p - 1 for p in other_pos]
        splits = [(fc + p - 1, kc) for p, kc in splits_pos]
        return other, splits


def solve_exact(t: CanonicalTree, K: int) -> DPTables:
    """Solve for maximum-entropy summary trees of every order k <= K.

    Runs in O(K^2 n + n log n) including canonicalization; the returned
    tables cover 1 <= k <= min(K, n) and support reconstruction.
    """
    return DPTables(t, K)
