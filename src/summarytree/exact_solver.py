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

All classes of a node are swept together, as the rows of one table
padded with -inf: extending the forest tables over the first l subtrees
to cover subtree l+1 is one max-plus combination of every row with that
subtree's table, plus a fresh "absorb everything so far" entry at forest
size 1 in each row.  A near-prefix row idles at child j, which its seed
already holds.  The rows, the seeded children and the idle positions
depend only on the degree d, K and the mode, so the fill sweeps every
node of one height and one degree as one group: a (B, R, width) table
over B nodes and R classes, with the child tables padded with -inf to
the longest.  Groups go in increasing height, so every child table is
filled before it is read.  Each entry of each row takes the same float
operations, in the same order, as a sweep of its node and class alone,
so grouping and stacking change no value and no tie-break.
Children v_1 .. v_{d_v - K + 1} can never be split off within a K-node
budget, so they are absorbed into every seed unprocessed; this, together
with the table caps at K-1, is what keeps the prefix-class sweep cost
within the 2Kn pair-cost budget that ``DPTables.pair_cost`` tracks.

Ties are broken deterministically: prefix class first, then near-prefix
classes by increasing j, then the smallest left-table split inside a
max-plus combination.  The fill records the winning class of every
table entry, so reconstruction replays only that one class, as the same
group sweep over one node in record mode, to recover the split; replays
are kept, so reconstructing all k <= K sweeps each (node, class) once.

One object, :class:`DPTables`, fills and reconstructs the tables for all
three solvers: exact (:func:`solve_exact`), greedy (:func:`solve_greedy`)
and approx, which builds it on its reduced tree with the recorded
zero-weight ``chains``.  ``rebuild(k)`` yields the :class:`SummaryNode`
list of an optimal tree, built by :func:`summary.summary_node`;
``reconstruct(k)`` adds the entropy and the members.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .entropy_core import _fresh_terms, _terms
from .summary import InvariantError, SummaryNode, SummaryTree, attach_members, summary_node
from .tree_model import CanonicalTree

__all__ = ["DPTables", "solve_exact", "solve_greedy"]

NEG_INF = float("-inf")
# Bytes of temporaries a group sweep may hold at once, as _fill_group
# estimates them; larger groups are swept in chunks.
_SWEEP_BYTES = 1 << 20


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


class DPTables:
    """Bottom-up DP tables F(v, k) plus reconstruction, shared by all solvers.

    F(v, k) is the maximum pseudo-entropy of any k-node summary tree of
    v's subtree, defined for 1 <= k <= min(K, n_v).  At the root the
    pseudo-entropy equals the entropy, so ``entropy_bits(k)`` reads the
    table directly.  ``mode="greedy"`` drops the near-prefix classes and
    absorbs one more child into every seed.  ``chains`` (reduced trees
    only) maps each chain top to its :class:`_Chain`; the top's table is
    the bottom's shifted, and the interior chain nodes get no table, so
    ``value`` raises on them.

    ``pair_cost`` is the sum of min(prefix, K) * min(child, K) over
    prefix-class combining steps, where prefix is the descendant count
    already covered; it is at most 2*K*n.

    ``_replays`` keeps the final row, steps and ``base_pos`` of each
    (node, class) that reconstruction sweeps, for every later k: at most
    one entry per distinct pair any k visits, a number bounded by K, not n.
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
        if mode not in ("exact", "greedy"):
            raise ValueError(f"mode must be 'exact' or 'greedy', got {mode!r}")
        self.tree = tree
        self.K = K
        self.mode = mode
        self.chains = chains or {}
        self._replays: dict = {}
        # Children a sweep combines at most: the last K-1, or K in greedy mode.
        self._span = K if mode == "greedy" else K - 1
        self._W = tree.W
        n = tree.n
        caps = np.minimum(K, tree.count).astype(np.int64)
        caps[0] = 0
        caps[[node for ch in self.chains.values() for node, _ in ch.seq[1:]]] = 0
        offs = np.zeros(n + 1, dtype=np.int64)
        offs[1:] = np.cumsum(caps[1:]) - caps[1:]
        self.caps = caps
        self.offs = offs
        # A child's table as its parent's sweep reads it: sizes up to K-1.
        self._view_len = np.minimum(K - 1, caps)
        self.max_k = int(caps[1])
        self.F = np.empty(int(caps.sum()), dtype=np.float64)
        # Candidate class that attains each F entry: 0 for the prefix
        # class, j for the near-prefix class whose group holds child j.
        self.win = np.zeros(self.F.shape[0], dtype=np.int32)
        self.pw = np.zeros(n + 1)
        self.ps = np.zeros(n + 1)
        self.pw[1:] = _terms(tree.weight[1:], tree.W)
        self.ps[1:] = _terms(tree.size[1:], tree.W)
        self._solve()

    # -- solving ---------------------------------------------------------- #

    def _solve(self) -> None:
        t = self.tree
        deg = t.degree
        caps = self.caps
        has = caps > 0
        self.F[self.offs[has]] = self.ps[has]  # chain tops are overwritten below
        # Interior chain nodes alone have no table, and are not filled.
        filled = (deg > 0) & has
        chains = self.chains
        swept = filled.copy()
        swept[list(chains)] = False
        self.pair_cost = self._pair_cost(swept) if self.K > 1 else 0

        # Heights, one depth level at a time from the bottom: labels are
        # breadth-first, so each level is a consecutive label range.
        height = np.zeros(t.n + 1, dtype=np.int64)
        starts = (np.searchsorted(t.depth[1:], np.arange(int(t.depth[t.n]) + 2)) + 1).tolist()
        for lo, hi in zip(starts[-2:0:-1], starts[:1:-1]):
            np.maximum.at(height, t.parent[lo:hi], height[lo:hi] + 1)

        # Groups of one height and one degree, lowest height first, so that
        # every table a group reads is filled.  Chain tops, which read their
        # chain's bottom instead of their children, take degree key 0.
        # Within a group nodes go by count, so that a chunk pads little.
        nodes = np.flatnonzero(filled)
        key = np.where(swept[nodes], deg[nodes], 0)
        order = np.lexsort((t.count[nodes], key, height[nodes]))
        nodes, key, hgt = nodes[order], key[order], height[nodes][order]
        new = np.ones(nodes.shape[0], dtype=bool)
        new[1:] = (np.diff(key) != 0) | (np.diff(hgt) != 0)
        firsts = np.flatnonzero(new).tolist()
        for lo, hi in zip(firsts, firsts[1:] + [nodes.shape[0]]):
            d = int(key[lo])
            if d == 0:
                for v in nodes[lo:hi].tolist():
                    self._fill_chain_top(chains[v])
            elif self.K > 1:
                self._fill_group(nodes[lo:hi], d)

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

    def _sweep_start(self, d: int) -> int:
        """First child position a sweep combines; earlier children seed it."""
        return max(1, d - self._span + 1)

    def _fill_classes(self, d: int) -> tuple[int, ...]:
        """Classes the fill sweeps: the prefix class, then near-prefix j ascending."""
        if self.mode == "greedy":
            return (0,)
        return (0, *range(max(3, d - self.K + 3), d + 1))

    def _fill_group(self, group: np.ndarray, d: int) -> None:
        """Fill the tables of nodes of degree d whose children are all filled."""
        js = self._fill_classes(d)
        R = len(js)
        K1 = self.K - 1
        a = self._sweep_start(d)
        # Bytes of temporaries per node: the (R, lg, lg + lb) max-plus block,
        # or the (R, lg) table when every child table is one entry wide,
        # about 64 per running group weight on its way through _fresh_terms,
        # and the d child weights.  A node of count c has forest tables
        # below c and child tables of at most c - d entries.
        c = int(self.tree.count[group].max())
        lg, lb = min(K1, c - 1), min(K1, c - d)
        per_node = 8 * (R * ((lg * (lg + lb) if lb > 1 else lg) + 8 * (d - a + 2)) + d)
        step = max(1, _SWEEP_BYTES // per_node)
        rows = np.array(js)
        for i in range(0, group.shape[0], step):
            vs = group[i : i + step]
            G = self._sweep_group(vs, js)[0]
            ncol = self.caps[vs] - 1
            cols = np.arange(G.shape[2])
            keep = cols < ncol[:, None]
            at = (self.offs[vs][:, None] + 1 + cols)[keep]
            if R == 1:
                best = G[:, 0]
            else:
                # The first row attaining a column's max wins: prefix, then increasing j.
                self.win[at] = rows[G.argmax(axis=1)][keep]
                best = G.max(axis=1)
            self.F[at] = (self.pw[vs][:, None] + best)[keep]

    def _sweep_group(self, vs: np.ndarray, js: tuple[int, ...], record: bool = False):
        """Sweep the candidate classes ``js`` of the internal nodes ``vs`` as one group.

        The nodes share one degree d, and their child tables are filled.
        ``js[r]`` names row r's class: 0 for the prefix class, j > 0 for
        the near-prefix class whose group holds child j.  G[b, r, t-1] is
        the best t-node forest of class ``js[r]`` at node ``vs[b]``.  Rows
        and child tables are padded with -inf; max is exact and no +inf
        appears, so padding changes no entry.  Each child position
        advances every row with one max-plus combination and a fresh
        "absorb everything so far" entry at forest size 1, except the row
        that already holds that child, which idles there.

        Returns (G, steps, base_pos).  The fill passes many nodes; record
        mode passes one node and one class, and ``steps`` is then one
        small-integer array with a row per combining step: its position,
        then arg, where arg[t-2] + 1 is the smallest left forest size h
        maximizing the t-node forest.  ``base_pos`` is 1 when the prefix
        row starts from child 1's table (empty seed), else 0.
        """
        t = self.tree
        W = self._W
        K1 = self.K - 1
        B, R = vs.shape[0], len(js)
        d = int(t.degree[vs[0]])
        a = self._sweep_start(d)
        children = t.first_child[vs][:, None] + np.arange(d)
        sizes = t.size[children]
        # Child tables at positions a..d, -inf padded to each position's longest.
        kids = children[:, a - 1 :]
        widths = self._view_len[kids]
        lbs = widths.max(axis=0).tolist()
        cols = np.arange(max(lbs))
        filled = cols < widths[..., None]
        tabs = np.full(filled.shape, NEG_INF)
        tabs[filled] = self.F[(self.offs[kids][..., None] + cols)[filled]]
        skips = list(js)  # row r idles at child position skips[r]
        base_pos = int(a == 1 and js[0] == 0)  # the prefix row starts from child 1's table
        if base_pos:
            skips[0] = 1
        # Each row's running group weight: its seed, then one child per
        # position, where adding 0.0 at the row's idle position keeps the
        # sum (a -0.0 may turn +0.0; both terms are 0).  cumsum adds in
        # sequence, as one += per position would.
        run = np.empty((B, R, d - a + 2))
        run[..., 1:] = sizes[:, None, a - 1 :]
        seed = sizes[:, : a - 1].sum(axis=1) if a > 1 else 0.0
        for r, j in enumerate(js):
            run[:, r, 0] = seed + sizes[:, j - 1] if j else seed
            if skips[r] >= a:
                run[:, r, 1 + skips[r] - a] = 0.0
        if base_pos:
            run[:, 0, 0] = sizes[:, 0]
        fresh = _fresh_terms(np.cumsum(run, axis=2), W)
        if base_pos and R == 1:
            G = tabs[:, :1, : lbs[0]]  # a lone row needs no padded copy
        else:
            G = np.full((B, R, lbs[0] if base_pos else 1), NEG_INF)
            G[..., 0] = fresh[..., 0]
            if base_pos:
                G[:, 0] = tabs[:, 0, : lbs[0]]
        steps = np.zeros((d - a + 1, self.K), np.min_scalar_type(d + self.K)) if record else None
        for pos in range(a, d + 1):
            idle = skips.index(pos) if pos in skips else -1
            if idle >= 0 and R == 1:
                continue
            Bt = tabs[:, pos - a, : lbs[pos - a]]
            lg = G.shape[2]
            lb = Bt.shape[1]
            w = min(K1, lg + lb)
            newG = np.empty((B, R, w))
            # newG[b, r, t-1] = max_h G[b, r, h-1] + Bt[b, t-h-1]; arg keeps the smallest h.
            if lb == 1:
                np.add(G[..., : w - 1], Bt[:, None], out=newG[..., 1:])
                arg = np.arange(w - 1) if record else None
            elif lg == 1:
                np.add(G, Bt[:, None, : w - 1], out=newG[..., 1:])
                arg = 0
            else:
                P = np.empty((B, R, lg, lg + lb))
                P[..., lb:] = NEG_INF
                np.add(G[..., None], Bt[:, None, None], out=P[..., :lb])
                S = P.reshape(B, R, -1)[..., :-lg].reshape(B, R, lg, lg + lb - 1)[..., : w - 1]
                S.max(axis=2, out=newG[..., 1:])
                arg = S[0, 0].argmax(axis=0) if record else None
            if record:
                steps[pos - a, 0] = pos
                steps[pos - a, 1:w] = arg
            newG[..., 0] = fresh[..., 1 + pos - a]
            if idle >= 0:
                newG[:, idle, :lg] = G[:, idle]
                newG[:, idle, lg:] = NEG_INF
            G = newG
        # An idle position leaves its row at position 0.
        return G, steps if steps is None else steps[steps[:, 0] > 0], base_pos

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
                nodes.append(summary_node(t, v, (v,), par))
                continue
            other, splits = self._rebuild_node(v, kk)
            me = len(nodes)
            nodes.append(summary_node(t, v, (), par))
            if other:
                nodes.append(summary_node(t, v, other, me))
            for c, kc in sorted(splits, reverse=True):
                stack.append((c, kc, me))
        return nodes

    def _walk_chain(self, ch: _Chain, kk: int, par: int, nodes, stack) -> None:
        """Re-materialize a zero-weight chain: peel singletons down to the budget."""
        t = self.tree
        b = kk
        cur = par
        seq = ch.seq
        for idx, (vi, zi) in enumerate(seq):
            if b == 1:
                nodes.append(summary_node(t, vi, (vi,), cur))
                return
            me = len(nodes)
            nodes.append(summary_node(t, vi, (), cur))
            cur = me
            b -= 1
            if zi:
                if b == 1:
                    nxt = seq[idx + 1][0] if idx + 1 < len(seq) else ch.bottom
                    nodes.append(summary_node(t, vi, sorted((zi, nxt)), cur))
                    return
                nodes.append(summary_node(t, zi, (zi,), cur))
                b -= 1
        stack.append((ch.bottom, b, cur))

    def _rebuild_node(self, v: int, kk: int):
        t = self.tree
        d = int(t.degree[v])
        fc = int(t.first_child[v])
        kf = kk - 1
        j = int(self.win[self.offs[v] + kf])
        if (v, j) not in self._replays:
            G, steps, base_pos = self._sweep_group(np.array([v]), (j,), record=True)
            self._replays[v, j] = G[0, 0], steps, base_pos
        row, steps, base_pos = self._replays[v, j]
        got = self.pw[v] + (row[kf - 1] if kf <= row.shape[0] else NEG_INF)
        want = self.value(v, kk)
        if abs(got - want) > 1e-9 * max(1.0, abs(want)):
            raise InvariantError(
                f"reconstruction value {got} disagrees with table {want} at node {v}, k={kk}"
            )

        tpos = kf
        splits_pos: list[tuple[int, int]] = []
        i = len(steps) - 1
        while i >= 0 and tpos >= 2:
            h = int(steps[i, tpos - 1]) + 1
            splits_pos.append((int(steps[i, 0]), tpos - h))
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


def solve_greedy(t: CanonicalTree, K: int) -> DPTables:
    """Best summary trees whose every group is a prefix of the sorted children.

    The DP without near-prefix classes, in O(Kn + n log n).  Values never
    exceed the exact optimum and coincide with it on trees (such as paths)
    where no near-prefix group can help; the test suite pins a 7-node
    instance where the gap is roughly 1.5 vs 1.0 bits.
    """
    return DPTables(t, K, mode="greedy")
