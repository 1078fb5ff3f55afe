"""Additive-approximation solver: rescale, round, reduce, then solve exactly.

To handle real weights at a cost independent of the weight magnitudes,
the tree is rescaled to a small integer total W0, every weight is
rounded to an adjacent integer so that no subtree's total moves by more
than 1, and the exact dynamic program runs on a reduced tree in which
all zero-rounded-weight structure is collapsed.  Entropies of the
returned trees, measured with the original weights, are within an
additive epsilon of the true optimum once W0 is of order
(K/epsilon) * lg(K/epsilon).

The reduced tree keeps at most W0 positive-weight nodes.  Zero-weight
subtrees hanging off a positively-sized node are replaced by a single
zero-weight placeholder child, which stands for the zero-rounded-size
children of its parent's input node.  Descending chains of zero-weight
nodes are recorded as top -> bottom, so the solver can shift tables
across them in O(K) instead of sweeping every chain node.

The DP is the exact solver's :class:`DPTables`, built on the reduced
tree with its chains.  Every node it rebuilds becomes a new node of the
input tree, padded to k nodes; the rounded entropy scores those
final nodes with :func:`summary.node_weight` over the rounded weights.
An epsilon so small that W0 reaches 2**53, or that float64 rounding
already breaks :meth:`RoundedTree.check` or moves the rounded total off
W0, is a ``ValueError``, and so is a total weight so small that W0/W
overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
import numpy as np

from .entropy_core import _terms
from .exact_solver import DPTables
from .summary import (InvariantError, SummaryNode, SummaryTree, attach_members, node_weight,
                      summary_node)
from .tree_model import CanonicalTree, _canonical

__all__ = [
    "compute_W0",
    "rescale",
    "discrepancy_round",
    "reduce_tree",
    "solve_approx",
    "RoundedTree",
    "ReducedTree",
    "ApproxResult",
]


# The constant c in x = c*K/epsilon, calibrated so that the additive
# guarantee holds in the acceptance suite.  It is not an option: W0 depends
# on c and epsilon only through c/epsilon, so epsilon alone sets it.
W0_CONSTANT = 2.0


def compute_W0(K: int, epsilon: float) -> int:
    """Integer rescaling target W0 = max(2K, ceil(x lg(2 + x))), x = 2K/epsilon.

    The 2 is :data:`W0_CONSTANT`.  The lower clamp at 2K keeps the rounded
    tree from starving the DP of mass at tiny K.  W0 must stay below
    2**53, where float64 stops holding every integer and the rounding
    guarantees lapse.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if not math.isfinite(epsilon) or epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    x = W0_CONSTANT * K / epsilon
    w = x * math.log2(2.0 + x)
    if not w < 2.0**53:  # also false for inf and nan
        raise ValueError(f"epsilon={epsilon!r} is too small: W0 = {w:.3g} is not below 2**53")
    return max(2 * K, math.ceil(w))


def rescale(t: CanonicalTree, W0: int) -> CanonicalTree:
    """Multiply all weights by W0/W so they sum to exactly W0.

    Pure rescaling leaves the entropy of every summary tree unchanged
    and preserves the canonical child order and labeling.

    Raises:
        ValueError: W0/W overflows (W near the smallest float64 values).
    """
    factor = float(W0) / t.W
    if not math.isfinite(factor):
        raise ValueError(f"total weight {t.W!r} is too small to rescale to W0={W0}")
    return t.with_scaled_weights(factor)


@dataclass
class RoundedTree:
    """Integer-rounded weights of the rescaled ``tree``.

    Guarantees (checked by :meth:`check`): every rounded weight is the
    floor or the ceiling of its rescaled value, and every subtree total
    moves by at most 1.  ``W0`` is the rounded grand total, which
    :func:`solve_approx` checks against the W0 it rescaled to.
    """

    tree: CanonicalTree
    w_rounded: np.ndarray
    s_rounded: np.ndarray
    W0: int

    def check(self) -> None:
        w = self.tree.weight[1:]
        wr = self.w_rounded[1:]
        lo = np.floor(w)
        if not ((wr == lo) | (wr == lo + 1)).all():
            raise InvariantError("a rounded weight is not floor or floor+1")
        disc = np.abs(self.s_rounded[1:] - self.tree.size[1:])
        if float(disc.max(initial=0.0)) > 1.0 + 1e-9:
            raise InvariantError("a subtree discrepancy exceeds 1")


def discrepancy_round(scaled: CanonicalTree) -> RoundedTree:
    """Round weights to integers with every subtree total moving by <= 1.

    Nodes are visited in depth-first order, in which every subtree is a
    contiguous interval; rounding the running prefix sums half-up and
    differencing keeps each prefix within 0.5 of its true value, hence
    each interval (subtree) within 1, preserves the total exactly, and
    moves every single weight to an adjacent integer.
    """
    n = scaled.n
    pre = scaled.preorder
    csum = np.cumsum(scaled.weight[pre])
    rounded_csum = np.floor(csum + 0.5)
    w_pre = np.diff(np.concatenate(([0.0], rounded_csum)))
    w_rounded = np.zeros(n + 1, dtype=np.int64)
    w_rounded[pre] = w_pre.astype(np.int64)

    # Subtree sums read straight off the rounded prefix sums.
    pos = scaled.pre_pos[1:]
    ends = pos + scaled.count[1:] - 1
    s_rounded = np.zeros(n + 1, dtype=np.int64)
    left = np.where(pos > 0, rounded_csum[pos - 1], 0.0)
    s_rounded[1:] = (rounded_csum[ends] - left).astype(np.int64)
    return RoundedTree(scaled, w_rounded, s_rounded, int(round(float(rounded_csum[-1]))))


@dataclass
class ReducedTree:
    """The zero-collapsed reduced tree and its bookkeeping.

    ``tree`` is a canonical tree over fresh labels whose children are
    ordered by rounded size.  ``orig_label`` maps reduced labels back to
    input labels (0 for placeholders; a placeholder stands for the
    zero-rounded-size children of its parent's input node).  ``chains``
    maps the top of each maximal zero-weight chain to its bottom, in
    label order (see :func:`_find_chains`).  ``rounded`` is the rounding
    the tree was reduced from.
    """

    tree: CanonicalTree
    rounded: RoundedTree
    orig_label: np.ndarray
    chains: dict[int, int]


def reduce_tree(rt: RoundedTree) -> ReducedTree:
    """Collapse zero-rounded-size structure and record zero-weight chains.

    For every positively sized node, its zero-sized children (and all
    their descendants) are replaced by one zero-weight placeholder child.
    The reduced tree is labelled by the builder :func:`canonicalize`
    uses, with children ordered by rounded size and ties by input label.
    """
    scaled = rt.tree
    s = rt.s_rounded
    if s[1] <= 0:
        raise ValueError("all rounded weights are zero")

    kept = np.flatnonzero(s[1:] > 0) + 1
    n_kept = kept.shape[0]
    # Reduced-node index of every kept input label.
    tmp_of_orig = np.zeros(scaled.n + 1, dtype=np.int64)
    tmp_of_orig[kept] = np.arange(n_kept)
    # Kept nodes with a zero-sized child, one placeholder each.
    zero = np.flatnonzero(s[2:] == 0) + 2
    ph_parent = np.unique(scaled.parent[zero[s[scaled.parent[zero]] > 0]])
    n_ph = ph_parent.shape[0]

    # Reduced nodes: the kept nodes, root first, then one placeholder per
    # parent in ph_parent.  Placeholders are the only zero-sized children,
    # so their tie key (0) never decides an order.
    parent = np.concatenate((tmp_of_orig[scaled.parent[kept]], tmp_of_orig[ph_parent]))
    parent[0] = -1
    orig = np.concatenate((kept, np.zeros(n_ph, dtype=np.int64)))
    weight = np.concatenate((rt.w_rounded[kept], np.zeros(n_ph, dtype=np.int64)))
    ids = list(map(scaled.ext_of_label.__getitem__, kept.tolist())) + [None] * n_ph
    tree, label = _canonical(parent, 0, weight, np.argsort(orig, kind="stable"), ids)

    orig_label = np.zeros(tree.n + 1, dtype=np.int64)
    orig_label[label] = orig
    for lab in label[n_kept:].tolist():
        tree.ext_of_label[lab] = f"~other~{lab}"
    return ReducedTree(tree, rt, orig_label, _find_chains(tree))


def _find_chains(t: CanonicalTree) -> dict[int, int]:
    """Map the top of each maximal descending zero-weight chain to its bottom.

    A chain node has weight zero and either one child, or two children of
    which the first is a zero-weight leaf; its last child continues the
    chain.  In a reduced tree a zero leaf is a placeholder, its parent's
    only zero-sized child, so it sorts first.  The bottom is the first
    node below the top that is not a chain node.  Chains are keyed by
    their top, in label order.
    """
    deg = t.degree
    fc = t.first_child
    zero = t.weight == 0
    on = zero & ((deg == 1) | ((deg == 2) & zero[fc] & (deg[fc] == 0)))
    on[0] = False
    # Pointer jumping: below[v] doubles its reach down the chain each step.
    below = np.where(on, fc + deg - 1, np.arange(t.n + 1))
    chain = np.flatnonzero(on)
    while on[below[chain]].any():
        below[chain] = below[below[chain]]
    # A chain node's only child besides its continuation is a leaf, so a
    # chain node under a chain node is interior to a chain.
    tops = np.flatnonzero(on & ~on[t.parent])
    return dict(zip(tops.tolist(), below[tops].tolist()))


@dataclass
class ApproxResult:
    """Summary trees for every k <= min(K, n) with entropies in bits.

    ``entropy_bits`` is measured with the original weights (the quantity
    the additive guarantee is stated for); ``entropy_bits_rounded`` is
    the same trees scored with the rounded weights, kept for diagnostics.
    """

    W0: int
    reduced: ReducedTree
    tables: DPTables
    trees: list[SummaryTree]
    entropy_bits: list[float]
    entropy_bits_rounded: list[float]

    @property
    def pair_cost(self) -> int:
        return self.tables.pair_cost


def _map_to_original(
    nodes: list[SummaryNode], red: ReducedTree, base: CanonicalTree, mapped: dict
) -> list[SummaryNode]:
    """Rebuild reduced-tree summary nodes as nodes of the input tree.

    A root c stands for ``orig_label[c]`` when kept; a kept singleton
    stays alone.  A placeholder stands for the zero-rounded-size children
    of the input node y the rebuilt node hangs from, in label order.  It
    is its parent's only zero-sized child, so it sorts first among the
    roots, and its children come first, as in root order.  Apart from its
    parent, a rebuilt node depends only on the reduced node's (kind,
    anchor, child_roots); ``mapped`` keeps it under that key, and the
    trees of later k copy it with their own parent.
    """
    ol = red.orig_label
    s_r = red.rounded.s_rounded
    out = []
    for nd in nodes:
        key = (nd.kind, nd.anchor, nd.child_roots)
        m = mapped.get(key)
        if m is None:
            a = nd.anchor
            y = int(ol[a] or ol[red.tree.parent[a]])
            alone = nd.kind == "singleton" and ol[a]
            rs = ol[np.array(() if alone else nd.child_roots or (a,), np.int64)]
            if rs.shape[0] and rs[0] == 0:
                fc = int(base.first_child[y])
                zero = np.flatnonzero(s_r[fc : fc + int(base.degree[y])] == 0) + fc
                rs = np.concatenate((zero, rs[1:]))
            m = mapped[key] = summary_node(base, y, rs, -1)
        out.append(replace(m, parent=nd.parent))
    return out


def _pad_to_k(nodes: list[SummaryNode], k: int, red: ReducedTree, base: CanonicalTree) -> None:
    """Split zero-rounded-weight pieces off until the tree has k nodes.

    Only splits whose separated piece carries zero rounded weight are
    taken, so the rounded entropy (and with it the optimality of the
    tree under the rounded weights) is preserved.  A split replaces only
    node i and appends its piece, so one front-to-back pass meets the
    splits in the order a rescan from node 0 would.
    """
    s_r = red.rounded.s_rounded
    w_r = red.rounded.w_rounded
    i = 0
    while len(nodes) < k:
        if i == len(nodes):
            raise InvariantError(f"cannot pad summary tree to {k} nodes")
        nd = nodes[i]
        zero = [c for c in nd.child_roots if s_r[c] == 0]
        y = nd.anchor
        if zero:
            c = zero[0]
            rest = tuple(x for x in nd.child_roots if x != c)
            nodes[i] = (replace(nd, weight=nd.weight - float(base.size[c]), child_roots=rest)
                        if len(rest) > 1 else summary_node(base, y, rest, nd.parent))
            nodes.append(summary_node(base, y, (c,), nd.parent))
        elif nd.kind == "subtree" and (w_r[y] == 0 or s_r[y] == w_r[y]):
            nodes[i] = summary_node(base, y, (), nd.parent)
            nodes.append(summary_node(base, y, list(base.children(y)), i))
        else:
            i += 1


def solve_approx(t: CanonicalTree, K: int, epsilon: float) -> ApproxResult:
    """Summary trees within an additive ``epsilon`` of maximum entropy.

    Pipeline: rescale to W0 = compute_W0(K, epsilon), discrepancy-round,
    reduce the zero-weight structure, run the exact DP on the reduced tree
    (with O(K) shortcuts across recorded zero-weight chains), and map the
    reconstructed trees back to the original ids and weights.  Runs in
    O(n + W0 * K^3) time.

    Raises:
        ValueError: epsilon out of range, W0 so large that the
            rounding loses its guarantees in float64, or a total weight
            too small to rescale to W0.
    """
    W0 = compute_W0(K, epsilon)
    rounded = discrepancy_round(rescale(t, W0))
    try:
        rounded.check()
        if rounded.W0 != W0:
            raise InvariantError(f"rounded total {rounded.W0} differs from W0")
    except InvariantError as exc:
        raise ValueError(
            f"epsilon={epsilon!r} needs W0={W0}, too large to round exactly: {exc}"
        ) from exc
    reduced = reduce_tree(rounded)
    tables = DPTables(reduced.tree, K, chains=reduced.chains)
    w_r = rounded.w_rounded
    s_r = rounded.s_rounded
    W = t.W
    W0f = float(W0)
    trees: list[SummaryTree] = []
    ents: list[float] = []
    ents_rounded: list[float] = []
    members: dict = {}  # member tuple of each distinct node, shared across k
    mapped: dict = {}  # each distinct reduced node rebuilt on the input tree
    for k in range(1, min(K, t.n) + 1):
        nodes = _map_to_original(tables.rebuild(min(k, tables.max_k)), reduced, t, mapped)
        _pad_to_k(nodes, k, reduced, t)
        ent = float(_terms(np.array([nd.weight for nd in nodes]), W).sum())
        weight_r = np.array([node_weight(nd, w_r, s_r) for nd in nodes], dtype=np.float64)
        ent_r = float(_terms(weight_r, W0f).sum())
        tree = SummaryTree(k, ent, W, nodes)
        attach_members(tree, t, members)
        trees.append(tree)
        ents.append(ent)
        ents_rounded.append(ent_r)
    return ApproxResult(W0, reduced, tables, trees, ents, ents_rounded)
