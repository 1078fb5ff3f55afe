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
zero-weight placeholder child that remembers the removed ids, and long
descending chains of zero-weight nodes are recorded so the solver can
shift tables across them in O(K) instead of sweeping every chain node.

The DP is the exact solver's :class:`DPTables`, built on the reduced
tree with its chains.  Its rebuilt nodes are mapped back to the input
tree in place and padded to k nodes; the rounded entropy scores those
final nodes with :func:`summary.node_weight` over the rounded weights.
An epsilon so small that W0 reaches 2**53, or that float64 rounding
already breaks :meth:`RoundedTree.check` or moves the rounded total off
W0, is a ``ValueError``, and so is a total weight so small that W0/W
overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .entropy_core import _terms
from .exact_solver import DPTables, _Chain
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
    input labels (0 for placeholders); ``placeholder_roots`` maps each
    placeholder to the removed input children it stands for; ``chains``
    records maximal compressible zero-weight chains; ``rounded`` is the
    rounding the tree was reduced from.
    """

    tree: CanonicalTree
    rounded: RoundedTree
    orig_label: np.ndarray
    placeholder_roots: dict[int, np.ndarray]
    chains: dict[int, _Chain]


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
    # Zero-sized children of kept nodes; in label order, so grouped by parent.
    zero = np.flatnonzero(s[2:] == 0) + 2
    zero = zero[s[scaled.parent[zero]] > 0]
    ph_parent, ph_start = np.unique(scaled.parent[zero], return_index=True)
    n_ph = ph_parent.shape[0]

    # Reduced nodes: the kept nodes, root first, then one placeholder per
    # parent in ph_parent.  Placeholders are the only zero-sized children,
    # so their tie key (0) never decides an order.
    parent = np.concatenate((tmp_of_orig[scaled.parent[kept]], tmp_of_orig[ph_parent]))
    parent[0] = -1
    orig = np.concatenate((kept, np.zeros(n_ph, dtype=np.int64)))
    weight = np.concatenate((rt.w_rounded[kept], np.zeros(n_ph, dtype=np.int64)))
    ids = list(map(scaled.ext_of_label.__getitem__, kept.tolist())) + [None] * n_ph
    tree, label = _canonical(parent, 0, weight, orig, ids)

    orig_label = np.zeros(tree.n + 1, dtype=np.int64)
    orig_label[label] = orig
    ph_label = label[n_kept:].tolist()
    for lab in ph_label:
        tree.ext_of_label[lab] = f"~other~{lab}"
    placeholder_roots = dict(zip(ph_label, np.split(zero, ph_start[1:])))

    return ReducedTree(tree, rt, orig_label, placeholder_roots, _find_chains(tree))


def _find_chains(t: CanonicalTree) -> dict[int, _Chain]:
    """Locate maximal descending chains of zero-weight pass-through nodes.

    A chain node has weight zero and either one child, or two children of
    which exactly one is a zero-weight leaf; the chain continues into the
    other child.  Chains are keyed by their top, in label order.
    """
    deg = t.degree
    fc = t.first_child
    zero = t.weight == 0
    zero_leaf = zero & (deg == 0)
    two = np.flatnonzero(zero & (deg == 2))
    z1 = zero_leaf[fc[two]]  # the zero leaf comes first
    keep = z1 != zero_leaf[fc[two] + 1]
    two, z1 = two[keep], z1[keep]
    candidate = zero & (deg == 1)
    continuation = np.where(candidate, fc, 0)
    continuation[two] = np.where(z1, fc[two] + 1, fc[two])
    zleaf = np.zeros(t.n + 1, dtype=np.int64)
    zleaf[two] = np.where(z1, fc[two], fc[two] + 1)
    candidate[two] = True
    candidate[0] = False
    # A candidate's only child besides its continuation is a leaf, so a
    # candidate under a candidate is interior to a chain.
    tops = np.flatnonzero(candidate & ~candidate[t.parent])

    candidate = candidate.tolist()
    continuation = continuation.tolist()
    zleaf = zleaf.tolist()
    chains: dict[int, _Chain] = {}
    for v in tops.tolist():
        seq = []
        cur = v
        while candidate[cur]:
            seq.append((cur, zleaf[cur]))
            cur = continuation[cur]
        lprime = sum(1 for _, z in seq if z)
        chains[v] = _Chain(v, cur, len(seq), lprime, tuple(seq))
    return chains


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
    nodes: list[SummaryNode], red: ReducedTree, base: CanonicalTree
) -> list[SummaryNode]:
    """Translate reduced-tree summary nodes, in place, back to the input tree."""
    ol = red.orig_label
    for i, nd in enumerate(nodes):
        if nd.kind == "group":
            roots: list[int] = []
            for c in nd.child_roots:
                oc = int(ol[c])
                if oc:
                    roots.append(oc)
                else:
                    roots.extend(int(x) for x in red.placeholder_roots[c])
            nodes[i] = summary_node(base, int(ol[nd.anchor]), roots, nd.parent)
        elif ol[nd.anchor]:
            nd.anchor = int(ol[nd.anchor])
            nd.weight = float(node_weight(nd, base.weight, base.size))
        else:  # a placeholder stands for the zero-sized children it removed
            roots = list(red.placeholder_roots[nd.anchor])
            parent_orig = int(ol[red.tree.parent[nd.anchor]])
            nodes[i] = summary_node(base, parent_orig, roots, nd.parent)
    return nodes


def _pad_to_k(nodes: list[SummaryNode], k: int, red: ReducedTree, base: CanonicalTree) -> None:
    """Split zero-rounded-weight pieces off until the tree has k nodes.

    Only splits whose separated piece carries zero rounded weight are
    taken, so the rounded entropy (and with it the optimality of the
    tree under the rounded weights) is preserved.
    """
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
    for k in range(1, min(K, t.n) + 1):
        nodes = _map_to_original(tables.rebuild(min(k, tables.max_k)), reduced, t)
        _pad_to_k(nodes, k, reduced, t)
        ent = float(_terms(np.array([nd.weight for nd in nodes]), W).sum())
        weight_r = np.array([node_weight(nd, w_r, s_r) for nd in nodes], dtype=np.float64)
        ent_r = float(_terms(weight_r, W0f).sum())
        tree = SummaryTree(k, ent, W, nodes)
        attach_members(tree, t)
        trees.append(tree)
        ents.append(ent)
        ents_rounded.append(ent_r)
    return ApproxResult(W0, reduced, tables, trees, ents, ents_rounded)
