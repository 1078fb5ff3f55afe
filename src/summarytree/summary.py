"""The summary-tree output type and its structural validators.

A k-node summary tree partitions the nodes of the input tree into k
member sets arranged as a tree.  Every summary node is one of

* ``singleton``: a single input node ``{v}``;
* ``subtree``: a whole input subtree collapsed to one node;
* ``group``: several sibling subtrees (a nonempty subset of some node's
  children together with all their descendants) collapsed to one
  "other" node.

Each summary node has at most one group child, and the parent of every
non-root summary node is a singleton.

A node's ``members`` are its input nodes' external ids in sorted order,
as the CLI writes them; :func:`attach_members` builds them for a whole
tree from preorder intervals, and trees that share a node can share its
member tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .entropy_core import _terms
from .tree_model import CanonicalTree

__all__ = ["SummaryNode", "SummaryTree", "InvariantError", "validate_summary_tree"]

_REL_TOL = 1e-9


class InvariantError(RuntimeError):
    """An internal structural check failed; results cannot be trusted."""


@dataclass
class SummaryNode:
    """One node of a summary tree.

    ``anchor`` is the represented input node for singleton/subtree kinds;
    for groups it is the input node whose children were grouped, with the
    grouped child labels in ``child_roots``.
    """

    kind: str
    anchor: int
    parent: int
    weight: float
    members: tuple[str, ...] = ()
    child_roots: tuple[int, ...] = ()


@dataclass
class SummaryTree:
    """A k-node summary tree together with its entropy in bits."""

    k: int
    entropy_bits: float
    total_weight: float
    nodes: list[SummaryNode] = field(default_factory=list)


def summary_node(ct: CanonicalTree, anchor: int, roots: Sequence[int], parent: int) -> SummaryNode:
    """The node holding ``anchor`` alone (no roots), one root's whole subtree, or a group.

    A group's roots (a sequence or an integer array) are children of
    ``anchor``; its weight sums their sizes one by one from +0.0 in the
    order given, and ``child_roots`` holds them sorted.
    """
    if len(roots) == 0:
        return SummaryNode("singleton", anchor, parent, float(ct.weight[anchor]))
    if len(roots) == 1:
        c = int(roots[0])
        kind = "subtree" if int(ct.count[c]) > 1 else "singleton"
        return SummaryNode(kind, c, parent, float(ct.size[c]))
    roots = np.asarray(roots)
    sizes = np.zeros(roots.shape[0] + 1)
    sizes[1:] = ct.size[roots]
    weight = float(np.add.accumulate(sizes)[-1])
    return SummaryNode("group", anchor, parent, weight, (), tuple(np.sort(roots).tolist()))


def node_weight(nd: SummaryNode, weight, size):
    """Weight of ``nd`` given per-node ``weight`` and subtree ``size`` arrays.

    A group sums its roots' sizes in one array reduction, which is exact
    in any order for integer sizes such as the rounded ones: they are at
    most W0 < 2**53.
    """
    if nd.kind == "singleton":
        return weight[nd.anchor]
    if nd.kind == "subtree":
        return size[nd.anchor]
    return size.take(nd.child_roots).sum()


def validate_summary_tree(tree: SummaryTree, ct: CanonicalTree) -> None:
    """Check every structural invariant of a summary tree of ``ct``.

    Checks: node count, member sets partition the input nodes, weights,
    single root anchored at the tree root, parent links consistent with
    the input tree, at most one group child per node, group child sets
    drawn from one parent's children, and the recomputed entropy; weights
    and the entropy must match to a relative ``1e-9``.

    Raises:
        InvariantError: on the first violated invariant.
    """

    def fail(msg: str):
        raise InvariantError(msg)

    nodes = tree.nodes
    if len(nodes) != tree.k:
        fail(f"node count {len(nodes)} != k {tree.k}")

    roots = [i for i, nd in enumerate(nodes) if nd.parent < 0]
    if len(roots) != 1:
        fail(f"expected exactly one root node, found {len(roots)}")

    # Member sets partition 1..n.
    covered = []
    for nd in nodes:
        labels = _member_labels(nd, ct)
        if labels.size == 0:
            fail("empty member set")
        covered.append(labels)
        w = float(ct.weight[labels].sum())
        if abs(w - nd.weight) > _REL_TOL * max(1.0, abs(w)):
            fail(f"node weight {nd.weight} != member sum {w}")
    allcov = np.sort(np.concatenate(covered))
    if allcov.size != ct.n or not np.array_equal(allcov, np.arange(1, ct.n + 1)):
        fail("member sets do not partition the input nodes")

    if 1 not in set(int(x) for x in _member_labels(nodes[roots[0]], ct)):
        fail("root summary node does not contain the tree root")

    total = sum(nd.weight for nd in nodes)
    if abs(total - tree.total_weight) > _REL_TOL * tree.total_weight:
        fail(f"node weights sum to {total}, expected {tree.total_weight}")

    group_children: dict[int, int] = {}
    for i, nd in enumerate(nodes):
        if nd.parent >= 0:
            parent = nodes[nd.parent]
            if parent.kind != "singleton":
                fail("parent of a summary node is not a singleton")
            p = parent.anchor
            if nd.kind == "group":
                if nd.anchor != p:
                    fail("group node anchored at a different parent")
                if not nd.child_roots:
                    fail("group node with no grouped children")
                for c in nd.child_roots:
                    if int(ct.parent[c]) != p:
                        fail("grouped subtree is not a child of the parent node")
                group_children[nd.parent] = group_children.get(nd.parent, 0) + 1
                if group_children[nd.parent] > 1:
                    fail("node has more than one group child")
            else:
                if int(ct.parent[nd.anchor]) != p:
                    fail("summary node is not attached under its input parent")

    recomputed = float(_terms(np.array([nd.weight for nd in nodes]), tree.total_weight).sum())
    if abs(recomputed - tree.entropy_bits) > _REL_TOL * max(1.0, abs(recomputed)):
        fail(f"entropy {tree.entropy_bits} != recomputed {recomputed}")


def _member_labels(nd: SummaryNode, ct: CanonicalTree) -> np.ndarray:
    if nd.kind == "singleton":
        return np.array([nd.anchor], dtype=np.int64)
    if nd.kind == "subtree":
        return ct.subtree_labels(nd.anchor)
    parts = [ct.subtree_labels(c) for c in nd.child_roots]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def attach_members(tree: SummaryTree, ct: CanonicalTree, built: Optional[dict] = None) -> SummaryTree:
    """Fill in the ``members`` tuples of every node (in place) and return the tree.

    Every member set is a union of whole preorder intervals: a singleton
    is ``[pre_pos[a], +1)``, a subtree ``[pre_pos[a], +count[a])`` and a
    group one subtree interval per child root.  The intervals of all
    nodes must tile ``[0, n)``.  A node's members depend only on its
    (kind, anchor, child_roots), and ``built`` maps that key to the tuple
    built for it, so that the trees of several k share one tuple per
    distinct node; a node found there is not built again, and every node
    built here is added.  The new nodes' preorder positions are sorted by
    (owner, id rank) in one array pass, which yields their members in
    sorted-id order.

    Raises:
        InvariantError: if the member sets overlap or leave a gap.
    """
    nodes = tree.nodes
    built = {} if built is None else built
    roots = [nd.child_roots if nd.kind == "group" else (nd.anchor,) for nd in nodes]
    per_node = np.fromiter(map(len, roots), np.int64, len(nodes))
    root = np.fromiter(chain.from_iterable(roots), np.int64, int(per_node.sum()))
    owner = np.repeat(np.arange(len(nodes)), per_node)
    single = np.repeat([nd.kind == "singleton" for nd in nodes], per_node)
    start = ct.pre_pos[root]
    length = np.where(single, 1, ct.count[root])

    by_start = np.argsort(start)
    start, length, owner = start[by_start], length[by_start], owner[by_start]
    end = start + length
    if start.size == 0 or start[0] != 0 or end[-1] != ct.n or (start[1:] != end[:-1]).any():
        raise InvariantError("member sets overlap or leave a gap in the input nodes")

    # The preorder positions of the nodes not built yet, keyed by (owner, id rank).
    keys = [(nd.kind, nd.anchor, nd.child_roots) for nd in nodes]
    take = np.array([key not in built for key in keys], dtype=bool)[owner]
    start, length, owner = start[take], length[take], owner[take]
    pos = np.arange(int(length.sum())) + np.repeat(start - np.cumsum(length) + length, length)
    key = np.repeat(owner * ct.n, length) + ct.id_rank[ct.preorder[pos]]
    key.sort()
    ids = ct.ids_by_rank[key % ct.n].tolist()
    ends = np.cumsum(np.bincount(key // ct.n, minlength=len(nodes))).tolist()
    lo = 0
    for nd, nk, hi in zip(nodes, keys, ends):
        if hi > lo:  # every node has a member, so only new nodes own positions here
            built[nk] = tuple(ids[lo:hi])
        nd.members = built[nk]
        lo = hi
    return tree
