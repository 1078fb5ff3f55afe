"""Ingest, validate, and canonicalize node-weighted rooted trees.

The solvers all operate on a :class:`CanonicalTree`, a flat array
representation in which

* nodes carry dense integer labels ``1..n`` assigned breadth-first, so
  the root is label 1, labels within a depth level are consecutive, and
  the children of every node occupy a consecutive label range;
* the children of each node are ordered nondecreasing by subtree size
  (ties broken by external id, so canonicalization is deterministic);
* per-node subtree sizes, descendant counts, and degrees are
  precomputed.

External string ids survive in a label <-> id mapping that is emitted
alongside all results.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

__all__ = [
    "TreeError",
    "InputTree",
    "CanonicalTree",
    "build_tree",
    "from_arrays",
    "canonicalize",
    "read_csv",
    "read_json",
]

Record = tuple[str, Optional[str], float]


class TreeError(ValueError):
    """Raised for structurally invalid or degenerate input trees."""


@dataclass(frozen=True)
class InputTree:
    """A validated rooted tree over external ids, prior to canonicalization.

    ``parent_idx[i]`` is the index of node i's parent, or -1 for the root.
    Invariants (enforced by :func:`build_tree`): unique ids, exactly one
    root, acyclic parent links, nonnegative weights, positive finite total.
    """

    ids: tuple[str, ...]
    parent_idx: np.ndarray
    weights: np.ndarray
    root: int

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())


def build_tree(records: Iterable[Record]) -> InputTree:
    """Validate ``(id, parent_id, weight)`` records into an :class:`InputTree`.

    ``parent_id`` is ``None`` (or empty) for the root.

    Raises:
        TreeError: duplicate id, unknown parent, zero or multiple roots,
            cycle, negative weight, or a total weight that is zero or
            overflows.
    """
    recs = list(records)
    if not recs:
        raise TreeError("no records")
    index: dict[str, int] = {}
    for node_id, _, _ in recs:
        if node_id in index:
            raise TreeError(f"duplicate id {node_id!r}")
        index[node_id] = len(index)
    n = len(recs)
    parent_idx = np.full(n, -1, dtype=np.int64)
    weights = np.empty(n, dtype=np.float64)
    root = -1
    for i, (node_id, parent_id, weight) in enumerate(recs):
        w = float(weight)
        if w < 0.0 or not np.isfinite(w):
            raise TreeError(f"negative or non-finite weight for id {node_id!r}")
        weights[i] = w
        if parent_id is None or parent_id == "":
            if root >= 0:
                raise TreeError(
                    f"multiple roots: {recs[root][0]!r} and {node_id!r}"
                )
            root = i
        else:
            if parent_id not in index:
                raise TreeError(f"unknown parent {parent_id!r} for id {node_id!r}")
            parent_idx[i] = index[parent_id]
    if root < 0:
        raise TreeError("no root (every node has a parent)")

    # Reachability from the root doubles as cycle detection: with unique
    # parents and one root, any unreachable node sits on a cycle.
    reached = _bfs_order(parent_idx, root)
    if reached.shape[0] < n:
        seen = np.zeros(n, dtype=bool)
        seen[reached] = True
        bad = recs[int(np.flatnonzero(~seen)[0])][0]
        raise TreeError(f"cycle detected involving id {bad!r}")

    with np.errstate(over="ignore"):
        total = float(weights.sum())
    if not np.isfinite(total):
        raise TreeError("total weight overflows a float64")
    if total <= 0.0:
        raise TreeError("total weight is zero; entropy is undefined")
    return InputTree(tuple(r[0] for r in recs), parent_idx, weights, root)


def from_arrays(
    parents: Sequence[int],
    weights: Sequence[float],
    ids: Optional[Sequence[str]] = None,
) -> InputTree:
    """Build an :class:`InputTree` from a parent-index array.

    ``parents[i]`` is the index of node i's parent, with -1 marking the
    root.  When ``ids`` is omitted, zero-padded decimal ids are generated
    so that lexicographic and numeric order coincide.  Runs the same
    validation as :func:`build_tree`.
    """
    parents = np.asarray(parents, dtype=np.int64)
    n = parents.shape[0]
    if ids is None:
        width = len(str(max(n - 1, 0)))
        ids = [f"n{i:0{width}d}" for i in range(n)]
    id_list = list(ids)
    return build_tree(
        (
            id_list[i],
            None if parents[i] < 0 else id_list[int(parents[i])],
            float(weights[i]),
        )
        for i in range(n)
    )


def _bfs_order(parent_idx: np.ndarray, root: int) -> np.ndarray:
    """Breadth-first order of all nodes reachable from the root."""
    n = parent_idx.shape[0]
    order_by_parent = np.argsort(parent_idx, kind="stable")
    counts = np.bincount(parent_idx + 1, minlength=n + 1)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    out = np.empty(n, dtype=np.int64)
    out[0] = root
    filled = 1
    i = 0
    while i < filled:
        v = out[i]
        b = v + 1
        kids = order_by_parent[offsets[b] : offsets[b] + counts[b]]
        m = kids.shape[0]
        if m:
            out[filled : filled + m] = kids
            filled += m
        i += 1
    return out[:filled]


class CanonicalTree:
    """Solver-ready form of a weighted rooted tree.

    All per-node arrays are indexed by label (1-based; index 0 unused):

    Attributes:
        n: node count.
        W: total weight (== ``size[1]``).
        weight, size: float64 arrays; ``size[v]`` sums the subtree of v.
        count: descendant counts including the node itself.
        degree: child counts.
        parent: parent labels (``parent[1] == 0``).
        first_child: label of the first (smallest) child, 0 for leaves.
            Children of v are exactly labels
            ``first_child[v] .. first_child[v] + degree[v] - 1`` and are
            ordered nondecreasing by size.
        depth: root distance in edges.
        preorder / pre_pos: a depth-first order in which every subtree is
            a contiguous slice: subtree of v is
            ``preorder[pre_pos[v] : pre_pos[v] + count[v]]``.
    """

    def __init__(
        self,
        weight: np.ndarray,
        size: np.ndarray,
        count: np.ndarray,
        degree: np.ndarray,
        parent: np.ndarray,
        first_child: np.ndarray,
        depth: np.ndarray,
        ext_of_label: list,
    ):
        self.n = weight.shape[0] - 1
        self.weight = weight
        self.size = size
        self.count = count
        self.degree = degree
        self.parent = parent
        self.first_child = first_child
        self.depth = depth
        self.ext_of_label = ext_of_label
        self.label_of_ext = {e: i for i, e in enumerate(ext_of_label) if e is not None}
        self.preorder, self.pre_pos = self._compute_preorder()

    @property
    def W(self) -> float:
        return float(self.size[1])

    def children(self, v: int) -> range:
        fc = int(self.first_child[v])
        return range(fc, fc + int(self.degree[v]))

    def subtree_labels(self, v: int) -> np.ndarray:
        p = int(self.pre_pos[v])
        return self.preorder[p : p + int(self.count[v])]

    def ext(self, v: int) -> str:
        return self.ext_of_label[v]

    def _compute_preorder(self) -> tuple[np.ndarray, np.ndarray]:
        n = self.n
        pre = np.empty(n, dtype=np.int64)
        pos = np.zeros(n + 1, dtype=np.int64)
        stack = [1]
        i = 0
        fc = self.first_child
        deg = self.degree
        while stack:
            v = stack.pop()
            pre[i] = v
            pos[v] = i
            i += 1
            d = int(deg[v])
            if d:
                f = int(fc[v])
                stack.extend(range(f + d - 1, f - 1, -1))
        return pre, pos

    def with_scaled_weights(self, factor: float) -> "CanonicalTree":
        """Copy with every weight multiplied by ``factor`` (> 0).

        Scaling preserves the child order and labeling, so the result is
        canonical without re-sorting.
        """
        out = CanonicalTree.__new__(CanonicalTree)
        out.n = self.n
        out.weight = self.weight * factor
        out.size = self.size * factor
        out.count = self.count
        out.degree = self.degree
        out.parent = self.parent
        out.first_child = self.first_child
        out.depth = self.depth
        out.ext_of_label = self.ext_of_label
        out.label_of_ext = self.label_of_ext
        out.preorder = self.preorder
        out.pre_pos = self.pre_pos
        return out

    def as_records(self) -> list[Record]:
        """Round-trip back to ``(id, parent_id, weight)`` records in label order."""
        out: list[Record] = []
        for v in range(1, self.n + 1):
            p = int(self.parent[v])
            out.append(
                (
                    self.ext_of_label[v],
                    self.ext_of_label[p] if p else None,
                    float(self.weight[v]),
                )
            )
        return out


def canonicalize(t: Union[InputTree, CanonicalTree]) -> CanonicalTree:
    """Compute sizes, counts, and degrees, sort children, and relabel.

    Children of every node are ordered nondecreasing by subtree size with
    ties broken by external id, and labels are assigned breadth-first so
    siblings are consecutive and every parent label precedes its
    children's.  Idempotent: canonicalizing a canonical tree reproduces
    the same labeling.
    """
    if isinstance(t, CanonicalTree):
        t = build_tree(t.as_records())
    n = t.n
    par = t.parent_idx
    w = t.weights

    topo = _bfs_order(par, t.root)
    size = w.astype(np.float64).copy()
    cnt = np.ones(n, dtype=np.int64)
    for i in range(n - 1, 0, -1):
        v = int(topo[i])
        p = int(par[v])
        size[p] += size[v]
        cnt[p] += cnt[v]

    # Deterministic child order: by size, then external id.
    rank = np.empty(n, dtype=np.int64)
    rank[sorted(range(n), key=t.ids.__getitem__)] = np.arange(n)
    ordkey = np.lexsort((rank, size, par))
    counts = np.bincount(par + 1, minlength=n + 1)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))

    # Breadth-first labeling over the sorted child groups.
    bfsq = np.empty(n, dtype=np.int64)
    bfsq[0] = t.root
    filled = 1
    i = 0
    while i < filled:
        v = int(bfsq[i])
        b = v + 1
        kids = ordkey[offsets[b] : offsets[b] + counts[b]]
        m = kids.shape[0]
        if m:
            bfsq[filled : filled + m] = kids
            filled += m
        i += 1

    label = np.empty(n, dtype=np.int64)
    label[bfsq] = np.arange(1, n + 1)

    weight_l = np.zeros(n + 1, dtype=np.float64)
    size_l = np.zeros(n + 1, dtype=np.float64)
    count_l = np.zeros(n + 1, dtype=np.int64)
    degree_l = np.zeros(n + 1, dtype=np.int64)
    parent_l = np.zeros(n + 1, dtype=np.int64)
    weight_l[1:] = w[bfsq]
    size_l[1:] = size[bfsq]
    count_l[1:] = cnt[bfsq]
    degree_l[1:] = counts[bfsq + 1]
    if n > 1:
        parent_l[2:] = label[par[bfsq[1:]]]

    first_child = np.zeros(n + 1, dtype=np.int64)
    starts = 2 + np.concatenate(([0], np.cumsum(degree_l[1:-1])))
    first_child[1:] = np.where(degree_l[1:] > 0, starts, 0)

    depth_l = np.zeros(n + 1, dtype=np.int64)
    for v in range(2, n + 1):
        depth_l[v] = depth_l[parent_l[v]] + 1

    ext_of_label = [None] + [t.ids[int(v)] for v in bfsq]
    return CanonicalTree(
        weight_l, size_l, count_l, degree_l, parent_l, first_child, depth_l, ext_of_label
    )


def read_csv(path) -> InputTree:
    """Parse the ``id,parent,weight`` CSV format (root row has empty parent)."""
    records: list[Record] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip().lower() for c in header[:3]] != ["id", "parent", "weight"]:
            raise TreeError("CSV header must be 'id,parent,weight'")
        for row in reader:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 3:
                raise TreeError(f"malformed CSV row: {row!r}")
            try:
                weight = float(row[2])
            except ValueError as exc:
                raise TreeError(f"bad weight in CSV row {row!r}") from exc
            records.append((row[0], row[1] or None, weight))
    return build_tree(records)


def read_json(path) -> InputTree:
    """Parse the nested JSON format ``{"id":..., "weight":..., "children":[...]}``."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    records: list[Record] = []
    stack = [(doc, None)]
    while stack:
        node, parent_id = stack.pop()
        if not isinstance(node, dict) or "id" not in node or "weight" not in node:
            raise TreeError("JSON nodes need 'id' and 'weight' fields")
        node_id = str(node["id"])
        records.append((node_id, parent_id, float(node["weight"])))
        kids = node.get("children", [])
        if not isinstance(kids, list):
            raise TreeError(f"'children' of {node_id!r} must be a list")
        for child in reversed(kids):
            stack.append((child, node_id))
    return build_tree(records)
