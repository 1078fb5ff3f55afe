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

Every canonical tree comes from one builder, :func:`_canonical`:
:func:`canonicalize` calls it with the rank of the external ids as the
tie key, and the approximation solver's ``reduce_tree`` calls it on the
reduced tree with the input label as the tie key.  Subtree sizes are
summed in one fixed float64 order, on which byte-identical results
depend: ``size[p] = w[p] + size[c_last] + ... + size[c_first]``, added
left to right, where ``c_first .. c_last`` are p's children in
increasing input index.

External string ids survive in a label <-> id mapping that is emitted
alongside all results.
"""

from __future__ import annotations

import copy
import csv
import json
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Iterable, Optional, Sequence

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

# float() or numpy's float64 cast takes these, but they are not weights; the
# cast drops the imaginary part of a numpy complex with only a warning.
_NOT_NUMBERS = (bool, np.bool_, str, bytes, np.complexfloating)


class TreeError(ValueError):
    """Raised for structurally invalid or degenerate input trees."""


@dataclass(frozen=True)
class InputTree:
    """A validated rooted tree over external ids, prior to canonicalization.

    ``parent_idx[i]`` is the index of node i's parent, or -1 for the root.
    Invariants (enforced by :func:`build_tree` and :func:`from_arrays`):
    unique ids, exactly one root, acyclic parent links, nonnegative
    weights, positive finite total.
    """

    ids: tuple[str, ...]
    parent_idx: np.ndarray
    weights: np.ndarray
    root: int

    @property
    def n(self) -> int:
        return len(self.ids)


def build_tree(records: Iterable[Record]) -> InputTree:
    """Validate ``(id, parent_id, weight)`` records into an :class:`InputTree`.

    ``parent_id`` is ``None`` (or empty) for the root.

    Raises:
        TreeError: an id, or a parent id other than None, that is not a
            string, duplicate id, unknown parent, zero or multiple roots,
            cycle, a weight that is a bool, a string, bytes, negative or
            that ``float()`` rejects, or a total weight that is zero or overflows.
    """
    recs = list(records)
    if not recs:
        raise TreeError("no records")
    ids, parent_ids, weights = zip(*recs)
    n = len(ids)
    index = _index(ids)
    if not all(issubclass(t, (str, type(None))) for t in set(map(type, parent_ids))):
        i = next(i for i, p in enumerate(parent_ids) if not isinstance(p, (str, type(None))))
        raise TreeError(f"parent id {parent_ids[i]!r} of id {ids[i]!r} is not a string")
    index[None] = index[""] = -1
    # An unknown parent maps to n, which _checked reports.
    parent_idx = np.fromiter(map(index.get, parent_ids, repeat(n)), np.int64, n)
    rest = iter(weights)
    try:
        w = np.fromiter(map(_float if _has_non_numbers(weights) else float, rest), np.float64, n)
    except (TypeError, ValueError, OverflowError):  # rest stops just past the rejected weight
        i = n - 1 - sum(1 for _ in rest)
        raise TreeError(f"weight {weights[i]!r} for id {ids[i]!r} is not a float") from None
    return _checked(ids, parent_idx, w, parent_ids)


def from_arrays(
    parents: Sequence[int],
    weights: Sequence[float],
    ids: Optional[Sequence[str]] = None,
) -> InputTree:
    """Build an :class:`InputTree` from a parent-index array.

    ``parents[i]`` is the index of node i's parent, with -1 marking the
    root.  When ``ids`` is omitted, zero-padded decimal ids are generated
    so that lexicographic and numeric order coincide.  Runs the same
    validation as :func:`build_tree`, and also rejects arrays of
    different lengths, parents that are not int64 integers and weights
    that are bools, strings, bytes or complex or that do not convert to
    float64.
    """
    parent_idx = np.asarray(parents)
    if parent_idx.dtype.kind != "i":  # checked first: the cast would truncate or wrap
        try:
            p = parent_idx.astype(np.float64)
        except (TypeError, ValueError, OverflowError):
            raise TreeError("parent indices must be integers") from None
        if not (np.isfinite(p) & (p == np.trunc(p)) & (abs(p) < 2.0**63)).all():
            raise TreeError("parent indices must be integers in the int64 range")
    parent_idx = parent_idx.astype(np.int64)
    # np.asarray([True, 2.0]) is float64, so other input is checked element by element.
    if not isinstance(weights, np.ndarray):
        weights = np.asarray(weights, dtype=object)
    if weights.dtype == object:
        numbers = not _has_non_numbers(weights.ravel())
    else:
        numbers = weights.dtype.kind in "iuf"
    try:
        if not numbers:
            raise TypeError("weights hold bools, strings, bytes or complex values")
        weights = np.array(weights, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise TreeError("weights must be numbers that convert to float64") from None
    n = parent_idx.size
    given = ids is not None
    ids = tuple(ids) if given else tuple(map(f"n{{:0{len(str(max(n - 1, 0)))}d}}".format, range(n)))
    if parent_idx.ndim != 1 or weights.shape != (n,) or len(ids) != n:
        raise TreeError("parents, weights and ids must be flat and of one length")
    if given:
        _index(ids)
    return _checked(ids, parent_idx, weights)


def _has_non_numbers(values) -> bool:
    """Whether any of ``values`` is a :data:`_NOT_NUMBERS`; one C-speed pass over their types."""
    return any(issubclass(t, _NOT_NUMBERS) for t in set(map(type, values)))


def _float(x) -> float:
    """``float(x)``, except that a :data:`_NOT_NUMBERS` raises ``TypeError``."""
    if isinstance(x, _NOT_NUMBERS):
        raise TypeError(x)
    return float(x)


def _index(ids: tuple) -> dict:
    """Map each id to its position; raises on the first id that is not a string or repeats."""
    if not all(issubclass(t, str) for t in set(map(type, ids))):
        node_id = next(x for x in ids if not isinstance(x, str))
        raise TreeError(f"id {node_id!r} is not a string")
    index = dict(zip(ids, range(len(ids))))
    if len(index) < len(ids):
        seen: set = set()
        for node_id in ids:
            if node_id in seen:
                raise TreeError(f"duplicate id {node_id!r}")
            seen.add(node_id)
    return index


def _checked(
    ids: tuple,
    parent_idx: np.ndarray,
    weights: np.ndarray,
    parent_ids: Optional[Sequence] = None,
) -> InputTree:
    """Validate a tree with unique ids, given as arrays.

    ``parent_idx`` is -1 at a root; any other value outside ``0..n-1`` is
    an unknown parent, reported through ``parent_ids`` when given.  Of the
    per-node faults, the one at the smallest index is reported.
    """
    n = len(ids)
    if n == 0:
        raise TreeError("no records")
    bad_weight = ~np.isfinite(weights) | (weights < 0.0)
    roots = np.flatnonzero(parent_idx == -1)
    faults = bad_weight | (parent_idx < -1) | (parent_idx >= n)
    if roots.shape[0] > 1:
        faults[roots[1]] = True
    if faults.any():
        i = int(np.argmax(faults))
        if bad_weight[i]:
            raise TreeError(f"negative or non-finite weight for id {ids[i]!r}")
        if parent_idx[i] == -1:
            raise TreeError(f"multiple roots: {ids[roots[0]]!r} and {ids[i]!r}")
        ref = int(parent_idx[i]) if parent_ids is None else parent_ids[i]
        raise TreeError(f"unknown parent {ref!r} for id {ids[i]!r}")
    if roots.shape[0] == 0:
        raise TreeError("no root (every node has a parent)")
    root = int(roots[0])

    # Reachability from the root doubles as cycle detection: with unique
    # parents and one root, any unreachable node sits on a cycle.
    _, reached = _path_sums(parent_idx, root, np.ones(n, dtype=np.int64))
    if not reached.all():
        raise TreeError(f"cycle detected involving id {ids[int(np.argmin(reached))]!r}")

    with np.errstate(over="ignore"):
        total = float(weights.sum())
    if not np.isfinite(total):
        raise TreeError("total weight overflows a float64")
    if total <= 0.0:
        raise TreeError("total weight is zero; entropy is undefined")
    return InputTree(ids, parent_idx, weights, root)


def _path_sums(
    parent: np.ndarray, root: int, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sum ``x`` over each node and its ancestors below the root.

    Pointer jumping: after r rounds every node has summed its 2**r
    nearest path nodes, so O(log depth) array passes suffice.  Returns
    the sums and a mask of the nodes that reach the root; the round cap
    exceeds any tree depth, so nodes on a cycle come back unreached.
    """
    n = parent.shape[0]
    anc = parent.copy()
    anc[root] = root
    acc = x.copy()
    acc[root] = 0
    for _ in range(n.bit_length()):
        if (anc == root).all():
            break
        acc += acc[anc]
        anc = anc[anc]
    return acc, anc == root


def _by_label(a: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Reindex a per-node array by label, leaving index 0 zero."""
    out = np.zeros(order.shape[0] + 1, dtype=a.dtype)
    out[1:] = a[order]
    return out


def _canonical(
    parent: np.ndarray, root: int, weight: np.ndarray, tie: np.ndarray, ids: Sequence
) -> tuple["CanonicalTree", np.ndarray]:
    """Label a validated tree: children by (size, tie), labels breadth-first.

    ``parent[i]`` is node i's parent index, -1 at ``root``; ``tie`` must
    differ between siblings of equal size; ``ids[i]`` is node i's
    external id.  Returns the tree and the label of every node index.
    """
    n = parent.shape[0]
    weight = np.asarray(weight, dtype=np.float64)
    depth, _ = _path_sums(parent, root, np.ones(n, dtype=np.int64))

    # Sizes and counts, deepest first and within a depth by decreasing
    # index: the summation order of the module docstring.
    size = weight.tolist()
    count = [1] * n
    par = parent.tolist()
    for v in np.argsort(depth, kind="stable")[:0:-1].tolist():
        p = par[v]
        size[p] += size[v]
        count[p] += count[v]
    size = np.array(size, dtype=np.float64)
    count = np.array(count, dtype=np.int64)

    # Children grouped by parent in (size, tie) order; the root sorts first.
    kids = np.lexsort((tie, size, parent))[1:]
    kid_count = count[kids]
    before = np.cumsum(kid_count) - kid_count
    first = np.ones(n - 1, dtype=bool)
    first[1:] = parent[kids[1:]] != parent[kids[:-1]]
    # A child's preorder offset below its parent: 1 plus the counts of
    # its earlier siblings.
    offset = np.zeros(n, dtype=np.int64)
    offset[kids] = before - np.maximum.accumulate(np.where(first, before, 0)) + 1
    pre_pos, _ = _path_sums(parent, root, offset)

    # Breadth-first labels: within one depth, BFS order is preorder.
    order = np.lexsort((pre_pos, depth))
    label = np.empty(n, dtype=np.int64)
    label[order] = np.arange(1, n + 1)

    degree = _by_label(np.bincount(parent + 1, minlength=n + 1)[1:], order)
    parent_l = np.zeros(n + 1, dtype=np.int64)
    parent_l[2:] = label[parent[order[1:]]]
    first_child = np.zeros(n + 1, dtype=np.int64)
    starts = 2 + np.concatenate(([0], np.cumsum(degree[1:-1])))
    first_child[1:] = np.where(degree[1:] > 0, starts, 0)
    pre_pos_l = _by_label(pre_pos, order)
    preorder = np.empty(n, dtype=np.int64)
    preorder[pre_pos_l[1:]] = np.arange(1, n + 1)

    tree = CanonicalTree(
        _by_label(weight, order),
        _by_label(size, order),
        _by_label(count, order),
        degree,
        parent_l,
        first_child,
        _by_label(depth, order),
        preorder,
        pre_pos_l,
        [None, *map(ids.__getitem__, order.tolist())],
    )
    return tree, label


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
        ext_of_label: external id of each label (entry 0 is None).
        id_rank: position of each label's external id in sorted id order
            (entry 0 unused).  :func:`canonicalize` stores the rank its
            tie-break used; on other trees it is computed on first use.
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
        preorder: np.ndarray,
        pre_pos: np.ndarray,
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
        self.preorder = preorder
        self.pre_pos = pre_pos
        self.ext_of_label = ext_of_label

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

    @cached_property
    def id_rank(self) -> np.ndarray:
        rank = np.zeros(self.n + 1, dtype=np.int64)
        rank[sorted(range(1, self.n + 1), key=self.ext_of_label.__getitem__)] = np.arange(self.n)
        return rank

    @cached_property
    def ids_by_rank(self) -> np.ndarray:
        """External ids in sorted order, as an object array."""
        ids = np.empty(self.n, dtype=object)
        ids[self.id_rank[1:]] = self.ext_of_label[1:]
        return ids

    def with_scaled_weights(self, factor: float) -> "CanonicalTree":
        """Copy with every weight multiplied by ``factor`` (> 0).

        Scaling preserves the child order and labeling, so the result is
        canonical without re-sorting.
        """
        out = copy.copy(self)
        out.weight = self.weight * factor
        out.size = self.size * factor
        return out


def canonicalize(t: InputTree) -> CanonicalTree:
    """Compute sizes, counts, and degrees, sort children, and relabel.

    Children of every node are ordered nondecreasing by subtree size with
    ties broken by external id, and labels are assigned breadth-first so
    siblings are consecutive and every parent label precedes its
    children's.  The id rank behind the tie-break is kept as ``id_rank``.
    """
    rank = np.empty(t.n, dtype=np.int64)
    rank[sorted(range(t.n), key=t.ids.__getitem__)] = np.arange(t.n)
    tree, label = _canonical(t.parent_idx, t.root, t.weights, rank, t.ids)
    tree.id_rank = np.zeros(t.n + 1, dtype=np.int64)
    tree.id_rank[label] = rank
    return tree


def read_csv(path) -> InputTree:
    """Parse the ``id,parent,weight`` CSV format (root row has empty parent)."""
    records: list[Record] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
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
    with open(path, encoding="utf-8-sig") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise TreeError("JSON nesting is too deep to parse; write the tree as CSV") from None
    records: list[Record] = []
    stack = [(doc, None)]
    while stack:
        node, parent_id = stack.pop()
        if not isinstance(node, dict) or "id" not in node or "weight" not in node:
            raise TreeError("JSON nodes need 'id' and 'weight' fields")
        node_id = str(node["id"])
        records.append((node_id, parent_id, node["weight"]))
        kids = node.get("children", [])
        if not isinstance(kids, list):
            raise TreeError(f"'children' of {node_id!r} must be a list")
        for child in reversed(kids):
            stack.append((child, node_id))
    return build_tree(records)
