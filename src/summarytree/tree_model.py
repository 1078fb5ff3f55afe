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

Every input tree is checked by one builder, :func:`_from_blocks`, which
takes rows a block at a time and hands columns of ids, parent rows and
weights to :func:`_checked`: :func:`build_tree` (which :func:`read_json`
calls) passes its records as one block, and :func:`read_csv` passes
blocks of :data:`_BLOCK_ROWS` rows from one of two splitters over the
file's bytes, read once.  :func:`from_arrays` passes its parent indices
to :func:`_checked`.  A plain file is split at its commas and newlines
without the ``csv`` module: after any BOM it is UTF-8 with no ``"``, no
NUL and no ``\r`` outside ``\r\n``, its header passes the header check,
every later line holds exactly two commas and no field is longer than
``csv.field_size_limit()``.  ``csv.reader`` would cut such a file at the
same commas and line ends.  Any other file is read by ``csv.reader``.
(Python 3.10's ``csv`` rejects a NUL, 3.11 reads it, so a NUL always
takes the ``csv.reader`` path.)

Parent ids are resolved a block at a time, so a parent id string is
kept past its block only while it names no id yet: where each parent's
row comes before its children's or in the same block, no column of
parent id strings is built.  While it reads, the load holds the file's
bytes, the ids, the id dict, at most two blocks' strings and those
waiting parent ids; past the load, the :class:`InputTree` holds the id
strings, the ids tuple and two n-sized arrays.  A file written children
first keeps nearly every parent id, as a column would, and 16 bytes a
row beside it.

Every canonical tree comes from one builder, :func:`_canonical`:
:func:`canonicalize` calls it with the external ids' order as the tie
order, and the approximation solver's ``reduce_tree`` calls it on the
reduced tree with the input labels' order.  Subtree sizes are summed in
one fixed float64 order, on which byte-identical results depend:
``size[p] = w[p] + size[c_last] + ... + size[c_first]``, added left to
right, where ``c_first .. c_last`` are p's children in increasing input
index.  :func:`_fold` keeps that order while it folds one depth level
at a time, deepest first.  A total that overflows in this order is a
:class:`TreeError`, even where ``weights.sum()`` is finite.

External string ids survive in a label <-> id mapping that is emitted
alongside all results.
"""

from __future__ import annotations

import codecs
import copy
import csv
import io
import json
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Iterable, Iterator, Optional, Sequence

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

# A depth level whose parents have fewer children than this per degree bucket
# is folded by the scalar loop: there numpy's fixed cost per bucket outweighs
# the work.  Levels of 1 parent fold equally fast either way near 40 children.
_NARROW = 40

# Rows a CSV is split into at a time; each block's weights are parsed and its
# parent ids resolved before the next block is split.
_BLOCK_ROWS = 1 << 12

# The parent row of a parent id that names no id of its own or an earlier block.
_PENDING = -2


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

    ``parent_id`` is ``None`` (or empty) for the root.  The records are
    unzipped into the checked builder that :func:`read_csv` also uses.

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
    _check_ids(ids)
    _no_repeats(ids, len(set(ids)))
    if not all(issubclass(t, (str, type(None))) for t in set(map(type, parent_ids))):
        i = next(i for i, p in enumerate(parent_ids) if not isinstance(p, (str, type(None))))
        raise TreeError(f"parent id {parent_ids[i]!r} of id {ids[i]!r} is not a string")
    return _from_blocks([(ids, parent_ids, weights,
                          lambda i: f"weight {weights[i]!r} for id {ids[i]!r} is not a float",
                          _float if _has_non_numbers(weights) else float)])


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
        _check_ids(ids)
        _no_repeats(ids, len(set(ids)))
    return _checked(ids, parent_idx, weights)


def _has_non_numbers(values) -> bool:
    """Whether any of ``values`` is a :data:`_NOT_NUMBERS`; one C-speed pass over their types."""
    return any(issubclass(t, _NOT_NUMBERS) for t in set(map(type, values)))


def _float(x) -> float:
    """``float(x)``, except that a :data:`_NOT_NUMBERS` raises ``TypeError``."""
    if isinstance(x, _NOT_NUMBERS):
        raise TypeError(x)
    return float(x)


def _floats(values: Sequence, message, convert=float) -> np.ndarray:
    """``convert`` each value to float64; raises ``TreeError(message(i))`` at the first it rejects."""
    rest = iter(values)
    try:
        return np.fromiter(map(convert, rest), np.float64, len(values))
    except (TypeError, ValueError, OverflowError):  # rest stops just past the rejected value
        raise TreeError(message(len(values) - 1 - sum(1 for _ in rest))) from None


def _check_ids(ids: Sequence) -> None:
    """Raise on the first id that is not a string."""
    if not all(issubclass(t, str) for t in set(map(type, ids))):
        node_id = next(x for x in ids if not isinstance(x, str))
        raise TreeError(f"id {node_id!r} is not a string")


def _no_repeats(ids: Sequence, distinct: int) -> None:
    """Raise on the first id that repeats, given how many of ``ids`` are distinct."""
    if distinct < len(ids):
        seen: set = set()
        for node_id in ids:
            if node_id in seen:
                raise TreeError(f"duplicate id {node_id!r}")
            seen.add(node_id)


def _from_blocks(blocks: Iterable[tuple]) -> InputTree:
    """Check rows, given a block at a time, into an :class:`InputTree`.

    A block is ``(ids, parent ids, weight fields, message, convert)``.  Its
    weights are parsed by :func:`_floats` before the next block is taken,
    so ``message`` may read the block by its own row numbers.  Then its
    ids enter the id -> row dict and its parent ids are mapped through it;
    None and "" map to -1, the root, even where "" is also an id.  A parent
    id that names no id yet keeps its string, beside its row, until every
    block is in.  Then a repeated id is reported, and then
    :func:`_checked`'s faults.
    """
    ids, index = [], {}
    parent, weights = [np.empty(0, np.int64)], [np.empty(0)]
    waiting_rows, waiting_ids = [np.empty(0, np.int64)], []
    for block_ids, parent_ids, fields, message, convert in blocks:
        weights.append(_floats(fields, message, convert))
        lo = len(ids)
        ids += block_ids
        index.update(zip(block_ids, range(lo, len(ids))))
        own = index.pop("", None)  # the row of an id ""
        index[None] = index[""] = -1
        rows = np.fromiter(map(index.get, parent_ids, repeat(_PENDING)), np.int64, len(block_ids))
        del index[None], index[""]
        if own is not None:
            index[""] = own
        miss = np.flatnonzero(rows == _PENDING)
        waiting_rows.append(miss + lo)
        waiting_ids += map(parent_ids.__getitem__, miss.tolist())
        parent.append(rows)
    _no_repeats(ids, len(index))
    parent = np.concatenate(parent)
    rows = np.concatenate(waiting_rows)
    named = np.fromiter(map(index.get, waiting_ids, repeat(len(ids))), np.int64, rows.shape[0])
    parent[rows] = named
    lost = np.flatnonzero(named == len(ids)).tolist()
    unknown = dict(zip(rows[lost].tolist(), map(waiting_ids.__getitem__, lost)))
    del index, waiting_ids, rows, named  # only the tree's columns are held past here
    ids = tuple(ids)
    weights = np.concatenate(weights)
    return _checked(ids, parent, weights, unknown)


def _checked(
    ids: tuple,
    parent_idx: np.ndarray,
    weights: np.ndarray,
    unknown: Optional[dict] = None,
) -> InputTree:
    """Validate a tree with unique ids, given as arrays.

    ``parent_idx`` is -1 at a root; any other value outside ``0..n-1`` is
    an unknown parent, reported by its parent id in ``unknown``, a dict
    from row to parent id, where it holds the row.  Of the per-node
    faults, the one at the smallest index is reported.
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
        ref = (unknown or {}).get(i, int(parent_idx[i]))
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


def _fold(
    parent: np.ndarray, root: int, weight: np.ndarray, depth: np.ndarray, degree: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Subtree sizes and counts, each size summed in the module docstring's order.

    The parents are sorted once by (depth, degree) and folded a depth
    level at a time, deepest first.  A level whose parents have at least
    :data:`_NARROW` children per degree bucket is folded a bucket at a
    time: the rows ``[w[p], size[c_last], ..., size[c_first]]`` of its
    parents are summed by ``np.add.accumulate``, which adds in sequence
    (``np.add.reduceat`` does not).  Each stretch of narrower levels is
    folded by one scalar loop over Python lists, so a deep thin tree pays
    no numpy call per level.
    """
    n = parent.shape[0]
    size = weight.copy()
    count = np.ones(n, dtype=np.int64)
    pars = np.flatnonzero(degree)
    if pars.shape[0] == 0:
        return size, count
    key = depth[pars] * n + degree[pars]
    order = np.argsort(key)
    pars, key = pars[order], key[order]
    # Children grouped by parent in pars order, each parent's by increasing
    # index: kids[off[i]:off[i + 1]] are the children of pars[i].
    rank = np.zeros(n, dtype=np.int64)
    rank[pars] = np.arange(pars.shape[0])
    kid_key = rank[parent] * n + np.arange(n)
    kid_key[root] = -1
    kids = np.argsort(kid_key)[1:]
    off = np.concatenate(([0], np.cumsum(degree[pars])))

    # Levels and buckets as ranges of pars; a stretch is a run of levels
    # that are all narrow or all wide.
    level = np.flatnonzero(np.diff(depth[pars], prepend=-1))
    level_end = np.append(level[1:], pars.shape[0])
    new_bucket = np.diff(key, prepend=-1) != 0
    bucket = np.flatnonzero(new_bucket)
    bucket_end = np.append(bucket[1:], pars.shape[0])
    seen = np.cumsum(new_bucket)  # buckets begun up to each position
    b_lo, b_hi = seen[level] - 1, seen[level_end - 1]  # bucket[b_lo:b_hi] are a level's
    narrow = off[level_end] - off[level] < _NARROW * (b_hi - b_lo)
    first = np.flatnonzero(np.diff(narrow, prepend=not narrow[0]))
    last = np.append(first[1:], level.shape[0]) - 1
    slot = np.empty(n, dtype=np.int64)
    for i, j in zip(first.tolist()[::-1], last.tolist()[::-1]):  # stretches deepest first
        if narrow[i]:
            # Levels i..j one child at a time, deepest child first, on lists
            # that hold only the nodes this stretch touches.
            v = kids[off[level[i]] : off[level_end[j]]]
            local = np.concatenate((v, pars[level[i] : level_end[i]]))
            slot[local] = np.arange(local.shape[0])
            s, c = size[local].tolist(), count[local].tolist()
            for x, y in zip(range(v.shape[0] - 1, -1, -1), slot[parent[v[::-1]]].tolist()):
                s[y] += s[x]
                c[y] += c[x]
            size[local], count[local] = s, c
            continue
        own = slice(b_lo[i], b_hi[j])
        for a, b in zip(bucket[own][::-1].tolist(), bucket_end[own][::-1].tolist()):
            p = pars[a:b]
            ch = kids[off[a] : off[b]].reshape(b - a, -1)
            rows = np.empty((ch.shape[1] + 1, b - a))
            rows[0] = size[p]
            rows[1:] = size[ch.T[::-1]]
            size[p] = np.add.accumulate(rows, out=rows)[-1]
            count[p] += count[ch].sum(axis=1)
    return size, count


def _canonical(
    parent: np.ndarray, root: int, weight: np.ndarray, by_tie: np.ndarray, ids: Sequence
) -> tuple["CanonicalTree", np.ndarray]:
    """Label a validated tree: children by (size, tie), labels breadth-first.

    ``parent[i]`` is node i's parent index, -1 at ``root``; ``by_tie``
    lists the node indices in increasing tie order, which must tell
    apart siblings of equal size; ``ids[i]`` is node i's external id.
    Returns the tree and the label of every node index.  Raises
    :class:`TreeError` when the folded total overflows.
    """
    n = parent.shape[0]
    weight = np.asarray(weight, dtype=np.float64)
    depth, _ = _path_sums(parent, root, np.ones(n, dtype=np.int64))
    degree = np.bincount(parent + 1, minlength=n + 1)[1:]
    with np.errstate(over="ignore"):
        size, count = _fold(parent, root, weight, depth, degree)
    if not np.isfinite(size[root]):  # the fold can overflow where _checked's weights.sum() did not
        raise TreeError("total weight overflows a float64")

    # Children grouped by parent in (size, tie) order; the root sorts first.
    # Each n-sized temporary is freed once it has been read.
    key = np.empty(n, dtype=np.int64)
    key[by_tie[np.argsort(size[by_tie], kind="stable")]] = np.arange(n)  # the position
    key += parent * n
    kids = np.argsort(key)[1:]
    del key
    kid_count = count[kids]
    before = np.cumsum(kid_count)
    before -= kid_count
    del kid_count
    kid_parent = parent[kids]
    first = np.ones(n - 1, dtype=bool)
    first[1:] = kid_parent[1:] != kid_parent[:-1]
    del kid_parent
    # A child's preorder offset below its parent: 1 plus the counts of
    # its earlier siblings.
    start = np.where(first, before, 0)
    del first
    before -= np.maximum.accumulate(start, out=start)
    before += 1
    del start
    offset = np.zeros(n, dtype=np.int64)
    offset[kids] = before
    del kids, before
    pre_pos, _ = _path_sums(parent, root, offset)
    del offset

    # Breadth-first labels: within one depth, BFS order is preorder.
    key = depth * n
    key += pre_pos
    order = np.argsort(key)
    del key
    label = np.empty(n, dtype=np.int64)
    label[order] = np.arange(1, n + 1)

    # Each per-node array is relabelled in turn, and the original freed.
    size = _by_label(size, order)
    count = _by_label(count, order)
    depth = _by_label(depth, order)
    degree = _by_label(degree, order)
    pre_pos = _by_label(pre_pos, order)
    parent_l = np.zeros(n + 1, dtype=np.int64)
    parent_l[2:] = label[parent[order[1:]]]
    first_child = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degree[1:-1], out=first_child[2:])
    first_child[1:] += 2
    first_child[degree == 0] = 0
    preorder = np.empty(n, dtype=np.int64)
    preorder[pre_pos[1:]] = np.arange(1, n + 1)
    # A gather of object pointers: no Python int per node, as order.tolist() would make.
    ext = np.empty(n, dtype=object)
    ext[:] = ids
    ext_of_label = np.empty(n + 1, dtype=object)  # entry 0 stays None
    np.take(ext, order, out=ext_of_label[1:])
    del ext

    tree = CanonicalTree(
        _by_label(weight, order),
        size,
        count,
        degree,
        parent_l,
        first_child,
        depth,
        preorder,
        pre_pos,
        ext_of_label.tolist(),
    )
    return tree, label


@dataclass(eq=False, repr=False)
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

    weight: np.ndarray
    size: np.ndarray
    count: np.ndarray
    degree: np.ndarray
    parent: np.ndarray
    first_child: np.ndarray
    depth: np.ndarray
    preorder: np.ndarray
    pre_pos: np.ndarray
    ext_of_label: list

    @property
    def n(self) -> int:
        return self.weight.shape[0] - 1

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
    by_id = np.fromiter(sorted(range(t.n), key=t.ids.__getitem__), np.int64, t.n)
    tree, label = _canonical(t.parent_idx, t.root, t.weights, by_id, t.ids)
    tree.id_rank = np.zeros(t.n + 1, dtype=np.int64)
    tree.id_rank[label[by_id]] = np.arange(t.n)
    return tree


def read_csv(path) -> InputTree:
    """Parse the ``id,parent,weight`` CSV format (root row has empty parent).

    The file is read once and split into blocks of rows by
    :func:`_plain_blocks` if it is plain, else by :func:`_csv_blocks`;
    :func:`_from_blocks` checks them as it checks :func:`build_tree`'s
    records.  Blank lines and fields after the third are skipped.  Of a
    short row, a field longer than ``csv.field_size_limit()`` and a weight
    that ``float()`` rejects, the one in the earliest row is reported; then
    a repeated id, then the builder's faults.  A byte that is not UTF-8 is
    reported with its line and file offset.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    body = data.removeprefix(codecs.BOM_UTF8)
    ends = _plain_line_ends(body)
    blocks = _csv_blocks(data) if ends is None else _plain_blocks(body, ends)
    del data, body  # the splitter drops the bytes once it has split them
    return _from_blocks(blocks)


def _is_header(row: list) -> bool:
    return [c.strip().lower() for c in row[:3]] == ["id", "parent", "weight"]


def _bad_row(row: list) -> str:
    return f"bad weight in CSV row {row!r}"


def _plain_blocks(data: bytes, ends: np.ndarray) -> Iterator[tuple]:
    """The blocks of a plain CSV file, ``data`` after any BOM with its line ``ends``.

    The module docstring says which files are plain; their blocks are the
    ones :func:`_csv_blocks` would give.
    """
    n = ends.shape[0] - 1
    for lo in range(0, n, _BLOCK_ROWS):
        text = data[ends[lo] + 1 : ends[min(lo + _BLOCK_ROWS, n)]].decode().replace("\r", "")
        fields = text.replace("\n", ",").split(",")
        yield (fields[0::3], fields[1::3], fields[2::3],
               lambda i: _bad_row(fields[3 * i : 3 * i + 3]), float)


def _plain_line_ends(data: bytes) -> Optional[np.ndarray]:
    """Offsets of the ``\\n`` that ends each line of a plain CSV, the header's first.

    A last line without one ends at ``len(data)``.  Returns None when
    ``data`` is not plain.  Commas and newlines are found in one numpy
    pass over the bytes; no byte of a multibyte UTF-8 character equals
    either.
    """
    if b'"' in data or b"\0" in data or b"\n" not in data:
        return None
    if b"\r" in data and data.count(b"\r") != data.count(b"\r\n"):
        return None
    try:  # before any weight is parsed: csv.reader's error order depends on the bad byte's place
        data.decode()
    except UnicodeDecodeError:
        return None
    b = np.frombuffer(data, np.uint8)
    sep = b == ord(",")
    sep |= b == ord("\n")  # in place: a freed temporary can stay resident in the heap
    sep = np.flatnonzero(sep)
    kind = b[sep]
    head = int(np.argmax(kind == ord("\n")))
    rows = kind[head + 1 :]
    if not data.endswith(b"\n"):
        rows = np.append(rows, ord("\n"))
    # In bytes, and with the \r of a \r\n: never shorter than the field csv.reader sees.
    longest = max(int(sep[0]), int(np.diff(sep).max(initial=1)) - 1, len(data) - 1 - int(sep[-1]))
    if (rows.shape[0] % 3 or (rows.reshape(-1, 3) != np.frombuffer(b",,\n", np.uint8)).any()
            or longest > csv.field_size_limit()
            or not _is_header(data[: sep[head]].decode().removesuffix("\r").split(","))):
        return None
    ends = sep[head::3]
    return ends.copy() if data.endswith(b"\n") else np.append(ends, len(data))


def _csv_blocks(data: bytes) -> Iterator[tuple]:
    """The blocks of any CSV file, ``data`` with any BOM, read by ``csv.reader``.

    On a short row, a ``csv.Error`` or a byte that is not UTF-8 the rows
    read so far are yielded before the fault is raised, so that a bad
    weight in an earlier row is reported first.  A row of more than three
    fields is kept whole for its bad-weight message.
    """
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline=""))
    ids, parent_ids, fields, long_rows = [], [], [], {}

    def message(i: int) -> str:
        return _bad_row(long_rows.get(i, [ids[i], parent_ids[i], fields[i]]))

    try:
        header = next(reader, None)
        if header is None or not _is_header(header):
            raise TreeError("CSV header must be 'id,parent,weight'")
        for row in reader:
            if len(row) != 3:
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) < 3:
                    raise TreeError(f"malformed CSV row: {row!r}")
                long_rows[len(ids)] = row
            ids.append(row[0])
            parent_ids.append(row[1])
            fields.append(row[2])
            if len(ids) == _BLOCK_ROWS:
                yield ids, parent_ids, fields, message, float
                ids, parent_ids, fields, long_rows = [], [], [], {}
    except (TreeError, csv.Error, UnicodeDecodeError) as exc:
        yield ids, parent_ids, fields, message, float
        if isinstance(exc, csv.Error):  # a field over the limit, or a NUL before Python 3.11
            raise TreeError(f"CSV line {reader.line_num}: {exc}") from None
        if isinstance(exc, UnicodeDecodeError):  # its position is inside one decoded chunk
            raise _undecodable(data, exc) from None
        raise
    yield ids, parent_ids, fields, message, float


def _undecodable(data: bytes, exc: UnicodeDecodeError) -> TreeError:
    """The error for a file that is not UTF-8: the line and file offset of its first bad byte.

    ``data`` is the file's bytes, with any BOM; ``exc`` is the reader's
    error, whose position is inside one decoded chunk, and is reported as
    it is if ``data`` decodes.
    """
    try:
        data.decode("utf-8-sig")
    except UnicodeDecodeError as first:
        at = len(data) - len(first.object) + first.start  # the object lacks any BOM
        # csv.reader's lines, as its line_num counts them: each ends at \n, \r\n or a lone \r.
        line = data.count(b"\n", 0, at) + data.count(b"\r", 0, at) - data.count(b"\r\n", 0, at) + 1
        return TreeError(f"CSV line {line}: 'utf-8' codec can't decode byte {data[at]:#04x} "
                         f"at file offset {at}: {first.reason}")
    return TreeError(str(exc))


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
