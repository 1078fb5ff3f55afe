"""Independent check of the CLI's result JSON against the benchmark's own arrays.

Nothing here uses the package: subtrees, weights and entropies are
recomputed from the parent and weight arrays the benchmark generated.
"""

from __future__ import annotations

import math

import numpy as np

ENTROPY_TOL = 1e-9


class CheckError(Exception):
    """An output violates a property every summary tree must have."""


class Reference:
    """Subtree counts and id lookup of a tree given as a parent array."""

    def __init__(self, parents: np.ndarray, weights: np.ndarray, ids: list):
        self.n = n = parents.shape[0]
        self.parents = parents
        self.weights = weights
        self.ids = ids
        self.index = {x: i for i, x in enumerate(ids)}
        self.root = int(np.flatnonzero(parents < 0)[0])
        self.W = math.fsum(weights.tolist())
        kids: list[list[int]] = [[] for _ in range(n)]
        for v, p in enumerate(parents.tolist()):
            if p >= 0:
                kids[p].append(v)
        order = [self.root]
        for v in order:
            order.extend(kids[v])
        count = np.ones(n, dtype=np.int64)
        par = parents.tolist()
        for v in reversed(order[1:]):
            count[par[v]] += count[v]
        self.count = count
        # parent array with the root's parent mapped to an extra slot n,
        # so that owner[parent_ext[v]] is defined for every node
        self.parent_ext = np.where(parents < 0, n, parents)


def entropy_bits(node_weights, W: float) -> float:
    return -math.fsum((w / W) * math.log2(w / W) for w in node_weights if w > 0.0)


def check_result(doc: dict, ref: Reference, K: int) -> list[float]:
    """Check every per-k summary tree in ``doc``; return the entropies by k."""
    results = doc["results"]
    want_k = min(K, ref.n)
    if [r["k"] for r in results] != list(range(1, want_k + 1)):
        raise CheckError(f"results cover k={[r['k'] for r in results]}, want 1..{want_k}")
    if abs(doc["W"] - ref.W) > 1e-9 * ref.W:
        raise CheckError(f"total weight {doc['W']} != {ref.W}")
    ents = [check_tree(r, ref) for r in results]
    for k, e in enumerate(ents, start=1):
        if e > math.log2(k) + ENTROPY_TOL:
            raise CheckError(f"k={k}: entropy {e} above lg k")
        if k > 1 and e < ents[k - 2] - ENTROPY_TOL:
            raise CheckError(f"k={k}: entropy {e} below k={k - 1}'s {ents[k - 2]}")
    return ents


def check_tree(res: dict, ref: Reference) -> float:
    """Check one k-node summary tree; return its (checked) entropy."""
    k = res["k"]
    nodes = res["nodes"]
    where = f"k={k}"
    if len(nodes) != k:
        raise CheckError(f"{where}: {len(nodes)} nodes")
    index = ref.index
    pos = {}
    for i, nd in enumerate(nodes):
        if nd["label"] in pos:
            raise CheckError(f"{where}: label {nd['label']!r} repeated")
        pos[nd["label"]] = i

    owner = np.full(ref.n + 1, -1, dtype=np.int64)
    members = []
    for i, nd in enumerate(nodes):
        try:
            idx = np.fromiter((index[m] for m in nd["members"]), dtype=np.int64)
        except KeyError as exc:
            raise CheckError(f"{where}: unknown member id {exc}") from None
        if idx.size == 0:
            raise CheckError(f"{where}: node {nd['label']!r} is empty")
        if (owner[idx] >= 0).any() or np.unique(idx).size != idx.size:
            raise CheckError(f"{where}: an id is in two member sets")
        owner[idx] = i
        members.append(idx)
    if (owner[: ref.n] < 0).any():
        raise CheckError(f"{where}: member sets miss {int((owner[: ref.n] < 0).sum())} ids")

    sums = [float(ref.weights[idx].sum()) for idx in members]
    wtol = 1e-9 * ref.W
    groups_under: dict[int, int] = {}
    roots = 0
    for i, nd in enumerate(nodes):
        idx = members[i]
        if abs(nd["weight"] - sums[i]) > wtol:
            raise CheckError(f"{where}: node {nd['label']!r} weight {nd['weight']} != {sums[i]}")
        # tops: members whose parent lies outside this member set
        tops = idx[owner[ref.parent_ext[idx]] != i]
        kind = nd["kind"]
        if kind == "group":
            if not nd["label"].startswith("other:"):
                raise CheckError(f"{where}: group label {nd['label']!r}")
            p = index.get(nd["label"][len("other:"):], -1)
            if tops.size < 2 or (ref.parents[tops] != p).any():
                raise CheckError(f"{where}: group {nd['label']!r} is not 2+ children of its parent")
            if int(ref.count[tops].sum()) != idx.size:
                raise CheckError(f"{where}: group {nd['label']!r} holds partial subtrees")
            attach = p
        elif kind in ("singleton", "subtree"):
            a = index.get(nd["label"], -1)
            if tops.size != 1 or int(tops[0]) != a:
                raise CheckError(f"{where}: node {nd['label']!r} is not anchored at its label")
            want = 1 if kind == "singleton" else int(ref.count[a])
            if idx.size != want:
                raise CheckError(f"{where}: {kind} {nd['label']!r} has {idx.size} members, want {want}")
            attach = int(ref.parents[a])
        else:
            raise CheckError(f"{where}: unknown kind {kind!r}")

        if nd["parent"] is None:
            roots += 1
            if kind == "group" or attach >= 0:
                raise CheckError(f"{where}: root node {nd['label']!r} does not hold the tree root")
            continue
        j = pos.get(nd["parent"])
        if j is None or nodes[j]["kind"] != "singleton" or nodes[j]["label"] != ref.ids[attach]:
            raise CheckError(f"{where}: node {nd['label']!r} hangs under {nd['parent']!r}")
        if kind == "group":
            groups_under[j] = groups_under.get(j, 0) + 1
            if groups_under[j] > 1:
                raise CheckError(f"{where}: {nd['parent']!r} has two groups")
    if roots != 1:
        raise CheckError(f"{where}: {roots} root nodes")

    ent = entropy_bits(sums, ref.W)
    if abs(res["entropy_bits"] - ent) > ENTROPY_TOL:
        raise CheckError(f"{where}: entropy_bits {res['entropy_bits']} != recomputed {ent}")
    return ent
