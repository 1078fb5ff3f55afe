"""Command-line entry point: solve input trees, emit JSON/DOT and statistics.

Exit codes: 0 success, 1 input or usage error, 2 internal invariant
violation.  Errors print one machine-parsable line to stderr in the form
``error: <category>: <reason>``.

The result JSON is byte for byte what ``json.dump(doc, fh, indent=1)``
writes for the result document.  :func:`_write_json` writes those bytes
straight from the summary trees, without building the document, because
the plain encoder formats large documents in pure Python.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence, TextIO

from .approx_solver import W0_CONSTANT, solve_approx
from .exact_solver import solve_exact, solve_greedy
from .generate import SHAPES, WEIGHT_KINDS, random_tree
from .summary import InvariantError, SummaryTree
from .tree_model import CanonicalTree, TreeError, canonicalize, read_csv, read_json

__all__ = ["main", "run", "emit_dot"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _labels(tree: SummaryTree, ct: CanonicalTree) -> list[str]:
    """Identifier of each summary node: its representative id, or other:<parent id>."""
    nodes = tree.nodes
    return [
        f"other:{ct.ext(nodes[nd.parent].anchor)}" if nd.kind == "group" else ct.ext(nd.anchor)
        for nd in nodes
    ]


def _dot_quote(text: str) -> str:
    """``text`` as a DOT quoted string."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'


def emit_dot(s: SummaryTree, ct: CanonicalTree) -> str:
    """Render one summary tree as a Graphviz digraph.

    Node labels show the representative id (or ``other (m)`` for a group
    of m members) plus the node weight; nodes and edges are emitted in
    sorted order so output is deterministic.  Ids and labels are quoted
    DOT strings, with backslashes, quotes and newlines escaped.
    """
    idents = []
    for ident, nd in zip(_labels(s, ct), s.nodes):
        if nd.kind == "group":
            members = sum(int(ct.count[c]) for c in nd.child_roots)
            text = f"other ({members}) ({nd.weight:.12g})"
        else:
            text = f"{ident} ({nd.weight:.12g})"
        idents.append((ident, text))
    lines = ["digraph summary {"]
    for ident, text in sorted(idents):
        lines.append(f"  {_dot_quote(ident)} [label={_dot_quote(text)}];")
    edges = []
    for i, nd in enumerate(s.nodes):
        if nd.parent >= 0:
            edges.append(f"  {_dot_quote(idents[nd.parent][0])} -> {_dot_quote(idents[i][0])};")
    lines.extend(sorted(edges))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _write_json(fh: TextIO, ct: CanonicalTree, args, trees, entropies, rounded, w0) -> None:
    """Write the result as ``json.dump(doc, fh, indent=1)`` writes ``doc``, plus a newline.

    ``doc`` holds the id map, ``W``, ``K``, ``algorithm`` and one
    ``results`` entry per tree; an approx result, whose ``rounded``
    entropies and ``w0`` are not None, adds each entry's
    ``entropy_bits_rounded`` and, last, ``epsilon``, ``w0`` and
    ``w0_constant``.  Every piece is formatted as the plain encoder
    formats it: strings by its C string encoder, and numbers, all finite,
    by ``float.__repr__`` and ``int.__repr__`` (``repr`` of a numpy float
    is not its JSON form).  Member lists are never empty.  The trees of
    different k share the member tuple of a node they have in common, so
    each distinct tuple is encoded once, and its encoding is dropped
    after the last k that holds it.
    """
    enc = encode_basestring_ascii
    num = float.__repr__
    blocks: dict = {}  # id() of a member tuple, alive through the write -> its encoded lines
    last = {id(nd.members): k for k, tree in enumerate(trees, start=1) for nd in tree.nodes}
    pairs = ",\n  ".join(map("{}: {}".format, map(enc, ct.ext_of_label[1:]), range(1, ct.n + 1)))
    fh.write(f'{{\n "input_id_map": {{\n  {pairs}\n }},\n "W": {num(ct.W)},\n')
    fh.write(f' "K": {int.__repr__(args.K)},\n "algorithm": {enc(args.algorithm)},\n "results": [')
    for k, (tree, ent) in enumerate(zip(trees, entropies), start=1):
        fh.write(f'{"," * (k > 1)}\n  {{\n   "k": {k},\n   "entropy_bits": {num(ent)},\n')
        fh.write('   "nodes": [')
        labels = _labels(tree, ct)
        for i, (label, nd) in enumerate(zip(labels, tree.nodes)):
            members = blocks.get(id(nd.members))
            if members is None:
                members = blocks[id(nd.members)] = ",\n      ".join(map(enc, nd.members))
            parent = "null" if nd.parent < 0 else enc(labels[nd.parent])
            fh.write(f'{"," * (i > 0)}\n    {{\n     "label": {enc(label)},\n')
            fh.write(f'     "kind": {enc(nd.kind)},\n     "members": [\n      {members}\n     ],\n')
            fh.write(f'     "weight": {num(nd.weight)},\n     "parent": {parent}\n    }}')
        fh.write("\n   ]")
        if rounded is not None:
            fh.write(f',\n   "entropy_bits_rounded": {num(rounded[k - 1])}')
        fh.write("\n  }")
        for key in [key for key in blocks if last[key] == k]:
            del blocks[key]
    fh.write("\n ]")
    if rounded is not None:
        fh.write(f',\n "epsilon": {num(args.epsilon)},\n "w0": {int.__repr__(w0)},\n')
        fh.write(f' "w0_constant": {num(W0_CONSTANT)}')
    fh.write("\n}\n")


def _solve_parser() -> _Parser:
    p = _Parser(
        prog="summarytree",
        description="Maximum-entropy summary trees of weighted rooted trees",
    )
    p.add_argument("--input", required=True, help="input tree file")
    p.add_argument("--format", choices=("csv", "json"), help="input format (default: by file suffix)")
    p.add_argument("-K", type=int, required=True, help="largest summary size; solves all k <= K")
    p.add_argument("--algorithm", choices=("exact", "greedy", "approx"), default="exact")
    p.add_argument("--epsilon", type=float, help="additive entropy slack (approx only)")
    p.add_argument("--output", help="write the result JSON here (default: stdout)")
    p.add_argument("--dot", metavar="PREFIX", help="write PREFIX.k.dot per summary tree")
    p.add_argument("--stats", action="store_true", help="print run statistics JSON to stdout")
    return p


def _gen_parser() -> _Parser:
    p = _Parser(prog="summarytree gen", description="Generate a reproducible random tree as CSV")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--shape", choices=SHAPES, default="uniform")
    p.add_argument("--degree", type=int, default=2, help="arity for fixed-degree trees")
    p.add_argument("--weights", choices=WEIGHT_KINDS, default="uniform")
    p.add_argument("--max-weight", type=float, default=8.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True, help="CSV file to write")
    return p


def _run_gen(argv: Sequence[str]) -> int:
    args = _gen_parser().parse_args(argv)
    tree = random_tree(
        args.nodes,
        shape=args.shape,
        weights=args.weights,
        max_weight=args.max_weight,
        degree=args.degree,
        seed=args.seed,
    )
    with open(args.output, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "parent", "weight"])
        for i, node_id in enumerate(tree.ids):
            p = int(tree.parent_idx[i])
            writer.writerow([node_id, "" if p < 0 else tree.ids[p], repr(float(tree.weights[i]))])
    return 0


def _run_solve(argv: Sequence[str]) -> int:
    args = _solve_parser().parse_args(argv)
    if args.K < 1:
        raise _UsageError("-K must be >= 1")
    fmt = args.format or ("json" if str(args.input).endswith(".json") else "csv")
    if args.algorithm == "approx" and args.epsilon is None:
        raise _UsageError("--algorithm approx requires --epsilon")
    if args.algorithm != "approx" and args.epsilon is not None:
        raise _UsageError("--epsilon applies only to --algorithm approx")
    if args.epsilon is not None and not 0 < args.epsilon < math.inf:
        raise _UsageError("--epsilon must be positive and finite")

    t0 = time.perf_counter()
    # The input tree is not kept: the solve reads only ct, and at n=1e6 the
    # input's ids tuple, parents and weights take 24 MB.
    ct = canonicalize(read_csv(args.input) if fmt == "csv" else read_json(args.input))
    solve_start = time.perf_counter()
    # Only what the outputs read is kept: not the DP tables, nor approx's
    # reduced tree, its tables and the rescaled tree.
    rounded = w0 = None
    if args.algorithm == "approx":
        approx = solve_approx(ct, args.K, args.epsilon)
        trees, entropies, pair_cost = approx.trees, approx.entropy_bits, approx.pair_cost
        rounded, w0 = approx.entropy_bits_rounded, approx.W0
        del approx
    else:
        solver = solve_exact if args.algorithm == "exact" else solve_greedy
        tables = solver(ct, args.K)
        trees = [tables.reconstruct(k) for k in range(1, tables.max_k + 1)]
        entropies = tables.all_entropy_bits()
        pair_cost = tables.pair_cost
        del tables
    wall = time.perf_counter() - solve_start

    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            _write_json(fh, ct, args, trees, entropies, rounded, w0)
    elif not args.stats:
        _write_json(sys.stdout, ct, args, trees, entropies, rounded, w0)
    if args.dot:
        for k, tree_k in enumerate(trees, start=1):
            with open(f"{args.dot}.{k}.dot", "w", encoding="utf-8") as fh:
                fh.write(emit_dot(tree_k, ct))
    if args.stats:
        stats = {
            "n": ct.n,
            "K": args.K,
            "algorithm": args.algorithm,
            "wall_time_sec": wall,
            "total_time_sec": time.perf_counter() - t0,
            "pair_cost": pair_cost,
            "pair_cost_over_2Kn": pair_cost / (2.0 * args.K * ct.n),
        }
        json.dump(stats, sys.stdout)
        sys.stdout.write("\n")
    return 0


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments, solve, and write outputs; returns the exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and argv[0] == "gen":
            return _run_gen(argv[1:])
        return _run_solve(argv)
    except _UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 1
    except (TreeError, ValueError, OSError) as exc:
        print(f"error: input: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"error: invariant: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
