"""Command-line entry point: solve input trees, emit JSON/DOT and statistics.

Exit codes: 0 success, 1 input or usage error, 2 internal invariant
violation.  Errors print one machine-parsable line to stderr in the form
``error: <category>: <reason>``.

The result JSON is byte for byte what ``json.dump(doc, fh, indent=1)``
writes; :func:`_write_json` only produces it faster, so the schema and
the bytes are those of the plain encoder.
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


def _node_label(tree: SummaryTree, idx: int, ct: CanonicalTree) -> str:
    """Identifier of a summary node: its representative id, or other:<parent id>."""
    nd = tree.nodes[idx]
    if nd.kind == "group":
        return f"other:{ct.ext(tree.nodes[nd.parent].anchor)}"
    return ct.ext(nd.anchor)


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
    for i, nd in enumerate(s.nodes):
        ident = _node_label(s, i, ct)
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


def _result_doc(ct: CanonicalTree, args, trees, entropies, extra: dict) -> dict:
    results = []
    for k, (tree, ent) in enumerate(zip(trees, entropies), start=1):
        nodes = []
        for i, nd in enumerate(tree.nodes):
            nodes.append(
                {
                    "label": _node_label(tree, i, ct),
                    "kind": nd.kind,
                    "members": nd.members,
                    "weight": nd.weight,
                    "parent": None if nd.parent < 0 else _node_label(tree, nd.parent, ct),
                }
            )
        entry = {"k": k, "entropy_bits": ent, "nodes": nodes}
        if "entropy_bits_rounded" in extra:
            entry["entropy_bits_rounded"] = extra["entropy_bits_rounded"][k - 1]
        results.append(entry)
    doc = {
        "input_id_map": dict(zip(ct.ext_of_label[1:], range(1, ct.n + 1))),
        "W": ct.W,
        "K": args.K,
        "algorithm": args.algorithm,
        "results": results,
    }
    for key in ("epsilon", "w0", "w0_constant"):
        if key in extra:
            doc[key] = extra[key]
    return doc


def _write_json(doc: dict, fh: TextIO) -> None:
    """Write ``doc`` exactly as ``json.dump(doc, fh, indent=1)`` would.

    ``json.dump`` with an indent encodes everything in pure Python.  Here
    ``json.dumps`` encodes a skeleton whose ``input_id_map`` (never empty)
    and node ``members`` are ``null``, and the id map and member lists,
    the bulk of the output, are spliced in with the C string encoder at
    the indentation ``indent=1`` gives them.  ``"members": null`` occurs
    only at a placeholder, because a quote inside a string is escaped.
    """
    enc = encode_basestring_ascii
    skeleton = dict(doc, input_id_map=None)
    skeleton["results"] = [
        dict(res, nodes=[dict(nd, members=None) for nd in res["nodes"]]) for res in doc["results"]
    ]
    head, body = json.dumps(skeleton, indent=1).split('"input_id_map": null', 1)
    id_map = doc["input_id_map"]
    pairs = ",\n  ".join(map("{}: {}".format, map(enc, id_map), id_map.values()))
    fh.write(f'{head}"input_id_map": {{\n  {pairs}\n }}')
    pieces = body.split('"members": null')
    fh.write(pieces[0])
    members = (nd["members"] for res in doc["results"] for nd in res["nodes"])
    for ids, piece in zip(members, pieces[1:]):
        items = ",\n      ".join(map(enc, ids))
        fh.write(f'"members": [\n      {items}\n     ]' if ids else '"members": []')
        fh.write(piece)


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
    tree = read_csv(args.input) if fmt == "csv" else read_json(args.input)
    ct = canonicalize(tree)
    solve_start = time.perf_counter()
    extra: dict = {}
    if args.algorithm == "approx":
        res = solve_approx(ct, args.K, args.epsilon)
        trees = res.trees
        entropies = res.entropy_bits
        pair_cost = res.pair_cost
        extra = {
            "epsilon": args.epsilon,
            "w0": res.W0,
            "w0_constant": W0_CONSTANT,
            "entropy_bits_rounded": res.entropy_bits_rounded,
        }
    else:
        solver = solve_exact if args.algorithm == "exact" else solve_greedy
        tables = solver(ct, args.K)
        trees = [tables.reconstruct(k) for k in range(1, tables.max_k + 1)]
        entropies = tables.all_entropy_bits()
        pair_cost = tables.pair_cost
    wall = time.perf_counter() - solve_start

    doc = _result_doc(ct, args, trees, entropies, extra)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            _write_json(doc, fh)
            fh.write("\n")
    elif not args.stats:
        _write_json(doc, sys.stdout)
        sys.stdout.write("\n")
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
