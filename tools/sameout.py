"""Check that the CLI writes the same bytes as at another git revision.

Usage::

    python tools/sameout.py --rev REV

Checks REV out with ``git worktree add --detach`` into a temporary
directory (the worktree is removed at the end), runs ``python -m
summarytree.cli`` from REV's ``src/`` and from the working tree's
``src/`` on one seeded matrix of inputs and flags, and prints one line
per case where the sha256 of the JSON on ``--output``, the JSON on
stdout, any DOT file, stderr or the exit code differs.  Exits 1 if any
case differs.  It takes about 75 s on two cores.

The matrix: the benchmark inputs of ``perfbench/workloads.py`` at seeds
1-3 under exact, greedy and approx at epsilon 0.1; tie-heavy and
zero-heavy integer-weight trees with chains and odd ids, with approx also
at an epsilon that pads; a path, a broom, a caterpillar and a star under
each algorithm; a 3000-node zero-weight chain under approx;
``tests/golden/``; malformed JSON inputs; and CSV inputs with row faults,
blank lines, extra fields, a BOM with CRLF and quoted ids, no rows, no
header, two stars whose size folds overflow, an id longer than the csv
module's field limit and one exactly as long, a NUL, a lone CR, mixed
line ends, no final newline, a short row beside a long one, an empty id
beside a second root, a tree of several blocks of rows written last
node first, both whole and with one unknown parent, and two quoted-id
files of several blocks: a tree written last node first, and one with a
bad weight in its first block and a short row in its third.

No digests are stored: numpy picks its SIMD kernels by CPU, so
``np.log2`` bits can differ between hosts, while two revisions compare
exactly on one host.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from summarytree import from_arrays  # noqa: E402
from workloads import WORKLOADS, workload_arrays, write_csv  # noqa: E402

SEEDS = (1, 2, 3)
JOBS = 2  # CLI runs at once; each peaks at 36-54 MB on the benchmark inputs
GOLDEN_K = {"odd_ids": 8, "ties": 8, "zero_chain": 17}
SHAPES = ("path", "broom", "caterpillar", "star")
# Characters that JSON, CSV or DOT escape or that sort unlike their digits.
ODD = ['"', ",", "\\", "\n", "\t", "\u00e9", " ", "\U0001d11e", "\u2028", "'"]
BAD_JSON = {
    "null": '{"id": "r", "weight": null}',
    "list": '{"id": "r", "weight": 1, "children": [{"id": "a", "weight": [1]}]}',
    "huge": '{"id": "r", "weight": 1' + "0" * 400 + "}",
    "deep": '{"id": "n0", "weight": 1, "children": ['
    + "".join(f'{{"id": "n{i}", "weight": 1, "children": [' for i in range(1, 3000))
    + "]}" * 3000,
    "true": '{"id": "r", "weight": true, "children": [{"id": "a", "weight": 2}]}',
    "false": '{"id": "r", "weight": 1, "children": [{"id": "a", "weight": false}]}',
    "string": '{"id": "r", "weight": 1, "children": [{"id": "a", "weight": "2"}]}',
    "missing": '{"id": "r", "children": []}',
}
# Row faults and layouts read_csv handles; a bad weight in an earlier row is
# reported before a later short row.  The stars' pairwise weight sums are
# finite, but their size folds overflow; the wide one is folded with numpy.
# The long id exceeds csv.field_size_limit(), and the other id is exactly as
# long as it.  A NUL is read on Python 3.11 and later but is a csv error on
# 3.10.  The balanced file's short and long rows hold six commas, as two good
# rows do.  An empty parent field names the root even beside an empty id.  The
# binary trees are written last node first, so most rows name a parent whose
# own row is blocks of rows later.  The quoted files go through csv.reader a
# block at a time; the second has a bad weight in its first block and a short
# row in its third, so the bad weight is reported.
BAD_CSV = {
    "short-after-bad": "id,parent,weight\nr,,1\na,r,x\nb\n",
    "short-before-bad": "id,parent,weight\nr,,1\nb\na,r,x\n",
    "extra-field": "id,parent,weight\nr,,1,note\na,r,2\nb,a,x,y\n",
    "extra-field-ok": "id,parent,weight\nr,,1,note\na,r,2,,\nb,a,3\n",
    "blank-lines": "id,parent,weight\n\nr,,1\n   \na,r,2\n\t\nb,r,3\n\n",
    "bom-crlf-quoted": '\ufeffid,parent,weight\r\n"r,1",,1\r\n"a\nb","r,1",2\r\n"c""","a\nb",3\r\n',
    "header-only": "id,parent,weight\n",
    "empty": "",
    "overflow-star": "id,parent,weight\nr,,0.0\nl1,r,1.3828408729710143e+307\n"
    + "".join(f"l{i},r,1.3828408729710123e+307\n" for i in range(2, 14)),
    "long-id": "id,parent,weight\nr,,1\n" + "a" * 200_000 + ",r,2\n",
    "id-at-limit": "id,parent,weight\nr,,1\n" + "a" * csv.field_size_limit() + ",r,2\n",
    "wide-overflow-star": "id,parent,weight\nr,,0.0\n"
    + "".join(f"l{i},r,1.7976931348623125e+306\n" for i in range(100)),
    "nul": "id,parent,weight\nr,,1\na\x00b,r,2\n",
    "lone-cr": "id,parent,weight\nr,,1\ra,r,2\n",
    "mixed-eol": "id,parent,weight\r\nr,,1\na,r,2\r\nb,a,3\n",
    "no-final-newline": "id,parent,weight\nr,,1\na,r,2",
    "balanced-commas": "id,parent,weight\nr,,1\na,r\nb,r,2,x\n",
    "empty-id": "id,parent,weight\n,,1\na,,2\n",
    "forward-parent": "id,parent,weight\n"
    + "".join(f"n{i},n{i // 2},{i % 3}\n" for i in range(10_000, 0, -1)) + "n0,,1\n",
    "forward-unknown": "id,parent,weight\n"
    + "".join(f"n{i},{'zz' if i == 17 else f'n{i // 2}'},1\n" for i in range(10_000, 0, -1)) + "n0,,1\n",
    "quoted-blocks": "id,parent,weight\n"
    + "".join(f'"n{i}","n{i // 2}",{i % 3}\n' for i in range(10_000, 0, -1)) + '"n0","",1\n',
    "quoted-late-fault": 'id,parent,weight\n"n0",,1\n'
    + "".join('"zz"\n' if i == 9000 else f'"n{i}","n{i // 2}",{"x" if i == 10 else 1}\n'
              for i in range(1, 10_001)),
}


def write_tree(path: Path, parents: np.ndarray, weights: np.ndarray, rng) -> None:
    """Write node i's parent ``parents[i - 1]`` and integer weight as CSV.

    Ids are unpadded numbers, some with a character from ``ODD``, in
    shuffled order.
    """
    n = weights.shape[0]
    ids = [f"{p}{ODD[p % len(ODD)] if p % 3 == 0 else ''}" for p in rng.permutation(n).tolist()]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(["id", "parent", "weight"])
        out.writerow([ids[0], "", int(weights[0])])
        out.writerows([ids[c], ids[p], int(weights[c])] for c, p in enumerate(parents.tolist(), 1))


def small_tree(path: Path, kind: str, seed: int) -> None:
    """A 300-node tree of integer weights: ``ties`` (0-3) or ``zeros`` (mostly 0).

    Half the nodes continue a chain from the node before them, the rest
    hang under a uniformly drawn earlier node.
    """
    rng = np.random.default_rng([seed, 1 if kind == "ties" else 2])
    n = 300
    i = np.arange(1, n)
    parents = np.where(rng.random(n - 1) < 0.5, i - 1, (rng.random(n - 1) * i).astype(np.int64))
    if kind == "ties":
        weights = rng.integers(0, 4, n)
    else:
        # Only nodes near the root weigh anything, so the reduced tree is small and approx pads.
        weights = np.where(i < 8, rng.integers(0, 4, n - 1), 0)
        weights = np.concatenate(([1], weights))
    weights[0] = 1
    write_tree(path, parents, weights, rng)


def shape_tree(path: Path, shape: str) -> None:
    """A deep or wide tree of integer weights 0-3 (the root weighs at least 1).

    ``path``: 3000 nodes in a line; ``broom``: a 2000-node path whose last
    node holds 2000 leaves; ``caterpillar``: a 1500-node spine with one
    leaf per spine node; ``star``: a root with 20,000 leaves.
    """
    rng = np.random.default_rng([4, SHAPES.index(shape)])
    if shape == "path":
        parents = np.arange(2999)
    elif shape == "broom":
        parents = np.concatenate((np.arange(1999), np.full(2000, 1999)))
    elif shape == "caterpillar":
        parents = np.concatenate((np.arange(1499), np.arange(1500)))
    else:
        parents = np.zeros(20_000, dtype=np.int64)
    weights = rng.integers(0, 4, parents.shape[0] + 1)
    weights[0] += 1
    write_tree(path, parents, weights, rng)


def zero_chain(path: Path) -> None:
    """A root of weight 1 over a 3000-node zero-weight chain ending in a leaf of weight 2.

    Every third chain node also holds a zero-weight leaf, so the reduced
    tree keeps one chain that mixes degree-1 nodes with placeholders.
    """
    parents = np.concatenate((np.arange(3000), np.arange(2, 3001, 3), [3000]))
    weights = np.zeros(parents.shape[0] + 1, dtype=np.int64)
    weights[0], weights[-1] = 1, 2
    write_tree(path, parents, weights, np.random.default_rng(5))


def build_cases(inputs: Path) -> list:
    """(name, input path, flags) for every case of the matrix, writing its inputs."""
    cases = []
    laws = {}
    for w in WORKLOADS.values():
        laws.setdefault(w.law, w)
    for law, w in laws.items():
        for seed in SEEDS:
            a = workload_arrays(w, seed)
            path = inputs / f"{law}-{seed}.csv"
            write_csv(from_arrays(a.parents, a.weights, a.ids), path)
            for algo, flags in (("exact", []), ("greedy", []), ("approx", ["--epsilon", "0.1"])):
                cases.append((f"{law}-{seed} {algo}", path, ["-K", str(w.K), "--algorithm", algo, *flags]))
    for kind in ("ties", "zeros"):
        for seed in SEEDS:
            path = inputs / f"{kind}-{seed}.csv"
            small_tree(path, kind, seed)
            for algo, flags in (("exact", []), ("greedy", []), ("approx", ["--epsilon", "0.1"]),
                                ("approx", ["--epsilon", "4"])):
                cases.append((f"{kind}-{seed} {algo} {' '.join(flags)}".rstrip(), path,
                              ["-K", "16", "--algorithm", algo, *flags]))
    for shape in SHAPES:
        path = inputs / f"{shape}.csv"
        shape_tree(path, shape)
        for algo, flags in (("exact", []), ("greedy", []), ("approx", ["--epsilon", "0.1"])):
            cases.append((f"{shape} {algo}", path, ["-K", "16", "--algorithm", algo, *flags]))
    path = inputs / "zero-chain.csv"
    zero_chain(path)
    for eps in ("0.5", "0.1"):
        cases.append((f"zero-chain approx {eps}", path,
                      ["-K", "16", "--algorithm", "approx", "--epsilon", eps]))
    for name, K in GOLDEN_K.items():
        for algo, flags in (("exact", []), ("greedy", []), ("approx", ["--epsilon", "0.2"])):
            path = ROOT / "tests" / "golden" / f"{name}.csv"
            cases.append((f"golden {name} {algo}", path, ["-K", str(K), "--algorithm", algo, *flags]))
    for name, text in BAD_JSON.items():
        path = inputs / f"bad-{name}.json"
        path.write_text(text, encoding="utf-8")
        cases.append((f"bad json {name}", path, ["-K", "2"]))
    for name, text in BAD_CSV.items():
        path = inputs / f"bad-{name}.csv"
        path.write_bytes(text.encode("utf-8"))
        cases.append((f"bad csv {name}", path, ["-K", "2"]))
    return cases


def digests(src: Path, work: Path, case) -> dict:
    """sha256 of every output of one case, run from the source tree ``src``."""
    _, path, flags = case
    work.mkdir(parents=True)
    argv = [sys.executable, "-m", "summarytree.cli", "--input", str(path), *flags]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = {}
    for tag, extra in (("file", ["--output", "out.json", "--dot", "viz"]), ("stdout", [])):
        proc = subprocess.run(argv + extra, cwd=work, env=env, capture_output=True, timeout=600)
        out[f"{tag} exit"] = str(proc.returncode)
        out[f"{tag} stdout"] = hashlib.sha256(proc.stdout).hexdigest()
        out[f"{tag} stderr"] = hashlib.sha256(proc.stderr).hexdigest()
    for f in sorted(work.iterdir()):
        out[f.name] = hashlib.sha256(f.read_bytes()).hexdigest()
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--rev", required=True, help="git revision to compare the working tree with")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="sameout-") as tmp:
        tmp = Path(tmp)
        checkout = tmp / "rev"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--quiet", "--detach",
                        str(checkout), args.rev], check=True)
        try:
            (tmp / "inputs").mkdir()
            cases = build_cases(tmp / "inputs")
            sides = {"rev": checkout / "src", "tree": ROOT / "src"}
            jobs = [(side, i) for i in range(len(cases)) for side in sides]
            with ThreadPoolExecutor(JOBS) as pool:
                results = dict(zip(jobs, pool.map(
                    lambda job: digests(sides[job[0]], tmp / job[0] / str(job[1]), cases[job[1]]),
                    jobs)))
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(checkout)],
                           check=True)
    differ = 0
    for i, (name, _, _) in enumerate(cases):
        a, b = results["rev", i], results["tree", i]
        keys = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        if keys:
            differ += 1
            print(f"DIFFERS {name}: {', '.join(keys)}")
    print(f"{differ} of {len(cases)} cases differ from {args.rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
