"""Benchmark of the summarytree CLI and library, end to end and by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload uniform-exact --seed 1 --seconds 20 --trace 0

It generates the workload's input from the seed, then repeats whole rounds
until ``--seconds`` have passed.  With ``--trace 0`` a round is one CLI run
in a child process, a fixed number of in-process loads and one in-process
solve, and the end-to-end metrics are printed.  With ``--trace 1`` a round is one
in-process ``cli.run`` with spans around every layer, and the per-layer
metrics are printed.  Either way the outputs are checked independently
(see check.py) and the last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# Single-threaded numeric libraries, here and in the CLI child.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

from check import CheckError, Reference, check_result  # noqa: E402
from spans import Tracer, instrument  # noqa: E402
from workloads import WORKLOADS, small_arrays, workload_arrays, write_csv  # noqa: E402

SPAWN = Path(__file__).with_name("spawn.py")
# Set-up is repeated at least this often and for at least this long.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
TOL = 1e-9
# Layer time metrics, by span name; the CLI's own span is its emit time.
LAYER_TIMES = {
    "tree_model.read_csv": "tree_model.read_csv_s",
    "tree_model.canonicalize": "tree_model.canonicalize_s",
    "exact_solver.solve_exact": "exact_solver.solve_exact_s",
    "exact_solver.reconstruct": "exact_solver.reconstruct_s",
    "greedy_solver.solve_greedy": "greedy_solver.solve_greedy_s",
    "approx_solver.rescale": "approx_solver.rescale_s",
    "approx_solver.discrepancy_round": "approx_solver.discrepancy_round_s",
    "approx_solver.reduce_tree": "approx_solver.reduce_tree_s",
    "approx_solver.solve_approx": "approx_solver.solve_approx_s",
    "summary.attach_members": "summary.attach_members_s",
    "cli.run": "cli.emit_s",
}
LAYER_COUNTS = ("exact_solver.pair_cost", "approx_solver.w0", "approx_solver.reduced_nodes")


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def timed(fn, *args):
    gc.collect()
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def setup(w, seed: int, csv_path: Path):
    """Generate the input arrays, build the tree and write the CSV; median of repeats."""
    from summarytree import from_arrays

    def once():
        arrays = workload_arrays(w, seed)
        write_csv(from_arrays(arrays.parents, arrays.weights, arrays.ids), csv_path)
        return arrays

    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        arrays, dt = timed(once)
        times.append(dt)
    return arrays, statistics.median(times)


def cli_argv(w, csv_path: Path, out_path: Path) -> list:
    argv = ["--input", str(csv_path), "-K", str(w.K), "--algorithm", w.algorithm,
            "--output", str(out_path)]
    if w.epsilon is not None:
        argv += ["--epsilon", repr(w.epsilon)]
    return argv


def run_cli_child(argv: list, src: Path, err_path: Path):
    """One CLI run in a child process: (exit code, wall seconds, peak RSS in MB)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-S", str(SPAWN),
           sys.executable, "-c", "from summarytree.cli import main; main()", *argv]
    gc.collect()
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err, start_new_session=True)
        try:
            out, _ = proc.communicate()
        finally:
            if proc.poll() is None:  # interrupted: end the spawner and the CLI with it
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"spawn.py exit {proc.returncode}: {err_path.read_text()}")
    res = json.loads(out)
    return res["exit"], res["wall_s"], res["maxrss_kb"] * 1024 / 1e6


def solve_all(w, ct):
    """All min(K, n) summary trees with members filled in; returns the entropies."""
    from summarytree import solve_approx, solve_exact, solve_greedy

    if w.algorithm == "approx":
        return list(solve_approx(ct, w.K, w.epsilon).entropy_bits)
    tables = (solve_exact if w.algorithm == "exact" else solve_greedy)(ct, w.K)
    for k in range(1, tables.max_k + 1):
        tables.reconstruct(k)
    return tables.all_entropy_bits()


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_cross(w, ct, ents: list) -> None:
    """Compare the CLI's entropies with another solver on the same canonical tree."""
    from summarytree import solve_exact, solve_greedy

    if w.algorithm == "approx":
        exact = solve_exact(ct, w.K).all_entropy_bits()
        for k, (a, e) in enumerate(zip(ents, exact), start=1):
            if not e - w.epsilon - TOL <= a <= e + TOL:
                raise CheckError(f"k={k}: approx {a} not within {w.epsilon} below exact {e}")
    elif w.law == "wide":
        if w.algorithm == "exact":
            exact, greedy = ents, solve_greedy(ct, w.K).all_entropy_bits()
        else:
            exact, greedy = solve_exact(ct, w.K).all_entropy_bits(), ents
        for k, (g, e) in enumerate(zip(greedy, exact), start=1):
            if g > e + TOL:
                raise CheckError(f"k={k}: greedy {g} above exact {e}")


def check_small(w, seed: int) -> None:
    """Every solver against exhaustive enumeration on small trees of the workload's law."""
    from summarytree import (brute_force_opt, canonicalize, from_arrays, solve_approx,
                             solve_exact, solve_greedy)

    eps = w.epsilon or 0.1  # the approx solver is checked on every workload's law
    for a in small_arrays(w, seed):
        ct = canonicalize(from_arrays(a.parents, a.weights, a.ids))
        exact = solve_exact(ct, a.n).all_entropy_bits()
        greedy = solve_greedy(ct, a.n).all_entropy_bits()
        approx = solve_approx(ct, a.n, eps).entropy_bits
        for k in range(1, a.n + 1):
            bf = brute_force_opt(ct, k)
            if abs(exact[k - 1] - bf.best) > TOL:
                raise CheckError(f"small n={a.n} k={k}: exact {exact[k - 1]} != {bf.best}")
            if abs(greedy[k - 1] - bf.prefix_max) > TOL:
                raise CheckError(f"small n={a.n} k={k}: greedy {greedy[k - 1]} != {bf.prefix_max}")
            if not bf.best - eps - TOL <= approx[k - 1] <= bf.best + TOL:
                raise CheckError(f"small n={a.n} k={k}: approx {approx[k - 1]} vs {bf.best}")


class Runner:
    def __init__(self, w, seed: int, seconds: float, root: Path, work: Path):
        self.w = w
        self.seed = seed
        self.seconds = seconds
        self.root = root
        self.work = work
        self.csv = work / "input.csv"
        self.failed = 0
        self.ct = None  # canonical tree of the last in-process load, reused by the checks
        self.count_mismatch = False  # a traced work count changed between rounds
        self.first_output = None
        self.digests: list = []  # sha256 of every successful CLI output

    def op(self, fn, *args):
        """Run one operation; a raised exception counts it as failed."""
        try:
            return fn(*args)
        except Exception:  # the run must go on to report the failure
            log(traceback.format_exc())
            self.failed += 1
            return None

    def rounds(self, body):
        start = time.perf_counter()
        n = 0
        while n == 0 or time.perf_counter() - start < self.seconds:
            body(n)
            n += 1
        return n

    def timed_rounds(self) -> tuple:
        from summarytree import canonicalize, read_csv

        w = self.w
        samples: dict = {m: [] for m in ("cli_s", "load_s", "solve_s", "peak_rss_mb", "output_mb")}
        lib_ents: list = []

        def cli_op(i):
            out = self.work / f"out{i}.json"
            code, wall, rss = run_cli_child(cli_argv(w, self.csv, out), self.root / "src",
                                            self.work / "cli.stderr")
            if code != 0:
                raise RuntimeError(f"CLI exit {code}: {(self.work / 'cli.stderr').read_text()}")
            samples["cli_s"].append(wall)
            samples["peak_rss_mb"].append(rss)
            samples["output_mb"].append(out.stat().st_size / 1e6)
            self.keep_output(out)

        def load_op():
            self.ct = None
            ct, dt = timed(lambda: canonicalize(read_csv(self.csv)))
            samples["load_s"].append(dt)
            self.ct = ct
            return ct

        def solve_op(ct):
            ents, dt = timed(solve_all, w, ct)
            samples["solve_s"].append(dt)
            lib_ents.append(ents)

        def body(i):
            self.op(cli_op, i)
            for _ in range(w.loads):
                ct = self.op(load_op)
            if ct is None:
                self.failed += 1  # the solve cannot be attempted
            else:
                self.op(solve_op, ct)

        n = self.rounds(body)
        return n * (2 + w.loads), {m: statistics.median(v) for m, v in samples.items() if v}, lib_ents

    def traced_rounds(self) -> tuple:
        from summarytree import cli

        samples: dict = {m: [] for m in LAYER_TIMES.values()}
        counts: dict = {}
        traces = []
        totals = []

        def traced_op(i):
            out = self.work / f"out{i}.json"
            tracer = Tracer()
            with instrument(tracer):
                code, dt = timed(cli.run, cli_argv(self.w, self.csv, out))
            traces.append({"spans": tracer.to_json(), "counts": tracer.counts})
            if code != 0:
                raise RuntimeError(f"cli.run exit {code}")
            totals.append(dt)
            selft = tracer.self_times()
            for name, metric in LAYER_TIMES.items():
                samples[metric].append(selft.get(name, 0.0))
            if counts and counts != tracer.counts:
                self.count_mismatch = True
            counts.update(tracer.counts)
            self.keep_output(out)

        def body(i):
            self.op(traced_op, i)

        n = self.rounds(body)
        trace_path = self.root / ".perfbench-out" / f"trace-{self.w.name}-seed{self.seed}.json"
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": self.w.name, "seed": self.seed, "rounds": traces}, fh)
        if totals:
            log(f"traced cli.run: median {statistics.median(totals):.4f} s over {len(totals)} rounds")
        metrics = {m: statistics.median(v) for m, v in samples.items() if v}
        for m in LAYER_COUNTS:
            metrics[m] = counts.get(m, 0)
        return n, metrics

    def keep_output(self, out: Path) -> None:
        """Keep the first output for the full check and the digest of every one."""
        self.digests.append(digest(out))
        if self.first_output is None:
            self.first_output = out
        else:
            out.unlink()

    def check(self, arrays, lib_ents: list) -> None:
        if self.first_output is None:
            raise CheckError("no CLI output to check")
        if len(set(self.digests)) != 1:
            raise CheckError("the CLI wrote different outputs for the same input")
        if self.count_mismatch:
            raise CheckError("a traced work count changed between rounds")
        t0 = time.perf_counter()
        with open(self.first_output, encoding="utf-8") as fh:
            doc = json.load(fh)
        t1 = time.perf_counter()
        ref = Reference(arrays.parents, arrays.weights, arrays.ids)
        check_result(doc, ref, self.w.K)
        ents = [r["entropy_bits"] for r in doc["results"]]
        del doc
        t2 = time.perf_counter()
        for got in lib_ents:
            if got != ents:
                raise CheckError("in-process entropies differ from the CLI's")
        if self.ct is None:
            from summarytree import canonicalize, read_csv

            self.ct = canonicalize(read_csv(self.csv))
        check_cross(self.w, self.ct, ents)
        t3 = time.perf_counter()
        check_small(self.w, self.seed)
        log(f"check: parse {t1-t0:.2f} s, output {t2-t1:.2f} s, cross {t3-t2:.2f} s, small {time.perf_counter()-t3:.2f} s")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "summarytree" / "__init__.py").is_file():
        log(f"error: no summarytree package under {root / 'src'}; run from the repository root")
        return 2
    sys.path.insert(0, str(root / "src"))

    w = WORKLOADS[args.workload]
    out_dir = root / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=out_dir))
    try:
        r = Runner(w, args.seed, args.seconds, root, work)
        arrays, setup_s = setup(w, args.seed, r.csv)
        if args.trace:
            attempted, metrics = r.traced_rounds()
            lib_ents = []
            units = {m: ("count" if m in LAYER_COUNTS else "s") for m in metrics}
        else:
            attempted, metrics, lib_ents = r.timed_rounds()
            metrics["setup_s"] = setup_s
            units = {m: ("MB" if m.endswith("_mb") else "s") for m in metrics}
        correct = True
        try:
            r.check(arrays, lib_ents)
        except CheckError as exc:
            log(f"check failed: {exc}")
            correct = False
        result = {
            "correct": correct,
            "attempted": attempted,
            "failed": r.failed,
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
        }
        print(json.dumps(result))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
