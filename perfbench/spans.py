"""In-memory spans around calls into the package's layers.

The package is not edited: :func:`instrument` swaps the module globals and
the one method through which the CLI and the solvers reach each layer for
timing wrappers, and puts the originals back when it exits.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    _open: list = field(default_factory=list)

    def wrap(self, name, fn, on_return=None):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
            self._open.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[idx].end = time.perf_counter()
            if on_return is not None:
                on_return(out)
            return out

        return traced

    def self_times(self) -> dict:
        """Per span name: summed duration minus the time covered by child spans."""
        out: dict = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start)
            if s.parent >= 0:
                p = self.spans[s.parent].name
                out[p] = out.get(p, 0.0) - (s.end - s.start)
        return out

    def to_json(self) -> list:
        return [[s.name, s.start, s.end, s.parent] for s in self.spans]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every traced entry point for the duration of the block."""
    from summarytree import approx_solver, cli, exact_solver

    def record(*pairs):
        def hook(result):
            for metric, get in pairs:
                tracer.counts[metric] = get(result)

        return hook

    pair_cost = ("exact_solver.pair_cost", lambda r: r.pair_cost)
    targets = [
        (cli, "run", "cli.run", None),
        (cli, "read_csv", "tree_model.read_csv", None),
        (cli, "canonicalize", "tree_model.canonicalize", None),
        (cli, "solve_exact", "exact_solver.solve_exact", record(pair_cost)),
        (cli, "solve_greedy", "greedy_solver.solve_greedy", record(pair_cost)),
        (
            cli,
            "solve_approx",
            "approx_solver.solve_approx",
            record(pair_cost, ("approx_solver.w0", lambda r: r.W0)),
        ),
        (exact_solver.DPTables, "reconstruct", "exact_solver.reconstruct", None),
        (approx_solver, "rescale", "approx_solver.rescale", None),
        (approx_solver, "discrepancy_round", "approx_solver.discrepancy_round", None),
        (
            approx_solver,
            "reduce_tree",
            "approx_solver.reduce_tree",
            record(("approx_solver.reduced_nodes", lambda r: r.tree.n)),
        ),
        (exact_solver, "attach_members", "summary.attach_members", None),
        (approx_solver, "attach_members", "summary.attach_members", None),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets]
    try:
        for owner, attr, name, hook in targets:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), hook))
        yield tracer
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
