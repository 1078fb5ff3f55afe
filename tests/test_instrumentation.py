"""The benchmark's span tracing (perfbench/spans.py) still finds every entry point it wraps."""

import importlib.util
import sys
from pathlib import Path

import pytest

from summarytree import cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

COMMON = {"cli.run", "tree_model.read_csv", "tree_model.canonicalize", "summary.attach_members"}
EXPECTED = {
    "exact": (
        COMMON | {"exact_solver.solve_exact", "exact_solver.reconstruct"},
        {"exact_solver.pair_cost"},
    ),
    "greedy": (
        COMMON | {"greedy_solver.solve_greedy", "exact_solver.reconstruct"},
        {"exact_solver.pair_cost"},
    ),
    "approx": (
        COMMON
        | {
            "approx_solver.solve_approx",
            "approx_solver.rescale",
            "approx_solver.discrepancy_round",
            "approx_solver.reduce_tree",
        },
        {"exact_solver.pair_cost", "approx_solver.w0", "approx_solver.reduced_nodes"},
    ),
}


def _load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mod)  # dataclasses look their module up
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("algorithm", sorted(EXPECTED))
def test_spans_cover_every_layer(algorithm, tmp_path, monkeypatch):
    spans = _load_spans(monkeypatch)
    src = tmp_path / "t.csv"
    src.write_text(
        "id,parent,weight\nr,,1\na,r,3\nb,r,0\nc,r,2\nd,a,2\ne,b,0\nf,e,1\n", encoding="utf-8"
    )
    argv = ["--input", str(src), "-K", "4", "--algorithm", algorithm]
    argv += ["--output", str(tmp_path / "out.json")]
    if algorithm == "approx":
        argv += ["--epsilon", "0.5"]
    original = cli.run
    with spans.instrument(spans.Tracer()) as tracer:
        assert cli.run(argv) == 0
    assert cli.run is original
    names, counts = EXPECTED[algorithm]
    assert {s.name for s in tracer.spans} == names
    assert set(tracer.counts) == counts
    assert tracer.counts["exact_solver.pair_cost"] >= 0
