import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import summarytree
from summarytree import (
    brute_force_opt,
    canonicalize,
    read_csv,
    solve_approx,
    solve_exact,
    validate_summary_tree,
)
from summarytree.cli import emit_dot, run
from summarytree.summary import InvariantError, SummaryNode, SummaryTree
from tests.conftest import OVERFLOW_STAR, csv_text, deep_json_chain, make_tree, path_tree

GOLDEN = Path(__file__).with_name("golden")
# Golden inputs and their K: odd ids (non-ASCII, astral, quote, backslash,
# control characters, "10"/"9", and ids that spell "members": null), a
# tie-heavy integer-weight tree, and a zero-weight chain that approx pads.
GOLDEN_K = {"odd_ids": 8, "ties": 8, "zero_chain": 17}
ALGORITHMS = {"exact": [], "greedy": [], "approx": ["--epsilon", "0.2"]}
# A DOT quoted string: no raw quote, backslash or newline, except escaped.
DOT_STRING = r'"(?:[^"\\\n]|\\.)*"'
DOT_LINE = re.compile(rf"  {DOT_STRING} \[label={DOT_STRING}\];|  {DOT_STRING} -> {DOT_STRING};")


@pytest.fixture
def csv_tree(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text(
        "id,parent,weight\nr,,1\na,r,3\nb,r,1\nc,r,2\nd,a,2\n", encoding="utf-8"
    )
    return p


@pytest.fixture
def path3_csv(tmp_path):
    p = tmp_path / "p3.csv"
    p.write_text("id,parent,weight\nr,,0.1\na,r,0.2\nb,a,0.3\n", encoding="utf-8")
    return p


def _solve_args(csv_tree, tmp_path, *extra):
    out = tmp_path / "out.json"
    return (
        ["--input", str(csv_tree), "--format", "csv", "-K", "4", "--output", str(out)]
        + list(extra),
        out,
    )


class TestSolveCommand:
    def test_exact_end_to_end(self, csv_tree, tmp_path):
        args, out = _solve_args(csv_tree, tmp_path, "--algorithm", "exact")
        assert run(args) == 0
        doc = json.loads(out.read_text())
        assert doc["algorithm"] == "exact"
        assert doc["K"] == 4
        assert len(doc["results"]) == 4
        assert set(doc["input_id_map"]) == {"r", "a", "b", "c", "d"}

    def test_json_roundtrip_entropy(self, csv_tree, tmp_path):
        args, out = _solve_args(csv_tree, tmp_path)
        run(args)
        doc = json.loads(out.read_text())
        W = doc["W"]
        for res in doc["results"]:
            ws = [nd["weight"] for nd in res["nodes"]]
            ent = -sum(w / W * math.log2(w / W) for w in ws if w > 0)
            assert abs(ent - res["entropy_bits"]) < 1e-9
            assert len(res["nodes"]) == res["k"]
            members = sorted(m for nd in res["nodes"] for m in nd["members"])
            assert members == sorted(doc["input_id_map"])

    @pytest.mark.parametrize(
        "suffix, text",
        [
            (".csv", "id,parent,weight\nr,,1\na,r,3\nb,r,1\n"),
            (".json", '{"id": "r", "weight": 1, "children": [{"id": "a", "weight": 3}, '
                      '{"id": "b", "weight": 1}]}'),
        ],
        ids=["csv", "json"],
    )
    def test_byte_order_mark_is_skipped(self, tmp_path, capsys, suffix, text):
        outputs = []
        for name, bom in (("plain", ""), ("bom", "\ufeff")):
            p = tmp_path / f"{name}{suffix}"
            p.write_text(bom + text, encoding="utf-8")
            assert run(["--input", str(p), "-K", "3"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_byte_identical_reruns(self, csv_tree, tmp_path):
        for extra in ((), ("--algorithm", "greedy"), ("--algorithm", "approx", "--epsilon", "0.2")):
            args, out = _solve_args(csv_tree, tmp_path, *extra)
            run(args)
            first = out.read_bytes()
            run(args)
            assert out.read_bytes() == first

    def test_greedy_and_approx_algorithms(self, csv_tree, tmp_path):
        for algo, extra in (("greedy", ()), ("approx", ("--epsilon", "0.5"))):
            args, out = _solve_args(csv_tree, tmp_path, "--algorithm", algo, *extra)
            assert run(args) == 0
            doc = json.loads(out.read_text())
            assert doc["algorithm"] == algo
        assert "entropy_bits_rounded" in doc["results"][0]
        assert doc["w0"] == 67

    def test_stats_output(self, csv_tree, tmp_path, capsys):
        args, _ = _solve_args(csv_tree, tmp_path, "--stats")
        assert run(args) == 0
        stats = json.loads(capsys.readouterr().out.strip())
        assert stats["n"] == 5 and stats["K"] == 4
        assert stats["pair_cost"] <= 2 * 4 * 5
        assert 0 <= stats["pair_cost_over_2Kn"] <= 1
        assert stats["wall_time_sec"] >= 0

    def test_stdout_when_no_output_flag(self, csv_tree, capsys):
        assert run(["--input", str(csv_tree), "-K", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["results"]) == 2


class TestDotOutput:
    def test_dot_files_per_k(self, csv_tree, tmp_path):
        args, _ = _solve_args(csv_tree, tmp_path, "--dot", str(tmp_path / "viz"))
        assert run(args) == 0
        for k in range(1, 5):
            assert (tmp_path / f"viz.{k}.dot").exists()

    def test_k1_single_node_digraph(self):
        t = path_tree([1, 1])
        s = solve_exact(t, 1).reconstruct(1)
        dot = emit_dot(s, t)
        assert dot.count("[label=") == 1
        assert "->" not in dot

    def test_p4_k2_two_nodes_one_edge(self, p4):
        s = solve_exact(p4, 2).reconstruct(2)
        dot = emit_dot(s, p4)
        assert dot.count("[label=") == 2
        assert dot.count("->") == 1

    def test_group_label_shows_member_count(self, gap7):
        s = solve_exact(gap7, 4).reconstruct(4)
        dot = emit_dot(s, gap7)
        assert "other (4)" in dot  # group {v1, v3} plus descendants


    def test_ids_are_escaped(self):
        ids = ['q"uote', "back\\slash", "nl\nx"]
        t = make_tree([("r", None, 1)] + [(x, "r", i + 2) for i, x in enumerate(ids)])
        dot = emit_dot(solve_exact(t, t.n).reconstruct(t.n), t)
        lines = dot.split("\n")
        assert lines[0] == "digraph summary {" and lines[-2:] == ["}", ""]
        assert all(DOT_LINE.fullmatch(line) for line in lines[1:-2])
        for quoted in (r'"q\"uote"', r'"back\\slash"', r'"nl\nx"'):
            assert f"  {quoted} [label={quoted[:-1]} (" in dot


class TestErrors:
    def test_approx_without_epsilon_is_usage_error(self, csv_tree, capsys):
        rc = run(["--input", str(csv_tree), "-K", "2", "--algorithm", "approx"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: usage:")

    def test_missing_K_is_usage_error(self, csv_tree, capsys):
        assert run(["--input", str(csv_tree)]) == 1
        assert "error: usage:" in capsys.readouterr().err

    def test_approx_with_epsilon_but_no_K_is_usage_error(self, csv_tree, capsys):
        rc = run(
            ["--input", str(csv_tree), "--algorithm", "approx", "--epsilon", "0.1"]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: usage:")

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        rc = run(["--input", str(tmp_path / "nope.csv"), "-K", "2"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: input:")

    def test_malformed_tree_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("id,parent,weight\na,b,1\nb,a,1\n", encoding="utf-8")
        assert run(["--input", str(p), "-K", "2"]) == 1
        assert capsys.readouterr().err.startswith("error: input:")

    def test_overflowing_total_weight_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "huge.csv"
        p.write_text("id,parent,weight\nr,,1e308\na,r,1e308\nb,r,1e308\n", encoding="utf-8")
        assert run(["--input", str(p), "-K", "3"]) == 1
        assert capsys.readouterr().err.startswith("error: input:")

    def test_overflowing_size_fold_is_one_input_error_line(self, tmp_path, capsys):
        p = tmp_path / "star.csv"
        p.write_text(csv_text(OVERFLOW_STAR), encoding="utf-8")
        assert run(["--input", str(p), "-K", "3"]) == 1
        out = capsys.readouterr()
        assert out.err == "error: input: total weight overflows a float64\n" and out.out == ""

    def test_overlong_id_is_one_input_error_line(self, tmp_path, capsys):
        p = tmp_path / "long.csv"
        p.write_text("id,parent,weight\nr,,1\n" + "a" * 200_000 + ",r,2\n", encoding="utf-8")
        assert run(["--input", str(p), "-K", "2"]) == 1
        out = capsys.readouterr()
        limit = csv.field_size_limit()
        assert out.err == f"error: input: CSV line 3: field larger than field limit ({limit})\n"
        assert out.out == ""

    def test_seed_is_not_a_solve_flag(self, csv_tree, capsys):
        assert run(["--input", str(csv_tree), "-K", "2", "--seed", "1"]) == 1
        assert capsys.readouterr().err.startswith("error: usage:")

    @pytest.mark.parametrize(
        "epsilon, category",
        [("1e-308", "input"), ("1e-15", "input"), ("nan", "usage"), ("inf", "usage")],
    )
    def test_infeasible_epsilon_is_one_error_line(self, path3_csv, capsys, epsilon, category):
        rc = run(["--input", str(path3_csv), "-K", "2", "--algorithm", "approx", "--epsilon", epsilon])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {category}:") and err.count("\n") == 1

    @pytest.mark.parametrize("rows", ["r,,5e-324\nz,r,0\n", "r,,5e-324\n"])
    def test_approx_on_subnormal_total_is_one_error_line(self, tmp_path, rows):
        # W0/W overflows to inf; run in a subprocess so that warnings and
        # tracebacks reach the captured stderr.
        p = tmp_path / "tiny.csv"
        p.write_text("id,parent,weight\n" + rows, encoding="utf-8")
        argv = ["--input", str(p), "-K", "2", "--algorithm", "approx", "--epsilon", "0.1"]
        proc = _run_cli_process(argv, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: input:") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr and proc.stdout == ""

    @pytest.mark.parametrize(
        "doc, reason",
        [('{"id": "r", "weight": null}', "weight None for id 'r' is not a float"),
         ('{"id": "r", "weight": 1, "children": [{"id": "a", "weight": [1]}]}',
          "weight [1] for id 'a' is not a float"),
         ('{"id": "r", "weight": 1' + "0" * 400 + "}",
          "weight 1" + "0" * 400 + " for id 'r' is not a float"),
         (deep_json_chain(3000), "JSON nesting is too deep to parse; write the tree as CSV"),
         ('{"id": "r", "weight": true, "children": [{"id": "a", "weight": 2}]}',
          "weight True for id 'r' is not a float"),
         ('{"id": "r", "weight": 1, "children": [{"id": "a", "weight": false}]}',
          "weight False for id 'a' is not a float"),
         ('{"id": "r", "weight": 1, "children": [{"id": "a", "weight": "2"}]}',
          "weight '2' for id 'a' is not a float")],
        ids=["null", "list", "huge", "deep", "true", "false", "string"],
    )
    def test_bad_json_is_one_error_line(self, tmp_path, doc, reason):
        # A subprocess, so that a traceback would reach the captured stderr.
        p = tmp_path / "bad.json"
        p.write_text(doc, encoding="utf-8")
        proc = _run_cli_process(["--input", str(p), "-K", "2"], timeout=120)
        assert proc.returncode == 1
        assert proc.stderr == f"error: input: {reason}\n" and proc.stdout == ""

    def test_epsilon_past_exact_rounding_is_input_error(self, path3_csv, capsys):
        # W0 = 6.3e15 is below 2**53, yet the float64 prefix sums of the
        # rescaled weights already round one weight outside floor/ceiling.
        rc = run(["--input", str(path3_csv), "-K", "2", "--algorithm", "approx", "--epsilon", "3e-14"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: input: epsilon=3e-14 needs W0=6256270777026926")
        assert err.count("\n") == 1

    def test_rounded_total_off_w0_is_input_error(self, tmp_path, capsys):
        # Each weight rounds to floor or ceiling and each subtree moves by at
        # most 1, yet the float64 prefix sums round the total to W0 + 1.
        p = tmp_path / "off.csv"
        p.write_text("id,parent,weight\nr,,60.585\na,r,0.071\nb,r,0.891\n", encoding="utf-8")
        rc = run(["--input", str(p), "-K", "1", "--algorithm", "approx", "--epsilon", "5e-14"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: input: epsilon=5e-14 needs W0=1807402609341432")
        assert "rounded total 1807402609341433 differs from W0" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("algorithm", ["exact", "greedy"])
    @pytest.mark.parametrize("flag", [["--epsilon", "0.1"], ["--w0-constant", "5"]])
    def test_approx_flags_rejected_for_other_algorithms(self, csv_tree, capsys, algorithm, flag):
        rc = run(["--input", str(csv_tree), "-K", "2", "--algorithm", algorithm, *flag])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and err.count("\n") == 1

    def test_approx_w0_constant_defaults_to_2(self, csv_tree, capsys):
        assert run(["--input", str(csv_tree), "-K", "2", "--algorithm", "approx", "--epsilon", "0.5"]) == 0
        assert json.loads(capsys.readouterr().out)["w0_constant"] == 2.0

    def test_invariant_violation_exits_2(self, csv_tree, capsys, monkeypatch):
        import summarytree.cli as cli

        def broken(*a, **kw):
            raise InvariantError("synthetic check failure")

        monkeypatch.setattr(cli, "solve_exact", broken)
        assert run(["--input", str(csv_tree), "-K", "2"]) == 2
        assert capsys.readouterr().err.startswith("error: invariant:")


@pytest.mark.parametrize("algorithm", ["exact", "greedy"])
def test_underflowing_weight_ratio(algorithm, tmp_path, capsys):
    # Each tiny leaf's share of the 1e300 total underflows to zero.
    src = tmp_path / "tiny.csv"
    rows = "".join(f"{x},r,5e-324\n" for x in "abcd")
    src.write_text(f"id,parent,weight\nr,,1e300\n{rows}e,r,1.0\n", encoding="utf-8")
    out = tmp_path / "out.json"
    assert run(["--input", str(src), "-K", "2", "--algorithm", algorithm, "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    t = canonicalize(read_csv(src))
    results = json.loads(out.read_text())["results"]
    assert [res["k"] for res in results] == [1, 2]
    for res in results:
        r = brute_force_opt(t, res["k"])
        want = r.best if algorithm == "exact" else r.prefix_max
        assert res["entropy_bits"] == pytest.approx(want, rel=1e-12, abs=0)


def _run_cli_process(argv: list, timeout: float) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter, so that warnings and tracebacks reach stderr."""
    src = str(Path(summarytree.__file__).parents[1])
    return subprocess.run(
        [sys.executable, "-c", "from summarytree.cli import main; main()", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=timeout,
    )


def _summary_from_result(res: dict, doc: dict, ct) -> SummaryTree:
    """Rebuild one emitted summary tree, deriving anchors from member ids."""
    position = {nd["label"]: i for i, nd in enumerate(res["nodes"])}
    nodes = []
    for nd in res["nodes"]:
        members = np.array([doc["input_id_map"][m] for m in nd["members"]], dtype=np.int64)
        roots = members[~np.isin(ct.parent[members], members)]
        parent = -1 if nd["parent"] is None else position[nd["parent"]]
        if nd["kind"] == "group":
            anchor, child_roots = int(ct.parent[roots[0]]), tuple(int(r) for r in roots)
        else:
            anchor, child_roots = int(roots[0]), ()
        nodes.append(
            SummaryNode(nd["kind"], anchor, parent, nd["weight"], tuple(nd["members"]), child_roots)
        )
    return SummaryTree(res["k"], res["entropy_bits"], doc["W"], nodes)


def test_deep_path_exact(tmp_path):
    n = 100_000
    src = tmp_path / "path.csv"
    rows = (f"p{i},{f'p{i - 1}' if i else ''},{1 + i % 7}\n" for i in range(n))
    src.write_text("id,parent,weight\n" + "".join(rows), encoding="utf-8")
    out = tmp_path / "out.json"
    assert run(["--input", str(src), "--algorithm", "exact", "-K", "4", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert [res["k"] for res in doc["results"]] == [1, 2, 3, 4]
    ct = canonicalize(read_csv(src))
    for res in doc["results"]:
        validate_summary_tree(_summary_from_result(res, doc, ct), ct)


class TestGenCommand:
    @pytest.mark.parametrize(
        "flags, reason",
        [(["--max-weight", "0"], "max_weight"),
         (["--weights", "integer", "--max-weight", "0.5"], "max_weight"),
         (["--max-weight", "nan"], "max_weight"),
         (["--max-weight", "inf"], "max_weight"),
         (["--max-weight", "1e308"], "total weight overflows")],
    )
    def test_degenerate_max_weight_is_one_error_line(self, tmp_path, flags, reason):
        # A subprocess with a timeout, so that an endless resampling loop
        # fails the test instead of hanging the suite.
        out = tmp_path / "g.csv"
        proc = _run_cli_process(["gen", "--nodes", "50", *flags, "--output", str(out)], timeout=30)
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: input: {reason}") and proc.stderr.count("\n") == 1
        assert not out.exists()

    def test_gen_writes_parseable_deterministic_csv(self, tmp_path):
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        base = ["gen", "--nodes", "30", "--seed", "9", "--weights", "integer"]
        assert run(base + ["--output", str(p1)]) == 0
        assert run(base + ["--output", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()
        t = canonicalize(read_csv(p1))
        assert t.n == 30

    def test_gen_fixed_degree(self, tmp_path):
        p = tmp_path / "c.csv"
        rc = run(
            ["gen", "--nodes", "15", "--shape", "fixed-degree", "--degree", "2",
             "--weights", "unit", "--seed", "0", "--output", str(p)]
        )
        assert rc == 0
        t = canonicalize(read_csv(p))
        assert int(t.degree[1:].max()) == 2

    def test_gen_seed_changes_output(self, tmp_path):
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        run(["gen", "--nodes", "30", "--seed", "1", "--output", str(p1)])
        run(["gen", "--nodes", "30", "--seed", "2", "--output", str(p2)])
        assert p1.read_bytes() != p2.read_bytes()


def _golden_argv(name: str, algorithm: str) -> list:
    argv = ["--input", str(GOLDEN / f"{name}.csv"), "-K", str(GOLDEN_K[name])]
    return argv + ["--algorithm", algorithm, *ALGORITHMS[algorithm]]


def _odd_tree_csv(path: Path) -> Path:
    """Ids that JSON escapes and all-digit ids; zero, signed-zero and extreme weights."""
    rows = [("r", "", 1.0), ('q"uote', "r", 0.0), ("back\\slash", "r", -0.0),
            ("tab\tx", "r", 1e-300), ("nl\nx", 'q"uote', 1e300), ("\u00e9", 'q"uote', 2.0),
            ("line\u2028sep", "12345", 0.5), ("12345", "r", 3.0), ("0", "12345", 0.0)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("id", "parent", "weight"))
        writer.writerows((i, p, repr(w)) for i, p, w in rows)
    return path


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_writer_matches_json_dumps(algorithm, tmp_path, capsys):
    """Both outputs are what json.dumps(indent=1) makes of the document they hold."""
    odd = _odd_tree_csv(tmp_path / "odd.csv")
    cases = [(GOLDEN / f"{name}.csv", GOLDEN_K[name], ALGORITHMS[algorithm]) for name in GOLDEN_K]
    cases.append((odd, 9, ALGORITHMS[algorithm]))
    if algorithm == "approx":
        # At W0 = 32 every weight but 1e300 rounds to zero, so approx pads past the reduced tree.
        assert solve_approx(canonicalize(read_csv(odd)), 9, 2.0).reduced.tree.n < 9
        cases.append((odd, 9, ["--epsilon", "2.0"]))
    out = tmp_path / "out.json"
    for src, K, extra in cases:
        argv = ["--input", str(src), "-K", str(K), "--algorithm", algorithm, *extra]
        assert run(argv + ["--output", str(out)]) == 0
        assert run(argv) == 0
        text = out.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=1) + "\n"
        assert capsys.readouterr().out == text


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@pytest.mark.parametrize("name", sorted(GOLDEN_K))
def test_golden_output(name, algorithm, tmp_path, capsysbinary):
    """CLI JSON and DOT bytes equal the committed outputs of the plain json.dump writer."""
    out = tmp_path / "out.json"
    argv = _golden_argv(name, algorithm)
    assert run(argv + ["--output", str(out), "--dot", str(tmp_path / "viz")]) == 0
    want = (GOLDEN / f"{name}.{algorithm}.json").read_bytes()
    assert out.read_bytes() == want
    dots = b"".join((tmp_path / f"viz.{k}.dot").read_bytes() for k in range(1, GOLDEN_K[name] + 1))
    assert dots == (GOLDEN / f"{name}.{algorithm}.dot").read_bytes()
    capsysbinary.readouterr()
    assert run(argv) == 0
    assert capsysbinary.readouterr().out == want


@pytest.mark.parametrize("name", sorted(GOLDEN_K))
def test_golden_dot_is_escaped(name):
    for algorithm in ALGORITHMS:
        lines = (GOLDEN / f"{name}.{algorithm}.dot").read_text(encoding="utf-8").split("\n")
        assert lines[-1] == ""
        for line in lines[:-1]:
            assert line in ("digraph summary {", "}") or DOT_LINE.fullmatch(line), line
