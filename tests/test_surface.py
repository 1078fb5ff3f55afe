"""The public surface: a new export, parameter or option is a deliberate change to these lists."""

import importlib
import inspect
import pkgutil

import pytest

import summarytree
from summarytree import cli

ROOT = {
    "ApproxResult",
    "BruteForceResult",
    "CanonicalTree",
    "DPTables",
    "InputTree",
    "InvariantError",
    "SummaryNode",
    "SummaryTree",
    "TreeError",
    "brute_force_opt",
    "build_tree",
    "canonicalize",
    "compute_W0",
    "enumerate_all",
    "from_arrays",
    "random_tree",
    "read_csv",
    "read_json",
    "solve_approx",
    "solve_exact",
    "solve_greedy",
    "validate_summary_tree",
}


def test_root_exports():
    assert sorted(summarytree.__all__) == sorted(ROOT)
    for name in ROOT:
        assert hasattr(summarytree, name), name


def test_every_module_declares_exports_that_resolve():
    modules = [m.name for m in pkgutil.iter_modules(summarytree.__path__)]
    for name in modules:
        mod = importlib.import_module(f"summarytree.{name}")
        assert len(set(mod.__all__)) == len(mod.__all__), name
        for export in mod.__all__:
            assert hasattr(mod, export), f"summarytree.{name}.{export}"


PARAMETERS = {
    "compute_W0": ["K", "epsilon"],
    "solve_approx": ["t", "K", "epsilon"],
    "solve_exact": ["t", "K"],
    "solve_greedy": ["t", "K"],
    "DPTables": ["tree", "K", "mode", "chains"],
    "validate_summary_tree": ["tree", "ct"],
}

SOLVE_OPTIONS = ["--algorithm", "--dot", "--epsilon", "--format", "--help", "--input", "--output",
                 "--stats", "-K", "-h"]
GEN_OPTIONS = ["--degree", "--help", "--max-weight", "--nodes", "--output", "--seed", "--shape",
               "--weights", "-h"]


@pytest.mark.parametrize("name", sorted(PARAMETERS))
def test_parameters(name):
    assert list(inspect.signature(getattr(summarytree, name)).parameters) == PARAMETERS[name]


def test_cli_options():
    for parser, options in ((cli._solve_parser(), SOLVE_OPTIONS), (cli._gen_parser(), GEN_OPTIONS)):
        assert sorted(o for action in parser._actions for o in action.option_strings) == options


def test_w0_constant_is_not_an_option(tmp_path, capsys):
    p = tmp_path / "t.csv"
    p.write_text("id,parent,weight\nr,,1\na,r,2\n", encoding="utf-8")
    argv = ["--input", str(p), "-K", "2", "--algorithm", "approx", "--epsilon", "0.1"]
    assert cli.run(argv + ["--w0-constant", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: usage:") and err.count("\n") == 1
