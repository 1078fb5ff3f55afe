"""The public surface: a new export is a deliberate change to these lists."""

import importlib
import pkgutil

import summarytree

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
    "entropy",
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
