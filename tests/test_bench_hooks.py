"""The benchmark under perfbench/ wraps package functions by name and calls them
with keyword arguments; a rename or a dropped keyword would otherwise show
only as a failed traced benchmark run."""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("aba", "bethe", "curve", "lattice", "rmatrix", "thermo")


def _literal(filename, name):
    """Value of the module-level literal assignment `name = ...` in a perfbench file."""
    tree = ast.parse((PERFBENCH / filename).read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not found in {filename}")


def _workload_calls():
    """(module, function, positional count, keyword names) of every package call
    in perfbench/workloads.py whose positional count is known."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    calls = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in MODULES
            and not any(isinstance(a, ast.Starred) for a in node.args)
        ):
            keywords = tuple(k.arg for k in node.keywords)
            calls.add((node.func.value.id, node.func.attr, len(node.args), keywords))
    return sorted(calls)


@pytest.mark.parametrize("filename,name", [("tracing.py", "TARGETS"), ("speed.py", "HOOKS")])
def test_hooked_names_exist(filename, name):
    for mod_name, names in _literal(filename, name).items():
        module = importlib.import_module(f"genus5chain.{mod_name}")
        for fn in names:
            assert callable(getattr(module, fn, None)), f"{mod_name}.{fn} named in {name}"


def test_workload_calls_bind():
    calls = _workload_calls()
    for needed in [
        ("thermo", "solve_sigma", 1, ("N", "k0")),
        ("bethe", "track_state", 4, ("du", "kick")),
        ("lattice", "reality_threshold", 1, ("bracket",)),
        ("lattice", "diagonalize", 1, ("mode", "k")),
    ]:
        assert needed in calls
    for mod_name, fn, npos, keywords in calls:
        sig = inspect.signature(getattr(importlib.import_module(f"genus5chain.{mod_name}"), fn))
        sig.bind(*range(npos), **dict.fromkeys(keywords))


def test_discovered_caches_release_the_sector_store():
    # before every round the benchmark calls cache_clear on every module
    # attribute of the package that has one (`workloads._CACHED`); sectors
    # and lowest levels kept warm across rounds would show as a gain that
    # no caller sees
    for mod_name in MODULES:
        importlib.import_module(f"genus5chain.{mod_name}")
    lattice = sys.modules["genus5chain.lattice"]
    list(lattice.build_hamiltonian(1.0, 6, 0).real_blocks())
    lattice.lowest_per_sector(1.0, 4)
    assert lattice._sectors and lattice._sector_lowest.cache_info().currsize
    cached = {id(fn): fn for name, mod in list(sys.modules.items())
              if name.startswith("genus5chain.")
              for fn in vars(mod).values() if hasattr(fn, "cache_clear")}
    for fn in cached.values():
        fn.cache_clear()
    assert not lattice._sectors
    assert lattice._sector_lowest.cache_info().currsize == 0
