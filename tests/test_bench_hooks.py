"""The benchmark traces library functions by name; every name it lists
must still resolve, or its metrics silently drop out of the results.  Its
workloads read library names directly; a name that is gone fails every job
that reads it."""
import ast
import importlib
import importlib.util
import os
import sys

from cannonlab import automaton, groups, thermo

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
SPANS = os.path.join(BENCH, "spans.py")
WORKLOADS = os.path.join(BENCH, "workloads.py")


def _spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    spans = _spans(monkeypatch)
    missing = [
        f"{module}.{attr}" for module, attr in spans.WRAPPED
        if not callable(getattr(importlib.import_module(f"cannonlab.{module}"), attr, None))
    ]
    missing += [
        f"{module}.{cls}.{attr}" for module, cls, attr in spans.WRAPPED_METHODS
        if attr not in vars(getattr(importlib.import_module(f"cannonlab.{module}"), cls))
    ]
    assert missing == []


def test_every_library_name_the_workloads_read_resolves():
    with open(WORKLOADS) as fh:
        tree = ast.parse(fh.read())
    modules = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "cannonlab"
        for alias in node.names
    }
    reads = {
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert reads, "found no library reads in the workloads"
    missing = [
        f"{module}.{attr}" for module, attr in sorted(reads)
        if not hasattr(importlib.import_module(f"cannonlab.{module}"), attr)
    ]
    assert missing == []


def test_the_benchmark_acceptor_call_still_works():
    aut = automaton.build_shortlex_acceptor(groups.FreeGroup(2), 1)
    assert aut.n_states == 5


def test_the_transfer_matrix_attributes_the_spans_read(free2_aut, free2_comp):
    # bench/spans.py records .n and .matrix.nnz of each transfer matrix
    structure = thermo.transfer_matrix(free2_aut, free2_comp.vertices, 2)
    assert (structure.n, structure.matrix.nnz) == (12, 36)
