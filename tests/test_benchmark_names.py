"""Every jcas_lab name the benchmark binds still exists.

``perfbench/tracer.py`` rebinds the (module, function) pairs of its SPANS
and STEPS tables, and ``perfbench/workloads.py`` reads attributes of
jcas_lab and its modules, such as ``riccati.gamma_bs``.  Both files are
read with ``ast``, not imported, so an API change that drops one of these
names fails here in seconds, not only in the minute-long benchmark
self-test (``perfbench/selftest.py``).
"""

import ast
import functools
import importlib
import pkgutil
from pathlib import Path

import pytest

import jcas_lab

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

for _info in pkgutil.iter_modules(jcas_lab.__path__):
    importlib.import_module(f"jcas_lab.{_info.name}")


def tracer_names() -> list:
    """(module, function) of every SPANS and STEPS entry of the tracer."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    tables = {
        target.id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("SPANS", "STEPS")
    }
    assert sorted(tables) == ["SPANS", "STEPS"]
    return sorted({tuple(entry[:2]) for table in tables.values() for entry in table})


def workload_names() -> list:
    """(module path, attribute) of every attribute that the workloads read
    off jcas_lab or a jcas_lab module they import by name."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    roots = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            roots.update((a.asname or a.name, a.name) for a in node.names if a.name == "jcas_lab")
        elif isinstance(node, ast.ImportFrom) and node.module == "jcas_lab":
            roots.update((a.asname or a.name, f"jcas_lab.{a.name}") for a in node.names)
    return sorted({
        (roots[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in roots
    })


def resolve(path: str):
    """The object at a dotted path below jcas_lab."""
    return functools.reduce(getattr, path.split(".")[1:], jcas_lab)


def test_tables_are_read():
    assert ("riccati", "gamma_bs") in tracer_names()
    assert ("jcas_lab.riccati", "gamma_bs") in workload_names()


@pytest.mark.parametrize("module, name", tracer_names())
def test_tracer_binds_existing_function(module, name):
    assert callable(getattr(resolve(f"jcas_lab.{module}"), name, None))


@pytest.mark.parametrize("owner, name", workload_names())
def test_workloads_read_existing_name(owner, name):
    assert hasattr(resolve(owner), name)
