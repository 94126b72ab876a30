"""No jcas_lab module imports another module's private name.

A ``_``-prefixed name is its module's own; a check or helper another
module needs belongs under a public name where the rule is decided
(``statespace.check_range``, not a copy of ``riccati``'s).  The sources
are read with ``ast``, so the rule holds for every import form that names
a jcas_lab module: ``from .riccati import _x``, ``from jcas_lab.riccati
import _x`` and ``from . import _riccati_private``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "jcas_lab"


def private(name: str) -> bool:
    """A ``_`` name, but not a dunder such as ``__version__``."""
    return name.startswith("_") and not name.endswith("__")


def private_imports(path: Path) -> list:
    """(line, module, name) of every private name the module imports from jcas_lab."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and not (module == "jcas_lab" or module.startswith("jcas_lab.")):
            continue
        found += [(node.lineno, module, alias.name) for alias in node.names if private(alias.name)]
    return found


def test_sources_found():
    assert {"statespace.py", "riccati.py", "filtering.py", "tradeoff.py"} <= {p.name for p in SRC.glob("*.py")}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_private_name_imported(path):
    assert private_imports(path) == []


def test_private_import_detected(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("from .riccati import BeamPolicy, _check_lam\nfrom jcas_lab.statespace import _x\n"
        "from numpy import _y\nfrom . import __version__\n")
    assert private_imports(source) == [(1, "riccati", "_check_lam"), (2, "jcas_lab.statespace", "_x")]
