"""Every name a qrw module exports in ``__all__`` exists, and the oracle stays off the walk."""

import ast
import importlib
from pathlib import Path

import pytest

MODULES = ["fock", "functions", "linalg", "model", "oracle", "walk"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"qrw.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"qrw.{name}.__all__ names missing attributes: {missing}"


def _imported_modules(path: Path) -> set[str]:
    """Every module a source file imports, relative ones with their leading dots."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            sep = "" if base.endswith(".") else "."
            # ``from . import walk`` and ``from qrw import walk`` import a module too.
            names.update([base, *(base + sep + alias.name for alias in node.names)])
    return names


def test_oracle_does_not_import_walk():
    # The oracle is the walk's independent cross-check, so it must not reuse the walk.
    path = Path(__file__).resolve().parents[1] / "src" / "qrw" / "oracle.py"
    assert not _imported_modules(path) & {"qrw.walk", ".walk"}
