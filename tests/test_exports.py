"""Every name a qrw module exports in ``__all__`` exists and, but for a short
allowlist, is read by qrw itself or by the benchmark, not by tests alone; the
oracle stays off the walk, beta is written in model alone, only linalg builds
superoperators, the walk forms no map itself, no code but
``GkslModel.spectrum`` calls an eigensolver or an SVD, fock builds its ladder
operators without sorting or searching and reads f on a slot in ``_slot_exp``
alone, ``linalg.flat`` is the one flattening of block arrays, no module
imports a name it never reads, no module imports scipy, and qrw loads and
runs a convergence study and the lemma checks on numpy alone
(``cold_run.py``)."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

MODULES = ["fock", "functions", "linalg", "model", "oracle", "walk"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"qrw.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"qrw.{name}.__all__ names missing attributes: {missing}"


# The exported names that nothing but the tests reads yet, each with why it stays.
UNREAD_EXPORTS = {
    "fock.fundamental_apply": "the explicit Fock realization, which moves to the tests in one piece",
    "fock.basic_apply": "the explicit Fock realization, which moves to the tests in one piece",
    "fock.project_Ph": "the explicit Fock realization, which moves to the tests in one piece",
    "model.defect": "a paper check (the step defect bound) for the report to print",
    "model.trig_estimates": "a paper check (the U(h) smallness estimates) for the report to print",
    "fock.check_composition_table": "a paper check (the basic operators' table) for the report to print",
}


def _reads(tree: ast.Module, module: str | None) -> set[str]:
    """The ``module.name`` of every qrw name a source file reads.

    A file reads a name it imports from its module (``from .model import X``,
    ``from qrw.model import X``) or reads off a module it imports
    (``from qrw import model`` and then ``model.X``).  ``module``, the stem of
    a file under src/qrw, adds the names the file loads bare outside their own
    top-level definition, so a local variable of another module that shares
    an export's name reads nothing.
    """
    reads, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            if base in (".", "qrw"):
                aliases.update({alias.asname or alias.name: alias.name for alias in node.names})
            elif base.startswith((".", "qrw.")):
                stem = base.rsplit(".", 1)[-1]
                reads.update(f"{stem}.{alias.name}" for alias in node.names)
    reads.update(f"{aliases[node.value.id]}.{node.attr}" for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id in aliases)
    if module is not None:
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            reads.update(f"{module}.{node.id}" for node in ast.walk(stmt)
                         if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                         and node.id != own)
    return reads


def test_every_export_has_a_caller():
    # A name stays under src/qrw only if qrw itself or the benchmark reads it;
    # a cross-check that only tests call lives in tests/reference.py.
    root = Path(__file__).resolve().parents[1]
    reads, strings = set(), set()
    for path in (root / "src" / "qrw").glob("*.py"):
        reads |= _reads(ast.parse(path.read_text()), path.stem)
    for path in (root / "perfbench").glob("*.py"):
        if path.name.startswith("test_"):
            continue
        tree = ast.parse(path.read_text())
        reads |= _reads(tree, None)
        # The tracer wraps qrw functions by their names.
        strings |= {node.value for node in ast.walk(tree)
                    if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    unread = {f"{name}.{attr}" for name in MODULES
              for attr in importlib.import_module(f"qrw.{name}").__all__
              if f"{name}.{attr}" not in reads and attr not in strings}
    assert unread == set(UNREAD_EXPORTS)


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


def test_beta_is_written_in_model_only():
    # beta's factor form is model.beta_factors: the walk and the oracle only step
    # it, and the walk reads beta through beta_factors, beta_blocks and
    # step_leg_outputs alone, never through a kernel's U.
    src = Path(__file__).resolve().parents[1] / "src" / "qrw"
    trees = {path.name: ast.parse(path.read_text()) for path in src.glob("*.py")}
    readers = {name for name, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr == "beta_corruption"}
    assert readers <= {"model.py"}
    assert not [node for node in ast.walk(trees["walk.py"])
                if isinstance(node, ast.Attribute) and node.attr == "U"]
    private = [alias.name for node in ast.walk(trees["oracle.py"])
               if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("model")
               for alias in node.names if alias.name.startswith("_")]
    assert not private


def test_only_linalg_builds_superoperators():
    # linalg.unit_table is the one builder of the unit-hat blocks of every
    # bilinear map, so no other module calls superoperator.
    src = Path(__file__).resolve().parents[1] / "src" / "qrw"
    callers = {path.name for path in src.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Call)
               and "superoperator" in {getattr(node.func, name, None) for name in ("id", "attr")}}
    assert callers <= {"linalg.py"}


def test_walk_forms_no_map_itself():
    # The streaming engine reads beta through linalg.step_maps and the F term
    # through model.step_leg_outputs, so walk.py names no map-forming kernel.
    path = Path(__file__).resolve().parents[1] / "src" / "qrw" / "walk.py"
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update({node.name, node.asname})
    assert not names & {"sandwich", "superoperator", "transfer_matrices", "apply_table"}


def _scopes(tree: ast.AST, hit, scope: str = "") -> set[str]:
    """The dotted scopes (class and function names) of every node of a tree that ``hit`` accepts."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            found |= _scopes(node, hit, f"{scope}.{node.name}".lstrip("."))
            continue
        if hit(node):
            found.add(scope)
        found |= _scopes(node, hit, scope)
    return found


def _callers(tree: ast.AST, name: str, args: tuple | None = None) -> set[str]:
    """The scopes of every call of ``name`` in a tree, only of those whose
    positional arguments are the constants ``args`` if given."""
    def hit(node):
        return (isinstance(node, ast.Call)
                and name in {getattr(node.func, a, None) for a in ("id", "attr")}
                and (args is None or tuple(getattr(a, "value", None) for a in node.args) == args))
    return _scopes(tree, hit)


def _imports_scipy(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        names = [node.module]
    else:
        return False
    return any(name.split(".")[0] == "scipy" for name in names)


def test_only_the_model_spectrum_decomposes():
    # U(h) at every h reads the one eigendecomposition of R*R that GkslModel
    # caches, so no per-h eigendecomposition or SVD can come back unseen.
    src = Path(__file__).resolve().parents[1] / "src" / "qrw"
    trees = {path.stem: ast.parse(path.read_text()) for path in src.glob("*.py")}
    callers = {f"{stem}.{scope}" for stem, tree in trees.items()
               for name in ("eigh", "eig", "eigvals", "eigvalsh", "svd")
               for scope in _callers(tree, name)}
    assert callers == {"model.GkslModel.spectrum"}


def test_no_module_imports_scipy():
    # qrw's one runtime dependency is numpy: the exact semigroup, the tests'
    # one use of scipy, is in tests/reference.py.
    src = Path(__file__).resolve().parents[1] / "src" / "qrw"
    importers = {f"{path.stem}.{scope}" for path in src.glob("*.py")
                 for scope in _scopes(ast.parse(path.read_text()), _imports_scipy)}
    assert importers == set()


def test_fock_ladder_operators_are_gathers():
    # The ladder and hop operators index their target rows through the
    # insertion tables, so no function in fock.py sorts rows or searches keys.
    path = Path(__file__).resolve().parents[1] / "src" / "qrw" / "fock.py"
    tree = ast.parse(path.read_text())
    assert not _callers(tree, "searchsorted") | _callers(tree, "sort")


def test_one_reader_of_a_slot():
    # fock._slot_exp is the one code that reads f on a slot (its cell averages
    # and tail); every lemma quantity goes through it and the one-particle algebra.
    src = Path(__file__).resolve().parents[1] / "src" / "qrw"
    callers = {f"{path.stem}.{scope}" for path in src.glob("*.py")
               for scope in _callers(ast.parse(path.read_text()), "cell_averages")}
    assert callers == {"fock._slot_exp"}


def test_one_flattening():
    # A block array becomes its matrix through linalg.flat alone, so no second
    # spelling of the system-slow flattening can drift from it.
    src = Path(__file__).resolve().parents[1] / "src" / "qrw"
    callers = {f"{path.stem}.{scope}" for path in src.glob("*.py")
               for scope in _callers(ast.parse(path.read_text()), "transpose", args=(2, 0, 3, 1))}
    assert callers == {"linalg.flat"}


def _unused_imports(path: Path) -> list[str]:
    """The module-level names a file imports and never reads or lists in ``__all__``.

    An import on a line marked ``# noqa: F401`` is kept on purpose and exempt.
    """
    text = path.read_text()
    lines, tree = text.splitlines(), ast.parse(text)
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names if "# noqa: F401" not in lines[alias.lineno - 1]}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read.update(name.value for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(target, "id", None) for target in node.targets] == ["__all__"]
                for name in node.value.elts)
    return sorted(imported - read)


def test_no_unused_imports():
    root = Path(__file__).resolve().parents[1]
    files = [*(root / "src" / "qrw").glob("*.py"), *(root / "tests").glob("*.py")]
    unused = {path.name: names for path in files if (names := _unused_imports(path))}
    assert not unused


# Runs in a fresh interpreter: the test modules of fock and model import scipy
# themselves, so this process's sys.modules says nothing about qrw's imports.
def test_cold_study_runs_on_numpy_alone():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(root / "tests" / "cold_run.py")], cwd=root,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
