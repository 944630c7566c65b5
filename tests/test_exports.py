"""Every name a qrw module exports in ``__all__`` exists, the oracle stays off the
walk, beta is written in model alone, only linalg builds superoperators, the walk
forms no map itself, no code but ``GkslModel.spectrum`` calls an eigensolver or an
SVD, fock builds its ladder operators without sorting or searching and reads f on
a slot in ``_slot_exp`` alone, ``linalg.flat`` is the one flattening of block
arrays, no module imports a name it never reads, and qrw loads and runs a
convergence study on numpy alone (``cold_run.py``)."""

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
    # The dense engine reads beta through model.beta_blocks and the streaming
    # engine through linalg.step_maps, so walk.py names no map-forming kernel.
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


def test_only_the_semigroup_imports_scipy():
    # The walk, the oracle, the lemma checks and the explicit Fock space run on
    # numpy alone: the exact semigroup's expm is qrw's one use of scipy.
    src = Path(__file__).resolve().parents[1] / "src" / "qrw"
    importers = {f"{path.stem}.{scope}" for path in src.glob("*.py")
                 for scope in _scopes(ast.parse(path.read_text()), _imports_scipy)}
    assert importers == {"model.semigroup"}


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
