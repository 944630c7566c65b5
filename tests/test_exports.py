"""Every name a qrw module exports in ``__all__`` exists, the oracle stays off the
walk, and qrw loads and runs a convergence study on numpy alone."""

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


# Runs in a fresh interpreter: the test modules of fock and model import scipy
# themselves, so this process's sys.modules says nothing about qrw's imports.
COLD_RUN = """
import sys

import numpy as np

from qrw import fock, functions, linalg, model, oracle, walk

rng = np.random.default_rng(3)
gksl = model.random_model(rng, 2, 1, 1.0)
x = np.array([[0.2, 1.0], [0.5j, -0.3]])
u, v = np.array([1.0, 0.0]), np.array([0.6, 0.8j])
f = functions.TestFunction([0.0, 0.4, 1.0], [[0.0], [0.3 - 0.1j], [0.1]])
g = functions.TestFunction([0.2, 0.5, 0.7], [[0.0], [0.2j], [0.0]])
walk.walk_matrix_element(gksl, x, u, v, f, g, 0.25, 4)
oracle.flow_matrix_element(gksl, x, u, v, f, g, 1.0)
# Long enough for both engines to take their vacuum runs as matrix powers.
zero = functions.TestFunction.zero(1)
walk.walk_matrix_element(gksl, x, u, v, zero, zero, 1 / 1024, 1024)
oracle.flow_matrix_element_fixed(gksl, x, u, v, zero, zero, 1.0, 1024)
space = fock.IntervalSpace(m=1, G=2, N=3, h=0.25)
fock.check_lemma_normdiff(space, f, 0.25)
fock.projection_deficiency(f, 1.0, 0.25, 1, 2, 3)
walk.f_term_norm(gksl, x, u, f, 0.25, 2, G=2, N=3)
for kind in (1, 2, 3, 4):
    for mode in "ab":
        fock.check_N_vs_Lambda(space, kind, np.eye(2), u, f, g=g, v=v, mode=mode)
loaded = [name for name in sys.modules if name.startswith("scipy")
          or name == "numpy.ma" or name.startswith("numpy.ma.")]
assert not loaded, sorted(loaded)

create, hop = space.ops
assert create[0].shape == (space.dim, space.dim)
assert np.allclose(model.semigroup(gksl, np.eye(2), 0.5), np.eye(2))
assert "scipy.sparse" in sys.modules and "scipy.linalg" in sys.modules
"""


def test_cold_study_runs_on_numpy_alone():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", COLD_RUN], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
