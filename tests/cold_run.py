"""qrw runs a convergence study and the lemma checks on numpy alone.

Run it in a fresh interpreter, against the source tree
(``PYTHONPATH=src python tests/cold_run.py``, as ``tests/test_exports.py``
does) or against an installed package without scipy (as CI does).  It imports
qrw alone, not the test modules, so it builds its amplitude-damping model
inline.  The walk and the oracle run in both step forms, with vacuum runs
taken as matrix powers, with chunks of the default size and of one row, and
with a g that jumps inside (0, 1), where at x = 1
the flow must be its exact factor; then the lemma checks, the F term, and
what qrw keeps of the explicit Fock space: the insertion tables of
``IntervalSpace.ops`` and ``exp_vector``.  Its last check is that no scipy or
``numpy.ma`` module has loaded, so building those tables never loads
``scipy.sparse``.
"""

import sys

import numpy as np

from qrw import fock, functions, linalg, model, oracle, walk  # noqa: F401 - every module loads

TF = functions.TestFunction

gksl = model.random_model(np.random.default_rng(3), 2, 1, 1.0)
damping = model.GkslModel(d=2, m=1, R=[[0.0, 1.0], [0.0, 0.0]])
x, flip = np.array([[0.2, 1.0], [0.5j, -0.3]]), np.array([[0.0, 1.0], [1.0, 0.0]])
u, v = np.array([1.0, 0.0]), np.array([0.6, 0.8j])
f = TF([0.0, 0.4, 1.0], [[0.0], [0.3 - 0.1j], [0.1]])
g = TF([0.2, 0.5, 0.7], [[0.0], [0.2j], [0.0]])
f1 = TF([0.0, 0.5, 1.0], [[0.0], [0.3j], [0.1]])
zero = TF.zero(1)

# Nonzero f and g at d = 2: both engines step by transfer matrices.
walk.walk_matrix_element(gksl, x, u, v, f, g, 0.25, 4)
oracle.flow_matrix_element(gksl, x, u, v, f, g, 1.0)
walk.walk_matrix_element(damping, flip, u, u, f1, f1, 1 / 64, 64)
oracle.flow_matrix_element_fixed(damping, flip, u, u, f1, f1, 1.0, 64)
# f = g = 0 over 1024 slots and steps: both engines take matrix powers.
for gk, xk, vk in ((gksl, x, v), (damping, flip, u)):
    walk.walk_matrix_element(gk, xk, u, vk, zero, zero, 1 / 1024, 1024)
    oracle.flow_matrix_element_fixed(gk, xk, u, vk, zero, zero, 1.0, 1024)
# Nonzero f and g at d = 8: both engines step by sandwich factors, over more
# rows than one chunk holds, and give the same values with one row per chunk.
f2 = TF([0.0, 0.5, 1.0], [[0.1, 0.2j], [0.3, 0.0], [0.0, 0.1]])
x8, u8 = np.eye(8)[::-1], np.eye(8)[0]
R8 = model.random_model(np.random.default_rng(8), 8, 2, 1.0).R
chunked = []
for budget in (1, linalg.CHUNK_BYTES):
    linalg.CHUNK_BYTES = budget
    big = model.GkslModel(d=8, m=2, R=R8)
    chunked.append((walk.walk_matrix_element(big, x8, u8, u8, f2, f2, 1 / 256, 256),
                    oracle.flow_matrix_element_fixed(big, x8, u8, u8, f2, f2, 1.0, 64),
                    big.rate_engine[-1]))
(*single, one), (*default, rows) = chunked
assert rows < 2 * 64 + 1 and one == 1, (rows, one)
assert default == single, (default, single)
# g jumps inside (0, 1): the oracle reads it one-sided and converges.
jump = TF([0.2, 0.7], [[0.2j], [0.0]])
oracle.flow_matrix_element(gksl, flip, u, [0.6, 0.8], f, jump, 1.0)
# At x = 1 the flow is <v, u> times its exact factor exp(int_0^1 <g, f>).
one = oracle.flow_matrix_element(gksl, np.eye(2), u, [0.6, 0.8], f, jump, 1.0)
factor = np.vdot([0.6, 0.8], u) * np.exp(jump.pair_overlap_integral(f, 0.0, 1.0))
assert abs(one - factor) <= 1e-12 * abs(factor), (one, factor)

space = fock.IntervalSpace(m=1, G=2, N=3, h=0.25)
fock.check_lemma_normdiff(space, f, 0.25)
fock.projection_deficiency(f, 1.0, 0.25, 1, 2, 3)
walk.f_term_norm(gksl, x, u, f, 0.25, 2, G=2, N=3)
for kind in (1, 2, 3, 4):
    for mode in "ab":
        fock.check_N_vs_Lambda(space, kind, np.eye(2), u, f, g=g, v=v, mode=mode)
fock.check_N_vs_Lambda(space, 4, np.eye(2), u, f1, g=f1, v=[0.0, 1.0], mode="b")
ins, occ = space.ops
assert ins.shape == occ.shape == (space.basis.offsets[space.N], space.G, space.m)
assert fock.exp_vector(space, f.cell_averages(0.0, 0.25, space.G)).shape == (space.dim,)
loaded = sorted(name for name in sys.modules if name.startswith("scipy")
                or name == "numpy.ma" or name.startswith("numpy.ma."))
assert not loaded, loaded
