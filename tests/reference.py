"""Reference implementations that only the tests call.

Each is an independent cross-check of what qrw computes another way, or a
model the tests share:

* the dense walk engine: ``walk_dense_operator`` materializes p_{nh}(x) on
  system (x) (C + noise)^(x)n through ``model.beta_blocks``, and
  ``walk_dense_state`` applies it to u (x) projected e(f) by the leg-keeping
  recursion of ``walk._prefix_state``; ``toy_exp_embed`` is the projected
  exponential those states pair with, and ``walk_norm_sq`` a matrix element
  of the streaming walk.  Both dense entry points obey the walk's cap
  ``walk.DENSE_CAP`` (``walk.DenseCapError``);
* the exact semigroup T_t = exp(tL) through the superoperator of L, the
  tests' one use of ``scipy.linalg.expm``;
* ``weak_generator``, the rate of the oracle's ODE at fixed (g, f);
* ``amplitude_damping``, the qubit model most tests run on.

None of them is on the path of a study or of the benchmark, so qrw itself
holds only the streaming walk, the oracle and the lemma checks, and needs
numpy alone.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from qrw.functions import SlotAverages, TestFunction, slot_averages
from qrw.linalg import as_vector, dagger, flat, sandwich, vacuum_superoperator
from qrw.model import GkslModel, StepKernel, beta_blocks, structure_factors
from qrw.walk import _check_cap, _prefix_state, walk_matrix_element


def amplitude_damping(gamma: float = 1.0) -> GkslModel:
    """Qubit amplitude damping: d = 2, m = 1, R = sqrt(gamma) |0><1|."""
    R = np.sqrt(gamma) * np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    return GkslModel(d=2, m=1, R=R)


def toy_exp_embed(avgs: SlotAverages) -> np.ndarray:
    """Product of the hatted slot vectors (1, F_k): the projected exponential.

    A ((1+m)^n,) array in the slot order of ``walk_dense_state``, with
    squared norm prod_k (1 + sum_i |F_k[i]|^2).
    """
    vec = np.ones(1, dtype=complex)
    for k in range(avgs.n):
        vec = np.kron(vec, avgs.hatted(k))
    return vec


def walk_dense_operator(model: GkslModel, x, h: float, n: int) -> np.ndarray:
    """The walk operator p_{nh}(x) as a flat matrix on system (x) slots.

    Built by the outward recursion: start from the observable at slot n and
    apply the step map on the system leg once per slot toward slot 1, each
    application adjoining one fresh (slower) slot leg.
    """
    x = model.check_x(x)
    _check_cap(model.d, model.m, n)
    kernel = StepKernel.build(model, h)
    d, m = model.d, model.m
    T = x[None, None, :, :]  # (M, M, d, d) with M = 1
    for _ in range(n):
        M = T.shape[0]
        B = beta_blocks(kernel, T)  # (M, M, 1+m, 1+m, d, d)
        T = B.transpose(2, 0, 3, 1, 4, 5).reshape(M * (1 + m), M * (1 + m), d, d)
    return flat(T)


def walk_dense_state(model: GkslModel, x, u, f: TestFunction, h: float,
                     n: int) -> np.ndarray:
    """p_{nh}(x) applied to u (x) projected e(f), by the leg-keeping recursion.

    Returns the (d, (1+m)^n) array: slot 1 is slowest after the system
    index, so the flat slot index is sum_k j_k (1+m)^(n-k).
    """
    x = model.check_x(x)
    u = model.check_vector(u)
    _check_cap(model.d, model.m, n)
    kernel = StepKernel.build(model, h)
    hats = slot_averages(f, h, n).hatted(slice(None))
    return _prefix_state(kernel, x[None], hats, u)


def walk_norm_sq(model: GkslModel, x, u, f: TestFunction, h: float, n: int) -> float:
    """||p_{nh}(x) u (x) projected e(f)||^2 = the (x*x, u, u, f, f) matrix element."""
    val = walk_matrix_element(model, dagger(model.check_x(x)) @ x, u, u, f, f, h, n)
    if abs(val.imag) > 1e-10 * max(1.0, abs(val)):
        raise ArithmeticError(f"norm square has imaginary residue {val.imag}")
    return val.real


def lindblad_superoperator(model: GkslModel) -> np.ndarray:
    """Matrix of x -> L(x) on row-major vec(x): ``structure_factors`` at the vacuum hats."""
    return vacuum_superoperator(partial(structure_factors, model), 1 + model.m)


def semigroup(model: GkslModel, x, t: float) -> np.ndarray:
    """T_t(x) = exp(tL)(x), through the superoperator of L on row-major vec(x)."""
    import scipy.linalg

    x = model.check_x(x)
    if t < 0:
        raise ValueError("semigroup needs t >= 0")
    out = scipy.linalg.expm(t * lindblad_superoperator(model)) @ x.reshape(-1)
    return out.reshape(model.d, model.d)


def weak_generator(model: GkslModel, x, gval, fval) -> np.ndarray:
    """L(x) + <g, delta(x)> + delta_dag(x) f = <ghat, Theta(x) fhat> for fixed g, f.

    Channel-wise, delta_i(x) = [x, R_i] and delta_dag_i(x) = [R_i*, x], so the
    whole thing is L(x) + sum_i conj(g_i)[x, R_i] + sum_i f_i [R_i*, x];
    it kills the identity and reduces to L at g = f = 0.
    """
    x = model.check_x(x)
    gval, fval = as_vector(gval, model.m), as_vector(fval, model.m)
    left, right = structure_factors(model, np.append(1.0, gval)[None], np.append(1.0, fval)[None])
    return sandwich(left[0], x, right[0])
