"""Independent reference values for the limit flow.

The walk's limit is characterized weakly: between (truncated) exponential
vectors the flow matrix element m_t(x) = <v e(g_t]), j_t(x) u e(f_t])>
satisfies the finite-dimensional ODE

    d m_t(x) / dt = m_t( L(x) + <g(t), delta(x)> + delta_dag(x) f(t) )
                    + <g(t), f(t)> m_t(x),

with m_0(x) = <v, x u>.  This module integrates it backward in the
Heisenberg picture: Y = x at time t, dY/dtau = G_{t-tau}(Y) down to time 0,
and m_t(x) = <v, Y u>, with G_s the bracket plus <g(s), f(s)>.  G_s(Y) is a
sum of d x d sandwiches, the walk's slot kernel, so an RK4 step (breakpoints
of f and g forced onto the grid) costs O((2+m) d^3).  It is cross-validated
two ways: at f = g = 0 it must reduce to the exact semigroup, and it must
agree with the walk itself evaluated at a far finer step than the one under
study.
"""

from __future__ import annotations

import numpy as np

from .functions import TestFunction
from .linalg import sandwich
from .model import GkslModel, semigroup
from .walk import CHUNK, walk_matrix_element

__all__ = [
    "OracleRefinementError",
    "fine_walk_reference",
    "flow_matrix_element",
    "flow_matrix_element_fixed",
    "vacuum_check",
    "weak_generator",
]

REFINEMENT_TOL = 1e-8
MAX_STEPS = 2**16


class OracleRefinementError(RuntimeError):
    """Step doubling failed to converge; carries the last residual."""

    def __init__(self, residual: float):
        super().__init__(f"oracle refinement stalled with residual {residual:.3e}")
        self.residual = residual


def _pairing(u, v, Y) -> complex:
    """<v, Y u>, the weak functional of the flow at time 0."""
    u = np.asarray(u, dtype=complex).reshape(-1)
    return complex(np.vdot(np.asarray(v, dtype=complex).reshape(-1), Y @ u))


def _generator_factors(model: GkslModel, gvals, fvals, shift) -> tuple[np.ndarray, np.ndarray]:
    """Sandwich factors of Y -> weak_generator(Y) + shift Y, one set per row.

    For gvals, fvals of shape (P, m) and shift of shape (P,), left (P, d, (2+m)d)
    holds [K, 1, R_1*, ..., R_m*] side by side and right (P, 2+m, d, d) stacks
    [1, K', R_1, ..., R_m], so that sum_j L_j Y R_j = K Y + Y K' + sum_i R_i* Y R_i
    with K = -R*R/2 + drift + shift, K' = -R*R/2 - drift and
    drift = sum_i f_i R_i* - conj(g_i) R_i.
    """
    chans = model.channels  # (m, d, d)
    dags = chans.conj().transpose(0, 2, 1)
    drift = np.tensordot(fvals, dags, axes=1) - np.tensordot(np.conj(gvals), chans, axes=1)
    K0 = -0.5 * model.RdR
    eye = np.eye(model.d)
    tile = lambda ops: [np.broadcast_to(op, drift.shape) for op in ops]  # noqa: E731
    K = K0 + drift + np.multiply.outer(shift, eye)
    left = np.concatenate([K, *tile([eye, *dags])], axis=-1)
    right = np.stack([*tile([eye]), K0 - drift, *tile(chans)], axis=1)
    return left, right


def weak_generator(model: GkslModel, x, gval, fval) -> np.ndarray:
    """L(x) + <g, delta(x)> + delta_dag(x) f for fixed channel vectors g, f.

    Channel-wise, delta_i(x) = [x, R_i] and delta_dag_i(x) = [R_i*, x], so the
    whole thing is L(x) + sum_i conj(g_i)[x, R_i] + sum_i f_i [R_i*, x];
    it kills the identity and reduces to L at g = f = 0.
    """
    x = model.check_x(x)
    gval = np.asarray(gval, dtype=complex).reshape(-1)
    fval = np.asarray(fval, dtype=complex).reshape(-1)
    if len(gval) != model.m or len(fval) != model.m:
        raise ValueError(f"channel vectors must have length m={model.m}")
    left, right = _generator_factors(model, gval[None], fval[None], [0.0])
    return sandwich(left[0], x, right[0])


def _integration_grid(f: TestFunction, g: TestFunction, t: float, steps: int) -> np.ndarray:
    """Union of [0, t] endpoints and interior breakpoints, each segment
    subdivided so kinks sit on grid nodes and the total count is >= steps."""
    kinks = np.concatenate([f.breakpoints, g.breakpoints])
    kinks = np.unique(kinks[(kinks > 0) & (kinks < t)])
    edges = np.concatenate([[0.0], kinks, [t]])
    nodes = [np.array([0.0])]
    for a, b in zip(edges[:-1], edges[1:]):
        k = max(1, int(np.ceil((b - a) / t * steps)))
        nodes.append(np.linspace(a, b, k + 1)[1:])
    return np.concatenate(nodes)


def flow_matrix_element_fixed(model: GkslModel, x, u, v, f: TestFunction,
                              g: TestFunction, t: float, steps: int) -> complex:
    """One backward RK4 pass with a fixed step budget (no refinement).

    Starts from Y = x at time t and steps the Heisenberg picture
    dY/dtau = G_{t-tau}(Y) down to time 0; the result is <v, Y u>.  f and g
    are evaluated once on the grid nodes and midpoints, and the generator's
    factors are built CHUNK steps at a time.
    """
    x = model.check_x(x)
    grid = _integration_grid(f, g, t, steps)[::-1]
    # Nodes interleaved with midpoints, latest first: step i uses points
    # 2i (its start), 2i + 1 (midpoint) and 2i + 2 (its end).
    times = np.empty(2 * len(grid) - 1)
    times[0::2] = grid
    times[1::2] = 0.5 * (grid[:-1] + grid[1:])
    fv, gv = f(times), g(times)
    pairing = np.sum(np.conj(gv) * fv, axis=-1)
    Y = x
    for start in range(0, len(grid) - 1, CHUNK):
        stop = min(start + CHUNK, len(grid) - 1)
        pts = slice(2 * start, 2 * stop + 1)
        left, right = _generator_factors(model, gv[pts], fv[pts], pairing[pts])

        def rate(p, Y):
            return sandwich(left[p], Y, right[p])

        for i in range(stop - start):
            dt = grid[start + i] - grid[start + i + 1]
            k1 = rate(2 * i, Y)
            k2 = rate(2 * i + 1, Y + dt / 2 * k1)
            k3 = rate(2 * i + 1, Y + dt / 2 * k2)
            k4 = rate(2 * i + 2, Y + dt * k3)
            Y = Y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return _pairing(u, v, Y)


def flow_matrix_element(model: GkslModel, x, u, v, f: TestFunction, g: TestFunction,
                        t: float, steps: int = 256) -> complex:
    """m_t(x) with automatic step refinement.

    Doubles the step budget, up to MAX_STEPS, until two consecutive passes
    agree to REFINEMENT_TOL relative to max(1, |m_t|); a stall, or a
    starting budget above MAX_STEPS, raises OracleRefinementError with the
    last residual.
    """
    if t < 0:
        raise ValueError("need t >= 0")
    if t == 0:
        return _pairing(u, v, model.check_x(x))
    steps = max(64, int(steps))
    prev, residual = None, float("inf")
    while steps <= MAX_STEPS:
        cur = flow_matrix_element_fixed(model, x, u, v, f, g, t, steps)
        if prev is not None:
            residual = abs(cur - prev)
            if residual <= REFINEMENT_TOL * max(1.0, abs(cur)):
                return cur
        prev = cur
        steps *= 2
    raise OracleRefinementError(residual)


def vacuum_check(model: GkslModel, x, u, v, t: float, h: float) -> tuple[complex, complex, float]:
    """Walk vs exact semigroup matrix element on vacuum vectors.

    With f = g = 0 the walk value is the n-fold vacuum-block iteration of x
    and the limit is <v, T_t(x) u>; returns (walk, oracle, |walk - oracle|).
    """
    n = int(round(t / h))
    if abs(n * h - t) > 1e-9 * max(t, 1.0):
        raise ValueError("t must be an integer multiple of h")
    zero = TestFunction.zero(model.m)
    walk_value = walk_matrix_element(model, x, u, v, zero, zero, h, n)
    u_arr = np.asarray(u, dtype=complex).reshape(-1)
    v_arr = np.asarray(v, dtype=complex).reshape(-1)
    oracle_value = complex(np.vdot(v_arr, semigroup(model, x, t) @ u_arr))
    return walk_value, oracle_value, abs(walk_value - oracle_value)


def fine_walk_reference(model: GkslModel, x, u, v, f: TestFunction, g: TestFunction,
                        t: float, h_ref: float, study_h: float | None = None) -> complex:
    """The walk itself at a far finer step, as an alternate oracle.

    Requires t / h_ref to be an integer; when the study step is given,
    h_ref must undercut it by at least a factor of 8.
    """
    n = int(round(t / h_ref))
    if abs(n * h_ref - t) > 1e-9 * max(t, 1.0):
        raise ValueError("t must be an integer multiple of h_ref")
    if study_h is not None and h_ref > study_h / 8:
        raise ValueError("h_ref must be at most an eighth of the study step")
    return walk_matrix_element(model, x, u, v, f, g, h_ref, n)
