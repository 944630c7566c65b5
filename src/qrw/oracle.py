"""Independent reference values for the limit flow.

The walk's limit is characterized weakly: between (truncated) exponential
vectors the flow matrix element m_t(x) = <v e(g_t]), j_t(x) u e(f_t])>
satisfies the finite-dimensional ODE

    d m_t(x) / dt = m_t( L(x) + <g(t), delta(x)> + delta_dag(x) f(t) )
                    + <g(t), f(t)> m_t(x),

with m_0(x) = <v, x u>.  This module integrates it backward in the
Heisenberg picture: Y = x at time t, dY/dtau = G_{t-tau}(Y) down to time 0,
and m_t(x) = <v, Y u>, with G_s the bracket plus <g(s), f(s)>.  The bracket
is <ghat, Theta(Y) fhat> at ghat = (1, g(s)), fhat = (1, f(s)), so G_s(Y) is
the 2+m sandwich factors of ``model.structure_factors`` with the pairing added
to K, applied by ``linalg.sandwich``, the kernel the walk's slots also use:
an RK4 step (breakpoints of f and g forced onto the grid) costs O((2+m) d^3).
Where f = g = 0 the rate is the constant L, and an RK4 step is the
polynomial sum_{k<=4} (dt G)^k / k! of the d^2 x d^2 matrix G of L; a run of
such vacuum steps on one grid segment goes through that polynomial's power
when this costs fewer multiply-adds than the steps.
The module imports nothing from ``walk.py``; the two meet only in ``model``
and ``linalg``.  ``tests/test_oracle.py`` cross-validates it two ways:
``TestVacuumCheck`` pairs the walk at f = g = 0 with the exact semigroup, and
``TestFineWalkReference`` compares the walk at a far finer step than any
study's with this ODE value.
"""

from __future__ import annotations

import numpy as np

from .functions import TestFunction, _sorted_distinct
from .linalg import CHUNK, as_vector, power_runs, sandwich, superoperator
from .model import GkslModel, _write_k_factors, structure_factors

__all__ = [
    "OracleRefinementError",
    "flow_matrix_element",
    "flow_matrix_element_fixed",
    "weak_generator",
]

REFINEMENT_TOL = 1e-8
MAX_STEPS = 2**16


class OracleRefinementError(RuntimeError):
    """Step doubling failed to converge; carries the last residual."""

    def __init__(self, residual: float):
        super().__init__(f"oracle refinement stalled with residual {residual:.3e}")
        self.residual = residual


def _pairing(model: GkslModel, u, v, Y) -> complex:
    """<v, Y u>, the weak functional of the flow at time 0."""
    return complex(np.vdot(model.check_vector(v), Y @ model.check_vector(u)))


def _generator_factors(model: GkslModel, gvals, fvals, shift,
                       out=None) -> tuple[np.ndarray, np.ndarray]:
    """Sandwich factors of Y -> weak_generator(Y) + shift Y, one set per row.

    ``structure_factors`` at ghat = (1, g), fhat = (1, f) for gvals, fvals of
    shape (P, m), with shift (P,) added to its K factor.  Every such hat has
    c = 1, so given ``out``, factors of P or more such hats, only K and K' are
    written, into its first P rows, and views of those rows are returned.
    """
    ones = np.ones((len(gvals), 1))
    ghat, fhat = np.hstack([ones, gvals]), np.hstack([ones, fvals])
    if out is None:
        left, right = structure_factors(model, ghat, fhat)
    else:
        left, right = out[0][:len(ghat)], out[1][:len(ghat)]
        _write_k_factors(model, ghat, fhat, left, right)
    diag = np.arange(model.d)
    left[:, diag, diag] += np.asarray(shift)[:, None]
    return left, right


def weak_generator(model: GkslModel, x, gval, fval) -> np.ndarray:
    """L(x) + <g, delta(x)> + delta_dag(x) f = <ghat, Theta(x) fhat> for fixed g, f.

    Channel-wise, delta_i(x) = [x, R_i] and delta_dag_i(x) = [R_i*, x], so the
    whole thing is L(x) + sum_i conj(g_i)[x, R_i] + sum_i f_i [R_i*, x];
    it kills the identity and reduces to L at g = f = 0.
    """
    x = model.check_x(x)
    gval, fval = as_vector(gval, model.m), as_vector(fval, model.m)
    left, right = _generator_factors(model, gval[None], fval[None], [0.0])
    return sandwich(left[0], x, right[0])


def _integration_grid(f: TestFunction, g: TestFunction, t: float,
                      steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Union of [0, t] endpoints and interior breakpoints, each segment
    subdivided so kinks sit on grid nodes and the total count is >= steps;
    also the segment index of every step, one step per grid interval."""
    kinks = np.concatenate([f.breakpoints, g.breakpoints])
    kinks = _sorted_distinct(kinks[(kinks > 0) & (kinks < t)])
    edges = np.concatenate([[0.0], kinks, [t]])
    nodes, counts = [np.array([0.0])], []
    for a, b in zip(edges[:-1], edges[1:]):
        k = max(1, int(np.ceil((b - a) / t * steps)))
        nodes.append(np.linspace(a, b, k + 1)[1:])
        counts.append(k)
    return np.concatenate(nodes), np.repeat(np.arange(len(counts)), counts)


def _rk4_polynomial(A: np.ndarray) -> np.ndarray:
    """I + A + A^2/2 + A^3/6 + A^4/24: the RK4 step of a constant linear rate, with A = dt G."""
    eye = np.eye(len(A))
    M = eye + A / 4
    for k in (3, 2, 1):
        M = eye + (A / k) @ M
    return M


def flow_matrix_element_fixed(model: GkslModel, x, u, v, f: TestFunction,
                              g: TestFunction, t: float, steps: int) -> complex:
    """One backward RK4 pass with a fixed step budget (no refinement).

    Starts from Y = x at time t and steps the Heisenberg picture
    dY/dtau = G_{t-tau}(Y) down to time 0; the result is <v, Y u>.  f and g
    are evaluated once on the grid nodes and midpoints, and the generator's
    factors are built CHUNK steps at a time.  A run of r vacuum steps (f = g
    = 0 at start, midpoint and end) on one grid segment is M^r on vec(Y),
    M = ``_rk4_polynomial``(dt G) with G the ``superoperator`` of L, where
    ``power_runs`` finds that cheaper than r steps.
    """
    x = model.check_x(x)
    grid, segment = _integration_grid(f, g, t, steps)
    grid, segment = grid[::-1], segment[::-1]
    # Nodes interleaved with midpoints, latest first: step i uses points
    # 2i (its start), 2i + 1 (midpoint) and 2i + 2 (its end).
    times = np.empty(2 * len(grid) - 1)
    times[0::2] = grid
    times[1::2] = 0.5 * (grid[:-1] + grid[1:])
    fv, gv = f(times), g(times)
    pairing = np.sum(np.conj(gv) * fv, axis=-1)
    zero = ~(fv.any(axis=-1) | gv.any(axis=-1))
    vacuum = zero[0:-1:2] & zero[1::2] & zero[2::2]
    d, m = model.d, model.m
    # An RK4 step is 4 rates of 2(2+m) d^3; M takes 3 products of d^6.
    runs = power_runs(np.where(vacuum, segment, -1), d, 8 * (2 + m) * d**3, setup=3)
    # Factors at the vacuum points of one chunk hold the blocks every chunk shares.
    hats = np.eye(1, 1 + m).repeat(2 * min(CHUNK, len(vacuum)) + 1, axis=0)
    factors = structure_factors(model, hats, hats)
    G = superoperator(factors[0][0], factors[1][0]) if runs else None

    def rk4(Y, first, last):
        for start in range(first, last, CHUNK):
            stop = min(start + CHUNK, last)
            pts = slice(2 * start, 2 * stop + 1)
            left, right = _generator_factors(model, gv[pts], fv[pts], pairing[pts], factors)

            def rate(p, Y):
                return sandwich(left[p], Y, right[p])

            for i in range(stop - start):
                dt = grid[start + i] - grid[start + i + 1]
                k1 = rate(2 * i, Y)
                k2 = rate(2 * i + 1, Y + dt / 2 * k1)
                k3 = rate(2 * i + 1, Y + dt / 2 * k2)
                k4 = rate(2 * i + 2, Y + dt * k3)
                Y = Y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        return Y

    Y, done = x, 0
    for a, b in runs:
        M = _rk4_polynomial((grid[a] - grid[b]) / (b - a) * G)
        Y = (np.linalg.matrix_power(M, b - a) @ rk4(Y, done, a).reshape(-1)).reshape(d, d)
        done = b
    return _pairing(model, u, v, rk4(Y, done, len(grid) - 1))


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
        return _pairing(model, u, v, model.check_x(x))
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
