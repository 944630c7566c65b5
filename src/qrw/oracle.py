"""Independent reference values for the limit flow.

The walk's limit is characterized weakly: between (truncated) exponential
vectors the flow matrix element m_t(x) = <v e(g_t]), j_t(x) u e(f_t])>
satisfies the finite-dimensional ODE

    d m_t(x) / dt = m_t( L(x) + <g(t), delta(x)> + delta_dag(x) f(t) )
                    + <g(t), f(t)> m_t(x),

with m_0(x) = <v, x u>.  This module integrates it backward in the
Heisenberg picture: Y = x at time t, dY/dtau = G_{t-tau}(Y) down to time 0,
and m_t(x) = <v, Y u>, with G_s the bracket plus <g(s), f(s)>.  The bracket
is <ghat, Theta(Y) fhat> at ghat = (1, g(s)), fhat = (1, f(s)), bilinear in
the hats, so G_s has two forms: the 2+m sandwich factors of
``model.structure_factors`` with the pairing added to K, applied by
``linalg.sandwich`` in two matmul calls, and on vec(Y) one d^2 x d^2 transfer
matrix, the contraction of the table Theta_{jj'} (plus the identity at
j = j' >= 1 for the pairing) by ``linalg.transfer_matrices``, in one call.
These are the two forms the walk's slots use, and ``linalg.pick_engine``
chooses between them by the same count, multiply-adds plus a fixed charge
per numpy call: transfer matrices at d <= 4.  An RK4 step (breakpoints of f
and g forced onto the grid) costs O((2+m) d^3) or O((1+m)^2 d^4).  Where
f = g = 0 the rate is the constant L, the table's entry 0, and an RK4 step
is the polynomial sum_{k<=4} (dt L)^k / k! of its d^2 x d^2 matrix; a run of
such vacuum steps on one grid segment goes through that polynomial's power
where ``linalg.power_runs`` finds this cheaper than the steps.
The module imports nothing from ``walk.py``; the two meet only in ``model``
and ``linalg``.  ``tests/test_oracle.py`` cross-validates it two ways:
``TestVacuumCheck`` pairs the walk at f = g = 0 with the exact semigroup, and
``TestFineWalkReference`` compares the walk at a far finer step than any
study's with this ODE value.  There the sandwich loop, forced through the cost
rule, is also the cross-check of the transfer matrices and the powers.
"""

from __future__ import annotations

import numpy as np

from .functions import TestFunction, _sorted_distinct
from .linalg import (
    CHUNK,
    as_vector,
    pick_engine,
    power_runs,
    sandwich,
    superoperator,
    transfer_matrices,
)
from .model import GkslModel, _write_k_factors, structure_factors, unit_pairs

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


def _generator_table(model: GkslModel, count: int) -> np.ndarray:
    """The transfer matrices of the rate at the first ``count`` unit-hat pairs, (count, d^2, d^2).

    Entry j (1+m) + j' is ``superoperator`` of ``structure_factors`` at
    (e_j, e_j'), the block Theta_{jj'}, plus the identity where j = j' >= 1:
    contracted at ghat = (1, g), fhat = (1, f) by ``transfer_matrices`` this
    gives the rate G_s, bracket plus <g, f>.  Entry 0 is L.
    """
    ghat, fhat = (units[:count] for units in unit_pairs(model.m))
    table = superoperator(*structure_factors(model, ghat, fhat))
    table[model.m + 2::model.m + 2] += np.eye(model.d**2)
    return table


def _check_pass(t: float, steps: int) -> None:
    if not (np.isfinite(t) and t >= 0):
        raise ValueError(f"need a finite t >= 0, got {t}")
    if steps < 1:
        raise ValueError(f"need steps >= 1, got {steps}")


def flow_matrix_element_fixed(model: GkslModel, x, u, v, f: TestFunction,
                              g: TestFunction, t: float, steps: int) -> complex:
    """One backward RK4 pass with a fixed step budget (no refinement).

    Starts from Y = x at time t and steps the Heisenberg picture
    dY/dtau = G_{t-tau}(Y) down to time 0; the result is <v, Y u>, which is
    <v, x u> at t = 0.  f and g are evaluated once on the grid nodes and
    midpoints, and the rates at those points are formed CHUNK steps at a
    time.  ``linalg.pick_engine`` applies them either by their 2+m sandwich
    factors, O((2+m) d^3) per rate in 2 numpy calls, or on vec(Y) by one
    transfer matrix per point, the contraction of the table of
    ``_generator_table``, O(d^4) per rate in one call and O((1+m)^2 d^4) per
    point: the latter at d <= 4.  A run of r vacuum steps (f = g = 0 at start,
    midpoint and end) on one grid segment is M^r on vec(Y),
    M = ``_rk4_polynomial``(dt L) with L the table's entry 0, where
    ``power_runs`` finds that cheaper than r steps.
    """
    x = model.check_x(x)
    _check_pass(t, steps)
    if t == 0:
        return _pairing(model, u, v, x)
    grid, segment = _integration_grid(f, g, t, steps)
    grid, segment = grid[::-1], segment[::-1]
    # Nodes interleaved with midpoints, latest first: step i uses points
    # 2i (its start), 2i + 1 (midpoint) and 2i + 2 (its end).
    times = np.empty(2 * len(grid) - 1)
    times[0::2] = grid
    times[1::2] = 0.5 * (grid[:-1] + grid[1:])
    fv, gv = f(times), g(times)
    zero = ~(fv.any(axis=-1) | gv.any(axis=-1))
    vacuum = zero[0:-1:2] & zero[1::2] & zero[2::2]
    d, m = model.d, model.m
    # An RK4 step forms the rates at 2 new points and applies them 4 times; M
    # takes 3 products of d^6.
    transfer, madds, calls = pick_engine(d, 2 + m, 1 + m, 2, 4)
    runs = power_runs(np.where(vacuum, segment, -1), d, madds, setup=3, step_calls=calls)
    if transfer or runs:
        table = _generator_table(model, (1 + m) ** 2 if transfer else 1)
    if transfer:
        ones = np.ones((len(times), 1))
        ghat, fhat = np.hstack([ones, gv]), np.hstack([ones, fv])

        def rates(pts: slice):
            T = transfer_matrices(table, ghat[pts], fhat[pts])
            return lambda p, y: T[p] @ y
    else:
        pairing = np.sum(np.conj(gv) * fv, axis=-1)
        # Factors at the vacuum points of one chunk hold the blocks every chunk shares.
        hats = np.eye(1, 1 + m).repeat(2 * min(CHUNK, len(vacuum)) + 1, axis=0)
        factors = structure_factors(model, hats, hats)

        def rates(pts: slice):
            left, right = _generator_factors(model, gv[pts], fv[pts], pairing[pts], factors)
            return lambda p, Y: sandwich(left[p], Y, right[p])

    def rk4(Y, first, last):
        for start in range(first, last, CHUNK):
            stop = min(start + CHUNK, last)
            rate = rates(slice(2 * start, 2 * stop + 1))
            for i in range(stop - start):
                dt = grid[start + i] - grid[start + i + 1]
                k1 = rate(2 * i, Y)
                k2 = rate(2 * i + 1, Y + dt / 2 * k1)
                k3 = rate(2 * i + 1, Y + dt / 2 * k2)
                k4 = rate(2 * i + 2, Y + dt * k3)
                Y = Y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        return Y

    Y, done = (x.reshape(-1) if transfer else x), 0
    for a, b in runs:
        M = _rk4_polynomial((grid[a] - grid[b]) / (b - a) * table[0])
        Y = (np.linalg.matrix_power(M, b - a) @ rk4(Y, done, a).reshape(-1)).reshape(Y.shape)
        done = b
    return _pairing(model, u, v, rk4(Y, done, len(grid) - 1).reshape(d, d))


def flow_matrix_element(model: GkslModel, x, u, v, f: TestFunction, g: TestFunction,
                        t: float, steps: int = 256) -> complex:
    """m_t(x) with automatic step refinement.

    Doubles the step budget, up to MAX_STEPS, until two consecutive passes
    agree to REFINEMENT_TOL relative to max(1, |m_t|); a stall, or a
    starting budget above MAX_STEPS, raises OracleRefinementError with the
    last residual.
    """
    _check_pass(t, steps)
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
