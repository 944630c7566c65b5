"""Independent reference values for the limit flow.

The walk's limit is characterized weakly: between (truncated) exponential
vectors the flow matrix element m_t(x) = <v e(g_t]), j_t(x) u e(f_t])>
satisfies the finite-dimensional ODE

    d m_t(x) / dt = m_t( L(x) + <g(t), delta(x)> + delta_dag(x) f(t) )
                    + <g(t), f(t)> m_t(x),

with m_0(x) = <v, x u>.  Its last term is a scalar and solves exactly:
m_t(x) = <e(g_t]), e(f_t])> <v, Y u>, the factor being exp of the integral
of <g, f> over [0, t] (``TestFunction.pair_overlap_integral``).  This module
integrates Y backward in the Heisenberg picture: Y = x at time t,
dY/dtau = G_{t-tau}(Y) down to time 0, with G_s the bracket
<ghat, Theta(Y) fhat> at ghat = (1, g(s)), fhat = (1, f(s)).  Bilinear in
the hats, G_s is stepped by ``linalg.step_maps``, the walk's engine, on
Theta as written, ``model.structure_factors``: ``GkslModel.rate_engine``,
built once per model and shared by every pass.  RK4 runs piece by piece
between the breakpoints of f and g, reading f and g at each piece's ends as
the limits from inside it, so a jump of either costs no order.  Where
f = g = 0 on a piece the rate is the constant L, and its k steps are M^k, M
the one RK4 step ``_rk4`` of L's d^2 x d^2 matrix applied to the identity,
where that is cheaper.

``flow_matrix_element`` sizes its passes by RK4's step-doubling estimate
|Y_2k - Y_k| / 15 of the error, which needs each pass to halve every step of
the one before (``_pieces``): it accepts once ESTIMATE_MARGIN times the
estimate is at most REFINEMENT_TOL * S, S = ||x|| ||u|| ||v|| exp((||f||^2 +
||g||^2) / 2) >= |m_t(x)|.  That is an estimate, not a bound;
``TestAccuracyContract`` checks the error on the inputs it lists.  The passes
always start at BASE_STEPS = 16 steps, with no option to start elsewhere, so
a study pays for the accuracy its ladder needs rather than for a fixed budget.

The module imports nothing from ``walk.py`` and no private name of ``model``;
the two meet only in ``model`` and ``linalg``.  ``tests/test_oracle.py``
cross-validates it two ways: ``TestVacuumCheck`` pairs the walk at f = g = 0
with the exact semigroup of ``tests/reference.py``, and
``TestFineWalkReference`` compares the walk at a far finer step than any
study's with this ODE value.  There the sandwich loop, forced through the cost
rule, is also the cross-check of the transfer matrices and the powers.
"""

from __future__ import annotations

import numpy as np

from .functions import TestFunction, _sorted_distinct
from .linalg import _power_pays, op_norm
from .model import GkslModel

__all__ = [
    "OracleRefinementError",
    "flow_matrix_element",
    "flow_matrix_element_fixed",
]

REFINEMENT_TOL = 1e-10
# The first pass of flow_matrix_element, and the coarsest split into pieces
# that the passes of a doubling chain refine (``_pieces``).
BASE_STEPS = 16
MAX_STEPS = 2**16
# The factor within which |Y_2k - Y_k| / 15 reads the error of the pass of 2k
# steps, either way; tests/test_oracle.py::TestAccuracyContract pins it.
ESTIMATE_MARGIN = 4


class OracleRefinementError(RuntimeError):
    """Step doubling failed to converge; carries the last residual."""

    def __init__(self, residual: float):
        super().__init__(f"oracle refinement stalled with residual {residual:.3e}")
        self.residual = residual


def _pairing(model: GkslModel, u, v, Y) -> complex:
    """<v, Y u>, the weak functional of the flow at time 0."""
    return complex(np.vdot(model.check_vector(v), Y @ model.check_vector(u)))


def _pieces(f: TestFunction, g: TestFunction, t: float, steps: int) -> list[tuple[float, float, int]]:
    """(a, b, k) for the pieces [a, b] of [0, t] between the interior
    breakpoints of f and g, each cut into k equal steps, >= steps in all.

    Write steps = s 2^j with j the most halvings that leave an integer
    s >= BASE_STEPS; a piece gets 2^j max(1, ceil(s (b - a) / t)) steps.  So
    from BASE_STEPS on, the pass of twice as many steps halves every step of
    this one, piece by piece, as RK4's step-doubling error estimate needs.
    """
    kinks = np.concatenate([f.breakpoints, g.breakpoints])
    kinks = _sorted_distinct(kinks[(kinks > 0) & (kinks < t)])
    edges = np.concatenate([[0.0], kinks, [t]]).tolist()
    scale = 1
    while steps % 2 == 0 and steps // 2 >= BASE_STEPS:
        steps, scale = steps // 2, 2 * scale
    return [(a, b, scale * max(1, int(np.ceil((b - a) / t * steps))))
            for a, b in zip(edges[:-1], edges[1:])]


def _points(a: float, b: float, k: int) -> np.ndarray:
    """The k + 1 nodes of [a, b] interleaved with the k midpoints, latest first:
    step i of the piece uses points 2i (its start), 2i + 1 and 2i + 2 (its end)."""
    nodes = np.linspace(a, b, k + 1)[::-1]
    times = np.empty(2 * k + 1)
    times[0::2] = nodes
    times[1::2] = 0.5 * (nodes[:-1] + nodes[1:])
    return times


def _hats(fn: TestFunction, times: np.ndarray, firsts: np.ndarray, lasts: np.ndarray) -> np.ndarray:
    """Rows (1, fn(s)) at the points of the pieces, read from inside each piece at its ends.

    A piece's points are times[first:last + 1], latest first.  fn is continuous
    but at its support ends, where its value is the limit from inside its
    support.  So a piece's upper end at the start of the support, or its lower
    end at the end of the support, reads 0; every other point reads fn's value.
    """
    hats = np.hstack([np.ones((len(times), 1)), fn(times)])
    hats[firsts[times[firsts] == fn.breakpoints[0]], 1:] = 0.0
    hats[lasts[times[lasts] == fn.breakpoints[-1]], 1:] = 0.0
    return hats


def _rk4(y: np.ndarray, rates, times: np.ndarray) -> np.ndarray:
    """RK4 from y over ``times``, 2k + 1 points as ``_points`` lays them out; rates[p] at p."""
    for i in range(len(times) // 2):
        dt = times[2 * i] - times[2 * i + 2]
        k1 = rates[2 * i](y)
        k2 = rates[2 * i + 1](y + dt / 2 * k1)
        k3 = rates[2 * i + 1](y + dt / 2 * k2)
        k4 = rates[2 * i + 2](y + dt * k3)
        y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def _check_pass(t: float, steps: int) -> None:
    if not (np.isfinite(t) and t >= 0):
        raise ValueError(f"need a finite t >= 0, got {t}")
    if steps < 1:
        raise ValueError(f"need steps >= 1, got {steps}")


def flow_matrix_element_fixed(model: GkslModel, x, u, v, f: TestFunction,
                              g: TestFunction, t: float, steps: int) -> complex:
    """One backward RK4 pass with a fixed step budget (no refinement).

    Starts from Y = x at time t and steps the Heisenberg picture
    dY/dtau = G_{t-tau}(Y) down to time 0; the result is <v, Y u> times the
    exact factor <e(g_t]), e(f_t])>, and <v, x u> at t = 0.  The pieces
    between breakpoints of f and g run latest first.  f and g are read once
    on the nodes and midpoints of every piece, from inside the piece at its
    ends, and the model's ``rate_engine`` applies the bracket at those points
    a chunk at a time: as many steps as its ``rows`` points allow, and at
    least one, each chunk's maps freed or overwritten before the next chunk's
    are formed.  A piece of k steps where f = g = 0 is M^k on vec(Y), M the
    RK4 step of the engine's vacuum map L applied to the identity, where
    ``_power_pays`` finds that cheaper than k steps.
    """
    x = model.check_x(x)
    model.check_function(f, g)
    _check_pass(t, steps)
    if t == 0:
        return _pairing(model, u, v, x)
    d = model.d
    pieces = _pieces(f, g, t, steps)[::-1]
    counts = np.array([k for _, _, k in pieces])
    maps, vacuum, step, shape, rows = model.rate_engine
    span = 2 * max(1, (rows - 1) // 2)  # the points a chunk steps over, less its last
    # Each piece has its own points, so a node between two pieces is read from
    # inside each of them.
    times = np.concatenate([_points(a, b, k) for a, b, k in pieces])
    lasts = np.cumsum(2 * counts + 1) - 1
    firsts = lasts - 2 * counts
    ghat, fhat = (_hats(fn, times, firsts, lasts) for fn in (g, f))
    y = x.reshape(shape)
    for k, first in zip(counts.tolist(), firsts.tolist()):
        pts = slice(first, first + 2 * k + 1)
        gp, fp, tp = ghat[pts], fhat[pts], times[pts]
        # f = g = 0 on the piece: M takes 4 products of d^6.
        if not (gp[:, 1:].any() or fp[:, 1:].any()) and _power_pays(d, k, step, 4):
            M = _rk4(np.eye(d * d), [vacuum().dot] * 3, tp[:3])
            y = (np.linalg.matrix_power(M, k) @ y.reshape(-1)).reshape(shape)
            continue
        # A chunk's maps live only as the argument of its _rk4 call.
        for start in range(0, 2 * k, span):
            chunk = slice(start, min(start + span, 2 * k) + 1)
            y = _rk4(y, maps(gp[chunk], fp[chunk]), tp[chunk])
    return _pairing(model, u, v, y.reshape(d, d)) * np.exp(g.pair_overlap_integral(f, 0.0, t))


def flow_matrix_element(model: GkslModel, x, u, v, f: TestFunction, g: TestFunction,
                        t: float) -> complex:
    """m_t(x), refined until its step-doubling estimate is within REFINEMENT_TOL * S.

    S = ||x|| ||u|| ||v|| exp((||f||^2 + ||g||^2) / 2), with ||x|| the
    operator norm and ||f||^2 the integral of |f|^2 over [0, t], is
    ||x|| ||u e(f_t])|| ||v e(g_t])||; j_t being a *-homomorphism,
    |m_t(x)| <= S, so the tolerance scales with x, u and v and is never
    absolute.  Doubles the step budget from BASE_STEPS up to MAX_STEPS, each
    pass halving every step of the one before.  The pass of 2k steps is
    returned, as it is, once ESTIMATE_MARGIN times |Y_2k - Y_k| / 15, RK4's
    estimate of its error, is at most REFINEMENT_TOL * S.  At t = 0 every pass
    is <v, x u>, so the second is returned.  The estimate is not a bound:
    ``TestAccuracyContract`` checks the error, and the estimate's ratio to it,
    on the inputs it lists.  A stall raises OracleRefinementError with the
    last |Y_2k - Y_k|.
    """
    _check_pass(t, BASE_STEPS)
    x, u, v = model.check_x(x), model.check_vector(u), model.check_vector(v)
    model.check_function(f, g)
    bound = (REFINEMENT_TOL * op_norm(x) * np.linalg.norm(u) * np.linalg.norm(v)
             * np.exp((f.l2_norm_sq(0.0, t) + g.l2_norm_sq(0.0, t)) / 2))
    steps, prev, residual = BASE_STEPS, None, float("inf")
    while steps <= MAX_STEPS:
        cur = flow_matrix_element_fixed(model, x, u, v, f, g, t, steps)
        if prev is not None:
            residual = abs(cur - prev)
            if ESTIMATE_MARGIN * residual / 15 <= bound:
                return cur
        prev = cur
        steps *= 2
    raise OracleRefinementError(residual)
