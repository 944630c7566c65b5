"""The quantum random walk p_t^(h): one streaming engine, and the F term.

The walk over n slots of width h is the composition of per-slot step
homomorphisms: slot n is applied to the observable first, and each step
turns a system operator Y into the block family beta(h, Y) acting on the
system and one fresh slot copy of C + noise.  ``walk_matrix_element`` steps
the sandwich factors of ``model.beta_factors``, where beta is written once,
and contracts each slot against the hatted slot vectors (1, F_k) of the test
functions immediately after its step.  Slots are never revisited (the walk is
adapted), so the immediate contraction is exact, and the working set is
independent of n.  The slot map
Y -> sum_{j j'} conj(ghat_j) fhat_j' beta^{(j,j')}(h, Y) is the factors at
the slot's hats, stepped by ``linalg.step_maps`` (sandwich factors or transfer
matrices, whichever its cost rule finds cheaper); each run of vacuum slots off
supp f u supp g is taken as a matrix power where ``linalg.power_runs`` finds
that cheaper.  At zero ``linalg._cost`` nothing is strictly cheaper, so every
slot goes by its sandwich factors and no run is a power.

``f_term_norm``, the projection-loss term of the walk decomposition, keeps
every slot leg: ``_prefix_state`` applies the walk to u through
``model.step_leg_outputs``, so it is capped at d (1+m)^n <= ``DENSE_CAP``.

The dense engine, which materializes p_{nh}(x) on system (x) (C + noise)^(x)n,
is a test reference in ``tests/reference.py``.  Agreement of the streaming
walk with it checks the contraction with the hatted vectors, its chunking and
its slot order; agreement with its own zero-cost run checks the transfer
matrices and the powers.  beta itself is checked against U(h)* (x (x) 1) U(h)
in ``TestBeta`` of ``tests/test_model.py``.

Matrix elements pair against per-slot projections of exponential vectors,
i.e. the unnormalized product of (1, F_k); tail overlaps beyond t = n h are
excluded on both the walk and oracle sides.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .fock import (
    IntervalSpace,
    exp_vector,  # noqa: F401 - unused; perfbench/tracing.py wraps walk.exp_vector by name
    slot_exp_data,
)
from .functions import TestFunction, slot_averages
from .linalg import op_norm, power_runs, step_maps
from .model import GkslModel, StepKernel, beta_factors, step_leg_outputs

__all__ = [
    "DenseCapError",
    "FTermResult",
    "f_term_norm",
    "walk_matrix_element",
]

DENSE_CAP = 4096


class DenseCapError(ValueError):
    """A walk state with every slot leg kept would exceed ``DENSE_CAP`` entries."""


def _check_cap(d: int, m: int, n: int) -> None:
    if n < 1:
        raise ValueError("need n >= 1")
    if d * (1 + m) ** n > DENSE_CAP:
        raise DenseCapError(
            f"dense dimension d(1+m)^n = {d * (1 + m) ** n} exceeds cap {DENSE_CAP}"
        )


def defect_leg_outputs(kernel: StepKernel, ys: np.ndarray, fhat: np.ndarray) -> np.ndarray:
    """Same as ``model.step_leg_outputs`` with beta - b (the one-step defect family)."""
    ys = np.asarray(ys, dtype=complex)
    return step_leg_outputs(kernel, ys, fhat) - fhat[:, None, None] * ys[..., None, :, :]


def _prefix_state(kernel: StepKernel, ops: np.ndarray, hats: list, u: np.ndarray) -> np.ndarray:
    """The walk over the slots of ``hats`` applied to ops (L, d, d), then to u.

    Steps run from the last slot of ``hats`` toward the first, each keeping
    its fresh slot leg slower than the existing ones, (M, d, d) ->
    ((1+m) M, d, d); returns (d, (1+m)^len(hats) L) with the first slot
    slowest and the L legs of ops fastest.
    """
    d = ops.shape[-1]
    for hat in reversed(hats):
        legs = step_leg_outputs(kernel, ops, hat)
        ops = np.moveaxis(legs, 1, 0).reshape(-1, d, d)
    return np.einsum("Jab,b->aJ", ops, u)


# ---------------------------------------------------------------------------
# Streaming engine
# ---------------------------------------------------------------------------


def _sweep(y, maps, rows: int, ghats, fhats, start: int, stop: int):
    """The streaming state Y_start that follows Y_stop = y, in the engine's shape.

    Y_{k-1} = sum_{j j'} conj(ghat_k[j]) fhat_k[j'] beta^{(j,j')}(h, Y_k):
    slot k is contracted between the hatted vectors of g (output side) and
    f (input side) immediately after its step, which is exact because later
    steps never touch slot k again.  ``maps``, of ``linalg.step_maps``, forms
    the appliers of the slot maps ``rows`` slots at a time, the chunk that its
    byte budget allows; they run last first.
    """
    for hi in range(stop, start, -rows):
        lo = max(start, hi - rows)
        for apply in reversed(maps(ghats[lo:hi], fhats[lo:hi])):
            y = apply(y)
    return y


def walk_matrix_element(model: GkslModel, x, u, v, f: TestFunction, g: TestFunction,
                        h: float, n: int) -> complex:
    """<v (x) projected e(g), p_{nh}(x) u (x) projected e(f)> by streaming.

    ``linalg.step_maps`` steps the slot maps of ``model.beta_factors`` on Y,
    and ``power_runs`` takes each run of vacuum slots (f and g both average to
    zero) that costs more stepped than as a power as one power of the vacuum
    map.  Agrees with the dense engine pairing whenever the dense cap allows,
    and with itself at zero ``linalg._cost``, where no slot takes a shortcut.
    """
    u, v = model.check_vector(u), model.check_vector(v)
    x = model.check_x(x)
    model.check_function(f, g)
    favgs, gavgs = slot_averages(f, h, n), slot_averages(g, h, n)
    ghats, fhats = gavgs.hatted(slice(None)), favgs.hatted(slice(None))
    d = model.d
    # A slot forms its map at one pair of hats and applies it once.
    maps, vacuum_map, step, shape, rows = step_maps(beta_factors(StepKernel.build(model, h)),
                                                    1 + model.m, 1, 1)
    vacuum = ~(favgs.F.any(axis=1) | gavgs.F.any(axis=1))
    y, stop = x.reshape(shape), n
    for a, b in reversed(power_runs(vacuum, d, step)):
        y = _sweep(y, maps, rows, ghats, fhats, b, stop)
        y = (np.linalg.matrix_power(vacuum_map(), b - a) @ y.reshape(-1)).reshape(shape)
        stop = a
    y = _sweep(y, maps, rows, ghats, fhats, 0, stop)
    return complex(np.vdot(v, y.reshape(d, d) @ u))


# ---------------------------------------------------------------------------
# F term of the walk decomposition, in per-slot coordinates
# ---------------------------------------------------------------------------


class FTermResult(NamedTuple):
    value_sq: float
    bound: float
    slack: float
    passed: bool
    decomposition_residual: float


def _pad_legs(vec: np.ndarray, m: int, k: int) -> np.ndarray:
    """(d, (1+m)^k) walk legs as (d, (m+2)^k): each leg gains a zero q entry."""
    legs = vec.reshape((len(vec),) + (1 + m,) * k)
    return np.pad(legs, [(0, 0)] + [(0, 1)] * k).reshape(len(vec), -1)


def f_term_norm(model: GkslModel, x, u, f: TestFunction, h: float, n: int,
                G: int = 8, N: int = 4) -> FTermResult:
    """The projection-loss term of the walk decomposition, with its bound.

    With W_k the walk over slots 1..k (W_0 the identity), D_k the one-step
    defect beta - b at slot k, e_k = e(f on slot k) and q_k = (1 - P_h[k]) e_k,
    the sums A_k = W_k(x) u (x) e_{k+1} (x) ... (x) e_n telescope to

        W_n(x) u = x u e_1 ... e_n + sum_k W_{k-1}(D_k x) u e_{k+1..n} + F,
        F = - sum_k W_{k-1}(x) u q_k e_{k+1..n}.

    Every term lies in the product over slots of span(vacuum, chi^1..chi^m,
    q_k), so each is held in that orthonormal per-slot basis: e_k is its slot
    coordinates with ||q_k|| appended (``slot_exp_data`` on G cells, cutoff
    N), q_k is (0, ..., 0, ||q_k||), and a walk leg gains a zero last entry.
    The walk pieces of the (d, (m+2)^n) terms cost O(n (1+m)^n d^3) and the
    sum O(n d (m+2)^n); n is limited by the dense cap ``DENSE_CAP`` on
    d (1+m)^n (``DenseCapError``).  Reports ||F||^2 against
    h c(f,t) ||x||^2 ||u||^2 with c(f,t) = 2 t (c_f + sup|f|) ||e(f)||, plus
    the residual of the decomposition identity itself.  A slot whose
    truncation tail exceeds ``TAIL_LIMIT`` raises ``TruncationError``.
    """
    _check_cap(model.d, model.m, n)
    x = model.check_x(x)
    u = model.check_vector(u)
    model.check_function(f)
    m = model.m
    kernel = StepKernel.build(model, h)
    hats = slot_averages(f, h, n).hatted(slice(None))
    space = IntervalSpace(m=m, G=G, N=N, h=h)

    tails, es, qs = [], [], []
    for k in range(n):
        hat, q_sq, tail = slot_exp_data(space, f, k * h)
        tails.append(tail)
        es.append(np.append(hat, np.sqrt(q_sq)))
        qs.append(np.append(np.zeros(1 + m), np.sqrt(q_sq)))
    # rest[k] is the row e_{k+1} (x) ... (x) e_n of the slots after the k-th (0-based).
    rest = [np.ones((1, 1))]
    for e in reversed(es):
        rest.insert(0, np.kron(e, rest[0]))

    lhs = _pad_legs(_prefix_state(kernel, x[None], hats, u), m, n)
    term0 = np.kron((x @ u)[:, None], rest[0])
    mid = np.zeros_like(lhs)
    Fterm = np.zeros_like(lhs)
    for k in range(n):
        defect = defect_leg_outputs(kernel, x, hats[k])
        mid += np.kron(_pad_legs(_prefix_state(kernel, defect, hats[:k], u), m, k + 1),
                       rest[k + 1])
        prefix = _pad_legs(_prefix_state(kernel, x[None], hats[:k], u), m, k)
        Fterm -= np.kron(prefix, np.kron(qs[k], rest[k + 1]))

    residual = float(np.linalg.norm(lhs - term0 - mid - Fterm))
    value_sq = float(np.vdot(Fterm, Fterm).real)

    t = n * h
    sup, c_f = f.constants()
    exp_norm = float(np.exp(0.5 * f.l2_norm_sq(f.breakpoints[0], f.breakpoints[-1])))
    c_ft = 2.0 * t * (c_f + sup) * exp_norm
    x_norm = op_norm(x)
    u_norm = float(np.linalg.norm(u))
    bound = h * c_ft * x_norm**2 * u_norm**2
    scale = max(x_norm * u_norm * exp_norm, 1.0) ** 2
    slack = (sum(tails) + 1e-12) * scale
    return FTermResult(
        value_sq=value_sq,
        bound=float(bound),
        slack=float(slack),
        passed=bool(value_sq <= bound + slack),
        decomposition_residual=residual,
    )
