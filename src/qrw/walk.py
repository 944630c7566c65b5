"""The quantum random walk: dense and streaming evaluation of p_t^(h).

The walk over n slots of width h is the composition of per-slot step
homomorphisms: slot n is applied to the observable first, and each step
turns a system operator Y into the block family beta(h, Y) acting on the
system and one fresh slot copy of C + noise.  Two engines evaluate it:

* a dense engine that materializes operators and states on
  system (x) (C + noise)^(x)n from the blocks of beta as plain arrays,
  feasible while d (1+m)^n stays under the one cap ``DENSE_CAP``;
* a streaming engine that contracts each slot against the hatted slot
  vectors (1, F_k) of the test functions immediately after its step.
  Slots are never revisited (the walk is adapted), so the immediate
  contraction is exact.  It steps with the dilation form U(h)* (Y (x) 1) U(h),
  two matmul calls on d x d blocks per slot: O(n (1+m) d^3) time and a
  working set independent of n.  Agreement of the engines thus checks the
  materialized beta blocks against the slot-by-slot contraction with the
  hatted vectors, including its chunking and its slot order.

Matrix elements pair against per-slot projections of exponential vectors,
i.e. the unnormalized product of (1, F_k); tail overlaps beyond t = n h are
excluded on both the walk and oracle sides.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .fock import (
    IntervalSpace,
    _checked_tail,
    basic_operator_flat,
    exp_vector,  # noqa: F401 - unused; perfbench/tracing.py wraps walk.exp_vector by name
    slot_exp_data,
)
from .functions import SlotAverages, TestFunction, slot_averages
from .linalg import CHUNK, dagger, op_norm, sandwich
from .model import GkslModel, StepKernel, beta_blocks

__all__ = [
    "DenseCapError",
    "FTermResult",
    "check_composition_table",
    "f_term_norm",
    "toy_exp_embed",
    "walk_dense_operator",
    "walk_dense_state",
    "walk_matrix_element",
    "walk_norm_sq",
    "walk_stream_states",
]

DENSE_CAP = 4096


class DenseCapError(ValueError):
    """The dense engine would exceed its total dimension cap ``DENSE_CAP``."""


def _check_cap(d: int, m: int, n: int) -> None:
    if d * (1 + m) ** n > DENSE_CAP:
        raise DenseCapError(
            f"dense dimension d(1+m)^n = {d * (1 + m) ** n} exceeds cap {DENSE_CAP}"
        )


def toy_exp_embed(avgs: SlotAverages) -> np.ndarray:
    """Product of the hatted slot vectors (1, F_k): the projected exponential.

    A ((1+m)^n,) array in the slot order of ``walk_dense_state``, with
    squared norm prod_k (1 + sum_i |F_k[i]|^2).
    """
    vec = np.ones(1, dtype=complex)
    for k in range(avgs.n):
        vec = np.kron(vec, avgs.hatted(k))
    return vec


# ---------------------------------------------------------------------------
# Dense engine
# ---------------------------------------------------------------------------


def walk_dense_operator(model: GkslModel, x, h: float, n: int) -> np.ndarray:
    """The walk operator p_{nh}(x) as a flat matrix on system (x) slots.

    Built by the outward recursion: start from the observable at slot n and
    apply the step map on the system leg once per slot toward slot 1, each
    application adjoining one fresh (slower) slot leg.
    """
    x = model.check_x(x)
    if n < 1:
        raise ValueError("need n >= 1")
    _check_cap(model.d, model.m, n)
    kernel = StepKernel.build(model, h)
    d, m = model.d, model.m
    T = x[None, None, :, :]  # (M, M, d, d) with M = 1
    for _ in range(n):
        M = T.shape[0]
        B = beta_blocks(kernel, T)  # (M, M, 1+m, 1+m, d, d)
        T = B.transpose(2, 0, 3, 1, 4, 5).reshape(M * (1 + m), M * (1 + m), d, d)
    M = T.shape[0]
    return np.ascontiguousarray(T.transpose(2, 0, 3, 1).reshape(d * M, d * M))


def step_leg_outputs(kernel: StepKernel, ys: np.ndarray, fhat: np.ndarray) -> np.ndarray:
    """beta blocks contracted against a hatted slot vector on the input side.

    For ys of shape (..., d, d) returns (..., 1+m, d, d):
    out[..., j] = sum_j' beta^{(j, j')}(ys) fhat[j'].
    """
    return np.einsum("...jkab,k->...jab", beta_blocks(kernel, ys), fhat)


def defect_leg_outputs(kernel: StepKernel, ys: np.ndarray, fhat: np.ndarray) -> np.ndarray:
    """Same as step_leg_outputs with beta - b (the one-step defect family)."""
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


def walk_dense_state(model: GkslModel, x, u, f: TestFunction, h: float,
                     n: int) -> np.ndarray:
    """p_{nh}(x) applied to u (x) projected e(f), by the leg-keeping recursion.

    Returns the (d, (1+m)^n) array: slot 1 is slowest after the system
    index, so the flat slot index is sum_k j_k (1+m)^(n-k).
    """
    x = model.check_x(x)
    u = np.asarray(u, dtype=complex).reshape(-1)
    if n < 1:
        raise ValueError("need n >= 1")
    _check_cap(model.d, model.m, n)
    kernel = StepKernel.build(model, h)
    avgs = slot_averages(f, h, n)
    hats = [avgs.hatted(k) for k in range(n)]
    return _prefix_state(kernel, x[None], hats, u)


# ---------------------------------------------------------------------------
# Streaming engine
# ---------------------------------------------------------------------------


def _sweep(model: GkslModel, x, favgs: SlotAverages, gavgs: SlotAverages):
    """Yield the streaming states Y_{n-1}, ..., Y_0 that follow Y_n = x.

    Y_{k-1} = sum_{j j'} conj(ghat_k[j]) fhat_k[j'] beta^{(j,j')}(h, Y_k)
            = sum_l Vg_l* Y_k Vf_l,
    where V_l is the block of V = U(h)(1 (x) hat_k) on slot direction l:
    slot k is contracted between the hatted vectors of g (output side) and
    f (input side) immediately after its step, which is exact because later
    steps never touch slot k again.  A nonzero ``model.beta_corruption`` c
    adds c Y_k, as it adds c x to the vacuum block of beta.
    """
    x = model.check_x(x)
    if favgs.n != gavgs.n or favgs.h != gavgs.h:
        raise ValueError("slot averages of f and g must share (h, n)")
    d, m = model.d, model.m
    U = StepKernel.build(model, favgs.h).U.blocks  # [l, j, a, b]
    # Per input direction j: the blocks U^{(l,j)} stacked over l, and the
    # blocks U^{(l,j)}* side by side, so V_l and [Vg_0* | ... | Vg_m*] are
    # linear in the hatted vectors.
    cols = U.transpose(1, 0, 2, 3).reshape(1 + m, -1)
    rows = U.conj().transpose(1, 3, 0, 2).reshape(1 + m, -1)
    c = model.beta_corruption
    Y = x
    for stop in range(favgs.n, 0, -CHUNK):
        start = max(0, stop - CHUNK)
        right = (favgs.hatted(slice(start, stop)) @ cols).reshape(-1, 1 + m, d, d)
        left = (gavgs.hatted(slice(start, stop)).conj() @ rows).reshape(-1, d, (1 + m) * d)
        for k in range(stop - start - 1, -1, -1):
            step = sandwich(left[k], Y, right[k])
            Y = step + c * Y if c else step
            yield Y


def walk_stream_states(model: GkslModel, x, favgs: SlotAverages,
                       gavgs: SlotAverages) -> np.ndarray:
    """All streaming states [Y_n = x, Y_{n-1}, ..., Y_0], shape (n+1, d, d)."""
    return np.stack([model.check_x(x), *_sweep(model, x, favgs, gavgs)])


def walk_matrix_element(model: GkslModel, x, u, v, f: TestFunction, g: TestFunction,
                        h: float, n: int) -> complex:
    """<v (x) projected e(g), p_{nh}(x) u (x) projected e(f)> by streaming.

    Cost O(n (1+m) d^3); agrees with the dense engine pairing whenever the
    dense cap allows.
    """
    u = np.asarray(u, dtype=complex).reshape(-1)
    v = np.asarray(v, dtype=complex).reshape(-1)
    for Y in _sweep(model, x, slot_averages(f, h, n), slot_averages(g, h, n)):
        pass
    return complex(np.vdot(v, Y @ u))


def walk_norm_sq(model: GkslModel, x, u, f: TestFunction, h: float, n: int) -> float:
    """||p_{nh}(x) u (x) projected e(f)||^2 = the (x*x, u, u, f, f) matrix element."""
    val = walk_matrix_element(model, dagger(model.check_x(x)) @ x, u, u, f, f, h, n)
    if abs(val.imag) > 1e-10 * max(1.0, abs(val)):
        raise ArithmeticError(f"norm square has imaginary residue {val.imag}")
    return val.real


# ---------------------------------------------------------------------------
# Composition table of the basic operators (projected one-interval picture)
# ---------------------------------------------------------------------------


def check_composition_table(rng, d: int = 3, m: int = 2) -> list[tuple[str, float]]:
    """Residuals of the ten basic-operator composition identities.

    Random coefficient operators, one interval, in the slot-space picture
    where the basic operators live as block matrix units; returns
    (name, operator-norm residual) pairs.
    """

    def rand(shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)

    dm = d * m
    S1, S2 = rand((d, d)), rand((d, d))
    R1, R2 = rand((dm, d)), rand((dm, d))
    T1, T2 = rand((dm, dm)), rand((dm, dm))

    def N(l, coeff):
        return basic_operator_flat(l, coeff, d, m)

    zero = np.zeros((d * (1 + m), d * (1 + m)))
    table = [
        ("annihilation_nilpotent", N(2, R1) @ N(2, R1), zero),
        ("creation_nilpotent", N(3, R1) @ N(3, R1), zero),
        ("time_time", N(1, S1) @ N(1, S2), N(1, S1 @ S2)),
        ("annihilation_creation", N(2, R1) @ N(3, R2), N(1, dagger(R1) @ R2)),
        ("time_annihilation", N(1, S1) @ N(2, R1), N(2, R1 @ dagger(S1))),
        ("annihilation_conservation", N(2, R1) @ N(4, T1), N(2, dagger(T1) @ R1)),
        ("creation_time", N(3, R1) @ N(1, S1), N(3, R1 @ S1)),
        ("conservation_creation", N(4, T1) @ N(3, R1), N(3, T1 @ R1)),
        ("creation_annihilation", N(3, R1) @ N(2, R2), N(4, R1 @ dagger(R2))),
        ("conservation_conservation", N(4, T1) @ N(4, T2), N(4, T1 @ T2)),
        (
            "slot_resolution",
            N(1, S1) + N(4, np.kron(S1, np.eye(m))),
            np.kron(S1, np.eye(1 + m)),
        ),
    ]
    return [(name, op_norm(lhs - rhs)) for name, lhs, rhs in table]


# ---------------------------------------------------------------------------
# F term of the walk decomposition, in per-slot coordinates
# ---------------------------------------------------------------------------


class FTermResult(NamedTuple):
    value_sq: float
    bound: float
    slack: float
    passed: bool
    passed_raw: bool
    decomposition_residual: float


def _pad_legs(vec: np.ndarray, m: int, k: int) -> np.ndarray:
    """(d, (1+m)^k) walk legs as (d, (m+2)^k): each leg gains a zero q entry."""
    legs = vec.reshape((len(vec),) + (1 + m,) * k)
    return np.pad(legs, [(0, 0)] + [(0, 1)] * k).reshape(len(vec), -1)


def f_term_norm(model: GkslModel, x, u, f: TestFunction, h: float, n: int,
                G: int = 8, N: int = 4, safety: float = 4.0) -> FTermResult:
    """The projection-loss term of the walk decomposition, with its bound.

    With W_k the walk over slots 1..k (W_0 the identity), D_k the one-step
    defect beta - b at slot k, e_k = e(f on slot k) and q_k = (1 - P_h[k]) e_k,
    the sums A_k = W_k(x) u (x) e_{k+1} (x) ... (x) e_n telescope to

        W_n(x) u = x u e_1 ... e_n + sum_k W_{k-1}(D_k x) u e_{k+1..n} + F,
        F = - sum_k W_{k-1}(x) u q_k e_{k+1..n}.

    Every term lies in the product over slots of span(vacuum, chi^1..chi^m,
    q_k), so each is held in that orthonormal per-slot basis: e_k is its slot
    coordinates with ||q_k|| appended (the closed form ``slot_exp_data`` on G
    cells, cutoff N), q_k is (0, ..., 0, ||q_k||), and a walk leg gains a zero
    last entry.  The walk pieces of the (d, (m+2)^n) terms cost
    O(n (1+m)^n d^3) and the sum O(n d (m+2)^n); n is limited by the dense
    cap ``DENSE_CAP`` on d (1+m)^n (``DenseCapError``).  Reports ||F||^2 against
    h c(f,t) ||x||^2 ||u||^2 with c(f,t) = 2 t (c_f + sup|f|) ||e(f)||, plus
    the residual of the decomposition identity itself.  A slot whose
    truncation tail exceeds ``TAIL_LIMIT`` raises ``TruncationError``.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    _check_cap(model.d, model.m, n)
    x = model.check_x(x)
    u = np.asarray(u, dtype=complex).reshape(-1)
    m = model.m
    kernel = StepKernel.build(model, h)
    avgs = slot_averages(f, h, n)
    hats = [avgs.hatted(k) for k in range(n)]
    space = IntervalSpace(m=m, G=G, N=N, h=h)

    tails, es, qs = [], [], []
    for k in range(n):
        cells = f.cell_averages(k * h, (k + 1) * h, G)
        tails.append(_checked_tail(space, cells))
        hat, q_sq = slot_exp_data(space, cells)
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
    c_f = f.slope_constant()
    sup = f.sup_norm()
    exp_norm = float(np.exp(0.5 * f.l2_norm_sq(f.breakpoints[0], f.breakpoints[-1])))
    c_ft = 2.0 * t * (c_f + sup) * exp_norm
    x_norm = op_norm(x)
    u_norm = float(np.linalg.norm(u))
    bound = h * c_ft * x_norm**2 * u_norm**2
    scale = max(x_norm * u_norm * exp_norm, 1.0) ** 2
    slack = (sum(tails) + 1e-12) * scale
    return FTermResult(
        value_sq=value_sq,
        bound=bound,
        slack=slack,
        passed=bool(value_sq <= safety * bound + slack),
        passed_raw=bool(value_sq <= bound + slack),
        decomposition_residual=residual,
    )
