"""The quantum random walk: dense and streaming evaluation of p_t^(h).

The walk over n slots of width h is the composition of per-slot step
homomorphisms: slot n is applied to the observable first, and each step
turns a system operator Y into the block family beta(h, Y) acting on the
system and one fresh slot copy of C + noise.  Two engines evaluate it:

* a dense engine that materializes operators/states on
  system (x) (C + noise)^(x)n from the closed-form blocks of beta,
  feasible while d (1+m)^n stays under a cap;
* a streaming engine that contracts each slot against the hatted slot
  vectors (1, F_k) of the test functions immediately after its step.
  Slots are never revisited (the walk is adapted), so the immediate
  contraction is exact.  It steps with the dilation form U(h)* (Y (x) 1) U(h),
  two matmul calls on d x d blocks per slot: O(n (1+m) d^3) time and a
  working set independent of n.  Agreement of the engines thus checks the
  closed form of beta against the conjugation form.

Matrix elements pair against per-slot projections of exponential vectors,
i.e. the unnormalized product of (1, F_k); tail overlaps beyond t = n h are
excluded on both the walk and oracle sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fock import IntervalSpace, basic_operator_flat, exp_tail_bound, exp_vector, project_Ph
from .functions import SlotAverages, TestFunction, slot_averages
from .linalg import dagger, op_norm, sandwich
from .model import GkslModel, StepKernel, beta_blocks

__all__ = [
    "DenseCapError",
    "FTermResult",
    "ToyState",
    "check_composition_table",
    "f_term_norm",
    "toy_exp_embed",
    "walk_dense_operator",
    "walk_dense_state",
    "walk_matrix_element",
    "walk_norm_sq",
    "walk_stream_states",
]

DEFAULT_DENSE_CAP = 4096
# Slots (walk) or RK4 steps (oracle) whose sandwich factors are built at
# once, so the working set is O(CHUNK (2+m) d^2) whatever n or the step count.
CHUNK = 64


class DenseCapError(ValueError):
    """The dense engine would exceed its configured total dimension."""


@dataclass(frozen=True, eq=False)
class ToyState:
    """Vector in system (x) (C + noise)^(x)n.

    Flat slot index: slot 1 is slowest after the system factor, so the full
    index is a (1+m)^n + sum_k j_k (1+m)^(n-k).
    """

    d: int
    m: int
    n: int
    data: np.ndarray  # (d, (1+m)^n)

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.data) ** 2))

    def inner(self, other: "ToyState") -> complex:
        return complex(np.vdot(self.data, other.data))

    def legs(self) -> np.ndarray:
        """data reshaped to (d, 1+m, ..., 1+m) with one axis per slot."""
        return self.data.reshape((self.d,) + (1 + self.m,) * self.n)


def _check_cap(d: int, m: int, n: int, cap: int) -> None:
    if d * (1 + m) ** n > cap:
        raise DenseCapError(
            f"dense dimension d(1+m)^n = {d * (1 + m) ** n} exceeds cap {cap}"
        )


def toy_exp_embed(avgs: SlotAverages) -> ToyState:
    """Product of the hatted slot vectors (1, F_k): the projected exponential.

    Squared norm is prod_k (1 + sum_i |F_k[i]|^2); the system factor is a
    unit placeholder of dimension 1.
    """
    vec = np.ones(1, dtype=complex)
    for k in range(avgs.n):
        vec = np.kron(vec, avgs.hatted(k))
    return ToyState(d=1, m=avgs.F.shape[1], n=avgs.n, data=vec[None, :])


# ---------------------------------------------------------------------------
# Dense engine
# ---------------------------------------------------------------------------


def walk_dense_operator(model: GkslModel, x, h: float, n: int,
                        cap: int = DEFAULT_DENSE_CAP) -> np.ndarray:
    """The walk operator p_{nh}(x) as a flat matrix on system (x) slots.

    Built by the outward recursion: start from the observable at slot n and
    apply the step map on the system leg once per slot toward slot 1, each
    application adjoining one fresh (slower) slot leg.
    """
    x = model.check_x(x)
    if n < 1:
        raise ValueError("need n >= 1")
    _check_cap(model.d, model.m, n, cap)
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


def walk_dense_state(model: GkslModel, x, u, f: TestFunction, h: float, n: int,
                     cap: int = DEFAULT_DENSE_CAP) -> ToyState:
    """p_{nh}(x) applied to u (x) projected e(f), by the leg-keeping recursion."""
    x = model.check_x(x)
    u = np.asarray(u, dtype=complex).reshape(-1)
    if n < 1:
        raise ValueError("need n >= 1")
    _check_cap(model.d, model.m, n, cap)
    kernel = StepKernel.build(model, h)
    avgs = slot_averages(f, h, n)
    ops = x[None, :, :]
    for k in range(n - 1, -1, -1):
        # Keep the fresh slot leg, slower than the existing ones: (M, d, d) -> ((1+m) M, d, d).
        legs = step_leg_outputs(kernel, ops, avgs.hatted(k))
        ops = np.moveaxis(legs, 1, 0).reshape(-1, model.d, model.d)
    return ToyState(d=model.d, m=model.m, n=n, data=np.einsum("Jab,b->aJ", ops, u))


def walk_dense_state_via_operator(model: GkslModel, x, u, f: TestFunction, h: float,
                                  n: int, cap: int = DEFAULT_DENSE_CAP) -> ToyState:
    """The same state through the dense operator path (cross-check engine)."""
    flat = walk_dense_operator(model, x, h, n, cap=cap)
    u = np.asarray(u, dtype=complex).reshape(-1)
    embed = toy_exp_embed(slot_averages(f, h, n))
    vec = np.kron(u, embed.data[0])
    return ToyState(d=model.d, m=model.m, n=n,
                    data=(flat @ vec).reshape(model.d, -1))


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
    U = StepKernel.build(model, favgs.h).unitary().blocks  # [l, j, a, b]
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
# F term of the walk decomposition, in the hybrid slot spaces
# ---------------------------------------------------------------------------


class FTermResult(NamedTuple):
    value_sq: float
    bound: float
    slack: float
    passed: bool
    passed_raw: bool
    decomposition_residual: float


def f_term_norm(model: GkslModel, x, u, f: TestFunction, h: float, n: int,
                G: int = 8, N: int = 4, safety: float = 4.0) -> FTermResult:
    """The projection-loss term of the walk decomposition, with its bound.

    For n slots (n <= 2 here), the walk state splits as

        walk = x u e(f) + sum_k [prefix walk](one-step defect at slot k)
               + F,   F = - sum_k [prefix walk](x (1 - P_h[k]) e(f)),

    evaluated in the hybrid space: full truncated interval Fock space per
    slot, with the projected walk pieces embedded through (vacuum, chi).
    Reports ||F||^2 against h c(f,t) ||x||^2 ||u||^2 with
    c(f,t) = 2 t (c_f + sup|f|) ||e(f)||, plus the residual of the
    decomposition identity itself.
    """
    if n not in (1, 2):
        raise ValueError("the hybrid space check supports n in {1, 2}")
    x = model.check_x(x)
    u = np.asarray(u, dtype=complex).reshape(-1)
    kernel = StepKernel.build(model, h)
    avgs = slot_averages(f, h, n)
    space = IntervalSpace(m=model.m, G=G, N=N, h=h)
    emb = space.khat_embedding()  # (1+m, D)

    cells = [f.cell_averages(k * h, (k + 1) * h, G) for k in range(n)]
    tails = [exp_tail_bound(space, c) for c in cells]
    es = [exp_vector(space, c) for c in cells]
    qs = [e - project_Ph(space, e) for e in es]
    e_vecs = [e.data[0] for e in es]
    q_vecs = [q.data[0] for q in qs]

    xu = x @ u
    if n == 1:
        toy = walk_dense_state(model, x, u, f, h, 1).data.reshape(model.d, 1 + model.m)
        lhs = np.einsum("aj,jp->ap", toy, emb)
        term0 = np.einsum("a,p->ap", xu, e_vecs[0])
        d1 = defect_leg_outputs(kernel, x, avgs.hatted(0))
        mid = np.einsum("jab,b,jp->ap", d1, u, emb, optimize=True)
        Fterm = -np.einsum("a,p->ap", xu, q_vecs[0])
    else:
        toy = walk_dense_state(model, x, u, f, h, 2).data.reshape(
            model.d, 1 + model.m, 1 + model.m
        )
        lhs = np.einsum("ajk,jp,kq->apq", toy, emb, emb, optimize=True)
        term0 = np.einsum("a,p,q->apq", xu, e_vecs[0], e_vecs[1], optimize=True)
        d1 = defect_leg_outputs(kernel, x, avgs.hatted(0))
        mid = np.einsum("jab,b,jp,q->apq", d1, u, emb, e_vecs[1], optimize=True)
        d2 = defect_leg_outputs(kernel, x, avgs.hatted(1))  # (1+m, d, d), leg = slot 2
        s21 = step_leg_outputs(kernel, d2, avgs.hatted(0))  # (1+m 2-leg, 1+m 1-leg, d, d)
        mid += np.einsum("kjab,b,jp,kq->apq", s21, u, emb, emb, optimize=True)
        s1 = step_leg_outputs(kernel, x, avgs.hatted(0))
        Fterm = -np.einsum("a,p,q->apq", xu, q_vecs[0], e_vecs[1], optimize=True)
        Fterm -= np.einsum("jab,b,jp,q->apq", s1, u, emb, q_vecs[1], optimize=True)

    residual = float(np.linalg.norm(lhs - term0 - mid - Fterm))
    value_sq = float(np.sum(np.abs(Fterm) ** 2))

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
