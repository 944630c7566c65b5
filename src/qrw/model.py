"""GKSL dilation data and the one-step walk homomorphism.

A model is a pair of finite-dimensional Hilbert spaces, the system space of
dimension ``d`` and the noise multiplicity space of dimension ``m``, plus a
single noise operator R mapping the system into system (x) noise.  Everything
else is derived from R:

* the structure maps      Theta = [[L, delta_dag], [delta, 0]], written once as
  ``structure_factors``; L, delta, delta_dag are blocks of its
  ``linalg.unit_table``, the one builder of the unit-hat blocks of a map,
* the step unitary        U(h) = exp(sqrt(h) Rtilde)  on system (x) (C + noise),
  built at every h from one ``np.linalg.eigh`` of R*R per model,
  ``GkslModel.spectrum``, the only eigendecomposition in qrw,
* the step homomorphism   beta(h, x) = U(h)* (x (x) 1) U(h), written once as
  ``beta_factors``: with Theta's, the two factor families, one per object.
  The walk steps beta's and the oracle Theta's (``GkslModel.rate_engine``),
  in ``linalg``'s factor layout; both write into the engine's buffer.

Operators on system (x) (C + noise) are plain (1+m, 1+m, d, d) block arrays,
block index 0 being the vacuum direction; ``linalg.flat`` gives the matrix,
system index slow: flat[a(1+m)+j, b(1+m)+j'] = blocks[j,j',a,b].  ``PARTS``
names the four block regions of the basic-operator kinds 1-4, and ``flat`` of
a region is its map-form part, with the noise flattening row a*m + i.

``GkslModel.beta_corruption`` is a test hook: a nonzero value perturbs the
vacuum block of beta(h) so that negative-control validation runs fail.  Only
``beta_factors`` reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .linalg import (apply_table, as_matrix, as_vector, dagger, flat, op_norm, real_form, step_maps,
                     unflat, unit_table)

__all__ = [
    "PARTS",
    "DefectReport",
    "GkslModel",
    "StepKernel",
    "beta",
    "beta_blocks",
    "beta_factors",
    "defect",
    "random_model",
    "step_leg_outputs",
    "structure_factors",
    "structure_maps",
    "trig_estimates",
]

# The four block regions, in the order of the basic-operator kinds 1-4:
# vacuum, annihilation row, creation column, conservation interior.
PARTS = (np.s_[:1, :1], np.s_[:1, 1:], np.s_[1:, :1], np.s_[1:, 1:])
# Scaling exponents of the four block parts, in ``PARTS`` order.
BLOCK_EXPONENTS = (1.0, 0.5, 0.5, 0.0)


@dataclass(frozen=True, eq=False)
class GkslModel:
    """Dimensions (d, m) and the noise operator R of shape (d*m) x d.

    The system (x) noise flattening is row a*m + i for system index a and
    noise channel i (0-based).  Immutable; all derived operators are pure
    functions of the fields, and ``spectrum`` is computed at its first use.
    """

    d: int
    m: int
    R: np.ndarray
    beta_corruption: float = 0.0
    norm_R: float = field(init=False)

    def __post_init__(self):
        if self.d < 1 or self.m < 1:
            raise ValueError("need d >= 1 and m >= 1")
        R = as_matrix(self.R).copy()
        if R.shape != (self.d * self.m, self.d):
            raise ValueError(f"R shape {R.shape}, expected {(self.d * self.m, self.d)}")
        R.setflags(write=False)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "norm_R", op_norm(R))

    @property
    def channels(self) -> np.ndarray:
        """R split by noise channel: array (m, d, d) with R_i = rows a*m + i."""
        return unflat(self.R, self.d)[:, 0]

    @property
    def RdR(self) -> np.ndarray:
        return dagger(self.R) @ self.R

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """(lam, V): the ``np.linalg.eigh`` pair of R*R, eigenvalues clipped at 0.

        Computed once per model.  Every U(h) is built from it (``_trig_parts``);
        nothing in qrw decomposes R R* or any other matrix.
        """
        lam, V = np.linalg.eigh(self.RdR)
        return np.clip(lam, 0.0, None), V

    @cached_property
    def rate_engine(self):
        """The oracle's ``linalg.step_maps`` of ``structure_factors``, the bracket
        Y -> <ghat, Theta(Y) fhat>, with its unit table and vacuum map L: built
        once per model, shared by every RK4 pass."""
        # An RK4 step forms the rates at 2 new points and applies them 4 times.
        return step_maps(partial(structure_factors, self), 1 + self.m, 2, 4)

    @property
    def defect_constant(self) -> float:
        """Uniform defect bound constant 5(||R||^2 + ||R||^3 + ||R||^4)."""
        r = self.norm_R
        return 5.0 * (r**2 + r**3 + r**4)

    def check_x(self, x) -> np.ndarray:
        x = as_matrix(x)
        if x.shape != (self.d, self.d):
            raise ValueError(f"observable shape {x.shape}, expected {(self.d, self.d)}")
        return x

    def check_vector(self, u) -> np.ndarray:
        return as_vector(u, self.d)

    def check_function(self, *fns) -> None:
        """Raise ``ValueError`` unless every test function in fns has the model's m channels."""
        for fn in fns:
            if fn.channels != self.m:
                raise ValueError(f"test function on {fn.channels} channels, expected {self.m}")


def random_model(rng, d: int, m: int, norm: float) -> GkslModel:
    """Complex Gaussian R rescaled to operator norm ``norm`` (seeded rng)."""
    if not norm >= 0:
        raise ValueError(f"need norm >= 0, got {norm}")
    R = (rng.standard_normal((d * m, d)) + 1j * rng.standard_normal((d * m, d))) / np.sqrt(2)
    r = op_norm(R)
    if r > 0 and norm > 0:
        R = R * (norm / r)
    elif norm == 0:
        R = np.zeros_like(R)
    return GkslModel(d=d, m=m, R=R)


# ---------------------------------------------------------------------------
# Generator and structure maps
# ---------------------------------------------------------------------------


def structure_factors(model: GkslModel, ghat, fhat, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Sandwich factors of Y -> <ghat, Theta(Y) fhat>, one set per row of the (P, 1+m) hats.

    In ``linalg``'s factor layout, left (P, d, d(2+m)) holds [K, 1, c R_1*, ..., c R_m*]
    and right (P, d, (2+m)d) [1, K', R_1, ..., R_m]: ``linalg.sandwich`` gives
    c R*(Y (x) 1)R + K Y + Y K' with c = conj(ghat_0) fhat_0, K = -c R*R/2 + D,
    K' = -c R*R/2 - D and D = conj(ghat_0) sum_i fhat_i R_i* - fhat_0 sum_i conj(ghat_i) R_i.
    Bilinear in (conj ghat, fhat), so the unit hats (e_j, e_j') give block (j, j')
    of Theta: L(x) at (0, 0), delta_i(x) = x R_i - R_i x at (i, 0) and
    delta_dag_i(x) = R_i* x - x R_i* at (0, i).  Written into ``out``, a
    (2, P, d, (2+m) d) buffer of the stepping engine, where one is given.
    """
    P, d, m, chans = len(ghat), model.d, model.m, model.channels
    dags = chans.conj().transpose(0, 2, 1)
    g0, f0 = ghat[:, :1].conj(), fhat[:, :1]
    c = (g0 * f0)[:, :, None]
    D = (np.tensordot(g0 * fhat[:, 1:], dags, axes=1)
         - np.tensordot(f0 * ghat[:, 1:].conj(), chans, axes=1))
    half = (-0.5 * c) * model.RdR
    if out is None:
        out = np.empty((2, P, d, (2 + m) * d), dtype=complex)
    left = out[0].reshape(P, d, d, 2 + m)  # L_j[a, c] at [a, c, j]
    np.add(half, D, out=left[..., 0])
    left[..., 1] = np.eye(d)
    np.multiply(c[..., None], dags.transpose(1, 2, 0), out=left[..., 2:])
    right = out[1].reshape(P, d, 2 + m, d)  # R_j[e, b] at [e, j, b]
    right[:, :, 0], right[:, :, 2:] = np.eye(d), chans.transpose(1, 0, 2)
    np.subtract(half, D, out=right[:, :, 1])
    return left.reshape(P, d, -1), right.reshape(P, d, -1)


def structure_maps(model: GkslModel, x) -> np.ndarray:
    """Theta(x) = [[L(x), delta_dag(x)], [delta(x), 0]]: ``structure_factors``' unit table at x.

    Returns (1+m, 1+m, d, d) blocks.  The conservation entry is identically
    zero here (trivial representation, no gauge term), but the slot is carried
    so walk code sees full blocks.
    """
    table = unit_table(partial(structure_factors, model), 1 + model.m)
    return apply_table(table, model.check_x(x))


# ---------------------------------------------------------------------------
# Step unitary and step homomorphism
# ---------------------------------------------------------------------------


def _trig_parts(model: GkslModel, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """C = cos(sqrt(h)|R|), D = sinc(sqrt(h)|R|) and C' = cos(sqrt(h)|R*|) from ``model.spectrum``.

    With R*R = V diag(lam) V* and x = sqrt(h lam): C = V cos(x) V* and
    D = V sinc(x) V*, where ``np.sinc(x / pi)`` is exactly 1 at x = 0.  C'
    comes through R phi(R*R) = phi(RR*) R: C' = 1 + R g(R*R) R* with
    g(lam) = (cos(x) - 1) / lam = -(h/2) sinc^2(x/2), so
    C' = 1 - (h/2) W W* with W = (RV) diag(sinc(x/2)), and R R* is never
    formed.  Raises ``ValueError`` unless h > 0.
    """
    if h <= 0:
        raise ValueError("step kernel needs h > 0")
    lam, V = model.spectrum
    x, Vd = np.sqrt(h * lam), dagger(V)
    cos_sys = (V * np.cos(x)) @ Vd
    sinc_sys = (V * np.sinc(x / np.pi)) @ Vd
    w = (model.R @ V) * np.sinc(x / (2 * np.pi))
    cos_env = np.eye(model.d * model.m) - (h / 2) * (w @ dagger(w))
    return cos_sys, sinc_sys, cos_env


@dataclass(frozen=True, eq=False)
class StepKernel:
    """The step unitary U(h) = exp(sqrt(h) [[0, -R*], [R, 0]]), U as (1+m, 1+m, d, d) blocks.

    With C = cos(sqrt(h)|R|), C' = cos(sqrt(h)|R*|) and D = sinc(sqrt(h)|R|),
    its parts, in ``PARTS`` order, are vacuum C, annihilation -sqrt(h) D R*,
    creation sqrt(h) R D and conservation C' (``_trig_parts``), each written
    into its block region by ``linalg.unflat``.  Every part is carried on the
    |R| side, so a build reads ``model.spectrum``, the one ``eigh`` pair of
    R*R, and decomposes nothing.  ``table``, the blocks of beta(h, .), is
    built at its first use.
    """

    model: GkslModel
    U: np.ndarray

    @classmethod
    def build(cls, model: GkslModel, h: float) -> "StepKernel":
        cos_sys, sinc_sys, cos_env = _trig_parts(model, h)
        rd = np.sqrt(h) * (model.R @ sinc_sys)
        U = np.empty((1 + model.m, 1 + model.m, model.d, model.d), dtype=complex)
        for part, value in zip(PARTS, (cos_sys, -dagger(rd), rd, cos_env)):
            U[part] = unflat(value, model.d)
        return cls(model=model, U=U)

    @cached_property
    def table(self) -> np.ndarray:
        """The ``unit_table`` of ``beta_factors``: block (j, j') is Y -> beta^{(j,j')}(h, Y)."""
        return unit_table(beta_factors(self), 1 + self.model.m)


def beta_factors(kernel: StepKernel):
    """factors(ghat, fhat, out=None) -> (left, right): the slot maps' factors at (P, 1+m) hats.

    Row p is the map Y -> sum_{j j'} conj(ghat_j) fhat_j' beta^{(j,j')}(h, Y)
    = sum_l Vg_l* Y Vf_l, where V_l is the block of V = U(h)(1 (x) hat) on slot
    direction l.  In ``linalg``'s factor layout right = [Vf_0 | ... | Vf_m] and
    left holds Vg_l*[:, c] in column c(1+m) + l; cols and rows, fixed
    permutations of the blocks U^{(l,j)} of U(h) and of their adjoints per
    input direction j, make both linear in the hats.  They are kept in
    ``linalg.real_form``, so right and left are one real GEMM each, written
    into ``out``, a (2, P, d, (1+m) d) buffer of the stepping engine, where
    one is given: the walk forms them for every chunk of its ladder, and with
    fresh factors per chunk the study-large walk (d = 16, m = 3) ran 34-56%
    slower.  A nonzero ``model.beta_corruption`` c adds c x to the vacuum block
    of beta, so it is one more, last, term c conj(ghat_0) fhat_0 Y, and the
    factors are fresh arrays.
    """
    d, m, c = kernel.model.d, kernel.model.m, kernel.model.beta_corruption
    U = kernel.U  # [l, j, a, b]
    # [j, (a, l, b)]: U^{(l,j)}[a, b], and [j, (b, a, l)]: U^{(l,j)}*[b, a]
    cols = real_form(U.transpose(1, 2, 0, 3).reshape(1 + m, -1))
    rows = real_form(U.conj().transpose(1, 3, 2, 0).reshape(1 + m, -1))
    eye = np.eye(d)

    def factors(ghat: np.ndarray, fhat: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
        P = len(ghat)
        gbar, fhat = (np.ascontiguousarray(hat, dtype=complex) for hat in (np.conj(ghat), fhat))
        if c or out is None:
            out = np.empty((2, P, d, (1 + m) * d), dtype=complex)
        left, right = out
        np.matmul(fhat.view(float), cols, out=right.reshape(P, -1).view(float))
        np.matmul(gbar.view(float), rows, out=left.reshape(P, -1).view(float))
        if c:
            last = c * gbar[:, :1, None, None] * eye[..., None]
            left = np.concatenate([left.reshape(P, d, d, 1 + m), last], axis=3).reshape(P, d, -1)
            right = np.concatenate([right, fhat[:, :1, None] * eye], axis=2)
        return left, right

    return factors


def beta_blocks(kernel: StepKernel, xs: np.ndarray) -> np.ndarray:
    """Batched beta(h, xs) = U(h)* (xs (x) 1) U(h) as blocks of shape (..., 1+m, 1+m, d, d).

    ``kernel.table`` at xs: block (j, j') is sum_l U^(l,j)* xs U^(l,j'), and
    the corruption term adds exact zeros off block (0, 0).
    """
    return apply_table(kernel.table, np.asarray(xs, dtype=complex))


def step_leg_outputs(kernel: StepKernel, ys: np.ndarray, fhat: np.ndarray) -> np.ndarray:
    """beta blocks contracted against a hatted slot vector on the input side.

    For ys of shape (..., d, d) returns (..., 1+m, d, d):
    out[..., j] = sum_j' beta^{(j, j')}(ys) fhat[j'], the slot maps at the
    hats (e_j, fhat).  ``kernel.table`` is contracted with fhat first, so only
    the 1+m legs are applied, not all (1+m)^2 blocks of ``beta_blocks``; the
    matmul reads the table in place, where ``np.tensordot`` copies it.
    """
    table = kernel.table  # (1+m, 1+m, d^2, d^2)
    legs = fhat @ table.reshape(len(fhat), len(fhat), -1)
    return apply_table(legs.reshape(table.shape[1:]), ys)


def beta(model: GkslModel, x, h: float) -> np.ndarray:
    """beta(h, x) = U(h)* (x (x) 1) U(h) as (1+m, 1+m, d, d) blocks."""
    x = model.check_x(x)
    return beta_blocks(StepKernel.build(model, h), x)


def ampliation(model: GkslModel, x) -> np.ndarray:
    """b(x) = x (x) 1 on system (x) (C + noise), as (1+m, 1+m, d, d) blocks."""
    return np.multiply.outer(np.eye(1 + model.m), model.check_x(x))


def trig_estimates(model: GkslModel, h: float) -> dict[str, tuple[float, float]]:
    """Six smallness estimates for the U(h) ingredients, name -> (lhs, bound).

    With C = cos(sqrt(h)|R|), C' = cos(sqrt(h)|R*|), D = sinc(sqrt(h)|R|):
    ||C - 1 + (h/2)|R|^2|| <= h^2 ||R||^4, ||C - 1|| <= h ||R||^2,
    ||C' - 1|| <= h ||R||^2, ||D - 1|| <= h ||R||^2, ||C|| <= 1, ||D|| <= 1
    (the contraction bounds carry a 1e-12 roundoff allowance).
    """
    cos_sys, sinc_sys, cos_env = _trig_parts(model, h)
    eye_s = np.eye(model.d)
    eye_e = np.eye(model.d * model.m)
    r2 = model.norm_R**2
    return {
        "cos_sys_second_order": (
            op_norm(cos_sys - eye_s + 0.5 * h * model.RdR),
            h**2 * r2**2,
        ),
        "cos_sys_first_order": (op_norm(cos_sys - eye_s), h * r2),
        "cos_env_first_order": (op_norm(cos_env - eye_e), h * r2),
        "sinc_first_order": (op_norm(sinc_sys - eye_s), h * r2),
        "cos_sys_contraction": (op_norm(cos_sys), 1.0 + 1e-12),
        "sinc_contraction": (op_norm(sinc_sys), 1.0 + 1e-12),
    }


# ---------------------------------------------------------------------------
# Defect against the structure maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DefectReport:
    """Per-part norms of beta(h,x) - b(x) - h^eps Theta(x) next to the bound.

    ``raw`` are the unscaled defect norms, ``bounds`` the limits
    M ||x|| h^(1+eps) with M = 5(||R||^2 + ||R||^3 + ||R||^4).
    """

    h: float
    x_norm: float
    constant: float
    raw: tuple[float, float, float, float]
    bounds: tuple[float, float, float, float]

    @property
    def passed(self) -> bool:
        return all(r <= b + 1e-13 for r, b in zip(self.raw, self.bounds))


def defect(model: GkslModel, x, h: float) -> tuple[np.ndarray, DefectReport]:
    """E(h, x): blocks h^-(1+eps) (beta - b - h^eps Theta), eps per part, plus a bound report."""
    x = model.check_x(x)
    if h <= 0:
        raise ValueError("defect needs h > 0")
    raw = beta(model, x, h) - ampliation(model, x)
    th = structure_maps(model, x)
    scaled = np.empty_like(raw)
    for part, eps in zip(PARTS, BLOCK_EXPONENTS):
        raw[part] -= (h**eps) * th[part]
        scaled[part] = raw[part] / h ** (1.0 + eps)
    x_norm = op_norm(x)
    M = model.defect_constant
    report = DefectReport(
        h=h,
        x_norm=x_norm,
        constant=M,
        raw=tuple(op_norm(flat(raw[part])) for part in PARTS),
        bounds=tuple(M * x_norm * h ** (1.0 + eps) for eps in BLOCK_EXPONENTS),
    )
    return scaled, report
