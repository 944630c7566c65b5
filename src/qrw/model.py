"""GKSL dilation data and the one-step walk homomorphism.

A model is a pair of finite-dimensional Hilbert spaces, the system space of
dimension ``d`` and the noise multiplicity space of dimension ``m``, plus a
single noise operator R mapping the system into system (x) noise.  Everything
else is derived from R:

* the structure maps      Theta = [[L, delta_dag], [delta, 0]], written once as
  ``structure_factors``; L, delta, delta_dag are its blocks at unit hats,
* the step unitary        U(h) = exp(sqrt(h) Rtilde)  on system (x) (C + noise),
* the step homomorphism   beta(h, x) = U(h)* (x (x) 1) U(h),
* the exact semigroup     T_t = exp(tL) through a vectorized superoperator.

Operators on system (x) (C + noise) are handled as ``BlockOperator``:
a (1+m) x (1+m) array of d x d blocks, block index 0 being the vacuum
direction.  The equivalent flat matrix uses the global left-factor-major
flattening (system index slow): flat[a(1+m)+j, b(1+m)+j'] = blocks[j,j',a,b].

``GkslModel.beta_corruption`` is a test hook: a nonzero value perturbs the
vacuum block of beta(h) so that negative-control validation runs fail.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .linalg import as_matrix, dagger, op_norm, psd_trig, sandwich

__all__ = [
    "BlockOperator",
    "DefectReport",
    "GkslModel",
    "StepKernel",
    "amplitude_damping",
    "beta",
    "beta_blocks",
    "defect",
    "lindblad",
    "random_model",
    "semigroup",
    "structure_factors",
    "structure_maps",
    "trig_estimates",
    "u_h",
]

# Scaling exponents of the four block parts: vacuum, annihilation row,
# creation column, conservation interior.
BLOCK_EXPONENTS = (1.0, 0.5, 0.5, 0.0)


@dataclass(frozen=True, eq=False)
class BlockOperator:
    """Operator on system (x) (C + noise) addressed by (1+m)^2 blocks of d x d."""

    d: int
    m: int
    blocks: np.ndarray  # shape (1+m, 1+m, d, d)

    def __post_init__(self):
        want = (1 + self.m, 1 + self.m, self.d, self.d)
        if self.blocks.shape != want:
            raise ValueError(f"blocks shape {self.blocks.shape}, expected {want}")

    @classmethod
    def from_parts(cls, vacuum, annihilation, creation, conservation) -> "BlockOperator":
        """Assemble from map-form parts, in the order of ``parts()``.

        vacuum: d x d, annihilation: d x (dm), creation: (dm) x d,
        conservation: (dm) x (dm), with the noise-channel flattening
        row a*m + i.
        """
        vacuum = as_matrix(vacuum)
        d = vacuum.shape[0]
        creation = as_matrix(creation)
        m = creation.shape[0] // d
        blocks = np.zeros((1 + m, 1 + m, d, d), dtype=complex)
        blocks[0, 0] = vacuum
        blocks[1:, 0] = creation.reshape(d, m, d).transpose(1, 0, 2)
        blocks[0, 1:] = as_matrix(annihilation).reshape(d, d, m).transpose(2, 0, 1)
        blocks[1:, 1:] = (
            as_matrix(conservation).reshape(d, m, d, m).transpose(1, 3, 0, 2)
        )
        return cls(d=d, m=m, blocks=blocks)

    @property
    def flat(self) -> np.ndarray:
        n = self.d * (1 + self.m)
        return self.blocks.transpose(2, 0, 3, 1).reshape(n, n)

    # -- map-form accessors -------------------------------------------------
    @property
    def vacuum_part(self) -> np.ndarray:
        return self.blocks[0, 0]

    @property
    def creation_part(self) -> np.ndarray:
        """The (i, 0) column as a map system -> system (x) noise, (dm) x d."""
        return self.blocks[1:, 0].transpose(1, 0, 2).reshape(self.d * self.m, self.d)

    @property
    def annihilation_part(self) -> np.ndarray:
        """The (0, i) row as a map system (x) noise -> system, d x (dm)."""
        return self.blocks[0, 1:].transpose(1, 2, 0).reshape(self.d, self.d * self.m)

    @property
    def conservation_part(self) -> np.ndarray:
        dm = self.d * self.m
        return self.blocks[1:, 1:].transpose(2, 0, 3, 1).reshape(dm, dm)

    def parts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(vacuum, annihilation, creation, conservation): the basic-operator kinds 1-4."""
        return (
            self.vacuum_part,
            self.annihilation_part,
            self.creation_part,
            self.conservation_part,
        )


@dataclass(frozen=True, eq=False)
class GkslModel:
    """Dimensions (d, m) and the noise operator R of shape (d*m) x d.

    The system (x) noise flattening is row a*m + i for system index a and
    noise channel i (0-based).  Immutable; all derived operators are pure
    functions of the fields.
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
        return self.R.reshape(self.d, self.m, self.d).transpose(1, 0, 2)

    @property
    def RdR(self) -> np.ndarray:
        return dagger(self.R) @ self.R

    @property
    def RRd(self) -> np.ndarray:
        return self.R @ dagger(self.R)

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


def amplitude_damping(gamma: float = 1.0) -> GkslModel:
    """Qubit amplitude damping: d = 2, m = 1, R = sqrt(gamma) |0><1|."""
    R = np.sqrt(gamma) * np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    return GkslModel(d=2, m=1, R=R)


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


def structure_factors(model: GkslModel, ghat, fhat) -> tuple[np.ndarray, np.ndarray]:
    """Sandwich factors of Y -> <ghat, Theta(Y) fhat>, one set per row of the (P, 1+m) hats.

    left (P, d, (2+m)d) holds [K, 1, c R_1*, ..., c R_m*] side by side and right
    (P, 2+m, d, d) stacks [1, K', R_1, ..., R_m]: ``linalg.sandwich`` gives
    c R*(Y (x) 1)R + K Y + Y K' with c = conj(ghat_0) fhat_0, K = -c R*R/2 + D,
    K' = -c R*R/2 - D and D = conj(ghat_0) sum_i fhat_i R_i* - fhat_0 sum_i conj(ghat_i) R_i.
    Bilinear in (conj ghat, fhat), so the unit hats (e_j, e_j') give block (j, j')
    of Theta: L(x) at (0, 0), delta_i(x) = x R_i - R_i x at (i, 0) and
    delta_dag_i(x) = R_i* x - x R_i* at (0, i).
    """
    chans = model.channels  # (m, d, d)
    dags = chans.conj().transpose(0, 2, 1)
    g0, f0 = ghat[:, :1].conj(), fhat[:, :1]
    c = (g0 * f0)[:, :, None]
    D = (np.tensordot(g0 * fhat[:, 1:], dags, axes=1)
         - np.tensordot(f0 * ghat[:, 1:].conj(), chans, axes=1))
    half = (-0.5 * c) * model.RdR
    P, d, m = len(D), model.d, model.m
    left = np.empty((P, d, 2 + m, d), dtype=complex)  # [p, a, j, b]: factor j side by side
    left[:, :, 0], left[:, :, 1] = half + D, np.eye(d)
    np.multiply(c[..., None], dags.transpose(1, 0, 2), out=left[:, :, 2:])
    right = np.empty((P, 2 + m, d, d), dtype=complex)
    right[:, 0], right[:, 1], right[:, 2:] = np.eye(d), half - D, chans
    return left.reshape(P, d, -1), right


def structure_maps(model: GkslModel, x) -> BlockOperator:
    """Theta(x) = [[L(x), delta_dag(x)], [delta(x), 0]] from ``structure_factors`` at unit hats.

    The conservation entry is identically zero here (trivial representation,
    no gauge term), but the slot is carried so walk code sees full blocks.
    """
    x = model.check_x(x)
    units = np.eye(1 + model.m)
    left, right = structure_factors(model, np.repeat(units, 1 + model.m, axis=0),
                                    np.tile(units, (1 + model.m, 1)))
    blocks = np.stack([sandwich(lj, x, rj) for lj, rj in zip(left, right)])
    return BlockOperator(model.d, model.m, blocks.reshape((1 + model.m,) * 2 + x.shape))


def lindblad(model: GkslModel, x) -> np.ndarray:
    """L(x) = R*(x (x) 1)R - (1/2)R*Rx - (1/2)xR*R: ``structure_factors`` at ghat = fhat = e_0."""
    vac = np.eye(1, 1 + model.m)
    left, right = structure_factors(model, vac, vac)
    return sandwich(left[0], model.check_x(x), right[0])


def delta(model: GkslModel, x) -> np.ndarray:
    """delta(x) = (x (x) 1)R - Rx, system -> system (x) noise: the creation column of Theta."""
    return structure_maps(model, x).creation_part


def delta_dag(model: GkslModel, x) -> np.ndarray:
    """delta_dag(x) = (delta(x*))* = R*(x (x) 1) - xR*: the annihilation row of Theta."""
    return structure_maps(model, x).annihilation_part


# ---------------------------------------------------------------------------
# Step unitary and step homomorphism
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class StepKernel:
    """The step unitary U(h) = exp(sqrt(h) [[0, -R*], [R, 0]]) in block form.

    With C = cos(sqrt(h)|R|), C' = cos(sqrt(h)|R*|) and D = sinc(sqrt(h)|R|),
    its parts are vacuum C, creation sqrt(h) R D, annihilation -sqrt(h) D R*
    and conservation C'.  D is carried on the |R| side and transported
    through R f(R*R) = f(RR*) R, so two eigendecompositions build U(h).
    """

    model: GkslModel
    U: BlockOperator

    @classmethod
    def build(cls, model: GkslModel, h: float) -> "StepKernel":
        if h <= 0:
            raise ValueError("step kernel needs h > 0")
        cos_sys, sinc_sys = psd_trig(model.RdR, h)
        cos_env, _ = psd_trig(model.RRd, h)
        rd = np.sqrt(h) * (model.R @ sinc_sys)
        U = BlockOperator.from_parts(
            vacuum=cos_sys, creation=rd, annihilation=-dagger(rd), conservation=cos_env
        )
        return cls(model=model, U=U)


def beta_blocks(kernel: StepKernel, xs: np.ndarray) -> np.ndarray:
    """Batched beta(h, xs) = U(h)* (xs (x) 1) U(h) as blocks of shape (..., 1+m, 1+m, d, d).

    Block (j, j') is sum_l U^(l,j)* xs U^(l,j') over the blocks U^(l,j) of
    U(h).  A nonzero ``model.beta_corruption`` c adds c xs to block (0, 0).
    """
    U = kernel.U.blocks  # [l, j, a, b]
    xs = np.asarray(xs, dtype=complex)
    out = np.einsum("ljca,...ce,lkeb->...jkab", U.conj(), xs, U, optimize=True)
    if kernel.model.beta_corruption:
        out[..., 0, 0, :, :] += kernel.model.beta_corruption * xs
    return out


def u_h(model: GkslModel, h: float) -> BlockOperator:
    """The step unitary U(h) in block form."""
    return StepKernel.build(model, h).U


def beta(model: GkslModel, x, h: float) -> BlockOperator:
    """beta(h, x) = U(h)* (x (x) 1) U(h) in block form."""
    x = model.check_x(x)
    kernel = StepKernel.build(model, h)
    return BlockOperator(model.d, model.m, beta_blocks(kernel, x))


def ampliation(model: GkslModel, x) -> BlockOperator:
    """b(x) = x (x) 1 on system (x) (C + noise)."""
    x = model.check_x(x)
    return BlockOperator(model.d, model.m, np.multiply.outer(np.eye(1 + model.m), x))


def trig_estimates(model: GkslModel, h: float) -> dict[str, tuple[float, float]]:
    """Six smallness estimates for the U(h) ingredients, name -> (lhs, bound).

    With C = cos(sqrt(h)|R|), C' = cos(sqrt(h)|R*|), D = sinc(sqrt(h)|R|):
    ||C - 1 + (h/2)|R|^2|| <= h^2 ||R||^4, ||C - 1|| <= h ||R||^2,
    ||C' - 1|| <= h ||R||^2, ||D - 1|| <= h ||R||^2, ||C|| <= 1, ||D|| <= 1
    (the contraction bounds carry a 1e-12 roundoff allowance).
    """
    cos_sys, sinc_sys = psd_trig(model.RdR, h)
    cos_env, _ = psd_trig(model.RRd, h)
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


def defect(model: GkslModel, x, h: float) -> tuple[BlockOperator, DefectReport]:
    """E(h, x): blocks h^-(1+eps) (beta - b - h^eps Theta), plus a bound report."""
    x = model.check_x(x)
    if h <= 0:
        raise ValueError("defect needs h > 0")
    bet = beta(model, x, h)
    amp = ampliation(model, x)
    th = structure_maps(model, x)
    raw_parts = []
    scaled_parts = []
    for (bp, ap, tp, eps) in zip(bet.parts(), amp.parts(), th.parts(), BLOCK_EXPONENTS):
        raw = bp - ap - (h**eps) * tp
        raw_parts.append(raw)
        scaled_parts.append(raw / h ** (1.0 + eps))
    x_norm = op_norm(x)
    M = model.defect_constant
    report = DefectReport(
        h=h,
        x_norm=x_norm,
        constant=M,
        raw=tuple(op_norm(p) for p in raw_parts),
        bounds=tuple(M * x_norm * h ** (1.0 + eps) for eps in BLOCK_EXPONENTS),
    )
    return BlockOperator.from_parts(*scaled_parts), report


# ---------------------------------------------------------------------------
# Exact semigroup oracle
# ---------------------------------------------------------------------------


def lindblad_superoperator(model: GkslModel) -> np.ndarray:
    """Matrix of x -> L(x) on row-major vec(x): column c is vec(L(E_c)).

    E_c runs over the d^2 matrix units, so the matrix is derived from
    ``lindblad`` itself rather than written out a second time.
    """
    d = model.d
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    return np.stack([lindblad(model, e).reshape(-1) for e in units], axis=1)


def semigroup(model: GkslModel, x, t: float) -> np.ndarray:
    """T_t(x) = exp(tL)(x), through the superoperator of L on row-major vec(x)."""
    x = model.check_x(x)
    if t < 0:
        raise ValueError("semigroup needs t >= 0")
    out = scipy.linalg.expm(t * lindblad_superoperator(model)) @ x.reshape(-1)
    return out.reshape(model.d, model.d)
