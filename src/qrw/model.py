"""GKSL dilation data and the one-step walk homomorphism.

A model is a pair of finite-dimensional Hilbert spaces, the system space of
dimension ``d`` and the noise multiplicity space of dimension ``m``, plus a
single noise operator R mapping the system into system (x) noise.  Everything
else is derived from R:

* the Lindblad generator  L(x) = R*(x (x) 1)R - (1/2){R*R, x},
* the structure maps      delta(x) = (x (x) 1)R - Rx  and its dagger,
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

from .linalg import as_matrix, dagger, expm, kron, op_norm, psd_trig

__all__ = [
    "BlockOperator",
    "DefectReport",
    "GkslModel",
    "SemigroupOracle",
    "StepKernel",
    "amplitude_damping",
    "beta",
    "beta_blocks",
    "defect",
    "lindblad",
    "random_model",
    "semigroup",
    "structure_maps",
    "theta_h",
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
    def from_flat(cls, flat, d: int, m: int) -> "BlockOperator":
        flat = as_matrix(flat)
        if flat.shape != (d * (1 + m), d * (1 + m)):
            raise ValueError(f"flat shape {flat.shape} inconsistent with d={d}, m={m}")
        blocks = flat.reshape(d, 1 + m, d, 1 + m).transpose(1, 3, 0, 2)
        return cls(d=d, m=m, blocks=np.ascontiguousarray(blocks))

    @classmethod
    def from_parts(cls, vacuum, creation, annihilation, conservation) -> "BlockOperator":
        """Assemble from map-form parts.

        vacuum: d x d, creation: (dm) x d, annihilation: d x (dm),
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


def lindblad(model: GkslModel, x) -> np.ndarray:
    """L(x) = R*(x (x) 1)R - (1/2)R*Rx - (1/2)xR*R."""
    x = model.check_x(x)
    Rd = dagger(model.R)
    RdR = model.RdR
    return Rd @ kron(x, np.eye(model.m)) @ model.R - 0.5 * (RdR @ x + x @ RdR)


def delta(model: GkslModel, x) -> np.ndarray:
    """delta(x) = (x (x) 1)R - Rx, a map system -> system (x) noise."""
    x = model.check_x(x)
    return kron(x, np.eye(model.m)) @ model.R - model.R @ x


def delta_dag(model: GkslModel, x) -> np.ndarray:
    """delta_dag(x) = (delta(x*))* = R*(x (x) 1) - xR*."""
    x = model.check_x(x)
    return dagger(model.R) @ kron(x, np.eye(model.m)) - x @ dagger(model.R)


def structure_maps(model: GkslModel, x) -> BlockOperator:
    """The block map Theta(x) = [[L(x), delta_dag(x)], [delta(x), 0]].

    The conservation entry is identically zero here (trivial representation,
    no gauge term), but the slot is carried so walk code sees full blocks.
    """
    dm = model.d * model.m
    return BlockOperator.from_parts(
        vacuum=lindblad(model, x),
        creation=delta(model, x),
        annihilation=delta_dag(model, x),
        conservation=np.zeros((dm, dm), dtype=complex),
    )


def theta_h(model: GkslModel, x, h: float) -> BlockOperator:
    """Theta(h, x): parts of Theta(x) scaled by h, sqrt(h), sqrt(h), 1."""
    if h < 0:
        raise ValueError("theta_h needs h >= 0")
    th = structure_maps(model, x)
    rh = np.sqrt(h)
    dm = model.d * model.m
    return BlockOperator.from_parts(
        vacuum=h * th.vacuum_part,
        creation=rh * th.creation_part,
        annihilation=rh * th.annihilation_part,
        conservation=np.zeros((dm, dm), dtype=complex),
    )


# ---------------------------------------------------------------------------
# Step unitary and step homomorphism
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class StepKernel:
    """Cached h-dependent factors of U(h) = exp(sqrt(h) [[0, -R*], [R, 0]]).

    cos_sys = cos(sqrt(h)|R|), cos_env = cos(sqrt(h)|R*|) and
    rd = R D(h) with D(h) = sinc(sqrt(h)|R|); D(h) is carried on the
    |R| side and transported through R f(R*R) = f(RR*) R.
    """

    model: GkslModel
    h: float
    cos_sys: np.ndarray
    cos_env: np.ndarray
    rd: np.ndarray

    @classmethod
    def build(cls, model: GkslModel, h: float) -> "StepKernel":
        if h <= 0:
            raise ValueError("step kernel needs h > 0")
        cos_sys, sinc_sys = psd_trig(model.RdR, h)
        cos_env, _ = psd_trig(model.RRd, h)
        return cls(model=model, h=h, cos_sys=cos_sys, cos_env=cos_env, rd=model.R @ sinc_sys)

    @property
    def drd(self) -> np.ndarray:
        """D(h) R* = (R D(h))*, since D(h) is Hermitian."""
        return dagger(self.rd)

    def unitary(self) -> BlockOperator:
        rh = np.sqrt(self.h)
        return BlockOperator.from_parts(
            vacuum=self.cos_sys,
            creation=rh * self.rd,
            annihilation=-rh * self.drd,
            conservation=self.cos_env,
        )

    def beta_raw(self, xs: np.ndarray) -> tuple[np.ndarray, ...]:
        """Closed-form parts of beta(h, .) for a batch xs of shape (..., d, d).

        Returns (vacuum, annihilation, creation, conservation) with batch
        dims leading.  The conjugation form U(h)* (x (x) 1) U(h) expands to
        these four products; agreement with the direct conjugation is a
        tested invariant rather than an implementation path.
        """
        d, m = self.model.d, self.model.m
        xs = np.asarray(xs, dtype=complex)
        batch = xs.shape[:-2]
        eye_m = np.eye(m, dtype=complex)
        # x (x) 1 on the noise factor, batched.
        xk = (xs[..., :, None, :, None] * eye_m[None, :, None, :]).reshape(
            batch + (d * m, d * m)
        )
        h, rh = self.h, np.sqrt(self.h)
        cos1, cosE, rd, drd = self.cos_sys, self.cos_env, self.rd, self.drd
        vac = cos1 @ xs @ cos1 + h * (drd @ xk @ rd)
        ann = -rh * (cos1 @ xs @ drd) + rh * (drd @ xk @ cosE)
        cre = -rh * (rd @ xs @ cos1) + rh * (cosE @ xk @ rd)
        con = h * (rd @ xs @ drd) + cosE @ xk @ cosE
        if self.model.beta_corruption:
            vac = vac + self.model.beta_corruption * xs
        return vac, ann, cre, con


def beta_blocks(kernel: StepKernel, xs: np.ndarray) -> np.ndarray:
    """Batched beta(h, xs) as a block array of shape (..., 1+m, 1+m, d, d)."""
    d, m = kernel.model.d, kernel.model.m
    vac, ann, cre, con = kernel.beta_raw(xs)
    batch = np.asarray(xs).shape[:-2]
    out = np.zeros(batch + (1 + m, 1 + m, d, d), dtype=complex)
    out[..., 0, 0, :, :] = vac
    out[..., 0, 1:, :, :] = np.moveaxis(
        ann.reshape(batch + (d, d, m)), (-3, -2, -1), (-2, -1, -3)
    )
    out[..., 1:, 0, :, :] = np.moveaxis(
        cre.reshape(batch + (d, m, d)), (-3, -2, -1), (-2, -3, -1)
    )
    out[..., 1:, 1:, :, :] = np.moveaxis(
        con.reshape(batch + (d, m, d, m)), (-4, -3, -2, -1), (-2, -4, -1, -3)
    )
    return out


def u_h(model: GkslModel, h: float) -> BlockOperator:
    """The step unitary U(h) in block form."""
    return StepKernel.build(model, h).unitary()


def beta(model: GkslModel, x, h: float) -> BlockOperator:
    """beta(h, x) = U(h)* (x (x) 1) U(h) via the closed-form blocks."""
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
    e_op = BlockOperator.from_parts(
        vacuum=scaled_parts[0],
        annihilation=scaled_parts[1],
        creation=scaled_parts[2],
        conservation=scaled_parts[3],
    )
    return e_op, report


# ---------------------------------------------------------------------------
# Exact semigroup oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SemigroupOracle:
    """The generator L as a d^2 x d^2 superoperator on row-major vec(x)."""

    d: int
    superoperator: np.ndarray

    def evolve(self, x, t: float) -> np.ndarray:
        if t < 0:
            raise ValueError("semigroup needs t >= 0")
        out = expm(t * self.superoperator) @ np.asarray(x, dtype=complex).reshape(-1)
        return out.reshape(self.d, self.d)


def lindblad_superoperator(model: GkslModel) -> np.ndarray:
    """Matrix of x -> L(x) on row-major vec(x): column c is vec(L(E_c)).

    E_c runs over the d^2 matrix units, so the matrix is derived from
    ``lindblad`` itself rather than written out a second time.
    """
    d = model.d
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    return np.stack([lindblad(model, e).reshape(-1) for e in units], axis=1)


def semigroup_oracle(model: GkslModel) -> SemigroupOracle:
    return SemigroupOracle(d=model.d, superoperator=lindblad_superoperator(model))


def semigroup(model: GkslModel, x, t: float) -> np.ndarray:
    """T_t(x) = exp(tL)(x)."""
    x = model.check_x(x)
    return semigroup_oracle(model).evolve(x, t)
