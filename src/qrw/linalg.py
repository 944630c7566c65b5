"""Dense complex linear-algebra kernels shared by every other module.

Conventions fixed here and used everywhere else:

* matrices are 2-d ``numpy.ndarray`` of ``complex128``, row-major;
* tensor products are ``numpy.kron``, left-factor-major: the index pair
  ``(p, q)`` of ``a (x) b`` flattens to ``p * b.rows + q``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CHUNK",
    "HermEigen",
    "as_matrix",
    "as_vector",
    "dagger",
    "herm_eigen",
    "op_norm",
    "power_runs",
    "psd_trig",
    "sandwich",
    "superoperator",
]

# Slots (walk) or RK4 steps (oracle) whose sandwich factors are built at
# once, so the working set is O(CHUNK (2+m) d^2) whatever n or the step count.
CHUNK = 64

# Hermiticity tolerance on inputs of herm_eigen / psd_trig.
_HERM_TOL = 1e-12

# sqrt(h * eigenvalue) below this uses the series limit sinc(0) = 1.
_SINC_THRESHOLD = 1e-8


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-d complex matrix; reject NaN/Inf entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def as_vector(a, n: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-d complex vector, of length n if given; reject NaN/Inf entries."""
    v = np.asarray(a, dtype=complex)
    if v.ndim != 1 or (n is not None and len(v) != n):
        length = "" if n is None else f" of length {n}"
        raise ValueError(f"expected a 1-d vector{length}, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("vector has non-finite entries")
    return v


def dagger(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(a).conj().T


@dataclass(frozen=True)
class HermEigen:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` ascending and real, ``vectors`` unitary with
    eigenvectors as columns, so ``vectors @ diag(eigenvalues) @ vectors*``
    reconstructs the input.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray

    def apply(self, fn) -> np.ndarray:
        """Evaluate the matrix function ``fn`` eigenvalue-wise."""
        return (self.vectors * fn(self.eigenvalues)) @ self.vectors.conj().T


def herm_eigen(h) -> HermEigen:
    """Hermitian eigendecomposition with an input-hermiticity contract.

    The input is symmetrized as (h + h*) / 2 before LAPACK to control
    roundoff; deviations beyond 1e-12 (relative) are a contract violation.
    """
    h = as_matrix(h)
    if h.shape[0] != h.shape[1]:
        raise ValueError(f"herm_eigen needs a square matrix, got {h.shape}")
    scale = max(op_norm(h), 1.0)
    if op_norm(h - dagger(h)) > _HERM_TOL * scale:
        raise ValueError("herm_eigen input is not Hermitian within 1e-12")
    w, v = np.linalg.eigh((h + dagger(h)) / 2.0)
    return HermEigen(eigenvalues=w, vectors=v.astype(complex))


def psd_trig(p, h: float) -> tuple[np.ndarray, np.ndarray]:
    """cos and sinc of sqrt(h) * sqrt(p) for positive semidefinite p.

    Returns ``(cos_part, sinc_part)`` with

        cos_part  = cos(sqrt(h) sqrt(p))
        sinc_part = sin(sqrt(h) sqrt(p)) (sqrt(h) sqrt(p))^{-1}

    evaluated eigenvalue-wise; on the kernel of p (arguments below 1e-8)
    sinc takes its series limit 1, the unique continuous extension.  Both
    results are Hermitian and satisfy cos^2 + h * sinc * p * sinc = 1.
    """
    if h <= 0:
        raise ValueError("psd_trig needs h > 0")
    eig = herm_eigen(p)
    lo = eig.eigenvalues.min(initial=0.0)
    if lo < -1e-10 * max(1.0, abs(eig.eigenvalues).max(initial=0.0)):
        raise ValueError(f"psd_trig input has negative eigenvalue {lo}")

    def arg(lam):
        return np.sqrt(h) * np.sqrt(np.clip(lam, 0.0, None))

    def sinc(lam):
        x = arg(lam)
        safe = np.maximum(x, _SINC_THRESHOLD)
        return np.where(x < _SINC_THRESHOLD, 1.0, np.sin(safe) / safe)

    return eig.apply(lambda lam: np.cos(arg(lam))), eig.apply(sinc)


def sandwich(left: np.ndarray, y: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum_j L_j y R_j in two matmul calls: the slot and rate kernel of walk and oracle.

    ``left`` holds the L_j side by side, (d, J d); ``right`` stacks the R_j, (J, d, d).
    """
    return left @ (y @ right).reshape(-1, y.shape[-1])


def superoperator(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The d^2 x d^2 matrix of y -> sandwich(left, y, right) on row-major vec(y).

    Entry ((a, b), (c, e)) is sum_j L_j[a, c] R_j[e, b], i.e. sum_j L_j (x) R_j^T.
    """
    d = left.shape[0]
    L = left.reshape(d, -1, d)
    return np.einsum("ajc,jeb->abce", L, right).reshape(d * d, d * d)


def _power_pays(d: int, r: int, step_cost: float, setup: float) -> bool:
    """Whether S^r for a d^2 x d^2 S costs fewer multiply-adds than r steps.

    ``np.linalg.matrix_power`` takes at most 2 bit_length(r) products of d^6
    multiply-adds, and building S takes ``setup`` more such products.
    """
    return d**6 * (setup + 2 * r.bit_length()) < r * step_cost


def power_runs(labels, d: int, step_cost: float, setup: float = 0.0) -> list[tuple[int, int]]:
    """The runs of steps worth taking as one power of a d^2 x d^2 matrix.

    ``labels`` has one entry per step; steps with one nonnegative label apply
    one linear map on d x d matrices, negative labels mark steps that must be
    stepped.  Returns (start, stop) of each maximal run of one nonnegative
    label whose r steps of ``step_cost`` multiply-adds each cost more than
    the power (``setup`` counts d^6 products spent building the matrix).
    """
    labels = np.asarray(labels)
    cuts = np.flatnonzero(np.diff(labels)) + 1
    starts = np.concatenate([[0], cuts])
    stops = np.concatenate([cuts, [len(labels)]])
    keep = labels[starts] >= 0
    return [(a, b) for a, b in zip(starts[keep].tolist(), stops[keep].tolist())
            if _power_pays(d, b - a, step_cost, setup)]


def op_norm(a) -> float:
    """Operator (spectral) norm: the largest singular value."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))
