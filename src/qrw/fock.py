"""Boson-truncated symmetric Fock space over one partition interval.

The one-particle space is the grid discretization of L2 of one interval of
length h with values in C^m: G equal cells, each carrying the inner-product
weight h/G, so the cell indicators normalized by sqrt(h/G) form an
orthonormal basis of dimension M1 = G*m (mode index alpha = cell*m + channel).

The full space is the direct sum of symmetric powers Sym^n(C^M1) for
n = 0..N.  Sector n is enumerated by sorted rows of n one-particle modes in
lexicographic (``itertools.combinations_with_replacement``) order, as a tree:
each row points to its parent (the row without its last mode) and to its
first child.  From these pointers, each sector's table of the rows it reaches
by inserting any one mode is a gather from the sector below's, in O(dim G)
work with no per-state Python loop and no search.  Coefficients are
stored over the *orthonormal* occupation basis, so inner products are plain
complex dot products; the multinomial symmetry factors appear in the
construction of product vectors and ladder operators instead.

The distinguished vectors are the vacuum (index 0) and the normalized
constant one-particle vector of each channel ("chi"), which span the
(1+m)-dimensional slot space of the projected walk.  Exponential vectors
e(f) = sum_n f^(x)n / sqrt(n!) of per-cell averages have a truncation tail of
at most ||f||^(2(N+1)) e^(||f||^2) / (N+1)!.  ``_slot_exp`` is the one reader
of f on a slot; its slot coordinates and projection loss
(``slot_exp_data``) come from the one-particle algebra below.

Each fundamental process Lambda^l is written once, as the terms M_a (x) A_a
of ``_lambda_terms`` (a d x d coefficient times a second-quantized
one-particle operator).  The lemma checks build no Fock vector: each vector
they meet is s e_K(a) or a_dag(phi) e_K(a), e(a) cut at sector K, whose inner
products a one-particle algebra (``_inner``) gives from <a, b>, <a, psi>,
<phi, b> and <phi, psi>.  The explicit Fock vectors and operators that
cross-check it are the tests'; the sector bases, ``IntervalSpace.ops`` and
``exp_vector`` stay here because the benchmark reads them.

``check_composition_table`` checks the composition table of the basic
operators on their slot-space matrices, ``basic_operator_flat``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .functions import TestFunction
from .linalg import as_matrix, as_vector, dagger, flat, op_norm, unflat
from .model import PARTS

__all__ = [
    "IntervalSpace",
    "LemmaResult",
    "NormDiffResult",
    "TruncationError",
    "basic_operator_flat",
    "check_N_vs_Lambda",
    "check_composition_table",
    "check_lemma_normdiff",
    "exp_tail_bound",
    "exp_vector",
    "projection_deficiency",
    "slot_exp_data",
]

DEFAULT_CUTOFF = 6
TAIL_LIMIT = 1e-8


class TruncationError(ValueError):
    """The boson cutoff is too small for the requested exponential vector."""


# ---------------------------------------------------------------------------
# Cached combinatorial core
# ---------------------------------------------------------------------------


class _Basis(NamedTuple):
    """Per-sector multiset bases; entry n of each list belongs to sector n.

    Sector n holds the sorted mode rows of length n in
    ``itertools.combinations_with_replacement`` order, each given by
    ``parent[n]``, the index in sector n-1 of the row without its last mode,
    and ``last[n]``, that mode; ``weight[n]`` is
    1/sqrt(multiplicity of that mode in the row), ``child[n]`` (sectors below
    the cutoff) the index in sector n+1 of each row's first child, the row
    with its last mode repeated (mode 0 for the empty row), and
    ``offsets[n]`` the first flat index of sector n.
    """

    n_modes: int
    parent: list
    last: list
    weight: list
    child: list
    offsets: list
    dim: int


@lru_cache(maxsize=4)
def _sector_basis(n_modes: int, cutoff: int) -> _Basis:
    """Sectors 0..cutoff, each built from the one below by array operations.

    In lexicographic order the rows of sector n+1 sharing the prefix r (a row
    of sector n) are contiguous and end in r[-1], ..., M-1; so repeating each
    row of sector n M - r[-1] times and appending that ramp gives sector n+1
    in order, with its parent and child pointers for free.  Raises
    ``ValueError``, before allocating, if the dimension comb(M+N, N) is
    beyond the int32 index range.
    """
    if math.comb(n_modes + cutoff, cutoff) > np.iinfo(np.int32).max:
        raise ValueError(f"dimension comb({n_modes}+{cutoff}, {cutoff}) overflows int32 indices")
    parent = [np.zeros(0, dtype=np.intp)]
    lasts = [np.zeros(0, dtype=np.int32)]
    run = [np.ones(1, dtype=np.int64)]
    child = []
    offsets = [0, 1]
    for n in range(cutoff):
        low = lasts[n] if n else np.zeros(1, dtype=np.int32)
        counts = n_modes - low
        up = np.repeat(np.arange(len(low)), counts)
        starts = np.cumsum(counts) - counts
        last = (low[up] + np.arange(len(up)) - starts[up]).astype(np.int32)
        parent.append(up)
        lasts.append(last)
        child.append(starts)
        run.append(np.where((last == low[up]) & (n > 0), run[n][up] + 1, 1))
        offsets.append(offsets[-1] + len(up))
    weight = [1.0 / np.sqrt(r) for r in run]
    return _Basis(n_modes, parent, lasts, weight, child, offsets, offsets[-1])


def _insertion_tables(basis: _Basis) -> tuple[list, list]:
    """(dim_n, M) tables over the rows r of each sector n below the cutoff and the modes a.

    ``ins[n][r, a]`` is the index in sector n+1 of r with a inserted, and
    ``occ[n][r, a]`` the occupation of a in r.  For a >= r[-1] the new row
    is the child of r ending in a; for a < r[-1] it is the child ending in
    r[-1] of q = ins[n-1][parent(r), a], the prefix of r with a inserted.
    So each sector's tables are gathers from the sector below's.
    """
    modes = np.arange(basis.n_modes)
    ins = [basis.child[0][:, None] + modes]
    occ = [np.zeros((1, basis.n_modes), dtype=np.intp)]
    for n in range(1, len(basis.child)):
        up, low, child = basis.parent[n], basis.last[n][:, None], basis.child[n]
        q = ins[n - 1][up]
        ins.append(np.where(modes < low, child[q] - basis.last[n][q] + low,
                            child[:, None] - low + modes))
        occ.append(occ[n - 1][up] + (modes == low))
    return ins, occ


@lru_cache(maxsize=4)
def _channel_ops(m: int, G: int, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Insertion and occupation tables of the cell modes, over the rows below the cutoff.

    ``ins[r, c, i]`` is the flat index of row r with mode alpha = c m + i
    inserted, and ``occ[r, c, i]`` the occupation of alpha in that row, both
    (R, G, m) over the R rows r below the cutoff.  They are
    ``_insertion_tables`` flattened across sectors: O(D G) work, from which
    the tests read their ladder and hop operators.  They stay here because
    the benchmark's lemma set-up builds them (``IntervalSpace.ops``).
    """
    basis = _sector_basis(G * m, cutoff)
    ins, occ = _insertion_tables(basis)
    ins = np.concatenate([basis.offsets[n + 1] + t for n, t in enumerate(ins)])
    occ = np.concatenate(occ) + 1  # occupation of a in r + a
    return ins.astype(np.int32).reshape(-1, G, m), occ.reshape(-1, G, m)


# ---------------------------------------------------------------------------
# The interval space
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class IntervalSpace:
    """One partition interval of length h: m channels, G cells, boson cutoff N.

    The benchmark's lemma set-up builds ``ops``, and its tracer reads ``dim``.
    """

    m: int
    G: int
    N: int
    h: float

    def __post_init__(self):
        if min(self.m, self.G, self.N) < 1 or not (math.isfinite(self.h) and self.h > 0):
            raise ValueError("need m, G, N >= 1 and h > 0, with h finite")

    @property
    def basis(self):
        return _sector_basis(self.G * self.m, self.N)

    @property
    def dim(self) -> int:
        return self.basis.dim

    @property
    def ops(self) -> tuple[np.ndarray, np.ndarray]:
        """The (ins, occ) tables of ``_channel_ops``, cached per (m, G, N)."""
        return _channel_ops(self.m, self.G, self.N)


# ---------------------------------------------------------------------------
# Exponential vectors and their projection loss
# ---------------------------------------------------------------------------


def _one_particle_coeffs(space: IntervalSpace, cells: np.ndarray) -> np.ndarray:
    cells = np.asarray(cells, dtype=complex)
    if cells.shape != (space.G, space.m):
        raise ValueError(f"cell samples shape {cells.shape}, expected {(space.G, space.m)}")
    return math.sqrt(space.h / space.G) * cells.reshape(-1)


def exp_vector(space: IntervalSpace, cells) -> np.ndarray:
    """Truncated exponential vector of the piecewise-constant grid function.

    ``cells`` holds the per-cell channel values; the n-particle sector gets
    the coherent coefficients prod_alpha c_alpha^{n_alpha} / sqrt(n_alpha!)
    over the occupation basis, which reproduces f^(x)n / sqrt(n!).  Each
    row's coefficient is its parent's (the row without its last mode) times
    c_last / sqrt(multiplicity of last), one gather-multiply per sector from
    the basis tables.  No study reads it; the benchmark's tracer wraps it by
    name, here and as ``walk.exp_vector``.
    """
    c = _one_particle_coeffs(space, cells)
    basis = space.basis
    off = basis.offsets
    data = np.empty(basis.dim, dtype=complex)
    data[0] = 1.0
    for n in range(1, space.N + 1):
        prev = data[off[n - 1]:off[n]]
        data[off[n]:off[n + 1]] = prev[basis.parent[n]] * c[basis.last[n]] * basis.weight[n]
    return data


def exp_tail_bound(space: IntervalSpace, cells) -> float:
    """Poisson tail bound ||f||^(2(N+1)) e^(||f||^2) / (N+1)! on the cut sectors."""
    nsq = float(np.sum(np.abs(_one_particle_coeffs(space, cells)) ** 2))
    return nsq ** (space.N + 1) * np.exp(nsq) / math.factorial(space.N + 1)


def projection_deficiency(f: TestFunction, t: float, h: float, m: int, G: int,
                          N: int = DEFAULT_CUTOFF) -> float:
    """||(1 - P_h) e(f restricted to [0, t])|| over the whole partition.

    Exponential vectors factor over intervals, so with e_k = e(f_[k]) the
    squared norm prod_k ||e_k||^2 - prod_k ||P_h e_k||^2 is, free of that
    subtraction, sum_k (prod_{j<k} ||P_h e_j||^2) ||q_k||^2 (prod_{j>k} ||e_j||^2)
    with q_k = (1 - P_h) e_k, all norms from ``slot_exp_data`` at cutoff N.
    A slot whose truncation tail exceeds ``TAIL_LIMIT`` raises
    ``TruncationError``, as in every other check.
    """
    if not (math.isfinite(h) and h > 0 and math.isfinite(t) and t >= 0):
        raise ValueError("need h > 0 and t >= 0, both finite")
    n = int(round(t / h))
    if abs(n * h - t) > 1e-9 * max(1.0, t):
        raise ValueError("t must be an integer multiple of h")
    space = IntervalSpace(m=m, G=G, N=N, h=h)
    loss, proj = 0.0, 1.0
    for k in range(n):
        hat, q_sq, _ = slot_exp_data(space, f, k * h)
        proj_k = np.vdot(hat, hat).real
        loss = loss * (proj_k + q_sq) + proj * q_sq
        proj *= proj_k
    return float(np.sqrt(loss))


# ---------------------------------------------------------------------------
# Fundamental and basic operators on one interval
# ---------------------------------------------------------------------------


def _check_coeff(l: int, coeff, d: int, m: int) -> np.ndarray:
    shapes = {1: (d, d), 2: (d * m, d), 3: (d * m, d), 4: (d * m, d * m)}
    if l not in shapes:
        raise ValueError(f"kind must be 1..4, got {l}")
    coeff = as_matrix(coeff)
    want = shapes[l]
    if coeff.shape != want:
        raise ValueError(f"coefficient for kind {l} has shape {coeff.shape}, expected {want}")
    return coeff


def _lambda_terms(space: IntervalSpace, l: int, coeff: np.ndarray, d: int) -> list:
    """Lambda^l = sum_a M_a (x) A_a as the list of terms (M_a, i, j).

    M_a is h S, sqrt(h) R_i*, sqrt(h) R_i or T_ij; A_a (identity, a(chi^i),
    a_dag(chi^i) or the hop j -> i) acts on e_N(c) as ``_term_image``.
    """
    if l == 1:
        return [(space.h * coeff, 0, 0)]
    blocks = unflat(coeff, d)  # R_i = blocks[i, 0], T_ij = blocks[i, j]
    if l == 4:
        return [(blocks[i, j], i, j) for i in range(space.m) for j in range(space.m)]
    rh = np.sqrt(space.h)
    return [(rh * (dagger(R) if l == 2 else R), i, 0) for i, R in enumerate(blocks[:, 0])]


def basic_operator_flat(l: int, coeff, d: int, m: int) -> np.ndarray:
    """The basic operator N^l restricted to system (x) slot space as a flat matrix.

    On the slot basis (vacuum, chi^1..chi^m) these are the block matrix units
    N^1_S = S (x) |O><O|, N^2_R = sum_i R_i* (x) |O><chi^i|,
    N^3_R = sum_i R_i (x) |chi^i><O|, N^4_T = sum_ij T_ij (x) |chi^i><chi^j|:
    the coefficient (its adjoint for kind 2) fills the block region
    ``model.PARTS[l - 1]``, the others are zero.  This is the whole operator,
    since N^l vanishes on the slot-space complement.
    """
    coeff = _check_coeff(l, coeff, d, m)
    blocks = np.zeros((1 + m, 1 + m, d, d), dtype=complex)
    blocks[PARTS[l - 1]] = unflat(dagger(coeff) if l == 2 else coeff, d)
    return flat(blocks)


def check_composition_table(rng, d: int = 3, m: int = 2) -> list[tuple[str, float]]:
    """Residuals of the ten basic-operator composition identities and the slot resolution.

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
# One-particle algebra of truncated exponential vectors
# ---------------------------------------------------------------------------


def _partial_exp(z: complex, K: int, lo: int) -> complex:
    """S_K(z) = sum_{n<=K} z^n / n! over the terms n >= lo (zero if K < lo)."""
    return sum(z**n / math.factorial(n) for n in range(max(lo, 0), K + 1))


def _inner(x: tuple, y: tuple, lo: int = 0) -> complex:
    """<x, y> over the sectors >= lo, from one-particle inner products alone.

    A vector (s, phi, K, a) is s e_K(a), or s a_dag(phi) e_K(a) if phi is not
    None, with e_K(a) = sum_{n<=K} a^(x)n / sqrt(n!) and a, phi (G m,) arrays
    over the orthonormal cell modes.  With z = <a, b>:
    <e_K(a), e_L(b)> = S_min(K,L)(z), <e_K(a), a_dag(psi) e_L(b)> =
    <a, psi> S_min(K-1,L)(z), and
    <a_dag(phi) e_K(a), a_dag(psi) e_L(b)> = <phi, psi> S_min(K,L)(z)
    + <phi, b> <a, psi> S_min(K-1,L-1)(z).  A term z^n / n! lies in sector n
    plus its count of a_dag (0, 1 or 2), so the sector floor lo drops by it.
    """
    s, phi, K, a = x
    t, psi, L, b = y
    z = complex(np.vdot(a, b))
    if phi is None and psi is None:
        val = _partial_exp(z, min(K, L), lo)
    elif phi is None:
        val = np.vdot(a, psi) * _partial_exp(z, min(K - 1, L), lo - 1)
    elif psi is None:
        val = np.vdot(phi, b) * _partial_exp(z, min(K, L - 1), lo - 1)
    else:
        val = (np.vdot(phi, psi) * _partial_exp(z, min(K, L), lo - 1)
               + np.vdot(phi, b) * np.vdot(a, psi) * _partial_exp(z, min(K - 1, L - 1), lo - 2))
    return complex(np.conj(s) * t * val)


def _slot_split(space: IntervalSpace, x: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Slot coordinates (vacuum, chi^1..chi^m) of x and its (G, m) sector 1 off the chi vectors."""
    s, phi, K, a = x
    one = s * (phi if phi is not None else a if K >= 1 else 0 * a).reshape(space.G, space.m)
    mean = np.add.reduce(one, axis=0) / space.G  # numpy's formula for one.mean(0)
    hat = np.empty(1 + space.m, dtype=complex)
    hat[0] = s if phi is None else 0.0
    hat[1:] = math.sqrt(space.G) * mean
    return hat, one - mean


def _complement_gram(space: IntervalSpace, xs: list, ys: list) -> np.ndarray:
    """[<(1 - P_h) x, (1 - P_h) y>] over xs and ys: sectors >= 2 plus sector 1
    off the chi vectors, with no slot part subtracted from a full inner product."""
    off_x = np.array([_slot_split(space, x)[1].ravel() for x in xs])
    off_y = off_x if ys is xs else np.array([_slot_split(space, y)[1].ravel() for y in ys])
    return np.array([[_inner(x, y, 2) for y in ys] for x in xs]) + off_x.conj() @ off_y.T


def _term_image(space: IntervalSpace, l: int, i: int, j: int, c: np.ndarray) -> tuple:
    """A_a e_N(c) for the term (i, j) of Lambda^l: e_N(c), <chi^i, c> e_{N-1}(c),
    a_dag(chi^i) e_{N-1}(c) (the cutoff drops sector N's image) or a_dag(T_ij c)
    e_{N-1}(c), with T_ij c channel j of c moved to channel i cell by cell."""
    if l == 1:
        return (1.0, None, space.N, c)
    phi = np.zeros((space.G, space.m), dtype=complex)
    phi[:, i] = c.reshape(space.G, space.m)[:, j] if l == 4 else 1.0 / math.sqrt(space.G)
    if l == 2:
        return (complex(np.vdot(phi, c)), None, space.N - 1, c)
    return (1.0, phi.ravel(), space.N - 1, c)


def _slot_exp(space: IntervalSpace, f: TestFunction, start: float) -> tuple[tuple, float]:
    """e_N of f's cell averages on [start, start + h], and its truncation tail;
    raises ``TruncationError`` if the tail exceeds ``TAIL_LIMIT``."""
    cells = f.cell_averages(start, start + space.h, space.G)
    tail = exp_tail_bound(space, cells)
    if tail > TAIL_LIMIT:
        raise TruncationError(f"truncation tail {tail:.2e} needs a larger cutoff than N={space.N}")
    return (1.0, None, space.N, _one_particle_coeffs(space, cells)), tail


def slot_exp_data(space: IntervalSpace, f: TestFunction,
                  start: float) -> tuple[np.ndarray, float, float]:
    """Slot coordinates, ||(1 - P_h) e||^2 and tail of e = ``_slot_exp``: the loss
    is sectors >= 2 (``_inner``) plus sector 1 off the chi vectors (``_slot_split``)."""
    e, tail = _slot_exp(space, f, start)
    hat, off = _slot_split(space, e)
    return hat, _inner(e, e, 2).real + float(np.vdot(off, off).real), tail


# ---------------------------------------------------------------------------
# Lemma checks
# ---------------------------------------------------------------------------


class NormDiffResult(NamedTuple):
    lhs: float
    rhs: float
    slack: float
    tail: float
    passed: bool


class LemmaResult(NamedTuple):
    kind: int
    mode: str
    lhs: float
    rhs: float
    slack: float
    passed: bool


def check_lemma_normdiff(space: IntervalSpace, f: TestFunction, h: float,
                         start: float = 0.0) -> NormDiffResult:
    """Projection loss of one exponential vector against h (c_f + sup) ||e(f)||.

    lhs and ||e(f)|| come from ``slot_exp_data``; the slack adds the
    truncation tail and the grid quadrature allowance h c_f / G.
    """
    if abs(h - space.h) > 1e-12:
        raise ValueError("h must match the space's interval length")
    hat, q_sq, tail = slot_exp_data(space, f, start)
    lhs = float(np.sqrt(q_sq))
    sup, c_f = f.constants(start, start + h)
    rhs = h * (c_f + sup) * float(np.sqrt(np.vdot(hat, hat).real + q_sq))
    slack = tail + h * c_f / space.G
    return NormDiffResult(lhs, float(rhs), float(slack), float(tail), bool(lhs <= rhs + slack))


def _lemma_rhs(h: float, l: int, mode: str, coeff, coeff_norm: float, u, v, sup_f: float,
               c_f: float, sup_g: float | None, ef_norm: float, eg_norm: float) -> float:
    """The stated bound, from the constants of f and g on the slot that
    ``check_N_vs_Lambda`` computes once: sup_f, c_f, sup_g and ||coeff||."""
    u_norm = float(np.linalg.norm(u))
    if l == 1:
        base = h**1.5 * float(np.linalg.norm(coeff @ u)) * sup_f * ef_norm
    elif l == 2:
        base = h**1.5 * coeff_norm * u_norm * sup_f**2 * ef_norm
    elif l == 3:
        base = 2 * h * float(np.linalg.norm(coeff @ u)) * sup_f * ef_norm
    else:
        base = 2 * h * coeff_norm * (c_f + sup_f**2) * u_norm * ef_norm
    if mode == "a":
        return base
    v_norm = float(np.linalg.norm(v))
    if l == 1:
        return base * v_norm * eg_norm
    if l == 2:
        return base * sup_g * v_norm * eg_norm
    if l == 3:
        return (
            2 * h**2 * float(np.linalg.norm(coeff @ u)) * v_norm
            * sup_f * sup_g * ef_norm**2 * eg_norm**2
        )
    return (
        h**2 * ((sup_f + c_f) * sup_g) ** 2 * coeff_norm
        * u_norm * v_norm * ef_norm**2 * eg_norm**2
    )


def check_N_vs_Lambda(space: IntervalSpace, l: int, coeff, u, f: TestFunction,
                      g: TestFunction | None = None, v=None, mode: str = "a",
                      start: float = 0.0) -> LemmaResult:
    """One of the eight basic-vs-fundamental comparison estimates.

    Mode "a" compares ||(h^eps N^l - Lambda^l) u e(f)|| against the stated
    bound; mode "b" compares the magnitude of the matrix element against
    v e(g).  ``passed`` is lhs <= rhs + slack, the slack being the
    truncation/grid allowance.

    Every vector met is s e_K(c) or a_dag(phi) e_K(c), c = sqrt(h/G) cells
    (see ``_inner``): u e(f) is u (x) e_N(c), and each term M_a (x) A_a of
    Lambda^l maps it to (M_a u) (x) W_a with W_a = ``_term_image``.  With
    C = [M_a u], W split into slot coordinates and Q = (1 - P_h) W, and P
    the slot image of scale N^l u e(f), the difference is the slot part
    A = P - C slot(W) plus the orthogonal part sum_a C_a (x) Q_a: mode "a" is
    sqrt(||A||^2 + sum_ab <C_a, C_b> <Q_a, Q_b>), mode "b" pairs both parts
    with v e(g), and <Q_a, Q_b> never subtracts a slot part from a norm
    (``_complement_gram``).  No Fock vector or ladder operator is built: the
    at most m^2 terms cost O(m^4 (N + G m)), whatever the Fock dimension.
    """
    if mode not in ("a", "b"):
        raise ValueError("mode must be 'a' or 'b'")
    if mode == "b" and (g is None or v is None):
        raise ValueError("mode 'b' needs both v and g")
    u = as_vector(u)
    d = len(u)
    coeff = _check_coeff(l, coeff, d, space.m)
    h = space.h
    ef, tail = _slot_exp(space, f, start)
    ef_norm = np.sqrt(_inner(ef, ef).real)
    scale = {1: h, 2: np.sqrt(h), 3: np.sqrt(h), 4: 1.0}[l]
    terms = _lambda_terms(space, l, coeff, d)
    C = np.column_stack([M @ u for M, _, _ in terms])
    W = [_term_image(space, l, i, j, ef[3]) for _, i, j in terms]
    hat = _slot_split(space, ef)[0]
    P = basic_operator_flat(l, coeff, d, space.m) @ np.multiply.outer(u, hat).ravel()
    A = scale * P.reshape(d, 1 + space.m) - C @ np.array([_slot_split(space, w)[0] for w in W])

    coeff_norm = op_norm(coeff)
    coeff_scale = max(coeff_norm, 1.0) * max(float(np.linalg.norm(u)), 1.0)
    sup_f, c_f = f.constants(start, start + h)
    # 1e-12 absolute floor absorbs pure roundoff in exactly matching cases.
    slack = (tail + h * c_f / space.G + 1e-12) * coeff_scale
    eg_norm, sup_g = 1.0, None
    if mode == "a":
        gram = (C.conj().T @ C) * _complement_gram(space, W, W)
        lhs = np.sqrt(max(np.vdot(A, A).real + np.sum(gram).real, 0.0))
    else:
        v = as_vector(v, d)
        eg, tail_g = _slot_exp(space, g, start)
        eg_norm = np.sqrt(_inner(eg, eg).real)
        # <(1 - P_h) e(g), Q_a> is <e(g), Q_a>, as Q_a is orthogonal to the slot space.
        slot = np.vdot(np.outer(v, _slot_split(space, eg)[0]), A)
        lhs = abs(slot - (v.conj() @ C) @ _complement_gram(space, [eg], W)[0])
        sup_g, c_g = g.constants(start, start + h)
        slack = (tail + tail_g + h * (c_f + c_g) / space.G + 1e-12) * coeff_scale * max(
            float(np.linalg.norm(v)), 1.0
        )
    rhs = _lemma_rhs(h, l, mode, coeff, coeff_norm, u, v, sup_f, c_f, sup_g, ef_norm, eg_norm)
    return LemmaResult(
        kind=l,
        mode=mode,
        lhs=float(lhs),
        rhs=float(rhs),
        slack=float(slack),
        passed=bool(lhs <= rhs + slack),
    )
