"""Boson-truncated symmetric Fock space over one partition interval.

The one-particle space is the grid discretization of L2 of one interval of
length h with values in C^m: G equal cells, each carrying the inner-product
weight h/G, so the cell indicators normalized by sqrt(h/G) form an
orthonormal basis of dimension M1 = G*m (mode index alpha = cell*m + channel).

The full space is the direct sum of symmetric powers Sym^n(C^M1) for
n = 0..N.  Sector n is enumerated by sorted rows of n one-particle modes in
lexicographic (``itertools.combinations_with_replacement``) order, and each
row carries the integer key sum_j a_j M1^(n-1-j), which is strictly
increasing in that order.  A state's index is a binary search of its key
among its sector's keys, so the ladder and hop operators are built a whole
sector at a time (append or replace a mode, sort the rows, rank them) in
O(dim G) work with no per-state Python loop.  Coefficients are stored over
the *orthonormal* occupation basis, so inner products are plain complex dot
products; the multinomial symmetry factors appear in the construction of
product vectors and ladder operators instead.

The distinguished vectors are the vacuum (index 0) and the normalized
constant one-particle vector of each channel ("chi"), which span the
(1+m)-dimensional slot space of the projected walk.  Exponential vectors
e(f) = sum_n f^(x)n / sqrt(n!) of per-cell averages have closed-form slot
coordinates and projection loss (``slot_exp_data``); they are built as
D-vectors, from the basis tables, only where an operator acts on them.
Their truncation tail is at most ||f||^(2(N+1)) e^(||f||^2) / (N+1)!.

Each fundamental process Lambda^l is written once, as a list of terms
M_a (x) A_a (a d x d coefficient times a second-quantized one-particle
operator); ``fundamental_apply`` sums them over (d, dim) vectors, and the
lemma checks contract them against the scalar e(f) instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.sparse

from .functions import TestFunction
from .linalg import as_matrix, dagger, op_norm
from .model import BlockOperator

__all__ = [
    "IntervalSpace",
    "IntervalVector",
    "LemmaResult",
    "NormDiffResult",
    "TruncationError",
    "basic_apply",
    "basic_operator_flat",
    "check_N_vs_Lambda",
    "check_lemma_normdiff",
    "exp_tail_bound",
    "exp_vector",
    "fundamental_apply",
    "project_Ph",
    "projection_deficiency",
    "slot_coordinates",
    "slot_exp_data",
    "space_for",
]

DEFAULT_CUTOFF = 6
ESCALATED_CUTOFF = 8
TAIL_LIMIT = 1e-8


class TruncationError(ValueError):
    """The boson cutoff is too small for the requested exponential vector."""


# ---------------------------------------------------------------------------
# Cached combinatorial core
# ---------------------------------------------------------------------------


class _Basis(NamedTuple):
    """Per-sector multiset bases; entry n of each list belongs to sector n.

    ``states[n]`` is an int array (dim_n, n) of sorted mode rows in
    ``itertools.combinations_with_replacement`` order, ``keys[n]`` their
    base-M keys (strictly ascending), ``parent[n]`` the index in sector n-1
    of each row without its last mode, ``last[n]`` that mode (a contiguous
    copy of the last column), ``weight[n]`` 1/sqrt(multiplicity of that
    mode in the row), and ``offsets[n]`` the first flat index of sector n.
    """

    n_modes: int
    states: list
    keys: list
    parent: list
    last: list
    weight: list
    offsets: list
    dim: int


def _keys(rows: np.ndarray, n_modes: int) -> np.ndarray:
    """Base-M keys sum_j a_j M^(n-1-j) of sorted rows (n columns)."""
    n = rows.shape[1]
    return rows.astype(np.int64) @ (np.int64(n_modes) ** np.arange(n - 1, -1, -1, dtype=np.int64))


@lru_cache(maxsize=4)
def _sector_basis(n_modes: int, cutoff: int) -> _Basis:
    """Sectors 0..cutoff, each built from the one below by array operations.

    In lexicographic order the rows of sector n+1 sharing the prefix r (a row
    of sector n) are contiguous and end in r[-1], ..., M-1; so repeating each
    row of sector n M - r[-1] times and appending that ramp gives sector n+1
    in order, with its parent pointers for free.  Raises ``ValueError`` if the
    keys could overflow int64.
    """
    if n_modes**cutoff > np.iinfo(np.int64).max:
        raise ValueError(f"multiset keys M^N = {n_modes}^{cutoff} overflow int64")
    states = [np.zeros((1, 0), dtype=np.int32)]
    keys = [np.zeros(1, dtype=np.int64)]
    parent = [np.zeros(0, dtype=np.intp)]
    lasts = [np.zeros(0, dtype=np.int32)]
    run = [np.ones(1, dtype=np.int64)]
    offsets = [0, 1]
    for n in range(cutoff):
        rows = states[n]
        low = rows[:, -1] if n else np.zeros(1, dtype=np.int32)
        counts = n_modes - low
        up = np.repeat(np.arange(len(rows)), counts)
        starts = np.cumsum(counts) - counts
        last = (low[up] + np.arange(len(up)) - starts[up]).astype(np.int32)
        states.append(np.column_stack([rows[up], last]))
        keys.append(_keys(states[-1], n_modes))
        parent.append(up)
        lasts.append(last)
        run.append(np.where((last == low[up]) & (n > 0), run[n][up] + 1, 1))
        offsets.append(offsets[-1] + len(up))
    weight = [1.0 / np.sqrt(r) for r in run]
    return _Basis(n_modes, states, keys, parent, lasts, weight, offsets, offsets[-1])


def _flat_index(basis: _Basis, rows: np.ndarray) -> np.ndarray:
    """Flat indices of sorted rows, all of one sector, by binary search on its keys."""
    keys = basis.keys[rows.shape[1]]
    query = _keys(rows, basis.n_modes)
    pos = np.searchsorted(keys, query)
    assert np.array_equal(keys[np.minimum(pos, len(keys) - 1)], query), "row outside the basis"
    return basis.offsets[rows.shape[1]] + pos


def _count(rows: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """Occupation of modes[r] in rows[r]."""
    return np.count_nonzero(rows == modes[:, None], axis=1)


def _sparse(dim: int, rows: list, cols: list, vals: list):
    return scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim), dtype=complex,
    )


def _hop(basis: _Basis, m: int, i: int, j: int):
    """Second quantization of (cell c, channel j) -> (cell c, channel i)."""
    rows, cols, vals = [], [], []
    for n in range(1, len(basis.states)):
        states, off = basis.states[n], basis.offsets[n]
        in_j = states % m == j
        if i == j:
            occ = np.count_nonzero(in_j, axis=1)
            s = np.flatnonzero(occ)
            rows.append(off + s)
            cols.append(off + s)
            vals.append(occ[s].astype(float))
            continue
        # One entry per distinct channel-j mode beta of a row: its first position.
        first = np.ones(states.shape, dtype=bool)
        first[:, 1:] = states[:, 1:] != states[:, :-1]
        s, p = np.nonzero(first & in_j)
        beta = states[s, p]
        alpha = beta - j + i  # (beta // m) m + i, as beta % m == j
        new = states[s]
        new[np.arange(len(s)), p] = alpha
        new.sort(axis=1)
        rows.append(_flat_index(basis, new))
        cols.append(off + s)
        vals.append(np.sqrt(_count(states[s], beta)) * np.sqrt(_count(new, alpha)))
    return _sparse(basis.dim, rows, cols, vals)


@lru_cache(maxsize=4)
def _channel_ops(m: int, G: int, cutoff: int):
    """Sparse chi-creation operators and same-cell hop operators.

    ``create[i]`` is a_dag(chi^i) = G^{-1/2} sum_c a_dag(cell c, channel i)
    as a D x D sparse matrix; ``hop[i][j]`` is the second quantization of the
    one-particle map (cell c, channel j) -> (cell c, channel i), i.e. the
    conservation kernel of the channel matrix unit |e_i><e_j|.  Every target
    row is sorted and ranked whole-sector at a time: O(D G) work.
    """
    basis = _sector_basis(G * m, cutoff)
    weight = 1.0 / np.sqrt(G)
    create = []
    for i in range(m):
        rows, cols, vals = [], [], []
        for n in range(cutoff):
            states = basis.states[n]
            alpha = np.tile(np.arange(G) * m + i, len(states))
            new = np.sort(np.column_stack([np.repeat(states, G, axis=0), alpha]), axis=1)
            rows.append(_flat_index(basis, new))
            cols.append(basis.offsets[n] + np.repeat(np.arange(len(states)), G))
            vals.append(weight * np.sqrt(_count(new, alpha)))
        create.append(_sparse(basis.dim, rows, cols, vals))
    hop = [[_hop(basis, m, i, j) for j in range(m)] for i in range(m)]
    return create, hop


# ---------------------------------------------------------------------------
# Space and vectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class IntervalSpace:
    """One partition interval of length h: m channels, G cells, boson cutoff N."""

    m: int
    G: int
    N: int
    h: float

    def __post_init__(self):
        if min(self.m, self.G, self.N) < 1 or self.h <= 0:
            raise ValueError("need m, G, N >= 1 and h > 0")

    @property
    def n_modes(self) -> int:
        return self.G * self.m

    @property
    def basis(self):
        return _sector_basis(self.n_modes, self.N)

    @property
    def dim(self) -> int:
        return self.basis.dim

    def sector(self, n: int) -> slice:
        offsets = self.basis.offsets
        return slice(offsets[n], offsets[n + 1])

    @property
    def ops(self):
        return _channel_ops(self.m, self.G, self.N)

    def chi_coefficients(self) -> np.ndarray:
        """(m, dim_1) coefficients of the normalized constant channel vectors."""
        out = np.zeros((self.m, self.G * self.m), dtype=complex)
        for i in range(self.m):
            out[i, np.arange(self.G) * self.m + i] = 1.0 / np.sqrt(self.G)
        return out

    def khat_embedding(self) -> np.ndarray:
        """(1+m, dim) rows: vacuum and the chi vectors, as full-space vectors."""
        out = np.zeros((1 + self.m, self.dim), dtype=complex)
        out[0, 0] = 1.0
        out[1:, self.sector(1)] = self.chi_coefficients()
        return out

    def vacuum(self, u=None) -> "IntervalVector":
        data = np.zeros((1, self.dim), dtype=complex)
        data[0, 0] = 1.0
        vec = IntervalVector(self, data)
        return vec if u is None else vec.with_system(u)

    def chi(self, i: int, u=None) -> "IntervalVector":
        data = np.zeros((1, self.dim), dtype=complex)
        data[0, self.sector(1)] = self.chi_coefficients()[i]
        vec = IntervalVector(self, data)
        return vec if u is None else vec.with_system(u)

    def one_particle(self, coeffs, u=None) -> "IntervalVector":
        """Vector with the given one-particle mode coefficients, other sectors zero."""
        data = np.zeros((1, self.dim), dtype=complex)
        data[0, self.sector(1)] = np.asarray(coeffs, dtype=complex)
        vec = IntervalVector(self, data)
        return vec if u is None else vec.with_system(u)


@dataclass(eq=False)
class IntervalVector:
    """Vector in (C^d (x)) the truncated interval Fock space; data is (d, dim)."""

    space: IntervalSpace
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=complex)
        if data.ndim == 1:
            data = data[None, :]
        if data.shape[1] != self.space.dim:
            raise ValueError("data length does not match space dimension")
        self.data = data

    @property
    def d(self) -> int:
        return self.data.shape[0]

    def with_system(self, u) -> "IntervalVector":
        u = np.asarray(u, dtype=complex).reshape(-1)
        if self.d != 1:
            raise ValueError("vector already carries a system factor")
        return IntervalVector(self.space, u[:, None] * self.data[0])

    def norm_sq(self) -> float:
        return float(np.vdot(self.data, self.data).real)

    def norm(self) -> float:
        return float(np.sqrt(self.norm_sq()))

    def inner(self, other: "IntervalVector") -> complex:
        return complex(np.vdot(self.data, other.data))

    def __add__(self, other):
        return IntervalVector(self.space, self.data + other.data)

    def __sub__(self, other):
        return IntervalVector(self.space, self.data - other.data)

    def __mul__(self, scalar):
        return IntervalVector(self.space, scalar * self.data)

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# Exponential vectors
# ---------------------------------------------------------------------------


def _one_particle_coeffs(space: IntervalSpace, cells: np.ndarray) -> np.ndarray:
    cells = np.asarray(cells, dtype=complex)
    if cells.shape != (space.G, space.m):
        raise ValueError(f"cell samples shape {cells.shape}, expected {(space.G, space.m)}")
    return np.sqrt(space.h / space.G) * cells.reshape(-1)


def exp_vector(space: IntervalSpace, cells) -> IntervalVector:
    """Truncated exponential vector of the piecewise-constant grid function.

    ``cells`` holds the per-cell channel values; the n-particle sector gets
    the coherent coefficients prod_alpha c_alpha^{n_alpha} / sqrt(n_alpha!)
    over the occupation basis, which reproduces f^(x)n / sqrt(n!).  Each
    row's coefficient is its parent's (the row without its last mode) times
    c_last / sqrt(multiplicity of last), one gather-multiply per sector from
    the basis tables.
    """
    c = _one_particle_coeffs(space, cells)
    basis = space.basis
    off = basis.offsets
    data = np.empty(basis.dim, dtype=complex)
    data[0] = 1.0
    for n in range(1, space.N + 1):
        prev = data[off[n - 1]:off[n]]
        data[off[n]:off[n + 1]] = prev[basis.parent[n]] * c[basis.last[n]] * basis.weight[n]
    return IntervalVector(space, data)


def slot_exp_data(space: IntervalSpace, cells) -> tuple[np.ndarray, float]:
    """Slot coordinates hat and ||(1 - P_h) e||^2 of the truncated e(cells), in closed form.

    With c = sqrt(h/G) cells (G x m) and a = ||c||^2: hat = (1, sqrt(G) mean_c c),
    and the loss is sectors >= 2, sum_{2<=n<=N} a^n / n!, plus sector 1 off the
    chi vectors, sum_{c,i} |c_ci - mean_c c_.i|^2; no cancellation, no D-vector.
    """
    c = _one_particle_coeffs(space, cells).reshape(space.G, space.m)
    a = float(np.vdot(c, c).real)
    q_sq = sum(a**n / math.factorial(n) for n in range(2, space.N + 1)) + space.G * c.var(0).sum()
    return np.concatenate([[1.0], np.sqrt(space.G) * c.mean(0)]), float(q_sq)


def exp_tail_bound(space: IntervalSpace, cells) -> float:
    """Poisson tail bound ||f||^(2(N+1)) e^(||f||^2) / (N+1)! on the cut sectors."""
    nsq = float(np.sum(np.abs(_one_particle_coeffs(space, cells)) ** 2))
    return nsq ** (space.N + 1) * np.exp(nsq) / math.factorial(space.N + 1)


def _checked_tail(space: IntervalSpace, cells) -> float:
    """exp_tail_bound, raising ``TruncationError`` above ``TAIL_LIMIT``."""
    tail = exp_tail_bound(space, cells)
    if tail > TAIL_LIMIT:
        raise TruncationError(f"truncation tail {tail:.2e} needs a larger cutoff than N={space.N}")
    return tail


def _slot_exp_vector(space: IntervalSpace, f: TestFunction,
                     start: float) -> tuple[IntervalVector, float]:
    """e(f restricted to [start, start + h]) on the space's grid, and its checked tail."""
    cells = f.cell_averages(start, start + space.h, space.G)
    tail = _checked_tail(space, cells)
    return exp_vector(space, cells), tail


def space_for(f: TestFunction, h: float, m: int, G: int, start: float = 0.0,
              N: int = DEFAULT_CUTOFF) -> IntervalSpace:
    """Build an interval space for f, escalating the cutoff if the tail is large.

    Raises ``TruncationError`` if the tail still exceeds ``TAIL_LIMIT`` at the
    escalated cutoff.
    """
    return _space_for_cells(f.cell_averages(start, start + h, G), h, m, G, N)


def _space_for_cells(cells, h: float, m: int, G: int, N: int) -> IntervalSpace:
    """``space_for`` on one slot's cell averages."""
    space = IntervalSpace(m=m, G=G, N=N, h=h)
    if exp_tail_bound(space, cells) > TAIL_LIMIT and N < ESCALATED_CUTOFF:
        space = IntervalSpace(m=m, G=G, N=ESCALATED_CUTOFF, h=h)
    _checked_tail(space, cells)
    return space


# ---------------------------------------------------------------------------
# Projection onto the slot space
# ---------------------------------------------------------------------------


def slot_coordinates(space: IntervalSpace, v: IntervalVector) -> np.ndarray:
    """(d, 1+m) components of v along the vacuum and the chi vectors."""
    chi = space.chi_coefficients()
    return np.column_stack([v.data[:, 0], v.data[:, space.sector(1)] @ chi.conj().T])


def _slot_embed(space: IntervalSpace, coords: np.ndarray) -> IntervalVector:
    """The vector with (d, 1+m) slot-space coordinates ``coords``, zero elsewhere."""
    out = np.zeros((coords.shape[0], space.dim), dtype=complex)
    out[:, 0] = coords[:, 0]
    out[:, space.sector(1)] = coords[:, 1:] @ space.chi_coefficients()
    return IntervalVector(space, out)


def project_Ph(space: IntervalSpace, v: IntervalVector) -> IntervalVector:
    """Orthogonal projection onto vacuum + the constant one-particle vectors."""
    return _slot_embed(space, slot_coordinates(space, v))


def projection_deficiency(f: TestFunction, t: float, h: float, m: int, G: int,
                          N: int = DEFAULT_CUTOFF) -> float:
    """||(1 - P_h) e(f restricted to [0, t])|| over the whole partition.

    Exponential vectors factor over intervals, so with e_k = e(f_[k]) the
    squared norm prod_k ||e_k||^2 - prod_k ||P_h e_k||^2 is, free of that
    subtraction, sum_k (prod_{j<k} ||P_h e_j||^2) ||q_k||^2 (prod_{j>k} ||e_j||^2)
    with q_k = (1 - P_h) e_k, all norms from the closed form ``slot_exp_data``.
    """
    if h <= 0 or t < 0:
        raise ValueError("need h > 0 and t >= 0")
    n = int(round(t / h))
    if abs(n * h - t) > 1e-9 * max(1.0, t):
        raise ValueError("t must be an integer multiple of h")
    loss, proj = 0.0, 1.0
    for k in range(n):
        cells = f.cell_averages(k * h, (k + 1) * h, G)
        hat, q_sq = slot_exp_data(_space_for_cells(cells, h, m, G, N), cells)
        proj_k = np.vdot(hat, hat).real
        loss = loss * (proj_k + q_sq) + proj * q_sq
        proj *= proj_k
    return float(np.sqrt(loss))


# ---------------------------------------------------------------------------
# Fundamental and basic operators on one interval
# ---------------------------------------------------------------------------


def _coeff_channels(coeff: np.ndarray, d: int, m: int) -> np.ndarray:
    """Split a (d m) x d map into per-channel d x d blocks (row a*m + i)."""
    return coeff.reshape(d, m, d).transpose(1, 0, 2)


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
    """Lambda^l = sum_a M_a (x) A_a as the list of terms (M_a, A_a).

    M_a is h S, sqrt(h) R_i*, sqrt(h) R_i or T_ij; A_a (identity, a(chi^i),
    a_dag(chi^i) or hop[i][j]) is a callable on (dim,) or (dim, k) arrays.
    a(chi^i) is create[i].T applied on the conjugate: no adjoint is built.
    """
    m, rh = space.m, np.sqrt(space.h)
    if l == 1:
        return [(space.h * coeff, lambda x: x)]
    create, hop = space.ops
    if l == 2:
        return [(rh * dagger(R), lambda x, c=c.T: (c @ x.conj()).conj())
                for R, c in zip(_coeff_channels(coeff, d, m), create)]
    if l == 3:
        return [(rh * R, c.__matmul__) for R, c in zip(_coeff_channels(coeff, d, m), create)]
    T4 = coeff.reshape(d, m, d, m)
    return [(T4[:, i, :, j], hop[i][j].__matmul__) for i in range(m) for j in range(m)]


def fundamental_apply(space: IntervalSpace, l: int, coeff, v: IntervalVector) -> IntervalVector:
    """Apply one fundamental process of the interval to a system-valued vector.

    Kinds: 1 time (h * S), 2 annihilation a_R, 3 creation a_dag_R,
    4 conservation with kernel T; coefficient shapes d x d, (dm) x d,
    (dm) x d and (dm) x (dm) respectively.
    """
    coeff = _check_coeff(l, coeff, v.d, space.m)
    out = sum(M @ A(v.data.T).T for M, A in _lambda_terms(space, l, coeff, v.d))
    return IntervalVector(space, out)


def basic_apply(space: IntervalSpace, l: int, coeff, v: IntervalVector) -> IntervalVector:
    """Apply one basic operator N^l: the projected/scaled fundamental process.

    N^l acts on the slot-space coordinates of v by ``basic_operator_flat``
    and annihilates the orthogonal complement of the slot space.
    """
    d = v.d
    flat = basic_operator_flat(l, coeff, d, space.m)
    coords = flat @ slot_coordinates(space, v).reshape(-1)
    return _slot_embed(space, coords.reshape(d, 1 + space.m))


def basic_operator_flat(l: int, coeff, d: int, m: int) -> np.ndarray:
    """The basic operator N^l restricted to system (x) slot space as a flat matrix.

    On the slot basis (vacuum, chi^1..chi^m) these are the block matrix units
    N^1_S = S (x) |O><O|, N^2_R = sum_i R_i* (x) |O><chi^i|,
    N^3_R = sum_i R_i (x) |chi^i><O|, N^4_T = sum_ij T_ij (x) |chi^i><chi^j|:
    the coefficient fills one part of a ``BlockOperator`` (its adjoint for
    kind 2), the others are zero.  This is the whole operator, since N^l
    vanishes on the slot-space complement.
    """
    coeff = _check_coeff(l, coeff, d, m)
    dm = d * m
    parts = [np.zeros((d, d)), np.zeros((d, dm)), np.zeros((dm, d)), np.zeros((dm, dm))]
    parts[l - 1] = dagger(coeff) if l == 2 else coeff
    return BlockOperator.from_parts(*parts).flat


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
    passed_raw: bool
    passed: bool


def check_lemma_normdiff(space: IntervalSpace, f: TestFunction, h: float,
                         start: float = 0.0) -> NormDiffResult:
    """Projection loss of one exponential vector against h (c_f + sup) ||e(f)||.

    lhs and ||e(f)|| come from the closed form ``slot_exp_data``; the slack
    adds the truncation tail and the grid quadrature allowance h c_f / G.
    """
    if abs(h - space.h) > 1e-12:
        raise ValueError("h must match the space's interval length")
    cells = f.cell_averages(start, start + h, space.G)
    tail = _checked_tail(space, cells)
    hat, q_sq = slot_exp_data(space, cells)
    lhs = float(np.sqrt(q_sq))
    c_f = f.slope_constant(start, start + h)
    sup = f.sup_norm(start, start + h)
    rhs = h * (c_f + sup) * float(np.sqrt(np.vdot(hat, hat).real + q_sq))
    slack = tail + h * c_f / space.G
    return NormDiffResult(lhs=lhs, rhs=rhs, slack=slack, tail=tail, passed=lhs <= rhs + slack)


def _lemma_rhs(space: IntervalSpace, l: int, mode: str, coeff, u, v, f: TestFunction,
               g: TestFunction | None, start: float, ef_norm: float, eg_norm: float) -> float:
    h = space.h
    sup_f = f.sup_norm(start, start + h)
    c_f = f.slope_constant(start, start + h)
    u_norm = float(np.linalg.norm(u))
    if l == 1:
        base = h**1.5 * float(np.linalg.norm(coeff @ u)) * sup_f * ef_norm
    elif l == 2:
        base = h**1.5 * op_norm(coeff) * u_norm * sup_f**2 * ef_norm
    elif l == 3:
        base = 2 * h * float(np.linalg.norm(coeff @ u)) * sup_f * ef_norm
    else:
        base = 2 * h * op_norm(coeff) * (c_f + sup_f**2) * u_norm * ef_norm
    if mode == "a":
        return base
    sup_g = g.sup_norm(start, start + h)
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
        h**2 * ((sup_f + c_f) * sup_g) ** 2 * op_norm(coeff)
        * u_norm * v_norm * ef_norm**2 * eg_norm**2
    )


def check_N_vs_Lambda(space: IntervalSpace, l: int, coeff, u, f: TestFunction,
                      g: TestFunction | None = None, v=None, mode: str = "a",
                      start: float = 0.0, safety: float = 4.0) -> LemmaResult:
    """One of the eight basic-vs-fundamental comparison estimates.

    Mode "a" compares ||(h^eps N^l - Lambda^l) u e(f)|| against the stated
    bound; mode "b" compares the magnitude of the matrix element against
    v e(g).  ``passed`` applies the safety factor on the right-hand side,
    ``passed_raw`` does not; both include the truncation/grid slack.

    u e(f) is rank one: each term M_a (x) A_a of Lambda^l maps it to
    (M_a u) (x) W_a, W_a = A_a e(f) (K <= m^2 one-column sparse matvecs).
    With C = [M_a u], W split into slot coordinates and Q = (1 - P_h) W, and
    P the slot image of scale N^l u e(f), the difference is the slot part
    A = P - C slot(W) plus the orthogonal part C Q: mode "a" is
    sqrt(||A||^2 + Re tr(C*C Q Q*)), mode "b" pairs both parts with v e(g).
    No (d, dim) array is built; the cost is O(K nnz + K^2 dim).
    """
    if mode not in ("a", "b"):
        raise ValueError("mode must be 'a' or 'b'")
    if mode == "b" and (g is None or v is None):
        raise ValueError("mode 'b' needs both v and g")
    u = np.asarray(u, dtype=complex).reshape(-1)
    d = len(u)
    coeff = _check_coeff(l, coeff, d, space.m)
    h = space.h
    ef, tail = _slot_exp_vector(space, f, start)
    ef_norm = ef.norm()
    scale = {1: h, 2: np.sqrt(h), 3: np.sqrt(h), 4: 1.0}[l]
    terms = _lambda_terms(space, l, coeff, d)
    C = np.column_stack([M @ u for M, _ in terms])
    Q = np.stack([op(ef.data[0]) for _, op in terms])
    W_slot = slot_coordinates(space, IntervalVector(space, Q))
    Q[:, 0] = 0.0  # (1 - P_h) W in place: drop the vacuum and the chi part of sector 1
    Q[:, space.sector(1)] -= W_slot[:, 1:] @ space.chi_coefficients()
    P = basic_operator_flat(l, coeff, d, space.m) @ np.kron(u, slot_coordinates(space, ef)[0])
    A = scale * P.reshape(d, 1 + space.m) - C @ W_slot

    coeff_scale = max(op_norm(coeff), 1.0) * max(float(np.linalg.norm(u)), 1.0)
    c_f = f.slope_constant(start, start + h)
    # 1e-12 absolute floor absorbs pure roundoff in exactly matching cases.
    slack = (tail + h * c_f / space.G + 1e-12) * coeff_scale
    eg_norm = 1.0
    if mode == "a":
        gram = (C.conj().T @ C) * (Q @ Q.conj().T).T
        lhs = np.sqrt(max(np.vdot(A, A).real + np.sum(gram).real, 0.0))
    else:
        eg, tail_g = _slot_exp_vector(space, g, start)
        eg_norm = eg.norm()
        v = np.asarray(v, dtype=complex).reshape(-1)
        # Q is orthogonal to the slot space, so <e(g), Q_a> = <(1 - P_h) e(g), Q_a>.
        slot = np.vdot(np.outer(v, slot_coordinates(space, eg)[0]), A)
        lhs = abs(slot - (v.conj() @ C) @ (Q @ eg.data[0].conj()))
        c_g = g.slope_constant(start, start + h)
        slack = (tail + tail_g + h * (c_f + c_g) / space.G + 1e-12) * coeff_scale * max(
            float(np.linalg.norm(v)), 1.0
        )
    rhs = _lemma_rhs(space, l, mode, coeff, u, v, f, g, start, ef_norm, eg_norm)
    return LemmaResult(
        kind=l,
        mode=mode,
        lhs=float(lhs),
        rhs=float(rhs),
        slack=float(slack),
        passed_raw=bool(lhs <= rhs + slack),
        passed=bool(lhs <= safety * rhs + slack),
    )
