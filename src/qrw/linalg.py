"""Dense complex linear-algebra kernels shared by every other module.

Conventions fixed here and used everywhere else:

* matrices are 2-d ``numpy.ndarray`` of ``complex128``, row-major;
* tensor products are ``numpy.kron``, left-factor-major: the index pair
  ``(p, q)`` of ``a (x) b`` flattens to ``p * b.rows + q``;
* an operator between C^d (x) C^J' and C^d (x) C^J is a (J, J', d, d) block
  array, and ``flat`` is its one conversion to the (d J, d J') matrix, system
  index slow: flat[a J + j, b J' + j'] = blocks[j, j', a, b].  ``unflat`` is
  its inverse;
* the J terms of a map Y -> sum_j L_j Y R_j on d x d matrices are its sandwich
  factors: right (d, J d) = [R_0 | ... | R_{J-1}] side by side, and left
  (d, d J) with column c J + j holding L_j[:, c].  So Y R is the (d J, d)
  stack of the Y R_j interleaved by row, and left contracts it in one more
  product.  Leading axes of either are a batch, one map per row of hats;
* the stepping engine (``step_maps``) forms its maps a chunk of rows at a
  time, as many rows as fit in ``CHUNK_BYTES``, into one buffer that it
  reuses; a complex product that forms them is one real GEMM (``real_form``).
"""

from __future__ import annotations

from functools import cache, partial

import numpy as np

__all__ = [
    "CHUNK_BYTES",
    "apply_table",
    "as_matrix",
    "as_vector",
    "dagger",
    "flat",
    "op_norm",
    "pick_engine",
    "power_runs",
    "real_form",
    "sandwich",
    "superoperator",
    "transfer_matrices",
    "unflat",
    "unit_table",
]

# Bytes of the maps that one chunk of the stepping engine forms at once: the
# rows of a chunk (walk slots or RK4 points) are as many as fit, so a chunk
# stays in a 2 MB L2 cache whatever d, m, n or the step count.
CHUNK_BYTES = 2**19

# Multiply-adds that one numpy call costs beyond its arithmetic.  At d <= 4 the
# per-call overhead, not the arithmetic, sets what a slot or an RK4 rate costs.
# Fitted on one BLAS thread from a walk slot and an RK4 step timed in both
# forms at d = 5 to 7, m = 2: the fits ran from 11,400 to 30,200, median 13,800.
_CALL = 14000


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


def flat(blocks: np.ndarray) -> np.ndarray:
    """The (d J, d J') matrix of a (J, J', d, d) block array, system index slow."""
    J, Jp, d, _ = blocks.shape
    return blocks.transpose(2, 0, 3, 1).reshape(d * J, d * Jp)


def unflat(a: np.ndarray, d: int) -> np.ndarray:
    """The (J, J', d, d) blocks of a (d J, d J') matrix: the inverse of ``flat``."""
    rows, cols = a.shape
    return a.reshape(d, rows // d, d, cols // d).transpose(1, 3, 0, 2)


def sandwich(left: np.ndarray, y: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum_j L_j y R_j in two plain products: y R, then left times its (d J, d) stack.

    In the factor layout, right (d, J d) is [R_0 | ... | R_{J-1}] and left
    (d, d J) holds L_j[:, c] in its column c J + j.
    """
    return left.dot(y.dot(right).reshape(-1, y.shape[-1]))


def superoperator(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The d^2 x d^2 matrix of y -> sandwich(left, y, right) on row-major vec(y).

    Entry ((a, b), (c, e)) is sum_j L_j[a, c] R_j[e, b], i.e. sum_j L_j (x) R_j^T.
    Leading axes of ``left`` (..., d, d J) and ``right`` (..., d, J d) are a batch.
    """
    d = left.shape[-2]
    L = left.reshape(left.shape[:-2] + (d * d, -1))  # [(a, c), j]
    R = np.swapaxes(right.reshape(right.shape[:-2] + (d, -1, d)), -3, -2)  # [j, e, b]
    out = (L @ R.reshape(R.shape[:-3] + (-1, d * d))).reshape(left.shape[:-2] + (d,) * 4)
    return np.moveaxis(out, -1, -3).reshape(left.shape[:-2] + (d * d, d * d))


def unit_table(factors, hats: int) -> np.ndarray:
    """The (hats, hats, d^2, d^2) ``superoperator`` of a factor family at the unit hats.

    ``factors(ghat, fhat) -> (left, right)`` gives the sandwich factors of one
    map per row of the hats, bilinear in (conj ghat, fhat).  Block (j, j') is
    the map at (e_j, e_j'), and block (0, 0) the vacuum map; the map at any
    hats is their ``transfer_matrices`` contraction.
    """
    units = np.eye(hats)
    table = superoperator(*factors(units.repeat(hats, axis=0), np.tile(units, (hats, 1))))
    return table.reshape((hats, hats) + table.shape[1:])


def vacuum_superoperator(factors, hats: int) -> np.ndarray:
    """Block (0, 0) of ``unit_table`` alone: the ``superoperator`` of the family at (e_0, e_0)."""
    e0 = np.eye(1, hats)
    return superoperator(*factors(e0, e0))[0]


def apply_table(table: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Every (..., d^2, d^2) block of ``table`` applied to every ys (..., d, d) in one matmul.

    Returns ys.shape[:-2] + table.shape[:-2] + (d, d).
    """
    d = ys.shape[-1]
    out = ys.reshape(-1, d * d) @ table.reshape(-1, d * d).T
    return out.reshape(ys.shape[:-2] + table.shape[:-2] + (d, d))


def real_form(table: np.ndarray) -> np.ndarray:
    """The real (2K, 2W) form of a complex (K, W) table, a contiguous array.

    For complex rows z (P, K), z.view(float) @ real_form(table) is
    (z @ table).view(float): block (k, w) is [[Re t, Im t], [-Im t, Re t]].
    """
    out = np.empty(table.shape[:1] + (2,) + table.shape[1:] + (2,))
    out[:, 0, :, 0] = out[:, 1, :, 1] = table.real
    out[:, 0, :, 1] = table.imag
    out[:, 1, :, 0] = -table.imag
    return out.reshape(2 * len(table), -1)


def transfer_matrices(table: np.ndarray, ghat: np.ndarray, fhat: np.ndarray,
                      out: np.ndarray) -> np.ndarray:
    """sum_{j j'} conj(ghat_j) fhat_j' T[j, j'] for each row of the (P, hats) hats, in ``out``.

    T is the ``unit_table`` of a map bilinear in (conj ghat, fhat), and
    ``table`` the ``real_form`` of its (hats^2, d^4) matrix.  The P maps cost
    one real GEMM, written into the complex (>= P, d^2, d^2) buffer ``out``;
    returns out[:P].
    """
    P = len(ghat)
    pairs = np.multiply(np.conj(ghat)[:, :, None], fhat[:, None, :], dtype=complex)
    np.matmul(pairs.reshape(P, -1).view(float), table, out=out[:P].reshape(P, -1).view(float))
    return out[:P]


def _cost(madds: float, calls: float) -> float:
    """The cost behind every choice of engine: multiply-adds plus ``_CALL`` per numpy call."""
    return madds + _CALL * calls


def pick_engine(d: int, terms: int, hats: int, points: int, applies: int) -> tuple[bool, int, int]:
    """Sandwich factors or transfer matrices for the steps of maps on d x d matrices.

    A step forms its maps at ``points`` pairs of hats of length ``hats`` and
    applies them ``applies`` times; one map is ``terms`` sandwich terms.  By
    ``sandwich`` an application is 2 calls and 2 terms d^3 multiply-adds.  By
    transfer matrices it is one d^2 x d^2 matrix-vector call of d^4, and a
    point is its row of the ``transfer_matrices`` product, hats^2 d^4; the
    table, built once per run, is left out.  Returns whether a step costs less
    by transfer matrices, and the multiply-adds and calls of a step of the
    engine chosen.
    """
    sandwich_step = (2 * applies * terms * d**3, 2 * applies)
    transfer_step = ((points * hats**2 + applies) * d**4, applies)
    transfer = _cost(*transfer_step) < _cost(*sandwich_step)
    return (transfer, *(transfer_step if transfer else sandwich_step))


def step_maps(factors, hats: int, points: int, applies: int):
    """The stepping engine of the walk and the oracle: maps on Y bilinear in two hats.

    ``factors(ghat, fhat, out=None) -> (left, right)`` gives, per row of the
    (P, hats) hats, the sandwich factors of one map Y -> sum_t L_t Y R_t on
    d x d matrices, in the factor layout, L_t conj-linear in ghat and R_t
    linear in fhat; d and the term count are read from the factors at the
    vacuum pair (e_0, e_0).  Such a map has two forms: its sandwich factors,
    two plain products on the d x d state Y, and one d^2 x d^2 transfer
    matrix, one product on row-major vec(Y), the contraction by
    ``transfer_matrices`` of its ``unit_table``.

    A step forms its maps at ``points`` pairs of hats and applies them
    ``applies`` times; ``pick_engine`` takes the form whose step costs less.
    Returns ``maps(ghat, fhat)``, one applier y -> (map of the row at y) per
    row, with the state of the form chosen in ``shape``, (d, d) or (d^2,);
    ``vacuum()``, the ``vacuum_superoperator`` of the family, built at its
    first call in either form; the (multiply-adds, calls) of one step;
    ``shape``; and ``rows``, the rows of hats per call of ``maps`` whose maps,
    2 terms d^2 or d^4 complex entries a row, fit in ``CHUNK_BYTES`` (at
    least one).

    The engine owns one buffer, grown to the most rows asked for so far, and
    forms every call's maps in it: the transfer matrices, or the factors,
    which a family may write into its (2, P, d, terms d) ``out`` (left, then
    right).  So each result must be used up before the next call.  A call of
    one row forms it as two equal rows: numpy takes a one-row product by
    gemv, which rounds otherwise than the gemm of a longer chunk, so a row's
    maps do not depend on its chunk.
    """
    e0 = np.eye(1, hats)
    d, width = factors(e0, e0)[1].shape[1:]  # right is (1, d, terms d)
    transfer, madds, calls = pick_engine(d, width // d, hats, points, applies)
    step = (madds, calls)
    vacuum = cache(lambda: vacuum_superoperator(factors, hats))
    parts, row = (1, (d * d, d * d)) if transfer else (2, (d, width))
    rows = max(1, CHUNK_BYTES // (16 * parts * row[0] * row[1]))
    buffer = np.empty((parts, 0) + row, dtype=complex)
    if transfer:
        table = real_form(unit_table(factors, hats).reshape(hats * hats, -1))

        def form(ghat: np.ndarray, fhat: np.ndarray, out: np.ndarray):
            return [T.dot for T in transfer_matrices(table, ghat, fhat, out[0])]
    else:

        def form(ghat: np.ndarray, fhat: np.ndarray, out: np.ndarray):
            return [partial(sandwich, L, right=R) for L, R in zip(*factors(ghat, fhat, out))]

    def maps(ghat: np.ndarray, fhat: np.ndarray):
        nonlocal buffer
        P = len(ghat)
        if P == 1:
            ghat, fhat = np.repeat(ghat, 2, axis=0), np.repeat(fhat, 2, axis=0)
        if len(ghat) > buffer.shape[1]:
            buffer = np.empty((parts, len(ghat)) + row, dtype=complex)
        return form(ghat, fhat, buffer[:, :len(ghat)])[:P]

    return maps, vacuum, step, (d * d,) if transfer else (d, d), rows


def _power_pays(d: int, r: int, step: tuple[float, float], setup: int = 0) -> bool:
    """Whether S^r for a d^2 x d^2 S costs less by ``_cost`` than r steps.

    A step takes ``step`` = (multiply-adds, numpy calls).
    ``np.linalg.matrix_power`` takes at most 2 bit_length(r) products of d^6
    multiply-adds, building S takes ``setup`` more, and each product and the
    final matrix-vector product is one call.
    """
    products = setup + 2 * r.bit_length()
    madds, calls = step
    return _cost(d**6 * products, products + 1) < _cost(r * madds, r * calls)


def power_runs(vacuum, d: int, step: tuple[float, float]) -> list[tuple[int, int]]:
    """The runs of steps worth taking as one power of a d^2 x d^2 matrix.

    ``vacuum`` has one entry per step, true where the step applies the one
    map that the power raises.  Returns (start, stop) of each maximal run of
    true entries whose r steps of ``step`` = (multiply-adds, calls) each cost
    more than the power.
    """
    edges = np.flatnonzero(np.diff(np.concatenate([[False], vacuum, [False]])))
    return [(a, b) for a, b in zip(edges[0::2].tolist(), edges[1::2].tolist())
            if _power_pays(d, b - a, step)]


def op_norm(a) -> float:
    """Operator (spectral) norm: the largest singular value."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))
