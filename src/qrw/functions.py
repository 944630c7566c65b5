"""Piecewise-linear, compactly supported test functions with noise-channel values.

A ``TestFunction`` is the function class every walk quantity is evaluated on:
continuous piecewise-linear between its breakpoints, identically zero outside
them.  The class is closed under restriction to partition intervals, and all
derived quantities the estimates need (sup norm, total slope constant, slot
and cell averages, L2 norms) are exact for it.

A function builds its read-only segment tables once, at construction: the
slope and the cumulative integral of each segment.  ``antiderivative`` (and so
``cell_averages`` and ``slot_averages``) reads them for every whole segment,
and evaluates f only at the times asked for.  ``constants`` (sup|f| and c_f,
of which ``sup_norm`` returns the first) and ``pair_overlap_integral`` read f
on one breakpoint-refined grid (``_nodes``), the whole support by default.

Queries run on a handful of times, where numpy's Python-level wrappers cost
more than the arithmetic.  So they read the tables at a clamped segment index
by ``take`` gathers, with no boolean compress or scatter: f is evaluated at
every time and zeroed outside its support after.  ``np.clip``, ``np.diff``,
``np.linspace`` and ``np.linalg.norm`` are written out as the ufunc calls
numpy itself makes, so every result keeps the bytes of the wrapped forms.

Merged node lists are sorted and stripped of repeats by ``_sorted_distinct``
rather than ``np.unique``: numpy 2.4 imports ``numpy.ma`` on the first
``np.unique`` call, about 30 ms of every cold start, for no gain on a handful
of floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["SlotAverages", "TestFunction", "slot_averages"]


def _sorted_distinct(x: np.ndarray) -> np.ndarray:
    """The distinct entries of a 1-D array in ascending order (empty stays empty)."""
    x = np.sort(x)
    keep = np.empty(len(x), dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


@dataclass(frozen=True, eq=False)
class TestFunction:
    """Piecewise-linear function of time with values in C^channels.

    ``breakpoints`` is finite and strictly ascending; ``values[k]`` is the
    value at ``breakpoints[k]`` (one complex entry per channel).  Outside the
    breakpoint range the function is zero.  Both arrays are read-only copies
    of the inputs, so a function never changes after it is built, and neither
    do the tables derived from them: ``slopes[k]`` and ``integrals[k]`` are
    the slope of segment k and the integral of f up to ``breakpoints[k]``.
    """

    breakpoints: np.ndarray
    values: np.ndarray
    channels: int = field(init=False)
    slopes: np.ndarray = field(init=False, repr=False)
    integrals: np.ndarray = field(init=False, repr=False)

    __test__ = False  # keep pytest from collecting the class by name

    def __post_init__(self):
        bp = np.array(self.breakpoints, dtype=float)
        vals = np.array(self.values, dtype=complex)
        if bp.ndim != 1 or len(bp) < 2:
            raise ValueError("need at least two breakpoints")
        if not np.isfinite(bp).all():
            raise ValueError("non-finite breakpoints")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly ascending")
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.shape[0] != len(bp):
            raise ValueError("one value row per breakpoint required")
        if not np.isfinite(vals).all():
            raise ValueError("non-finite values")
        steps = np.diff(bp)[:, None]
        trapezoids = 0.5 * steps * (vals[:-1] + vals[1:])
        tables = {
            "breakpoints": bp,
            "values": vals,
            "slopes": (vals[1:] - vals[:-1]) / steps,
            "integrals": np.concatenate([np.zeros((1, vals.shape[1]), dtype=complex),
                                         np.cumsum(trapezoids[:-1], axis=0)]),
        }
        for name, table in tables.items():
            table.setflags(write=False)
            object.__setattr__(self, name, table)
        object.__setattr__(self, "channels", vals.shape[1])

    @classmethod
    def zero(cls, channels: int = 1) -> "TestFunction":
        return cls(np.array([0.0, 1.0]), np.zeros((2, channels)))

    @classmethod
    def constant(cls, value, start: float, end: float) -> "TestFunction":
        value = np.atleast_1d(np.asarray(value, dtype=complex))
        return cls(np.array([start, end]), np.vstack([value, value]))

    # -- evaluation ---------------------------------------------------------
    def __call__(self, t) -> np.ndarray:
        """Evaluate at scalar or array times; shape (..., channels)."""
        t = np.asarray(t, dtype=float)
        bp, vals = self.breakpoints, self.values
        inside = (t >= bp[0]) & (t <= bp[-1])
        # Times outside the support (and NaN) are read at its start, then zeroed.
        t = np.where(inside, t, bp[0])
        idx = np.minimum(bp.searchsorted(t, "right") - 1, len(bp) - 2)
        t0 = bp.take(idx)
        w = ((t - t0) / (bp.take(idx + 1) - t0))[..., None]
        out = (1 - w) * vals.take(idx, axis=0) + w * vals.take(idx + 1, axis=0)
        out[~inside] = 0.0
        return out

    def antiderivative(self, t) -> np.ndarray:
        """Exact integral of f from -inf to t, shape (..., channels): ``integrals``
        up to the breakpoint t_k below t plus the quadratic in t - t_k."""
        bp = self.breakpoints
        t = np.minimum(np.maximum(np.asarray(t, dtype=float), bp[0]), bp[-1])
        idx = np.minimum(bp.searchsorted(t, "right") - 1, len(bp) - 2)
        s = (t - bp.take(idx))[..., None]
        return (self.integrals.take(idx, axis=0) + s * self.values.take(idx, axis=0)
                + 0.5 * s**2 * self.slopes.take(idx, axis=0))

    def cell_averages(self, t0: float, t1: float, cells: int) -> np.ndarray:
        """Exact averages over ``cells`` equal subintervals of [t0, t1]; (cells, channels)."""
        edges = t0 + np.arange(cells + 1) * ((t1 - t0) / cells)
        edges[-1] = t1
        F = self.antiderivative(edges)
        return (F[1:] - F[:-1]) / ((t1 - t0) / cells)

    def l2_norm_sq(self, t0: float, t1: float) -> float:
        """Exact integral of the squared channel norm over [t0, t1]."""
        return self.pair_overlap_integral(self, t0, t1).real

    # -- derived constants ----------------------------------------------------
    def _nodes(self, t0: float | None = None, t1: float | None = None) -> np.ndarray:
        """The breakpoint-refined grid on [t0, t1], the support by default: t0, t1
        and the breakpoints strictly between them, on which f is exactly ``values``."""
        bp = self.breakpoints
        if t0 is None:
            t0, t1 = bp[0], bp[-1]
        return _sorted_distinct(np.concatenate([[t0], bp[(bp > t0) & (bp < t1)], [t1]]))

    def constants(self, t0: float | None = None, t1: float | None = None) -> tuple[float, float]:
        """(sup|f|, c_f) over [t0, t1] if given, from one breakpoint-refined grid.

        sup|f| is the max over s of the channel l2 norm: the norm of a linear
        interpolant is convex, so it sits on a node.  c_f is the sum over
        channels of the largest |slope|, the slopes being the finite
        differences of f on the grid; a single point (t0 = t1) has none, and
        c_f = 0.
        """
        nodes = self._nodes(t0, t1)
        vals = self(nodes)
        slopes = np.abs((vals[1:] - vals[:-1]) / (nodes[1:] - nodes[:-1])[:, None])
        norms = np.sqrt(np.add.reduce((vals.conj() * vals).real, axis=-1))
        return float(norms.max()), float(np.add.reduce(slopes.max(axis=0, initial=0.0)))

    def sup_norm(self, t0: float | None = None, t1: float | None = None) -> float:
        """sup|f|, over [t0, t1] if given: the first of ``constants``."""
        return self.constants(t0, t1)[0]

    def pair_overlap_integral(self, other: "TestFunction", t0: float, t1: float) -> complex:
        """integral of <self(s), other(s)> over [t0, t1].

        Simpson on the merged breakpoint grid of [t0, t1] cut to both supports
        is exact: the integrand is piecewise quadratic there and 0 elsewhere,
        so a jump at a support end is never read across it; 0 if the cut is
        empty.  Each function is read once, on the nodes and the midpoints.
        """
        t0 = max(t0, self.breakpoints[0], other.breakpoints[0])
        t1 = min(t1, self.breakpoints[-1], other.breakpoints[-1])
        if t0 > t1:
            return 0j
        nodes = self._nodes(t0, t1)
        if other is not self:
            nodes = _sorted_distinct(np.concatenate([nodes, other._nodes(t0, t1)]))
        k = len(nodes)
        ts = np.concatenate([nodes, 0.5 * (nodes[:-1] + nodes[1:])])
        vals = self(ts)
        pair = np.sum(np.conj(vals) * (vals if other is self else other(ts)), axis=-1)
        return complex(
            np.sum((nodes[1:] - nodes[:-1]) / 6.0 * (pair[:k - 1] + 4 * pair[k:] + pair[1:k]))
        )


@dataclass(frozen=True, eq=False)
class SlotAverages:
    """Per-slot scaled averages F[k][i] = h^{-1/2} integral of f_i over slot k."""

    n: int
    F: np.ndarray  # (n, channels) complex

    def hatted(self, k) -> np.ndarray:
        """The slot-k coefficient vector (1, F[k]); one row per slot for a slice k."""
        F = self.F[k]
        return np.concatenate([np.ones(F.shape[:-1] + (1,), dtype=complex), F], axis=-1)


def slot_averages(f: TestFunction, h: float, n: int) -> SlotAverages:
    """Exact slot averages of ``f`` over n consecutive intervals of length h."""
    if not (np.isfinite(h) and h > 0) or n < 1:
        raise ValueError(f"need a finite h > 0 and n >= 1, got h = {h}, n = {n}")
    F = np.diff(f.antiderivative(h * np.arange(n + 1)), axis=0) / np.sqrt(h)
    return SlotAverages(n=n, F=F)
