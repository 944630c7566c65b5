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
    keep = np.ones(len(x), dtype=bool)
    keep[1:] = x[1:] != x[:-1]
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
        out = np.zeros(t.shape + (self.channels,), dtype=complex)
        bp, vals = self.breakpoints, self.values
        inside = (t >= bp[0]) & (t <= bp[-1])
        if np.any(inside):
            ti = t[inside]
            idx = np.clip(np.searchsorted(bp, ti, side="right") - 1, 0, len(bp) - 2)
            t0, t1 = bp[idx], bp[idx + 1]
            w = ((ti - t0) / (t1 - t0))[..., None]
            out[inside] = (1 - w) * vals[idx] + w * vals[idx + 1]
        return out

    def antiderivative(self, t) -> np.ndarray:
        """Exact integral of f from -inf to t, shape (..., channels): ``integrals``
        up to the breakpoint t_k below t plus the quadratic in t - t_k."""
        bp = self.breakpoints
        t = np.clip(np.asarray(t, dtype=float), bp[0], bp[-1])
        idx = np.clip(np.searchsorted(bp, t, side="right") - 1, 0, len(bp) - 2)
        s = (t - bp[idx])[..., None]
        return self.integrals[idx] + s * self.values[idx] + 0.5 * s**2 * self.slopes[idx]

    def cell_averages(self, t0: float, t1: float, cells: int) -> np.ndarray:
        """Exact averages over ``cells`` equal subintervals of [t0, t1]; (cells, channels)."""
        edges = np.linspace(t0, t1, cells + 1)
        return np.diff(self.antiderivative(edges), axis=0) / ((t1 - t0) / cells)

    def l2_norm_sq(self, t0: float, t1: float) -> float:
        """Exact integral of the squared channel norm over [t0, t1]."""
        return self.pair_overlap_integral(self, t0, t1).real

    # -- derived constants ----------------------------------------------------
    def _nodes(self, t0: float | None = None, t1: float | None = None):
        """The breakpoint-refined grid on [t0, t1] (the support by default) and f on it.

        The grid holds t0, t1 and the breakpoints strictly between them; f is
        exactly ``values`` on the breakpoints, its support ends included.
        """
        bp = self.breakpoints
        if t0 is None:
            t0, t1 = bp[0], bp[-1]
        nodes = _sorted_distinct(np.concatenate([[t0], bp[(bp > t0) & (bp < t1)], [t1]]))
        return nodes, self(nodes)

    def constants(self, t0: float | None = None, t1: float | None = None) -> tuple[float, float]:
        """(sup|f|, c_f) over [t0, t1] if given, from one breakpoint-refined grid.

        sup|f| is the max over s of the channel l2 norm: the norm of a linear
        interpolant is convex, so it sits on a node.  c_f is the sum over
        channels of the largest |slope|, the slopes being the finite
        differences of f on the grid; a single point (t0 = t1) has none, and
        c_f = 0.
        """
        nodes, vals = self._nodes(t0, t1)
        slopes = np.abs(np.diff(vals, axis=0) / np.diff(nodes)[:, None])
        return (float(np.max(np.linalg.norm(vals, axis=-1))),
                float(np.sum(np.max(slopes, axis=0, initial=0.0))))

    def sup_norm(self, t0: float | None = None, t1: float | None = None) -> float:
        """sup|f|, over [t0, t1] if given: the first of ``constants``."""
        return self.constants(t0, t1)[0]

    def pair_overlap_integral(self, other: "TestFunction", t0: float, t1: float) -> complex:
        """integral of <self(s), other(s)> over [t0, t1].

        The integrand is piecewise quadratic; Simpson on the merged breakpoint
        grid is exact.
        """
        nodes = _sorted_distinct(np.concatenate([self._nodes(t0, t1)[0], other._nodes(t0, t1)[0]]))
        mids = 0.5 * (nodes[:-1] + nodes[1:])
        pair = lambda t: np.sum(np.conj(self(t)) * other(t), axis=-1)  # noqa: E731
        return complex(
            np.sum(np.diff(nodes) / 6.0 * (pair(nodes[:-1]) + 4 * pair(mids) + pair(nodes[1:])))
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
