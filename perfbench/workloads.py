"""Workloads of the qrw benchmark: seeded inputs, one study each, and its gate.

A *study* is what a user of qrw runs to check the paper's claim.  The
convergence study compares the streaming walk on a ladder of step sizes with
the weak-ODE oracle and fits the error order; the lemma study runs the
step-defect and basic-vs-fundamental checks on a truncated interval Fock
space.  Each study ends in a correctness gate, and a study that fails the
gate, or raises, counts as failed.

The benchmark generates R, x, u, v, f and g itself from the seed and hands
only those inputs to qrw.  qrw functions are called through their module
attributes (``walk.walk_matrix_element``, not an imported name) so that the
tracer in ``tracing.py`` can wrap them where callers look them up.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from qrw import fock, oracle, walk
from qrw.fock import IntervalSpace
from qrw.functions import TestFunction
from qrw.model import GkslModel, random_model

T = 1.0  # every study runs to time t = 1
LADDER = tuple(16 * 2**k for k in range(9))  # n = 16 ... 4096, 8,176 slots
ORDER_RANGE = (0.9, 1.1)
RESIDUAL_TOL = 1e-12  # F-term decomposition identity, measured at ~1e-16
# f and g of the convergence studies: four breakpoints and channel values of
# size ~0.25, so the ladder starts in the asymptotic regime.  Over 40 seeds of
# study-small and 8 of study-large the fitted order stayed within 0.97-1.03;
# with values of size ~1 and six breakpoints, n = 16 is pre-asymptotic and the
# fitted order ranged over 0.8-1.2.
KNOTS = 4
AMPLITUDE = 0.25
# f and g of the lemma study are scaled to this sup norm, which keeps the
# exponential-vector truncation tail below qrw's 1e-8 limit at cutoff N on
# every slot, so no check raises TruncationError and projection_deficiency
# never escalates the cutoff.
LEMMA_SUP = 0.5


@dataclass(frozen=True, eq=False)
class Inputs:
    """Everything a study hands to qrw; built from the seed alone."""

    model: GkslModel
    x: np.ndarray
    u: np.ndarray
    v: np.ndarray
    f: TestFunction
    g: TestFunction
    coeffs: dict | None = None  # kind -> coefficient, lemma study only


@dataclass(frozen=True)
class Outcome:
    ok: bool
    facts: dict


def _unit_vector(rng, k: int) -> np.ndarray:
    z = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return z / np.linalg.norm(z)


def _unit_matrix(rng, shape) -> np.ndarray:
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return z / np.linalg.norm(z, 2)


def _piecewise_linear(rng, m: int, start: float, end: float, vacuum_ends: bool) -> TestFunction:
    bp = np.concatenate([[start], np.sort(rng.uniform(start, end, KNOTS - 2)), [end]])
    vals = (rng.standard_normal((KNOTS, m)) + 1j * rng.standard_normal((KNOTS, m))) / np.sqrt(2 * m)
    if vacuum_ends:
        vals[[0, -1]] = 0.0
    return TestFunction(bp, vals)


def _scaled(fn: TestFunction, factor: float) -> TestFunction:
    return TestFunction(fn.breakpoints, factor * fn.values)


@dataclass(frozen=True)
class ConvergenceStudy:
    """Walk on the ladder against one oracle value, with the fitted order."""

    d: int
    m: int
    support: tuple[float, float]
    ladder: tuple[int, ...] = LADDER

    def inputs(self, seed: int) -> Inputs:
        rng = np.random.default_rng(seed)
        model = random_model(rng, self.d, self.m, 1.0)
        x = _unit_matrix(rng, (self.d, self.d))
        u, v = _unit_vector(rng, self.d), _unit_vector(rng, self.d)
        # Zero values at the ends of a proper sub-interval leave the slots
        # outside it as vacuum slots.
        vacuum_ends = self.support != (0.0, T)
        f, g = (
            _scaled(_piecewise_linear(rng, self.m, *self.support, vacuum_ends), AMPLITUDE)
            for _ in range(2)
        )
        return Inputs(model, x, u, v, f, g)

    def warm(self, inp: Inputs) -> None:
        walk.walk_matrix_element(inp.model, inp.x, inp.u, inp.v, inp.f, inp.g, T / 2, 2)
        oracle.flow_matrix_element_fixed(inp.model, inp.x, inp.u, inp.v, inp.f, inp.g, T, 4)

    def study(self, inp: Inputs) -> Outcome:
        args = (inp.model, inp.x, inp.u, inp.v, inp.f, inp.g)
        flow = oracle.flow_matrix_element(*args, T)
        errs = np.array([abs(walk.walk_matrix_element(*args, T / n, n) - flow) for n in self.ladder])
        facts = {"err_rel": float(errs[-1] / abs(flow)), "errs": errs.tolist()}
        if not (np.all(np.isfinite(errs)) and np.all(errs > 0)):
            return Outcome(False, facts)
        order = float(-np.polyfit(np.log(self.ladder), np.log(errs), 1)[0])
        facts["order"] = order
        ok = ORDER_RANGE[0] <= order <= ORDER_RANGE[1] and bool(np.all(np.diff(errs) < 0))
        return Outcome(ok, facts)


@dataclass(frozen=True)
class LemmaStudy:
    """The Fock-space lemma checks at each h, plus the F term at a small grid."""

    d: int
    m: int
    G: int
    N: int
    hs: tuple[float, ...]
    fterm_G: int
    fterm_N: int

    def inputs(self, seed: int) -> Inputs:
        rng = np.random.default_rng(seed)
        d, m = self.d, self.m
        model = random_model(rng, d, m, 1.0)
        x = _unit_matrix(rng, (d, d))
        u, v = _unit_vector(rng, d), _unit_vector(rng, d)
        f, g = (_piecewise_linear(rng, m, 0.0, T, False) for _ in range(2))
        f, g = (_scaled(fn, LEMMA_SUP / fn.sup_norm()) for fn in (f, g))
        shapes = {1: (d, d), 2: (d * m, d), 3: (d * m, d), 4: (d * m, d * m)}
        coeffs = {kind: _unit_matrix(rng, shape) for kind, shape in shapes.items()}
        return Inputs(model, x, u, v, f, g, coeffs)

    def warm(self, inp: Inputs) -> None:
        IntervalSpace(self.m, self.G, self.N, self.hs[0]).ops
        IntervalSpace(self.m, self.fterm_G, self.fterm_N, self.hs[0]).ops

    def study(self, inp: Inputs) -> Outcome:
        passed, deficiency, residual = [], [], 0.0
        for h in self.hs:
            space = IntervalSpace(self.m, self.G, self.N, h)
            n = round(T / h)
            for k in range(n):
                passed.append(fock.check_lemma_normdiff(space, inp.f, h, start=k * h).passed)
            for kind, coeff in inp.coeffs.items():
                for mode in "ab":
                    res = fock.check_N_vs_Lambda(space, kind, coeff, inp.u, inp.f, g=inp.g,
                                                 v=inp.v, mode=mode, start=(n // 2) * h)
                    passed.append(res.passed)
            deficiency.append(fock.projection_deficiency(inp.f, T, h, self.m, self.G, self.N))
            fterm = walk.f_term_norm(inp.model, inp.x, inp.u, inp.f, h, 2,
                                     G=self.fterm_G, N=self.fterm_N)
            passed.append(fterm.passed)
            residual = max(residual, fterm.decomposition_residual)
        # ||(1 - P_h) e(f)|| must shrink as h does.
        shrinking = all(a > b for a, b in zip(deficiency, deficiency[1:]))
        ok = all(passed) and residual <= RESIDUAL_TOL and shrinking
        facts = {"checks": len(passed), "fterm_residual": residual, "deficiency": deficiency}
        return Outcome(ok, facts)


WORKLOADS = {
    "study-small": ConvergenceStudy(d=4, m=2, support=(0.1, 0.6)),
    "study-large": ConvergenceStudy(d=16, m=3, support=(0.0, 1.0)),
    "lemmas": LemmaStudy(d=3, m=2, G=8, N=6, hs=(1 / 4, 1 / 8, 1 / 16), fterm_G=4, fterm_N=4),
    # Tiny configurations for the benchmark's own tests.
    "smoke-study": ConvergenceStudy(d=2, m=1, support=(0.1, 0.6), ladder=(16, 32, 64)),
    "smoke-lemmas": LemmaStudy(d=2, m=1, G=2, N=5, hs=(1 / 4, 1 / 8), fterm_G=2, fterm_N=4),
}


def corrupted(inp: Inputs, amount: float) -> Inputs:
    """The same inputs with beta(h) perturbed by ``amount`` (negative control)."""
    model = GkslModel(d=inp.model.d, m=inp.model.m, R=inp.model.R, beta_corruption=amount)
    return replace(inp, model=model)
