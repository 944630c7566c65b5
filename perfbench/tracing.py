"""Spans around calls into the qrw layers, and the per-layer metrics they give.

The tracer wraps qrw functions where their callers look them up (module
attributes, the ``StepKernel.build`` classmethod, the ``IntervalSpace.ops``
property) and restores them on exit, so qrw itself carries no tracing code.
Spans are kept in memory as (name, start, end, parent, study id) and written
out once at the end of a run.  A layer's self time is its span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from qrw import fock, model, oracle, walk

# Name of the span the harness opens around one whole study.
STUDY = "study"


@dataclass
class Span:
    index: int
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    study: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _argument(fn, name: str):
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments[name]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.study: int | None = None
        self._stack: list[int] = []
        self._zero_slots: dict[int, np.ndarray] = {}

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else -1
        rec = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.study, attrs)
        self._stack.append(rec.index)
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if note is not None:
                    note(rec, args, kwargs, out)
                return out

        return traced

    # -- notes: counts recorded where the work happens ----------------------
    def _note_slot_averages(self, rec, args, kwargs, out):
        rec.attrs["slots"] = out.n
        # Only the walk's own slot averages decide its vacuum slots; f_term_norm
        # and walk_dense_state (lemmas) call slot_averages too.
        if rec.parent >= 0 and self.spans[rec.parent].name == "walk.walk_matrix_element":
            self._zero_slots[rec.index] = ~np.any(out.F != 0, axis=1)

    def _note_walk(self, n_of):
        def note(rec, args, kwargs, out):
            masks = [self._zero_slots.pop(i) for i in list(self._zero_slots)
                     if self.spans[i].parent == rec.index]
            rec.attrs["slots"] = int(n_of(args, kwargs))
            # A vacuum slot is one where both f and g average to zero.
            rec.attrs["vacuum"] = int(np.logical_and.reduce(masks).sum()) if masks else 0
        return note

    def _note_pass(self, steps_of):
        def note(rec, args, kwargs, out):
            rec.attrs["steps"] = int(steps_of(args, kwargs))
            rec.attrs["value"] = [out.real, out.imag]
        return note

    @contextmanager
    def installed(self):
        """Wrap the qrw entry points for the duration of the block."""
        functions = [
            (walk, "walk_matrix_element", "walk.walk_matrix_element",
             self._note_walk(_argument(walk.walk_matrix_element, "n"))),
            (walk, "slot_averages", "functions.slot_averages", self._note_slot_averages),
            (walk, "f_term_norm", "walk.f_term_norm", None),
            (walk, "exp_vector", "fock.exp_vector", None),
            (oracle, "flow_matrix_element", "oracle.flow_matrix_element", None),
            (oracle, "flow_matrix_element_fixed", "oracle.flow_matrix_element_fixed",
             self._note_pass(_argument(oracle.flow_matrix_element_fixed, "steps"))),
            (fock, "exp_vector", "fock.exp_vector", None),
            (fock, "check_lemma_normdiff", "fock.check_lemma_normdiff", None),
            (fock, "check_N_vs_Lambda", "fock.check_N_vs_Lambda", None),
            (fock, "projection_deficiency", "fock.projection_deficiency", None),
        ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in functions]
        saved.append((model.StepKernel, "build", model.StepKernel.__dict__["build"]))
        saved.append((fock.IntervalSpace, "ops", fock.IntervalSpace.__dict__["ops"]))
        try:
            for owner, attr, name, note in functions:
                setattr(owner, attr, self._wrap(name, getattr(owner, attr), note))
            build = model.StepKernel.__dict__["build"].__func__
            model.StepKernel.build = classmethod(self._wrap("model.StepKernel.build", build))
            ops = fock.IntervalSpace.__dict__["ops"].fget
            fock.IntervalSpace.ops = property(self._wrap(
                "fock.IntervalSpace.ops", ops,
                lambda rec, args, kwargs, out: rec.attrs.update(dim=args[0].dim)))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    @contextmanager
    def traced_study(self, study: int):
        """Trace one study: wrap qrw and open the study's root span."""
        self.study = study
        try:
            with self.installed(), self.span(STUDY):
                yield
        finally:
            self.study = None

    def records(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "study": s.study, **s.attrs}
            for s in self.spans
        ]


def _study_layers(spans: list[Span], root: int) -> dict[str, float]:
    """Per-layer figures of the study whose span has index ``root``."""
    sid = spans[root].study
    mine = [(i, s) for i, s in enumerate(spans) if s.study == sid]
    covered = defaultdict(float)
    for _, s in mine:
        covered[s.parent] += s.seconds
    own = defaultdict(float)
    total = defaultdict(float)
    calls = defaultdict(int)
    for i, s in mine:
        own[s.name] += s.seconds - covered[i]
        total[s.name] += s.seconds
        calls[s.name] += 1

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for _, s in mine if s.name == name)

    def per(x, n, scale):
        return scale * x / n if n else 0.0

    avg_slots = attr_sum("functions.slot_averages", "slots")
    walk_slots = attr_sum("walk.walk_matrix_element", "slots")
    steps = attr_sum("oracle.flow_matrix_element_fixed", "steps")
    passes = [s for _, s in mine if s.name == "oracle.flow_matrix_element_fixed"]
    residual = 0.0
    if len(passes) >= 2:
        a, b = (complex(*p.attrs["value"]) for p in passes[-2:])
        residual = abs(a - b)
    return {
        "functions.slot_averages.us_per_slot": per(own["functions.slot_averages"], avg_slots, 1e6),
        "functions.slot_averages.calls": calls["functions.slot_averages"],
        "model.StepKernel.build.ms": 1e3 * own["model.StepKernel.build"],
        "model.StepKernel.build.calls": calls["model.StepKernel.build"],
        "walk.propagate.us_per_slot": per(own["walk.walk_matrix_element"], walk_slots, 1e6),
        "walk.slots": walk_slots,
        "walk.vacuum_slot_share": per(attr_sum("walk.walk_matrix_element", "vacuum"), walk_slots, 1.0),
        "oracle.flow_matrix_element.s": total["oracle.flow_matrix_element"],
        "oracle.passes": len(passes),
        "oracle.steps": steps,
        "oracle.us_per_step": per(total["oracle.flow_matrix_element_fixed"], steps, 1e6),
        "oracle.residual": residual,
        "fock.check_N_vs_Lambda.ms": 1e3 * own["fock.check_N_vs_Lambda"],
        "fock.check_lemma_normdiff.ms": 1e3 * own["fock.check_lemma_normdiff"],
        "fock.projection_deficiency.ms": 1e3 * own["fock.projection_deficiency"],
        "fock.exp_vector.ms": 1e3 * total["fock.exp_vector"],
        "walk.f_term_norm.s": own["walk.f_term_norm"],
        # Share of the study that the named layers' spans account for.
        "trace.span_coverage": covered[root] / spans[root].seconds,
    }


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Median over the traced studies of each per-study layer figure, plus set-up figures."""
    roots = [i for i, s in enumerate(tracer.spans) if s.name == STUDY]
    per_study = [_study_layers(tracer.spans, i) for i in roots]
    out = {key: statistics.median(d[key] for d in per_study) for key in per_study[0]}
    setup_ops = [s for s in tracer.spans if s.study is None and s.name == "fock.IntervalSpace.ops"]
    out["fock.ops_build.s"] = sum(s.seconds for s in setup_ops if s.parent == -1)
    out["fock.dim"] = max((s.attrs["dim"] for s in tracer.spans if "dim" in s.attrs), default=0)
    return out
