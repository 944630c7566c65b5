"""Benchmark of the qrw convergence lab.

    python3 perfbench/run.py --workload study-small --seed 7 --seconds 30 --trace 0

Runs one workload in this process, closed loop: one client, one study at a
time, each study starting when the previous one ends.  Studies run until
``--seconds`` are spent (at least one; two with tracing, one untraced and
one traced), and each is checked by its workload's correctness gate.

With ``--trace 0`` the result carries the end-to-end metrics:

* ``setup_s``: median over fresh interpreters (set-up probes and this
  process) of the time to import qrw, build the workload's inputs and warm
  qrw's lazy caches;
* ``study_s``: median wall time of one study;
* ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` untraced and traced studies alternate, and the result
carries the per-layer metrics that ``tracing.py`` derives from the spans,
including the tracing overhead.  The spans are written to
``perfbench/out/``.  The last line of standard output is the JSON result;
lines before it print every metric by name and unit, ``err_rel`` and
``failed_frac``, and the environment.

BLAS and OpenMP are pinned to one thread before numpy is imported; this
module imports only the standard library at load time.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The keys of workloads.WORKLOADS, which can only be imported once the
# threads are pinned and qrw is on the path.
WORKLOAD_NAMES = ("study-small", "study-large", "lemmas", "smoke-study", "smoke-lemmas")
# Fresh interpreters timed for setup_s besides this one; the lemma set-up
# builds a 74,613-dimensional Fock space in ~5 s, so it gets fewer.
SETUP_PROBES = {"lemmas": 2, "smoke-study": 1, "smoke-lemmas": 1}
DEFAULT_SETUP_PROBES = 4
PROBE_TIMEOUT_S = 120


def _setup(name: str, seed: int):
    """Import qrw, build the inputs and warm qrw's caches; return (workload, inputs)."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    inputs = workload.inputs(seed)
    workload.warm(inputs)
    return workload, inputs


def probe_setup(name: str, seed: int) -> float:
    start = time.perf_counter()
    _setup(name, seed)
    return time.perf_counter() - start


def setup_seconds(name: str, seed: int) -> list[float]:
    """Time the set-up in fresh interpreters, one after the other."""
    times = []
    for _ in range(SETUP_PROBES.get(name, DEFAULT_SETUP_PROBES)):
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--probe-setup", "--workload", name,
             "--seed", str(seed), "--seconds", "0"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


def run_studies(workload, inputs, seconds: float, tracer=None) -> list[tuple]:
    """Closed loop of studies for ``seconds``; alternate traced ones if a tracer is given."""
    studies = []  # (seconds, traced, outcome or None, error or None)
    deadline = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and len(studies) % 2 == 1
        start = time.perf_counter()
        outcome, error = None, None
        try:
            with tracer.traced_study(len(studies)) if traced else contextlib.nullcontext():
                outcome = workload.study(inputs)
        except (ValueError, RuntimeError, ArithmeticError) as exc:
            error = f"{type(exc).__name__}: {exc}"
        studies.append((time.perf_counter() - start, traced, outcome, error))
        need = 2 if tracer is not None else 1
        typical = statistics.median(s[0] for s in studies)
        if len(studies) >= need and time.perf_counter() + typical > deadline:
            return studies


def environment(name: str, seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "commit": git_commit(),
    }


def git_commit() -> str:
    """The checked-out commit, or "unknown" where the checkout is not a git repository."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def verdict(studies: list[tuple]) -> dict:
    """The result's counts: a study that raised or failed its gate has failed."""
    failed = sum(1 for _, _, outcome, _ in studies if outcome is None or not outcome.ok)
    return {"correct": failed == 0, "attempted": len(studies), "failed": failed}


def declared_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    return {m["name"]: m["unit"] for m in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # numpy is imported only after this, and set-up probes inherit it.
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    if not (SRC / "qrw").is_dir():
        print(f"qrw sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.probe_setup:
        print(f"{probe_setup(args.workload, args.seed):.9f}")
        return 0

    setup = setup_seconds(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    start = time.perf_counter()
    with tracer.installed() if tracer else contextlib.nullcontext():
        workload, inputs = _setup(args.workload, args.seed)
    setup.append(time.perf_counter() - start)

    studies = run_studies(workload, inputs, args.seconds, tracer)
    counts = verdict(studies)
    plain = [s for s, traced, _, _ in studies if not traced]
    study_s = statistics.median(plain)
    err_rel = [o.facts["err_rel"] for _, _, o, _ in studies if o and "err_rel" in o.facts]

    values = {
        "setup_s": statistics.median(setup),
        "study_s": study_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "study_s": f"median of {len(plain)} untraced studies",
    }
    units = declared_units("end_to_end")
    report = [(name, values[name], unit, notes.get(name, "")) for name, unit in units.items()]
    report.append(("failed_frac", counts["failed"] / counts["attempted"], "1",
                   f"{counts['failed']} of {counts['attempted']} studies"))
    if err_rel:
        report.append(("err_rel", statistics.median(err_rel), "1",
                       "|walk - oracle| / |oracle| at the finest n"))
    if tracer is not None:
        from tracing import layer_metrics

        values = layer_metrics(tracer)
        traced = statistics.median(s for s, t, _, _ in studies if t)
        values["trace.study_s"] = traced
        values["trace.overhead_s"] = traced - study_s
        units = declared_units("per_layer")
        report += [(name, values[name], unit, "") for name, unit in units.items()]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    env = environment(args.workload, args.seed)
    for name, value, unit, note in report:
        print(f"{name:40s} {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    failures = [error or json.dumps(outcome.facts) for _, _, outcome, error in studies
                if error or not outcome.ok]
    if failures:
        print(f"{len(failures)} studies failed, the first with: {failures[0]}", file=sys.stderr)
    print("env " + json.dumps(env))
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"env": env, "spans": tracer.records()}))
        print(f"spans written to {path.relative_to(ROOT)}")
    print(json.dumps({**counts, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
