"""Hand-written mutants of src/qrw, each with the tier-1 test that must kill it.

Run from anywhere: ``python tests/mutants.py``.  For each mutant it copies the
checkout's ``src``, ``tests`` and ``pyproject.toml`` to a temporary directory,
replaces the mutant's old text (which must occur exactly once in its file)
with the new one, and runs only the named test there.  A mutant is killed
when that test fails.  The script exits non-zero if any named test passes on
its mutant, or if a mutant no longer applies: its old text is gone or
repeated, or its test is not found.  Each loosened bound (the defect
constant, ``DefectReport.passed``, the F term's c(f, t), the projection-loss
bound of ``check_lemma_normdiff`` and its slack, the kind-1 mode-a bound of
``check_N_vs_Lambda`` and its power of h, its pass rule and the second-order
bound of ``trig_estimates``) is killed by a witness: an input on which value /
bound stays above a floor that the looser bound takes it below.

pytest does not collect this file; CI runs it as its own step.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (file under src/qrw, old text, new text, killing test)
MUTANTS = [
    ("model.py",  # U(h) built at h (1 + 0.2 h)
     "        cos_sys, sinc_sys, cos_env = _trig_parts(model, h)\n",
     "        h = h * (1 + 0.2 * h)\n        cos_sys, sinc_sys, cos_env = _trig_parts(model, h)\n",
     "tests/test_model.py::TestUnitaryStep::test_scalar_closed_form"),
    ("model.py",  # C' with its (h/2) W W* term scaled by 1 + 1e-3
     "(h / 2) * (w @ dagger(w))",
     "(h / 2) * (1 + 1e-3) * (w @ dagger(w))",
     "tests/test_model.py::TestUnitaryStep::test_scalar_closed_form"),
    ("functions.py",  # slot averages taken as midpoint values
     "    F = np.diff(f.antiderivative(h * np.arange(n + 1)), axis=0) / np.sqrt(h)\n",
     "    F = f(h * (np.arange(n) + 0.5)) * np.sqrt(h)\n",
     "tests/test_fock.py::TestBasicOperators::test_annihilation_action_formula"),
    ("model.py",  # the oracle's rate without <g, f>
     "    left[:, diag, (2 + model.m) * diag] += np.sum(ghat[:, 1:].conj() * fhat[:, 1:], axis=1)[:, None]\n",
     "",
     "tests/test_oracle.py::TestWeakGenerator::test_derivative_at_zero_oracle"),
    ("model.py",  # D's sign flipped in K'
     "    np.subtract(half, D, out=right[:, :, 1])\n",
     "    np.add(half, D, out=right[:, :, 1])\n",
     "tests/test_model.py::TestStructureMaps::test_identity_gives_zero"),
    ("oracle.py",  # the oracle reads f and g from outside their support at its start
     "    hats[firsts[times[firsts] == fn.breakpoints[0]], 1:] = 0.0\n",
     "",
     "tests/test_exports.py::test_cold_study_runs_on_numpy_alone"),
    ("oracle.py",  # an estimate margin 100x wider
     "ESTIMATE_MARGIN = 4\n",
     "ESTIMATE_MARGIN = 400\n",
     "tests/test_oracle.py::TestRefinement::test_tolerance_relative_to_value"),
    ("model.py",  # ghat not conjugated in beta's factors
     "left = np.matmul(ghat.conj(), rows,",
     "left = np.matmul(ghat, rows,",
     "tests/test_oracle.py::TestNoiseCoordinates::test_unitary_on_noise_changes_nothing"),
    ("oracle.py",  # the ceil rule that does not halve every step of a piece
     "    return [(a, b, scale * max(1, int(np.ceil((b - a) / t * steps))))\n",
     "    return [(a, b, max(1, int(np.ceil((b - a) / t * steps * scale))))\n",
     "tests/test_oracle.py::TestFlowMatrixElement::test_doubling_halves_every_step"),
    ("walk.py",  # a chunk's slot maps applied first to last
     "        for apply in reversed(maps(ghats[lo:hi], fhats[lo:hi])):\n",
     "        for apply in maps(ghats[lo:hi], fhats[lo:hi]):\n",
     "tests/test_walk.py::TestStreamingEngine::test_engine_equivalence_property"),
    ("walk.py",  # g's hats replaced by f's
     "    ghats, fhats = gavgs.hatted(slice(None)), favgs.hatted(slice(None))\n",
     "    ghats, fhats = favgs.hatted(slice(None)), favgs.hatted(slice(None))\n",
     "tests/test_oracle.py::TestFlowMatrixElement::test_jump_inside_converges_at_fourth_order"),
    ("oracle.py",  # the oracle's scale S times 1e3
     "    bound = (REFINEMENT_TOL * op_norm(x)",
     "    bound = (1e3 * REFINEMENT_TOL * op_norm(x)",
     "tests/test_oracle.py::TestFlowMatrixElement::test_semigroup_reduction"),
    ("fock.py",  # a truncation tail limit 1e6x wider
     "TAIL_LIMIT = 1e-8\n",
     "TAIL_LIMIT = 1e-2\n",
     "tests/test_fock.py::TestProjection::test_deficiency_raises_above_tail_limit"),
    ("model.py",  # the defect constant 10x looser
     "        return 5.0 * (r**2 + r**3 + r**4)\n",
     "        return 50.0 * (r**2 + r**3 + r**4)\n",
     "tests/test_model.py::TestDefect::test_bound_is_within_reach"),
    ("model.py",  # DefectReport.passed 10x looser
     "        return all(r <= b + 1e-13 for r, b in zip(self.raw, self.bounds))\n",
     "        return all(r <= 10 * b + 1e-13 for r, b in zip(self.raw, self.bounds))\n",
     "tests/test_model.py::TestDefect::test_corrupted_beta_fails"),
    ("walk.py",  # the F term's c(f, t) 10x looser
     "    c_ft = 2.0 * t * (c_f + sup) * exp_norm\n",
     "    c_ft = 20.0 * t * (c_f + sup) * exp_norm\n",
     "tests/test_walk.py::TestFTerm::test_bound_is_within_reach"),
    ("linalg.py",  # flat with the slot index slow
     "blocks.transpose(2, 0, 3, 1)",
     "blocks.transpose(0, 2, 1, 3)",
     "tests/test_model.py::TestFlat::test_flat_matches_kron_convention"),
    ("linalg.py",  # unflat with its two block axes swapped
     "transpose(1, 3, 0, 2)",
     "transpose(3, 1, 0, 2)",
     "tests/test_model.py::TestFlat::test_flat_block_round_trip_exact"),
    ("model.py",  # U(h) with +sqrt(h) D R* as its annihilation part
     "-dagger(rd)",
     "+dagger(rd)",
     "tests/test_model.py::TestUnitaryStep::test_unitarity_and_exponential_agreement"),
    ("fock.py",  # the Fock occupation table without the inserted mode
     "    occ = np.concatenate(occ) + 1  # occupation of a in r + a\n",
     "    occ = np.concatenate(occ)\n",
     "tests/test_fock.py::TestRanking::test_ops_match_reference_at_lemmas_G"),
    ("fock.py",  # check_lemma_normdiff's rhs 10x looser
     "    rhs = h * (c_f + sup) * float(",
     "    rhs = 10 * h * (c_f + sup) * float(",
     "tests/test_fock.py::TestNormDiffLemma::test_bound_is_within_reach"),
    ("fock.py",  # the mode-a bounds of check_N_vs_Lambda 10x looser
     "    if mode == \"a\":\n        return base\n",
     "    if mode == \"a\":\n        return 10 * base\n",
     "tests/test_fock.py::TestNvsLambdaChecks::test_time_bound_is_within_reach"),
    ("model.py",  # beta's left factors in the column order of the stacked layout
     "rows = U.conj().transpose(1, 3, 2, 0)",
     "rows = U.conj().transpose(1, 3, 0, 2)",
     "tests/test_model.py::TestBeta::test_closed_form_matches_conjugation"),
    ("fock.py",  # check_N_vs_Lambda passing on lhs <= 10 rhs + slack
     "        passed=bool(lhs <= rhs + slack),\n",
     "        passed=bool(lhs <= 10 * rhs + slack),\n",
     "tests/test_fock.py::TestNvsLambdaChecks::test_pass_rule_is_within_reach"),
    ("model.py",  # trig_estimates' second-order bound 10x looser
     "h**2 * r2**2,",
     "10 * h**2 * r2**2,",
     "tests/test_model.py::TestUnitaryStep::test_second_order_bound_is_within_reach"),
    ("functions.py",  # f read as zero at its last breakpoint
     "        inside = (t >= bp[0]) & (t <= bp[-1])\n",
     "        inside = (t >= bp[0]) & (t < bp[-1])\n",
     "tests/test_walk.py::TestSegmentTables::test_call_matches_masked_form"),
    ("fock.py",  # the slot mean taken without the first cell
     "    mean = np.add.reduce(one, axis=0) / space.G",
     "    mean = np.add.reduce(one[1:], axis=0) / space.G",
     "tests/test_fock.py::TestOneParticleAlgebra::test_inner_products_match_fock_space"),
    ("fock.py",  # check_lemma_normdiff's slack without its 1/G
     "    slack = tail + h * c_f / space.G\n",
     "    slack = tail + h * c_f\n",
     "tests/test_fock.py::TestNormDiffLemma::test_slack_is_within_reach"),
    ("fock.py",  # the kind-1 mode-a bound at h^1 in place of h^1.5
     "        base = h**1.5 * float(np.linalg.norm(coeff @ u))",
     "        base = h**1.0 * float(np.linalg.norm(coeff @ u))",
     "tests/test_fock.py::TestNvsLambdaChecks::test_time_bound_power_is_within_reach"),
    ("model.py",  # test functions on any number of channels accepted
     "        for fn in fns:\n            if fn.channels != self.m:\n",
     "        for fn in fns:\n            if False:\n",
     "tests/test_walk.py::test_input_checks"),
    ("fock.py",  # an interval of infinite length accepted
     "not (math.isfinite(self.h) and self.h > 0)",
     "not self.h > 0",
     "tests/test_fock.py::test_input_checks"),
    ("fock.py",  # projection_deficiency on an infinite or NaN t or h
     "    if not (math.isfinite(h) and h > 0 and math.isfinite(t) and t >= 0):\n",
     "    if not (h > 0 and t >= 0):\n",
     "tests/test_fock.py::TestProjection::test_deficiency_rejects_negative_t_or_nonpositive_h"),
]


def survives(path: str, old: str, new: str, test: str) -> str | None:
    """None if the mutant is killed, else why it is not."""
    with tempfile.TemporaryDirectory() as tmp:
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp, part), ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tmp)
        target = Path(tmp, "src", "qrw", path)
        text = target.read_text()
        if text.count(old) != 1:
            return f"its old text occurs {text.count(old)} times in {path}"
        target.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        env.setdefault("HYPOTHESIS_PROFILE", "ci")
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                               test], cwd=tmp, env=env, capture_output=True, text=True)
    if done.returncode == 1:
        return None
    if done.returncode == 0:
        return "its test passes"
    return f"pytest exited with {done.returncode}:\n{done.stdout[-2000:]}"


def main() -> int:
    failed = 0
    for path, old, new, test in MUTANTS:
        why = survives(path, old, new, test)
        edit = new.strip() or f"drop {old.strip()}"
        status = "killed" if why is None else f"ALIVE ({why})"
        print(f"{status}: {path}: {edit} [{test.split('::', 1)[1]}]", flush=True)
        failed += why is not None
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
