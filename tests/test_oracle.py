"""Tests for the weak-ODE flow oracle and its cross-validations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrw import oracle
from qrw.functions import TestFunction
from qrw.linalg import dagger, op_norm, sandwich
from qrw.model import amplitude_damping, delta, delta_dag, lindblad, random_model, semigroup
from qrw.oracle import (
    OracleRefinementError,
    _generator_factors,
    fine_walk_reference,
    flow_matrix_element,
    flow_matrix_element_fixed,
    vacuum_check,
    weak_generator,
)

P1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def _rand_x(rng, d):
    return (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)


def _tf(times, vals):
    return TestFunction(np.asarray(times, float), np.asarray(vals))


class TestWeakGenerator:
    def test_reduces_to_lindblad(self):
        rng = np.random.default_rng(1)
        model = random_model(rng, 2, 2, 1.3)
        x = _rand_x(rng, 2)
        got = weak_generator(model, x, np.zeros(2), np.zeros(2))
        assert op_norm(got - lindblad(model, x)) <= 1e-13

    def test_kills_identity(self):
        rng = np.random.default_rng(2)
        model = random_model(rng, 3, 2, 1.1)
        gv = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        fv = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert op_norm(weak_generator(model, np.eye(3), gv, fv)) <= 1e-12

    def test_linear_in_x(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, 2, 1, 0.9)
        x, y = _rand_x(rng, 2), _rand_x(rng, 2)
        gv, fv = np.array([0.4j]), np.array([-0.2])
        got = weak_generator(model, 2.0 * x + 1j * y, gv, fv)
        want = 2.0 * weak_generator(model, x, gv, fv) + 1j * weak_generator(model, y, gv, fv)
        assert op_norm(got - want) <= 1e-12

    def test_derivative_at_zero_oracle(self):
        # finite difference of the integrated element at t = 0 matches
        # m_0(weak_generator(x)) + <g, f> m_0(x).
        model = amplitude_damping(1.0)
        c = 0.5
        f = _tf([0.0, 2.0], [[c], [c]])
        u = np.array([0.6, 0.8])
        v = np.array([1.0, -0.5])
        eps = 1e-4
        m_eps = flow_matrix_element(model, P1, u, v, f, f, eps, steps=64)
        m_0 = complex(np.vdot(v, P1 @ u))
        fd = (m_eps - m_0) / eps
        gen = weak_generator(model, P1, np.array([c]), np.array([c]))
        want = complex(np.vdot(v, gen @ u)) + c * c * m_0
        assert abs(fd - want) <= 1e-3

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 4), m=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_oracle_rate_property(self, d, m, seed):
        # The rate a pass integrates is weak_generator(Y) + <g, f> Y, and
        # weak_generator is L + <g, delta> + delta_dag f from the structure maps.
        rng = np.random.default_rng(seed)
        model = random_model(rng, d, m, float(rng.uniform(0.1, 2.0)))
        Y = _rand_x(rng, d)
        gv = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        fv = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        pair = np.vdot(gv, fv)
        left, right = _generator_factors(model, gv[None], fv[None], [pair])
        gen = weak_generator(model, Y, gv, fv)
        scale = max(1.0, op_norm(gen))
        assert op_norm(sandwich(left[0], Y, right[0]) - gen - pair * Y) <= 1e-12 * scale
        from_maps = (lindblad(model, Y)
                     + np.einsum("i,aib->ab", np.conj(gv), delta(model, Y).reshape(d, m, d))
                     + np.einsum("abi,i->ab", delta_dag(model, Y).reshape(d, d, m), fv))
        assert op_norm(gen - from_maps) <= 1e-12 * scale


class TestFlowMatrixElement:
    def test_identity_no_functions(self):
        model = amplitude_damping(1.0)
        u, v = np.array([0.6, 0.8]), np.array([0.3, -1.0])
        zero = TestFunction.zero(1)
        got = flow_matrix_element(model, np.eye(2), u, v, zero, zero, 1.0)
        assert got == pytest.approx(np.vdot(v, u), abs=1e-10)

    def test_unitality_with_functions(self):
        # m_t(1) = <v, u> exp(int <g, f>).
        rng = np.random.default_rng(5)
        model = random_model(rng, 2, 2, 1.4)
        f = _tf([0.0, 0.5, 2.0], [[0.0, 0.2], [0.4, -0.3], [0.0, 0.0]])
        g = _tf([0.0, 1.0, 2.0], [[0.1, 0.0], [-0.2, 0.5], [0.0, 0.0]])
        u = np.array([1.0, 0.5j])
        v = np.array([0.2, 0.9])
        for t in (0.5, 1.0, 2.0):
            got = flow_matrix_element(model, np.eye(2), u, v, f, g, t)
            want = np.vdot(v, u) * np.exp(g.pair_overlap_integral(f, 0.0, t))
            assert abs(got - want) <= 1e-9

    def test_semigroup_reduction(self):
        rng = np.random.default_rng(7)
        zero2 = TestFunction.zero(2)
        for _ in range(5):
            model = random_model(rng, 2, 2, float(rng.uniform(0.4, 1.8)))
            x = _rand_x(rng, 2)
            u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            t = float(rng.uniform(0.2, 1.5))
            got = flow_matrix_element(model, x, u, v, zero2, zero2, t)
            want = complex(np.vdot(v, semigroup(model, x, t) @ u))
            assert abs(got - want) <= 1e-9

    def test_zero_noise_closed_form(self):
        model = random_model(np.random.default_rng(9), 2, 1, 0.0)
        f = _tf([0.0, 0.5, 1.0], [[0.0], [0.5], [0.0]])
        u, v = np.array([1.0, 0.0]), np.array([0.8, 0.6])
        x = np.array([[0.2, 1.0], [0.0, -1.0j]])
        got = flow_matrix_element(model, x, u, v, f, f, 1.0)
        want = np.vdot(v, x @ u) * np.exp(f.l2_norm_sq(0.0, 1.0))
        assert abs(got - want) <= 1e-9

    def test_hermitian_symmetry(self):
        rng = np.random.default_rng(11)
        model = random_model(rng, 2, 1, 1.2)
        f = _tf([0.0, 0.4, 1.0], [[0.1], [0.5], [0.0]])
        g = _tf([0.0, 0.6, 1.0], [[0.0], [-0.3], [0.2]])
        x = _rand_x(rng, 2)
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a = flow_matrix_element(model, dagger(x), u, v, f, g, 1.0)
        b = flow_matrix_element(model, x, v, u, g, f, 1.0)
        assert abs(a - np.conj(b)) <= 1e-9

    def test_t_zero(self):
        model = amplitude_damping(1.0)
        u, v = np.array([1.0, 2.0]), np.array([0.0, 1.0])
        zero = TestFunction.zero(1)
        assert flow_matrix_element(model, P1, u, v, zero, zero, 0.0) == pytest.approx(
            np.vdot(v, P1 @ u)
        )

    def test_refinement_order(self):
        # Step-halving error of the fixed-budget integrator shrinks at
        # 4th order (slope of the log-log fit >= 3.8).
        rng = np.random.default_rng(13)
        model = random_model(rng, 2, 1, 2.0)
        f = _tf([0.0, 0.5, 1.0], [[0.2], [0.6], [0.0]])
        g = _tf([0.0, 0.5, 1.0], [[0.0], [-0.4], [0.3]])
        x = _rand_x(rng, 2)
        u, v = np.array([1.0, 0.3]), np.array([0.5, -0.8])
        ref = flow_matrix_element_fixed(model, x, u, v, f, g, 1.0, 8192)
        steps = np.array([128, 256, 512])
        errs = [abs(flow_matrix_element_fixed(model, x, u, v, f, g, 1.0, s) - ref) for s in steps]
        slope = -np.polyfit(np.log(steps), np.log(errs), 1)[0]
        assert slope >= 3.8, (slope, errs)


class TestRefinement:
    def _record(self, monkeypatch, value_of_steps):
        calls = []

        def fake(model, x, u, v, f, g, t, steps):
            calls.append(steps)
            return value_of_steps(steps)

        monkeypatch.setattr(oracle, "flow_matrix_element_fixed", fake)
        return calls

    def _flow(self, steps=256):
        zero = TestFunction.zero(1)
        return flow_matrix_element(amplitude_damping(), P1, [1, 0], [1, 0], zero, zero,
                                   1.0, steps=steps)

    def test_start_above_cap_raises(self, monkeypatch):
        calls = self._record(monkeypatch, float)
        with pytest.raises(OracleRefinementError):
            self._flow(steps=2**17)
        assert calls == []

    def test_last_pass_capped(self, monkeypatch):
        calls = self._record(monkeypatch, float)  # never converges
        with pytest.raises(OracleRefinementError) as err:
            self._flow()
        assert max(calls) == oracle.MAX_STEPS
        assert calls == [256 * 2**k for k in range(len(calls))]
        assert err.value.residual == oracle.MAX_STEPS / 2

    def test_tolerance_relative_to_value(self, monkeypatch):
        # The two passes differ by 0.5: far above REFINEMENT_TOL in absolute
        # terms, but 5e-13 relative to the value.
        calls = self._record(monkeypatch, lambda steps: 1e12 + 256.0 / steps)
        assert self._flow() == 1e12 + 0.5
        assert calls == [256, 512]


class TestWeakFunctional:
    def test_initial_value(self):
        # At t = 0 the weak functional of the flow is exactly <v, x u>.
        u, v = np.array([1.0, 2.0j]), np.array([0.5, -1.0])
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        zero = TestFunction.zero(1)
        got = flow_matrix_element(amplitude_damping(1.0), x, u, v, zero, zero, 0.0)
        assert got == pytest.approx(np.vdot(v, x @ u))


class TestVacuumCheck:
    def test_zero_noise_exact(self):
        model = random_model(np.random.default_rng(17), 2, 1, 0.0)
        x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        walk, oracle, err = vacuum_check(model, x, [1, 0], [0, 1], 1.0, 0.125)
        assert err <= 1e-13

    def test_amplitude_damping_converges(self):
        model = amplitude_damping(1.0)
        u = v = np.array([1.0, 1.0]) / np.sqrt(2)
        oracle_want = np.exp(-1.0) * np.vdot(v, P1 @ u)
        errs = []
        for h in (0.25, 0.125, 0.0625):
            walk, oracle, err = vacuum_check(model, P1, u, v, 1.0, h)
            assert oracle == pytest.approx(oracle_want, abs=1e-12)
            errs.append(err)
        assert errs[0] > errs[1] > errs[2]
        # first-order composition: halving h roughly halves the error
        assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.3)
        assert errs[1] / errs[2] == pytest.approx(2.0, abs=0.3)

    def test_non_integer_step_rejected(self):
        with pytest.raises(ValueError):
            vacuum_check(amplitude_damping(), P1, [1, 0], [1, 0], 1.0, 0.3)


class TestFineWalkReference:
    def test_zero_noise_matches_closed_form(self):
        model = random_model(np.random.default_rng(19), 2, 1, 0.0)
        f = _tf([0.0, 0.5, 1.0], [[0.0], [0.5], [0.0]])
        u, v = np.array([1.0, 0.0]), np.array([1.0, 0.0])
        x = np.eye(2, dtype=complex)
        got = fine_walk_reference(model, x, u, v, f, f, 1.0, 2.0**-10)
        # product over slots of (1 + |F_k|^2) approaches exp(||f||^2)
        assert got.real == pytest.approx(np.exp(f.l2_norm_sq(0.0, 1.0)), abs=2e-3)

    def test_vacuum_agrees_with_semigroup_oracle(self):
        model = amplitude_damping(1.0)
        u = v = np.array([1.0, 1.0]) / np.sqrt(2)
        zero = TestFunction.zero(1)
        got = fine_walk_reference(model, P1, u, v, zero, zero, 1.0, 2.0**-10)
        want = np.exp(-1.0) * np.vdot(v, P1 @ u)
        assert abs(got - want) <= 1e-3

    def test_mutual_oracle_consistency(self):
        # |fine walk - weak ODE| decreases as the reference step shrinks.
        rng = np.random.default_rng(23)
        model = random_model(rng, 2, 1, 1.0)
        f = _tf([0.0, 0.5, 1.0], [[0.0], [0.5], [0.0]])
        g = _tf([0.0, 0.25, 1.0], [[0.0], [0.3], [0.0]])
        x = _rand_x(rng, 2)
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        ode = flow_matrix_element(model, x, u, v, f, g, 1.0)
        gaps = [
            abs(fine_walk_reference(model, x, u, v, f, g, 1.0, 2.0**-k) - ode)
            for k in (8, 10, 12)
        ]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_study_step_guard(self):
        model = amplitude_damping(1.0)
        zero = TestFunction.zero(1)
        with pytest.raises(ValueError, match="eighth"):
            fine_walk_reference(model, P1, [1, 0], [1, 0], zero, zero, 1.0, 0.25, study_h=0.5)
