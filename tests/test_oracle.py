"""Tests for the weak-ODE flow oracle and its cross-validations."""

import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qrw import linalg, oracle, walk
from qrw import model as qrw_model
from qrw.functions import TestFunction
from qrw.linalg import dagger, flat, op_norm, step_maps, superoperator
from qrw.model import (PARTS, GkslModel, StepKernel, beta_factors, random_model, structure_factors,
                       structure_maps)
from qrw.oracle import OracleRefinementError, flow_matrix_element, flow_matrix_element_fixed
from qrw.walk import walk_matrix_element
from reference import amplitude_damping, lindblad_superoperator, semigroup, weak_generator

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
        assert op_norm(got - structure_maps(model, x)[0, 0]) <= 1e-13

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

    @pytest.mark.parametrize("gv, fv", [([np.nan], [0.0]), ([0.0], [0.0, 1.0])])
    def test_channel_vectors_checked(self, gv, fv):
        # A NaN once gave a NaN generator.
        with pytest.raises(ValueError, match="non-finite|1-d vector of length 1"):
            weak_generator(amplitude_damping(1.0), P1, gv, fv)

    def test_derivative_at_zero_oracle(self):
        # finite difference of the integrated element at t = 0 matches
        # m_0(weak_generator(x)) + <g, f> m_0(x).
        model = amplitude_damping(1.0)
        c = 0.5
        f = _tf([0.0, 2.0], [[c], [c]])
        u = np.array([0.6, 0.8])
        v = np.array([1.0, -0.5])
        eps = 1e-4
        m_eps = flow_matrix_element(model, P1, u, v, f, f, eps)
        m_0 = complex(np.vdot(v, P1 @ u))
        fd = (m_eps - m_0) / eps
        gen = weak_generator(model, P1, np.array([c]), np.array([c]))
        want = complex(np.vdot(v, gen @ u)) + c * c * m_0
        assert abs(fd - want) <= 1e-3

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 4), m=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_oracle_rate_property(self, d, m, seed):
        # The rate a pass integrates is weak_generator(Y), with <g, f> Y left to
        # the exact factor; its vacuum map is L, and weak_generator is
        # L + <g, delta> + delta_dag f from the structure maps.
        rng = np.random.default_rng(seed)
        model = random_model(rng, d, m, float(rng.uniform(0.1, 2.0)))
        Y = _rand_x(rng, d)
        gv = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        fv = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        ghat, fhat = np.append(1.0, gv), np.append(1.0, fv)
        maps, vacuum, _, shape, _ = model.rate_engine
        (rate,) = maps(ghat[None], fhat[None])
        gen = weak_generator(model, Y, gv, fv)
        size = np.linalg.norm(ghat) * np.linalg.norm(fhat) * (1 + model.norm_R**2) * op_norm(Y)
        assert op_norm(rate(Y.reshape(shape)).reshape(d, d) - gen) <= 1e-13 * d * size
        assert np.array_equal(vacuum(), lindblad_superoperator(model))
        scale = max(1.0, op_norm(gen))
        theta = structure_maps(model, Y)  # L, delta_dag and delta are parts 0, 1 and 2
        from_maps = (theta[0, 0]
                     + np.einsum("i,aib->ab", np.conj(gv), flat(theta[PARTS[2]]).reshape(d, m, d))
                     + np.einsum("abi,i->ab", flat(theta[PARTS[1]]).reshape(d, d, m), fv))
        assert op_norm(gen - from_maps) <= 1e-12 * scale


    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(1, 4), m=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_table_contracts_to_rate_superoperator(self, d, m, seed):
        # At d <= 4 the model's rate engine steps the rate by transfer
        # matrices: at any hats, the pairs of unit hats (c = 0 but at
        # (e_0, e_0)) among them, each is the superoperator of
        # structure_factors.
        rng = np.random.default_rng(seed)
        model = random_model(rng, d, m, float(rng.uniform(0.1, 2.0)))
        assert linalg.pick_engine(d, 2 + m, 1 + m, 2, 4)[0]
        units = np.eye(1 + m)
        ghat = np.vstack([_rand_x(rng, 5 + m)[:5, :1 + m], units.repeat(1 + m, axis=0)])
        fhat = np.vstack([_rand_x(rng, 5 + m)[:5, :1 + m], np.tile(units, (1 + m, 1))])
        P = len(ghat)
        maps, _, _, shape, _ = model.rate_engine
        assert shape == (d * d,)
        want = superoperator(*structure_factors(model, ghat, fhat))
        y = _rand_x(rng, d).reshape(-1)
        got = np.stack([apply(y) for apply in maps(ghat, fhat)])
        assert len(got) == P
        scale = (np.linalg.norm(ghat, axis=1) * np.linalg.norm(fhat, axis=1)
                 * (1 + model.norm_R**2) * np.linalg.norm(y))
        assert (np.linalg.norm(got - want @ y, axis=1) <= 1e-13 * d * scale).all()


JUMPS = [
    # g jumps from 0 to 0.2i where its support starts, at 0.2.
    (_tf([0.0, 0.4, 1.0], [[0.0], [0.3 - 0.1j], [0.1]]), _tf([0.2, 0.7], [[0.2j], [0.0]])),
    # f jumps from 0.3 to 0 where its support ends, at 0.5.
    (_tf([0.0, 0.5], [[0.2], [0.3]]), _tf([0.0, 1.0], [[0.1], [0.1j]])),
]


def _overlap_closed_form(g, f, t):
    """integral of <g, f> over [0, t] by the product rule of two linear functions.

    On [a, b] inside both supports, with no breakpoint between, the integral is
    (b - a)/6 (2 g_a* f_a + g_a* f_b + g_b* f_a + 2 g_b* f_b); each function is
    read there by ``np.interp`` on its own breakpoints, from inside its support.
    """
    lo = max(0.0, f.breakpoints[0], g.breakpoints[0])
    hi = min(t, f.breakpoints[-1], g.breakpoints[-1])
    edges = np.unique(np.concatenate([[lo, hi], f.breakpoints, g.breakpoints]))
    edges = edges[(edges >= lo) & (edges <= hi)]

    def at(fn, s):
        return np.stack([np.interp(s, fn.breakpoints, fn.values[:, i].real)
                         + 1j * np.interp(s, fn.breakpoints, fn.values[:, i].imag)
                         for i in range(fn.channels)], axis=-1)

    ga, gb, fa, fb = at(g, edges[:-1]), at(g, edges[1:]), at(f, edges[:-1]), at(f, edges[1:])
    terms = np.sum(2 * ga.conj() * fa + ga.conj() * fb + gb.conj() * fa + 2 * gb.conj() * fb, axis=1)
    return complex(np.sum(np.diff(edges) / 6 * terms))


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

    @pytest.mark.parametrize("t", [0.0, 0.5])
    @pytest.mark.parametrize("u, v", [([np.nan, 0.0], [0.0, 1.0]), ([1.0, 0.0], [1.0])])
    def test_vectors_checked(self, t, u, v):
        zero = TestFunction.zero(1)
        with pytest.raises(ValueError, match="non-finite|1-d vector"):
            flow_matrix_element(amplitude_damping(1.0), P1, u, v, zero, zero, t)

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

    @settings(max_examples=30, deadline=None)
    @given(inner=st.lists(st.floats(0.001, 0.999), max_size=6, unique=True),
           start=st.integers(16, 40))
    def test_doubling_halves_every_step(self, inner, start):
        # Step doubling reads the error of a pass only if the next pass halves
        # every one of its steps, on every piece, however short.
        f = _tf([0.0, *sorted(inner), 1.0], np.zeros((len(inner) + 2, 1)))
        counts = [np.array([k for _, _, k in oracle._pieces(f, TestFunction.zero(1), 1.0, start * 2**j)])
                  for j in range(4)]
        for j, (coarse, fine) in enumerate(zip(counts, counts[1:])):
            assert coarse.sum() >= start * 2**j
            assert (fine == 2 * coarse).all()

    def test_vacuum_power_matches_rk4_loop(self, monkeypatch):
        # f is zero on [0.1, 0.2] and g vanishes below 0.3, so the vacuum
        # pieces are [0, 0.1], [0.1, 0.2] and [0.6, 1]; each is M^r for M the
        # RK4 step of L applied to the identity, against the loop it replaces.
        rng = np.random.default_rng(17)
        model = random_model(rng, 3, 2, 1.2)
        f = _tf([0.1, 0.2, 0.4, 0.6], [[0, 0], [0, 0], [0.3, -0.2j], [0, 0]])
        g = _tf([0.3, 0.5, 0.6], [[0.1j, 0.2], [-0.4, 0], [0, 0]])
        x = _rand_x(rng, 3)
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        pays = []

        def spy(*args):
            pays.append(linalg._power_pays(*args))
            return pays[-1]

        monkeypatch.setattr(oracle, "_power_pays", spy)
        power = flow_matrix_element_fixed(model, x, u, v, f, g, 1.0, 1024)
        assert pays == [True] * 3
        monkeypatch.setattr(oracle, "_power_pays", lambda *args: False)
        loop = flow_matrix_element_fixed(model, x, u, v, f, g, 1.0, 1024)
        assert abs(power - loop) <= 1e-13 * abs(loop)

    def test_transfer_matches_sandwich_loop(self, monkeypatch):
        # At d = 3 the rule takes transfer matrices and the vacuum pieces as
        # powers.  A zero cost makes nothing strictly cheaper, which forces the
        # sandwich factors at every step, as in the walk's cross-checks.  The
        # rate engine is built once per model, so the zero-cost pass runs on a
        # fresh model of the same R.
        rng = np.random.default_rng(19)
        model = random_model(rng, 3, 2, 1.2)
        f = _tf([0.1, 0.2, 0.4, 0.6], [[0, 0], [0, 0], [0.3, -0.2j], [0, 0]])
        g = _tf([0.0, 0.5, 1.0], [[0.1j, 0.2], [-0.4, 0.3], [0.2, -0.1j]])
        x = _rand_x(rng, 3)
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        chosen = []

        def spy(*args):
            chosen.append(pick_engine(*args))
            return chosen[-1]

        pick_engine = linalg.pick_engine
        monkeypatch.setattr(linalg, "pick_engine", spy)
        transfer = flow_matrix_element_fixed(model, x, u, v, f, g, 1.0, 1024)
        monkeypatch.setattr(linalg, "_cost", lambda madds, calls: 0.0)
        fresh = GkslModel(d=3, m=2, R=model.R)
        loop = flow_matrix_element_fixed(fresh, x, u, v, f, g, 1.0, 1024)
        assert [transfer for transfer, _, _ in chosen] == [True, False]
        assert abs(transfer - loop) <= 1e-13 * abs(loop)

    def test_rate_engine_built_once_per_model(self, monkeypatch):
        # Every pass of every call steps the model's one rate engine, with its
        # unit table and vacuum map.
        model, x, u, v, f, g = _study_input(5, 3, 2, (0.1, 0.6))
        engines, passes = [], []
        step_maps, fixed = qrw_model.step_maps, oracle.flow_matrix_element_fixed
        monkeypatch.setattr(qrw_model, "step_maps", lambda *a: engines.append(a) or step_maps(*a))
        monkeypatch.setattr(oracle, "flow_matrix_element_fixed",
                            lambda *a: passes.append(a) or fixed(*a))
        first = flow_matrix_element(model, x, u, v, f, g, 1.0)
        assert flow_matrix_element(model, x, u, v, f, g, 1.0) == first
        assert len(passes) >= 4 and len(engines) == 1

    def test_each_chunk_frees_its_factors(self, monkeypatch):
        # A pass holds one chunk's rate factors at a time: none formed for an
        # earlier chunk is alive when the next chunk's are formed.  At d = 8
        # the engine steps the rates by their sandwich factors, which are
        # formed for every chunk of the engine's rows, 2 steps + 1 points.
        model, x, u, v, f, g = _study_input(3, 8, 2, (0.0, 1.0))
        assert not linalg.pick_engine(8, 4, 3, 2, 4)[0]
        alive, refs = [], []

        def spy(*args):
            alive.append(sum(ref() is not None for ref in refs))
            parts = structure_factors(*args)
            refs.extend(weakref.ref(part) for part in parts)
            return parts

        monkeypatch.setattr(linalg, "CHUNK_BYTES", 2**16)
        monkeypatch.setattr(qrw_model, "structure_factors", spy)
        steps = (model.rate_engine[-1] - 1) // 2
        assert steps >= 1
        flow_matrix_element_fixed(model, x, u, v, f, g, 1.0, 32)
        assert len(alive) >= 32 // steps
        assert alive == [0] * len(alive)

    @pytest.mark.parametrize("f, g", JUMPS)
    def test_jump_inside_converges_at_fourth_order(self, f, g):
        # Read from inside each piece, the passes converge at fourth order and
        # the walk approaches the flow at first order.
        model = random_model(np.random.default_rng(3), 2, 1, 1.0)
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        u, v = np.array([1.0, 0.0]), np.array([0.6, 0.8])
        passes = [flow_matrix_element_fixed(model, x, u, v, f, g, 1.0, s)
                  for s in (128, 256, 512, 1024)]
        diffs = np.abs(np.diff(passes))
        assert (diffs[1:] <= diffs[:-1] / 10).all(), diffs
        flow = flow_matrix_element(model, x, u, v, f, g, 1.0)
        ns = np.array([256 * 2**k for k in range(5)])
        errs = [abs(walk_matrix_element(model, x, u, v, f, g, 1 / n, n) - flow) for n in ns]
        order = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert 0.9 <= order <= 1.1, (order, errs)

    @pytest.mark.parametrize("f, g", JUMPS)
    def test_identity_carries_the_exact_factor(self, f, g):
        # Theta kills the identity, so at x = 1 the flow is <v, u> times the
        # factor exp(int_0^1 <g, f>), complex on these inputs, and no RK4 error
        # enters it.
        model = random_model(np.random.default_rng(3), 2, 1, 1.0)
        u, v = np.array([1.0, 0.0]), np.array([0.6, 0.8])
        got = flow_matrix_element(model, np.eye(2), u, v, f, g, 1.0)
        want = np.vdot(v, u) * np.exp(_overlap_closed_form(g, f, 1.0))
        assert abs(got - want) <= 1e-13 * abs(want), abs(got - want) / abs(want)


class TestChunkBudget:
    @pytest.mark.parametrize("d, m", [(2, 1), (4, 2), (8, 2)])
    def test_values_do_not_depend_on_the_budget(self, monkeypatch, d, m):
        # A chunk only groups the rows that the engine forms at once: with one
        # row per chunk, 16 KB, the default budget and the whole run in one
        # chunk, the walk and the oracle give the same values, bit for bit.  At
        # d <= 4 both step by transfer matrices and take the vacuum runs off
        # [0.1, 0.6] as powers; at d = 8 both step by sandwich factors.
        model, x, u, v, f, g = _study_input(11, d, m, (0.1, 0.6))
        assert linalg.pick_engine(d, 1 + m, 1 + m, 1, 1)[0] == (d <= 4)
        assert linalg.pick_engine(d, 2 + m, 1 + m, 2, 4)[0] == (d <= 4)
        runs, values, rows = [], set(), []
        power_runs = linalg.power_runs
        monkeypatch.setattr(walk, "power_runs", lambda *a: runs.append(power_runs(*a)) or runs[-1])
        for budget in (1, 2**14, linalg.CHUNK_BYTES, 2**40):
            monkeypatch.setattr(linalg, "CHUNK_BYTES", budget)
            fresh = GkslModel(d=d, m=m, R=model.R)
            values.add((walk_matrix_element(fresh, x, u, v, f, g, 1 / 300, 300),
                        flow_matrix_element_fixed(fresh, x, u, v, f, g, 1.0, 256)))
            rows.append(fresh.rate_engine[-1])
        assert len(values) == 1
        assert rows[0] == 1 and rows[1] < 2 * 256 + 1
        assert all(runs) == (d <= 4)

    @pytest.mark.parametrize("d, m", [(d, m) for d in range(1, 17) for m in (1, 2, 3)] + [(2, 64)])
    def test_rows_fit_the_budget(self, d, m):
        # Each engine's chunk of rows, slots or RK4 points, holds its maps in
        # at most CHUNK_BYTES: 2 terms d^2 complex entries a row by sandwich
        # factors, d^4 by transfer matrices.
        model = random_model(np.random.default_rng(d * 100 + m), d, m, 1.0)
        walk_engine = step_maps(beta_factors(StepKernel.build(model, 0.01)), 1 + m, 1, 1)
        for (_, _, _, shape, rows), terms in ((walk_engine, 1 + m), (model.rate_engine, 2 + m)):
            entries = d**4 if shape == (d * d,) else 2 * terms * d * d
            assert rows >= 1 and rows * 16 * entries <= linalg.CHUNK_BYTES


class TestNoiseCoordinates:
    # The paper's noise space is coordinate-free: a unitary W on it, taking
    # R_i to sum_j W_ij R_j and f, g to W f, W g, changes neither the walk nor
    # the flow.
    @settings(max_examples=12, deadline=None)
    @given(d=st.sampled_from([2, 3, 4, 8]), m=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_unitary_on_noise_changes_nothing(self, d, m, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, d, m, float(rng.uniform(0.1, 2.0)))
        W, _ = np.linalg.qr(_rand_x(rng, m))
        rotated = GkslModel(d=d, m=m, R=np.einsum("ij,ajb->aib", W, model.R.reshape(d, m, d))
                            .reshape(d * m, d))
        f, g = (_tf(np.sort(rng.uniform(0.0, 1.0, 3)), 0.5 * _rand_x(rng, 3)[:, :m]) for _ in range(2))
        f2, g2 = (TestFunction(fn.breakpoints, fn.values @ W.T) for fn in (f, g))
        x = _rand_x(rng, d)
        u = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        scale = op_norm(x) * np.linalg.norm(u) * np.linalg.norm(v)
        for value in (lambda *a: walk_matrix_element(*a, 1 / 512, 512),
                      lambda *a: flow_matrix_element(*a, 1.0)):
            want = value(model, x, u, v, f, g)
            got = value(rotated, x, u, v, f2, g2)
            assert abs(got - want) <= 1e-11 * max(abs(want), scale)


class TestInputChecks:
    # amplitude_damping with x = P1 and u = v = e1 decays as exp(-t).
    ARGS = (amplitude_damping(1.0), P1, [0.0, 1.0], [0.0, 1.0],
            TestFunction.zero(1), TestFunction.zero(1))

    def test_fixed_negative_t_raises(self):
        with pytest.raises(ValueError, match="finite t >= 0"):
            flow_matrix_element_fixed(*self.ARGS, -1.0, 64)

    def test_fixed_t_zero_is_initial_value(self):
        assert flow_matrix_element_fixed(*self.ARGS, 0.0, 64) == 1.0

    @pytest.mark.parametrize("steps", [0, -5])
    @pytest.mark.parametrize("fn", [flow_matrix_element_fixed])
    def test_steps_below_one_raise(self, fn, steps):
        with pytest.raises(ValueError, match="steps >= 1"):
            fn(*self.ARGS, 1.0, steps)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    @pytest.mark.parametrize("fn", [flow_matrix_element_fixed, flow_matrix_element])
    def test_non_finite_t_raises(self, fn, t):
        steps = (64,) if fn is flow_matrix_element_fixed else ()
        with pytest.raises(ValueError, match="finite t >= 0"):
            fn(*self.ARGS, t, *steps)

    @pytest.mark.parametrize("m, f_channels, g_channels", [(3, 7, 1), (1, 1, 2)])
    @pytest.mark.parametrize("fn", [flow_matrix_element_fixed, flow_matrix_element])
    def test_channel_counts_checked(self, fn, m, f_channels, g_channels):
        # At m = 3, f on 7 channels and g on 1 give (1 + 7)(1 + 1) = (1 + m)^2
        # hat pairs, so the rates once ran and returned a value that meant
        # nothing; other counts died in a bare numpy reshape.
        model = random_model(np.random.default_rng(3), 2, m, 1.0)
        f, g = (_tf([0.0, 0.5, 1.0], np.full((3, c), 0.1)) for c in (f_channels, g_channels))
        steps = (64,) if fn is flow_matrix_element_fixed else ()
        bad = f_channels if f_channels != m else g_channels
        with pytest.raises(ValueError, match=f"test function on {bad} channels, expected {m}"):
            fn(model, P1, [1.0, 0.0], [0.0, 1.0], f, g, 1.0, *steps)


class TestRefinement:
    def _record(self, monkeypatch, value_of_steps):
        calls = []

        def fake(model, x, u, v, f, g, t, steps):
            calls.append(steps)
            return value_of_steps(steps)

        monkeypatch.setattr(oracle, "flow_matrix_element_fixed", fake)
        return calls

    def _flow(self, scale=1.0):
        zero = TestFunction.zero(1)
        return flow_matrix_element(amplitude_damping(), P1, [scale, 0], [scale, 0], zero, zero, 1.0)

    def test_last_pass_capped(self, monkeypatch):
        # The chain always starts at BASE_STEPS: below it two passes can give
        # every piece the same steps, so that their difference reads 0.
        calls = self._record(monkeypatch, float)  # never converges
        with pytest.raises(OracleRefinementError) as err:
            self._flow()
        assert max(calls) == oracle.MAX_STEPS
        assert calls == [oracle.BASE_STEPS * 2**k for k in range(len(calls))]
        assert err.value.residual == oracle.MAX_STEPS / 2

    def test_tolerance_relative_to_value(self, monkeypatch):
        # The tolerance is tol * S with S = ||x|| ||u|| ||v|| exp((||f||^2 +
        # ||g||^2) / 2) >= |m_t|, here 2^40 with u = v = 2^20 e_0.  Passes k
        # and 2k differ by 15 * 2^13 / k, so ESTIMATE_MARGIN = 4 times the
        # estimate of the error of pass 2k is 2^15 / k.  That first falls to
        # tol * S = 110 at k = 512 for tol = 1e-10, and to 1100 at k = 32 for
        # tol = 1e-9; the pass of 2k steps is returned as it is.
        calls = self._record(monkeypatch, lambda steps: 2.0**40 + 15 * 2.0**14 / steps)
        assert oracle.REFINEMENT_TOL == 1e-10
        assert self._flow(scale=2.0**20) == 2.0**40 + 240.0
        assert calls == [16 * 2**k for k in range(7)]
        calls.clear()
        monkeypatch.setattr(oracle, "REFINEMENT_TOL", 1e-9)
        assert self._flow(scale=2.0**20) == 2.0**40 + 3840.0
        assert calls == [16, 32, 64]

    @settings(max_examples=20, deadline=None)
    @given(d=st.integers(1, 4), m=st.integers(1, 2), which=st.sampled_from([0, 1, 2]),
           power=st.sampled_from([-20, 10]), seed=st.integers(0, 2**32 - 1))
    def test_scaling_an_input_scales_the_value_exactly(self, d, m, which, power, seed):
        # A power of two scales x, u or v exactly in floating point, and with it
        # the value and S, so the passes stay the same and the value scales exactly.
        rng = np.random.default_rng(seed)
        model = random_model(rng, d, m, float(rng.uniform(0.1, 2.0)))
        f, g = (_tf(np.sort(rng.uniform(0.0, 1.0, 3)), 0.5 * _rand_x(rng, 3)[:, :m]) for _ in range(2))
        xuv = [_rand_x(rng, d), _rand_x(rng, d)[0], _rand_x(rng, d)[0]]
        scaled = list(xuv)
        scaled[which] = 2.0**power * xuv[which]
        fixed = oracle.flow_matrix_element_fixed
        runs = []
        with pytest.MonkeyPatch.context() as patch:
            for args in (xuv, scaled):
                calls = []
                patch.setattr(oracle, "flow_matrix_element_fixed",
                              lambda *a, calls=calls: calls.append(a[-1]) or fixed(*a))
                runs.append((flow_matrix_element(model, *args, f, g, 1.0), calls))
        (want, want_calls), (got, got_calls) = runs
        assert got_calls == want_calls
        assert got == 2.0**power * want


def _study_input(seed, d, m, support):
    """Inputs in the shape of the benchmark's convergence studies: ||R|| = ||x|| = 1,
    unit u and v, and f, g on 4 knots in ``support`` with values of size 0.25."""
    rng = np.random.default_rng(seed)
    model = random_model(rng, d, m, 1.0)
    x = _rand_x(rng, d)
    u, v = (w / np.linalg.norm(w) for w in _rand_x(rng, d)[:2])
    fns = []
    for _ in range(2):
        knots = np.concatenate([[support[0]], np.sort(rng.uniform(*support, 2)), [support[1]]])
        vals = 0.25 * _rand_x(rng, max(4, m))[:4, :m] / np.sqrt(m)
        if support != (0.0, 1.0):
            vals[[0, -1]] = 0.0
        fns.append(_tf(knots, vals))
    return model, x / op_norm(x), u, v, *fns


def _jump_input():
    """g jumps from 0 to 0.2i at 0.2, where its support starts."""
    model = random_model(np.random.default_rng(3), 2, 1, 1.0)
    f = _tf([0.0, 0.4, 1.0], [[0.0], [0.3 - 0.1j], [0.1]])
    g = _tf([0.2, 0.7], [[0.2j], [0.0]])
    return model, np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 0.0]), np.array([0.6, 0.8]), f, g


def _scale(model, x, u, v, f, g):
    """S = ||x|| ||u|| ||v|| exp((||f||^2 + ||g||^2) / 2) over [0, 1]."""
    return (op_norm(x) * np.linalg.norm(u) * np.linalg.norm(v)
            * np.exp((f.l2_norm_sq(0.0, 1.0) + g.l2_norm_sq(0.0, 1.0)) / 2))


def _exact_flow(model, x, u, v, f, g, t):
    """m_t(x) for f and g constant on their supports, with no RK4.

    The rate is then constant on each piece between the breakpoints, so the
    backward flow is one expm per piece, latest first, of the d^2 x d^2 matrix
    of Y -> sum_i R_i* Y R_i - {R*R, Y}/2 + sum_i [conj(g_i)(Y R_i - R_i Y)
    + f_i(R_i* Y - Y R_i*)] + <g, f> Y on row-major vec(Y), written from R
    with kron (vec(A Y B) = (A kron B^T) vec(Y)).
    """
    d, one = model.d, np.eye(model.d)
    RdR = model.RdR
    edges = np.unique(np.concatenate([[0.0, t], f.breakpoints, g.breakpoints]))
    edges = edges[edges <= t]
    y = np.asarray(x, dtype=complex).reshape(-1)
    for a, b in zip(edges[-2::-1], edges[:0:-1]):
        fv, gv = f((a + b) / 2), g((a + b) / 2)
        gen = np.vdot(gv, fv) * np.eye(d * d) - (np.kron(RdR, one) + np.kron(one, RdR.T)) / 2
        for i, Ri in enumerate(model.channels):
            gen += np.kron(Ri.conj().T, Ri.T)
            gen += np.conj(gv[i]) * (np.kron(one, Ri.T) - np.kron(Ri, one))
            gen += fv[i] * (np.kron(Ri.conj().T, one) - np.kron(one, Ri.conj()))
        y = scipy.linalg.expm((b - a) * gen) @ y
    return complex(np.vdot(v, y.reshape(d, d) @ u))


class TestAccuracyContract:
    # flow_matrix_element returns a pass within REFINEMENT_TOL * S of the flow,
    # and the estimate it accepts on, |Y_2k - Y_k| / 15, reads the error of
    # pass 2k.  The reference is a 4096-step pass, within about 1e-13 of an
    # 8192-step one.
    CASES = {**{f"study-d4-seed{seed}": (seed, 4, 2, (0.1, 0.6)) for seed in range(1, 11)},
             "study-d16": (1, 16, 3, (0.0, 1.0)), "jump": None}

    @pytest.mark.parametrize("case", list(CASES))
    def test_error_within_tol_times_scale(self, case, monkeypatch):
        args = _jump_input() if self.CASES[case] is None else _study_input(*self.CASES[case])
        scale = _scale(*args)
        fixed = oracle.flow_matrix_element_fixed
        ref = fixed(*args, 1.0, 4096)
        passes = []
        monkeypatch.setattr(oracle, "flow_matrix_element_fixed",
                            lambda *a: passes.append(fixed(*a)) or passes[-1])
        for tol in (1e-8, 1e-10, 1e-12):
            passes.clear()
            monkeypatch.setattr(oracle, "REFINEMENT_TOL", tol)
            value = flow_matrix_element(*args, 1.0)
            err, estimate = abs(value - ref), abs(passes[-1] - passes[-2]) / 15
            assert err <= tol * scale, (tol, err, scale)
            margin = oracle.ESTIMATE_MARGIN
            assert 1 / margin <= estimate / err <= margin, (tol, estimate, err)

    @pytest.mark.parametrize("d, m", [(2, 1), (3, 2), (4, 2)])
    def test_constant_pieces_match_exact_flow(self, d, m):
        # f and g constant on overlapping sub-intervals make the rate constant
        # on five pieces, so the flow is a product of five exponentials: a
        # reference free of RK4 and of structure_factors, with <g, f> != 0 on [0.4, 0.7].
        model, x, u, v, *_ = _study_input(d, d, m, (0.0, 1.0))
        fv, gv = 0.5 * _rand_x(np.random.default_rng(d), 2)[:, :m]
        args = (model, x, u, v, TestFunction.constant(fv, 0.2, 0.7),
                TestFunction.constant(gv, 0.4, 0.9))
        err = abs(flow_matrix_element(*args, 1.0) - _exact_flow(*args, 1.0))
        assert err <= oracle.REFINEMENT_TOL * _scale(*args), err / _scale(*args)

    def test_start_of_one_step_with_short_pieces(self):
        # Kinks at 0.3 and 0.6 leave every piece at most t / 2 long, so passes
        # of 1 and 2 steps would both give each piece one step and agree
        # exactly; from its start at BASE_STEPS the chain must reach the contract.
        args = _study_input(2, 4, 2, (0.0, 1.0))
        f = _tf([0.0, 0.3, 0.6, 1.0], [[0.2, -0.1j], [0.1j, 0.2], [-0.2, 0.1], [0.1, 0.0]])
        args = (*args[:4], f, f)
        ref = flow_matrix_element_fixed(*args, 1.0, 4096)
        value = flow_matrix_element(*args, 1.0)
        assert abs(value - ref) <= oracle.REFINEMENT_TOL * _scale(*args)


class TestWeakFunctional:
    def test_initial_value(self):
        # At t = 0 the weak functional of the flow is exactly <v, x u>.
        u, v = np.array([1.0, 2.0j]), np.array([0.5, -1.0])
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        zero = TestFunction.zero(1)
        got = flow_matrix_element(amplitude_damping(1.0), x, u, v, zero, zero, 0.0)
        assert got == pytest.approx(np.vdot(v, x @ u))


def _vacuum_pair(model, x, u, v, h, n):
    """Walk vs exact semigroup on vacuum vectors: (walk, <v, T_nh(x) u>, |difference|)."""
    zero = TestFunction.zero(model.m)
    walk = walk_matrix_element(model, x, u, v, zero, zero, h, n)
    exact = complex(np.vdot(v, semigroup(model, x, n * h) @ np.asarray(u, dtype=complex)))
    return walk, exact, abs(walk - exact)


class TestVacuumCheck:
    def test_zero_noise_exact(self):
        model = random_model(np.random.default_rng(17), 2, 1, 0.0)
        x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        walk, exact, err = _vacuum_pair(model, x, [1, 0], [0, 1], 0.125, 8)
        assert err <= 1e-13

    def test_amplitude_damping_converges(self):
        model = amplitude_damping(1.0)
        u = v = np.array([1.0, 1.0]) / np.sqrt(2)
        exact_want = np.exp(-1.0) * np.vdot(v, P1 @ u)
        errs = []
        for n in (4, 8, 16):
            walk, exact, err = _vacuum_pair(model, P1, u, v, 1.0 / n, n)
            assert exact == pytest.approx(exact_want, abs=1e-12)
            errs.append(err)
        assert errs[0] > errs[1] > errs[2]
        # first-order composition: halving h roughly halves the error
        assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.3)
        assert errs[1] / errs[2] == pytest.approx(2.0, abs=0.3)


class TestFineWalkReference:
    # The walk itself at a far finer step than any study uses, as an alternate oracle.
    def test_zero_noise_matches_closed_form(self):
        model = random_model(np.random.default_rng(19), 2, 1, 0.0)
        f = _tf([0.0, 0.5, 1.0], [[0.0], [0.5], [0.0]])
        u, v = np.array([1.0, 0.0]), np.array([1.0, 0.0])
        x = np.eye(2, dtype=complex)
        got = walk_matrix_element(model, x, u, v, f, f, 2.0**-10, 2**10)
        # product over slots of (1 + |F_k|^2) approaches exp(||f||^2)
        assert got.real == pytest.approx(np.exp(f.l2_norm_sq(0.0, 1.0)), abs=2e-3)

    def test_vacuum_agrees_with_semigroup_oracle(self):
        model = amplitude_damping(1.0)
        u = v = np.array([1.0, 1.0]) / np.sqrt(2)
        zero = TestFunction.zero(1)
        got = walk_matrix_element(model, P1, u, v, zero, zero, 2.0**-10, 2**10)
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
            abs(walk_matrix_element(model, x, u, v, f, g, 2.0**-k, 2**k) - ode)
            for k in (8, 10, 12)
        ]
        assert gaps[0] > gaps[1] > gaps[2]
