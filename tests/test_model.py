"""Tests for the GKSL model: generator, step unitary, step homomorphism."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import expm

from qrw.linalg import dagger, flat, op_norm, step_maps, unflat
from qrw.model import (
    PARTS,
    GkslModel,
    StepKernel,
    ampliation,
    beta,
    beta_blocks,
    beta_factors,
    defect,
    random_model,
    step_leg_outputs,
    structure_maps,
    trig_estimates,
)
from reference import amplitude_damping, lindblad_superoperator, semigroup, weak_generator

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
P1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)  # |1><1|
LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0><1|


def _rand_x(rng, d):
    return (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)


def _sample_models(seed=2024, count=50, max_d=4, max_m=3, max_norm=2.0):
    rng = np.random.default_rng(seed)
    models = []
    for _ in range(count):
        d = int(rng.integers(1, max_d + 1))
        m = int(rng.integers(1, max_m + 1))
        norm = float(rng.uniform(0.2, max_norm))
        models.append(random_model(rng, d, m, norm))
    return models


def _from_parts(vacuum, annihilation, creation, conservation):
    """The (1+m, 1+m, d, d) blocks whose map-form parts, ``flat`` of ``PARTS``, are these."""
    d = len(vacuum)
    m = len(creation) // d
    blocks = np.zeros((1 + m, 1 + m, d, d), dtype=complex)
    for part, value in zip(PARTS, (vacuum, annihilation, creation, conservation)):
        blocks[part] = unflat(value, d)
    return blocks


def _parts(blocks):
    """(vacuum, annihilation, creation, conservation): ``flat`` of each of ``PARTS``."""
    return [flat(blocks[part]) for part in PARTS]


class TestFlat:
    def test_flat_block_round_trip_exact(self):
        rng = np.random.default_rng(0)
        d, m = 3, 2
        blocks = rng.standard_normal((1 + m, 1 + m, d, d)) + 1j * rng.standard_normal(
            (1 + m, 1 + m, d, d)
        )
        # flat[a(1+m)+j, b(1+m)+j'] = blocks[j, j', a, b]
        back = flat(blocks).reshape(d, 1 + m, d, 1 + m).transpose(1, 3, 0, 2)
        assert np.array_equal(back, blocks)
        assert np.array_equal(unflat(flat(blocks), d), blocks)

    def test_parts_round_trip_exact(self):
        # The map-form parts carry the noise flattening: system a, channel i
        # at row (or column) a*m + i.
        rng = np.random.default_rng(1)
        d, m = 2, 3
        blocks = rng.standard_normal((1 + m, 1 + m, d, d)) + 0j
        vac, ann, cre, con = _parts(blocks)
        assert np.array_equal(vac, blocks[0, 0])
        assert np.array_equal(ann.reshape(d, d, m).transpose(2, 0, 1), blocks[0, 1:])
        assert np.array_equal(cre.reshape(d, m, d).transpose(1, 0, 2), blocks[1:, 0])
        assert np.array_equal(con.reshape(d, m, d, m).transpose(1, 3, 0, 2), blocks[1:, 1:])
        # _from_parts takes the parts in PARTS order.
        assert np.array_equal(_from_parts(vac, ann, cre, con), blocks)

    def test_flat_matches_kron_convention(self):
        # b(x) = x (x) 1 must flatten to np.kron(x, eye(1+m)).
        model = amplitude_damping(1.0)
        x = SIGMA_X
        assert_allclose(flat(ampliation(model, x)), np.kron(x, np.eye(2)), atol=0)


class TestRandomModel:
    @pytest.mark.parametrize("norm", [-1.0, float("nan")])
    def test_invalid_norm_raises(self, norm):
        with pytest.raises(ValueError, match="norm"):
            random_model(np.random.default_rng(0), 2, 1, norm)


class TestLindblad:
    def test_conservative(self):
        for model in _sample_models(count=10):
            assert op_norm(structure_maps(model, np.eye(model.d))[0, 0]) <= 1e-13

    def test_scalar_system(self):
        model = random_model(np.random.default_rng(5), 1, 2, 1.5)
        assert op_norm(structure_maps(model, np.array([[2.0 + 1j]]))[0, 0]) <= 1e-13

    def test_amplitude_damping_decay(self):
        # By hand: sigma+ x sigma- = 0 and R*R = |1><1|, so L(x) = -x.
        model = amplitude_damping(1.0)
        assert_allclose(structure_maps(model, P1)[0, 0], -P1, atol=1e-14)

    def test_hermiticity_preserved(self):
        rng = np.random.default_rng(7)
        for model in _sample_models(count=8):
            x = _rand_x(rng, model.d)
            lx = structure_maps(model, x)[0, 0]
            lxs = structure_maps(model, dagger(x))[0, 0]
            assert op_norm(lxs - dagger(lx)) <= 1e-12 * max(1.0, op_norm(lx))

    def test_linear(self):
        rng = np.random.default_rng(9)
        model = _sample_models(count=1)[0]
        x, y = _rand_x(rng, model.d), _rand_x(rng, model.d)
        a = 0.3 - 1.2j
        assert op_norm(
            structure_maps(model, a * x + y)[0, 0] - a * structure_maps(model, x)[0, 0]
            - structure_maps(model, y)[0, 0]
        ) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            structure_maps(amplitude_damping(), np.eye(3))


class TestStructureMaps:
    def test_identity_gives_zero(self):
        model = amplitude_damping(1.0)
        assert op_norm(flat(structure_maps(model, np.eye(2)))) <= 1e-13

    def test_zero_noise(self):
        model = GkslModel(d=2, m=1, R=np.zeros((2, 2)))
        assert op_norm(flat(structure_maps(model, SIGMA_X))) == 0.0

    def test_amplitude_damping_blocks(self):
        # delta(x) = (x (x) 1)R - Rx = -|0><1| for x = |1><1|, R = |0><1|.
        model = amplitude_damping(1.0)
        vacuum, _, creation, _ = _parts(structure_maps(model, P1))
        assert_allclose(creation, -LOWER, atol=1e-14)
        assert_allclose(vacuum, -P1, atol=1e-14)

    def test_self_adjointness_relation(self):
        rng = np.random.default_rng(11)
        for model in _sample_models(count=6):
            x = _rand_x(rng, model.d)
            lhs = flat(structure_maps(model, dagger(x)))
            rhs = dagger(flat(structure_maps(model, x)))
            assert op_norm(lhs - rhs) <= 1e-12 * max(1.0, op_norm(lhs))


def _reference_structure_maps(model, x):
    """Theta(x) written with kron: L(x) = R*(x (x) 1)R - (1/2){R*R, x},
    delta(x) = (x (x) 1)R - Rx and delta_dag(x) = R*(x (x) 1) - xR*."""
    R, Rd = model.R, dagger(model.R)
    amp = np.kron(x, np.eye(model.m))
    dm = model.d * model.m
    return _from_parts(
        vacuum=Rd @ amp @ R - 0.5 * (model.RdR @ x + x @ model.RdR),
        creation=amp @ R - R @ x,
        annihilation=Rd @ amp - x @ Rd,
        conservation=np.zeros((dm, dm), dtype=complex),
    )


class TestStructureRelations:
    # The Evans-Hudson structure relations the convergence theorem assumes,
    # and the sandwich form of Theta against its kron form.
    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 4), m=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_structure_relations(self, d, m, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, d, m, float(rng.uniform(0.1, 2.0)))
        x, y = _rand_x(rng, d), _rand_x(rng, d)
        scale = max(1.0, model.norm_R**2 * op_norm(x) * op_norm(y))
        # The parts of Theta are (L, delta_dag, delta, 0).
        xs = dagger(x)
        _, dd_x, d_x, _ = _parts(structure_maps(model, x))
        l_y, _, d_y, _ = _parts(structure_maps(model, y))
        l_xs, _, d_xs, _ = _parts(structure_maps(model, xs))
        # L(x*y) - x*L(y) - L(x*)y = delta(x)* delta(y)
        lhs = _parts(structure_maps(model, xs @ y))[0] - xs @ l_y - l_xs @ y
        assert op_norm(lhs - dagger(d_x) @ d_y) <= 1e-13 * scale
        # delta(xy) = delta(x) y + (x (x) 1) delta(y)
        lhs = _parts(structure_maps(model, x @ y))[2]
        rhs = d_x @ y + np.kron(x, np.eye(m)) @ d_y
        assert op_norm(lhs - rhs) <= 1e-13 * scale
        # delta_dag(x) = delta(x*)* and Theta(x*) = Theta(x)*
        assert op_norm(dd_x - dagger(d_xs)) <= 1e-13 * scale
        th = flat(structure_maps(model, x))
        assert op_norm(flat(structure_maps(model, xs)) - dagger(th)) <= 1e-13 * scale

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 4), m=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_matches_kron_reference(self, d, m, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, d, m, float(rng.uniform(0.1, 2.0)))
        x = _rand_x(rng, d)
        ref = _reference_structure_maps(model, x)
        # Roundoff scale of the terms, not of Theta itself, which may cancel.
        scale = max(1.0, (model.norm_R + model.norm_R**2) * op_norm(x))
        assert op_norm(flat(structure_maps(model, x)) - flat(ref)) <= 1e-15 * scale
        vacuum, annihilation, creation, _ = _parts(ref)
        got_vacuum, got_annihilation, got_creation, _ = _parts(structure_maps(model, x))
        assert op_norm(got_vacuum - vacuum) <= 1e-15 * scale
        assert op_norm(got_creation - creation) <= 1e-15 * scale
        assert op_norm(got_annihilation - annihilation) <= 1e-15 * scale
        gv = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        fv = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        ghat, fhat = np.append(1.0, gv), np.append(1.0, fv)
        want = np.einsum("j,k,jkab->ab", ghat.conj(), fhat, ref)
        got = weak_generator(model, x, gv, fv)
        hats = np.linalg.norm(ghat) * np.linalg.norm(fhat)
        assert op_norm(got - want) <= 1e-15 * hats * scale


class TestThetaH:
    # Theta(h, x), the parts of Theta(x) scaled by h, sqrt(h), sqrt(h), 1,
    # lives inside defect; these tests read it back out of E(h, x).
    def test_h_zero(self):
        # E(h, x) carries h^-(1+eps), which is singular at h = 0.
        with pytest.raises(ValueError):
            defect(amplitude_damping(1.0), SIGMA_X, 0.0)

    def test_h_one_matches_structure_maps(self):
        model = amplitude_damping(1.0)
        e_op, _ = defect(model, SIGMA_X, 1.0)
        theta = flat(beta(model, SIGMA_X, 1.0)) - flat(ampliation(model, SIGMA_X)) - flat(e_op)
        assert_allclose(theta, flat(structure_maps(model, SIGMA_X)), atol=0)

    def test_sqrt_scaling(self):
        model = amplitude_damping(1.0)
        h = 0.04
        th = _parts(structure_maps(model, SIGMA_X))
        e_op, _ = defect(model, SIGMA_X, h)
        bet, amp, e_op = (_parts(X) for X in (beta(model, SIGMA_X, h),
                                              ampliation(model, SIGMA_X), e_op))
        # Undo E's h^-(1+eps): h^2 on the vacuum part, h^(3/2) on the others.
        creation = bet[2] - amp[2] - h**1.5 * e_op[2]
        vacuum = bet[0] - amp[0] - h**2 * e_op[0]
        assert_allclose(creation, 0.2 * th[2], atol=1e-15)
        assert_allclose(vacuum, 0.04 * th[0], atol=1e-15)

    def test_negative_h_rejected(self):
        with pytest.raises(ValueError):
            defect(amplitude_damping(), SIGMA_X, -0.1)


class TestUnitaryStep:
    def test_zero_noise_identity(self):
        model = GkslModel(d=2, m=2, R=np.zeros((4, 2)))
        assert_allclose(flat(StepKernel.build(model, 0.5).U), np.eye(6), atol=1e-14)

    def test_scalar_closed_form(self):
        # d = m = 1, R = [r]: a plane rotation by sqrt(h) r.
        model = GkslModel(d=1, m=1, R=np.array([[1.0]]))
        U = flat(StepKernel.build(model, 0.25).U)
        want = np.array([[0.87758, -0.47943], [0.47943, 0.87758]])
        assert_allclose(U, want, atol=1e-5)

    def test_small_h_series(self):
        rng = np.random.default_rng(13)
        model = random_model(rng, 3, 2, 1.7)
        h = 1e-8
        rtilde = flat(_from_parts(
            vacuum=np.zeros((3, 3)),
            creation=model.R,
            annihilation=-dagger(model.R),
            conservation=np.zeros((6, 6)),
        ))
        gap = op_norm(flat(StepKernel.build(model, h).U) - np.eye(9) - np.sqrt(h) * rtilde)
        assert gap <= h * model.norm_R**2

    @pytest.mark.parametrize("h", [1.0, 0.1, 0.01, 1e-4])
    def test_unitarity_and_exponential_agreement(self, h):
        for model in _sample_models(count=12):
            U = flat(StepKernel.build(model, h).U)
            n = model.d * (1 + model.m)
            assert op_norm(dagger(U) @ U - np.eye(n)) <= 1e-10
            rtilde = flat(_from_parts(
                vacuum=np.zeros((model.d, model.d)),
                creation=model.R,
                annihilation=-dagger(model.R),
                conservation=np.zeros((model.d * model.m, model.d * model.m)),
            ))
            assert op_norm(U - expm(np.sqrt(h) * rtilde)) <= 1e-9

    @pytest.mark.parametrize("h", [1.0, 0.1, 0.01, 1e-4])
    def test_trig_estimates(self, h):
        for model in _sample_models(count=12):
            for name, (lhs, bound) in trig_estimates(model, h).items():
                assert lhs <= bound, f"{name} violated at h={h}: {lhs} > {bound}"

    def test_second_order_bound_is_within_reach(self):
        # Witness for ||C - 1 + (h/2)|R|^2|| <= h^2 ||R||^4: here lhs/bound is
        # the Taylor coefficient 1/24 to 1%, 0.0413, and a 10x looser bound reads 0.0041.
        lhs, bound = trig_estimates(amplitude_damping(1.0), 0.25)["cos_sys_second_order"]
        assert lhs / bound >= 1 / 48

    @pytest.mark.parametrize("name, floor", [
        ("cos_sys_first_order", 0.25), ("cos_env_first_order", 0.25), ("sinc_first_order", 1 / 12),
        ("cos_sys_contraction", 0.5), ("sinc_contraction", 0.5),
    ])
    def test_five_bounds_are_within_reach(self, name, floor):
        # Witnesses for the other five bounds: at h = 0.01 lhs/bound reads
        # 0.50 (C - 1 and C' - 1, the Taylor coefficient 1/2), 0.167 (D - 1,
        # 1/6) and 1.0 (||C|| and ||D||, attained at R's kernel), so a 10x
        # looser bound reads 0.050, 0.0167 or 0.10, below each floor.
        lhs, bound = trig_estimates(amplitude_damping(1.0), 0.01)[name]
        assert lhs / bound >= floor


class TestBeta:
    def test_unital(self):
        model = amplitude_damping(0.7)
        assert_allclose(flat(beta(model, np.eye(2), 0.3)), np.eye(4), atol=1e-12)

    def test_zero_noise(self):
        model = GkslModel(d=2, m=1, R=np.zeros((2, 2)))
        assert_allclose(flat(beta(model, SIGMA_X, 0.5)), np.kron(SIGMA_X, np.eye(2)), atol=1e-14)

    def test_scalar_observable_commutes(self):
        rng = np.random.default_rng(17)
        model = random_model(rng, 1, 2, 1.3)
        x = np.array([[0.4 - 2.2j]])
        assert_allclose(flat(beta(model, x, 0.7)), x[0, 0] * np.eye(3), atol=1e-12)

    def test_closed_form_matches_conjugation(self):
        rng = np.random.default_rng(19)
        for model in _sample_models(count=10):
            for h in (1.0, 0.05, 1e-3):
                x = _rand_x(rng, model.d)
                U = flat(StepKernel.build(model, h).U)
                direct = dagger(U) @ np.kron(x, np.eye(1 + model.m)) @ U
                assert op_norm(flat(beta(model, x, h)) - direct) <= 1e-10

    def test_star_homomorphism(self):
        rng = np.random.default_rng(23)
        for model in _sample_models(count=10):
            h = float(rng.choice([1.0, 0.2, 0.01]))
            x, y = _rand_x(rng, model.d), _rand_x(rng, model.d)
            bx, by, bxy = (flat(beta(model, z, h)) for z in (x, y, x @ y))
            assert op_norm(bxy - bx @ by) <= 1e-10
            assert op_norm(flat(beta(model, dagger(x), h)) - dagger(bx)) <= 1e-10

    def test_block_relations(self):
        # The five block-level identities equivalent to beta being a
        # *-homomorphism, checked part-wise.
        rng = np.random.default_rng(29)
        for model in _sample_models(count=8):
            h = float(rng.choice([0.5, 0.04]))
            x, y = _rand_x(rng, model.d), _rand_x(rng, model.d)
            # The (vacuum, annihilation, creation, conservation) parts of each.
            (vx, ax, cx, kx), (vy, ay, cy, ky), (vxy, axy, cxy, kxy), (vs, _, cs, ks) = (
                _parts(beta(model, z, h)) for z in (x, y, x @ y, dagger(x)))
            res = [
                op_norm(vs - dagger(vx)),
                op_norm(ks - dagger(kx)),
                op_norm(cs - dagger(ax)),
                op_norm(vxy - vx @ vy - ax @ cy),
                op_norm(axy - vx @ ay - ax @ ky),
                op_norm(cxy - cx @ vy - kx @ cy),
                op_norm(kxy - cx @ ay - kx @ ky),
            ]
            assert max(res) <= 1e-10

    def test_contraction(self):
        rng = np.random.default_rng(31)
        for model in _sample_models(count=8):
            x = _rand_x(rng, model.d)
            assert op_norm(flat(beta(model, x, 0.3))) <= op_norm(x) * (1 + 1e-9)

    @settings(max_examples=80, deadline=None)
    @given(
        d=st.integers(1, 5),
        m=st.integers(1, 3),
        h=st.floats(1e-4, 2.0),
        batch=st.integers(1, 3),
        corruption=st.sampled_from([1e-3, -0.4]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocks_property(self, d, m, h, batch, corruption, seed):
        # beta_blocks is the conjugation by U(h), a unital *-homomorphism on
        # batches, and the corruption hook moves only the vacuum block.
        rng = np.random.default_rng(seed)
        model = random_model(rng, d, m, float(rng.uniform(0.0, 2.0)))
        kernel = StepKernel.build(model, h)
        xs = np.stack([_rand_x(rng, d) for _ in range(batch)])
        ys = np.stack([_rand_x(rng, d) for _ in range(batch)])
        bx, by = beta_blocks(kernel, xs), beta_blocks(kernel, ys)
        bxy = beta_blocks(kernel, xs @ ys)
        bxs = beta_blocks(kernel, xs.conj().transpose(0, 2, 1))
        U = flat(kernel.U)
        for i, (x, y) in enumerate(zip(xs, ys)):
            tol = 1e-10 * op_norm(x)
            direct = dagger(U) @ np.kron(x, np.eye(1 + m)) @ U
            assert op_norm(flat(bx[i]) - direct) <= tol
            product = np.einsum("jkab,klbc->jlac", bx[i], by[i])
            assert op_norm(flat(bxy[i] - product)) <= tol * op_norm(y)
            adjoint = bx[i].conj().transpose(1, 0, 3, 2)
            assert op_norm(flat(bxs[i] - adjoint)) <= tol
        one = beta_blocks(kernel, np.eye(d))
        assert op_norm(flat(one) - np.eye(d * (1 + m))) <= 1e-10
        bad = GkslModel(d=d, m=m, R=model.R, beta_corruption=corruption)
        shift = beta_blocks(StepKernel.build(bad, h), xs) - bx
        moved = np.zeros((1 + m, 1 + m), dtype=bool)
        moved[0, 0] = True
        assert not np.any(shift[:, ~moved])
        for x, s00 in zip(xs, shift[:, 0, 0]):
            assert op_norm(s00 - corruption * x) <= 1e-10 * op_norm(x)

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(1, 5),
        m=st.integers(1, 3),
        h=st.floats(1e-4, 2.0),
        batch=st.integers(1, 3),
        corruption=st.sampled_from([0.0, -0.4]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_step_leg_outputs_contract_beta_blocks(self, d, m, h, batch, corruption, seed):
        # step_leg_outputs contracts beta's table with fhat before it applies
        # the 1+m legs; that equals all (1+m)^2 blocks contracted with fhat.
        rng = np.random.default_rng(seed)
        R = random_model(rng, d, m, float(rng.uniform(0.0, 2.0))).R
        kernel = StepKernel.build(GkslModel(d=d, m=m, R=R, beta_corruption=corruption), h)
        ys = np.stack([_rand_x(rng, d) for _ in range(batch)])
        fhat = np.append(1.0, _rand_x(rng, m)[0])
        want = np.einsum("...jkab,k->...jab", beta_blocks(kernel, ys), fhat)
        got = step_leg_outputs(kernel, ys, fhat)
        assert got.shape == (batch, 1 + m, d, d)
        scale = (1 + m) * (1 + abs(corruption)) * np.linalg.norm(ys) * np.linalg.norm(fhat)
        assert np.linalg.norm(got - want) <= 1e-13 * scale

    def test_corruption_hook_breaks_homomorphism(self):
        base = amplitude_damping(1.0)
        bad = GkslModel(d=2, m=1, R=base.R, beta_corruption=1e-6)
        x = SIGMA_X
        bx = flat(beta(bad, x, 0.1))
        bxx = flat(beta(bad, x @ x, 0.1))
        assert op_norm(bxx - bx @ bx) > 1e-8


class TestDefect:
    def test_zero_noise_exact(self):
        model = GkslModel(d=2, m=1, R=np.zeros((2, 2)))
        e_op, report = defect(model, SIGMA_X, 0.1)
        assert op_norm(flat(e_op)) == 0.0
        assert report.passed

    def test_identity_observable(self):
        model = amplitude_damping(1.0)
        _, report = defect(model, np.eye(2), 0.1)
        assert max(report.raw) <= 1e-12
        assert report.passed

    def test_bounds_and_scaling(self):
        # Flag true on the damping model, and the vacuum-block defect norm
        # scales like h^2 (log-log slope from least squares).
        model = GkslModel(d=2, m=1, R=LOWER)
        hs = np.array([1.0, 0.1, 0.01])
        raws = []
        for h in hs:
            _, report = defect(model, SIGMA_X, float(h))
            assert report.passed
            raws.append(report.raw)
        raws = np.array(raws)
        slope = np.polyfit(np.log(hs), np.log(raws[:, 0]), 1)[0]
        assert abs(slope - 2.0) <= 0.2

    def test_bounds_random_sample(self):
        for model in _sample_models(count=10):
            rng = np.random.default_rng(37)
            x = _rand_x(rng, model.d)
            for h in (1.0, 0.1, 0.01, 1e-4):
                _, report = defect(model, x, h)
                assert report.passed, (model.d, model.m, h, report.raw, report.bounds)

    def test_bound_is_within_reach(self):
        # Witness for the constant 5(||R||^2 + ||R||^3 + ||R||^4): on this input
        # the largest raw/bound reads 0.078, beyond what a 10x constant allows.
        rng = np.random.default_rng(3)
        model = random_model(rng, 2, 1, 1.0)
        _, report = defect(model, _rand_x(rng, 2), 0.01)
        assert max(r / b for r, b in zip(report.raw, report.bounds)) >= 0.03

    def test_corrupted_beta_fails(self):
        # Witness for the pass rule raw <= bound: a vacuum corruption of 0.1
        # reads raw/bound 2.68 there, which a 10x looser rule would pass.
        R = random_model(np.random.default_rng(0), 2, 1, 1.0).R
        model = GkslModel(d=2, m=1, R=R, beta_corruption=0.1)
        _, report = defect(model, np.array([[1, 0.5], [0.5j, -1]]), 0.05)
        assert not report.passed


class TestSemigroup:
    def test_t_zero(self):
        model = amplitude_damping(1.0)
        assert_allclose(semigroup(model, SIGMA_X, 0.0), SIGMA_X, atol=1e-14)

    def test_zero_noise_constant(self):
        model = GkslModel(d=2, m=2, R=np.zeros((4, 2)))
        assert_allclose(semigroup(model, SIGMA_X, 3.0), SIGMA_X, atol=1e-13)

    def test_amplitude_damping_closed_form(self):
        # L(x) = -x on x = |1><1| gives T_t(x) = e^-t x.
        model = amplitude_damping(1.0)
        assert_allclose(semigroup(model, P1, 1.0), np.exp(-1.0) * P1, atol=1e-10)

    def test_semigroup_law_and_unitality(self):
        rng = np.random.default_rng(41)
        for model in _sample_models(count=6):
            x = _rand_x(rng, model.d)
            s, t = 0.4, 0.9
            lhs = semigroup(model, semigroup(model, x, t), s)
            rhs = semigroup(model, x, s + t)
            assert op_norm(lhs - rhs) <= 1e-10 * max(1.0, op_norm(rhs))
            eye = np.eye(model.d)
            assert op_norm(semigroup(model, eye, t) - eye) <= 1e-10

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            semigroup(amplitude_damping(), SIGMA_X, -1.0)

    def test_superoperator_conservative(self):
        for model in _sample_models(count=8):
            vec_eye = np.eye(model.d, dtype=complex).reshape(-1)
            assert np.linalg.norm(lindblad_superoperator(model) @ vec_eye) <= 1e-12

    def test_superoperator_matches_lindblad(self):
        rng = np.random.default_rng(43)
        model = _sample_models(count=1)[0]
        x = _rand_x(rng, model.d)
        via_super = (lindblad_superoperator(model) @ x.reshape(-1)).reshape(model.d, model.d)
        assert op_norm(via_super - structure_maps(model, x)[0, 0]) <= 1e-12


def _two_eigh_unitary(model, h):
    """flat(U(h)) from eigendecompositions of both R*R and R R*: cos and sinc of
    sqrt(h)|R| on the system side, cos(sqrt(h)|R*|) decomposed on its own."""
    def trig(p):
        w, v = np.linalg.eigh(p)
        x = np.sqrt(h * np.clip(w, 0.0, None))
        safe = np.maximum(x, 1e-8)
        sinc = np.where(x < 1e-8, 1.0, np.sin(safe) / safe)
        return (v * np.cos(x)) @ dagger(v), (v * sinc) @ dagger(v)

    R = model.R
    cos_sys, sinc_sys = trig(dagger(R) @ R)
    cos_env, _ = trig(R @ dagger(R))
    rd = np.sqrt(h) * (R @ sinc_sys)
    return flat(_from_parts(cos_sys, -dagger(rd), rd, cos_env))


LADDER_STEPS = [1.0 / n for n in (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)]


class TestStepKernel:
    @pytest.mark.parametrize("d, m, norm, h", [
        (2, 2, 0.0, 0.5),     # R = 0: U(h) is the identity
        (2, 3, 1.3, 0.2),     # m > d: R R* has rank d < dm
        (1, 4, 2.0, 0.7),
        (3, 2, 4.0, 1.0),     # ||R|| sqrt(h) = 4 > pi
        (4, 1, 5.0, 0.5),     # ||R|| sqrt(h) = 3.5 > pi, m < d
        (4, 2, 1.0, 1e-4),
    ])
    def test_matches_two_eigendecompositions(self, d, m, norm, h):
        for seed in range(5):
            model = random_model(np.random.default_rng(seed), d, m, norm)
            got = flat(StepKernel.build(model, h).U)
            assert op_norm(got - _two_eigh_unitary(model, h)) <= 1e-14

    def test_one_eigendecomposition_per_model(self):
        # The ladder's nine kernels read the model's one spectrum of R*R: the
        # first build runs the one eigh, and no build runs an SVD (op_norm is
        # np.linalg.norm(., 2)).
        model = random_model(np.random.default_rng(61), 4, 2, 1.0)
        spies = {name: mock.patch.object(np.linalg, name, wraps=getattr(np.linalg, name))
                 for name in ("eigh", "svd", "norm")}
        with spies["eigh"] as eigh, spies["svd"] as svd, spies["norm"] as norm:
            StepKernel.build(model, LADDER_STEPS[0])
            assert eigh.call_count == 1
            for h in LADDER_STEPS[1:]:
                StepKernel.build(model, h)
            assert eigh.call_count == 1
            assert svd.call_count == 0 and norm.call_count == 0

    def test_batched_matches_single(self):
        rng = np.random.default_rng(47)
        model = _sample_models(count=1)[0]
        kernel = StepKernel.build(model, 0.2)
        xs = np.stack([_rand_x(rng, model.d) for _ in range(5)])
        batched = beta_blocks(kernel, xs)
        for i in range(5):
            single = beta(model, xs[i], 0.2)
            assert op_norm(flat(batched[i]) - flat(single)) <= 1e-13

    def test_factors_reuse_their_buffers(self):
        # The stepping engine forms every chunk's factors in one buffer of its
        # own, so the walk allocates nothing per chunk: beta_factors writes
        # into the out it is given, bit for bit what it forms afresh, and
        # every call of maps passes it the same memory.  A call with more rows
        # than any before grows the buffer.
        rng = np.random.default_rng(53)
        model = random_model(rng, 8, 2, 1.0)
        factors = beta_factors(StepKernel.build(model, 0.1))
        outs = []

        def spy(ghat, fhat, out=None):
            outs.append(out)
            return factors(ghat, fhat, out)

        def hats(rows):
            return tuple(np.hstack([np.ones((rows, 1)), _rand_x(rng, max(rows, 2))[:rows, :2]])
                         for _ in range(2))

        maps, _, _, shape, rows = step_maps(spy, 3, 1, 1)
        assert shape == (8, 8) and rows > 9
        outs.clear()
        units = np.eye(3)
        pairs = units.repeat(3, axis=0), np.tile(units, (3, 1))
        for chunk in (hats(2), pairs, hats(rows), hats(rows), hats(3)):
            maps(*chunk)
            out = outs[-1]
            assert out.shape == (2, len(chunk[0]), 8, 24)
            for got, want, part in zip(factors(*chunk, out), factors(*chunk), out):
                assert np.array_equal(got, want) and np.shares_memory(got, part)
        assert not any(np.shares_memory(a, b) for a, b in zip(outs[:2], outs[1:3]))
        assert all(np.shares_memory(outs[2], out) for out in outs[3:])


@pytest.mark.parametrize("entry, message", [
    ("GkslModel_d", "need d >= 1 and m >= 1"),
    ("GkslModel_R", r"R shape \(3, 2\), expected \(2, 2\)"),
    ("StepKernel.build", "step kernel needs h > 0"),
    ("trig_estimates", "step kernel needs h > 0"),
])
def test_input_checks(entry, message):
    calls = {
        "GkslModel_d": lambda: GkslModel(d=0, m=1, R=np.zeros((0, 0))),
        "GkslModel_R": lambda: GkslModel(d=2, m=1, R=np.zeros((3, 2))),
        "StepKernel.build": lambda: StepKernel.build(amplitude_damping(1.0), 0.0),
        "trig_estimates": lambda: trig_estimates(amplitude_damping(1.0), -0.1),
    }
    with pytest.raises(ValueError, match=message):
        calls[entry]()
