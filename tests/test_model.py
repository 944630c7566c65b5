"""Tests for the GKSL model: generator, step unitary, step homomorphism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import expm

from qrw.linalg import dagger, op_norm
from qrw.model import (
    BlockOperator,
    GkslModel,
    StepKernel,
    ampliation,
    amplitude_damping,
    beta,
    beta_blocks,
    defect,
    delta,
    delta_dag,
    lindblad,
    lindblad_superoperator,
    random_model,
    semigroup,
    structure_maps,
    trig_estimates,
    u_h,
)
from qrw.oracle import weak_generator

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


class TestBlockOperator:
    def test_flat_block_round_trip_exact(self):
        rng = np.random.default_rng(0)
        d, m = 3, 2
        blocks = rng.standard_normal((1 + m, 1 + m, d, d)) + 1j * rng.standard_normal(
            (1 + m, 1 + m, d, d)
        )
        op = BlockOperator(d=d, m=m, blocks=blocks)
        # flat[a(1+m)+j, b(1+m)+j'] = blocks[j, j', a, b]
        back = op.flat.reshape(d, 1 + m, d, 1 + m).transpose(1, 3, 0, 2)
        assert np.array_equal(back, blocks)

    def test_parts_round_trip_exact(self):
        rng = np.random.default_rng(1)
        d, m = 2, 3
        dm = d * m
        vac = rng.standard_normal((d, d)) + 0j
        cre = rng.standard_normal((dm, d)) + 0j
        ann = rng.standard_normal((d, dm)) + 0j
        con = rng.standard_normal((dm, dm)) + 0j
        op = BlockOperator.from_parts(vac, ann, cre, con)
        assert np.array_equal(op.vacuum_part, vac)
        assert np.array_equal(op.creation_part, cre)
        assert np.array_equal(op.annihilation_part, ann)
        assert np.array_equal(op.conservation_part, con)
        # parts() returns the order from_parts takes.
        assert np.array_equal(BlockOperator.from_parts(*op.parts()).blocks, op.blocks)

    def test_flat_matches_kron_convention(self):
        # b(x) = x (x) 1 must flatten to np.kron(x, eye(1+m)).
        model = amplitude_damping(1.0)
        x = SIGMA_X
        assert_allclose(ampliation(model, x).flat, np.kron(x, np.eye(2)), atol=0)


class TestRandomModel:
    @pytest.mark.parametrize("norm", [-1.0, float("nan")])
    def test_invalid_norm_raises(self, norm):
        with pytest.raises(ValueError, match="norm"):
            random_model(np.random.default_rng(0), 2, 1, norm)


class TestLindblad:
    def test_conservative(self):
        for model in _sample_models(count=10):
            assert op_norm(lindblad(model, np.eye(model.d))) <= 1e-13

    def test_scalar_system(self):
        model = random_model(np.random.default_rng(5), 1, 2, 1.5)
        assert op_norm(lindblad(model, np.array([[2.0 + 1j]]))) <= 1e-13

    def test_amplitude_damping_decay(self):
        # By hand: sigma+ x sigma- = 0 and R*R = |1><1|, so L(x) = -x.
        model = amplitude_damping(1.0)
        assert_allclose(lindblad(model, P1), -P1, atol=1e-14)

    def test_hermiticity_preserved(self):
        rng = np.random.default_rng(7)
        for model in _sample_models(count=8):
            x = _rand_x(rng, model.d)
            lx = lindblad(model, x)
            lxs = lindblad(model, dagger(x))
            assert op_norm(lxs - dagger(lx)) <= 1e-12 * max(1.0, op_norm(lx))

    def test_linear(self):
        rng = np.random.default_rng(9)
        model = _sample_models(count=1)[0]
        x, y = _rand_x(rng, model.d), _rand_x(rng, model.d)
        a = 0.3 - 1.2j
        assert op_norm(
            lindblad(model, a * x + y) - a * lindblad(model, x) - lindblad(model, y)
        ) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            lindblad(amplitude_damping(), np.eye(3))


class TestStructureMaps:
    def test_identity_gives_zero(self):
        model = amplitude_damping(1.0)
        assert op_norm(structure_maps(model, np.eye(2)).flat) <= 1e-13

    def test_zero_noise(self):
        model = GkslModel(d=2, m=1, R=np.zeros((2, 2)))
        assert op_norm(structure_maps(model, SIGMA_X).flat) == 0.0

    def test_amplitude_damping_blocks(self):
        # delta(x) = (x (x) 1)R - Rx = -|0><1| for x = |1><1|, R = |0><1|.
        model = amplitude_damping(1.0)
        th = structure_maps(model, P1)
        assert_allclose(th.creation_part, -LOWER, atol=1e-14)
        assert_allclose(th.vacuum_part, -P1, atol=1e-14)

    def test_self_adjointness_relation(self):
        rng = np.random.default_rng(11)
        for model in _sample_models(count=6):
            x = _rand_x(rng, model.d)
            lhs = structure_maps(model, dagger(x)).flat
            rhs = dagger(structure_maps(model, x).flat)
            assert op_norm(lhs - rhs) <= 1e-12 * max(1.0, op_norm(lhs))


def _reference_structure_maps(model, x):
    """Theta(x) written with kron: L(x) = R*(x (x) 1)R - (1/2){R*R, x},
    delta(x) = (x (x) 1)R - Rx and delta_dag(x) = R*(x (x) 1) - xR*."""
    R, Rd = model.R, dagger(model.R)
    amp = np.kron(x, np.eye(model.m))
    dm = model.d * model.m
    return BlockOperator.from_parts(
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
        # L(x*y) - x*L(y) - L(x*)y = delta(x)* delta(y)
        xs = dagger(x)
        lhs = lindblad(model, xs @ y) - xs @ lindblad(model, y) - lindblad(model, xs) @ y
        assert op_norm(lhs - dagger(delta(model, x)) @ delta(model, y)) <= 1e-13 * scale
        # delta(xy) = delta(x) y + (x (x) 1) delta(y)
        lhs = delta(model, x @ y)
        rhs = delta(model, x) @ y + np.kron(x, np.eye(m)) @ delta(model, y)
        assert op_norm(lhs - rhs) <= 1e-13 * scale
        # delta_dag(x) = delta(x*)* and Theta(x*) = Theta(x)*
        assert op_norm(delta_dag(model, x) - dagger(delta(model, xs))) <= 1e-13 * scale
        th = structure_maps(model, x).flat
        assert op_norm(structure_maps(model, xs).flat - dagger(th)) <= 1e-13 * scale

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 4), m=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_matches_kron_reference(self, d, m, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, d, m, float(rng.uniform(0.1, 2.0)))
        x = _rand_x(rng, d)
        ref = _reference_structure_maps(model, x)
        # Roundoff scale of the terms, not of Theta itself, which may cancel.
        scale = max(1.0, (model.norm_R + model.norm_R**2) * op_norm(x))
        assert op_norm(structure_maps(model, x).flat - ref.flat) <= 1e-15 * scale
        assert op_norm(lindblad(model, x) - ref.vacuum_part) <= 1e-15 * scale
        assert op_norm(delta(model, x) - ref.creation_part) <= 1e-15 * scale
        assert op_norm(delta_dag(model, x) - ref.annihilation_part) <= 1e-15 * scale
        gv = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        fv = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        ghat, fhat = np.append(1.0, gv), np.append(1.0, fv)
        want = np.einsum("j,k,jkab->ab", ghat.conj(), fhat, ref.blocks)
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
        theta = beta(model, SIGMA_X, 1.0).flat - ampliation(model, SIGMA_X).flat - e_op.flat
        assert_allclose(theta, structure_maps(model, SIGMA_X).flat, atol=0)

    def test_sqrt_scaling(self):
        model = amplitude_damping(1.0)
        h = 0.04
        th = structure_maps(model, SIGMA_X)
        e_op, _ = defect(model, SIGMA_X, h)
        bet, amp = beta(model, SIGMA_X, h), ampliation(model, SIGMA_X)
        # Undo E's h^-(1+eps): h^2 on the vacuum part, h^(3/2) on the others.
        creation = bet.creation_part - amp.creation_part - h**1.5 * e_op.creation_part
        vacuum = bet.vacuum_part - amp.vacuum_part - h**2 * e_op.vacuum_part
        assert_allclose(creation, 0.2 * th.creation_part, atol=1e-15)
        assert_allclose(vacuum, 0.04 * th.vacuum_part, atol=1e-15)

    def test_negative_h_rejected(self):
        with pytest.raises(ValueError):
            defect(amplitude_damping(), SIGMA_X, -0.1)


class TestUnitaryStep:
    def test_zero_noise_identity(self):
        model = GkslModel(d=2, m=2, R=np.zeros((4, 2)))
        assert_allclose(u_h(model, 0.5).flat, np.eye(6), atol=1e-14)

    def test_scalar_closed_form(self):
        # d = m = 1, R = [r]: a plane rotation by sqrt(h) r.
        model = GkslModel(d=1, m=1, R=np.array([[1.0]]))
        U = u_h(model, 0.25).flat
        want = np.array([[0.87758, -0.47943], [0.47943, 0.87758]])
        assert_allclose(U, want, atol=1e-5)

    def test_small_h_series(self):
        rng = np.random.default_rng(13)
        model = random_model(rng, 3, 2, 1.7)
        h = 1e-8
        rtilde = BlockOperator.from_parts(
            vacuum=np.zeros((3, 3)),
            creation=model.R,
            annihilation=-dagger(model.R),
            conservation=np.zeros((6, 6)),
        ).flat
        gap = op_norm(u_h(model, h).flat - np.eye(9) - np.sqrt(h) * rtilde)
        assert gap <= h * model.norm_R**2

    @pytest.mark.parametrize("h", [1.0, 0.1, 0.01, 1e-4])
    def test_unitarity_and_exponential_agreement(self, h):
        for model in _sample_models(count=12):
            U = u_h(model, h).flat
            n = model.d * (1 + model.m)
            assert op_norm(dagger(U) @ U - np.eye(n)) <= 1e-10
            rtilde = BlockOperator.from_parts(
                vacuum=np.zeros((model.d, model.d)),
                creation=model.R,
                annihilation=-dagger(model.R),
                conservation=np.zeros((model.d * model.m, model.d * model.m)),
            ).flat
            assert op_norm(U - expm(np.sqrt(h) * rtilde)) <= 1e-9

    @pytest.mark.parametrize("h", [1.0, 0.1, 0.01, 1e-4])
    def test_trig_estimates(self, h):
        for model in _sample_models(count=12):
            for name, (lhs, bound) in trig_estimates(model, h).items():
                assert lhs <= bound, f"{name} violated at h={h}: {lhs} > {bound}"


class TestBeta:
    def test_unital(self):
        model = amplitude_damping(0.7)
        assert_allclose(beta(model, np.eye(2), 0.3).flat, np.eye(4), atol=1e-12)

    def test_zero_noise(self):
        model = GkslModel(d=2, m=1, R=np.zeros((2, 2)))
        assert_allclose(beta(model, SIGMA_X, 0.5).flat, np.kron(SIGMA_X, np.eye(2)), atol=1e-14)

    def test_scalar_observable_commutes(self):
        rng = np.random.default_rng(17)
        model = random_model(rng, 1, 2, 1.3)
        x = np.array([[0.4 - 2.2j]])
        assert_allclose(beta(model, x, 0.7).flat, x[0, 0] * np.eye(3), atol=1e-12)

    def test_closed_form_matches_conjugation(self):
        rng = np.random.default_rng(19)
        for model in _sample_models(count=10):
            for h in (1.0, 0.05, 1e-3):
                x = _rand_x(rng, model.d)
                U = u_h(model, h).flat
                direct = dagger(U) @ np.kron(x, np.eye(1 + model.m)) @ U
                assert op_norm(beta(model, x, h).flat - direct) <= 1e-10

    def test_star_homomorphism(self):
        rng = np.random.default_rng(23)
        for model in _sample_models(count=10):
            h = float(rng.choice([1.0, 0.2, 0.01]))
            x, y = _rand_x(rng, model.d), _rand_x(rng, model.d)
            bx = beta(model, x, h).flat
            by = beta(model, y, h).flat
            bxy = beta(model, x @ y, h).flat
            assert op_norm(bxy - bx @ by) <= 1e-10
            assert op_norm(beta(model, dagger(x), h).flat - dagger(bx)) <= 1e-10

    def test_block_relations(self):
        # The five block-level identities equivalent to beta being a
        # *-homomorphism, checked part-wise.
        rng = np.random.default_rng(29)
        for model in _sample_models(count=8):
            h = float(rng.choice([0.5, 0.04]))
            x, y = _rand_x(rng, model.d), _rand_x(rng, model.d)
            bx, by, bxy = (beta(model, z, h) for z in (x, y, x @ y))
            bxs = beta(model, dagger(x), h)
            res = [
                op_norm(bxs.vacuum_part - dagger(bx.vacuum_part)),
                op_norm(bxs.conservation_part - dagger(bx.conservation_part)),
                op_norm(bxs.creation_part - dagger(bx.annihilation_part)),
                op_norm(
                    bxy.vacuum_part
                    - bx.vacuum_part @ by.vacuum_part
                    - bx.annihilation_part @ by.creation_part
                ),
                op_norm(
                    bxy.annihilation_part
                    - bx.vacuum_part @ by.annihilation_part
                    - bx.annihilation_part @ by.conservation_part
                ),
                op_norm(
                    bxy.creation_part
                    - bx.creation_part @ by.vacuum_part
                    - bx.conservation_part @ by.creation_part
                ),
                op_norm(
                    bxy.conservation_part
                    - bx.creation_part @ by.annihilation_part
                    - bx.conservation_part @ by.conservation_part
                ),
            ]
            assert max(res) <= 1e-10

    def test_contraction(self):
        rng = np.random.default_rng(31)
        for model in _sample_models(count=8):
            x = _rand_x(rng, model.d)
            assert op_norm(beta(model, x, 0.3).flat) <= op_norm(x) * (1 + 1e-9)

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
        U = kernel.U.flat
        for i, (x, y) in enumerate(zip(xs, ys)):
            tol = 1e-10 * op_norm(x)
            direct = dagger(U) @ np.kron(x, np.eye(1 + m)) @ U
            assert op_norm(BlockOperator(d, m, bx[i]).flat - direct) <= tol
            product = np.einsum("jkab,klbc->jlac", bx[i], by[i])
            assert op_norm(BlockOperator(d, m, bxy[i] - product).flat) <= tol * op_norm(y)
            adjoint = bx[i].conj().transpose(1, 0, 3, 2)
            assert op_norm(BlockOperator(d, m, bxs[i] - adjoint).flat) <= tol
        one = beta_blocks(kernel, np.eye(d))
        assert op_norm(BlockOperator(d, m, one).flat - np.eye(d * (1 + m))) <= 1e-10
        bad = GkslModel(d=d, m=m, R=model.R, beta_corruption=corruption)
        shift = beta_blocks(StepKernel.build(bad, h), xs) - bx
        moved = np.zeros((1 + m, 1 + m), dtype=bool)
        moved[0, 0] = True
        assert not np.any(shift[:, ~moved])
        for x, s00 in zip(xs, shift[:, 0, 0]):
            assert op_norm(s00 - corruption * x) <= 1e-10 * op_norm(x)

    def test_corruption_hook_breaks_homomorphism(self):
        base = amplitude_damping(1.0)
        bad = GkslModel(d=2, m=1, R=base.R, beta_corruption=1e-6)
        x = SIGMA_X
        bx = beta(bad, x, 0.1).flat
        bxx = beta(bad, x @ x, 0.1).flat
        assert op_norm(bxx - bx @ bx) > 1e-8


class TestDefect:
    def test_zero_noise_exact(self):
        model = GkslModel(d=2, m=1, R=np.zeros((2, 2)))
        e_op, report = defect(model, SIGMA_X, 0.1)
        assert op_norm(e_op.flat) == 0.0
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
        assert op_norm(via_super - lindblad(model, x)) <= 1e-12


class TestStepKernel:
    def test_batched_matches_single(self):
        rng = np.random.default_rng(47)
        model = _sample_models(count=1)[0]
        kernel = StepKernel.build(model, 0.2)
        xs = np.stack([_rand_x(rng, model.d) for _ in range(5)])
        batched = beta_blocks(kernel, xs)
        for i in range(5):
            single = beta(model, xs[i], 0.2)
            assert op_norm(
                BlockOperator(model.d, model.m, batched[i]).flat - single.flat
            ) <= 1e-13
