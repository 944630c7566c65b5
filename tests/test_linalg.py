"""Tests for the dense linear-algebra kernels."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qrw import linalg
from qrw.linalg import (
    as_matrix,
    dagger,
    op_norm,
    power_runs,
    sandwich,
    step_maps,
    superoperator,
)


def _rand_complex(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


class TestKron:
    def test_identity_case(self):
        assert_allclose(np.kron(np.eye(2), np.eye(3)), np.eye(6), atol=0)

    def test_scalar_right_factor(self):
        a = np.array([[0, 1], [0, 0]], dtype=complex)
        assert_allclose(np.kron(a, np.eye(1)), a, atol=0)

    def test_diagonal_expansion(self):
        # Oracle: direct expansion of the definition on diagonal factors.
        got = np.kron(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        assert_allclose(got, np.diag([3.0, 4.0, 6.0, 8.0]), atol=0)

    def test_index_convention(self):
        # Row pair (p, q) of a (x) b flattens to p * b.rows + q.
        a = np.zeros((2, 2))
        a[1, 0] = 1.0
        b = np.zeros((3, 3))
        b[2, 1] = 1.0
        k = np.kron(a, b)
        assert k[1 * 3 + 2, 0 * 3 + 1] == 1.0
        assert np.count_nonzero(k) == 1

    def test_associativity_exact(self):
        # Exact equality needs exactly representable products; small complex
        # integers make this a pure index-convention test.
        rng = np.random.default_rng(11)
        a, b, c = (
            rng.integers(-4, 5, (2, 3)) + 1j * rng.integers(-4, 5, (2, 3)),
            rng.integers(-4, 5, (3, 2)) + 1j * rng.integers(-4, 5, (3, 2)),
            rng.integers(-4, 5, (2, 2)) + 1j * rng.integers(-4, 5, (2, 2)),
        )
        assert np.array_equal(np.kron(np.kron(a, b), c), np.kron(a, np.kron(b, c)))


class TestDagger:
    def test_identity(self):
        assert_allclose(dagger(np.eye(3)), np.eye(3), atol=0)

    def test_real_ladder_pair(self):
        assert_allclose(
            dagger(np.array([[0, 1], [0, 0]])), np.array([[0, 0], [1, 0]]), atol=0
        )

    def test_conjugation(self):
        assert_allclose(dagger(np.array([[1j]])), np.array([[-1j]]), atol=0)

    def test_involution_exact(self):
        rng = np.random.default_rng(3)
        a = _rand_complex(rng, 4, 3)
        assert np.array_equal(dagger(dagger(a)), a)

    def test_anti_multiplicative(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = _rand_complex(rng, 3, 4)
            b = _rand_complex(rng, 4, 2)
            assert op_norm(dagger(a @ b) - dagger(b) @ dagger(a)) < 1e-13


class TestOpNorm:
    def test_identity(self):
        assert op_norm(np.eye(7)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_singular_values(self):
        assert op_norm(np.diag([3.0, -4.0j])) == pytest.approx(4.0, abs=1e-12)

    def test_nilpotent(self):
        # a*a = diag(0, 4) so the norm is 2.
        assert op_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(2.0, abs=1e-12)

    def test_submultiplicative(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            a = _rand_complex(rng, 4, 4)
            b = _rand_complex(rng, 4, 4)
            assert op_norm(a @ b) <= op_norm(a) * op_norm(b) * (1 + 1e-10)


class TestSuperoperator:
    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 5), J=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_matches_sandwich(self, d, J, seed):
        rng = np.random.default_rng(seed)
        left, right = _rand_complex(rng, d, d * J), _rand_complex(rng, d, J * d)
        y = _rand_complex(rng, d, d)
        got = (superoperator(left, right) @ y.reshape(-1)).reshape(d, d)
        want = sandwich(left, y, right)
        assert op_norm(got - want) <= 1e-13 * max(1.0, op_norm(want))

    def test_power_is_repeated_sandwich(self):
        rng = np.random.default_rng(23)
        left, right = _rand_complex(rng, 3, 6) / 3, _rand_complex(rng, 3, 6) / 3
        y = _rand_complex(rng, 3, 3)
        want = y
        for _ in range(37):
            want = sandwich(left, want, right)
        got = (np.linalg.matrix_power(superoperator(left, right), 37) @ y.reshape(-1)).reshape(3, 3)
        assert op_norm(got - want) <= 1e-13 * op_norm(want)


class TestRealForm:
    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 4),
        m=st.integers(1, 3),
        rows=st.integers(1, 20),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_real_product_is_complex_product(self, d, m, rows, seed):
        # For the tables the engine multiplies by, (1+m, (1+m) d^2) factor
        # tables and the ((1+m)^2, d^4) matrix of a unit table, one real
        # product by real_form is the complex product.  Each table is also
        # given as a transposed view, which .view(float) could not read.
        rng = np.random.default_rng(seed)
        for K, W in ((1 + m, (1 + m) * d * d), ((1 + m) ** 2, d**4)):
            for table in (_rand_complex(rng, K, W), _rand_complex(rng, W, K).T):
                z = _rand_complex(rng, rows, K)
                real = linalg.real_form(table)
                assert real.shape == (2 * K, 2 * W) and real.flags.c_contiguous
                got = (z.view(float) @ real).view(complex)
                want = z @ table
                assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(z) * np.linalg.norm(table)


class TestPowerRuns:
    def test_maximal_runs(self):
        vacuum = np.array([True] * 100 + [False] * 3 + [True] * 200 + [False] * 50 + [True] * 30)
        assert power_runs(vacuum, 1, (1.0, 1)) == [(0, 100), (103, 303), (353, 383)]

    def test_short_runs_are_stepped(self):
        # d = 1: S^r costs 2 bit_length(r) products, r steps cost r, plus a call each.
        vacuum = np.array([True] * 8 + [False] + [True] * 9)
        assert power_runs(vacuum, 1, (1.0, 1)) == [(9, 18)]
        assert power_runs(np.zeros(5, dtype=bool), 1, (1.0, 1)) == []

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_loop_at_d16_up_to_4096(self, m):
        # The walk's slot cost 2(1+m)d^3 and the oracle's RK4 step 8(2+m)d^3 plus
        # the 4 products that build M: at d = 16 the walk steps every run of up to
        # 4096 slots, and the oracle every run of up to 2048 steps.
        d = 16
        assert not any(linalg._power_pays(d, r, (2 * (1 + m) * d**3, 1)) for r in range(1, 4097))
        assert not any(linalg._power_pays(d, r, (8 * (2 + m) * d**3, 1), 4) for r in range(1, 2049))


class TestEngineRule:
    # The calls the walk (a slot: 1+m terms, one point, one application) and the
    # oracle (an RK4 step: 2+m terms, two new points, four applications) make.
    @staticmethod
    def walk(d, m):
        return linalg.pick_engine(d, 1 + m, 1 + m, 1, 1)

    @staticmethod
    def oracle(d, m):
        return linalg.pick_engine(d, 2 + m, 1 + m, 2, 4)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_transfer_at_d_up_to_4(self, d, m):
        # But the oracle at d = 8, m = 1, where one charge per call for every m
        # takes transfer matrices, measured 11% slower than sandwiches there.
        assert self.walk(d, m)[0] == (d <= 4)
        assert self.oracle(d, m)[0] == (d <= 4 or (d, m) == (8, 1))

    @pytest.mark.parametrize("d", [5, 6, 7, 8])
    def test_m2_transfer_up_to_d6_walk_d7_oracle(self, d):
        # Timed at m = 2 on one BLAS thread (interleaved medians, full support):
        # transfer matrices are faster for the walk up to d = 6 (9.4 against
        # 9.5 us/slot there, 15.2 against 10.7 at d = 7) and for the oracle up
        # to d = 7 (62 against 74 us per RK4 step; 88 against 78 at d = 8).
        # _CALL in (11,664, 18,432) multiply-adds is what gives both.
        assert self.walk(d, 2)[0] == (d <= 6)
        assert self.oracle(d, 2)[0] == (d <= 7)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_d16_steps_every_run(self, m):
        # With the call charge on the sandwich steps of each engine: the walk
        # steps every run of up to 4096 slots, the oracle every run of up to
        # 1024 steps.  From 1,583 steps at m = 3 (1,797 at m = 2, 2,236 at
        # m = 1) the oracle takes a vacuum piece as a power, which at d = 16
        # is faster: 39 ms for the 256 x 256 power of 2048 on one BLAS thread.
        _, *step = self.walk(16, m)
        assert not any(linalg._power_pays(16, r, step) for r in range(1, 4097))
        _, *step = self.oracle(16, m)
        assert not any(linalg._power_pays(16, r, step, 4) for r in range(1, 1025))

    def test_d4_powers_from_short_runs(self):
        # study-small's shape, d = 4 and m = 2: the walk takes vacuum runs of 10
        # or more slots as powers, the oracle runs of 3 or more steps.
        _, *step = self.walk(4, 2)
        assert [linalg._power_pays(4, r, step) for r in (9, 10)] == [False, True]
        _, *step = self.oracle(4, 2)
        assert [linalg._power_pays(4, r, step, 4) for r in (2, 3)] == [False, True]

    def test_zero_cost_takes_no_transfer_matrix_and_no_power(self):
        # The cross-checks of the walk and the oracle patch _cost to 0, so that
        # nothing is strictly cheaper: every step goes by sandwich factors and
        # every run is stepped.  Were a tie to pick the fast path, those checks
        # would compare a path with itself.
        runs = (1, 2, 3, 10, 11, 64, 65, 1000, 4096)
        with mock.patch.object(linalg, "_cost", lambda madds, calls: 0.0):
            for d, terms, hats in itertools.product((1, 2, 3, 4, 8, 16), range(1, 6), range(1, 5)):
                for points, applies in ((1, 1), (2, 4)):
                    transfer, *step = linalg.pick_engine(d, terms, hats, points, applies)
                    assert not transfer
                    for r, setup in itertools.product(runs, (0, 4)):
                        assert not linalg._power_pays(d, r, step, setup)
                    assert power_runs(np.ones(max(runs), dtype=bool), d, step) == []
                    assert power_runs(np.array([True] * 11 + [False] + [True] * 64), d, step) == []


def _layout(Ls, Rs):
    """Stacks (..., J, d, d) of L_j and R_j in the factor layout: left (..., d, d J)
    and right (..., d, J d)."""
    *batch, J, d, _ = Ls.shape
    return (np.moveaxis(Ls, -3, -1).reshape(*batch, d, d * J),
            np.moveaxis(Rs, -3, -2).reshape(*batch, d, J * d))


def _bilinear_factors(rng, d, hats, terms):
    """Random sandwich factors of ``terms`` terms in the factor layout, left
    conj-linear in ghat, right linear in fhat."""
    A, B = _rand_complex(rng, hats, d, d * terms), _rand_complex(rng, hats, d, terms * d)

    def factors(ghat, fhat, out=None):
        return np.tensordot(ghat.conj(), A, axes=1), np.tensordot(fhat, B, axes=1)

    return factors, np.linalg.norm(A) * np.linalg.norm(B)


class TestStepMaps:
    @staticmethod
    def engine(factors, d, hats, terms, transfer):
        """step_maps with its form fixed to sandwich factors or transfer matrices."""
        with mock.patch.object(linalg, "pick_engine", lambda *args: (transfer, 1.0, 1)):
            maps, vacuum, step, shape, _ = step_maps(factors, hats, 1, 1)
        assert shape == ((d * d,) if transfer else (d, d))
        return maps, vacuum, step, shape

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 4),
        hats=st.integers(1, 4),
        terms=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_forms_agree(self, d, hats, terms, seed):
        # Both forms step vec(Y) by the sandwich of the factors at any hats.
        rng = np.random.default_rng(seed)
        factors, scale = _bilinear_factors(rng, d, hats, terms)
        ghat, fhat = _rand_complex(rng, 6, hats), _rand_complex(rng, 6, hats)
        y = _rand_complex(rng, d * d)
        left, right = factors(ghat, fhat)
        want = [sandwich(left[p], y.reshape(d, d), right[p]).reshape(-1) for p in range(6)]
        bound = (1e-13 * scale * np.linalg.norm(y)
                 * np.linalg.norm(ghat, axis=1) * np.linalg.norm(fhat, axis=1))
        for transfer in (False, True):
            maps, _, step, shape = self.engine(factors, d, hats, terms, transfer)
            assert step == (1.0, 1)
            got = maps(ghat, fhat)
            assert len(got) == 6
            for p in range(6):
                assert np.linalg.norm(got[p](y.reshape(shape)).reshape(-1) - want[p]) <= bound[p]

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(1, 4),
        hats=st.integers(1, 4),
        terms=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_vacuum_is_superoperator_at_a0(self, d, hats, terms, seed):
        # The vacuum map is superoperator of the factors at (1, 0), bit for
        # bit; either form builds it once, at its first call, and never reads
        # the transfer form's table for it.
        rng = np.random.default_rng(seed)
        factors, _ = _bilinear_factors(rng, d, hats, terms)
        a0 = np.eye(1, hats)
        want = superoperator(*factors(a0, a0))[0]
        for transfer in (False, True):
            with mock.patch.object(linalg, "superoperator", wraps=superoperator) as built:
                _, vacuum, _, _ = self.engine(factors, d, hats, terms, transfer)
                table_builds = built.call_count
                assert table_builds == (1 if transfer else 0)
                assert np.array_equal(vacuum(), want)
                assert built.call_count == table_builds + 1
                assert built.call_args.args[0].shape[0] == 1
                assert np.array_equal(vacuum(), want)
                assert built.call_count == table_builds + 1


class TestFactorLayout:
    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 6),
        J=st.integers(1, 5),
        hats=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_readers_match_plain_sum(self, d, J, hats, seed):
        # sandwich, superoperator and both forms of step_maps read the factor
        # layout as the map Y -> sum_j L_j Y R_j, written here as a plain loop.
        rng = np.random.default_rng(seed)
        A, B = _rand_complex(rng, hats, J, d, d), _rand_complex(rng, hats, J, d, d)

        def factors(ghat, fhat, out=None):
            return _layout(np.tensordot(ghat.conj(), A, axes=1), np.tensordot(fhat, B, axes=1))

        ghat, fhat = _rand_complex(rng, 4, hats), _rand_complex(rng, 4, hats)
        Ls, Rs = np.tensordot(ghat.conj(), A, axes=1), np.tensordot(fhat, B, axes=1)
        y = _rand_complex(rng, d, d)
        want = [sum(L @ y @ R for L, R in zip(Ls[p], Rs[p])) for p in range(4)]
        # ||L_j|| <= max|ghat| sum_i ||A_ij||, and so for R_j: a scale free of cancellation.
        terms = np.linalg.norm(A, axis=(2, 3)).sum(0) @ np.linalg.norm(B, axis=(2, 3)).sum(0)
        scale = np.abs(ghat).max(1) * np.abs(fhat).max(1) * terms * np.linalg.norm(y)
        left, right = factors(ghat, fhat)
        supers = superoperator(left, right)
        got = {"sandwich": [sandwich(left[p], y, right[p]) for p in range(4)],
               "superoperator": [(supers[p] @ y.reshape(-1)).reshape(d, d) for p in range(4)]}
        for transfer in (False, True):
            maps, _, _, shape = TestStepMaps.engine(factors, d, hats, J, transfer)
            got[f"transfer={transfer}"] = [apply(y.reshape(shape)).reshape(d, d)
                                           for apply in maps(ghat, fhat)]
        for name, values in got.items():
            assert len(values) == 4, name
            for p in range(4):
                assert np.linalg.norm(values[p] - want[p]) <= 1e-13 * scale[p], name


@pytest.mark.parametrize("entry, message", [
    ("as_matrix_1d", r"expected a 2-d matrix, got shape \(3,\)"),
    ("as_matrix_inf", "matrix has non-finite entries"),
])
def test_input_checks(entry, message):
    calls = {
        "as_matrix_1d": lambda: as_matrix(np.zeros(3)),
        "as_matrix_inf": lambda: as_matrix([[1.0, np.inf]]),
    }
    with pytest.raises(ValueError, match=message):
        calls[entry]()
