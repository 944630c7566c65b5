"""Tests for the dense linear-algebra kernels."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from qrw.linalg import dagger, herm_eigen, op_norm, psd_trig


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


class TestHermEigen:
    def test_diagonal(self):
        eig = herm_eigen(np.diag([1.0, 2.0]))
        assert_allclose(eig.eigenvalues, [1.0, 2.0], atol=1e-15)
        assert_allclose(np.abs(eig.vectors), np.eye(2), atol=1e-15)

    def test_pauli_x_closed_form(self):
        # 2x2 closed form: eigenvalues -1, 1 with (1, -+1)/sqrt(2) columns.
        eig = herm_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert_allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-15)
        for k, lam in enumerate(eig.eigenvalues):
            col = eig.vectors[:, k]
            assert_allclose(np.array([[0, 1], [1, 0]]) @ col, lam * col, atol=1e-14)
            assert_allclose(np.abs(col), np.full(2, 1 / np.sqrt(2)), atol=1e-14)

    def test_zero_matrix(self):
        eig = herm_eigen(np.zeros((3, 3)))
        assert_allclose(eig.eigenvalues, np.zeros(3), atol=0)
        assert_allclose(np.abs(eig.vectors) ** 2 @ np.ones(3), np.ones(3), atol=1e-15)

    def test_reconstruction_and_unitarity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = _rand_complex(rng, 5, 5)
            hm = a + dagger(a)
            eig = herm_eigen(hm)
            rec = (eig.vectors * eig.eigenvalues) @ dagger(eig.vectors)
            assert op_norm(rec - hm) <= 1e-12 * max(op_norm(hm), 1.0)
            assert op_norm(dagger(eig.vectors) @ eig.vectors - np.eye(5)) <= 1e-12
            assert np.all(np.diff(eig.eigenvalues) >= 0)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            herm_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestPsdTrig:
    def test_zero_limit(self):
        c, s = psd_trig(np.zeros((2, 2)), 0.5)
        assert_allclose(c, np.eye(2), atol=1e-15)
        assert_allclose(s, np.eye(2), atol=1e-15)

    def test_scalar_closed_form(self):
        c, s = psd_trig(np.array([[1.0]]), 0.25)
        assert_allclose(c, [[np.cos(0.5)]], atol=1e-14)
        assert_allclose(s, [[np.sin(0.5) / 0.5]], atol=1e-14)

    def test_eigenvalue_wise(self):
        c, s = psd_trig(np.diag([0.0, 4.0]), 1.0)
        assert_allclose(c, np.diag([1.0, np.cos(2.0)]), atol=1e-14)
        assert_allclose(s, np.diag([1.0, np.sin(2.0) / 2.0]), atol=1e-14)

    def test_trig_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            a = _rand_complex(rng, 4, 4)
            p = a @ dagger(a)
            h = float(rng.uniform(0.01, 1.0))
            c, s = psd_trig(p, h)
            assert op_norm(c - dagger(c)) < 1e-12
            assert op_norm(s - dagger(s)) < 1e-12
            assert op_norm(c @ c + h * (s @ p @ s) - np.eye(4)) < 1e-10

    def test_skew_block_exponential_agreement(self):
        # expm of the skew block [[0, -sqrt(p)], [sqrt(p), 0]] times sqrt(h)
        # reproduces the cos/sin blocks built from psd_trig.
        rng = np.random.default_rng(17)
        a = _rand_complex(rng, 3, 3)
        p = a @ dagger(a)
        h = 0.3
        root = herm_eigen(p).apply(np.sqrt)
        skew = np.block([[np.zeros((3, 3)), -root], [root, np.zeros((3, 3))]])
        c, s = psd_trig(p, h)
        sin_block = np.sqrt(h) * (root @ s)
        want = np.block([[c, -sin_block], [sin_block, c]])
        assert op_norm(expm(np.sqrt(h) * skew) - want) < 1e-9

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            psd_trig(np.diag([-1.0, 1.0]), 0.1)


class TestExpm:
    # Matrix exponentials through the spectral formula of HermEigen.apply,
    # the form psd_trig evaluates its cos and sinc in.
    def test_zero_exact(self):
        got = herm_eigen(np.zeros((3, 3))).apply(np.exp)
        assert np.array_equal(got, np.eye(3, dtype=complex))

    def test_diagonal(self):
        got = herm_eigen(np.diag([1.0, -1.0])).apply(np.exp)
        assert_allclose(got, np.diag([np.e, 1 / np.e]), rtol=1e-13)

    def test_rotation_closed_form(self):
        # [[0, -th], [th, 0]] = -i th sigma_y, so its exponential is
        # exp(-i w) on the eigenvalues w of th sigma_y.
        th = 0.3
        got = herm_eigen(th * np.array([[0.0, -1j], [1j, 0.0]])).apply(lambda w: np.exp(-1j * w))
        want = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        assert_allclose(got, want, atol=1e-14)


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
