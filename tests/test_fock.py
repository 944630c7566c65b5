"""Tests for the truncated interval Fock space and the basic-operator estimates."""

import itertools
import math

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qrw.fock import (
    IntervalSpace,
    TruncationError,
    basic_apply,
    basic_operator_flat,
    check_N_vs_Lambda,
    check_lemma_normdiff,
    exp_tail_bound,
    exp_vector,
    fundamental_apply,
    project_Ph,
    projection_deficiency,
    slot_coordinates,
    slot_exp_data,
    space_for,
)
from qrw.fock import (
    TAIL_LIMIT,
    LemmaResult,
    _channel_ops,
    _coeff_channels,
    _lemma_rhs,
    _sector_basis,
    _slot_exp_vector,
)
from qrw.functions import TestFunction, slot_averages
from qrw.linalg import dagger, op_norm


def _rand_vec(rng, space, d=1):
    data = rng.standard_normal((d, space.dim)) + 1j * rng.standard_normal((d, space.dim))
    return space.vacuum().__class__(space, data)


def _rand_coeff(rng, l, d, m):
    shape = {1: (d, d), 2: (d * m, d), 3: (d * m, d), 4: (d * m, d * m)}[l]
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def _rand_function(rng, m, end, knots=4, sup=0.5):
    """Piecewise-linear complex function on [0, end] with the given sup norm."""
    bp = np.concatenate([[0.0], np.sort(rng.uniform(0.0, end, knots - 2)), [end]])
    vals = rng.standard_normal((knots, m)) + 1j * rng.standard_normal((knots, m))
    return TestFunction(bp, sup * vals / np.max(np.linalg.norm(vals, axis=1)))


class TestExpVector:
    def test_zero_is_vacuum(self):
        space = IntervalSpace(m=1, G=8, N=4, h=0.1)
        e = exp_vector(space, np.zeros((8, 1)))
        assert e.norm() == pytest.approx(1.0, abs=1e-15)
        assert e.data[0, 0] == 1.0
        assert np.count_nonzero(e.data) == 1

    def test_unit_norm_series(self):
        # ||f||^2 = 1 on the interval: squared norm is the partial sum of e.
        h, G = 0.25, 8
        space = IntervalSpace(m=1, G=G, N=6, h=h)
        c = 1.0 / np.sqrt(h)
        e = exp_vector(space, np.full((G, 1), c))
        series = sum(1.0 / math.factorial(n) for n in range(7))
        assert e.norm_sq() == pytest.approx(series, abs=1e-12)
        assert e.norm_sq() == pytest.approx(2.71806, abs=1e-5)

    def test_constant_one_particle_component(self):
        # constant f = c e_1: one-particle part is c sqrt(h) chi^1.
        h, G, c = 0.2, 8, 0.37 - 0.11j
        space = IntervalSpace(m=2, G=G, N=3, h=h)
        e = exp_vector(space, np.stack([np.full(G, c), np.zeros(G)], axis=1))
        chi1 = space.chi(0)
        one_particle = e.data[0, space.sector(1)]
        assert_allclose(one_particle, c * np.sqrt(h) * chi1.data[0, space.sector(1)], atol=1e-14)

    def test_tail_bound_reported(self):
        space = IntervalSpace(m=1, G=8, N=4, h=0.1)
        cells = np.full((8, 1), 0.5)
        nsq = 0.1 * 0.25
        want = nsq**5 * np.exp(nsq) / math.factorial(5)
        assert exp_tail_bound(space, cells) == pytest.approx(want, rel=1e-12)

    def test_space_for_escalates(self):
        # Tail 4.3e-8 at N=6 is above TAIL_LIMIT, 5.0e-11 at N=8 below it.
        f = TestFunction.constant([1.2], 0.0, 1.0)
        space = space_for(f, 0.2, m=1, G=8, N=6)
        assert space.N == 8

    def test_space_for_raises_when_escalation_is_not_enough(self):
        # Tail 5.4e-6 even at the escalated cutoff N=8.
        f = TestFunction.constant([2.2], 0.0, 1.0)
        with pytest.raises(TruncationError):
            space_for(f, 0.2, m=1, G=8, N=6)

    def test_recursive_matches_product_formula(self):
        # prod_alpha c_alpha^{n_alpha} / sqrt(n_alpha!) on each multiset row.
        rng = np.random.default_rng(3)
        space = IntervalSpace(m=2, G=3, N=5, h=0.3)
        cells = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        c = np.sqrt(0.3 / 3) * cells.reshape(-1)
        want = [
            np.prod(c[list(row)])
            / math.sqrt(math.prod(math.factorial(row.count(a)) for a in set(row)))
            for n in range(space.N + 1)
            for row in itertools.combinations_with_replacement(range(space.n_modes), n)
        ]
        assert_allclose(exp_vector(space, cells).data[0], want, rtol=1e-14, atol=0)


def _reference_channel_ops(m, G, cutoff):
    """Per-state builder of the chi-creation and hop operators, with dict lookups."""
    n_modes = G * m
    states = [
        list(itertools.combinations_with_replacement(range(n_modes), n)) for n in range(cutoff + 1)
    ]
    index = [{row: k for k, row in enumerate(rows)} for rows in states]
    offsets = np.concatenate([[0], np.cumsum([len(rows) for rows in states])])
    dim = int(offsets[-1])
    weight = 1.0 / np.sqrt(G)

    def csr(rows, cols, vals):
        return scipy.sparse.csr_matrix(
            (np.array(vals, dtype=float), (np.array(rows, dtype=int), np.array(cols, dtype=int))),
            shape=(dim, dim), dtype=complex,
        )

    create = []
    for i in range(m):
        rows, cols, vals = [], [], []
        for n in range(cutoff):
            for s, state in enumerate(states[n]):
                for c in range(G):
                    alpha = c * m + i
                    new = tuple(sorted(state + (alpha,)))
                    rows.append(offsets[n + 1] + index[n + 1][new])
                    cols.append(offsets[n] + s)
                    vals.append(weight * np.sqrt(new.count(alpha)))
        create.append(csr(rows, cols, vals))

    hop = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            rows, cols, vals = [], [], []
            for n in range(1, cutoff + 1):
                for s, state in enumerate(states[n]):
                    for beta in set(state):
                        if beta % m != j:
                            continue
                        occ = state.count(beta)
                        if i == j:
                            rows.append(offsets[n] + s)
                            cols.append(offsets[n] + s)
                            vals.append(float(occ))
                        else:
                            alpha = (beta // m) * m + i
                            lst = list(state)
                            lst.remove(beta)
                            new = tuple(sorted(lst + [alpha]))
                            rows.append(offsets[n] + index[n][new])
                            cols.append(offsets[n] + s)
                            vals.append(np.sqrt(occ) * np.sqrt(new.count(alpha)))
            hop[i][j] = csr(rows, cols, vals)
    return create, hop


def _same_csr(a, b):
    return (
        a.shape == b.shape
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and a.data.tobytes() == b.data.tobytes()
    )


class TestRanking:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 5))
    def test_ops_match_reference(self, m, G, N):
        basis = _sector_basis(G * m, N)
        for n, rows in enumerate(basis.states):
            want = list(itertools.combinations_with_replacement(range(G * m), n))
            assert [tuple(r) for r in rows.tolist()] == want
        create, hop = _channel_ops(m, G, N)
        ref_create, ref_hop = _reference_channel_ops(m, G, N)
        for i in range(m):
            assert _same_csr(create[i], ref_create[i])
            for j in range(m):
                assert _same_csr(hop[i][j], ref_hop[i][j])

    @pytest.mark.parametrize("m, G, N", [(1, 3, 5), (2, 3, 4), (3, 2, 3)])
    def test_canonical_commutation(self, m, G, N):
        # [a(chi_i), a_dag(chi_j)] = delta_ij on every sector below the cutoff.
        space = IntervalSpace(m=m, G=G, N=N, h=0.1)
        create, _ = space.ops
        below = space.sector(N).start
        for i in range(m):
            for j in range(m):
                a_i = create[i].conj().T
                comm = (a_i @ create[j] - create[j] @ a_i).toarray()[:, :below]
                assert_allclose(comm, float(i == j) * np.eye(space.dim)[:, :below], atol=1e-14)

    def test_hop_diagonal_is_channel_number(self):
        m, G, N = 2, 3, 4
        space = IntervalSpace(m=m, G=G, N=N, h=0.1)
        _, hop = space.ops
        rows = [
            row for n in range(N + 1)
            for row in itertools.combinations_with_replacement(range(G * m), n)
        ]
        for j in range(m):
            number = [sum(a % m == j for a in row) for row in rows]
            diag = hop[j][j]
            assert diag.nnz == np.count_nonzero(number)
            assert np.array_equal(diag.diagonal(), number)

    def test_key_overflow_raises(self):
        with pytest.raises(ValueError, match="overflow"):
            _sector_basis(2**16, 4)


class TestProjection:
    def test_vacuum_fixed(self):
        space = IntervalSpace(m=1, G=8, N=4, h=0.1)
        om = space.vacuum()
        assert (project_Ph(space, om) - om).norm() == 0.0

    def test_chi_fixed(self):
        space = IntervalSpace(m=2, G=8, N=4, h=0.1)
        chi = space.chi(1)
        assert (project_Ph(space, chi) - chi).norm() <= 1e-15

    def test_zero_mean_profile_killed(self):
        # +1 on the first half of the cells, -1 on the second half: orthogonal
        # to the constant mode, so the projection vanishes.
        space = IntervalSpace(m=1, G=8, N=4, h=0.1)
        coeffs = np.concatenate([np.ones(4), -np.ones(4)])
        v = space.one_particle(coeffs / np.linalg.norm(coeffs))
        assert project_Ph(space, v).norm() <= 1e-12

    def test_idempotent_self_adjoint(self):
        rng = np.random.default_rng(2)
        space = IntervalSpace(m=2, G=4, N=3, h=0.2)
        v, w = _rand_vec(rng, space), _rand_vec(rng, space)
        pv = project_Ph(space, v)
        assert (project_Ph(space, pv) - pv).norm() <= 1e-12 * pv.norm()
        assert abs(project_Ph(space, w).inner(v) - w.inner(pv)) <= 1e-12 * v.norm() * w.norm()

    def test_range_dimension(self):
        rng = np.random.default_rng(3)
        space = IntervalSpace(m=2, G=4, N=3, h=0.2)
        images = np.stack(
            [project_Ph(space, _rand_vec(rng, space)).data[0] for _ in range(12)]
        )
        assert np.linalg.matrix_rank(images, tol=1e-10) == 1 + space.m

    def test_strong_convergence_proxy(self):
        # ||(1 - P_h) e(f)|| decreases monotonically along h -> 0.
        f = TestFunction(np.array([0.0, 0.4, 1.0]), np.array([[0.0], [0.6], [0.0]]))
        defs = [projection_deficiency(f, 1.0, h, m=1, G=8, N=6) for h in (0.2, 0.1, 0.05, 0.025)]
        assert all(a > b for a, b in zip(defs, defs[1:]))
        assert defs[-1] < 0.5 * defs[0]

    @pytest.mark.parametrize("t, h", [(-0.5, 0.25), (0.5, -0.25), (0.5, 0.0)])
    def test_deficiency_rejects_negative_t_or_nonpositive_h(self, t, h):
        f = TestFunction(np.array([0.0, 0.4, 1.0]), np.array([[0.0], [0.6], [0.0]]))
        with pytest.raises(ValueError, match="need h > 0 and t >= 0"):
            projection_deficiency(f, t, h, m=1, G=4, N=6)

    def test_deficiency_matches_slot_by_slot_complement(self):
        # At the lemma grid (dim 74,613), sqrt(||e||^2 - ||P_h e||^2) would lose
        # ~5e-11 relative to cancellation; the reference sums the telescoped
        # products with ||q_k|| = ||e_k - P_h e_k|| taken slot by slot.
        f = _rand_function(np.random.default_rng(1), 2, 1.0)
        h, m, G, N = 1 / 16, 2, 8, 6
        loss, proj = 0.0, 1.0
        for k in range(16):
            space = space_for(f, h, m, G, start=k * h, N=N)
            e = exp_vector(space, f.cell_averages(k * h, (k + 1) * h, G))
            pe = project_Ph(space, e)
            q_sq = (e - pe).norm_sq()
            assert check_lemma_normdiff(space, f, h, start=k * h).lhs == pytest.approx(
                np.sqrt(q_sq), rel=1e-13)
            loss = loss * e.norm_sq() + proj * q_sq
            proj *= pe.norm_sq()
        assert projection_deficiency(f, 1.0, h, m, G, N) == pytest.approx(np.sqrt(loss), rel=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3), st.integers(1, 6), st.integers(1, 5),
        st.floats(0.02, 0.5), st.floats(0.0, 2.0), st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
    )
    def test_slot_exp_data_matches_fock_vector(self, m, G, N, h, sup, where, seed):
        # The closed form against the D-vector: exp_vector, its slot
        # coordinates, and ||e - P_h e||^2.
        space = IntervalSpace(m=m, G=G, N=N, h=h)
        start = where * (1.0 - h)
        f = _rand_function(np.random.default_rng(seed), m, 1.0, sup=sup)
        cells = f.cell_averages(start, start + h, G)
        hat, q_sq = slot_exp_data(space, cells)
        e = exp_vector(space, cells)
        assert hat[0] == 1.0
        assert_allclose(hat, slot_coordinates(space, e)[0], rtol=0, atol=1e-15)
        assert_allclose(q_sq, (e - project_Ph(space, e)).norm_sq(), rtol=1e-12, atol=1e-18)

    def test_slot_exp_data_zero_function(self):
        space = IntervalSpace(m=2, G=4, N=5, h=0.25)
        hat, q_sq = slot_exp_data(space, np.zeros((4, 2)))
        assert q_sq == 0.0
        assert np.array_equal(hat, [1.0, 0.0, 0.0])


class TestNormDiffLemma:
    def test_zero_function(self):
        space = IntervalSpace(m=1, G=8, N=4, h=0.1)
        res = check_lemma_normdiff(space, TestFunction.zero(1), 0.1)
        assert res.lhs == 0.0 and res.passed

    def test_constant_function_series_oracle(self):
        # ||f_[k]||^2 = 0.01: the projection loss is exactly the n >= 2 tail,
        # sqrt(sum_{2<=n<=N} 0.01^n / n!).
        h, G = 0.1, 8
        c = np.sqrt(0.01 / h)
        space = IntervalSpace(m=1, G=G, N=6, h=h)
        res = check_lemma_normdiff(space, TestFunction.constant([c], -1.0, 2.0), h)
        oracle = np.sqrt(sum(0.01**n / math.factorial(n) for n in range(2, 7)))
        assert res.lhs == pytest.approx(oracle, abs=1e-12)
        assert res.lhs == pytest.approx(7.1e-3, abs=1e-4)
        assert res.passed

    def test_linear_ramp_large_grid(self):
        # ramp f(s) = s on [0, h], h = 0.1, N = 6, G = 32.
        f = TestFunction(np.array([0.0, 0.1]), np.array([[0.0], [0.1]]))
        space = IntervalSpace(m=1, G=32, N=6, h=0.1)
        res = check_lemma_normdiff(space, f, 0.1)
        assert res.passed
        assert res.lhs < res.rhs  # margin reported via the result fields

    def test_tail_guard(self):
        space = IntervalSpace(m=1, G=4, N=2, h=0.5)
        with pytest.raises(TruncationError):
            check_lemma_normdiff(space, TestFunction.constant([2.0], 0.0, 1.0), 0.5)


def _reference_fundamental(space, l, coeff, v):
    """Lambda^l kind by kind, with the adjoint of each creation matrix formed explicitly."""
    d, m = v.d, space.m
    create, hop = space.ops
    rh = np.sqrt(space.h)
    if l == 1:
        return space.h * (coeff @ v.data)
    if l == 4:
        T4 = coeff.reshape(d, m, d, m)
        return sum(T4[:, i, :, j] @ (hop[i][j] @ v.data.T).T for i in range(m) for j in range(m))
    R = _coeff_channels(coeff, d, m)
    if l == 2:
        return rh * sum(dagger(R[i]) @ (create[i].conj().T @ v.data.T).T for i in range(m))
    return rh * sum(R[i] @ (create[i] @ v.data.T).T for i in range(m))


class TestFundamentalProcesses:
    def setup_method(self):
        self.rng = np.random.default_rng(11)
        self.space = IntervalSpace(m=2, G=6, N=5, h=0.15)
        self.d = 2
        self.f = TestFunction(
            np.array([0.0, 0.05, 0.15]),
            np.array([[0.0, 0.2], [0.5, -0.3], [0.0, 0.1]], dtype=complex),
        )
        self.cells = self.f.cell_averages(0.0, 0.15, 6)
        self.u = np.array([0.8, -0.6j])

    def test_creation_on_vacuum(self):
        # a_dag_R / sqrt(h) on u (x) vacuum is Ru in the constant mode: norm ||Ru||.
        R = _rand_coeff(self.rng, 3, self.d, 2)
        out = fundamental_apply(self.space, 3, R, self.space.vacuum(self.u))
        assert out.norm() == pytest.approx(
            np.sqrt(self.space.h) * np.linalg.norm(R @ self.u), rel=1e-12
        )
        n3 = basic_apply(self.space, 3, R, self.space.vacuum(self.u))
        assert (out * (1 / np.sqrt(self.space.h)) - n3).norm() <= 1e-12 * n3.norm()

    def test_annihilation_of_vacuum(self):
        R = _rand_coeff(self.rng, 2, self.d, 2)
        out = fundamental_apply(self.space, 2, R, self.space.vacuum(self.u))
        assert out.norm() == 0.0

    def test_adjointness(self):
        R = _rand_coeff(self.rng, 3, self.d, 2)
        v = _rand_vec(self.rng, self.space, d=2)
        w = _rand_vec(self.rng, self.space, d=2)
        lhs = w.inner(fundamental_apply(self.space, 3, R, v))
        rhs = fundamental_apply(self.space, 2, R, w).inner(v)
        assert abs(lhs - rhs) <= 1e-10 * v.norm() * w.norm()

    def test_conservation_pairing_identity_kernel(self):
        # <u e(f), Lambda^4_1 u e(f)> = integral ||f||^2 * ||u||^2 ||e(f)||^2,
        # with the grid function as the integrand.
        space, u = self.space, self.u
        T = np.eye(self.d * space.m, dtype=complex)
        uef = exp_vector(space, self.cells).with_system(u)
        got = uef.inner(fundamental_apply(space, 4, T, uef))
        l2 = (space.h / space.G) * np.sum(np.abs(self.cells) ** 2)
        want = l2 * uef.norm_sq()
        assert got == pytest.approx(want, rel=1e-10)

    def test_creation_norm_identity(self):
        # ||Lambda^3_R u e(f)||^2 = h||Ru||^2 ||e||^2 + ||sum_i conj(int f_i) R_i u||^2 ||e||^2,
        # the second term being the f-contraction of R against u.
        space, u = self.space, self.u
        R = _rand_coeff(self.rng, 3, self.d, 2)
        ef = exp_vector(space, self.cells)
        uef = ef.with_system(u)
        got = fundamental_apply(space, 3, R, uef).norm_sq()
        Ri = R.reshape(self.d, space.m, self.d).transpose(1, 0, 2)
        integ = sum(
            np.conj((space.h / space.G) * np.sum(self.cells[:, i])) * (Ri[i] @ u)
            for i in range(space.m)
        )
        want = (
            space.h * np.linalg.norm(R @ u) ** 2 + np.linalg.norm(integ) ** 2
        ) * ef.norm_sq()
        assert got == pytest.approx(want, rel=1e-8)

    def test_conservation_norm_identity(self):
        # ||Lambda^4_T u e(f)||^2 = int ||T u f(s)||^2 ||e||^2 + ||int <f, T_f> u e(f)||^2.
        space, u = self.space, self.u
        T = _rand_coeff(self.rng, 4, self.d, 2)
        ef = exp_vector(space, self.cells)
        uef = ef.with_system(u)
        got = fundamental_apply(space, 4, T, uef).norm_sq()
        w = space.h / space.G
        T4 = T.reshape(self.d, space.m, self.d, space.m)
        first = w * sum(np.linalg.norm(T @ np.kron(u, fc)) ** 2 for fc in self.cells)
        X = sum(
            w * np.conj(fc[i]) * fc[j] * T4[:, i, :, j]
            for fc in self.cells
            for i in range(space.m)
            for j in range(space.m)
        )
        want = first * ef.norm_sq() + np.linalg.norm(X @ u) ** 2 * ef.norm_sq()
        assert got == pytest.approx(want, rel=1e-8)

    def test_time_process(self):
        S = _rand_coeff(self.rng, 1, self.d, 2)
        v = _rand_vec(self.rng, self.space, d=2)
        out = fundamental_apply(self.space, 1, S, v)
        assert_allclose(out.data, self.space.h * (S @ v.data), atol=1e-14)

    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_matches_per_kind_reference(self, l):
        coeff = _rand_coeff(self.rng, l, self.d, self.space.m)
        v = _rand_vec(self.rng, self.space, d=self.d)
        got = fundamental_apply(self.space, l, coeff, v).data
        want = _reference_fundamental(self.space, l, coeff, v)
        assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)


def _reference_basic_flat(l, coeff, d, m):
    """N^l on system (x) slot space as a sum of kron(coefficient block, matrix unit)."""
    out = np.zeros((d * (1 + m), d * (1 + m)), dtype=complex)
    if l == 1:
        unit = np.zeros((1 + m, 1 + m))
        unit[0, 0] = 1.0
        return np.kron(coeff, unit)
    if l == 2:
        for i, Ri in enumerate(coeff.reshape(d, m, d).transpose(1, 0, 2)):
            unit = np.zeros((1 + m, 1 + m))
            unit[0, 1 + i] = 1.0
            out += np.kron(Ri.conj().T, unit)
        return out
    if l == 3:
        for i, Ri in enumerate(coeff.reshape(d, m, d).transpose(1, 0, 2)):
            unit = np.zeros((1 + m, 1 + m))
            unit[1 + i, 0] = 1.0
            out += np.kron(Ri, unit)
        return out
    T4 = coeff.reshape(d, m, d, m)
    for i in range(m):
        for j in range(m):
            unit = np.zeros((1 + m, 1 + m))
            unit[1 + i, 1 + j] = 1.0
            out += np.kron(T4[:, i, :, j], unit)
    return out


class TestBasicOperators:
    def setup_method(self):
        self.rng = np.random.default_rng(13)
        self.space = IntervalSpace(m=2, G=6, N=5, h=0.15)
        self.d = 2
        self.f = TestFunction(
            np.array([0.0, 0.05, 0.15]),
            np.array([[0.0, 0.2], [0.5, -0.3], [0.0, 0.1]], dtype=complex),
        )
        self.cells = self.f.cell_averages(0.0, 0.15, 6)
        self.u = np.array([0.3, 1.0 - 0.4j])
        self.uef = exp_vector(self.space, self.cells).with_system(self.u)
        self.avg = slot_averages(self.f, 0.15, 1).F[0]

    def test_time_action_formula(self):
        # N^1_S u e(f) = Su (x) vacuum with norm ||Su|| exactly.
        S = _rand_coeff(self.rng, 1, self.d, 2)
        out = basic_apply(self.space, 1, S, self.uef)
        assert out.norm() == pytest.approx(np.linalg.norm(S @ self.u), rel=1e-12)
        want = np.zeros_like(self.uef.data)
        want[:, 0] = S @ self.u
        assert_allclose(out.data, want, atol=1e-13)

    def test_annihilation_action_formula(self):
        # N^2_R u e(f) = sum_i conj-coeff R_i* u F_i (x) vacuum.
        R = _rand_coeff(self.rng, 2, self.d, 2)
        out = basic_apply(self.space, 2, R, self.uef)
        Ri = R.reshape(self.d, self.space.m, self.d).transpose(1, 0, 2)
        want_vec = sum(self.avg[i] * dagger(Ri[i]) @ self.u for i in range(2))
        want = np.zeros_like(self.uef.data)
        want[:, 0] = want_vec
        assert_allclose(out.data, want, atol=1e-12)

    def test_annihilation_vacuum(self):
        R = _rand_coeff(self.rng, 2, self.d, 2)
        assert basic_apply(self.space, 2, R, self.space.vacuum(self.u)).norm() == 0.0

    def test_creation_norm_bound(self):
        R = _rand_coeff(self.rng, 3, self.d, 2)
        out = basic_apply(self.space, 3, R, self.uef)
        assert out.norm() <= np.linalg.norm(R @ self.u) * (1 + 1e-12)

    def test_conservation_action_formula(self):
        # N^4_T u e(f) = (embedded) T(u (x) P_h f) with P_h f = sum_i F_i chi^i.
        T = _rand_coeff(self.rng, 4, self.d, 2)
        out = basic_apply(self.space, 4, T, self.uef)
        T4 = T.reshape(self.d, self.space.m, self.d, self.space.m)
        want = np.zeros_like(self.uef.data)
        chi = self.space.chi_coefficients()
        for i in range(2):
            vec = sum(T4[:, i, :, j] @ self.u * self.avg[j] for j in range(2))
            want[:, self.space.sector(1)] += np.outer(vec, chi[i])
        assert_allclose(out.data, want, atol=1e-12)

    def test_range_inside_slot_space(self):
        v = _rand_vec(self.rng, self.space, d=2)
        for l in (1, 2, 3, 4):
            coeff = _rand_coeff(self.rng, l, self.d, 2)
            out = basic_apply(self.space, l, coeff, v)
            assert (project_Ph(self.space, out) - out).norm() <= 1e-12 * max(out.norm(), 1.0)

    def test_adjoint_relations_full_space(self):
        # (N^2_R)* = N^3_R, (N^1_S)* = N^1_{S*}, (N^4_T)* = N^4_{T*}.
        v = _rand_vec(self.rng, self.space, d=2)
        w = _rand_vec(self.rng, self.space, d=2)
        R = _rand_coeff(self.rng, 2, self.d, 2)
        S = _rand_coeff(self.rng, 1, self.d, 2)
        T = _rand_coeff(self.rng, 4, self.d, 2)
        scale = v.norm() * w.norm()
        pairs = [
            (basic_apply(self.space, 2, R, v), basic_apply(self.space, 3, R, w)),
            (basic_apply(self.space, 1, S, v), basic_apply(self.space, 1, dagger(S), w)),
            (basic_apply(self.space, 4, T, v), basic_apply(self.space, 4, dagger(T), w)),
        ]
        for av, aw in pairs:
            assert abs(w.inner(av) - aw.inner(v)) <= 1e-11 * scale

    def test_composition_in_full_space(self):
        # N^2_{R1} N^3_{R2} = N^1_{R1* R2} as operators on the truncated space.
        v = _rand_vec(self.rng, self.space, d=2)
        R1 = _rand_coeff(self.rng, 2, self.d, 2)
        R2 = _rand_coeff(self.rng, 3, self.d, 2)
        lhs = basic_apply(self.space, 2, R1, basic_apply(self.space, 3, R2, v))
        rhs = basic_apply(self.space, 1, dagger(R1) @ R2, v)
        assert (lhs - rhs).norm() <= 1e-11 * max(v.norm(), 1.0)

    @pytest.mark.parametrize("d,m", [(1, 1), (2, 1), (2, 3), (3, 2), (4, 3)])
    def test_flat_form_matches_kron_reference(self, d, m):
        for l in (1, 2, 3, 4):
            coeff = _rand_coeff(self.rng, l, d, m)
            assert np.array_equal(basic_operator_flat(l, coeff, d, m),
                                  _reference_basic_flat(l, coeff, d, m))

    def test_flat_form_matches_apply(self):
        # The projected flat matrix reproduces basic_apply through the embedding.
        emb = self.space.khat_embedding()
        for l in (1, 2, 3, 4):
            coeff = _rand_coeff(self.rng, l, self.d, 2)
            flat = basic_operator_flat(l, coeff, self.d, 2)
            toy = self.rng.standard_normal((self.d, 3)) + 1j * self.rng.standard_normal((self.d, 3))
            vec = self.space.vacuum().__class__(self.space, toy @ emb)
            out = basic_apply(self.space, l, coeff, vec)
            toy_out = (flat @ toy.reshape(-1)).reshape(self.d, 3)
            assert np.allclose(out.data, toy_out @ emb, atol=1e-12)


@pytest.mark.parametrize("kind", [0, 5])
@pytest.mark.parametrize(
    "entry", ["fundamental_apply", "basic_apply", "basic_operator_flat", "check_N_vs_Lambda"]
)
def test_invalid_kind_raises_value_error(entry, kind):
    space = IntervalSpace(m=1, G=2, N=2, h=0.1)
    u = np.array([1.0, 0.0])
    coeff = np.eye(2)
    calls = {
        "fundamental_apply": lambda: fundamental_apply(space, kind, coeff, space.vacuum(u)),
        "basic_apply": lambda: basic_apply(space, kind, coeff, space.vacuum(u)),
        "basic_operator_flat": lambda: basic_operator_flat(kind, coeff, 2, 1),
        "check_N_vs_Lambda": lambda: check_N_vs_Lambda(space, kind, coeff, u, TestFunction.zero(1)),
    }
    with pytest.raises(ValueError, match=f"kind must be 1..4, got {kind}"):
        calls[entry]()


def _reference_N_vs_Lambda(space, l, coeff, u, f, g=None, v=None, mode="a", start=0.0,
                           safety=4.0):
    """check_N_vs_Lambda in the full space: scale N^l - Lambda^l applied to u e(f).

    Also returns the size ||coeff|| ||u|| ||e(f)|| (times ||v|| ||e(g)|| in
    mode "b") of the terms whose difference lhs measures.
    """
    u = np.asarray(u, dtype=complex)
    h = space.h
    ef, tail = _slot_exp_vector(space, f, start)
    uef = ef.with_system(u)
    scale = {1: h, 2: np.sqrt(h), 3: np.sqrt(h), 4: 1.0}[l]
    diff = scale * basic_apply(space, l, coeff, uef) - fundamental_apply(space, l, coeff, uef)
    coeff_scale = max(op_norm(coeff), 1.0) * max(float(np.linalg.norm(u)), 1.0)
    c_f = f.slope_constant(start, start + h)
    slack = (tail + h * c_f / space.G + 1e-12) * coeff_scale
    eg_norm = 1.0
    size = op_norm(coeff) * np.linalg.norm(u) * ef.norm()
    if mode == "a":
        lhs = diff.norm()
    else:
        eg, tail_g = _slot_exp_vector(space, g, start)
        eg_norm = eg.norm()
        size *= np.linalg.norm(v) * eg_norm
        lhs = abs(eg.with_system(v).inner(diff))
        c_g = g.slope_constant(start, start + h)
        slack = (tail + tail_g + h * (c_f + c_g) / space.G + 1e-12) * coeff_scale * max(
            float(np.linalg.norm(v)), 1.0)
    rhs = _lemma_rhs(space, l, mode, coeff, u, v, f, g, start, ef.norm(), eg_norm)
    ref = LemmaResult(l, mode, lhs, rhs, slack, lhs <= rhs + slack, lhs <= safety * rhs + slack)
    return ref, size


def _assert_matches_reference(res, reference):
    # The floor is roundoff on the size of the terms: where lhs is exactly 0
    # (creation at N = 1) both forms return noise of up to ~2e-16 size.
    ref, size = reference
    assert abs(res.lhs - ref.lhs) <= 1e-12 * ref.lhs + 1e-15 * size, (res, ref)
    assert (res.rhs, res.slack, res.passed_raw, res.passed) == (
        ref.rhs, ref.slack, ref.passed_raw, ref.passed)


class TestNvsLambdaChecks:
    def setup_method(self):
        self.rng = np.random.default_rng(17)
        self.space = IntervalSpace(m=1, G=8, N=6, h=0.1)
        self.d = 2
        self.f = TestFunction(np.array([0.0, 0.05, 0.1]), np.array([[0.0], [0.5], [0.2]]))
        self.g = TestFunction(np.array([0.0, 0.06, 0.1]), np.array([[0.1], [-0.4], [0.0]]))
        self.u = np.array([1.0, 0.5 - 0.5j])
        self.v = np.array([0.2, -1.0j])

    def test_zero_function_time(self):
        res = check_N_vs_Lambda(self.space, 1, np.eye(2), self.u, TestFunction.zero(1))
        assert res.lhs <= 1e-14 and res.passed_raw

    def test_zero_function_creation(self):
        R = _rand_coeff(self.rng, 3, self.d, 1)
        res = check_N_vs_Lambda(self.space, 3, R, self.u, TestFunction.zero(1))
        assert res.lhs <= 1e-14 and res.passed_raw

    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_mode_a(self, l):
        coeff = _rand_coeff(self.rng, l, self.d, 1)
        res = check_N_vs_Lambda(self.space, l, coeff, self.u, self.f)
        assert res.passed, (l, res)

    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_mode_b(self, l):
        coeff = _rand_coeff(self.rng, l, self.d, 1)
        res = check_N_vs_Lambda(
            self.space, l, coeff, self.u, self.f, g=self.g, v=self.v, mode="b"
        )
        assert res.passed, (l, res)

    def test_conservation_h_scaling(self):
        # mode-a conservation lhs shrinks roughly linearly in h.
        T = np.eye(self.d, dtype=complex)
        f = TestFunction.constant([0.4], -1.0, 2.0)
        lhss = []
        for h in (0.2, 0.1, 0.05):
            space = IntervalSpace(m=1, G=8, N=6, h=h)
            lhss.append(check_N_vs_Lambda(space, 4, T, self.u, f).lhs)
        slope = np.polyfit(np.log([0.2, 0.1, 0.05]), np.log(lhss), 1)[0]
        assert slope >= 0.9

    def test_mode_b_requires_v_and_g(self):
        with pytest.raises(ValueError, match="mode 'b'"):
            check_N_vs_Lambda(self.space, 1, np.eye(2), self.u, self.f, mode="b")

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3), st.integers(1, 3), st.integers(1, 4), st.integers(1, 5),
        st.floats(0.02, 0.3), st.integers(1, 4), st.sampled_from("ab"), st.integers(0, 2**32 - 1),
    )
    def test_matches_full_space_reference(self, d, m, G, N, h, l, mode, seed):
        rng = np.random.default_rng(seed)
        space = IntervalSpace(m=m, G=G, N=N, h=h)
        coeff = _rand_coeff(rng, l, d, m)
        u, v = (rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(2))
        f, g = (_rand_function(rng, m, h, knots=3) for _ in range(2))
        # Halve f and g until the truncation tail of the interval is allowed.
        while max(exp_tail_bound(space, fn.cell_averages(0, h, G)) for fn in (f, g)) > TAIL_LIMIT:
            f, g = (TestFunction(fn.breakpoints, 0.5 * fn.values) for fn in (f, g))
        args = (space, l, coeff, u, f, g, v, mode)
        _assert_matches_reference(check_N_vs_Lambda(*args), _reference_N_vs_Lambda(*args))

    def test_lemma_grid_matches_full_space_reference(self):
        # The benchmark's lemma shape: dim 74,613, d = 3, all eight checks at one h.
        rng = np.random.default_rng(5)
        d, m, h = 3, 2, 1 / 8
        space = IntervalSpace(m=m, G=8, N=6, h=h)
        u, v = (rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(2))
        f, g = (_rand_function(rng, m, 1.0) for _ in range(2))
        for l in (1, 2, 3, 4):
            coeff = _rand_coeff(rng, l, d, m)
            for mode in "ab":
                args = (space, l, coeff, u, f, g, v, mode, 0.5)
                res = check_N_vs_Lambda(*args)
                _assert_matches_reference(res, _reference_N_vs_Lambda(*args))
                assert res.passed
