"""Tests for test functions, slot averages, and the walk engines."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qrw import functions, linalg, walk
from qrw.fock import (
    TAIL_LIMIT,
    IntervalSpace,
    TruncationError,
    exp_tail_bound,
    exp_vector,
    projection_deficiency,
)
from qrw.linalg import dagger, flat, op_norm, power_runs, step_maps, superoperator
from qrw.model import (
    GkslModel,
    StepKernel,
    beta_blocks,
    beta_factors,
    random_model,
    step_leg_outputs,
)
from qrw.walk import DenseCapError, defect_leg_outputs, f_term_norm, walk_matrix_element
from reference import (
    amplitude_damping,
    khat_embedding,
    project_Ph,
    toy_exp_embed,
    walk_dense_operator,
    walk_dense_state,
    walk_norm_sq,
)

TF = functions.TestFunction
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
P1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def _rand_x(rng, d):
    return (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)


def _quad(f, a, b):
    """Integral of f over [a, b] by 2-point Gauss-Legendre on each piece between
    the kinks inside [a, b], which is exact for a piecewise-linear f."""
    kinks = f.breakpoints[(f.breakpoints > a) & (f.breakpoints < b)]
    nodes = np.concatenate([[a], kinks, [b]])
    mid, half = 0.5 * (nodes[:-1] + nodes[1:]), 0.5 * np.diff(nodes)
    offset = half / np.sqrt(3.0)
    return np.sum(half[:, None] * (f(mid - offset) + f(mid + offset)), axis=0)


def _rand_tf(rng, channels, t_end, height=0.6, points=4):
    times = np.linspace(0.0, t_end, points)
    times[1:-1] += (t_end / points) * 0.3 * rng.uniform(-1, 1, points - 2)
    vals = rng.uniform(-height, height, (points, channels)) + 1j * rng.uniform(
        -height, height, (points, channels)
    )
    return TF(times, vals)


def _slot_by_slot(*args):
    """walk_matrix_element at zero cost: every slot by its sandwich factors, no run as a power."""
    with mock.patch.object(linalg, "_cost", lambda madds, calls: 0.0):
        return walk_matrix_element(*args)


def _within_tail(f, space, n):
    """f halved until every one of its n slot tails on ``space`` is TAIL_LIMIT / 10 or less."""
    h, G = space.h, space.G
    while max(exp_tail_bound(space, f.cell_averages(k * h, (k + 1) * h, G))
              for k in range(n)) > TAIL_LIMIT / 10:
        f = TF(f.breakpoints, 0.5 * f.values)
    return f


class TestTestFunction:
    def test_zero_outside_support(self):
        f = TF(np.array([0.2, 0.8]), np.array([[1.0], [1.0]]))
        assert np.all(f(np.array([0.0, 0.1, 0.9, 2.0])) == 0)

    def test_linear_interpolation(self):
        f = TF(np.array([0.0, 1.0]), np.array([[0.0], [2.0]]))
        assert f(0.25)[0] == pytest.approx(0.5)

    def test_sup_norm_multichannel(self):
        f = TF(np.array([0.0, 1.0]), np.array([[3.0, 4.0], [0.0, 0.0]]))
        assert f.sup_norm() == pytest.approx(5.0)

    def test_slope_constant(self):
        f = TF(np.array([0.0, 0.5, 1.0]), np.array([[0.0, 1.0], [1.0, 1.0], [0.0, 1.0]]))
        # channel 1 slope max |+-2| = 2, channel 2 slope 0.
        assert f.constants()[1] == pytest.approx(2.0)

    def test_l2_norm_ramp(self):
        f = TF(np.array([0.0, 1.0]), np.array([[0.0], [1.0]]))
        assert f.l2_norm_sq(0.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_overlap_integral(self):
        f = TF(np.array([0.0, 1.0]), np.array([[0.0], [1.0]]))
        g = TF(np.array([0.0, 1.0]), np.array([[1.0], [1.0]]))
        assert g.pair_overlap_integral(f, 0.0, 1.0) == pytest.approx(0.5, abs=1e-14)

    def test_owns_read_only_copies(self):
        bp, vals = np.array([0.0, 1.0]), np.array([[1.0], [1.0]])
        f = TF(bp, vals)
        bp[1], vals[0, 0] = 2.0, 5.0
        assert f(0.0)[0] == 1.0 and f.breakpoints[1] == 1.0
        with pytest.raises(ValueError):
            f.values[0, 0] = 5.0
        with pytest.raises(ValueError):
            f.breakpoints[0] = -1.0

    @pytest.mark.parametrize("bp", [[0.0, np.nan], [0.0, np.inf], [-np.inf, 0.0]])
    def test_non_finite_breakpoints_rejected(self, bp):
        with pytest.raises(ValueError, match="non-finite breakpoints"):
            TF(np.array(bp), np.ones((2, 1)))

    @pytest.mark.parametrize("bp, vals, message", [
        ([0.0], [[1.0]], "need at least two breakpoints"),
        ([0.0, 0.5, 0.5], [[1.0]] * 3, "breakpoints must be strictly ascending"),
        ([0.0, 1.0, 0.5], [[1.0]] * 3, "breakpoints must be strictly ascending"),
        ([0.0, 1.0], [[1.0]], "one value row per breakpoint required"),
        ([0.0, 1.0], [[np.nan], [0.0]], "non-finite values"),
    ])
    def test_invalid_inputs_rejected(self, bp, vals, message):
        with pytest.raises(ValueError, match=message):
            TF(np.array(bp), np.array(vals))

    def test_one_d_values_are_one_channel(self):
        f = TF(np.array([0.0, 1.0]), np.array([0.0, 2.0j]))
        assert f.values.shape == (2, 1) and f.channels == 1
        assert f(0.25)[0] == pytest.approx(0.5j)

    @given(st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(-2.0, 2.0), max_size=12))
    def test_sorted_distinct_matches_unique(self, xs):
        x = np.array(xs, dtype=float)
        assert np.array_equal(functions._sorted_distinct(x), np.unique(x))


def _refined_grid(f, t0, t1):
    """t0, t1 and the breakpoints strictly between them, ascending and distinct."""
    inner = f.breakpoints[(f.breakpoints > t0) & (f.breakpoints < t1)]
    return np.unique(np.concatenate([[t0], inner, [t1]]))


def _grid_antiderivative(f, t):
    """The integral of f up to t, with its trapezoids and slopes formed at each call."""
    bp, vals = f.breakpoints, f.values
    t = np.clip(np.asarray(t, dtype=float), bp[0], bp[-1])
    seg = 0.5 * np.diff(bp)[:, None] * (vals[:-1] + vals[1:])
    cum = np.concatenate([np.zeros((1, f.channels), dtype=complex), np.cumsum(seg[:-1], axis=0)])
    idx = np.clip(np.searchsorted(bp, t, side="right") - 1, 0, len(bp) - 2)
    s = (t - bp[idx])[..., None]
    slope = (vals[idx + 1] - vals[idx]) / (bp[idx + 1] - bp[idx])[..., None]
    return cum[idx] + s * vals[idx] + 0.5 * s**2 * slope


def _signed_zero_values(rng, knots, channels):
    """Random complex values, about a third of their parts zero, of either sign."""
    parts = rng.uniform(-1, 1, (knots, channels, 2))
    parts[rng.random(parts.shape) < 0.3] = 0.0
    return (parts * rng.choice([-1.0, 1.0], parts.shape)).view(complex)[..., 0]


def _masked_call(f, t):
    """f(t) as zeros with f scattered in where t lies in the support."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape + (f.channels,), dtype=complex)
    bp, vals = f.breakpoints, f.values
    inside = (t >= bp[0]) & (t <= bp[-1])
    if np.any(inside):
        ti = t[inside]
        idx = np.clip(np.searchsorted(bp, ti, side="right") - 1, 0, len(bp) - 2)
        t0, t1 = bp[idx], bp[idx + 1]
        w = ((ti - t0) / (t1 - t0))[..., None]
        out[inside] = (1 - w) * vals[idx] + w * vals[idx + 1]
    return out


def _six_point_overlap(f, g, t0, t1):
    """integral of <f, g> over [t0, t1]: Simpson on the merged grid, f and g read per term."""
    nodes = np.unique(np.concatenate([_refined_grid(f, t0, t1), _refined_grid(g, t0, t1)]))
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    pair = lambda t: np.sum(np.conj(_masked_call(f, t)) * _masked_call(g, t), axis=-1)  # noqa: E731
    return complex(
        np.sum(np.diff(nodes) / 6.0 * (pair(nodes[:-1]) + 4 * pair(mids) + pair(nodes[1:])))
    )


def _grid_sup_norm(f, t0=None, t1=None):
    nodes = f.breakpoints if t0 is None else _refined_grid(f, t0, t1)
    return float(np.max(np.linalg.norm(f(nodes), axis=-1), initial=0.0))


def _grid_slope_constant(f, t0=None, t1=None):
    nodes = f.breakpoints if t0 is None else _refined_grid(f, t0, t1)
    if len(nodes) < 2:
        return 0.0
    slopes = np.abs(np.diff(f(nodes), axis=0) / np.diff(nodes)[:, None])
    return float(np.sum(np.max(slopes, axis=0)))


class TestSegmentTables:
    # The tables give the same bytes as evaluating f on the breakpoint-refined
    # grid of the interval, as test functions did before they kept tables.
    @settings(max_examples=300, deadline=None)
    @given(
        bp=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6, unique=True),
        channels=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_tables_match_refined_grid(self, bp, channels, seed, data):
        bp = np.sort(np.asarray(bp))
        assume(np.all(np.diff(bp) > 1e-9))
        rng = np.random.default_rng(seed)
        vals = rng.uniform(-1, 1, (len(bp), channels)) + 1j * rng.uniform(-1, 1, (len(bp), channels))
        # Zero values, some of them -0.0, as at the vacuum ends of the benchmark's f and g.
        vals[rng.random(len(bp)) < 0.3] = 0.0
        f = TF(bp, vals * rng.choice([-1.0, 1.0], (len(bp), 1)))
        # On a breakpoint, inside the support, or beyond either end of it; no
        # piece so short that its slope overflows.
        point = st.sampled_from(bp.tolist()) | st.floats(-0.5, 1.5).filter(
            lambda t: np.min(np.abs(bp - t)) > 1e-9)
        t0, t1 = sorted(data.draw(st.tuples(point, point)))
        assume(t0 == t1 or t1 - t0 > 1e-9)
        ts = np.concatenate([[t0, t1], bp, np.linspace(-0.5, 1.5, 9)])
        assert f.antiderivative(ts).tobytes() == _grid_antiderivative(f, ts).tobytes()
        for t_lo, t_hi in ((t0, t1), (None, None)):
            for got, want in ((f.sup_norm(t_lo, t_hi), _grid_sup_norm(f, t_lo, t_hi)),
                              (f.constants(t_lo, t_hi)[1], _grid_slope_constant(f, t_lo, t_hi))):
                assert np.float64(got).tobytes() == np.float64(want).tobytes()
        if t1 > t0:
            cells = data.draw(st.integers(1, 8))
            edges = np.linspace(t0, t1, cells + 1)
            want = np.diff(_grid_antiderivative(f, edges), axis=0) / ((t1 - t0) / cells)
            assert f.cell_averages(t0, t1, cells).tobytes() == want.tobytes()
            h, n = (t1 - t0) / cells, cells
            want = np.diff(_grid_antiderivative(f, h * np.arange(n + 1)), axis=0) / np.sqrt(h)
            assert functions.slot_averages(f, h, n).F.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        bp=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=6, unique=True),
        channels=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        between=st.lists(st.floats(-2.0, 2.0), max_size=6),
    )
    def test_call_matches_masked_form(self, bp, channels, seed, between):
        # f(t) bit for bit as zeros scattered with f on the support computes it:
        # on every breakpoint (both support ends included), beyond both ends and
        # between, at +-0.0, +-inf and NaN, for scalar and array t, with values
        # of either zero sign.
        bp = np.sort(np.asarray(bp))
        assume(np.all(np.diff(bp) > 1e-9))
        f = TF(bp, _signed_zero_values(np.random.default_rng(seed), len(bp), channels))
        ts = np.concatenate([bp, bp[[0, -1]] + [-0.5, 0.5], [-0.0, 0.0, -np.inf, np.inf, np.nan],
                             between])
        for t in (ts, ts[::-1, None], *ts):
            got, want = f(t), _masked_call(f, t)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        bps=st.lists(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=5, unique=True),
                     min_size=2, max_size=2),
        channels=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_overlaps_match_six_point_simpson(self, bps, channels, seed, data):
        # pair_overlap_integral and l2_norm_sq bit for bit as Simpson with each
        # function read three times: on the left nodes, the midpoints and the
        # right nodes.
        bps = [np.sort(np.asarray(bp)) for bp in bps]
        assume(all(np.all(np.diff(bp) > 1e-9) for bp in bps))
        rng = np.random.default_rng(seed)
        f, g = (TF(bp, _signed_zero_values(rng, len(bp), channels)) for bp in bps)
        point = st.sampled_from(np.concatenate(bps).tolist()) | st.floats(-0.5, 1.5)
        t0, t1 = sorted(data.draw(st.tuples(point, point)))
        assume(t0 == t1 or t1 - t0 > 1e-9)
        for a, b in ((f, g), (g, f), (f, f)):
            got, want = a.pair_overlap_integral(b, t0, t1), _six_point_overlap(a, b, t0, t1)
            assert np.complex128(got).tobytes() == np.complex128(want).tobytes()
        assert np.float64(f.l2_norm_sq(t0, t1)).tobytes() == np.float64(want.real).tobytes()

    def test_tables_are_read_only(self):
        f = TF(np.array([0.0, 0.5, 1.0]), np.array([[0.0, 1.0], [1.0, 2j], [0.0, 1.0]]))
        assert f.slopes.shape == f.integrals.shape == (2, 2)
        for table in (f.slopes, f.integrals):
            with pytest.raises(ValueError):
                table[0] = 1.0


class TestSlotAverages:
    def test_zero(self):
        avgs = functions.slot_averages(TF.zero(2), 0.25, 4)
        assert np.all(avgs.F == 0)

    def test_constant(self):
        c = np.array([0.3, -0.7])
        avgs = functions.slot_averages(TF.constant(c, 0.0, 1.0), 0.25, 4)
        assert_allclose(avgs.F, np.sqrt(0.25) * np.tile(c, (4, 1)), atol=1e-14)

    @pytest.mark.parametrize("h", [np.nan, np.inf])
    def test_non_finite_h_rejected(self, h):
        with pytest.raises(ValueError, match="finite h"):
            functions.slot_averages(TF.constant([0.3], 0.0, 1.0), h, 4)

    def test_ramp_exact_integrals(self):
        # f(s) = s on [0, 1], h = 0.5: F_1 = 0.125/sqrt(0.5), F_2 = 0.375/sqrt(0.5).
        f = TF(np.array([0.0, 1.0]), np.array([[0.0], [1.0]]))
        avgs = functions.slot_averages(f, 0.5, 2)
        assert avgs.F[0, 0] == pytest.approx(0.17677669529663687, abs=1e-10)
        assert avgs.F[1, 0] == pytest.approx(0.5303300858899106, abs=1e-10)

    @settings(max_examples=150, deadline=None)
    @given(
        # breakpoints as fractions of the slot range [0, nh]: support ends and
        # kinks fall inside slots, before 0 and beyond nh
        fractions=st.lists(st.floats(-0.3, 1.4), min_size=2, max_size=7, unique=True),
        n=st.integers(1, 12),
        h=st.floats(0.01, 0.5),
        channels=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_closed_form_matches_quadrature(self, fractions, n, h, channels, seed):
        bp = np.sort(np.asarray(fractions)) * n * h
        assume(np.all(np.diff(bp) > 1e-9))
        rng = np.random.default_rng(seed)
        f = TF(bp, rng.uniform(-1, 1, (len(bp), channels))
               + 1j * rng.uniform(-1, 1, (len(bp), channels)))
        got = functions.slot_averages(f, h, n).F
        want = np.stack([_quad(f, k * h, (k + 1) * h) for k in range(n)]) / np.sqrt(h)
        assert_allclose(got, want, rtol=0, atol=1e-12)
        t0, t1 = sorted(rng.uniform(-0.3, 1.4, 2) * n * h)
        cells = int(rng.integers(1, 9))
        if t1 - t0 > 1e-3:
            edges = np.linspace(t0, t1, cells + 1)
            want = np.stack([_quad(f, a, b) for a, b in zip(edges[:-1], edges[1:])])
            assert_allclose(f.cell_averages(t0, t1, cells),
                            want / ((t1 - t0) / cells), rtol=0, atol=1e-10)

    def test_bounded_by_sup(self):
        rng = np.random.default_rng(0)
        f = _rand_tf(rng, 2, 1.0)
        avgs = functions.slot_averages(f, 0.125, 8)
        assert np.all(np.abs(avgs.F) <= np.sqrt(0.125) * f.sup_norm() + 1e-12)


class TestToyExpEmbed:
    def test_vacuum(self):
        state = toy_exp_embed(functions.slot_averages(TF.zero(1), 0.5, 3))
        assert np.vdot(state, state).real == pytest.approx(1.0)
        assert state[0] == 1.0

    def test_single_slot_norm(self):
        avgs = functions.SlotAverages(n=1, F=np.array([[0.3]]))
        state = toy_exp_embed(avgs)
        assert_allclose(state, [1.0, 0.3], atol=0)
        assert np.vdot(state, state).real == pytest.approx(1.09)

    def test_product_norm(self):
        rng = np.random.default_rng(1)
        f = _rand_tf(rng, 2, 1.0)
        avgs = functions.slot_averages(f, 0.25, 4)
        want = np.prod([1 + np.sum(np.abs(avgs.F[k]) ** 2) for k in range(4)])
        state = toy_exp_embed(avgs)
        assert np.vdot(state, state).real == pytest.approx(want, rel=1e-12)

    def test_matches_interval_fock_projection(self):
        # norm^2 of the embedded single-slot vector equals the projected
        # truncated exponential vector's norm^2 from the interval space.
        f = TF(np.array([0.0, 0.04, 0.1]), np.array([[0.0], [0.5], [0.1]]))
        h = 0.1
        avgs = functions.slot_averages(f, h, 1)
        space = IntervalSpace(m=1, G=16, N=6, h=h)
        pe = project_Ph(space, exp_vector(space, f.cell_averages(0.0, h, 16)))
        state = toy_exp_embed(avgs)
        assert np.vdot(state, state).real == pytest.approx(np.vdot(pe, pe).real, rel=1e-12)


class TestDenseEngine:
    def test_identity_observable(self):
        model = amplitude_damping(1.0)
        flat = walk_dense_operator(model, np.eye(2), 0.25, 3)
        assert_allclose(flat, np.eye(16), atol=1e-12)

    def test_zero_noise(self):
        model = GkslModel(d=2, m=1, R=np.zeros((2, 2)))
        flat = walk_dense_operator(model, SIGMA_X, 0.25, 2)
        assert_allclose(flat, np.kron(SIGMA_X, np.eye(4)), atol=1e-13)

    def test_single_step_is_beta(self):
        from qrw.model import beta

        model = amplitude_damping(0.8)
        assert_allclose(
            walk_dense_operator(model, SIGMA_X, 0.3, 1),
            flat(beta(model, SIGMA_X, 0.3)),
            atol=1e-13,
        )

    def test_cap(self, monkeypatch):
        # d (1+m)^n = 2 * 2^12 = 8192 exceeds DENSE_CAP = 4096; both dense entry
        # points raise before any kernel (or array) is built.
        def no_build(*args):
            raise AssertionError("kernel built past the dense cap")

        monkeypatch.setattr(StepKernel, "build", no_build)
        model = amplitude_damping(1.0)
        with pytest.raises(DenseCapError):
            walk_dense_operator(model, np.eye(2), 0.1, 12)
        with pytest.raises(DenseCapError):
            walk_dense_state(model, np.eye(2), [1.0, 0.0], TF.zero(1), 0.1, 12)

    def test_homomorphism_and_positivity(self):
        rng = np.random.default_rng(3)
        for _ in range(6):
            model = random_model(rng, 2, 1, float(rng.uniform(0.3, 1.5)))
            n = int(rng.integers(1, 5))
            h = float(rng.choice([0.5, 0.1]))
            x, y = _rand_x(rng, 2), _rand_x(rng, 2)
            px = walk_dense_operator(model, x, h, n)
            py = walk_dense_operator(model, y, h, n)
            pxy = walk_dense_operator(model, x @ y, h, n)
            assert op_norm(pxy - px @ py) <= 1e-9
            pxs = walk_dense_operator(model, dagger(x), h, n)
            assert op_norm(pxs - dagger(px)) <= 1e-9
            assert op_norm(px) <= op_norm(x) * (1 + 1e-9)
            evs = np.linalg.eigvalsh(walk_dense_operator(model, dagger(x) @ x, h, n))
            assert evs.min() >= -1e-9

    def test_state_paths_agree(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            model = random_model(rng, 2, 1, 1.0)
            f = _rand_tf(rng, 1, 1.0)
            u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            a = walk_dense_state(model, SIGMA_X, u, f, 0.25, 4)
            # Reference: the dense operator applied to u (x) projected e(f).
            embed = toy_exp_embed(functions.slot_averages(f, 0.25, 4))
            b = (walk_dense_operator(model, SIGMA_X, 0.25, 4) @ np.kron(u, embed)).reshape(2, -1)
            assert np.linalg.norm(a - b) <= 1e-10 * max(1.0, np.linalg.norm(b))

    def test_state_zero_noise(self):
        model = GkslModel(d=2, m=1, R=np.zeros((2, 2)))
        rng = np.random.default_rng(7)
        f = _rand_tf(rng, 1, 1.0)
        u = np.array([1.0, -1j])
        state = walk_dense_state(model, np.eye(2), u, f, 0.25, 4)
        embed = toy_exp_embed(functions.slot_averages(f, 0.25, 4))
        want = np.einsum("a,J->aJ", u, embed)
        assert_allclose(state, want, atol=1e-12)

    def test_vacuum_component_is_iterated_vacuum_block(self):
        # With f = 0 the vacuum amplitude is the n-fold vacuum-block map of x
        # applied to u.
        from qrw.model import StepKernel, beta_blocks

        model = amplitude_damping(1.0)
        h, n = 0.2, 3
        u = np.array([0.6, 0.8])
        state = walk_dense_state(model, P1, u, TF.zero(1), h, n)
        kernel = StepKernel.build(model, h)
        Y = P1
        for _ in range(n):
            Y = beta_blocks(kernel, Y)[0, 0]
        assert_allclose(state.reshape(2, 2, 2, 2)[:, 0, 0, 0], Y @ u, atol=1e-12)


class TestStreamingEngine:
    def test_zero_noise_closed_form(self):
        rng = np.random.default_rng(11)
        model = GkslModel(d=2, m=2, R=np.zeros((4, 2)))
        f, g = _rand_tf(rng, 2, 1.0), _rand_tf(rng, 2, 1.0)
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        h, n = 0.125, 8
        got = walk_matrix_element(model, SIGMA_X, u, v, f, g, h, n)
        F = functions.slot_averages(f, h, n).F
        G = functions.slot_averages(g, h, n).F
        want = np.vdot(v, SIGMA_X @ u) * np.prod(
            [1 + np.vdot(G[k], F[k]) for k in range(n)]
        )
        assert got == pytest.approx(want, rel=1e-12)

    def test_vacuum_is_vacuum_block_iteration(self):
        from qrw.model import StepKernel, beta_blocks

        model = amplitude_damping(1.0)
        h, n = 0.125, 8
        u = np.array([0.6, 0.8])
        v = np.array([1.0, 0.0])
        got = walk_matrix_element(model, P1, u, v, TF.zero(1), TF.zero(1), h, n)
        kernel = StepKernel.build(model, h)
        Y = P1
        for _ in range(n):
            Y = beta_blocks(kernel, Y)[0, 0]
        assert got == pytest.approx(np.vdot(v, Y @ u), rel=1e-12)

    def test_engine_equivalence_random(self):
        rng = np.random.default_rng(13)
        for trial in range(100):
            d = int(rng.integers(1, 3))
            m = int(rng.integers(1, 3))
            model = random_model(rng, d, m, float(rng.uniform(0.2, 1.8)))
            n = int(rng.integers(1, 7))
            h = float(rng.choice([0.5, 0.2, 0.1]))
            f = _rand_tf(rng, m, n * h)
            g = _rand_tf(rng, m, n * h)
            x = _rand_x(rng, d)
            u = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            stream = walk_matrix_element(model, x, u, v, f, g, h, n)
            state = walk_dense_state(model, x, u, f, h, n)
            embed = toy_exp_embed(functions.slot_averages(g, h, n))
            dense = complex(np.vdot(np.einsum("a,J->aJ", v, embed), state))
            assert abs(stream - dense) <= 1e-10 * max(1.0, abs(dense)), trial

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 4),
        m=st.integers(1, 3),
        n=st.integers(1, 5),
        h=st.floats(0.01, 1.0),
        corruption=st.sampled_from([0.0, 1e-3, -0.4]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_engine_equivalence_property(self, d, m, n, h, corruption, seed):
        # Both engines step model.beta_factors, which carry a nonzero corruption
        # as one more term: the dense engine by the blocks of beta_blocks, the
        # stream engine at each slot's hats.  Agreement checks the contraction
        # with the hatted vectors, its chunking and its slot order.
        rng = np.random.default_rng(seed)
        R = random_model(rng, d, m, float(rng.uniform(0.1, 2.0))).R
        model = GkslModel(d=d, m=m, R=R, beta_corruption=corruption)
        f, g = _rand_tf(rng, m, n * h), _rand_tf(rng, m, n * h)
        x = _rand_x(rng, d)
        u = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        stream = walk_matrix_element(model, x, u, v, f, g, h, n)
        state = walk_dense_state(model, x, u, f, h, n)
        embed = toy_exp_embed(functions.slot_averages(g, h, n))
        dense = complex(np.vdot(np.einsum("a,J->aJ", v, embed), state))
        assert abs(stream - dense) <= 1e-10 * max(1.0, abs(dense))

    @settings(max_examples=30, deadline=None)
    @given(
        d=st.integers(1, 4),
        m=st.integers(1, 2),
        starts=st.lists(st.floats(0.3, 0.45), min_size=2, max_size=2),
        ends=st.lists(st.floats(0.55, 0.7), min_size=2, max_size=2),
        corruption=st.sampled_from([0.0, 1e-3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_vacuum_runs_match_slot_by_slot(self, d, m, starts, ends, corruption, seed):
        # f on [starts[0], ends[0]] and g on [starts[1], ends[1]] leave runs of
        # 300 or more vacuum slots at both ends, which walk_matrix_element takes
        # as matrix powers and the zero-cost run steps slot by slot.
        rng = np.random.default_rng(seed)
        R = random_model(rng, d, m, float(rng.uniform(0.1, 2.0))).R
        model = GkslModel(d=d, m=m, R=R, beta_corruption=corruption)
        n = 1024
        h = 1.0 / n
        f, g = (TF(np.linspace(a, b, 4), _rand_x(rng, 4)[:, :m]) for a, b in zip(starts, ends))
        x = _rand_x(rng, d)
        u = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        found = []

        def spy(*args):
            found.append(power_runs(*args))
            return found[-1]

        with mock.patch.object(walk, "power_runs", spy):
            got = walk_matrix_element(model, x, u, v, f, g, h, n)
        assert found[0]
        favgs, gavgs = functions.slot_averages(f, h, n), functions.slot_averages(g, h, n)
        want = _slot_by_slot(model, x, u, v, f, g, h, n)
        hats = np.prod(np.linalg.norm(favgs.hatted(slice(None)), axis=1)
                       * np.linalg.norm(gavgs.hatted(slice(None)), axis=1))
        scale = op_norm(x) * np.linalg.norm(u) * np.linalg.norm(v) * hats * (1 + corruption) ** n
        assert abs(got - want) <= 1e-12 * scale

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(1, 4),
        m=st.integers(1, 3),
        n=st.sampled_from([1, 63, 64, 65, 130]),
        corruption=st.sampled_from([0.0, 1e-3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_transfer_matches_slot_by_slot(self, d, m, n, corruption, seed):
        # f and g are nonzero on all of [0, 1], so at d <= 4 every slot goes
        # through a transfer matrix, and the zero-cost run steps the same slots
        # by sandwiches; n = 63, 64, 65 and 130 put chunk ends on either side of
        # CHUNK = 64.
        rng = np.random.default_rng(seed)
        R = random_model(rng, d, m, float(rng.uniform(0.1, 2.0))).R
        model = GkslModel(d=d, m=m, R=R, beta_corruption=corruption)
        h = 1.0 / n
        f, g = (TF(np.linspace(0.0, 1.0, 4), 0.5 + _rand_x(rng, 4)[:, :m]) for _ in range(2))
        x = _rand_x(rng, d)
        u = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        chosen = []

        def spy(*args):
            chosen.append(pick_engine(*args))
            return chosen[-1]

        pick_engine = linalg.pick_engine
        with mock.patch.object(linalg, "pick_engine", spy):
            got = walk_matrix_element(model, x, u, v, f, g, h, n)
        assert chosen[0][0]
        favgs, gavgs = functions.slot_averages(f, h, n), functions.slot_averages(g, h, n)
        assert (favgs.F != 0).all() and (gavgs.F != 0).all()
        want = _slot_by_slot(model, x, u, v, f, g, h, n)
        hats = np.prod(np.linalg.norm(favgs.hatted(slice(None)), axis=1)
                       * np.linalg.norm(gavgs.hatted(slice(None)), axis=1))
        scale = op_norm(x) * np.linalg.norm(u) * np.linalg.norm(v) * hats * (1 + corruption) ** n
        assert abs(got - want) <= 1e-12 * scale

    def test_d8_keeps_the_sandwich_loop(self):
        # At d = 8 the rule keeps the sandwich factors, and with f and g nonzero
        # everywhere no slot is a vacuum slot: the value is the zero-cost run's,
        # bit for bit.
        rng = np.random.default_rng(29)
        model = random_model(rng, 8, 2, 1.0)
        n = 300
        f, g = (TF(np.linspace(0.0, 1.0, 4), 0.5 + _rand_x(rng, 4)[:, :2]) for _ in range(2))
        x = _rand_x(rng, 8)
        u = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        want = _slot_by_slot(model, x, u, v, f, g, 1 / n, n)
        assert walk_matrix_element(model, x, u, v, f, g, 1 / n, n) == want

    @settings(max_examples=30, deadline=None)
    @given(
        d=st.integers(1, 4),
        m=st.integers(1, 3),
        corruption=st.sampled_from([0.0, 1e-3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_table_contracts_to_slot_superoperator(self, d, m, corruption, seed):
        # At d <= 4 the engine steps the slots by transfer matrices: at hats
        # (1, G), (1, F) each is the superoperator of the slot factors, which
        # carry the corruption as one more term.
        rng = np.random.default_rng(seed)
        R = random_model(rng, d, m, float(rng.uniform(0.1, 2.0))).R
        model = GkslModel(d=d, m=m, R=R, beta_corruption=corruption)
        factors = beta_factors(StepKernel.build(model, float(rng.uniform(0.01, 1.0))))
        terms = 1 + m + bool(corruption)
        assert linalg.pick_engine(d, terms, 1 + m, 1, 1)[0]
        maps, _, _, shape = step_maps(factors, 1 + m, 1, 1)
        assert shape == (d * d,)
        ghat, fhat = _rand_x(rng, 5 + m)[:5, :1 + m], _rand_x(rng, 5 + m)[:5, :1 + m]
        ghat[:, 0] = fhat[:, 0] = 1.0
        y = _rand_x(rng, d).reshape(-1)
        got = np.stack([apply(y) for apply in maps(ghat, fhat)])
        assert len(got) == 5
        want = superoperator(*factors(ghat, fhat)) @ y
        scale = np.linalg.norm(ghat, axis=1) * np.linalg.norm(fhat, axis=1) * np.linalg.norm(y)
        assert (np.linalg.norm(got - want, axis=1) <= 1e-13 * d * scale).all()

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 4),
        m=st.integers(1, 3),
        n=st.integers(1, 6),
        h=st.floats(0.01, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_identity_observable_is_isometry(self, d, m, n, h, seed):
        # beta(h, 1) = 1 (x) 1, so p_{nh}(1) is the identity and the matrix
        # element is <v, u> times the overlap of the projected exponentials.
        rng = np.random.default_rng(seed)
        model = random_model(rng, d, m, float(rng.uniform(0.1, 2.0)))
        f, g = _rand_tf(rng, m, n * h), _rand_tf(rng, m, n * h)
        u = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        got = walk_matrix_element(model, np.eye(d), u, v, f, g, h, n)
        want = np.vdot(v, u) * np.vdot(toy_exp_embed(functions.slot_averages(g, h, n)),
                                       toy_exp_embed(functions.slot_averages(f, h, n)))
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_corruption_shifts_one_vacuum_slot_by_c_x(self):
        # The benchmark's negative control relies on this hook.
        rng = np.random.default_rng(31)
        base = random_model(rng, 3, 2, 1.0)
        c = 1e-3
        bad = GkslModel(d=3, m=2, R=base.R, beta_corruption=c)
        x = _rand_x(rng, 3)
        shift = (beta_blocks(StepKernel.build(bad, 0.1), x)[0, 0]
                 - beta_blocks(StepKernel.build(base, 0.1), x)[0, 0])
        assert_allclose(shift, c * x, rtol=0, atol=1e-15)

    def test_norm_sq_consistency(self):
        rng = np.random.default_rng(17)
        model = random_model(rng, 2, 1, 1.2)
        f = _rand_tf(rng, 1, 1.0)
        u = np.array([0.5, 1.0 - 0.5j])
        h, n = 0.25, 4
        got = walk_norm_sq(model, SIGMA_X, u, f, h, n)
        # exact path identity with the matrix element
        me = walk_matrix_element(model, SIGMA_X @ SIGMA_X, u, u, f, f, h, n)
        assert got == me.real
        # dense state norm
        state = walk_dense_state(model, SIGMA_X, u, f, h, n)
        assert got == pytest.approx(np.vdot(state, state).real, rel=1e-10)
        # contraction bound against the embedded exponential
        embed = toy_exp_embed(functions.slot_averages(f, h, n))
        embed_sq = np.vdot(embed, embed).real
        assert got <= op_norm(SIGMA_X) ** 2 * np.linalg.norm(u) ** 2 * embed_sq * (1 + 1e-9)

    def test_norm_sq_raises_when_beta_is_not_star_preserving(self):
        # An imaginary corruption c x of beta is not *-preserving, so the
        # (x*x, u, u, f, f) element is not real: imaginary residue 0.409 here.
        model = GkslModel(d=2, m=1, R=amplitude_damping(1.0).R, beta_corruption=0.1j)
        f = TF(np.array([0.0, 1.0]), np.array([[0.3], [0.1]]))
        with pytest.raises(ArithmeticError, match="imaginary residue"):
            walk_norm_sq(model, SIGMA_X, np.array([0.6, 0.8]), f, 0.25, 4)

    def test_step_locality(self):
        # The walk is adapted: the n-slot value ignores f beyond nh.
        rng = np.random.default_rng(19)
        model = random_model(rng, 2, 1, 1.0)
        h, n = 0.2, 5
        f = _rand_tf(rng, 1, 1.0)
        g = _rand_tf(rng, 1, 1.0)
        f_ext = TF(
            np.concatenate([f.breakpoints, [n * h + 0.5, n * h + 1.0]]),
            np.concatenate([f.values, [[0.9], [0.0]]]),
        )
        base = walk_matrix_element(model, SIGMA_X, [1, 0], [0, 1], f, g, h, n)
        with_tail = walk_matrix_element(model, SIGMA_X, [1, 0], [0, 1], f_ext, g, h, n)
        assert with_tail == pytest.approx(base, rel=1e-12)


class TestFTerm:
    def test_zero_function(self):
        model = amplitude_damping(1.0)
        res = f_term_norm(model, SIGMA_X, np.array([1.0, 0.0]), TF.zero(1), 0.1, 1)
        assert res.value_sq <= 1e-20
        assert res.passed
        assert res.decomposition_residual <= 1e-12

    def test_single_interval_reduction(self):
        # constant f, n = 1: ||F||^2 = ||xu||^2 ||(1 - P_h) e(f)||^2, matching
        # the direct interval-space computation.
        model = amplitude_damping(1.0)
        h, G, N = 0.1, 8, 4
        c = 0.4
        f = TF.constant([c], 0.0, h)
        u = np.array([0.8, 0.6])
        res = f_term_norm(model, SIGMA_X, u, f, h, 1, G=G, N=N)
        space = IntervalSpace(m=1, G=G, N=N, h=h)
        e = exp_vector(space, f.cell_averages(0.0, h, G))
        q_sq = np.linalg.norm(e - project_Ph(space, e)) ** 2
        want = np.linalg.norm(SIGMA_X @ u) ** 2 * q_sq
        assert res.value_sq == pytest.approx(want, rel=1e-9)
        assert res.passed

    def test_identity_observable_is_deficiency(self):
        # The walk is unital, so at x = 1 every W_{k-1}(1) is the identity and
        # ||F||^2 = ||u||^2 ||(1 - P_h) e(f on [0, nh])||^2.
        rng = np.random.default_rng(43)
        for trial in range(40):
            d, m, n, G = (int(rng.integers(1, k + 1)) for k in (3, 2, 3, 4))
            N = int(rng.integers(4, 7))
            h = float(rng.choice([0.25, 0.1, 0.05]))
            model = random_model(rng, d, m, float(rng.uniform(0.2, 1.5)))
            u = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            f = _within_tail(_rand_tf(rng, m, n * h), IntervalSpace(m=m, G=G, N=N, h=h), n)
            got = f_term_norm(model, np.eye(d), u, f, h, n, G=G, N=N).value_sq
            want = np.vdot(u, u).real * projection_deficiency(f, n * h, h, m, G, N) ** 2
            assert got == pytest.approx(want, rel=1e-13, abs=0), trial

    def test_bound_is_within_reach(self):
        # A witness that the bound h c(f, t) ||x||^2 ||u||^2 is not loose by 10x:
        # a tent f of height 1 over two slots of h = 1/2 reads
        # value_sq / (bound + slack) = 0.0362, with slack / bound ~ 6e-10.
        f = TF(np.array([0.0, 0.5, 1.0]), np.array([[0.0], [1.0], [0.0]]))
        res = f_term_norm(amplitude_damping(1.0), SIGMA_X, np.array([1.0, 0.0]), f, 0.5, 2,
                          G=8, N=6)
        assert res.passed and res.slack <= 1e-8 * res.bound
        assert res.value_sq / (res.bound + res.slack) >= 0.012

    @pytest.mark.parametrize("n", [1, 2])
    def test_decomposition_identity(self, n):
        rng = np.random.default_rng(29)
        model = random_model(rng, 2, 1, 1.1)
        f = TF(np.array([0.0, 0.08, 0.2]), np.array([[0.0], [0.5], [0.0]]))
        u = np.array([0.3, -0.9 + 0.2j])
        res = f_term_norm(model, _rand_x(rng, 2), u, f, 0.1, n, G=8, N=4)
        assert res.decomposition_residual <= 1e-9
        assert res.passed


def _reference_f_term(model, x, u, f, h, n, G, N):
    """(value_sq, residual) of the F term in the hybrid space, n in {1, 2}.

    Every term is a full (d, D) or (d, D, D) array over the interval Fock
    space, with the walk legs embedded through (vacuum, chi).
    """
    x = model.check_x(x)
    u = np.asarray(u, dtype=complex).reshape(-1)
    kernel = StepKernel.build(model, h)
    avgs = functions.slot_averages(f, h, n)
    space = IntervalSpace(m=model.m, G=G, N=N, h=h)
    emb = khat_embedding(space)
    e_vecs = [exp_vector(space, f.cell_averages(k * h, (k + 1) * h, G)) for k in range(n)]
    q_vecs = [e - project_Ph(space, e) for e in e_vecs]

    xu = x @ u
    if n == 1:
        toy = walk_dense_state(model, x, u, f, h, 1)
        lhs = np.einsum("aj,jp->ap", toy, emb)
        term0 = np.einsum("a,p->ap", xu, e_vecs[0])
        d1 = defect_leg_outputs(kernel, x, avgs.hatted(0))
        mid = np.einsum("jab,b,jp->ap", d1, u, emb, optimize=True)
        Fterm = -np.einsum("a,p->ap", xu, q_vecs[0])
    else:
        toy = walk_dense_state(model, x, u, f, h, 2).reshape(model.d, 1 + model.m, 1 + model.m)
        lhs = np.einsum("ajk,jp,kq->apq", toy, emb, emb, optimize=True)
        term0 = np.einsum("a,p,q->apq", xu, e_vecs[0], e_vecs[1], optimize=True)
        d1 = defect_leg_outputs(kernel, x, avgs.hatted(0))
        mid = np.einsum("jab,b,jp,q->apq", d1, u, emb, e_vecs[1], optimize=True)
        d2 = defect_leg_outputs(kernel, x, avgs.hatted(1))
        s21 = step_leg_outputs(kernel, d2, avgs.hatted(0))
        mid += np.einsum("kjab,b,jp,kq->apq", s21, u, emb, emb, optimize=True)
        s1 = step_leg_outputs(kernel, x, avgs.hatted(0))
        Fterm = -np.einsum("a,p,q->apq", xu, q_vecs[0], e_vecs[1], optimize=True)
        Fterm -= np.einsum("jab,b,jp,q->apq", s1, u, emb, q_vecs[1], optimize=True)
    residual = float(np.linalg.norm(lhs - term0 - mid - Fterm))
    return float(np.sum(np.abs(Fterm) ** 2)), residual


def _full_space_f_term(model, x, u, f, h, n, G, N):
    """(value_sq, residual) of the telescoped decomposition for any n, in D^n.

    A_k = W_k(x) u e_{k+1} ... e_n, with the walk legs embedded through
    ``khat_embedding`` and full exponential vectors on every later slot.
    """
    d, m = model.d, model.m
    u = np.asarray(u, dtype=complex).reshape(-1)
    kernel = StepKernel.build(model, h)
    avgs = functions.slot_averages(f, h, n)
    space = IntervalSpace(m=m, G=G, N=N, h=h)
    emb = khat_embedding(space)
    es = [exp_vector(space, f.cell_averages(k * h, (k + 1) * h, G)) for k in range(n)]
    qs = [e - project_Ph(space, e) for e in es]

    def prefix(ops, k):
        # Slots k, ..., 1 applied to ops (L, d, d), then u: (d, (1+m)^k L).
        for j in range(k - 1, -1, -1):
            ops = np.moveaxis(step_leg_outputs(kernel, ops, avgs.hatted(j)), 1, 0)
            ops = ops.reshape(-1, d, d)
        return np.einsum("Jab,b->aJ", ops, u)

    def embed(vec, legs):
        t = vec.reshape((d,) + (1 + m,) * legs)
        for _ in range(legs):
            t = np.tensordot(t, emb, axes=([1], [0]))
        return t.reshape(d, -1)

    def times(a, *vecs):
        for v in vecs:
            a = (a[:, :, None] * v).reshape(d, -1)
        return a

    lhs = embed(walk_dense_state(model, x, u, f, h, n), n)
    term0 = times((x @ u)[:, None], *es)
    mid = sum(times(embed(prefix(defect_leg_outputs(kernel, x, avgs.hatted(k)), k), k + 1),
                    *es[k + 1:]) for k in range(n))
    Fterm = -sum(times(embed(prefix(x[None], k), k), qs[k], *es[k + 1:]) for k in range(n))
    residual = float(np.linalg.norm(lhs - term0 - mid - Fterm))
    return float(np.sum(np.abs(Fterm) ** 2)), residual


class TestFTermSlotCoordinates:
    # Every draw compares values: f is halved until its largest slot tail at the
    # drawn N is a tenth of TAIL_LIMIT (test_truncation_tail_raises covers the raise).
    @settings(max_examples=100, deadline=None)
    @given(
        d=st.integers(1, 3),
        m=st.integers(1, 2),
        h=st.floats(0.02, 0.3),
        n=st.integers(1, 2),
        # At G = N = 1 the slot space is the whole space, so both sides read 0.
        GN=st.tuples(st.integers(1, 4), st.integers(1, 4)).filter(lambda GN: GN != (1, 1)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_hybrid_space_reference(self, d, m, h, n, GN, seed):
        G, N = GN
        rng = np.random.default_rng(seed)
        model = random_model(rng, d, m, rng.uniform(0.2, 1.5))
        x = _rand_x(rng, d)
        u = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        f = _within_tail(_rand_tf(rng, m, n * h), IntervalSpace(m=m, G=G, N=N, h=h), n)
        res = f_term_norm(model, x, u, f, h, n, G=G, N=N)
        want, want_residual = _reference_f_term(model, x, u, f, h, n, G, N)
        assert abs(res.value_sq - want) <= 1e-12 * abs(want) + 1e-18
        assert res.decomposition_residual <= 1e-12
        assert want_residual <= 1e-12

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_full_space_telescoping(self, n):
        rng = np.random.default_rng(41 + n)
        model = random_model(rng, 2, 1, 1.0)
        # Cutoff N = n keeps every slot's truncation tail under TAIL_LIMIT.
        h, G, N = 0.1, 2, n
        x, u = _rand_x(rng, 2), np.array([0.6, 0.8j])
        f = _rand_tf(rng, 1, n * h, height=0.5)
        assert IntervalSpace(m=1, G=G, N=N, h=h).dim == {3: 10, 4: 15}[n]
        res = f_term_norm(model, x, u, f, h, n, G=G, N=N)
        want, want_residual = _full_space_f_term(model, x, u, f, h, n, G, N)
        assert want_residual <= 1e-12
        assert res.value_sq == pytest.approx(want, rel=1e-12)
        assert res.value_sq > 0
        assert res.decomposition_residual <= 1e-12
        assert res.passed

    def test_n_zero_raises(self):
        with pytest.raises(ValueError):
            f_term_norm(amplitude_damping(1.0), SIGMA_X, [1.0, 0.0], TF.zero(1), 0.1, 0)

    def test_truncation_tail_raises(self):
        # f = 3 on slots of h = 1/4 with G = N = 4 leaves a per-slot tail of 4.6,
        # far above TAIL_LIMIT: the check raises rather than count it as slack.
        f = TF.constant([3.0], 0.0, 0.5)
        with pytest.raises(TruncationError):
            f_term_norm(amplitude_damping(1.0), SIGMA_X, [1.0, 0.0], f, 0.25, 2, G=4, N=4)

    def test_dense_cap_raises(self):
        # d (1+m)^n = 2 * 2^12 = 8192 exceeds DENSE_CAP = 4096.
        with pytest.raises(DenseCapError):
            f_term_norm(amplitude_damping(1.0), SIGMA_X, [1.0, 0.0], TF.zero(1), 0.01, 12)

    def test_lemma_grid_two_slots(self):
        # m = 2, G = 8, N = 6: D = 74,613, beyond reach of D^2 arrays.
        rng = np.random.default_rng(53)
        model = random_model(rng, 3, 2, 1.0)
        h = 0.25
        f = _rand_tf(rng, 2, 2 * h, height=0.5)
        assert IntervalSpace(m=2, G=8, N=6, h=h).dim == 74613
        res = f_term_norm(model, _rand_x(rng, 3), np.array([0.6, 0.0, 0.8]), f, h, 2,
                          G=8, N=6)
        assert res.value_sq > 0
        assert res.decomposition_residual <= 1e-12


class TestVectorInputs:
    """u and v are checked once, by ``GkslModel.check_vector``."""

    def setup_method(self):
        self.model = amplitude_damping(1.0)
        self.f = TF(np.array([0.0, 0.4, 1.0]), np.array([[0.0], [0.3], [0.1]]))

    def test_short_u_rejected(self):
        # Once broadcast into a (2, 4) state at d = 2.
        with pytest.raises(ValueError, match="1-d vector of length 2"):
            walk_dense_state(self.model, SIGMA_X, [1.0], self.f, 0.5, 2)

    @pytest.mark.parametrize("which", ["u", "v"])
    def test_nan_rejected_by_matrix_element(self, which):
        # Once returned nan+nanj.
        vecs = {"u": [1.0, 0.0], "v": [0.0, 1.0]}
        vecs[which] = [np.nan, 0.0]
        with pytest.raises(ValueError, match="non-finite"):
            walk_matrix_element(self.model, SIGMA_X, vecs["u"], vecs["v"], self.f, self.f, 0.5, 2)

    def test_nan_rejected_by_f_term(self):
        # Once returned passed=False with NaN values.
        with pytest.raises(ValueError, match="non-finite"):
            f_term_norm(self.model, SIGMA_X, [np.nan, 0.0], self.f, 0.25, 2, G=4, N=4)

    def test_check_vector(self):
        u = self.model.check_vector([1, 2j])
        assert u.dtype == complex and u.shape == (2,)
        for bad in ([1.0, 2.0, 3.0], [[1.0], [0.0]], [np.inf, 0.0]):
            with pytest.raises(ValueError):
                self.model.check_vector(bad)


@pytest.mark.parametrize("entry, message", [
    ("walk_dense_operator", "need n >= 1"),
    ("walk_dense_state", "need n >= 1"),
    ("walk_matrix_element_f", "test function on 7 channels, expected 3"),
    ("walk_matrix_element_g", "test function on 2 channels, expected 1"),
    ("f_term_norm", "test function on 2 channels, expected 1"),
])
def test_input_checks(entry, message):
    model, zero = amplitude_damping(1.0), TF.zero(1)
    # At m = 3, f on 7 channels and g on 1 give (1 + 7)(1 + 1) = (1 + m)^2 hat
    # pairs, so the walk once returned a value that meant nothing; other
    # counts died in a bare numpy reshape.
    wide = random_model(np.random.default_rng(3), 2, 3, 1.0)
    f1, f2, f7 = (TF([0.0, 0.5, 1.0], np.full((3, c), 0.1)) for c in (1, 2, 7))
    u = [1.0, 0.0]
    calls = {
        "walk_dense_operator": lambda: walk_dense_operator(model, SIGMA_X, 0.1, 0),
        "walk_dense_state": lambda: walk_dense_state(model, SIGMA_X, [1.0, 0.0], zero, 0.1, 0),
        "walk_matrix_element_f": lambda: walk_matrix_element(wide, SIGMA_X, u, u, f7, f1, 0.25, 4),
        "walk_matrix_element_g": lambda: walk_matrix_element(model, SIGMA_X, u, u, f1, f2, 0.25, 4),
        "f_term_norm": lambda: f_term_norm(model, SIGMA_X, u, f2, 0.25, 2, G=2, N=3),
    }
    with pytest.raises(ValueError, match=message):
        calls[entry]()
