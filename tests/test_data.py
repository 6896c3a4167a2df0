import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from octantheat import (
    FrequencyField,
    InitialDataKind,
    InitialDataSpec,
    Nonlinearity,
    NonlinearityKind,
    NormFlavor,
    NormSpec,
    ProblemSpec,
    SpaceTimeField,
    choose_lambda,
    make_grid,
    make_initial_data,
    rescale_solution,
    scale_data,
    scaled_grid,
    static_norm,
    support_stats,
    taylor_coefficients,
)
from octantheat.data import DATA_KINDS


def exp_halfline(grid, amp=1.0):
    return make_initial_data(
        InitialDataSpec(InitialDataKind.EXP_HALFLINE, amplitude=amp), grid
    )


class TestMakeInitialData:
    def test_exp_halfline_values(self):
        g = make_grid(1, 4, 1 / 64)
        f = exp_halfline(g)
        i = int(round(2.0 / g.h))
        assert f.values[i] == pytest.approx(math.e**2, rel=1e-12)
        assert f.values[int(round(0.5 / g.h))] == 0.0
        assert f.values[int(round(1.0 / g.h))] == pytest.approx(math.e, rel=1e-12)

    def test_octant_bump_gates(self):
        g = make_grid(2, 4, 0.25)
        f = make_initial_data(
            InitialDataSpec(InitialDataKind.OCTANT_BUMP, eps0=1.0, width=0.5), g
        )
        st = support_stats(f)
        assert st.min_linf == 1.0
        assert st.min_l1 == 2.0  # two axes at 1.0 each

    def test_halfline_derivative_rendering(self):
        g = make_grid(1, 4, 0.25)
        f = make_initial_data(
            InitialDataSpec(InitialDataKind.HALFLINE_DERIVATIVE,
                            amplitude=2.0, deriv_order=3, shift=1.0), g
        )
        xi = 2.5
        i = int(round(xi / g.h))
        assert f.values[i] == pytest.approx(2.0 * (1j * (xi - 1.0)) ** 3, rel=1e-12)
        assert not f.values[: int(round(1.0 / g.h))].any()

    def test_support_exceeding_grid_errors(self):
        g = make_grid(1, 2, 0.25)
        with pytest.raises(ValueError):
            make_initial_data(
                InitialDataSpec(InitialDataKind.OCTANT_BUMP, eps0=1.5, width=1.0), g
            )


# The parent's eleven-field spec fields (all but kind) and each kind's own.
SPEC_FIELDS = ("eps0", "width", "amplitude", "deriv_order", "shift", "pair_k",
               "scale_n", "s", "sigma", "m")
KIND_PARAMS = {
    InitialDataKind.EXP_HALFLINE: {"amplitude": 1.0},
    InitialDataKind.OCTANT_BUMP: {"eps0": 1.0, "width": 0.5, "amplitude": 1.0},
    InitialDataKind.HALFLINE_DERIVATIVE: {"amplitude": 1.0, "deriv_order": 1,
                                          "shift": 1.0},
}


def _ref_box(grid, lo, hi):
    out = np.ones(grid.shape)
    for c in grid.coords():
        out = out * ((c >= lo - 1e-12) & (c < hi - 1e-12))
    return out


def reference_initial_data(kind, grid, eps0=1.0, width=0.5, amplitude=1.0,
                           deriv_order=1, shift=1.0):
    """The if-chain sampler the kind table replaced, kept as the reference
    (its coverage and parameter checks left out: only values are compared)."""
    if kind is InitialDataKind.EXP_HALFLINE:
        xi = grid.axis
        return FrequencyField(grid, amplitude * np.exp(xi) * (xi >= 1.0 - 1e-12))
    if kind is InitialDataKind.OCTANT_BUMP:
        return FrequencyField(grid, amplitude * _ref_box(grid, eps0, eps0 + width))
    xi = grid.axis  # HALFLINE_DERIVATIVE
    mask = xi >= shift - 1e-12
    return FrequencyField(grid, amplitude * (1j * (xi - shift)) ** deriv_order * mask)


# kind -> (dimensions, grid per d, non-default parameters)
SAMPLE_CASES = {
    InitialDataKind.EXP_HALFLINE: ((1,), lambda d: make_grid(d, 4, 1 / 16),
                                   {"amplitude": 2.5 - 1j}),
    InitialDataKind.OCTANT_BUMP: ((1, 2, 3), lambda d: make_grid(d, 2, 1 / 4),
                                  {"eps0": 0.5, "width": 1.25, "amplitude": 3.0}),
    InitialDataKind.HALFLINE_DERIVATIVE: (
        (1,), lambda d: make_grid(d, 4, 1 / 16),
        {"amplitude": 2.0, "deriv_order": 3, "shift": 1.5}),
}


class TestKindTable:
    def test_each_kind_takes_its_own_parameters(self):
        for kind, params in KIND_PARAMS.items():
            sig = inspect.signature(DATA_KINDS[kind]).parameters
            assert {k: p.default for k, p in list(sig.items())[1:]} == params

    @pytest.mark.parametrize("kind,key", [
        (kind, key) for kind in InitialDataKind for key in SPEC_FIELDS
        if key not in KIND_PARAMS[kind]])
    def test_foreign_key_rejected(self, kind, key):
        with pytest.raises(ValueError, match=rf"{kind.value} takes no parameter\(s\) "
                                             rf"{key};") as err:
            InitialDataSpec(kind, **{key: 1})
        assert all(own in str(err.value) for own in KIND_PARAMS[kind])

    @pytest.mark.parametrize("kind", list(InitialDataKind))
    @pytest.mark.parametrize("which", ["default", "set"])
    def test_samples_bitwise_equal_to_if_chain(self, kind, which):
        dims, make, params = SAMPLE_CASES[kind]
        params = {} if which == "default" else params
        for d in dims:
            g = make(d)
            got = make_initial_data(InitialDataSpec(kind.value, **params), g)
            assert type(got) is FrequencyField  # every kind is an octant field
            assert got.values.tobytes() == \
                reference_initial_data(kind, g, **params).values.tobytes()

    def test_kind_string_and_keyword_forms(self):
        g = make_grid(2, 2, 1 / 4)
        a = make_initial_data(InitialDataSpec(kind="OCTANT_BUMP", width=0.75), g)
        b = make_initial_data(
            InitialDataSpec(InitialDataKind.OCTANT_BUMP, width=0.75), g)
        assert a.values.tobytes() == b.values.tobytes()
        with pytest.raises(ValueError):
            InitialDataSpec("NO_SUCH_KIND")


class TestScaleData:
    def test_identity(self):
        g = make_grid(1, 4, 0.25)
        f = exp_halfline(g)
        out = scale_data(f, 1.0, 0.0, out_grid=g)
        assert np.allclose(out.values, f.values, rtol=1e-12)

    def test_support_and_amplitude_change_of_variables(self):
        g = make_grid(1, 2, 1 / 8)
        vals = np.where((g.axis >= 1.0) & (g.axis < 2.0), 1.0 + 0j, 0.0)
        f = FrequencyField(g, vals)
        out = scale_data(f, 2.0, 0.0)
        assert out.grid.xi_max == 4
        nz = np.nonzero(out.values)[0] * out.grid.h
        assert nz.min() == pytest.approx(2.0)
        assert nz.max() == pytest.approx(4.0 - out.grid.h)
        assert np.abs(out.values[np.nonzero(out.values)]).max() == \
            pytest.approx(0.5, rel=1e-12)
        assert np.abs(out.values[np.nonzero(out.values)]).min() == \
            pytest.approx(0.5, rel=1e-12)

    def test_exact_on_index_preserving_grid(self):
        g = make_grid(1, 4, 1 / 16)
        f = exp_halfline(g)
        out = scale_data(f, 4, 0.0, out_grid=scaled_grid(g, 4))
        assert np.array_equal(out.values, 4.0 ** (-1) * f.values)

    def test_dilation_norm_bound(self):
        # || f(lam .) ||_{sigma,s} <= C lam^{-d/2+max(sigma,0)}
        #                             2^{s(lam-1)eps0} || f ||  for lam in 2,4,8
        g = make_grid(1, 4, 1 / 16)
        f = exp_halfline(g)
        s, eps0 = -1.0, 1.0
        for sigma in (0.5, 1.0):
            spec = NormSpec(NormFlavor.ES_INTEGRAL, s, sigma)
            base = static_norm(f, spec)
            for lam in (2, 4, 8):
                fl = scale_data(f, lam, 0.0, out_grid=scaled_grid(g, lam))
                lhs = static_norm(fl, spec)
                rhs = lam ** (-0.5 + sigma) * 2.0 ** (s * (lam - 1) * eps0) * base
                assert lhs <= 1.5 * rhs

    def test_overflow_errors(self):
        g = make_grid(1, 4, 0.25)
        f = exp_halfline(g)
        with pytest.raises(ValueError):
            scale_data(f, 2.0, 0.0, out_grid=g)


class TestChooseLambda:
    def test_worked_example(self):
        plan = choose_lambda(7.0, s=-1.0, sigma=-1.5, m=2, eps0=1.0, C_fix=2.0)
        assert plan.lam == 18
        assert plan.s0 == -18.0
        assert plan.a == 2.0
        assert plan.smallness_margin <= 0.01

    def test_first_feasible_lambda(self):
        plan = choose_lambda(1e-6, s=-1.0, sigma=0.0, m=2, eps0=0.25, C_fix=1.0)
        assert plan.lam == 5  # ceil(1/eps0) + 1

    def test_monotone_in_datum_size(self):
        small = choose_lambda(3.0, s=-1.0, sigma=0.0, m=2, eps0=1.0, C_fix=2.0)
        big = choose_lambda(6.0, s=-1.0, sigma=0.0, m=2, eps0=1.0, C_fix=2.0)
        assert big.lam >= small.lam

    def test_accepts_field_input(self):
        g = make_grid(1, 4, 1 / 16)
        f = exp_halfline(g)
        plan = choose_lambda(f, s=-1.0, sigma=0.0, m=2, eps0=1.0, C_fix=1.0)
        norm = static_norm(f, NormSpec(NormFlavor.ES_INTEGRAL, -1.0, 0.0))
        ref = choose_lambda(norm, s=-1.0, sigma=0.0, m=2, eps0=1.0, C_fix=1.0)
        assert plan.lam == ref.lam

    def test_requires_negative_s(self):
        with pytest.raises(ValueError):
            choose_lambda(1.0, s=0.0, sigma=0.0, m=2, eps0=1.0, C_fix=1.0)

    @pytest.mark.parametrize("key,value", [
        ("m", 1), ("m", 2.5), ("m", True), ("f", math.nan), ("f", math.inf),
        ("f", -1.0), ("s", math.nan), ("sigma", math.nan), ("eps0", math.inf),
        ("C_fix", math.nan),
    ])
    def test_rejects_bad_input(self, key, value):
        args = dict(f=1.0, s=-1.0, sigma=0.0, m=2, eps0=1.0, C_fix=1.0)
        with pytest.raises(ValueError):
            choose_lambda(**{**args, key: value})


class TestRescaleSolution:
    def _traj(self, grid, nt=5):
        tg = np.linspace(0.0, 0.25, nt)
        rng = np.random.default_rng(0)
        base = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        vals = np.stack([(1.0 + n) * base for n in range(nt)])
        return SpaceTimeField(grid, tg, vals)

    def test_identity(self):
        g = make_grid(1, 4, 0.25)
        u = self._traj(g)
        back = rescale_solution(u, 1.0, 0.0, out_grid=g)
        assert np.allclose(back.values, u.values, rtol=1e-12)
        assert np.allclose(back.tgrid, u.tgrid)

    def test_roundtrip_with_scale_data_exact(self):
        g = make_grid(1, 4, 1 / 16)
        f = exp_halfline(g)
        lam, a = 2, 2.0
        fl = scale_data(f, lam, a, out_grid=scaled_grid(g, lam))
        tg = np.linspace(0.0, 0.25, 5)
        u = SpaceTimeField(fl.grid, tg,
                           np.broadcast_to(fl.values[None], (5, fl.grid.n)).copy())
        back = rescale_solution(u, lam, a, out_grid=g)
        assert back.tgrid[-1] == pytest.approx(lam**2 * 0.25)
        err = np.abs(back.values[0] - f.values).max()
        assert err <= 1e-6 * np.abs(f.values).max()

    @pytest.mark.parametrize("a", [2.0, 1.5])
    def test_real_taylor_coefficient(self, a):
        # a real datum's Taylor orders are float64 stacks, scaled as they are
        g = make_grid(1, 4, 1 / 8)
        spec = ProblemSpec(g, Nonlinearity(NonlinearityKind.POWER, m=2), eps0=1.0,
                           T=0.5, nt=9)
        c2 = taylor_coefficients(spec, exp_halfline(g), 3.0).coeffs[1]
        assert c2.values.dtype == np.float64 and c2.values.any()
        back = rescale_solution(c2, 2, a)
        assert back.values.dtype == np.float64
        assert same_bits(back.values, 2 ** (g.d - a) * c2.values)

    def test_support_scales_down(self):
        g = make_grid(1, 8, 1 / 8)
        vals = np.where((g.axis >= 4.0) & (g.axis < 6.0), 1.0 + 0j, 0.0)
        tg = np.linspace(0.0, 1.0, 3)
        u = SpaceTimeField(g, tg, np.broadcast_to(vals[None], (3, g.n)).copy())
        back = rescale_solution(u, 2, 0.0)
        nz = np.nonzero(back.values[0])[0] * back.grid.h
        assert nz.min() == pytest.approx(2.0)


def sparse_values(shape, seed, density):
    """Random complex samples, zero outside a random support; about half the
    zero cells hold -0.0, a real datum's negative zero."""
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    vals = np.where(rng.random(shape) < density, vals, 0.0)
    vals[(vals == 0) & (rng.random(shape) < 0.5)] = complex(-0.0, 0.0)
    return vals


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def scaled_parts(values, c):
    """c times the real and the imaginary part of each value, one part at a
    time, so that signed zeros keep their signs (a complex product by c
    adds 0 * the other part)."""
    out = np.empty_like(values)
    out.real, out.imag = c * values.real, c * values.imag
    return out


def sample_per_row(values, grid, coords):
    """Reference: ``values`` read at ``coords`` on each of its last ``grid.d``
    axes, one row at a time; every point must sit on a sample of ``grid``."""
    at = coords / grid.h
    cell = np.rint(at).astype(int)
    assert np.allclose(at, cell, rtol=0, atol=1e-9)
    assert cell.min() >= 0 and cell.max() < grid.n
    for axis in range(values.ndim - grid.d, values.ndim):
        v = np.moveaxis(values, axis, -1)
        rows = v.reshape(-1, v.shape[-1])
        out = np.empty((rows.shape[0], cell.size), dtype=values.dtype)
        for r in range(rows.shape[0]):
            out[r] = rows[r][cell]
        values = np.moveaxis(out.reshape(v.shape[:-1] + (cell.size,)), -1, axis)
    return values


LAMBDAS = (0.5, 1, 1.5, 2, 3, 4)


class TestResampleAgainstPerRow:
    """``scale_data`` and ``rescale_solution`` equal the dilated field read
    at its sample points row by row, bitwise (signed zeros included), and
    reject every factor that is not index-preserving."""

    @settings(max_examples=80, deadline=None)
    @given(d=st.integers(1, 3), xi_max=st.integers(1, 3), n_sub=st.sampled_from((2, 4, 6, 8)),
           lam=st.sampled_from(LAMBDAS), density=st.sampled_from((0.0, 0.2, 0.6, 1.0)),
           exact=st.booleans(), seed=st.integers(0, 2**16))
    def test_scale_data(self, d, xi_max, n_sub, lam, density, exact, seed):
        g = make_grid(d, xi_max, 1.0 / n_sub)
        f = FrequencyField(g, sparse_values(g.shape, seed, density))
        if lam != int(lam) or n_sub % lam != 0:
            with pytest.raises(ValueError):
                scale_data(f, lam, 2.0)
            return
        out = scale_data(f, lam, 2.0, out_grid=scaled_grid(g, lam) if exact else None)
        assert out.grid == scaled_grid(g, lam)
        ref = scaled_parts(sample_per_row(f.values, g, out.grid.axis / lam), lam ** (2.0 - d))
        assert same_bits(out.values, ref)

    @settings(max_examples=80, deadline=None)
    @given(d=st.integers(1, 3), xi_max=st.integers(1, 3), n_sub=st.sampled_from((2, 4, 6, 8)),
           lam=st.sampled_from(LAMBDAS), density=st.sampled_from((0.0, 0.2, 0.6, 1.0)),
           nt=st.integers(2, 3), exact=st.booleans(), seed=st.integers(0, 2**16))
    def test_rescale_solution(self, d, xi_max, n_sub, lam, density, nt, exact, seed):
        # exact: the trajectory lives on the scaled grid of a smaller one;
        # otherwise on that smaller grid, which lam may still divide
        small = make_grid(d, xi_max, 1.0 / n_sub)
        g = scaled_grid(small, lam) if exact and lam == int(lam) and n_sub % lam == 0 \
            else small
        tg = np.linspace(0.0, 0.1, nt)
        u = SpaceTimeField(g, tg, sparse_values((nt, *g.shape), seed, density))
        if lam != int(lam) or g.xi_max % lam != 0:
            with pytest.raises(ValueError):
                rescale_solution(u, lam, 2.0)
            return
        back = rescale_solution(u, lam, 2.0, out_grid=small if g != small else None)
        assert scaled_grid(back.grid, lam) == g
        if g != small:
            assert back.grid == small
        assert same_bits(back.tgrid, lam**2 * tg)
        ref = scaled_parts(sample_per_row(u.values, g, back.grid.axis * lam), lam ** (d - 2.0))
        assert same_bits(back.values, ref)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("lam", [2, 4])
    def test_exact_index_map(self, d, lam):
        # between scaled_grid pairs every point sits on a sample, so both
        # directions are the per-row gather times one factor, on real data of
        # both signs, complex data, and zero and -0.0 samples inside the
        # support and at its edges
        small = make_grid(d, 2, 1 / 4)
        big = scaled_grid(small, lam)
        rng = np.random.default_rng(10 * d + lam)
        vals = np.zeros((3, *small.shape), dtype=complex)
        box = (slice(None), *(slice(1, 6),) * d)  # zero cells on both sides
        vals[box] = rng.standard_normal(vals[box].shape)  # real, both signs
        vals[2][box[1:]] += 1j * rng.standard_normal(vals[2][box[1:]].shape)
        flat = vals.reshape(-1)
        holes = rng.choice(flat.size, flat.size // 5, replace=False)
        flat[holes] = rng.choice(np.array([complex(-0.0, 0.0), complex(-0.0, -0.0),
                                           complex(0.0, -0.0)]), holes.size)
        assert np.signbit(vals.real).any() and (vals == 0).any()
        for src, at in ((small, big.axis / lam), (big, small.axis * lam)):
            assert np.array_equal(at / src.h, np.arange(src.n))  # samples only
        for frame in vals:
            out = scale_data(FrequencyField(small, frame), lam, 1.0)
            assert out.grid == big
            ref = scaled_parts(sample_per_row(frame, small, big.axis / lam), lam ** (1.0 - d))
            assert same_bits(out.values, ref)
        back = rescale_solution(SpaceTimeField(big, [0.0, 0.1, 0.2], vals), lam, 1.0)
        assert back.grid == small
        ref = scaled_parts(sample_per_row(vals, big, small.axis * lam), lam ** (d - 1.0))
        assert same_bits(back.values, ref)


class TestDilationRelabels:
    """Between ``scaled_grid`` pairs a dilation and its undo relabel the grid
    and scale the values by one factor, bitwise: a -0.0 cell stays -0.0."""

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 3), xi_max=st.integers(1, 3), n_sub=st.sampled_from((4, 8, 12)),
           lam=st.sampled_from((1, 2, 4)), a=st.sampled_from((0, 1, 2.0, 3.0)),
           density=st.sampled_from((0.0, 0.2, 0.6, 1.0)), nt=st.integers(2, 3),
           seed=st.integers(0, 2**16))
    def test_scale_and_undo(self, d, xi_max, n_sub, lam, a, density, nt, seed):
        g = make_grid(d, xi_max, 1.0 / n_sub)
        f = FrequencyField(g, sparse_values(g.shape, seed, density))
        out = scale_data(f, lam, a)
        assert out.grid == scaled_grid(g, lam)
        assert same_bits(out.values, scaled_parts(f.values, lam ** (a - d)))
        tg = np.linspace(0.0, 0.1, nt)
        u = SpaceTimeField(out.grid, tg, np.stack([out.values] * nt))
        back = rescale_solution(u, lam, a)
        assert back.grid == g
        assert same_bits(back.tgrid, lam**2 * tg)
        # lam^{a-d} is a power of two here, so the round trip is exact
        assert all(same_bits(frame, f.values) for frame in back.values)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_signed_zeros_survive_a_round_trip(self, d):
        # a complex product by lam^{a-d} would write +0.0 into the first two
        g = make_grid(d, 2, 1 / 4)
        vals = np.zeros(g.shape, dtype=complex)
        vals.flat[:4] = [complex(-0.0, -0.0), complex(1.5, -0.0), complex(-2.0, -0.0),
                         complex(-0.0, 3.0)]
        f = FrequencyField(g, vals)
        for lam, a in ((2, 1.0), (4, 3.0)):  # lam^{a-d} a power of two
            out = scale_data(f, lam, a)
            assert np.array_equal(np.signbit(out.values.view(np.float64)),
                                  np.signbit(vals.view(np.float64)))
            u = SpaceTimeField(out.grid, [0.0, 0.1], np.stack([out.values] * 2))
            for frame in rescale_solution(u, lam, a).values:
                assert np.array_equal(frame.view(np.uint64), vals.view(np.uint64))

    @pytest.mark.parametrize("lam", [0.5, 1.5, 3, True, math.nan])
    def test_rejects_a_non_index_preserving_factor(self, lam):
        g = make_grid(1, 4, 1 / 8)
        f = exp_halfline(g)
        with pytest.raises(ValueError):
            scale_data(f, lam, 0.0)
        with pytest.raises(ValueError):
            scaled_grid(g, lam)
        u = SpaceTimeField(g, [0.0, 0.1], np.stack([f.values] * 2))
        with pytest.raises(ValueError):
            rescale_solution(u, lam, 0.0)

    def test_rejects_a_mismatched_out_grid(self):
        g = make_grid(2, 2, 1 / 4)
        f = FrequencyField(g, sparse_values(g.shape, 0, 0.5))
        assert scale_data(f, 2, 0.0, out_grid=scaled_grid(g, 2)).grid == scaled_grid(g, 2)
        with pytest.raises(ValueError, match="index-preserving"):
            scale_data(f, 2, 0.0, out_grid=make_grid(2, 4, 1 / 4))
        u = SpaceTimeField(g, [0.0, 0.1], np.stack([f.values] * 2))
        with pytest.raises(ValueError, match="index-preserving"):
            rescale_solution(u, 2, 0.0, out_grid=make_grid(2, 1, 1 / 4))

    def test_undo_needs_lam_to_divide_xi_max(self):
        g = make_grid(1, 3, 1 / 8)
        u = SpaceTimeField(g, [0.0, 0.1], np.zeros((2, g.n)))
        with pytest.raises(ValueError, match="xi_max"):
            rescale_solution(u, 2, 0.0)
