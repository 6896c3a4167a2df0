import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from octantheat import (
    FrequencyField,
    IllposedPair,
    InitialDataKind,
    InitialDataSpec,
    NormFlavor,
    NormSpec,
    SpaceTimeField,
    choose_lambda,
    make_grid,
    make_initial_data,
    rescale_solution,
    scale_data,
    scaled_grid,
    static_norm,
    support_stats,
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
        assert st.in_octant
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

    def test_sign_pair_amplitude_and_supports(self):
        # d=1, m=2, s=-1/2, k=16: amplitude 2^{-s d k / 2} = 2^4 = 16,
        # positive piece on [16, 16.5), mirrored piece on [16, 16.5) too
        g = make_grid(1, 17, 1 / 16)
        pair = make_initial_data(
            InitialDataSpec(InitialDataKind.INFLATION_PAIR, s=-0.5, m=2, pair_k=16),
            g,
        )
        assert isinstance(pair, IllposedPair)
        assert pair.amplitude == pytest.approx(16.0)
        i = int(round(16.25 / g.h))
        assert pair.pos.values[i] == pytest.approx(16.0)
        assert pair.neg.values[i] == pytest.approx(16.0)
        assert pair.neg.mirrored
        st = support_stats(pair.neg)
        assert not st.in_octant  # actual support sits at negative frequencies
        nzp = np.nonzero(pair.pos.values)[0] * g.h
        assert nzp.min() == pytest.approx(16.0)
        assert nzp.max() == pytest.approx(16.5 - g.h)

    def test_scaled_bump_amplitude_and_support(self):
        # d=1, sigma=-2, N=8: amplitude N^{-sigma-d/2} = 8^{3/2} on [4, 8)
        g = make_grid(1, 8, 0.25)
        f = make_initial_data(
            InitialDataSpec(InitialDataKind.INFLATION_BUMP, sigma=-2.0, scale_n=8),
            g,
        )
        assert np.abs(f.values).max() == pytest.approx(8.0**1.5)
        assert 8.0**1.5 == pytest.approx(22.627, abs=1e-3)
        nz = np.nonzero(f.values)[0] * g.h
        assert nz.min() == pytest.approx(4.0)
        assert nz.max() == pytest.approx(8.0 - g.h)

    def test_support_exceeding_grid_errors(self):
        g = make_grid(1, 2, 0.25)
        with pytest.raises(ValueError):
            make_initial_data(
                InitialDataSpec(InitialDataKind.OCTANT_BUMP, eps0=1.5, width=1.0), g
            )
        with pytest.raises(ValueError):
            make_initial_data(
                InitialDataSpec(InitialDataKind.INFLATION_BUMP, scale_n=64), g
            )


# The parent's eleven-field spec fields (all but kind) and each kind's own.
SPEC_FIELDS = ("eps0", "width", "amplitude", "deriv_order", "shift", "pair_k",
               "scale_n", "s", "sigma", "m")
KIND_PARAMS = {
    InitialDataKind.EXP_HALFLINE: {"amplitude": 1.0},
    InitialDataKind.OCTANT_BUMP: {"eps0": 1.0, "width": 0.5, "amplitude": 1.0},
    InitialDataKind.HALFLINE_DERIVATIVE: {"amplitude": 1.0, "deriv_order": 1,
                                          "shift": 1.0},
    InitialDataKind.INFLATION_PAIR: {"pair_k": 16, "s": -1.0, "m": 2},
    InitialDataKind.INFLATION_BUMP: {"scale_n": 8, "sigma": 0.0},
}


def _ref_box(grid, lo, hi):
    out = np.ones(grid.shape)
    for c in grid.coords():
        out = out * ((c >= lo - 1e-12) & (c < hi - 1e-12))
    return out


def reference_initial_data(kind, grid, eps0=1.0, width=0.5, amplitude=1.0,
                           deriv_order=1, shift=1.0, pair_k=16, scale_n=8, s=-1.0,
                           sigma=0.0, m=2):
    """The if-chain sampler the kind table replaced, kept as the reference
    (its coverage and parameter checks left out: only values are compared)."""
    if kind is InitialDataKind.EXP_HALFLINE:
        xi = grid.axis
        return FrequencyField(grid, amplitude * np.exp(xi) * (xi >= 1.0 - 1e-12))
    if kind is InitialDataKind.OCTANT_BUMP:
        return FrequencyField(grid, amplitude * _ref_box(grid, eps0, eps0 + width))
    if kind is InitialDataKind.HALFLINE_DERIVATIVE:
        xi = grid.axis
        mask = xi >= shift - 1e-12
        return FrequencyField(grid, amplitude * (1j * (xi - shift)) ** deriv_order * mask)
    if kind is InitialDataKind.INFLATION_PAIR:
        k, d = pair_k, grid.d
        amp = 2.0 ** (-s * d * k / 2.0)
        neg_w = 1.0 / (2.0 * (m - 1))
        pos = FrequencyField(grid, amp * _ref_box(grid, (m - 1) * k, (m - 1) * k + 0.5))
        neg = FrequencyField(grid, amp * _ref_box(grid, k, k + neg_w), mirrored=True)
        return IllposedPair(pos, neg, amp, k)
    N, d = scale_n, grid.d
    amp = float(N) ** (-sigma - d / 2.0)
    return FrequencyField(grid, amp * _ref_box(grid, N / (2.0 * d), N / d))


# kind -> (dimensions, grid per d, non-default parameters)
SAMPLE_CASES = {
    InitialDataKind.EXP_HALFLINE: ((1,), lambda d: make_grid(d, 4, 1 / 16),
                                   {"amplitude": 2.5 - 1j}),
    InitialDataKind.OCTANT_BUMP: ((1, 2, 3), lambda d: make_grid(d, 2, 1 / 4),
                                  {"eps0": 0.5, "width": 1.25, "amplitude": 3.0}),
    InitialDataKind.HALFLINE_DERIVATIVE: (
        (1,), lambda d: make_grid(d, 4, 1 / 16),
        {"amplitude": 2.0, "deriv_order": 3, "shift": 1.5}),
    InitialDataKind.INFLATION_PAIR: ((1, 2, 3), lambda d: make_grid(d, 17, 1 / 4),
                                     {"pair_k": 3, "s": -0.5, "m": 3}),
    InitialDataKind.INFLATION_BUMP: ((1, 2, 3), lambda d: make_grid(d, 8, 1 / 4),
                                     {"scale_n": 6, "sigma": 1.5}),
}


def _bits(datum):
    if isinstance(datum, IllposedPair):
        return (datum.pos.values.tobytes(), datum.neg.values.tobytes(),
                datum.neg.mirrored, datum.amplitude, datum.pair_k)
    return datum.values.tobytes(), datum.mirrored


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
            assert _bits(got) == _bits(reference_initial_data(kind, g, **params))

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

    def test_support_scales_down(self):
        g = make_grid(1, 8, 1 / 8)
        vals = np.where((g.axis >= 4.0) & (g.axis < 6.0), 1.0 + 0j, 0.0)
        tg = np.linspace(0.0, 1.0, 3)
        u = SpaceTimeField(g, tg, np.broadcast_to(vals[None], (3, g.n)).copy())
        back = rescale_solution(u, 2, 0.0)
        nz = np.nonzero(back.values[0])[0] * back.grid.h
        assert nz.min() == pytest.approx(2.0)


def resample_axis_per_row(values, axis, src_h, out_coords):
    """Reference: the per-row resampler that ``_resample`` replaced."""
    v = np.moveaxis(values, axis, -1)
    lead = v.shape[:-1]
    n = v.shape[-1]
    out = np.zeros(lead + (out_coords.size,), dtype=v.dtype)

    cell = np.floor(out_coords / src_h + 1e-9).astype(int)
    inside = (cell >= 0) & (cell < n)
    cid = np.clip(cell, 0, n - 1)
    frac = out_coords / src_h - cid

    flat = v.reshape(-1, n)
    res = out.reshape(-1, out_coords.size)
    nz = flat != 0
    for r in range(flat.shape[0]):
        row = flat[r]
        mask = nz[r]
        base = np.where(inside, cid, 0)
        own = mask[base] & inside
        nxt = np.clip(base + 1, 0, n - 1)
        has_next = mask[nxt] & (base + 1 < n)
        prv = np.clip(base - 1, 0, n - 1)
        has_prev = mask[prv] & (base - 1 >= 0)
        lo = row[base]
        slope_up = row[nxt] - lo
        slope_down = lo - row[prv]
        slope = np.where(has_next, slope_up, np.where(has_prev, slope_down, 0.0))
        res[r] = np.where(own, lo + frac * slope, 0.0)
    return np.moveaxis(out.reshape(lead + (out_coords.size,)), -1, axis)


def resample_per_row(values, grid, out_coords):
    for axis in range(values.ndim - grid.d, values.ndim):
        values = resample_axis_per_row(values, axis, grid.h, out_coords)
    return values


def sparse_values(shape, seed, density):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return vals * (rng.random(shape) < density)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


LAMBDAS = (0.5, 1, 1.5, 2, 3, 4)


class TestResampleAgainstPerRow:
    """``scale_data`` and ``rescale_solution`` equal the per-row reference
    bitwise (signed zeros included)."""

    @settings(max_examples=80, deadline=None)
    @given(d=st.integers(1, 3), xi_max=st.integers(1, 3), n_sub=st.sampled_from((2, 4, 6)),
           lam=st.sampled_from(LAMBDAS), density=st.sampled_from((0.0, 0.2, 0.6, 1.0)),
           exact=st.booleans(), seed=st.integers(0, 2**16))
    def test_scale_data(self, d, xi_max, n_sub, lam, density, exact, seed):
        g = make_grid(d, xi_max, 1.0 / n_sub)
        f = FrequencyField(g, sparse_values(g.shape, seed, density))
        exact = exact and lam == int(lam) and n_sub % lam == 0
        out_grid = scaled_grid(g, lam) if exact else None
        out = scale_data(f, lam, 2.0, out_grid=out_grid)
        ref = lam ** (2.0 - d) * resample_per_row(f.values, g, out.grid.axis / lam)
        assert same_bits(out.values, ref)

    @settings(max_examples=80, deadline=None)
    @given(d=st.integers(1, 3), xi_max=st.integers(1, 3), n_sub=st.sampled_from((2, 4, 6)),
           lam=st.sampled_from(LAMBDAS), density=st.sampled_from((0.0, 0.2, 0.6, 1.0)),
           nt=st.integers(2, 3), exact=st.booleans(), seed=st.integers(0, 2**16))
    def test_rescale_solution(self, d, xi_max, n_sub, lam, density, nt, exact, seed):
        exact = exact and lam == int(lam) and n_sub % lam == 0
        small = make_grid(d, xi_max, 1.0 / n_sub)
        g = scaled_grid(small, lam) if exact else small
        u = SpaceTimeField(g, np.linspace(0.0, 0.1, nt),
                           sparse_values((nt, *g.shape), seed, density))
        out_grid = None if exact else make_grid(d, xi_max + 1, 1.0 / (2 * n_sub))
        back = rescale_solution(u, lam, 2.0, out_grid=out_grid)
        if exact:
            assert back.grid == small
        ref = lam ** (d - 2.0) * resample_per_row(u.values, g, back.grid.axis * lam)
        assert same_bits(back.values, ref)

    @pytest.mark.parametrize("d,n_sub,nt", [(1, 64, 300), (2, 16, 41), (3, 4, 70)])
    def test_multi_block_stack(self, d, n_sub, nt):
        # more rows per axis pass than one block of 2^13 cells holds, with a
        # partial last block
        g = make_grid(d, 2, 1.0 / n_sub)
        u = SpaceTimeField(g, np.linspace(0.0, 0.1, nt),
                           sparse_values((nt, *g.shape), nt, 0.5))
        rows = nt * g.n ** (d - 1)
        assert rows > 2**13 // g.n and rows % (2**13 // g.n) != 0
        back = rescale_solution(u, 2, 2.0)
        ref = 2.0 ** (d - 2.0) * resample_per_row(u.values, g, back.grid.axis * 2)
        assert same_bits(back.values, ref)
        assert np.count_nonzero(back.values) > 0
