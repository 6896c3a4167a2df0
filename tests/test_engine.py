import dataclasses
import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from octantheat import (
    DivergenceError,
    FrequencyField,
    GateError,
    InitialDataKind,
    InitialDataSpec,
    IterationTrace,
    Nonlinearity,
    NonlinearityKind,
    ProblemSpec,
    SpaceTimeField,
    TimeSpaceNormSpec,
    assemble_band_solution,
    convolve,
    duhamel,
    error_decay_fit,
    free_trajectory,
    make_grid,
    make_initial_data,
    picard_iterate,
    rescale_solution,
    scale_data,
    scaled_grid,
    support_stats,
    taylor_coefficients,
    timespace_norm,
)
from octantheat import engine, lattice
from octantheat.oracle import exp_halfline_reference


def power_spec(grid, m=2, eps0=1.0, **kw):
    defaults = dict(T=1.0, nt=129, jmax=8, tol=1e-13, s=-1.0)
    defaults.update(kw)
    return ProblemSpec(grid=grid, nonlinearity=Nonlinearity(NonlinearityKind.POWER, m=m),
                       eps0=eps0, **defaults)


def exp_halfline(grid, amp=1.0):
    return make_initial_data(
        InitialDataSpec(InitialDataKind.EXP_HALFLINE, amplitude=amp), grid
    )


def bump(grid, eps0, width=0.5, amp=1.0):
    return make_initial_data(
        InitialDataSpec(InitialDataKind.OCTANT_BUMP, eps0=eps0, width=width,
                        amplitude=amp), grid
    )


class TestPropagate:
    """The heat semigroup through the frames of :func:`free_trajectory`."""

    def test_time_zero_identity(self):
        g = make_grid(1, 4, 0.25)
        f = exp_halfline(g)
        out = free_trajectory(f, np.array([0.0, 0.5]))
        assert np.array_equal(out.values[0], f.values)

    def test_pointwise_multiplier(self):
        g = make_grid(1, 4, 0.25)
        vals = np.zeros(g.shape, dtype=complex)
        i = int(round(2.0 / g.h))
        vals[i] = 1.0
        out = free_trajectory(FrequencyField(g, vals), np.array([0.0, 0.25]))
        assert out.values[1, i] == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_semigroup_law_machine_precision(self):
        g = make_grid(2, 2, 0.5)
        rng = np.random.default_rng(4)
        f = FrequencyField(g, rng.standard_normal(g.shape)
                           + 1j * rng.standard_normal(g.shape))
        mid = free_trajectory(f, np.array([0.0, 0.3])).values[1]
        a = free_trajectory(FrequencyField(g, mid), np.array([0.0, 0.45])).values[1]
        b = free_trajectory(f, np.array([0.0, 0.75])).values[1]
        assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max()

    def test_shifted_symbol(self):
        g = make_grid(1, 4, 0.25)
        vals = np.zeros(g.shape, dtype=complex)
        i = int(round(1.0 / g.h))
        vals[i] = 1.0
        out = free_trajectory(FrequencyField(g, vals), np.array([0.0, 1.0]),
                              lambda_shift=2.0)
        assert out.values[1, i] == pytest.approx(math.exp(3.0), rel=1e-13)

    @pytest.mark.parametrize("d,xi_max,h", [(1, 8, 1 / 64), (2, 4, 1 / 16), (3, 2, 1 / 4)])
    @pytest.mark.parametrize("lam", [0.0, 1.5])
    def test_free_trajectory_bitwise_equal_to_outer_product(self, d, xi_max, h, lam):
        g = make_grid(d, xi_max, h)
        rng = np.random.default_rng(d)
        v0 = FrequencyField(g, rng.standard_normal(g.shape)
                            + 1j * rng.standard_normal(g.shape))
        tg = np.linspace(0.0, 0.5, 17)
        w = g.euclid_sq() - lam**2
        ref = np.exp(-np.multiply.outer(tg, w)) * v0.values
        assert free_trajectory(v0, tg, lam).values.tobytes() == ref.tobytes()


class TestDuhamel:
    def test_constant_integrand_analytic(self):
        g = make_grid(1, 4, 0.25)
        rng = np.random.default_rng(1)
        gvals = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        nt, T = 513, 1.0
        tg = np.linspace(0.0, T, nt)
        G = SpaceTimeField(g, tg, np.broadcast_to(gvals[None], (nt, g.n)).copy())
        out = duhamel(G)
        xi = g.axis
        w = xi**2
        expect = np.where(w > 0, gvals * -np.expm1(-T * w) / np.where(w > 0, w, 1.0),
                          gvals * T)
        # relative trapezoid error grows like (dt w)^2 / 12 at stiff cells
        rel = np.abs(out.values[-1] - expect) / np.abs(expect)
        bound = (w * (1.0 / 512)) ** 2 / 12 + 1e-12
        assert np.all(rel <= 2.0 * bound + 1e-9)

    def test_zero_frequency_grows_linearly(self):
        g = make_grid(1, 2, 0.5)
        nt = 65
        tg = np.linspace(0.0, 2.0, nt)
        vals = np.zeros((nt, g.n), dtype=complex)
        vals[:, 0] = 3.0
        out = duhamel(SpaceTimeField(g, tg, vals))
        assert out.values[-1][0] == pytest.approx(6.0, rel=1e-12)

    def test_zero_integrand(self):
        g = make_grid(1, 2, 0.5)
        tg = np.linspace(0.0, 1.0, 9)
        out = duhamel(SpaceTimeField(g, tg, np.zeros((9, g.n), dtype=complex)))
        assert not out.values.any()

    @pytest.mark.parametrize("d,xi_max,h,lam",
                             [(1, 8, 1 / 64, 0.0), (2, 2, 1 / 8, 0.5)])
    def test_bitwise_equal_to_loop(self, d, xi_max, h, lam):
        def loop(G, lam):  # the recurrence with temporaries in every step
            dt = float(G.tgrid[1] - G.tgrid[0])
            decay = np.exp(-dt * (G.grid.euclid_sq() - lam**2))
            half = 0.5 * dt
            out = np.zeros_like(G.values)
            for n in range(G.nt - 1):
                out[n + 1] = (decay * (out[n] + half * G.values[n])
                              + half * G.values[n + 1])
            return out

        g = make_grid(d, xi_max, h)
        rng = np.random.default_rng(11)
        shape = (257, *g.shape)
        G = SpaceTimeField(g, np.linspace(0.0, 1.0, 257),
                           rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        assert duhamel(G, lam).values.tobytes() == loop(G, lam).tobytes()

    @pytest.mark.parametrize("d,xi_max,h", [(1, 8, 1 / 64), (2, 2, 1 / 8), (3, 2, 1 / 4)])
    def test_bitwise_equal_to_full_stack_recurrence(self, d, xi_max, h):
        def full_stack(G, w, dt):  # dt/2 G formed for the whole stack first
            decay = np.exp(-dt * w).astype(np.complex128)
            out = np.zeros_like(G)
            hG = (0.5 * dt) * G
            for n in range(len(G) - 1):
                np.add(out[n], hG[n], out=out[n + 1])
                out[n + 1] *= decay
                out[n + 1] += hG[n + 1]
            return out

        g = make_grid(d, xi_max, h)
        rng = np.random.default_rng(12)
        shape = (33, *g.shape)
        G = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        w, dt = engine.heat_symbol(g, 0.5), 1.0 / 32
        ref, out = full_stack(G, w, dt), G.copy()
        assert engine._duhamel(out, w, dt) is out  # in place, over the integrand
        assert out.tobytes() == ref.tobytes()
        # on a view of a box of live cells, as the solvers do: the cells off
        # the box keep the integrand's bytes
        sub = (slice(None), *(slice(3, None),) * d)
        ref, out = G.copy(), G.copy()
        ref[sub] = full_stack(G[sub], w[sub[1:]], dt)
        engine._duhamel(out[sub], w[sub[1:]], dt)
        assert out.tobytes() == ref.tobytes()

    def test_public_duhamel_leaves_its_integrand(self):
        g = make_grid(2, 2, 1 / 8)
        rng = np.random.default_rng(13)
        shape = (17, *g.shape)
        vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        G = SpaceTimeField(g, np.linspace(0.0, 0.5, 17), vals.copy())
        out = duhamel(G, 0.5)
        assert G.values.tobytes() == vals.tobytes()
        assert out.values.tobytes() == engine._duhamel(vals, G.grid.euclid_sq() - 0.25,
                                                       1 / 32).tobytes()

    def test_recurrence_equals_composite_trapezoid(self):
        # the one-step recurrence is algebraically the composite trapezoid
        # of the full integrand; check it against the direct O(nt^2) sum
        g = make_grid(1, 3, 0.25)
        rng = np.random.default_rng(8)
        nt = 33
        tg = np.linspace(0.0, 1.5, nt)
        G = rng.standard_normal((nt, g.n)) + 1j * rng.standard_normal((nt, g.n))
        out = duhamel(SpaceTimeField(g, tg, G), lambda_shift=0.5)
        w = g.euclid_sq() - 0.25
        direct = np.zeros_like(G)
        for n in range(1, nt):
            integrand = np.exp(-(tg[n] - tg[:n + 1, None]) * w[None, :]) * G[:n + 1]
            direct[n] = np.trapezoid(integrand, tg[:n + 1], axis=0)
        scale = np.abs(direct).max()
        assert np.abs(out.values - direct).max() <= 1e-13 * scale


class TestNonlinearity:
    def test_each_kind_defaults_only_its_own_parameter(self):
        power = Nonlinearity(NonlinearityKind.POWER)
        exponential = Nonlinearity(NonlinearityKind.EXPONENTIAL)
        assert (power.m, exponential.m) == (2, None)

    @pytest.mark.parametrize("kind,other", [("POWER", {"taylor_order": 6}),
                                            ("EXPONENTIAL", {"m": 3})])
    def test_rejects_the_other_kinds_parameter(self, kind, other):
        # EXPONENTIAL takes no parameter: taylor_order is a field of neither kind
        key = next(iter(other))
        error, match = (TypeError, key) if key == "taylor_order" else \
            (ValueError, f"{key} is not a parameter")
        with pytest.raises(error, match=match):
            Nonlinearity(kind, **other)

    def test_exponential_takes_no_parameter(self):
        # its series runs to the grid's top order: there is no order to set
        with pytest.raises(TypeError, match="taylor_order"):
            Nonlinearity(NonlinearityKind.EXPONENTIAL, taylor_order=6)

    @pytest.mark.parametrize("kind,own", [("POWER", "m")])
    @pytest.mark.parametrize("value", [2.5, 1.0, math.inf])
    def test_rejects_a_non_integral_or_low_parameter(self, kind, own, value):
        with pytest.raises(ValueError, match=f"needs an integer {own} >= 2"):
            Nonlinearity(kind, **{own: value})

    def test_integral_float_stored_as_int(self):
        power = Nonlinearity(NonlinearityKind.POWER, m=3.0)
        assert type(power.m) is int and power == Nonlinearity("POWER", m=3)

    def test_integral_float_power_runs_as_int(self):
        g = make_grid(1, 4, 1 / 16)
        v0 = exp_halfline(g)
        got, ref = (power_spec(g, m=m, nt=17) for m in (2.0, 2))
        assert np.array_equal(picard_iterate(got, v0).final.values,
                              picard_iterate(ref, v0).final.values)
        assert np.array_equal(taylor_coefficients(got, v0, 3.0).coeffs[-1].values,
                              taylor_coefficients(ref, v0, 3.0).coeffs[-1].values)


class TestProblemSpec:
    def test_rejects_unknown_conv_rule(self):
        with pytest.raises(ValueError, match="conv_rule"):
            power_spec(make_grid(1, 4, 0.25), conv_rule="trapezoidal")

    @pytest.mark.parametrize("key,value", [("nt", 33.5), ("nt", math.inf),
                                           ("nt", math.nan), ("nt", True),
                                           ("nt", 1), ("jmax", 2.5), ("jmax", False),
                                           ("jmax", 0), ("jmax", -math.inf)])
    def test_rejects_a_non_integral_or_low_count(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            power_spec(make_grid(1, 4, 0.25), **{key: value})

    @pytest.mark.parametrize("key,value", [
        ("eps0", math.nan), ("eps0", math.inf), ("s", math.nan), ("s", -math.inf),
        ("lambda_shift", math.nan), ("lambda_shift", math.inf), ("delta", math.nan)])
    def test_rejects_a_non_finite_float(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            power_spec(make_grid(1, 4, 0.25), **{key: value})

    def test_eps0_is_the_power_flow_gate_only(self):
        g = make_grid(1, 4, 0.25)
        with pytest.raises(ValueError, match="POWER flow needs eps0"):
            ProblemSpec(g, Nonlinearity(NonlinearityKind.POWER))
        with pytest.raises(ValueError, match="gate is 2 lambda_shift, not eps0"):
            ProblemSpec(g, Nonlinearity(NonlinearityKind.EXPONENTIAL), eps0=1.0,
                        lambda_shift=0.5)
        with pytest.raises(ValueError, match="eps0 must be finite and positive"):
            power_spec(g, eps0=0.0)
        assert ProblemSpec(g, Nonlinearity(NonlinearityKind.EXPONENTIAL)).eps0 is None

    @pytest.mark.parametrize("value", [math.nan, -1e-12, -math.inf])
    def test_rejects_a_negative_or_nan_tol(self, value):
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            power_spec(make_grid(1, 4, 0.25), tol=value)

    def test_integral_float_counts_run_as_int(self):
        # nt = 33.0 and jmax = 8.0 used to pass the spec and fail in
        # np.linspace and range with a TypeError
        g = make_grid(1, 4, 1 / 16)
        v0 = exp_halfline(g)
        got, ref = (power_spec(g, nt=nt, jmax=jmax)
                    for nt, jmax in ((33.0, 8.0), (33, 8)))
        assert (type(got.nt), type(got.jmax)) == (int, int) and got == ref
        assert np.array_equal(picard_iterate(got, v0).final.values,
                              picard_iterate(ref, v0).final.values)


class TestPicardIterate:
    def test_zero_datum_zero_iterates(self):
        g = make_grid(1, 4, 0.25)
        spec = power_spec(g, jmax=3)
        trace = picard_iterate(spec, FrequencyField(g, np.zeros(g.shape)))
        assert trace.converged
        assert not trace.final.values.any()

    def test_first_iterate_is_free_evolution(self):
        g = make_grid(1, 4, 1 / 16)
        spec = power_spec(g, jmax=1, delta=0.7)
        v0 = exp_halfline(g)
        trace = picard_iterate(spec, v0)
        free = free_trajectory(v0, spec.tgrid)
        assert np.array_equal(trace.iterates[0].values, 0.7 * free.values)

    def test_second_increment_support_gate(self):
        # with datum support from 1 and m = 2, the second increment lives
        # on xi >= 2, grid-exactly
        g = make_grid(1, 4, 1 / 16)
        spec = power_spec(g, jmax=2, nt=33)
        trace = picard_iterate(spec, exp_halfline(g))
        diff = trace.iterates[1].values - trace.iterates[0].values
        occupied = np.any(diff != 0, axis=0)
        assert occupied.any()
        assert g.axis[occupied].min() >= 2.0

    @pytest.mark.parametrize("m,eps0", [(2, 0.5), (2, 1.0), (3, 0.5)])
    def test_support_propagation_and_monotonicity(self, m, eps0):
        g = make_grid(1, 4, 1 / 16)
        spec = power_spec(g, m=m, eps0=eps0, nt=33, jmax=6)
        trace = picard_iterate(spec, bump(g, eps0, width=0.5))
        sup = trace.support_min_l1
        for j, s in enumerate(sup[1:], start=1):
            assert s >= j * (m - 1) * eps0
        assert all(b >= a for a, b in zip(sup, sup[1:]))

    def test_exact_band_stability_bitwise(self):
        g = make_grid(1, 4, 1 / 16)
        m, eps0 = 2, 1.0
        spec = power_spec(g, m=m, eps0=eps0, nt=33, jmax=5)
        trace = picard_iterate(spec, exp_halfline(g))
        for j in range(1, len(trace.iterates)):
            band = g.l1() < (m - 1) * j * eps0
            for r in range(j, len(trace.iterates)):
                a = trace.iterates[j - 1].values[:, band]
                b = trace.iterates[r].values[:, band]
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("m", [2, 3])
    def test_convolutions_per_iterate(self, m, monkeypatch):
        # m - 1 stages on each iterate that is neither the first (from
        # v^0 = 0) nor fully settled (its band, (j (m-1) + 1) eps cells,
        # covers the grid)
        calls = []
        kernel = engine.convolve_frames
        monkeypatch.setattr(engine, "convolve_frames",
                            lambda *args: calls.append(args) or kernel(*args))
        g = make_grid(1, 4, 1 / 16)  # the datum starts at cell 16
        trace = picard_iterate(power_spec(g, m=m, nt=33, jmax=4, tol=0.0),
                               exp_halfline(g, amp=0.5))
        live = [j for j in range(1, 4) if (j * (m - 1) + 1) * 16 < g.n]
        assert 0 < len(live) < 3
        assert len(calls) == len(live) * (m - 1)
        # the first settled iterate's increment is exactly 0: a fixed point
        # ends the run there even at tol = 0 (m = 3: iterate 3 of jmax 4)
        assert trace.converged and len(trace.iterates) == len(live) + 2
        assert trace.support_min_l1[-1] == math.inf

    def test_iterates_rebuilt_on_read(self):
        # the trace keeps the final whole and read-only; every earlier
        # iterate is a fresh stack, bitwise the same on each read
        g = make_grid(1, 4, 1 / 16)
        trace = picard_iterate(power_spec(g, nt=33, jmax=5), exp_halfline(g))
        its = trace.iterates
        J = len(its)
        assert J >= 3 and len(list(its)) == J
        assert trace.final.values is its[-1].values is its[J - 1].values
        assert not trace.final.values.flags.writeable
        with pytest.raises(IndexError):
            its[J]
        first = its[0].values
        assert first.flags.writeable and first.tobytes() == its[0].values.tobytes()
        first[:] = 0.0
        assert its[0].values.any()
        assert its[-2].values.tobytes() == its[J - 2].values.tobytes()

    def test_gate_rejects_low_spectrum(self):
        g = make_grid(1, 4, 0.25)
        spec = power_spec(g, eps0=2.0)
        with pytest.raises(GateError):
            picard_iterate(spec, exp_halfline(g))

    def test_divergence_detector(self):
        # amplitude 1e30: the iterates overflow, which raises DivergenceError
        # and, with warnings as errors, no RuntimeWarning first
        g = make_grid(1, 8, 1 / 8)
        spec = power_spec(g, eps0=1.0, nt=17, jmax=8, T=1.0)
        with pytest.raises(DivergenceError, match="left the floating-point range"):
            picard_iterate(spec, bump(g, 1.0, width=1.0, amp=1e30))

    def test_large_amplitude_ends_at_band_cover(self):
        # no smallness: amplitude 200 ends when the band (j + 1) eps covers
        # the grid, after J* = 8 iterates, the last increment exactly 0
        g = make_grid(1, 8, 1 / 8)
        spec = power_spec(g, eps0=1.0, nt=17, jmax=20, T=1.0, tol=1e-10)
        trace = picard_iterate(spec, bump(g, 1.0, width=1.0, amp=2e2))
        assert trace.converged and len(trace.iterates) == 8
        assert trace.increment_norms[-1] == 0.0
        assert max(trace.increment_norms) > 1e5
        for j in range(1, 8):
            band = g.l1() < j
            assert np.array_equal(trace.iterates[j - 1].values[:, band],
                                  trace.final.values[:, band])


class TestTaylor:
    def test_first_coefficient_pointwise(self):
        g = make_grid(1, 4, 1 / 64)
        spec = power_spec(g, nt=257)
        stack = taylor_coefficients(spec, exp_halfline(g), K=3.0)
        i = int(round(2.0 / g.h))
        got = stack.coeffs[0].values[-1][i]
        assert got == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_second_coefficient_vs_quadrature_reference(self):
        g = make_grid(1, 4, 1 / 64)
        spec = power_spec(g, nt=257)
        stack = taylor_coefficients(spec, exp_halfline(g), K=3.0)
        i = int(round(2.5 / g.h))
        got = stack.coeffs[1].values[-1][i]
        ref = exp_halfline_reference(1.0, 2.5, 2, quad_order=32)
        assert abs(got - ref) / abs(ref) < 2e-4

    def test_coefficient_support_offsets(self):
        g = make_grid(1, 4, 1 / 16)
        spec = power_spec(g, nt=33)
        stack = taylor_coefficients(spec, exp_halfline(g), K=3.0)
        assert stack.orders >= 3
        for k, ck in enumerate(stack.coeffs, start=1):
            # an empty coefficient has min_l1 = inf and passes
            assert support_stats(ck.frame(ck.nt - 1)).min_l1 >= k * 1.0 - 1e-12

    def test_zero_datum_zero_coefficients(self):
        g = make_grid(1, 4, 0.25)
        spec = power_spec(g, nt=9)
        stack = taylor_coefficients(spec, FrequencyField(g, np.zeros(g.shape)), K=2.0)
        for ck in stack.coeffs:
            assert not ck.values.any()

    def test_band_exceeding_grid_errors(self):
        g = make_grid(1, 4, 0.25)
        spec = power_spec(g, nt=9)
        with pytest.raises(ValueError):
            taylor_coefficients(spec, exp_halfline(g), K=5.0)

    def test_assemble_zero_amplitude(self):
        g = make_grid(1, 4, 1 / 16)
        spec = power_spec(g, nt=17)
        stack = taylor_coefficients(spec, exp_halfline(g), K=2.0)
        out = assemble_band_solution(stack, 0.0, 2.0)
        assert not out.values.any()

    def test_assemble_band_below_support_is_zero(self):
        g = make_grid(1, 4, 1 / 16)
        spec = power_spec(g, nt=17)
        stack = taylor_coefficients(spec, exp_halfline(g), K=2.0)
        out = assemble_band_solution(stack, 1.0, 1.0)
        assert not out.values.any()

    def test_pairs_convolved_once(self, monkeypatch):
        # a_i * a_{k-i} equals a_{k-i} * a_i under both rules, so order k of
        # a quadratic flow takes one kernel call per unordered pair: k // 2.
        # The Riemann rule is bilinear, so the band matches Picard's.
        calls = []
        kernel = engine.convolve_frames
        monkeypatch.setattr(engine, "convolve_frames",
                            lambda *args: calls.append(args) or kernel(*args))
        g = make_grid(1, 8, 1 / 16)
        spec = power_spec(g, nt=33, conv_rule="riemann")
        stack = taylor_coefficients(spec, exp_halfline(g), K=6.0)
        assert stack.orders == 6
        assert len(calls) == sum(k // 2 for k in range(2, 7)) == 9  # 15 ordered
        band = g.l1() < 6.0 - 1e-12
        a = assemble_band_solution(stack, 1.0, 6.0).values[:, band]
        b = picard_iterate(spec, exp_halfline(g)).final.values[:, band]
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    def test_leaves_no_reference_cycle(self):
        # the coefficient stacks are freed by reference counting alone
        g = make_grid(1, 8, 1 / 16)
        spec = power_spec(g, m=3, eps0=0.5, nt=33)
        v0 = bump(g, 0.5, amp=0.7)
        gc.collect()
        gc.disable()
        try:
            taylor_coefficients(spec, v0, 4.0)
        finally:
            gc.enable()
        assert gc.collect() == 0

    def test_taylor_matches_picard_on_band(self):
        g = make_grid(1, 4, 1 / 16)
        spec = power_spec(g, nt=33, jmax=8, delta=1.0)
        v0 = exp_halfline(g)
        stack = taylor_coefficients(spec, v0, K=3.0)
        band_sol = assemble_band_solution(stack, 1.0, 3.0)
        trace = picard_iterate(spec, v0)
        band = g.l1() < 3.0 - 1e-12
        a = band_sol.values[:, band]
        b = trace.final.values[:, band]
        scale = np.abs(b).max()
        assert np.abs(a - b).max() <= 1e-10 * scale

    @pytest.mark.parametrize("m", [3, 4])
    def test_higher_power_taylor_matches_picard_on_band(self, m):
        # the r-fold coefficients recurse through power_coeff(r - 1, k - i),
        # which is zero for k - i < r - 1
        g = make_grid(1, 6, 1 / 16)
        spec = power_spec(g, m=m, nt=33, delta=0.5)
        v0 = exp_halfline(g)
        band_sol = assemble_band_solution(taylor_coefficients(spec, v0, K=5.0),
                                          0.5, 5.0)
        trace = picard_iterate(spec, v0)
        band = g.l1() < 5.0 - 1e-12
        a = band_sol.values[:, band]
        b = trace.final.values[:, band]
        assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max()

    def test_taylor_matches_picard_with_shifted_semigroup(self):
        # both routes must evolve with exp(-t(|xi|^2 - lam^2))
        g = make_grid(1, 4, 1 / 16)
        spec = power_spec(g, nt=33, jmax=8, lambda_shift=0.5, T=0.5)
        v0 = exp_halfline(g)
        band_sol = assemble_band_solution(taylor_coefficients(spec, v0, K=3.0),
                                          1.0, 3.0)
        trace = picard_iterate(spec, v0)
        band = g.l1() < 3.0 - 1e-12
        a = band_sol.values[:, band]
        b = trace.final.values[:, band]
        assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max()

    def test_second_order_time_refinement(self):
        # trapezoid Duhamel: against the engine's own fine-time limit (the
        # spatial quadrature is held fixed) the defect shrinks ~4x per nt
        # doubling
        g = make_grid(1, 4, 1 / 64)
        i = int(round(2.5 / g.h))

        def c2_at(nt):
            spec = power_spec(g, nt=nt)
            stack = taylor_coefficients(spec, exp_halfline(g), K=3.0)
            return stack.coeffs[1].values[-1][i]

        ref = c2_at(1025)
        defects = [abs(c2_at(nt) - ref) for nt in (65, 129, 257)]
        for a, b in zip(defects, defects[1:]):
            assert 3.0 <= a / b <= 6.0


class TestSemigroupDecayRates:
    @pytest.mark.parametrize("gamma", [1.0, 2.0, math.inf])
    def test_per_cube_time_norm_decays_like_k_squared(self, gamma):
        # || heat evolution ||_{L^gamma_t L2(Q_k)} <= C |k|^{-2/gamma}
        # || datum ||_{L2(Q_k)} over occupied cubes away from the origin
        from octantheat.lattice import cube_l2_table

        g = make_grid(1, 8, 1 / 8)
        rng = np.random.default_rng(17)
        vals = (rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        vals = vals * (g.linf() >= 1.0)
        v0 = FrequencyField(g, vals)
        nt = 129
        tg = np.linspace(0.0, 4.0, nt)
        traj = free_trajectory(v0, tg)
        table = cube_l2_table(traj.values, g)
        if math.isinf(gamma):
            tnorm = table.max(axis=0)
        else:
            tnorm = np.trapezoid(table**gamma, tg, axis=0) ** (1 / gamma)
        base = cube_l2_table(v0.values, g)
        ks = np.arange(g.xi_max, dtype=float)
        ratios = []
        for k in range(1, g.xi_max):
            if base[k] > 0:
                ratios.append(tnorm[k] / base[k] * ks[k] ** (2.0 / gamma))
        assert max(ratios) < 4.0  # finite, order-one constant


class TestNoSmallness:
    """Octant data need no smallness: a dilation that makes the datum small
    in the weighted norm is the same computation on an index-preserving
    grid, and every run ends once its band covers the grid."""

    # bump from eps0 to 3 eps0 per axis: amplitudes of 1e4 and up grow the
    # increment norms three times in a row in each case but d = 3, m = 3
    # under the trapezoid rule
    GRIDS = {1: (make_grid(1, 8, 1 / 8), 9, 1.0), 2: (make_grid(2, 4, 1 / 8), 5, 0.5),
             3: (make_grid(3, 4, 1 / 4), 3, 0.5)}

    @settings(max_examples=24, deadline=None)
    @given(d=st.integers(1, 3), rule=st.sampled_from(lattice.RULES),
           m=st.sampled_from([2, 3]), lam=st.sampled_from([2, 4]),
           amp=st.floats(1e4, 1e5))
    def test_dilate_solve_undo_is_the_direct_run(self, d, rule, m, lam, amp):
        base, nt, eps0 = self.GRIDS[d]
        v0 = bump(base, eps0, width=2 * eps0, amp=amp)
        a = 2.0 / (m - 1)  # the scaling exponent of u^m

        def solve(g, v, T, eps):
            spec = power_spec(g, m=m, eps0=eps, nt=nt, T=T, jmax=20, tol=1e-300,
                              conv_rule=rule)
            return picard_iterate(spec, v)

        direct = solve(base, v0, 1.0, eps0)
        assert direct.converged and direct.increment_norms[-1] == 0.0
        lam_grid = scaled_grid(base, lam)
        small = solve(lam_grid, scale_data(v0, lam, a, out_grid=lam_grid),
                      1.0 / lam**2, lam * eps0)
        assert len(small.iterates) == len(direct.iterates)
        back = rescale_solution(small.final, lam, a, out_grid=base)
        assert back.values.tobytes() == direct.final.values.tobytes()


class TestExponentialFlow:
    def _setup(self, amp=1e-2, lam=2, eps0=2.0, xi_max=8, h=1 / 8, nt=33):
        base = make_grid(1, xi_max, h)
        u0 = bump(base, eps0, width=0.5, amp=amp)
        lam_grid = scaled_grid(base, lam)
        u0l = scale_data(u0, lam, 0.0, out_grid=lam_grid)
        spec = ProblemSpec(
            grid=lam_grid,
            nonlinearity=Nonlinearity(NonlinearityKind.EXPONENTIAL),
            s=-1.0,
            lambda_shift=float(lam),
            T=0.25,
            nt=nt,
            jmax=10,
            tol=1e-13,
        )
        return spec, u0l

    @staticmethod
    def top(spec, u0l):
        """The series' top order: v^{*r} starts at index sum r eps_cells."""
        g = spec.grid
        eps = int(np.indices(g.shape).sum(axis=0)[u0l.values != 0].min())
        return max(2, g.d * (g.n - 1) // eps), eps

    def test_zero_datum(self):
        spec, u0l = self._setup()
        zero = FrequencyField(spec.grid, np.zeros(spec.grid.shape))
        trace = engine._run_picard(spec, zero)
        assert not trace.final.values.any()

    def test_gate_requires_shifted_spectrum(self):
        spec, _ = self._setup()
        low = bump(spec.grid, 1.0, width=0.5)  # below 2 lam = 4
        with pytest.raises(GateError):
            picard_iterate(spec, low)

    def test_gate_requires_a_positive_shift(self):
        spec, u0l = self._setup()
        with pytest.raises(GateError, match="positive semigroup shift"):
            picard_iterate(dataclasses.replace(spec, lambda_shift=0.0), u0l)

    def test_gate_refuses_a_datum_at_the_origin(self):
        # a shift below the gate's slack lets the origin through, where every
        # order of the series has a cell: there is no top order to sum to
        spec, _ = self._setup()
        at_origin = FrequencyField(spec.grid, np.eye(1, spec.grid.n)[0] * 1e-3)
        with pytest.raises(GateError, match="no top order"):
            picard_iterate(dataclasses.replace(spec, lambda_shift=1e-13), at_origin)

    def test_two_term_series_matches_quadratic_flow(self):
        # a datum from index 24 of 64 leaves v^{*3} (from 72) off the grid:
        # top = 2, and the dynamics is the quadratic flow with coefficient
        # lam^2 / 2
        spec, u0l = self._setup(eps0=3.0)
        assert self.top(spec, u0l) == (2, 24)
        trace = picard_iterate(spec, u0l)
        lam2 = spec.lambda_shift**2
        free = free_trajectory(u0l, spec.tgrid, spec.lambda_shift)
        v = np.zeros_like(free.values)
        for _ in range(len(trace.iterates)):
            conv = np.empty_like(v)
            for n in range(spec.nt):
                fr = FrequencyField(spec.grid, v[n])
                conv[n] = convolve(fr, fr, rule=spec.conv_rule,
                                   warn_on_truncation=False).values
            G = SpaceTimeField(spec.grid, spec.tgrid, 0.5 * lam2 * conv)
            v = free.values + duhamel(G, spec.lambda_shift).values
        assert v[:, 48:].any()  # the square has cells on the grid
        assert np.allclose(trace.final.values, v, rtol=0, atol=1e-14)

    def test_final_is_the_plain_loop_summed_to_top(self):
        # the series is the whole one on the grid: the final is bitwise a
        # plain loop summed to top, and the next order has no cell.  Index
        # sums from 13 * 16 = 208 up are reached by orders 13 to 15 alone
        spec, u0l = self._setup(xi_max=32)
        top, eps = self.top(spec, u0l)
        assert (top, eps) == (15, 16)
        trace = picard_iterate(spec, u0l)
        iterates = plain_picard(spec, u0l, top)[0]
        assert len(trace.iterates) == len(iterates)
        assert trace.final.values.tobytes() == iterates[-1].tobytes()
        v = trace.final.values
        acc = v
        for _ in range(top):  # v^{*(top+1)}, with no window
            acc = engine.convolve_frames(acc, v, spec.grid, spec.conv_rule)
        assert acc.shape == v.shape and not acc.any()
        assert (top + 1) * eps > spec.grid.d * (spec.grid.n - 1)

    @staticmethod
    def from_first_cell(amp, xi_max=12, h=1 / 16, nt=5):
        """A datum e^{-xi} from cell 1 (eps_cells 1), so top = n - 1."""
        g = make_grid(1, xi_max, h)
        u0 = FrequencyField(g, amp * np.exp(-g.axis) * (g.axis > 0))
        spec = ProblemSpec(grid=g, nonlinearity=Nonlinearity(NonlinearityKind.EXPONENTIAL),
                           s=-1.0, lambda_shift=h / 2, T=0.25, nt=nt, jmax=10, tol=1e-13)
        return spec, u0

    def test_series_runs_past_the_float_factorials(self, monkeypatch, stage_orders):
        # top 191: from r = 171 on r! is no float, and its coefficient is
        # folded into the product; those orders lie below the rounding of
        # the sum to order 170.  Under the Riemann rule v^{*r} starts at
        # index r, so order 171 has cells (the trapezoid rule drops each
        # product's run-start cell: v^{*r} from 2r - 1, and the series
        # stops at order 96)
        spec, u0 = self.from_first_cell(1.0)
        spec = dataclasses.replace(spec, conv_rule="riemann")
        assert self.top(spec, u0) == (191, 1)
        trace = picard_iterate(spec, u0)
        assert trace.converged and len(stage_orders) > 2 * 190
        assert max(r for r, nonzero in stage_orders if nonzero) >= 171
        monkeypatch.undo()  # plain_picard's stages are not counted
        iterates = plain_picard(spec, u0, 170)[0]
        assert len(trace.iterates) == len(iterates)
        assert trace.final.values.tobytes() == iterates[-1].tobytes()

    def test_series_stops_at_the_first_zero_order(self, monkeypatch):
        # v^{*2} of a datum of size 1e-170 underflows to 0 on every cell, and
        # so does every higher order: one stage per live iterate, and the
        # final is the free evolution v^1, bit for bit
        calls = []
        kernel = engine.convolve_frames
        monkeypatch.setattr(engine, "convolve_frames",
                            lambda *args: calls.append(args) or kernel(*args))
        spec, u0 = self.from_first_cell(1e-170)
        spec = dataclasses.replace(spec, tol=0.0)  # v^1 alone is below the default tol
        trace = picard_iterate(spec, u0)
        assert trace.converged and len(calls) == len(trace.iterates) - 1
        assert not kernel(*calls[0][:4]).any()
        assert trace.final.values.tobytes() == trace.iterates[0].values.tobytes()

    def test_exact_band_stability_bitwise(self):
        # each application of e^u - u - 1 adds at least one datum offset, so
        # iterate j is final below j * eps; from j = 3 on that band holds
        # convolution values, not only the free evolution
        spec, u0l = self._setup()
        spec = dataclasses.replace(spec, tol=0.0, jmax=5)
        trace = picard_iterate(spec, u0l)
        eps = support_stats(u0l).min_l1
        l1 = spec.grid.l1()
        # iterate 4's band, 4 eps, covers the grid: its increment is exactly
        # 0, and that fixed point ends the run before jmax = 5 at tol = 0
        assert trace.converged and len(trace.iterates) == 4
        for j in range(1, len(trace.iterates)):
            band = l1 < j * eps
            for r in range(j, len(trace.iterates)):
                assert np.array_equal(trace.iterates[j - 1].values[:, band],
                                      trace.iterates[r].values[:, band])

    @pytest.mark.parametrize("top", [2, 4, 6])
    def test_convolutions_per_iterate(self, top, monkeypatch):
        # the series takes top - 1 stages on each iterate that is neither the
        # first (from v^0 = 0) nor fully settled (its band, (j + 1) eps
        # cells, covers the grid); the datum's offset sets top
        calls = []
        kernel = engine.convolve_frames
        monkeypatch.setattr(engine, "convolve_frames",
                            lambda *args: calls.append(args) or kernel(*args))
        spec, u0l = self._setup(xi_max=16, eps0={2: 6.0, 4: 3.25, 6: 2.5}[top])
        spec = dataclasses.replace(spec, tol=0.0)
        trace = picard_iterate(spec, u0l)
        eps = self.top(spec, u0l)[1]
        assert self.top(spec, u0l)[0] == top
        live = [j for j in range(1, len(trace.iterates))
                if (j + 1) * eps < spec.grid.n]
        assert trace.converged and 0 < len(live) < len(trace.iterates) - 1
        assert len(calls) == len(live) * (top - 1)

    def test_support_analog(self):
        spec, u0l = self._setup()
        trace = picard_iterate(spec, u0l)
        gate = support_stats(u0l).min_l1
        for j, s in enumerate(trace.support_min_l1[1:], start=1):
            assert s >= j * gate - 1e-12
        assert trace.converged


class TestBandWindows:
    """The callers' windows: Picard's last stage from the settled band up,
    Taylor's products below K on every axis."""

    @staticmethod
    def band_1d(nt=9):
        # the band-1d benchmark configuration on fewer time nodes
        g = make_grid(1, 8, 1 / 64)
        return power_spec(g, nt=nt, jmax=8, tol=1e-12), exp_halfline(g, amp=0.7)

    def test_windows_change_no_result(self, monkeypatch):
        # against the window-less kernel: the same nonzero patterns and
        # supports, values to 1e-12 * max; for u^3 and e^u a window on an
        # earlier stage would drop products the last one needs
        g = make_grid(1, 8, 1 / 16)
        lam = 0.5
        u0 = FrequencyField(g, exp_halfline(g).values * (g.axis >= 2 * lam))
        exp_spec = dataclasses.replace(
            power_spec(g, nt=33), lambda_shift=lam, eps0=None,
            nonlinearity=Nonlinearity(NonlinearityKind.EXPONENTIAL))
        band = g.l1() < 6.0 - 1e-12

        def results():
            traces = [picard_iterate(power_spec(g, m=m, nt=33), exp_halfline(g, 0.5))
                      for m in (2, 3)]
            traces.append(engine._run_picard(exp_spec, u0))
            stack = taylor_coefficients(power_spec(g, nt=33), exp_halfline(g), 6.0)
            values = [tr.final.values for tr in traces]
            values.append(assemble_band_solution(stack, 1.0, 6.0).values[:, band])
            return [tr.support_min_l1 for tr in traces], values

        supports, values = results()
        kernel = engine.convolve_frames
        monkeypatch.setattr(engine, "convolve_frames", lambda *args: kernel(*args[:4]))
        ref_supports, ref_values = results()
        assert supports == ref_supports
        for got, ref in zip(values, ref_values):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
            assert np.array_equal(got != 0, ref != 0)

    @staticmethod
    def transforms(monkeypatch):
        """A list that gets, per operand transform of the FFT kernel, its
        pad and whether the operand was masked."""
        calls, padded_fft = [], lattice._padded_fft
        monkeypatch.setattr(lattice, "_padded_fft", lambda x, m, pad: calls.append(
            (pad, m is not None)) or padded_fft(x, m, pad))
        return calls

    def test_picard_pads_shrink(self, monkeypatch):
        # the cyclic convolution need only be linear from the settled band
        # up: one datum offset (64 cells) less per iterate, and the last
        # iterate, settled everywhere, transforms nothing
        calls = self.transforms(monkeypatch)
        spec, v0 = self.band_1d()
        assert len(picard_iterate(spec, v0).iterates) == 8
        # v * v under the trapezoid rule, each operand one run: one unmasked
        # transform, the run-end products subtracted directly
        assert calls == [((n,), False) for n in (768, 704, 640, 576, 512, 448)]

    def test_picard_2d_transforms_each_mask(self, monkeypatch):
        # in d >= 2 a mask drops a face: the trapezoid rule transforms each
        # of the 2^d masked copies of v (the stage's operands are one)
        calls = self.transforms(monkeypatch)
        g = make_grid(2, 4, 1 / 8)
        spec = power_spec(g, nt=9, tol=1e-12)
        assert len(picard_iterate(spec, bump(g, 1.0)).iterates) == 4
        assert calls == [((n, n), True) for n in (7, 27) for _ in range(2**g.d)]

    def test_second_run_misses_no_plan(self):
        # solve and taylor on band-1d use 11 plans, within the cache's 64;
        # a window is a cut of its pair's plan, so a second run plans nothing
        spec, v0 = self.band_1d()
        lattice._plan.cache_clear()
        misses = []
        for _ in range(2):
            picard_iterate(spec, v0)
            taylor_coefficients(spec, v0, 6.0)
            misses.append(lattice._plan.cache_info().misses)
        assert misses == [11, 11]


def plain_picard(spec, v0, top):
    """The Picard loop with no shortcut past the kernel's windows: every
    integrand through the full-grid duhamel, the settled band copied by a
    boolean index; the stages run to order ``top`` (m for u^m).  Returns
    the iterates, support_min_l1, increment_norms and errors of the run."""
    exponential = spec.nonlinearity.kind is NonlinearityKind.EXPONENTIAL
    g, lam, tgrid, rule = spec.grid, spec.lambda_shift, spec.tgrid, spec.conv_rule
    free = spec.delta * free_trajectory(v0, tgrid, lam).values
    sup_l1 = TimeSpaceNormSpec(math.inf, 1, spec.s)  # the trace's norm
    index_l1 = np.indices(g.shape).sum(axis=0)
    eps = int(index_l1[v0.values != 0].min())
    v, iterates, supports, incs = np.zeros_like(free), [], [], []
    for j in range(spec.jmax):
        need = (j * (1 if exponential else top - 1) + 1) * eps
        acc, G = v, np.zeros_like(v)
        for r in range(2, top + 1) if v.any() else ():
            acc = engine.convolve_frames(acc, v, g, rule, need if r == top else 0)
            if exponential:
                G += acc / math.factorial(r)
        G = lam**2 * G if exponential else acc
        v_next = free + duhamel(SpaceTimeField(g, tgrid, G), lam).values
        settled = index_l1 < need
        v_next[:, settled] = v[:, settled]
        diff = v_next - v
        changed = np.any(diff != 0, axis=0)
        supports.append(float(g.l1()[changed].min()) if changed.any() else math.inf)
        incs.append(timespace_norm(SpaceTimeField(g, tgrid, diff), sup_l1))
        iterates.append(v_next)
        v = v_next
        if incs[-1] < spec.tol or not changed.any():  # or at a fixed point
            break
    errors = [timespace_norm(SpaceTimeField(g, tgrid, x - v), sup_l1) for x in iterates]
    return iterates, supports, incs, errors


def plain_taylor(spec, v0, K, orders):
    """taylor_coefficients' recursion with every order integrated by the
    full-grid duhamel: the same products, in the same order, below K."""
    g, rule, tgrid, lam = spec.grid, spec.conv_rule, spec.tgrid, spec.lambda_shift
    hi = math.ceil(K / g.h - 1e-9)
    a = {1: free_trajectory(v0, tgrid, lam).values}
    zero = np.zeros_like(a[1])
    P = {}

    def power_coeff(r, k):
        if r == 1:
            return a.get(k, zero)
        if k < r:
            return zero
        if (r, k) not in P:
            acc = np.zeros_like(zero)
            for i in range(1, (k // 2 if r == 2 else k - r + 1) + 1):
                ai, rest = a.get(i), power_coeff(r - 1, k - i)
                if ai is not None and ai.any() and rest.any():
                    pair = 2.0 if r == 2 and 2 * i < k else 1.0
                    acc += pair * engine.convolve_frames(ai, rest, g, rule, 0, hi)
            P[r, k] = acc
        return P[r, k]

    for k in range(2, orders + 1):
        a[k] = duhamel(SpaceTimeField(g, tgrid, power_coeff(spec.nonlinearity.m, k)),
                       lam).values
    return [math.factorial(k) * a[k] for k in range(1, orders + 1)]


class TestLiveCells:
    """Picard integrates only the box of unsettled cells and Taylor only each
    integrand's nonzero box, bitwise as the whole grid does."""

    GRIDS = {1: (make_grid(1, 8, 1 / 16), 33), 2: (make_grid(2, 4, 1 / 8), 9),
             3: (make_grid(3, 4, 1 / 4), 5)}

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("rule", lattice.RULES)
    @pytest.mark.parametrize("flow", ["m=2", "m=3", "e^u"])
    def test_picard_bitwise_equal_to_plain_loop(self, d, rule, flow):
        g, nt = self.GRIDS[d]
        spec = power_spec(g, m=3 if flow == "m=3" else 2, nt=nt, tol=0.0,
                          conv_rule=rule)
        if flow == "e^u":  # the bump starts at |xi|_inf = 1 = 2 lam
            spec = dataclasses.replace(
                spec, lambda_shift=0.5, eps0=None, T=0.5, tol=1e-12,
                nonlinearity=Nonlinearity(NonlinearityKind.EXPONENTIAL))
        v0 = bump(g, 1.0, amp=0.7)
        trace = picard_iterate(spec, v0)
        # e^u: the top order, above which v^{*r} has no cell (7, 3, 3 in d = 1, 2, 3)
        top = spec.nonlinearity.m or TestExponentialFlow.top(spec, v0)[0]
        iterates, supports, incs, errors = plain_picard(spec, v0, top)
        # m = 3 under the trapezoid rule in 3D ends at a fixed point, iterate 2
        assert len(trace.iterates) == len(iterates) >= 2
        for got, ref in zip(trace.iterates, iterates):  # rebuilt from the trace
            assert got.values.tobytes() == ref.tobytes()
        for got, ref in ((trace.support_min_l1, supports),
                         (trace.increment_norms, incs), (trace.errors, errors)):
            assert np.array(got).tobytes() == np.array(ref).tobytes()
        # the decay fit reads the trace's error tables; the reference forms
        # every v^j - final as a full stack, and fits those stacks' tables
        s_tilde, tgrid = spec.s - 1.0, spec.tgrid
        diffs = [SpaceTimeField(g, tgrid, x - iterates[-1]) for x in iterates]
        full = [timespace_norm(diff, TimeSpaceNormSpec(math.inf, 1, s_tilde))
                for diff in diffs]
        plain = IterationTrace([SpaceTimeField(g, tgrid, x) for x in iterates],
                               supports, incs, errors, trace.converged,
                               [lattice.cube_l2_table(diff.values, g).max(axis=0)
                                for diff in diffs])
        got = error_decay_fit(trace, s_tilde=s_tilde).measured
        ref = error_decay_fit(plain, s_tilde=s_tilde).measured
        assert np.array(got["errors"]).tobytes() == np.array(full).tobytes()
        for key in ("C", "C_bound", "ratios", "errors"):
            assert np.array(got[key]).tobytes() == np.array(ref[key]).tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("rule", lattice.RULES)
    def test_taylor_bitwise_equal_to_full_grid_duhamel(self, d, rule):
        g, nt = self.GRIDS[d]
        spec = power_spec(g, eps0=0.5, nt=nt, conv_rule=rule)
        v0 = bump(g, 0.5, amp=0.7)
        stack = taylor_coefficients(spec, v0, 4.0)
        assert stack.orders >= 3
        for got, ref in zip(stack.coeffs, plain_taylor(spec, v0, 4.0, stack.orders)):
            assert got.values.tobytes() == ref.tobytes()


def traced(call):
    """call(), the memory it left allocated and the peak of the memory it
    allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        return call(), *tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


class TestWorkingSet:
    """A run holds what it returns plus a few working stacks of nt * n^d
    complex cells: no full difference, product or scaled copy of a stack."""

    # grid, nt, rule, datum, band K
    CASES = {
        "band-1d": (make_grid(1, 8, 1 / 64), 257, "trapezoid",
                    lambda g: exp_halfline(g, amp=1.01 * np.exp(0.03j)), 6.0),
        "3d": (make_grid(3, 4, 1 / 4), 33, "riemann", lambda g: bump(g, 1.0), 4.0),
        "3d-trapezoid": (make_grid(3, 4, 1 / 4), 33, "trapezoid",
                         lambda g: bump(g, 1.0), 4.0),
    }
    # MiB a Picard trace retains and the run's traced peak; one stack is
    # 2.0 MiB (band-1d) or 2.1 MiB (3d): the final is the only whole stack.
    # The peaks (12.3, 7.9 and 10.0 MiB) leave no room for another stack
    # beside the three a u^m iterate holds: Duhamel integrates in place.
    # 3d-trapezoid's is set by the convolution's padded blocks
    PICARD_MIB = {"band-1d": (8.0, 13.0), "3d": (3.5, 8.5),
                  "3d-trapezoid": (3.5, 10.5)}

    @pytest.mark.parametrize("case", CASES)
    def test_picard_trace_and_peak(self, case):
        g, nt, rule, datum, _ = self.CASES[case]
        spec, v0 = power_spec(g, nt=nt, tol=1e-12, conv_rule=rule), datum(g)
        trace, retained, peak = traced(lambda: picard_iterate(spec, v0))
        assert trace.final.values.nbytes == nt * g.n**g.d * 16
        assert len(trace.iterates) > 2
        assert retained <= self.PICARD_MIB[case][0] * 2**20
        assert peak <= self.PICARD_MIB[case][1] * 2**20

    @pytest.mark.parametrize("case", CASES)
    def test_taylor_orders_plus_five_stacks(self, case):
        g, nt, rule, datum, K = self.CASES[case]
        spec, v0 = power_spec(g, nt=nt, conv_rule=rule), datum(g)
        coeffs, _, peak = traced(lambda: taylor_coefficients(spec, v0, K))
        assert coeffs.orders >= 2
        assert peak <= (coeffs.orders + 5) * nt * g.n**g.d * 16

    @pytest.mark.parametrize("case", CASES)
    def test_assembly_adds_one_stack_and_a_block(self, case):
        # the sum builds in place a block of frames at a time; the second
        # block allows for the cast buffer of the mask's ufunc
        g, nt, rule, datum, K = self.CASES[case]
        stack = taylor_coefficients(power_spec(g, nt=nt, conv_rule=rule), datum(g), K)
        band, _, peak = traced(lambda: assemble_band_solution(stack, 1.0, K))
        cells = g.n**g.d
        block = max(1, lattice.BLOCK_CELLS // cells) * cells * 16
        assert peak <= band.values.nbytes + 2 * block

    def test_exponential_picard_iterates_plus_four_stacks(self):
        # one run, summed to the top order (7 here), with no second run
        # beside it: about four working stacks over what the trace keeps
        g = make_grid(1, 8, 1 / 64)
        spec = dataclasses.replace(
            power_spec(g, nt=257, tol=1e-10), lambda_shift=0.5, eps0=None,
            nonlinearity=Nonlinearity(NonlinearityKind.EXPONENTIAL))
        trace, _, peak = traced(lambda: picard_iterate(spec, bump(g, 1.0)))
        assert len(trace.iterates) > 2
        assert peak <= (len(trace.iterates) + 4) * trace.final.values.nbytes
