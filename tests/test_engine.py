import dataclasses
import math

import numpy as np
import pytest

from octantheat import (
    DivergenceError,
    FrequencyField,
    GateError,
    InitialDataKind,
    InitialDataSpec,
    Nonlinearity,
    NonlinearityKind,
    ProblemSpec,
    SpaceTimeField,
    assemble_band_solution,
    convolve,
    duhamel,
    exp_picard_iterate,
    free_trajectory,
    make_grid,
    make_initial_data,
    picard_iterate,
    propagate,
    scale_data,
    scaled_grid,
    support_stats,
    taylor_coefficients,
)
from octantheat import engine
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
    def test_time_zero_identity(self):
        g = make_grid(1, 4, 0.25)
        f = exp_halfline(g)
        out = propagate(f, 0.0)
        assert np.array_equal(out.values, f.values)

    def test_pointwise_multiplier(self):
        g = make_grid(1, 4, 0.25)
        vals = np.zeros(g.shape, dtype=complex)
        i = int(round(2.0 / g.h))
        vals[i] = 1.0
        out = propagate(FrequencyField(g, vals), 0.25)
        assert out.values[i] == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_semigroup_law_machine_precision(self):
        g = make_grid(2, 2, 0.5)
        rng = np.random.default_rng(4)
        f = FrequencyField(g, rng.standard_normal(g.shape)
                           + 1j * rng.standard_normal(g.shape))
        a = propagate(propagate(f, 0.3), 0.45)
        b = propagate(f, 0.75)
        assert np.abs(a.values - b.values).max() <= 1e-14 * np.abs(b.values).max()

    def test_shifted_symbol(self):
        g = make_grid(1, 4, 0.25)
        vals = np.zeros(g.shape, dtype=complex)
        i = int(round(1.0 / g.h))
        vals[i] = 1.0
        out = propagate(FrequencyField(g, vals), 1.0, lambda_shift=2.0)
        assert out.values[i] == pytest.approx(math.exp(3.0), rel=1e-13)


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
        assert (power.m, power.taylor_order) == (2, None)
        assert (exponential.m, exponential.taylor_order) == (None, 12)

    @pytest.mark.parametrize("kind,other", [("POWER", {"taylor_order": 6}),
                                            ("EXPONENTIAL", {"m": 3})])
    def test_rejects_the_other_kinds_parameter(self, kind, other):
        with pytest.raises(ValueError, match=f"{next(iter(other))} is not a parameter"):
            Nonlinearity(kind, **other)


class TestProblemSpec:
    def test_rejects_unknown_conv_rule(self):
        with pytest.raises(ValueError, match="conv_rule"):
            power_spec(make_grid(1, 4, 0.25), conv_rule="trapezoidal")


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
        # m - 1 stages per iterate; the first iterate, from v^0 = 0, has none
        calls = []
        kernel = engine.convolve_frames
        monkeypatch.setattr(engine, "convolve_frames",
                            lambda *args: calls.append(args) or kernel(*args))
        g = make_grid(1, 4, 1 / 16)
        trace = picard_iterate(power_spec(g, m=m, nt=33, jmax=4, tol=0.0),
                               exp_halfline(g, amp=0.5))
        assert len(trace.iterates) == 4
        assert len(calls) == (len(trace.iterates) - 1) * (m - 1)

    def test_gate_rejects_low_spectrum(self):
        g = make_grid(1, 4, 0.25)
        spec = power_spec(g, eps0=2.0)
        with pytest.raises(GateError):
            picard_iterate(spec, exp_halfline(g))

    def test_gate_rejects_sign_pair(self):
        g = make_grid(1, 18, 1 / 4)
        pair = make_initial_data(
            InitialDataSpec(InitialDataKind.INFLATION_PAIR, s=-0.5, pair_k=16), g
        )
        spec = power_spec(g, nt=9, eps0=1.0)
        with pytest.raises(GateError):
            picard_iterate(spec, pair)

    def test_divergence_detector(self):
        g = make_grid(1, 8, 1 / 8)
        spec = power_spec(g, eps0=1.0, nt=17, jmax=8, T=1.0)
        with pytest.raises(DivergenceError):
            picard_iterate(spec, bump(g, 1.0, width=1.0, amp=2e2))


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
            st = support_stats(ck.frame(ck.nt - 1), tol=0.0)
            if not st.empty:
                assert st.min_l1 >= k * 1.0 - 1e-12

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


class TestExponentialFlow:
    def _setup(self, amp=1e-2, lam=2, M=6, xi_max=8, h=1 / 8, nt=33):
        base = make_grid(1, xi_max, h)
        u0 = bump(base, 2.0, width=0.5, amp=amp)
        lam_grid = scaled_grid(base, lam)
        u0l = scale_data(u0, lam, 0.0, out_grid=lam_grid)
        spec = ProblemSpec(
            grid=lam_grid,
            nonlinearity=Nonlinearity(NonlinearityKind.EXPONENTIAL, taylor_order=M),
            eps0=2.0,
            s=-1.0,
            lambda_shift=float(lam),
            T=0.25,
            nt=nt,
            jmax=10,
            tol=1e-13,
        )
        return spec, u0l

    def test_zero_datum(self):
        spec, u0l = self._setup()
        zero = FrequencyField(spec.grid, np.zeros(spec.grid.shape))
        trace = exp_picard_iterate(spec, zero, sensitivity_probe=False)
        assert not trace.final.values.any()

    def test_gate_requires_shifted_spectrum(self):
        spec, _ = self._setup()
        low = bump(spec.grid, 1.0, width=0.5)  # below 2 lam = 4
        with pytest.raises(GateError):
            exp_picard_iterate(spec, low)

    def test_two_term_series_matches_quadratic_flow(self):
        # with the series truncated at M = 2 the dynamics is the quadratic
        # flow with coefficient lam^2 / 2
        spec, u0l = self._setup(M=2)
        trace = exp_picard_iterate(spec, u0l, sensitivity_probe=False)
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
        assert np.allclose(trace.final.values, v, rtol=0, atol=1e-14)

    def test_exact_band_stability_bitwise(self):
        # each application of e^u - u - 1 adds at least one datum offset, so
        # iterate j is final below j * eps; from j = 3 on that band holds
        # convolution values, not only the free evolution
        spec, u0l = self._setup(M=4)
        spec = dataclasses.replace(spec, tol=0.0, jmax=5)
        trace = exp_picard_iterate(spec, u0l, sensitivity_probe=False)
        eps = support_stats(u0l).min_l1
        l1 = spec.grid.l1()
        assert len(trace.iterates) == 5
        for j in range(1, len(trace.iterates)):
            band = l1 < j * eps
            for r in range(j, len(trace.iterates)):
                assert np.array_equal(trace.iterates[j - 1].values[:, band],
                                      trace.iterates[r].values[:, band])

    @pytest.mark.parametrize("M", [2, 4, 6])
    def test_convolutions_per_iterate(self, M, monkeypatch):
        # the series takes M - 1 stages per iterate, none from v^0 = 0
        calls = []
        kernel = engine.convolve_frames
        monkeypatch.setattr(engine, "convolve_frames",
                            lambda *args: calls.append(args) or kernel(*args))
        spec, u0l = self._setup(M=M)
        spec = dataclasses.replace(spec, tol=0.0, jmax=4)
        trace = exp_picard_iterate(spec, u0l, sensitivity_probe=False)
        assert len(trace.iterates) == 4
        assert len(calls) == (len(trace.iterates) - 1) * (M - 1)

    def test_support_analog_and_sensitivity(self):
        spec, u0l = self._setup(M=6)
        trace = exp_picard_iterate(spec, u0l)
        gate = support_stats(u0l).min_l1
        for j, s in enumerate(trace.support_min_l1[1:], start=1):
            assert s >= j * gate - 1e-12
        assert trace.converged
        assert trace.truncation_sensitivity is not None
        assert trace.truncation_sensitivity < 1e-8
