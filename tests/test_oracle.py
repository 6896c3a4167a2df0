import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from octantheat import (
    FrequencyField,
    InitialDataKind,
    InitialDataSpec,
    Nonlinearity,
    NonlinearityKind,
    OracleConfig,
    ProblemSpec,
    assemble_band_solution,
    etd_reference_solve,
    exp_halfline_band,
    exp_halfline_reference,
    free_trajectory,
    make_grid,
    make_initial_data,
    picard_iterate,
    random_field,
    taylor_coefficients,
)


def exp_halfline(grid):
    return make_initial_data(InitialDataSpec(InitialDataKind.EXP_HALFLINE), grid)


def power_spec(grid, m=2, T=1.0, **kw):
    """The reference integrator's run: its time nodes come from OracleConfig."""
    return ProblemSpec(grid=grid, nonlinearity=Nonlinearity(NonlinearityKind.POWER, m=m),
                       eps0=1.0, T=T, **kw)


def memo_free_solve(spec, v0, nt_fine):
    """The integrating-factor RK4 loop with one ``lattice._direct`` per
    product of the power: no plan memo, no reuse of a stage product, and
    stage 2 updated in place.  Returns the frames and every step whose state
    leaves the guard, checked step by step."""
    import octantheat.lattice as lattice_mod
    from octantheat.engine import heat_symbol

    grid, m = spec.grid, spec.nonlinearity.m
    dt = float(np.linspace(0.0, spec.T, nt_fine)[1])
    w = heat_symbol(grid, spec.lambda_shift)
    E, E2 = np.exp(-dt * w), np.exp(-0.5 * dt * w)

    def N(v):
        out = v
        for _ in range(m - 1):
            out = lattice_mod._direct(out, v, grid, spec.conv_rule)[0]
        return out

    v = spec.delta * v0.values
    frames, bad = [v], []
    guard = 1e6 * max(1.0, float(np.abs(v).max()))
    half, dtE2, twoE2, sixth = 0.5 * dt, dt * E2, 2.0 * E2, dt / 6.0
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(nt_fine - 1):
            Ev, k1 = E * v, N(v)
            k2 = N(E2 * (v + half * k1))
            k3 = N(E2 * v + half * k2)
            k4 = N(Ev + dtE2 * k3)
            k2 += k3
            v = Ev + sixth * (E * k1 + twoE2 * k2 + k4)
            if not np.abs(v).max() <= guard:
                bad.append(n + 1)
            frames.append(v)
    return np.array(frames), bad


class TestClosedFormReference:
    def test_order_one_pointwise(self):
        assert exp_halfline_reference(1.0, 2.0, 1) == \
            pytest.approx(math.exp(-2.0), rel=1e-14)
        assert exp_halfline_reference(1.0, 2.0, 1) == pytest.approx(0.135335, abs=1e-6)

    def test_below_threshold_zero(self):
        assert exp_halfline_reference(1.0, 0.5, 1) == 0.0
        assert exp_halfline_reference(1.0, 1.9, 2) == 0.0
        assert exp_halfline_reference(1.0, 2.9, 3) == 0.0

    def test_quadrature_self_convergence_order_two(self):
        a = exp_halfline_reference(1.0, 2.5, 2, quad_order=32)
        b = exp_halfline_reference(1.0, 2.5, 2, quad_order=48)
        assert abs(a - b) <= 1e-6 * abs(b)

    def test_quadrature_self_convergence_order_three(self):
        a = exp_halfline_reference(1.0, 3.5, 3, quad_order=24)
        b = exp_halfline_reference(1.0, 3.5, 3, quad_order=48)
        assert abs(a - b) <= 1e-8 * max(1.0, abs(b))

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            exp_halfline_reference(1.0, 2.0, 4)

    def test_band_sum_consistency(self):
        xis = np.array([1.5, 2.5])
        total = exp_halfline_band(1.0, xis, delta=1.0, quad_order=32)
        by_hand = [
            sum(
                exp_halfline_reference(1.0, float(x), k, 32) / math.factorial(k)
                for k in (1, 2, 3)
            )
            for x in xis
        ]
        assert np.allclose(total, by_hand, rtol=1e-13)


class TestEtdReference:
    def test_linear_part_exact(self):
        # datum high enough that every convolution escapes the grid: the
        # integrating factor must reproduce the bare heat multiplier
        g = make_grid(1, 4, 1 / 16)
        xi = g.axis
        f = FrequencyField(g, np.exp(xi) * (xi >= 2.5))
        out = etd_reference_solve(power_spec(g), f, OracleConfig(nt_fine=33))
        expect = np.exp(-1.0 * xi**2) * f.values
        err = np.abs(out.values[-1] - expect)
        assert err.max() <= 1e-12 * np.abs(expect).max()

    def test_agrees_with_band_solution(self):
        g = make_grid(1, 4, 1 / 64)
        v0 = exp_halfline(g)
        spec = power_spec(g, nt=257)
        stack = taylor_coefficients(spec, v0, K=3.0)
        band_sol = assemble_band_solution(stack, 1.0, 3.0)
        ref = etd_reference_solve(spec, v0, OracleConfig(nt_fine=1025))
        band = (g.axis >= 1.0) & (g.axis < 3.0)
        num = np.linalg.norm(band_sol.values[-1][band] - ref.values[-1][band])
        den = np.linalg.norm(ref.values[-1][band])
        assert num / den < 1e-3

    def test_fourth_order_step_halving(self):
        # against a fixed fine-step reference the defect drops ~16x per
        # halving (integrating-factor RK4)
        g = make_grid(1, 4, 1 / 32)
        v0 = exp_halfline(g)
        ref = etd_reference_solve(power_spec(g), v0, OracleConfig(nt_fine=513))
        band = g.axis < 3.0

        def defect(nt):
            out = etd_reference_solve(power_spec(g), v0, OracleConfig(nt_fine=nt))
            return np.linalg.norm(out.values[-1][band] - ref.values[-1][band])

        d_coarse, d_half = defect(9), defect(17)
        assert d_coarse / d_half >= 8.0

    def test_instability_detected(self):
        from octantheat import DivergenceError

        g = make_grid(1, 4, 1 / 8)
        xi = g.axis
        f = FrequencyField(g, 1e5 * (xi >= 0.5) * (xi < 1.0))
        with pytest.raises(DivergenceError):
            etd_reference_solve(power_spec(g, T=4.0), f, OracleConfig(nt_fine=5))

    def test_overflow_is_divergence_not_a_warning(self):
        # the state overflows within step 1 (inf, then inf * 0 = NaN); the
        # loop runs on under its errstate, so with warnings as errors the
        # guard still reports the step
        from octantheat import DivergenceError

        g = make_grid(1, 4, 1 / 8)
        xi = g.axis
        f = FrequencyField(g, 1e60 * (xi >= 0.5) * (xi < 1.0))
        with pytest.raises(DivergenceError, match="unstable at step 1 "):
            etd_reference_solve(power_spec(g, T=4.0), f, OracleConfig(nt_fine=5))

    @pytest.mark.parametrize("nt_fine", [33, 129])
    def test_first_unstable_step_named(self, nt_fine):
        # the guard reads the frames a block of steps at a time; the state
        # first leaves it at a later step (step 5, or step 17, the first of
        # the second block) and stays out for more steps, and the first is
        # the one named, as a check after every step would name it
        from octantheat import DivergenceError

        g = make_grid(1, 4, 1 / 8)
        xi = g.axis
        f = FrequencyField(g, 200.0 * (xi >= 0.5) * (xi < 1.0))
        spec = power_spec(g, T=4.0)
        _, bad = memo_free_solve(spec, f, nt_fine)
        assert bad[0] >= 2 and len(bad) > 1
        with pytest.raises(DivergenceError, match=f"unstable at step {bad[0]} "):
            etd_reference_solve(spec, f, OracleConfig(nt_fine=nt_fine))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_state_detected(self, bad, monkeypatch):
        # one reduction guards the state: max |v| is NaN for a NaN and inf
        # for an inf (|inf + NaN j| = inf), and neither is <= the guard
        import octantheat.lattice as lattice_mod
        from octantheat import DivergenceError

        monkeypatch.setattr(lattice_mod._Plan, "direct",
                            lambda plan, f, g: np.full_like(f, bad))
        g = make_grid(1, 4, 1 / 8)
        # inf * 0 in the stages makes the NaN part; numpy's warning is not the guard
        with np.errstate(invalid="ignore"), \
                pytest.raises(DivergenceError, match="unstable at step 1 "):
            etd_reference_solve(power_spec(g), exp_halfline(g), OracleConfig(nt_fine=5))

    @pytest.mark.parametrize("m,T,nt_fine,match", [
        (2.5, 1.0, 9, "power"), (1, 1.0, 9, "power"), (2, 1.0, 1, "nt_fine"),
        (2, 0.0, 9, "T must"), (2, -1.0, 9, "T must"), (2, math.nan, 9, "T must"),
        (2, math.inf, 9, "T must")])
    def test_rejects_bad_input(self, m, T, nt_fine, match):
        # the spec rejects a bad m (Nonlinearity) or T (ProblemSpec) before
        # the integrator runs; nt_fine is the integrator's own
        g = make_grid(1, 4, 1 / 8)
        with pytest.raises(ValueError, match=match):
            etd_reference_solve(power_spec(g, m=m, T=T), exp_halfline(g),
                                OracleConfig(nt_fine=nt_fine))

    def test_rejects_the_exponential_flow(self):
        g = make_grid(1, 4, 1 / 8)
        spec = dataclasses.replace(
            power_spec(g), lambda_shift=0.5, eps0=None,
            nonlinearity=Nonlinearity(NonlinearityKind.EXPONENTIAL))
        with pytest.raises(ValueError, match="power nonlinearity"):
            etd_reference_solve(spec, exp_halfline(g), OracleConfig(nt_fine=9))

    def test_integral_float_power_accepted(self):
        g = make_grid(1, 4, 1 / 8)
        v0, cfg = exp_halfline(g), OracleConfig(nt_fine=9)
        got = etd_reference_solve(power_spec(g, m=2.0, T=0.5), v0, cfg).values
        assert np.array_equal(got, etd_reference_solve(power_spec(g, T=0.5), v0,
                                                       cfg).values)

    def test_shares_no_duhamel_path(self):
        import octantheat.oracle as oracle_mod

        src = Path(oracle_mod.__file__).read_text()
        assert "duhamel" not in src
        # nor the engine's batched transform kernel: direct summation only
        assert "convolve_frames" not in src
        assert "fft" not in src.lower()

    @pytest.mark.parametrize("m", [2, 3])
    def test_planned_kernel_matches_unboxed_sum(self, m, monkeypatch):
        # the bump's support grows over the first steps, so the stages run
        # through several plans before their patterns settle
        import octantheat.lattice as lattice_mod
        from test_lattice import unboxed_direct

        g = make_grid(1, 4, 1 / 16)
        v0 = make_initial_data(InitialDataSpec(InitialDataKind.OCTANT_BUMP, eps0=0.5,
                                               width=0.5), g)
        cfg = OracleConfig(nt_fine=17)
        spec = power_spec(g, m=m, T=0.5)
        got = etd_reference_solve(spec, v0, cfg).values
        calls = [0]

        def unboxed(plan, f, h):
            calls[0] += 1
            return unboxed_direct(f, h, g, spec.conv_rule)[0]

        monkeypatch.setattr(lattice_mod._Plan, "direct", unboxed)
        ref = etd_reference_solve(spec, v0, cfg).values
        assert calls[0] == 4 * (cfg.nt_fine - 1) * (m - 1)  # every stage product
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.array_equal(got != 0, ref != 0)

    @pytest.mark.parametrize("d,xi_max,h", [(1, 4, 1 / 16), (2, 3, 1 / 4), (3, 2, 1 / 4)])
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("rule", ["riemann", "trapezoid"])
    def test_stage_products_are_the_direct_kernel(self, d, xi_max, h, m, rule,
                                                  monkeypatch):
        # the stages reuse each product's plan while its operands' patterns
        # stay the same; every product must still be the bits of _direct on
        # its operands.  The bump's support grows over the first steps, so a
        # product changes plans (the memo misses) before the patterns settle
        import octantheat.lattice as lattice_mod

        g = make_grid(d, xi_max, h)
        # four cells or more per axis from the cell at 0.25, so that the
        # trapezoid cube still lands on the 3D grid
        v0 = make_initial_data(InitialDataSpec(InitialDataKind.OCTANT_BUMP, eps0=0.25,
                                               width=0.5 if d == 1 else 1.0), g)
        seen, direct = [], lattice_mod._Plan.direct

        def recording(plan, f, other):
            out = direct(plan, f, other)
            seen.append((plan, f.copy(), other is f, other.copy(), out.copy()))
            return out

        spec, cfg = power_spec(g, m=m, conv_rule=rule), OracleConfig(nt_fine=9)
        with monkeypatch.context() as patch:
            patch.setattr(lattice_mod._Plan, "direct", recording)
            got = etd_reference_solve(spec, v0, cfg).values
        # a product whose operands repeat on its plan's boxes is not summed
        # again, so 4 stages of m - 1 products over 8 steps bound the calls
        assert 0 < len(seen) <= 4 * 8 * (m - 1)
        # the first product of a stage squares v (other is f), a second one
        # multiplies by v: one of them changes plans
        assert any(len({id(plan) for plan, _, same, *_ in seen if same is first}) > 1
                   for first in (True, False))
        for _, f, same, other, out in seen:
            want, _ = lattice_mod._direct(f, f if same else other, g, rule)
            assert out.tobytes() == want.tobytes()
        assert got.tobytes() == memo_free_solve(spec, v0, cfg.nt_fine)[0].tobytes()

    @pytest.mark.parametrize("d,xi_max,h,bump,nt_fine", [
        (1, 3, 1 / 16, False, 65),  # stages repeat
        (1, 5, 1 / 16, False, 65),  # they do not
        (2, 3, 1 / 8, True, 33),
        (3, 3, 1 / 4, True, 9)])
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("rule", ["riemann", "trapezoid"])
    def test_frames_are_the_memo_free_run(self, d, xi_max, h, bump, nt_fine, m, rule):
        # a repeated stage product is the result kept for it: exact, so every
        # frame is the bits of a loop that sums each product afresh.  The
        # integrator's constants are complex128, the memo-free loop's float:
        # a negative or complex amplitude puts -0.0 on the zero cells, whose
        # signs the two must still agree on
        g = make_grid(d, xi_max, h)
        kind = InitialDataKind.OCTANT_BUMP if bump else InitialDataKind.EXP_HALFLINE
        shape = {"eps0": 1.0, "width": 0.5} if bump else {}
        spec = power_spec(g, m=m, conv_rule=rule)
        for amplitude in (1.0, -1.0, -1.01 + 0.03j):
            v0 = make_initial_data(InitialDataSpec(kind, amplitude=amplitude, **shape), g)
            got = etd_reference_solve(spec, v0, OracleConfig(nt_fine=nt_fine)).values
            want, bad = memo_free_solve(spec, v0, nt_fine)
            assert not bad
            assert got.tobytes() == want.tobytes(), amplitude

    def test_repeated_stage_products_are_not_summed_again(self, monkeypatch):
        # on [0, 3) the products of data from xi = 1 land from 2 up, so no
        # stage increment touches the cells a product reads: stage 3 repeats
        # stage 2's operands, and the next step's stage 1 repeats stage 4's
        import octantheat.lattice as lattice_mod

        g = make_grid(1, 3, 1 / 16)
        products, direct = [], lattice_mod._Plan.direct

        def recording(plan, f, other):
            products.append(direct(plan, f, other))
            return products[-1]

        monkeypatch.setattr(lattice_mod._Plan, "direct", recording)
        cfg = OracleConfig(nt_fine=65)
        etd_reference_solve(power_spec(g), exp_halfline(g), cfg)
        assert len(products) == 2 * (cfg.nt_fine - 1) + 1
        assert not any(out.flags.writeable for out in products)

    @pytest.mark.parametrize("rule", ["riemann", "trapezoid"])
    def test_whole_window_once_per_plan(self, rule, monkeypatch):
        # the direct kernel reads each plan's whole-grid window from the plan:
        # thousands of small products must not re-derive it per call
        import octantheat.lattice as lattice_mod

        g = make_grid(1, 4, 1 / 16)
        v0 = make_initial_data(InitialDataSpec(InitialDataKind.OCTANT_BUMP, eps0=0.5,
                                               width=0.5), g)
        windows, direct = {}, [0]
        window, plan_direct = lattice_mod._Plan.window, lattice_mod._Plan.direct

        def counting_window(plan, lo, hi):
            windows[plan, lo, hi] = windows.get((plan, lo, hi), 0) + 1
            return window(plan, lo, hi)

        def counting_direct(*args):
            direct[0] += 1
            return plan_direct(*args)

        monkeypatch.setattr(lattice_mod._Plan, "window", counting_window)
        monkeypatch.setattr(lattice_mod._Plan, "direct", counting_direct)
        lattice_mod._plan.cache_clear()
        etd_reference_solve(power_spec(g, conv_rule=rule), v0, OracleConfig(nt_fine=33))
        assert {(lo, hi) for _, lo, hi in windows} == {(0, g.n)}
        assert max(windows.values()) == 1
        assert direct[0] >= 10 * len(windows)  # so a per-call window would show


class TestBandBox:
    """Every product that lands on |xi|_1 < B comes from two cells inside
    that band, so the reference solve on the box [0, ceil(B))^d is the
    whole-grid solve there, bit for bit: the box that CLI oracle-compare
    integrates."""

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 3), rule=st.sampled_from(("riemann", "trapezoid")),
           m=st.integers(2, 3), n_sub=st.sampled_from((2, 4)), xi_max=st.integers(2, 3),
           frac=st.floats(0.05, 1.0), keep=st.sampled_from((1.0, 0.5)),
           floor=st.sampled_from((1.0, 0.0)), seed=st.integers(0, 2**31 - 1))
    def test_box_run_is_the_whole_run_on_the_band(self, d, rule, m, n_sub, xi_max,
                                                    frac, keep, floor, seed):
        g = make_grid(d, xi_max, 1 / (2 if d == 3 else n_sub))  # 3D: at most 6^3 cells
        rng = np.random.default_rng(seed)
        # gated data have cells at index 0 on an axis but none at the origin;
        # floor 0 puts one there too.  ``keep`` thins the support so that the
        # operand boxes differ from the grid's
        values = random_field(g, 1.0, rng, linf_floor=floor).values
        values = values * (rng.random(g.shape) < keep)
        band = (math.floor(frac * d * g.n) + 0.5) * g.h  # between two cell sums
        spec = power_spec(g, m=m, T=0.1, conv_rule=rule)
        cfg = OracleConfig(nt_fine=5)
        whole = etd_reference_solve(spec, FrequencyField(g, values), cfg).values
        bg = make_grid(d, min(xi_max, math.ceil(band)), g.h)
        box = (slice(bg.n),) * d
        got = etd_reference_solve(dataclasses.replace(spec, grid=bg),
                                  FrequencyField(bg, values[box]), cfg).values
        cells = bg.l1() < band - 1e-12
        assert got[:, cells].tobytes() == whole[(slice(None), *box)][:, cells].tobytes()


class TestLargeData:
    """Data far from small in the weighted norm: Picard ends at J*, the
    iterate whose band covers the grid, and its nonlinear part converges to
    the oracle's at the trapezoid rule's second order in the time step."""

    @pytest.mark.parametrize("d,xi_max,h,width,amp,nts,nt_fine,j_star", [
        (1, 8, 1 / 16, 1.0, 200.0, (33, 65, 129), 513, 8),
        (2, 6, 1 / 8, 0.5, 3000.0, (17, 33), 129, 6)])
    def test_nonlinear_gap_quarters_per_halving(self, d, xi_max, h, width, amp, nts,
                                                nt_fine, j_star):
        g = make_grid(d, xi_max, h)
        v0 = make_initial_data(InitialDataSpec(InitialDataKind.OCTANT_BUMP, eps0=1.0,
                                               width=width, amplitude=amp), g)
        spec = power_spec(g, T=0.5, s=-1.0, jmax=20, tol=1e-12)
        # the free part is computed alike by both solvers and would hide the
        # nonlinear error: the gap (v - free) - (ref - free) at T is taken
        # relative to the nonlinear part ref - free
        free = free_trajectory(v0, np.array([0.0, spec.T])).values[-1]
        ref = etd_reference_solve(spec, v0, OracleConfig(nt_fine=nt_fine)).values[-1]
        gaps = []
        for nt in nts:
            trace = picard_iterate(dataclasses.replace(spec, nt=nt), v0)
            assert trace.converged and len(trace.iterates) == j_star
            assert trace.increment_norms[-1] == 0.0
            gaps.append(np.linalg.norm(trace.final.values[-1] - ref)
                        / np.linalg.norm(ref - free))
        for coarse, fine in zip(gaps, gaps[1:]):
            assert 3.5 <= coarse / fine <= 4.5
