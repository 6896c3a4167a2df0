import math
from pathlib import Path

import numpy as np
import pytest

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
    make_grid,
    make_initial_data,
    taylor_coefficients,
)


def exp_halfline(grid):
    return make_initial_data(InitialDataSpec(InitialDataKind.EXP_HALFLINE), grid)


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
        out = etd_reference_solve(f, 2, 1.0, OracleConfig(nt_fine=33))
        expect = np.exp(-1.0 * xi**2) * f.values
        err = np.abs(out.values[-1] - expect)
        assert err.max() <= 1e-12 * np.abs(expect).max()

    def test_agrees_with_band_solution(self):
        g = make_grid(1, 4, 1 / 64)
        v0 = exp_halfline(g)
        spec = ProblemSpec(
            grid=g, nonlinearity=Nonlinearity(NonlinearityKind.POWER, m=2),
            eps0=1.0, T=1.0, nt=257,
        )
        stack = taylor_coefficients(spec, v0, K=3.0)
        band_sol = assemble_band_solution(stack, 1.0, 3.0)
        ref = etd_reference_solve(v0, 2, 1.0, OracleConfig(nt_fine=1025))
        band = (g.axis >= 1.0) & (g.axis < 3.0)
        num = np.linalg.norm(band_sol.values[-1][band] - ref.values[-1][band])
        den = np.linalg.norm(ref.values[-1][band])
        assert num / den < 1e-3

    def test_fourth_order_step_halving(self):
        # against a fixed fine-step reference the defect drops ~16x per
        # halving (integrating-factor RK4)
        g = make_grid(1, 4, 1 / 32)
        v0 = exp_halfline(g)
        ref = etd_reference_solve(v0, 2, 1.0, OracleConfig(nt_fine=513))
        band = g.axis < 3.0

        def defect(nt):
            out = etd_reference_solve(v0, 2, 1.0, OracleConfig(nt_fine=nt))
            return np.linalg.norm(out.values[-1][band] - ref.values[-1][band])

        d_coarse, d_half = defect(9), defect(17)
        assert d_coarse / d_half >= 8.0

    def test_instability_detected(self):
        from octantheat import DivergenceError

        g = make_grid(1, 4, 1 / 8)
        xi = g.axis
        f = FrequencyField(g, 1e5 * (xi >= 0.5) * (xi < 1.0))
        with pytest.raises(DivergenceError):
            etd_reference_solve(f, 2, 4.0, OracleConfig(nt_fine=5))

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
        got = etd_reference_solve(v0, m, 0.5, cfg).values
        monkeypatch.setattr(lattice_mod, "_direct", unboxed_direct)
        ref = etd_reference_solve(v0, m, 0.5, cfg).values
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.array_equal(got != 0, ref != 0)
