"""Two-dimensional exercises of the convolution kernel and the solver.

Separable data factorize exactly through the discrete convolution (both
weightings), which gives closed cross-checks without new oracles; the
support staircase and exact-band mechanics are dimension-generic.
"""
import dataclasses

import numpy as np
import pytest

from octantheat import (
    FrequencyField,
    InitialDataKind,
    InitialDataSpec,
    Nonlinearity,
    NonlinearityKind,
    ProblemSpec,
    assemble_band_solution,
    convolve,
    make_grid,
    make_initial_data,
    picard_iterate,
    taylor_coefficients,
)
from octantheat.oracle import OracleConfig, etd_reference_solve


def separable(grid, a_vals, b_vals):
    return FrequencyField(grid, np.outer(a_vals, b_vals))


class TestSeparableConvolution:
    @pytest.mark.parametrize("rule", ["riemann", "trapezoid"])
    def test_factorizes_exactly(self, rule):
        g2 = make_grid(2, 2, 0.25)
        g1 = make_grid(1, 2, 0.25)
        rng = np.random.default_rng(12)
        a = rng.standard_normal(g1.n) * (rng.random(g1.n) < 0.6)
        b = rng.standard_normal(g1.n) * (rng.random(g1.n) < 0.6)
        f2 = separable(g2, a, b)
        c2 = convolve(f2, f2, rule=rule, warn_on_truncation=False)
        ca = convolve(FrequencyField(g1, a), FrequencyField(g1, a),
                      rule=rule, warn_on_truncation=False)
        cb = convolve(FrequencyField(g1, b), FrequencyField(g1, b),
                      rule=rule, warn_on_truncation=False)
        # one Riemann factor h lives in each 1D convolution, h^2 in the 2D one
        expect = np.outer(ca.values, cb.values)
        scale = np.abs(expect).max() or 1.0
        assert np.abs(c2.values - expect).max() <= 1e-13 * scale

    def test_box_window_2d(self):
        g = make_grid(2, 6, 0.5)
        vals = np.zeros(g.shape)
        x, y = g.coords()
        f1 = FrequencyField(g, vals + ((x >= 1) & (x < 2) & (y >= 1) & (y < 2)))
        f2 = FrequencyField(g, vals + ((x >= 2) & (x < 3) & (y >= 0) & (y < 1)))
        c = convolve(f1, f2, warn_on_truncation=False)
        total = (3, 1)  # k1 + k2
        ns = g.n_sub
        for k0 in range(6):
            for k1 in range(6):
                off = max(abs(k0 - total[0]), abs(k1 - total[1]))
                if off > 3:  # m + 1 for m = 2
                    cube = c.values[k0 * ns:(k0 + 1) * ns, k1 * ns:(k1 + 1) * ns]
                    assert not cube.any()


class TestThreeDimensionalSmoke:
    def test_lattice_and_norms(self):
        from octantheat import NormFlavor, NormSpec, static_norm, support_stats

        g = make_grid(3, 4, 0.5)
        assert g.shape == (8, 8, 8)
        vals = np.zeros(g.shape, dtype=complex)
        x, y, z = g.coords()
        vals[(x >= 1) & (x < 2) & (y >= 1) & (y < 2) & (z >= 1) & (z < 2)] = 1.0
        f = FrequencyField(g, vals)
        st = support_stats(f)
        assert st.min_l1 == 3.0 and st.min_linf == 1.0
        c = convolve(f, f, warn_on_truncation=False)
        occupied = np.argwhere(c.values != 0)
        assert occupied.min() * g.h == 2.0  # supports add per axis
        lat = static_norm(f, NormSpec(NormFlavor.ES_LATTICE, -1.0, 0.0))
        integ = static_norm(f, NormSpec(NormFlavor.ES_INTEGRAL, -1.0, 0.0))
        C = 2.0**3  # equivalence constant at sigma = 0
        assert lat <= C * integ and integ <= C * lat


class TestOracleTimeRefinement:
    def test_gap_shrinks_at_second_order_in_dt(self):
        # the RK4 oracle shares the grid and the convolution rule but no
        # Duhamel code; with 257 steps its time error is far below the
        # trapezoid Duhamel's, so the gap on |xi|_1 < 6 falls 4x per halving
        grid = make_grid(2, 4, 1 / 8)
        v0 = make_initial_data(
            InitialDataSpec(InitialDataKind.OCTANT_BUMP, eps0=1.0, width=0.5), grid)
        spec = ProblemSpec(grid=grid, eps0=1.0, T=0.5,
                           nonlinearity=Nonlinearity(NonlinearityKind.POWER, m=2))
        ref = etd_reference_solve(spec, v0, OracleConfig(nt_fine=257)).values[-1]
        band = grid.l1() < 6.0
        gaps = []
        for nt in (5, 9, 17, 33):
            final = picard_iterate(dataclasses.replace(spec, nt=nt), v0).final.values[-1]
            gaps.append(np.linalg.norm(final[band] - ref[band]))
        for a, b in zip(gaps, gaps[1:]):
            assert 3.5 <= a / b <= 4.5


class TestContractionDilation:
    def test_shrinks_support_toward_origin(self):
        # x -> f(x / 2) is the undo of a dilation by 2: scale_data takes only
        # integer factors, and rescale_solution contracts onto h / 2
        from octantheat import SpaceTimeField, rescale_solution, scale_data

        g = make_grid(1, 4, 1 / 8)
        vals = np.where((g.axis >= 1.0) & (g.axis < 2.0), 1.0 + 0j, 0.0)
        with pytest.raises(ValueError):
            scale_data(FrequencyField(g, vals), 0.5, 0.0)
        out = rescale_solution(SpaceTimeField(g, [0.0, 1.0], np.stack([vals] * 2)), 2, 0.0)
        assert out.grid == make_grid(1, 2, 1 / 16)
        nz = np.nonzero(out.values[0])[0] * out.grid.h
        assert nz.min() == pytest.approx(0.5)
        assert nz.max() == pytest.approx(1.0 - out.grid.h)
        # amplitude factor lam^{d-a} = 2 in d = 1
        assert np.abs(out.values[np.nonzero(out.values)]).max() == \
            pytest.approx(2.0, rel=1e-12)


class TestTwoDimensionalSolver:
    def _run(self, m=2, eps0=1.0):
        grid = make_grid(2, 3, 0.25)
        v0 = make_initial_data(
            InitialDataSpec(InitialDataKind.OCTANT_BUMP, eps0=eps0, width=0.5),
            grid,
        )
        spec = ProblemSpec(
            grid=grid, nonlinearity=Nonlinearity(NonlinearityKind.POWER, m=m),
            eps0=eps0, s=-1.0, T=1.0, nt=17, jmax=5, tol=0.0,
        )
        return grid, spec, v0, picard_iterate(spec, v0)

    def test_support_staircase(self):
        # in 2D the datum's l1 offset is 2 eps0, so increments climb at
        # least as fast as the 1D bound j (m-1) eps0
        grid, spec, v0, trace = self._run()
        for j, s in enumerate(trace.support_min_l1[1:], start=1):
            assert s >= j * 1.0
        assert all(b >= a for a, b in zip(trace.support_min_l1,
                                          trace.support_min_l1[1:]))

    def test_band_stability_bitwise(self):
        grid, spec, v0, trace = self._run()
        l1 = grid.l1()
        for j in range(1, len(trace.iterates)):
            band = l1 < j * 1.0
            for r in range(j, len(trace.iterates)):
                assert np.array_equal(
                    trace.iterates[j - 1].values[:, band],
                    trace.iterates[r].values[:, band],
                )

    def test_taylor_matches_picard_on_band(self):
        grid, spec, v0, trace = self._run()
        stack = taylor_coefficients(spec, v0, K=3.0)
        sol = assemble_band_solution(stack, 1.0, 3.0)
        band = grid.l1() < 3.0 - 1e-12
        a = sol.values[:, band]
        b = trace.final.values[:, band]
        scale = np.abs(b).max()
        assert np.abs(a - b).max() <= 1e-10 * scale
