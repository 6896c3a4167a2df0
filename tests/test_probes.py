import math

import numpy as np
import pytest

from octantheat import (
    FrequencyField,
    InitialDataKind,
    InitialDataSpec,
    Nonlinearity,
    NonlinearityKind,
    ProblemSpec,
    SpaceTimeField,
    error_decay_fit,
    illposed_probe_E,
    illposed_probe_H,
    inequality_probe,
    inflation_exponent,
    make_grid,
    make_initial_data,
    picard_iterate,
    scaling_vanishing_curve,
    weighted_l1_seq_norm,
)
from octantheat.engine import IterationTrace


class TestInequalityProbes:
    @pytest.mark.parametrize("kind,params", [
        ("heat_semigroup", {"s": -1.0, "sigma": 0.0, "m": 2}),
        ("shifted_semigroup", {"lam": 2.0}),
        ("product_es", {"s": -1.0, "sigma": 0.5, "m": 2}),
        ("product_es", {"s": -1.0, "sigma": -1.5, "m": 2}),  # scaling index
        ("product_es", {"s": -0.5, "sigma": 1.5, "m": 3}),
        ("product_no_lowband", {"s": -1.0, "sigma": 0.5, "m": 2}),
        ("highband_smoothing", {"s": -1.0, "sigma": 0.0, "A": 4.0}),
        ("conv_weighted_l1", {"s_tilde": -1.0, "m": 2}),
        ("product_e21", {"s": -1.0, "m": 2}),
        ("sobolev_embedding", {"s": -1.0, "sigma": 1.0, "r": 0.0}),
        ("e21_chain", {"s": -1.0, "sigma_low": -0.5, "sigma_high": 1.0}),
    ])
    def test_finite_and_stable(self, kind, params):
        rep = inequality_probe(kind, params, n_samples=8, seed=7, nt=17)
        assert math.isfinite(rep.measured["C"])
        assert rep.measured["C"] > 0
        assert rep.stable
        assert rep.passed

    def test_exact_embeddings_hold(self):
        rep = inequality_probe("sobolev_embedding",
                               {"s": -1.0, "sigma": 0.5, "r": 1.0},
                               n_samples=12, seed=3, nt=9)
        assert rep.measured["holds"]
        rep2 = inequality_probe("e21_chain",
                                {"s": -0.5, "sigma_low": 0.0, "sigma_high": 1.5},
                                n_samples=12, seed=3, nt=9)
        assert rep2.measured["holds"]

    def test_product_rejects_supercritical_weight(self):
        with pytest.raises(ValueError):
            inequality_probe("product_es", {"s": -1.0, "sigma": -2.0, "m": 2},
                             n_samples=2, refine=False)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            inequality_probe("no_such_probe")

    @pytest.mark.parametrize("kind,params", [
        ("product_es", {"sigmaa": 0.5}),           # misspelled
        ("conv_weighted_l1", {"sigma": 0.5}),      # not a parameter of the kind
        ("product_es", {"s": None}),               # not a number
        ("product_es", {"m": 1}),
    ])
    def test_rejects_bad_params(self, kind, params):
        with pytest.raises(ValueError):
            inequality_probe(kind, params, n_samples=2, refine=False)

    def test_params_default_per_kind(self):
        rep = inequality_probe("shifted_semigroup", {"lam": 1}, n_samples=2,
                               nt=5, refine=False)
        assert rep.params == {"lam": 1.0, "c_rate": 0.5}

    def test_determinism(self):
        a = inequality_probe("product_es", {"s": -1.0, "sigma": 0.5, "m": 2},
                             n_samples=5, seed=11, nt=9, refine=False)
        b = inequality_probe("product_es", {"s": -1.0, "sigma": 0.5, "m": 2},
                             n_samples=5, seed=11, nt=9, refine=False)
        assert a.measured == b.measured

    def test_seed_changes_measurement(self):
        a = inequality_probe("product_es", {"s": -1.0, "sigma": 0.5, "m": 2},
                             n_samples=5, seed=1, nt=9, refine=False)
        b = inequality_probe("product_es", {"s": -1.0, "sigma": 0.5, "m": 2},
                             n_samples=5, seed=2, nt=9, refine=False)
        assert a.measured["C"] != b.measured["C"]

    def test_shifted_semigroup_t0_ratio_one(self):
        rep = inequality_probe("shifted_semigroup", {"lam": 2.0},
                               n_samples=6, seed=5, nt=9, refine=False)
        assert rep.measured["C"] >= 1.0 - 1e-12

    def test_product_constant_growth_shape_in_m(self):
        # at sigma = d/2 the measured product constants stay within the
        # C^m m^{m/2} envelope: log(C_m)/m is bounded across m
        logs = []
        for m in (2, 3, 4):
            rep = inequality_probe("product_es", {"s": -1.0, "sigma": 0.5, "m": m},
                                   n_samples=10, seed=4, nt=9, refine=False)
            logs.append(math.log(rep.measured["C"]) / m)
        assert max(logs) - min(logs) < 3.0
        assert all(abs(v) < 5.0 for v in logs)

    def test_conv_weighted_l1_near_identity_for_cube_pair(self):
        # two unit-cube indicators: convolution is a hat over two cubes and
        # the bound is saturated up to (1 + 2^s)/sqrt(3)
        g = make_grid(1, 8, 1 / 8)
        s0 = -1.0
        k1, k2 = 2, 3

        def cube(k):
            vals = np.where((g.axis >= k) & (g.axis < k + 1), 1.0 + 0j, 0.0)
            return FrequencyField(g, vals)

        from octantheat import convolve

        conv = convolve(cube(k1), cube(k2), warn_on_truncation=False)
        lhs = weighted_l1_seq_norm(conv, s0)
        rhs = weighted_l1_seq_norm(cube(k1), s0) * weighted_l1_seq_norm(cube(k2), s0)
        ratio = lhs / rhs
        predict = (1 + 2.0**s0) / math.sqrt(3.0)
        assert ratio == pytest.approx(predict, rel=0.05)
        assert 0.4 <= ratio <= 1.05


class TestScalingCurve:
    def _datum(self, h=1 / 16):
        g = make_grid(1, 4, h)
        return make_initial_data(InitialDataSpec(InitialDataKind.EXP_HALFLINE), g)

    def test_decreasing_to_zero(self):
        rep = scaling_vanishing_curve(self._datum(), sigma=0.0, s=-1.0)
        vals = [row["norm"] for row in rep.curve]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.1 * vals[0]
        assert rep.passed

    def test_zero_datum_trivial(self):
        g = make_grid(1, 4, 1 / 16)
        rep = scaling_vanishing_curve(FrequencyField(g, np.zeros(g.shape)),
                                      sigma=0.0, s=-1.0)
        assert rep.passed

    def test_refuses_nonnegative_s(self):
        with pytest.raises(ValueError):
            scaling_vanishing_curve(self._datum(), sigma=0.0, s=0.0)

    def test_refuses_negative_sigma(self):
        with pytest.raises(ValueError):
            scaling_vanishing_curve(self._datum(), sigma=-0.5, s=-1.0)


class TestIllposedE:
    def test_growth_matches_weight_over_square_law(self):
        rep = illposed_probe_E(s=-0.5, m=2, k_list=(16, 32, 64), t=1.0)
        r = rep.measured["ratios"]
        # first step: amplitude^2 gain 2^8 against kernel loss ~ 4
        assert 32.0 <= r[0] <= 128.0
        assert r[1] >= 4.0
        assert rep.measured["diverging"]
        assert rep.passed

    def test_unweighted_amplitudes_do_not_diverge(self):
        rep = illposed_probe_E(s=0.0, m=2, k_list=(16, 32, 64), t=1.0)
        assert not rep.measured["diverging"]

    def test_time_zero_vanishes(self):
        rep = illposed_probe_E(s=-0.5, m=2, k_list=(16, 32), t=0.0)
        assert all(row["lowband"] == 0.0 for row in rep.curve)

    def test_cubic_variant_runs(self):
        rep = illposed_probe_E(s=-0.5, m=3, k_list=(8, 16), t=1.0)
        assert rep.measured["ratios"][0] > 4.0


class TestIllposedH:
    def test_exponent_formula(self):
        assert inflation_exponent(2, 1, -2.0) == pytest.approx(0.5)
        assert inflation_exponent(3, 1, -2.0) == pytest.approx(3.0)
        assert inflation_exponent(2, 1, -1.5) == pytest.approx(0.0)

    def test_slope_matches_exponent(self):
        rep = illposed_probe_H(sigma=-2.0, m=2, N_list=(8, 16, 32, 64))
        assert abs(rep.measured["slope"] - 0.5) <= 0.15
        assert rep.passed

    def test_refuses_at_scaling_index(self):
        with pytest.raises(ValueError, match="nonpositive"):
            illposed_probe_H(sigma=-1.5, m=2)

    def test_refuses_above_scaling_index(self):
        with pytest.raises(ValueError):
            illposed_probe_H(sigma=0.0, m=2)


class TestErrorDecayFit:
    def _run(self, eps0=0.5, m=2, jmax=8, amp=1.0):
        g = make_grid(1, 4, 1 / 16)
        spec = ProblemSpec(
            grid=g, nonlinearity=Nonlinearity(NonlinearityKind.POWER, m=m),
            eps0=eps0, s=-1.0, T=1.0, nt=33, jmax=jmax, tol=0.0,
        )
        v0 = make_initial_data(
            InitialDataSpec(InitialDataKind.OCTANT_BUMP, eps0=eps0, width=0.5,
                            amplitude=amp), g)
        return picard_iterate(spec, v0)

    def test_real_run_superfactorial(self):
        trace = self._run()
        rep = error_decay_fit(trace, s_tilde=-2.0)
        assert rep.passed
        assert math.isfinite(rep.measured["C"])
        errs = [e for e in rep.measured["errors"] if e > 0]
        assert len(errs) >= 4
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_zero_data_trivial_pass(self):
        g = make_grid(1, 4, 0.25)
        spec = ProblemSpec(
            grid=g, nonlinearity=Nonlinearity(NonlinearityKind.POWER, m=2),
            eps0=1.0, T=1.0, nt=9, jmax=5, tol=0.0,
        )
        trace = picard_iterate(spec, FrequencyField(g, np.zeros(g.shape)))
        rep = error_decay_fit(trace)
        assert rep.passed
        assert rep.measured["C"] == 0.0

    def test_constant_errors_fail(self):
        g = make_grid(1, 4, 0.25)
        tg = np.linspace(0.0, 1.0, 5)
        bumpy = np.zeros((5, g.n), dtype=complex)
        bumpy[:, 8] = 1.0
        frames = [SpaceTimeField(g, tg, bumpy.copy()) for _ in range(6)]
        ref = SpaceTimeField(g, tg, np.zeros_like(bumpy))
        trace = IterationTrace(iterates=frames, support_min_l1=[2.0] * 6,
                               increment_norms=[1.0] * 6, errors=[1.0] * 6,
                               converged=False)
        rep = error_decay_fit(trace, reference=ref)
        assert not rep.passed

    def test_needs_four_iterates(self):
        trace = self._run(jmax=2)
        with pytest.raises(ValueError):
            error_decay_fit(trace)
