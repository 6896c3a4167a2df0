import collections
import functools
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
from octantheat import probes
from octantheat.engine import IterationTrace, heat_symbol
from octantheat.lattice import cube_l2_table
from octantheat.oracle import _gl
from octantheat.probes import (
    INEQUALITY_KINDS,
    _draw_samples,
    _exprel,
    _measure_shifted_semigroup,
)


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
        ("heat_semigroup", {"gammas": []}),        # empty, not the default
    ])
    def test_rejects_bad_params(self, kind, params):
        with pytest.raises(ValueError):
            inequality_probe(kind, params, n_samples=2, refine=False)

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_rejects_empty_sample_set(self, n_samples):
        with pytest.raises(ValueError):
            inequality_probe("product_es", n_samples=n_samples, refine=False)

    @pytest.mark.parametrize("kind,params,T", [
        ("product_es", {}, 1e308),  # every denominator overflows to NaN
        ("shifted_semigroup", {"lam": 10.0}, 1.0),  # l-inf floor 20 > xi_max 8
        ("highband_smoothing", {"A": 100.0}, 1.0),  # l-inf floor 100 > xi_max 8
    ])
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_rejects_measurement_without_usable_ratio(self, kind, params, T):
        # a measurement over no usable sample used to pass with C = 0
        with pytest.raises(ValueError, match="finite positive denominator"):
            inequality_probe(kind, params, n_samples=3, T=T, nt=5)

    def test_norms_computed_once_per_sample(self, monkeypatch):
        calls = collections.Counter()
        for name in ("timespace_norm", "static_norm", "free_trajectory"):
            def counted(*args, _fn=getattr(probes, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(probes, name, counted)
        # 20 samples, each measured on the base and the refined grid
        inequality_probe("product_no_lowband", {"s": -1.0, "sigma": 0.5, "m": 3})
        assert calls["timespace_norm"] == 2 * 20 * (1 + 3 + 3)  # lhs, m high, m sup
        calls.clear()
        inequality_probe("heat_semigroup")
        assert calls["static_norm"] == calls["free_trajectory"] == 2 * 20
        assert calls["timespace_norm"] == 2 * 20 * 3  # gammas (1, m, inf)

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

    @pytest.mark.parametrize("d", [1, 2])
    def test_shifted_semigroup_matches_per_node_loop(self, d):
        # reference: one cube_l2_table per time node, as before the whole
        # time stack went through one call
        grid = make_grid(d, 6, 0.5)
        tgrid = np.linspace(0.0, 1.0, 9)
        lam, c_rate = 1.0, 2.0  # a rate above 1 moves the maximum past t = 0
        samples = _draw_samples(grid, np.random.default_rng(5), 4, 1,
                                INEQUALITY_KINDS["shifted_semigroup"][3]({"lam": lam}))
        w = heat_symbol(grid, lam)
        kk = grid.lattice_coords()
        k2 = sum(k * k for k in kk)
        best = 0.0
        for smp in samples:
            u0 = smp.cells[0]
            base = cube_l2_table(u0, grid)
            ok = (functools.reduce(np.maximum, kk) >= 2 * lam) & (base > 0)
            for t in tgrid:
                evolved = cube_l2_table(np.exp(-t * w) * u0, grid)
                ratio = np.zeros_like(base)
                ratio[ok] = evolved[ok] * np.exp(c_rate * t * k2[ok]) / base[ok]
                best = max(best, float(ratio.max()))
        got = _measure_shifted_semigroup(grid, tgrid, samples, 1,
                                         {"lam": lam, "c_rate": c_rate})
        assert best > 1.0
        assert got["C"] == pytest.approx(best, rel=1e-13, abs=0)

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


    @pytest.mark.parametrize("kind,params", [
        ("product_e21", {"s": math.nan}),
        ("product_es", {"sigma": math.inf}),
        ("shifted_semigroup", {"lam": -math.inf}),
        ("conv_weighted_l1", {"s_tilde": "-inf"}),
        ("product_es", {"m": math.inf}),
        ("heat_semigroup", {"gammas": [1.0, math.nan]}),
    ])
    def test_rejects_nonfinite_params(self, kind, params):
        with pytest.raises(ValueError):
            inequality_probe(kind, params, n_samples=2, nt=5, refine=False)

    def test_gamma_inf_is_accepted(self):
        rep = inequality_probe("heat_semigroup", {"gammas": [2.0, math.inf]},
                               n_samples=2, nt=5, refine=False)
        assert list(rep.measured["per_gamma"]) == ["2.0", "inf"]
        assert math.isfinite(rep.measured["C"])


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


def lowband_per_offset(s, sigma, m, k_list, t, h=1.0 / 16):
    """Reference: illposed_probe_E's curve by the per-offset loops that its
    m-general broadcast replaced."""
    values = []
    for k in k_list:
        grid = make_grid(1, (m - 1) * k + 1, h)
        pair = make_initial_data(
            InitialDataSpec(InitialDataKind.INFLATION_PAIR, s=s, m=m, pair_k=k), grid)
        pos = pair.pos.values.real
        neg = pair.neg.values.real
        n_half = int(round(0.5 / h))
        xi = np.arange(-n_half, n_half + 1) * h
        jp = np.nonzero(pos)[0]
        jn = np.nonzero(neg)[0]
        eta_p = jp * h
        eta_n = jn * h
        I = np.zeros(xi.size)
        for oi, x in enumerate(xi):
            if m == 2:
                match = eta_p - x
                idx = np.round(match / h).astype(int)
                ok = (idx >= 0) & (idx < neg.size)
                amp = np.where(ok, neg[np.clip(idx, 0, neg.size - 1)], 0.0)
                kern = t * _exprel(t * (x**2 - (eta_p**2 + match**2)))
                I[oi] = 2.0 * np.exp(-t * x**2) * h * np.sum(pos[jp] * amp * kern)
            else:
                e1 = eta_n[:, None]
                e2 = eta_n[None, :]
                etap = x + e1 + e2
                idx = np.round(etap / h).astype(int)
                ok = (idx >= 0) & (idx < pos.size)
                amp_p = np.where(ok, pos[np.clip(idx, 0, pos.size - 1)], 0.0)
                kern = t * _exprel(t * (x**2 - (etap**2 + e1**2 + e2**2)))
                amp_n = neg[jn][:, None] * neg[jn][None, :]
                I[oi] = 3.0 * np.exp(-t * x**2) * h**2 * np.sum(amp_p * amp_n * kern)
        w = 2.0 ** (s * np.abs(xi)) * (1.0 + xi**2) ** (sigma / 2.0)
        values.append(float(np.sqrt(h * np.sum((w * I) ** 2))))
    return values


def h_norms_per_node(sigma, m, N_list, c_t=1.0, quad_order=64):
    """Reference: illposed_probe_H's curve with the per-node integrand loop
    that its broadcast over all quadrature nodes replaced."""
    vals = []
    for N in N_list:
        tN = c_t / N**2
        amp = float(N) ** (-sigma - 0.5)
        lo, hi = N / 2.0, float(N)

        def F(xi):
            out = np.zeros_like(xi)
            for i, x in enumerate(xi):
                if m == 2:
                    a = max(lo, x - hi)
                    b = min(hi, x - lo)
                    if b <= a:
                        continue
                    nodes, wts = _gl(quad_order, a, b)
                    Q = nodes**2 + (x - nodes) ** 2
                    kern = tN * _exprel(tN * (x**2 - Q))
                    out[i] = amp**2 * np.sum(wts * kern)
                else:
                    n1, w1 = _gl(max(32, quad_order // 2), lo, hi)
                    e1 = n1[:, None]
                    e2 = n1[None, :]
                    rest = x - e1 - e2
                    ok = (rest >= lo) & (rest < hi)
                    Q = e1**2 + e2**2 + rest**2
                    kern = tN * _exprel(tN * (x**2 - Q)) * ok
                    out[i] = amp**3 * np.einsum("i,j,ij->", w1, w1, kern)
            return np.exp(-tN * xi**2) * out

        total = 0.0
        kinks = np.unique(np.clip(
            np.array([m * lo, m * lo + (hi - lo), m * hi - (hi - lo), m * hi]),
            m * lo, m * hi))
        for aa, bb in zip(kinks[:-1], kinks[1:]):
            if bb - aa <= 0:
                continue
            nodes, wts = _gl(quad_order, float(aa), float(bb))
            wgt = (1.0 + nodes**2) ** (sigma / 2.0)
            total += float(np.sum(wts * (wgt * math.factorial(m) * F(nodes)) ** 2))
        vals.append(math.sqrt(total))
    return vals


class TestIllposedAgainstLoops:
    @pytest.mark.parametrize("s,m,k_list,t", [
        (-0.5, 2, (16, 32, 64), 1.0),  # acceptance criterion 7
        (0.0, 2, (16, 32, 64), 1.0),
        (-0.5, 2, (16, 32), 0.3),
        (-0.5, 3, (8, 16), 1.0),
        (-0.5, 3, (8, 16, 32), 0.7),
    ])
    def test_E_matches_per_offset_loop(self, s, m, k_list, t):
        rep = illposed_probe_E(s=s, m=m, k_list=k_list, t=t)
        got = [row["lowband"] for row in rep.curve]
        np.testing.assert_allclose(got, lowband_per_offset(s, 0.0, m, k_list, t),
                                   rtol=1e-13, atol=0)

    @pytest.mark.parametrize("sigma,m,N_list", [
        (-2.0, 2, (8, 16, 32, 64)),  # acceptance criterion 7
        (-2.0, 3, (8, 16, 32)),
        (-1.0, 3, (4, 8, 16)),
    ])
    def test_H_matches_per_node_loop(self, sigma, m, N_list):
        rep = illposed_probe_H(sigma=sigma, m=m, N_list=N_list)
        got = [row["h_norm"] for row in rep.curve]
        np.testing.assert_allclose(got, h_norms_per_node(sigma, m, N_list),
                                   rtol=1e-13, atol=0)


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
