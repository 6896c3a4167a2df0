"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  Run with `pytest -v -s
tests/test_acceptance.py` to see them.
"""
import json
import math
import time

import numpy as np
import pytest

from octantheat import (
    InitialDataKind,
    InitialDataSpec,
    Nonlinearity,
    NonlinearityKind,
    OracleConfig,
    ProblemSpec,
    assemble_band_solution,
    choose_lambda,
    error_decay_fit,
    etd_reference_solve,
    exp_halfline_band,
    illposed_probe_E,
    illposed_probe_H,
    inequality_probe,
    make_grid,
    make_initial_data,
    picard_iterate,
    rescale_solution,
    scale_data,
    scaled_grid,
    scaling_vanishing_curve,
    support_stats,
    taylor_coefficients,
)
from octantheat.cli import run as cli_run


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    mark = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{name}]: {mark}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}): {detail}"


def datum(kind, grid, **kw):
    return make_initial_data(InitialDataSpec(kind, **kw), grid)


def power_spec(grid, m, eps0, nt, T=1.0, jmax=8, tol=0.0, delta=1.0):
    return ProblemSpec(
        grid=grid, nonlinearity=Nonlinearity(NonlinearityKind.POWER, m=m),
        eps0=eps0, s=-1.0, T=T, nt=nt, jmax=jmax, tol=tol, delta=delta,
    )


@pytest.fixture(scope="module")
def support_runs():
    """Criterion-2 run matrix, shared by criteria 2, 3 and 5."""
    runs = []
    for m in (2, 3):
        base = [("EXP_HALFLINE", dict(kind=InitialDataKind.EXP_HALFLINE), 1.0)]
        for eps0 in (0.5, 1.0, 2.0):
            base.append((
                f"OCTANT_BUMP(eps0={eps0})",
                dict(kind=InitialDataKind.OCTANT_BUMP, eps0=eps0, width=0.5),
                eps0,
            ))
        for label, spec_kw, eps0 in base:
            grid = make_grid(1, 4, 1 / 32)
            v0 = make_initial_data(InitialDataSpec(**spec_kw), grid)
            spec = power_spec(grid, m=m, eps0=eps0, nt=65, jmax=8)
            trace = picard_iterate(spec, v0)
            runs.append((f"m={m} {label}", m, eps0, trace))
    return runs


class TestCriterion1:
    def test_golden_band_solution(self):
        t0 = time.perf_counter()
        errs = {}
        for refine in (False, True):
            h = 1 / 128 if refine else 1 / 64
            nt = 513 if refine else 257
            grid = make_grid(1, 4, h)
            v0 = datum(InitialDataKind.EXP_HALFLINE, grid)
            spec = power_spec(grid, m=2, eps0=1.0, nt=nt, jmax=8, tol=1e-12)
            stack = taylor_coefficients(spec, v0, K=3.0)
            sol = assemble_band_solution(stack, 1.0, 3.0)
            band = (grid.axis >= 1.0) & (grid.axis < 3.0)
            ref = exp_halfline_band(1.0, grid.axis[band], delta=1.0, quad_order=32)
            num = np.linalg.norm(sol.values[-1][band] - ref)
            den = np.linalg.norm(ref)
            errs[refine] = float(num / den)
        elapsed = time.perf_counter() - t0
        ok = errs[False] <= 1e-3 and errs[True] <= 2.5e-4 and elapsed <= 60.0
        report(1, "golden band solution", ok,
               f"base={errs[False]:.2e} refined={errs[True]:.2e} "
               f"runtime={elapsed:.1f}s")


class TestCriterion2:
    def test_support_propagation(self, support_runs):
        worst = []
        for label, m, eps0, trace in support_runs:
            for j, s in enumerate(trace.support_min_l1[1:], start=1):
                bound = j * (m - 1) * eps0
                if not (s >= bound):  # inf passes; grid-exact, no tolerance
                    worst.append(f"{label}: j={j} min_l1={s} < {bound}")
        report(2, "support propagation", not worst, "; ".join(worst[:3]))


class TestCriterion3:
    def test_exact_band_stability(self, support_runs):
        worst = 0.0
        for label, m, eps0, trace in support_runs:
            grid = trace.final.grid
            l1 = grid.l1()
            for j in range(1, len(trace.iterates) + 1):
                band = l1 < (m - 1) * j * eps0
                if not band.any():
                    continue
                vj = trace.iterates[j - 1].values[:, band]
                scale = np.abs(vj).max()
                if scale == 0.0:
                    continue
                for r in range(j, len(trace.iterates)):
                    diff = np.abs(trace.iterates[r].values[:, band] - vj).max()
                    worst = max(worst, diff / scale)
        report(3, "exact band stability", worst <= 1e-12, f"worst rel={worst:.2e}")


class TestCriterion4:
    def test_oracle_equivalence(self):
        grid = make_grid(1, 4, 1 / 32)
        v0 = datum(InitialDataKind.EXP_HALFLINE, grid)
        spec = power_spec(grid, m=2, eps0=1.0, nt=513, jmax=8, tol=1e-12)
        trace = picard_iterate(spec, v0)
        eng = trace.final.values[-1]
        band = grid.l1() < 4.0

        fine = etd_reference_solve(spec, v0, OracleConfig(nt_fine=2049))
        num = np.linalg.norm(fine.values[-1][band] - eng[band])
        den = np.linalg.norm(fine.values[-1][band])
        agree = float(num / den)

        def defect(nt_fine):
            out = etd_reference_solve(spec, v0, OracleConfig(nt_fine=nt_fine))
            return float(np.linalg.norm(out.values[-1][band] - eng[band]))

        # steps coarse enough that the integrator error dominates the
        # engine's own quadrature floor on both sides of the halving
        d_coarse, d_half = defect(5), defect(9)
        ratio = d_coarse / d_half
        ok = agree <= 1e-3 and ratio >= 8.0
        report(4, "oracle equivalence", ok,
               f"band rel={agree:.2e}, step-halving defect ratio={ratio:.1f}")


class TestCriterion5:
    def test_error_decay_law(self, support_runs):
        failures = []
        for label, m, eps0, trace in support_runs:
            rep = error_decay_fit(trace, s_tilde=-2.0)
            C = rep.measured["C"]
            errors = rep.measured["errors"]
            ok = rep.passed and math.isfinite(C)
            # the fitted single C bounds both halves of the law on j=2..7
            for j in range(2, min(8, len(errors) + 1)):
                e_j = errors[j - 1]
                if e_j > 0 and C > 0:
                    ok = ok and e_j <= C**j / math.factorial(j) ** 2 * (1 + 1e-9)
            ok = ok and all(r <= C * (1 + 1e-9) for r in rep.measured["ratios"])
            if not ok:
                failures.append(f"{label}: C={C:.3g}")
        report(5, "error decay law", not failures, "; ".join(failures[:3]))


class TestCriterion6:
    def test_inequality_probes(self):
        t0 = time.perf_counter()
        d = 1
        jobs = []
        for m in (2, 3):
            sigma_c = d / 2 - 2 / (m - 1)
            for sigma in (sigma_c, d / 2, d / 2 + 1):
                jobs.append(("product_es", {"s": -1.0, "sigma": sigma, "m": m}))
        jobs += [
            ("conv_weighted_l1", {"s_tilde": -1.0, "m": 2}),
            ("product_e21", {"s": -1.0, "m": 2}),
            ("sobolev_embedding", {"s": -1.0, "sigma": 1.0, "r": 0.0}),
            ("e21_chain", {"s": -1.0, "sigma_low": 0.0, "sigma_high": 1.0}),
            ("heat_semigroup", {"s": -1.0, "sigma": 0.0, "m": 2}),
            ("shifted_semigroup", {"lam": 2.0}),
        ]
        failures = []
        for kind, params in jobs:
            rep = inequality_probe(kind, params, n_samples=20, seed=2026)
            if not (rep.passed and rep.stable and math.isfinite(rep.measured["C"])):
                failures.append(f"{kind}{params}: C={rep.measured['C']:.3g} "
                                f"drift={rep.drift}")
        elapsed = time.perf_counter() - t0
        ok = not failures and elapsed <= 600.0
        report(6, "inequality probes", ok,
               f"{len(jobs)} configs in {elapsed:.0f}s" +
               ("; " + "; ".join(failures[:3]) if failures else ""))


class TestCriterion7:
    def test_illposedness_growth(self):
        rep_e = illposed_probe_E(s=-0.5, sigma=0.0, m=2, k_list=(16, 32, 64), t=1.0)
        ratios = rep_e.measured["ratios"]
        ok_e = rep_e.measured["diverging"] and all(r >= 4.0 for r in ratios)
        rep_h = illposed_probe_H(sigma=-2.0, m=2, N_list=(8, 16, 32, 64))
        slope = rep_h.measured["slope"]
        ok_h = abs(slope - 0.5) <= 0.15
        report(7, "ill-posedness growth", ok_e and ok_h,
               f"E ratios={[f'{r:.0f}' for r in ratios]}, H slope={slope:.3f}")


class TestCriterion8:
    def test_scaling_machinery(self):
        plan = choose_lambda(7.0, s=-1.0, sigma=-1.5, m=2, eps0=1.0, C_fix=2.0)
        ok_plan = plan.lam == 18 and plan.s0 == -18.0 \
            and plan.smallness_margin <= 0.01

        ok_curves = True
        grid = make_grid(1, 4, 1 / 16)
        family = [
            datum(InitialDataKind.EXP_HALFLINE, grid),
            datum(InitialDataKind.OCTANT_BUMP, grid, eps0=1.0, width=0.5),
            datum(InitialDataKind.HALFLINE_DERIVATIVE, grid, deriv_order=2),
        ]
        for f in family:
            for sigma in (0.0, 0.5):
                rep = scaling_vanishing_curve(f, sigma=sigma, s=-1.0)
                ok_curves = ok_curves and rep.passed

        # round trip: dilate, solve the small problem, undo the dilation
        lam, m = 2, 2
        a = 2.0 / (m - 1)
        base = make_grid(1, 4, 1 / 32)
        v0 = datum(InitialDataKind.OCTANT_BUMP, base, eps0=1.0, width=0.5,
                   amplitude=0.05)
        direct = picard_iterate(power_spec(base, m, 1.0, nt=65, jmax=8), v0)
        lam_grid = scaled_grid(base, lam)
        v0l = scale_data(v0, lam, a, out_grid=lam_grid)
        scaled_run = picard_iterate(
            power_spec(lam_grid, m, float(lam), nt=65, T=1.0 / lam**2, jmax=8), v0l
        )
        back = rescale_solution(scaled_run.final, lam, a, out_grid=base)
        num = np.linalg.norm(back.values - direct.final.values)
        den = np.linalg.norm(direct.final.values)
        rt_err = float(num / den)
        ok_rt = rt_err <= 1e-4 and np.allclose(back.tgrid, direct.final.tgrid)

        report(8, "scaling machinery", ok_plan and ok_curves and ok_rt,
               f"lam={plan.lam} s0={plan.s0} roundtrip rel={rt_err:.2e}")


class TestCriterion9:
    def test_exponential_nonlinearity(self):
        lam = 2
        base = make_grid(1, 50, 1 / 8)
        u0 = datum(InitialDataKind.OCTANT_BUMP, base, eps0=2.0, width=0.5,
                   amplitude=0.01)
        st = support_stats(u0)
        ok_gate = st.min_linf >= 2.0  # datum satisfies the entry gate
        lam_grid = scaled_grid(base, lam)
        u0l = scale_data(u0, lam, 0.0, out_grid=lam_grid)
        gate = support_stats(u0l).min_l1
        spec = ProblemSpec(
            grid=lam_grid,
            nonlinearity=Nonlinearity(NonlinearityKind.EXPONENTIAL),
            s=-1.0, lambda_shift=float(lam), T=0.25, nt=65, jmax=10, tol=1e-13,
        )
        trace = picard_iterate(spec, u0l)
        ok_support = all(
            s_ >= j * gate
            for j, s_ in enumerate(trace.support_min_l1[1:], start=1)
        )
        l1 = lam_grid.l1()
        ok_band = True
        for j in range(1, len(trace.iterates) + 1):
            band = l1 < j * gate
            if not band.any():
                continue
            vj = trace.iterates[j - 1].values[:, band]
            scale = np.abs(vj).max() or 1.0
            for r in range(j, len(trace.iterates)):
                diff = np.abs(trace.iterates[r].values[:, band] - vj).max()
                ok_band = ok_band and diff <= 1e-12 * scale
        ok = ok_gate and trace.converged and ok_support and ok_band
        report(9, "exponential nonlinearity", ok, f"converged={trace.converged}")


class TestCriterion10:
    def test_determinism(self, tmp_path):
        cfg = {
            "d": 1,
            "nonlinearity": {"type": "POWER", "m": 2},
            "epsilon0": 1.0,
            "s": -1.0,
            "grid": {"xi_max": 4, "h": 1 / 16},
            "time": {"T": 1.0, "nt": 33},
            "iterate": {"jmax": 6, "tol": 1e-12},
            "initial_data": {"kind": "EXP_HALFLINE"},
        }
        cfg_probe = {
            "probe": {"kind": "product_es", "n_samples": 8, "nt": 17,
                      "params": {"s": -1.0, "sigma": 0.5, "m": 2}},
        }
        ok = True
        for name, config in (("solve", cfg), ("probe", cfg_probe)):
            c = tmp_path / f"{name}.json"
            c.write_text(json.dumps(config))
            outs = []
            for tag in ("a", "b"):
                out = tmp_path / f"{name}_{tag}"
                assert cli_run(name, str(c), str(out), seed=7) == 0
                outs.append(out)
            for fname in sorted(p.name for p in outs[0].iterdir()):
                a = (outs[0] / fname).read_bytes()
                b = (outs[1] / fname).read_bytes()
                if fname == "manifest.json":
                    ja, jb = json.loads(a), json.loads(b)
                    ja.pop("timings"), jb.pop("timings")
                    ok = ok and ja == jb
                else:
                    ok = ok and a == b
        report(10, "determinism", ok)
