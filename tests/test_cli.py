import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import octantheat
from octantheat.cli import _fmt, run
from octantheat.lattice import make_grid


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg, indent=1))
    return str(p)


def solve_cfg(**over):
    cfg = {
        "d": 1,
        "nonlinearity": {"type": "POWER", "m": 2},
        "epsilon0": 1.0,
        "s": -1.0,
        "delta": 1.0,
        "grid": {"xi_max": 4, "h": 1 / 16},
        "time": {"T": 1.0, "nt": 33},
        "iterate": {"jmax": 8, "tol": 1e-12},
        "initial_data": {"kind": "EXP_HALFLINE"},
    }
    cfg.update(over)
    return cfg


def big_bump_cfg(amplitude):
    return solve_cfg(
        grid={"xi_max": 8, "h": 1 / 8},
        initial_data={"kind": "OCTANT_BUMP", "eps0": 1.0, "width": 1.0,
                      "amplitude": amplitude},
        time={"T": 1.0, "nt": 17},
    )


def exp_cfg(**over):
    cfg = {
        "d": 1,
        "nonlinearity": {"type": "EXPONENTIAL"},
        "s": -1.0,
        "lambda_shift": 2.0,
        "grid": {"xi_max": 32, "h": 0.25},
        "time": {"T": 0.25, "nt": 33},
        "iterate": {"jmax": 8, "tol": 1e-13},
        # four cells from index 16 of 128: the series runs to order 127 // 16
        "initial_data": {"kind": "OCTANT_BUMP", "eps0": 4.0, "width": 1.0,
                         "amplitude": 0.01},
    }
    cfg.update(over)
    return cfg


def norms_cfg(**over):
    cfg = {
        "d": 1,
        "grid": {"xi_max": 2, "h": 0.5},
        "initial_data": {"kind": "EXP_HALFLINE"},
        "time": {"T": 0.5, "nt": 5},
        "norms": [{"flavor": "E21", "s": -1.0}],
    }
    cfg.update(over)
    return cfg


def manifest(out):
    return json.loads((Path(out) / "manifest.json").read_text())


class TestSolve:
    def test_golden_datum_solve(self, tmp_path):
        out = tmp_path / "out"
        status = run("solve", write_cfg(tmp_path, solve_cfg()), str(out))
        assert status == 0
        man = manifest(out)
        assert man["checks"]["converged"] is True
        assert man["checks"]["support_propagation"] is True
        for name in man["outputs"]:
            f = Path(out) / name
            assert f.exists() and f.stat().st_size > 0

    def test_gate_violation_exit_3(self, tmp_path):
        cfg = solve_cfg(epsilon0=2.0)
        out = tmp_path / "out"
        status = run("solve", write_cfg(tmp_path, cfg), str(out))
        assert status == 3
        assert "gate" in manifest(out)["error"]

    def test_gate_reads_the_exact_support(self, tmp_path):
        # (i(xi - 0.5))^14 is tiny at its first cell, 0.5625 < eps0 = 1: a
        # relative tolerance would read the support from 1.4375 and let it pass
        cfg = solve_cfg(grid={"xi_max": 8, "h": 1 / 16}, time={"T": 0.5, "nt": 17},
                        iterate={"tol": 1e-6},
                        initial_data={"kind": "HALFLINE_DERIVATIVE", "shift": 0.5,
                                      "amplitude": 1e-6, "deriv_order": 14})
        out = tmp_path / "out"
        assert run("solve", write_cfg(tmp_path, cfg), str(out)) == 3
        assert manifest(out)["error"].startswith("gate: ")

    def test_divergence_exit_4(self, tmp_path):
        # amplitude 1e30 overflows the iterates: exit 4 with a manifest, and
        # no RuntimeWarning before it under warnings as errors
        out = tmp_path / "out"
        status = run("solve", write_cfg(tmp_path, big_bump_cfg(1e30)), str(out))
        assert status == 4
        assert manifest(out)["error"].startswith("divergence: ")

    def test_large_amplitude_converges(self, tmp_path):
        # amplitude 200 needs no dilation: the run ends at J* = 8 iterates
        out = tmp_path / "out"
        assert run("solve", write_cfg(tmp_path, big_bump_cfg(200.0)), str(out)) == 0
        man = manifest(out)
        assert all(man["checks"].values()) and man["checks"]["converged"]
        assert len(man["details"]["increment_norms"]) == 8
        assert man["details"]["increment_norms"][-1] == 0.0

    def test_short_fixed_point_run_fits_decay(self, tmp_path):
        # d = 3, m = 3: the second iterate's increment lies past the grid, so
        # the run ends at a fixed point after 2 iterates, which the fit accepts
        cfg = solve_cfg(d=3, nonlinearity={"type": "POWER", "m": 3},
                        grid={"xi_max": 2, "h": 0.5}, time={"T": 0.5, "nt": 9},
                        iterate={"jmax": 8, "tol": 0},
                        initial_data={"kind": "OCTANT_BUMP", "eps0": 1.0,
                                      "width": 0.5})
        out = tmp_path / "out"
        assert run("solve", write_cfg(tmp_path, cfg), str(out)) == 0
        man = manifest(out)
        assert man["details"]["support_min_l1"] == [3.0, "inf"]
        assert man["checks"]["error_decay"] is True
        assert man["details"]["fitted_C"] == 0.0

    def test_negative_tol_exit_2(self, tmp_path):
        out = tmp_path / "out"
        cfg = solve_cfg(iterate={"jmax": 8, "tol": -1e-12})
        assert run("solve", write_cfg(tmp_path, cfg), str(out)) == 2
        assert "tol must be nonnegative" in manifest(out)["error"]

    def test_schema_violation_exit_2(self, tmp_path):
        cfg = solve_cfg()
        del cfg["grid"]
        out = tmp_path / "out"
        status = run("solve", write_cfg(tmp_path, cfg), str(out))
        assert status == 2
        assert "config" in manifest(out)["error"]

    def test_unknown_conv_rule_exit_2(self, tmp_path):
        out = tmp_path / "out"
        cfg = solve_cfg(conv_rule="simpson")
        assert run("solve", write_cfg(tmp_path, cfg), str(out)) == 2
        assert "conv_rule" in manifest(out)["error"]

    def test_invalid_json_exit_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert run("solve", str(p), str(tmp_path / "out")) == 2

    def test_unknown_command_exit_2(self, tmp_path):
        assert run("frobnicate", write_cfg(tmp_path, solve_cfg()),
                   str(tmp_path / "out")) == 2

    def test_exponential_solve(self, tmp_path):
        out = tmp_path / "out"
        status = run("solve", write_cfg(tmp_path, exp_cfg()), str(out))
        assert status == 0
        man = manifest(out)
        assert man["checks"]["converged"] is True
        assert man["checks"]["support_propagation"] is True

    def test_exponential_solve_past_order_170(self, tmp_path, stage_orders):
        # a datum from the first of 192 cells: the series runs to order 191,
        # past the last r whose r! is a float.  Under the Riemann rule
        # v^{*r} starts at cell r, so order 171 has cells (the trapezoid
        # rule drops each product's run-start cell: v^{*r} from 2r - 1).  At
        # amplitude 1 every order from 165 up underflows to zero
        cfg = exp_cfg(lambda_shift=1 / 64, grid={"xi_max": 6, "h": 1 / 32},
                      time={"T": 0.25, "nt": 5}, conv_rule="riemann",
                      initial_data={"kind": "HALFLINE_DERIVATIVE", "shift": 0.0,
                                    "amplitude": 4.0})
        out = tmp_path / "out"
        assert run("solve", write_cfg(tmp_path, cfg), str(out)) == 0
        man = manifest(out)
        assert man["checks"]["converged"] is True
        assert man["details"]["support_min_l1"][0] == 1 / 32
        assert max(r for r, nonzero in stage_orders if nonzero) >= 171

    @pytest.mark.parametrize("deriv_order,iterate", [(10, {}), (14, {"tol": 1e-6})])
    def test_exponential_support_steps_by_the_exact_offset(self, tmp_path, deriv_order,
                                                           iterate):
        # the datum (i(xi - 0.5))^k on xi >= 0.5 is tiny at its first cell, so
        # a relative tolerance reads its offset as 0.875, not the 0.5625 by
        # which the engine bands the iterates.  Order 14's increments level
        # off near 1e-9, round-off of values near 1e6, above the default tol
        cfg = exp_cfg(lambda_shift=0.25, grid={"xi_max": 8, "h": 1 / 16},
                      time={"T": 0.5, "nt": 17},
                      initial_data={"kind": "HALFLINE_DERIVATIVE", "shift": 0.5,
                                    "amplitude": 1e-6, "deriv_order": deriv_order})
        cfg["iterate"] = iterate
        out = tmp_path / "out"
        assert run("solve", write_cfg(tmp_path, cfg), str(out)) == 0
        man = manifest(out)
        assert man["checks"]["support_propagation"] is True
        # iterate 3 starts below 2 * 0.875
        assert man["details"]["support_min_l1"][:3] == [0.5625, 1.1875, 1.6875]

    def test_refine_doubles_resolution(self, tmp_path):
        out = tmp_path / "out"
        status = run("solve", write_cfg(tmp_path, solve_cfg()), str(out),
                     refine=True)
        assert status == 0
        field = next(Path(out).glob("solution_*.field"))
        header = field.read_text().splitlines()[0]
        assert header == "1 0.03125 4"


class TestDeterminism:
    def test_byte_identical_rerun(self, tmp_path):
        cfg = write_cfg(tmp_path, solve_cfg())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("solve", cfg, str(out1), seed=9) == 0
        assert run("solve", cfg, str(out2), seed=9) == 0
        names1 = sorted(p.name for p in out1.iterdir())
        names2 = sorted(p.name for p in out2.iterdir())
        assert names1 == names2
        for name in names1:
            a = (out1 / name).read_bytes()
            b = (out2 / name).read_bytes()
            if name == "manifest.json":
                ja, jb = json.loads(a), json.loads(b)
                ja.pop("timings"), jb.pop("timings")
                assert ja == jb
            else:
                assert a == b

    def test_probe_outputs_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "probe": {"kind": "product_es", "n_samples": 6, "nt": 9,
                      "params": {"s": -1.0, "sigma": 0.5, "m": 2}},
        })
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("probe", cfg, str(out1), seed=3) == 0
        assert run("probe", cfg, str(out2), seed=3) == 0
        assert (out1 / "probe_report.json").read_bytes() == \
            (out2 / "probe_report.json").read_bytes()
        assert (out1 / "probe_curve.csv").read_bytes() == \
            (out2 / "probe_curve.csv").read_bytes()


class TestNorms:
    def test_zero_field_all_zero(self, tmp_path):
        cfg = {
            "d": 1,
            "grid": {"xi_max": 4, "h": 0.25},
            "initial_data": {"kind": "OCTANT_BUMP", "eps0": 1.0, "width": 0.5,
                             "amplitude": 0.0},
            "norms": [
                {"flavor": "ES_INTEGRAL", "s": -1.0},
                {"flavor": "ES_LATTICE", "s": -1.0, "sigma": 1.0},
                {"flavor": "E21", "s": -1.0},
                {"flavor": "HSIGMA", "sigma": 2.0},
            ],
        }
        out = tmp_path / "out"
        assert run("norms", write_cfg(tmp_path, cfg), str(out)) == 0
        lines = (out / "norms.csv").read_text().splitlines()
        assert lines[0] == "flavor,s,sigma,gamma,q,value"
        assert len(lines) == 5
        for line in lines[1:]:
            assert float(line.split(",")[-1]) == 0.0

    def test_field_file_input(self, tmp_path):
        from octantheat import FrequencyField, make_grid, save_field

        g = make_grid(1, 2, 0.5)
        f = FrequencyField(g, np.full(g.shape, 2.0 + 0j))
        path = tmp_path / "f.field"
        save_field(f, path)
        cfg = {"field_file": str(path),
               "norms": [{"flavor": "HSIGMA", "sigma": 0.0}]}
        out = tmp_path / "out"
        assert run("norms", write_cfg(tmp_path, cfg), str(out)) == 0
        val = float((out / "norms.csv").read_text().splitlines()[1].split(",")[-1])
        assert val == pytest.approx(np.sqrt(np.sum(np.abs(f.values) ** 2) * 0.5))

    def test_refine_on_a_field_file(self, tmp_path):
        # a field file is read at its own resolution: --refine acts only on
        # the time nodes of the rows with gamma, and with none it exits 2
        from octantheat import FrequencyField, make_grid, save_field

        g = make_grid(1, 2, 0.5)
        path = tmp_path / "f.field"
        save_field(FrequencyField(g, np.full(g.shape, 2.0 + 0j)), path)
        static = {"field_file": str(path), "norms": [
            {"flavor": "HSIGMA", "sigma": 0.0}, {"flavor": "E21", "s": -1.0}]}
        out = tmp_path / "static"
        assert run("norms", write_cfg(tmp_path, static), str(out), refine=True) == 2
        error = manifest(out)["error"]
        assert error.startswith("config:") and "--refine" in error
        timed = {**static, "time": {"T": 0.5, "nt": 5}, "norms": [
            *static["norms"], {"flavor": "ES_LATTICE", "s": -1.0, "gamma": 2}]}
        values = []
        for refine in (False, True):
            out = tmp_path / f"timed{refine}"
            assert run("norms", write_cfg(tmp_path, timed), str(out),
                       refine=refine) == 0
            lines = (out / "norms.csv").read_text().splitlines()[1:]
            values.append([float(line.split(",")[-1]) for line in lines])
        assert values[1][:2] == values[0][:2]  # the static rows read the file alone
        assert values[1][2] != values[0][2]  # the time-space row: nt 5 -> 9

    def test_missing_norm_list_exit_2(self, tmp_path):
        cfg = {"d": 1, "grid": {"xi_max": 2, "h": 0.5},
               "initial_data": {"kind": "EXP_HALFLINE"}}
        assert run("norms", write_cfg(tmp_path, cfg), str(tmp_path / "o")) == 2


class TestProbeCommand:
    def test_inflation_h_at_scaling_index_exit_2(self, tmp_path):
        cfg = {"probe": {"kind": "illposed_H", "params": {"sigma": -1.5, "m": 2}}}
        out = tmp_path / "out"
        status = run("probe", write_cfg(tmp_path, cfg), str(out))
        assert status == 2
        assert "nonpositive" in manifest(out)["error"]

    def test_inflation_h_passes_below_index(self, tmp_path):
        cfg = {"probe": {"kind": "illposed_H",
                         "params": {"sigma": -2.0, "m": 2,
                                    "N_list": [8, 16, 32, 64]}}}
        out = tmp_path / "out"
        assert run("probe", write_cfg(tmp_path, cfg), str(out)) == 0
        man = manifest(out)
        assert man["checks"]["illposed_H"] is True

    def test_inflation_e_growth(self, tmp_path):
        cfg = {"probe": {"kind": "illposed_E",
                         "params": {"s": -0.5, "k_list": [16, 32]}}}
        out = tmp_path / "out"
        assert run("probe", cfg_path := write_cfg(tmp_path, cfg), str(out)) == 0
        man = manifest(out)
        assert man["details"]["measured"]["diverging"] is True

    def test_scaling_probe(self, tmp_path):
        cfg = {
            "d": 1,
            "grid": {"xi_max": 4, "h": 1 / 16},
            "initial_data": {"kind": "EXP_HALFLINE"},
            "probe": {"kind": "scaling_vanishing",
                      "params": {"sigma": 0.0, "s": -1.0}},
        }
        out = tmp_path / "out"
        assert run("probe", write_cfg(tmp_path, cfg), str(out)) == 0

    def test_scaling_probe_refine_halves_h(self, tmp_path):
        # the datum is sampled on the refined grid; each lam still divides 1/h
        cfg = {"d": 1, "grid": {"xi_max": 4, "h": 1 / 16},
               "initial_data": {"kind": "OCTANT_BUMP"},
               "probe": {"kind": "scaling_vanishing"}}
        path, reports = write_cfg(tmp_path, cfg), []
        for refine in (False, True):
            out = tmp_path / f"refine{refine}"
            assert run("probe", path, str(out), refine=refine) == 0
            reports.append(json.loads((out / "probe_report.json").read_text()))
        assert [r["resolution"]["h"] for r in reports] == [1 / 16, 1 / 32]
        assert reports[0]["measured"]["C"] != reports[1]["measured"]["C"]

    @pytest.mark.parametrize("probe,resolution", [
        ({"kind": "illposed_E", "params": {"s": -0.5, "k_list": [16, 32]}},
         [{"h": 1 / 16}, {"h": 1 / 32}]),
        ({"kind": "illposed_H", "params": {"sigma": -2.0, "m": 2, "N_list": [8, 16]}},
         [{"quad_order": 64}, {"quad_order": 128}]),
        # an inequality kind refines its whole base: grid spacing and time nodes
        ({"kind": "heat_semigroup", "n_samples": 3},
         [{"h": 1 / 8, "nt": 33}, {"h": 1 / 16, "nt": 65}]),
    ], ids=["illposed_E", "illposed_H", "inequality"])
    def test_refine_scales_the_probe_resolution(self, tmp_path, probe, resolution):
        path, got = write_cfg(tmp_path, {"probe": probe}), []
        for refine, want in zip((False, True), resolution):
            out = tmp_path / f"refine{refine}"
            assert run("probe", path, str(out), refine=refine) == 0
            report = json.loads((out / "probe_report.json").read_text())
            got.append({key: report["resolution"][key] for key in want})
        assert got == resolution


class TestTaylorAndOracle:
    def test_taylor_band_solution(self, tmp_path):
        cfg = solve_cfg(band_K=3.0)
        out = tmp_path / "out"
        assert run("taylor", write_cfg(tmp_path, cfg), str(out)) == 0
        man = manifest(out)
        assert man["checks"]["coefficient_supports"] is True
        assert man["details"]["orders"] >= 3

    @pytest.mark.parametrize("datum, factored", [
        ({"kind": "EXP_HALFLINE", "amplitude": "(0.9+0.3j)"}, True),
        # (i(xi - 1))^3 is imaginary, and A = 0 zeroes every cell: both run as given
        ({"kind": "HALFLINE_DERIVATIVE", "amplitude": "(0.9+0.3j)", "deriv_order": 3},
         False),
        ({"kind": "EXP_HALFLINE", "amplitude": 0}, False),
    ])
    def test_taylor_factors_the_amplitude_out_of_a_real_datum(self, tmp_path, monkeypatch,
                                                               datum, factored):
        # taylor runs the unit datum and assembles at delta A when that datum is
        # real: its band agrees with solve's, which runs A r as given
        seen, assemble = [], octantheat.cli.assemble_band_solution
        monkeypatch.setattr(octantheat.cli, "assemble_band_solution",
                            lambda stack, delta, K: seen.append((stack, delta))
                            or assemble(stack, delta, K))
        cfg = write_cfg(tmp_path, solve_cfg(band_K=3.0, initial_data=datum))
        out = {cmd: tmp_path / cmd for cmd in ("solve", "taylor")}
        assert all(run(cmd, cfg, str(path)) == 0 for cmd, path in out.items())
        (stack, delta), = seen
        assert delta == (complex(datum["amplitude"]) if factored else 1.0)
        if factored:  # the unit datum's orders are real
            assert all(c.values.dtype == np.float64 for c in stack.coeffs)
        last = "t00032.field"
        picard = octantheat.load_field(out["solve"] / f"solution_{last}")
        band_sol = octantheat.load_field(out["taylor"] / f"band_solution_{last}")
        band = picard.grid.l1() < 3.0 - 1e-12
        a, b = band_sol.values[band], picard.values[band]
        assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max()
        assert np.abs(b).max() > 0 or datum["amplitude"] == 0

    def test_taylor_coefficients_read_the_exact_support(self, tmp_path):
        # (i(xi - 0.5))^14 is tiny at its first cell: order 1 starts at 0.5625,
        # where a tolerance relative to the frame's max read 0.75
        cfg = solve_cfg(grid={"xi_max": 8, "h": 1 / 16}, time={"T": 0.5, "nt": 17},
                        epsilon0=0.5, band_K=4.0,
                        initial_data={"kind": "HALFLINE_DERIVATIVE", "shift": 0.5,
                                      "amplitude": 1e-6, "deriv_order": 14})
        out = tmp_path / "out"
        assert run("taylor", write_cfg(tmp_path, cfg), str(out)) == 0
        rows = (out / "coefficients.csv").read_text().splitlines()
        assert rows[:2] == ["order,support_min_l1", "1,0.5625"]

    def test_taylor_past_order_170_exit_2(self, tmp_path):
        # a datum from cell 1 of 1/32 and K = 6 needs 192 orders, past the
        # k! that a float holds: a config error with a manifest, not a crash
        cfg = solve_cfg(grid={"xi_max": 8, "h": 1 / 32}, time={"T": 0.25, "nt": 5},
                        epsilon0=1 / 32, band_K=6,
                        initial_data={"kind": "HALFLINE_DERIVATIVE", "shift": 1 / 32,
                                      "deriv_order": 0})
        out = tmp_path / "out"
        assert run("taylor", write_cfg(tmp_path, cfg), str(out)) == 2
        man = manifest(out)
        assert man["exit_status"] == 2
        assert man["error"].startswith("config:") and "192 orders" in man["error"]

    def test_oracle_compare(self, tmp_path):
        cfg = solve_cfg(
            grid={"xi_max": 4, "h": 1 / 32},
            time={"T": 1.0, "nt": 65},
            oracle={"nt_fine": 257, "compare_band": 3.0, "tol": 1e-3},
        )
        out = tmp_path / "out"
        assert run("oracle-compare", write_cfg(tmp_path, cfg), str(out)) == 0
        man = manifest(out)
        assert man["checks"]["band_agreement"] is True
        assert man["details"]["band_rel_err"] < 1e-3
        header = (out / "oracle_compare.csv").read_text().splitlines()[0]
        assert header == "xi0,t,engine,oracle,rel_err"

    def test_oracle_compare_2d(self, tmp_path):
        # compare_band is an l1 band in d >= 2: |xi|_1 < 6 on the 32^2 grid
        cfg = solve_cfg(
            d=2, grid={"xi_max": 4, "h": 1 / 8}, time={"T": 0.5, "nt": 33},
            initial_data={"kind": "OCTANT_BUMP", "eps0": 1.0, "width": 0.5},
            oracle={"compare_band": 6},
        )
        out = tmp_path / "out"
        assert run("oracle-compare", write_cfg(tmp_path, cfg), str(out)) == 0
        assert manifest(out)["checks"]["band_agreement"] is True
        with open(out / "oracle_compare.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        l1 = [float(row["xi0"]) + float(row["xi1"]) for row in rows]
        # every cell i + j < 48 of the 32^2 grid, and no other
        assert len(rows) == 32 * 32 - 15 * 16 // 2 and max(l1) == 5.875

    def test_oracle_compare_3d(self, tmp_path):
        # the bump on [1, 1.5)^3 starts at |xi|_1 = 3 and its square at 6: a
        # band of 7.5 takes in the second order, not only the free evolution.
        # The second order is about 1e-4 of the band's norm, so the default
        # tol of 1e-3 would pass without it
        cfg = solve_cfg(
            d=3, grid={"xi_max": 4, "h": 1 / 4}, time={"T": 0.5, "nt": 17},
            initial_data={"kind": "OCTANT_BUMP", "eps0": 1.0, "width": 0.5},
            oracle={"compare_band": 7.5, "tol": 1e-5},
        )
        out = tmp_path / "out"
        assert run("oracle-compare", write_cfg(tmp_path, cfg), str(out)) == 0
        assert manifest(out)["checks"]["band_agreement"] is True
        with open(out / "oracle_compare.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        xi = np.array([[float(row[f"xi{a}"]) for a in range(3)] for row in rows])
        g = make_grid(3, 4, 1 / 4)
        band = np.argwhere(g.l1() < 7.5) * g.h
        assert len(rows) == len(band) and set(map(tuple, xi)) == set(map(tuple, band))
        # on the cells the second order reaches, the two solves agree to 1 %
        second = xi.sum(axis=1) >= 6
        engine, oracle = (np.array([complex(row[col]) for row in rows])[second]
                          for col in ("engine", "oracle"))
        assert np.linalg.norm(engine - oracle) <= 1e-2 * np.linalg.norm(oracle)

    def test_oracle_compare_on_the_band_box(self, tmp_path):
        # compare_band 2.5 < xi_max 4: the reference runs on [0, 3)^2 only,
        # and its band values are the whole-grid reference's bits
        cfg = solve_cfg(
            d=2, grid={"xi_max": 4, "h": 1 / 4}, time={"T": 0.5, "nt": 17},
            initial_data={"kind": "OCTANT_BUMP", "eps0": 0.5, "width": 1.0},
            epsilon0=0.5, oracle={"compare_band": 2.5})
        out = tmp_path / "out"
        assert run("oracle-compare", write_cfg(tmp_path, cfg), str(out)) == 0
        assert manifest(out)["checks"]["band_agreement"] is True
        with open(out / "oracle_compare.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        g = make_grid(2, 4, 1 / 4)
        v0 = octantheat.make_initial_data(octantheat.InitialDataSpec(
            octantheat.InitialDataKind.OCTANT_BUMP, eps0=0.5, width=1.0), g)
        spec = octantheat.ProblemSpec(
            grid=g, nonlinearity=octantheat.Nonlinearity(octantheat.NonlinearityKind.POWER),
            eps0=0.5, T=0.5, nt=17)
        whole = octantheat.etd_reference_solve(
            spec, v0, octantheat.OracleConfig(nt_fine=65)).values[-1]
        cells = np.argwhere(g.l1() < 2.5)
        assert [(float(r["xi0"]), float(r["xi1"])) for r in rows] == \
            [tuple(c) for c in (cells * g.h).tolist()]
        got = np.array([complex(r["oracle"]) for r in rows])
        assert got.tobytes() == whole[tuple(cells.T)].tobytes()
        # the square of the bump on [0.5, 1.5)^2 reaches the band's cells with
        # both coordinates at least 1: not the free evolution only
        free = octantheat.free_trajectory(v0, spec.tgrid).values[-1][tuple(cells.T)]
        square = (cells * g.h >= 1.0).all(axis=1)
        assert square.any() and np.all(got[square] != free[square])

    def test_solve_and_taylor_without_scipy(self, tmp_path):
        # the package runs on numpy alone: with scipy unimportable, a 2D solve
        # and a 1D Taylor run still exit 0
        solve = write_cfg(tmp_path, solve_cfg(
            d=2, grid={"xi_max": 4, "h": 1 / 8}, time={"T": 0.5, "nt": 17},
            initial_data={"kind": "OCTANT_BUMP", "eps0": 1.0, "width": 0.5}),
            "solve.json")
        taylor = write_cfg(tmp_path, solve_cfg(band_K=3.0), "taylor.json")
        code = ("import sys; sys.modules['scipy'] = None; "
                "from octantheat.cli import main; "
                f"sys.exit(main(['solve', '--config', {solve!r}, "
                f"'--out', {str(tmp_path / 's')!r}]) "
                f"or main(['taylor', '--config', {taylor!r}, "
                f"'--out', {str(tmp_path / 't')!r}]))")
        env = dict(os.environ)
        path = [str(Path(octantheat.__file__).parents[1]), env.get("PYTHONPATH")]
        env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert manifest(tmp_path / "s")["exit_status"] == 0
        assert manifest(tmp_path / "t")["exit_status"] == 0

    def test_oracle_compare_engine_cells_parse_back(self, tmp_path):
        cfg = solve_cfg(
            grid={"xi_max": 4, "h": 1 / 32},
            time={"T": 1.0, "nt": 65},
            oracle={"nt_fine": 257, "compare_band": 3.0, "tol": 1e-3},
        )
        out = tmp_path / "out"
        assert run("oracle-compare", write_cfg(tmp_path, cfg), str(out)) == 0
        with open(out / "oracle_compare.csv", newline="") as fh:
            cells = [row["engine"] for row in csv.DictReader(fh)]
        values = [complex(c) for c in cells]
        assert any(np.signbit(z.imag) for z in values)  # the case that failed
        # repr is the shortest string that reads back, so equal text is equal bits
        assert [_fmt(z) for z in values] == cells

    @pytest.mark.parametrize("z", [complex(0.1356663897392495, -2.7795092252521833e-18),
                                   complex(1.0, -0.0), complex(-0.0, 0.0),
                                   complex(-0.0, -0.0), complex(2.5, -5e-324),
                                   complex(-1e300, -1e300), complex(3.0, 1e-310)])
    def test_complex_cell_round_trip(self, z):
        cell = _fmt(z)
        back = complex(cell)
        assert np.array([back]).tobytes() == np.array([z]).tobytes()
        assert _fmt(np.complex128(z)) == cell
        if not np.signbit(z.imag):  # unchanged bytes when the sign bit is clear
            assert cell == f"{z.real!r}+{z.imag!r}j"

    def test_oracle_compare_with_shifted_semigroup(self, tmp_path):
        # the reference integrator must use the engine's shifted semigroup
        cfg = solve_cfg(lambda_shift=0.5, time={"T": 0.5, "nt": 33},
                        oracle={"tol": 1e-3})
        out = tmp_path / "out"
        assert run("oracle-compare", write_cfg(tmp_path, cfg), str(out)) == 0
        assert manifest(out)["details"]["band_rel_err"] < 1e-3

    def test_oracle_compare_rejects_the_exponential_flow(self, tmp_path):
        out = tmp_path / "out"
        cfg = exp_cfg(oracle={"tol": 1e-3})
        assert run("oracle-compare", write_cfg(tmp_path, cfg), str(out)) == 2
        assert "power nonlinearity" in manifest(out)["error"]
        assert not (out / "oracle_compare.csv").exists()

    def test_oracle_nt_fine_floor(self, tmp_path):
        cfg = solve_cfg(oracle={"nt_fine": 33})
        assert run("oracle-compare", write_cfg(tmp_path, cfg),
                   str(tmp_path / "o")) == 2

    @pytest.mark.parametrize("tol", [-1, 0])
    def test_oracle_tol_must_be_positive(self, tmp_path, tol, monkeypatch):
        # the band error is never below 0, so no run could pass such a bound:
        # the config is refused before either solver runs
        import octantheat.cli as cli_mod

        def no_solve(*args, **kwargs):
            raise AssertionError("a solver ran")

        monkeypatch.setattr(cli_mod, "picard_iterate", no_solve)
        monkeypatch.setattr(cli_mod, "etd_reference_solve", no_solve)
        out = tmp_path / "out"
        cfg = solve_cfg(oracle={"tol": tol})
        assert run("oracle-compare", write_cfg(tmp_path, cfg), str(out)) == 2
        assert manifest(out)["error"].startswith("config: oracle.tol must be positive")


FIELD_ROWS = "1.0,0.0\n" * 4  # a 4-cell 1D grid
# the same field with each row led by its cell index, as field files once were
INDEXED_ROWS = "0,1.0,0.0\n1,1.0,0.0\n2,1.0,0.0\n3,1.0,0.0\n"

# (command, config, field file text or None): every row must exit 2
BAD_CONFIGS = {
    # a misspelled key in each section
    "top-level": ("solve", solve_cfg(epsilon_0=7.0), None),
    "grid": ("solve", solve_cfg(grid={"xi_max": 4, "h": 1 / 16, "hh": 0.5}), None),
    "time": ("solve", solve_cfg(time={"T": 1.0, "nt": 33, "NT": 65}), None),
    "iterate": ("solve", solve_cfg(iterate={"jmax": 8, "tolerance": 1e-3}), None),
    "nonlinearity": ("solve", solve_cfg(nonlinearity={"type": "POWER", "mm": 3}),
                     None),
    "initial_data": ("solve", solve_cfg(initial_data={"kind": "EXP_HALFLINE",
                                                      "amplitud": 2.0}), None),
    "output": ("solve", solve_cfg(output={"frame_strid": 2}), None),
    "oracle": ("oracle-compare", solve_cfg(oracle={"toll": 1e-3}), None),
    "norms-row": ("norms", norms_cfg(norms=[{"flavor": "E21", "ss": -1.0}]), None),
    "probe": ("probe", {"probe": {"kind": "product_es", "n_sample": 2}}, None),
    "params-inequality": ("probe", {"probe": {"kind": "product_es",
                                              "params": {"sigmaa": 0.5}}}, None),
    "params-illposed_H": ("probe", {"probe": {"kind": "illposed_H",
                                              "params": {"sigma": -2.0,
                                                         "Nlist": [8, 16]}}}, None),
    "params-illposed_E": ("probe", {"probe": {"kind": "illposed_E",
                                              "params": {"s": -0.5, "klist": [16]}}},
                          None),
    # a growth law or a slope needs two distinct scales
    "params-illposed_E-one-k": ("probe", {"probe": {
        "kind": "illposed_E", "params": {"s": -0.5, "k_list": [16]}}}, None),
    "params-illposed_E-no-k": ("probe", {"probe": {
        "kind": "illposed_E", "params": {"s": -0.5, "k_list": []}}}, None),
    "params-illposed_H-one-scale": ("probe", {"probe": {
        "kind": "illposed_H", "params": {"sigma": -2.0, "N_list": [8]}}}, None),
    "params-illposed_H-repeated-scale": ("probe", {"probe": {
        "kind": "illposed_H", "params": {"sigma": -2.0, "N_list": [8, 8]}}}, None),
    # a sign-pair low band that leaves the float range (the amplitude 2^{-s k / 2}
    # itself, or its square), or a time that measures no growth
    "params-illposed_E-amplitude-overflow": ("probe", {"probe": {
        "kind": "illposed_E", "params": {"s": -100, "k_list": [16, 64]}}}, None),
    "params-illposed_E-lowband-inf": ("probe", {"probe": {
        "kind": "illposed_E", "params": {"s": -40, "k_list": [16, 48]}}}, None),
    "params-illposed_E-lowband-inf-second-k": ("probe", {"probe": {
        "kind": "illposed_E", "params": {"s": -20, "k_list": [16, 32, 64]}}}, None),
    # a low band that underflows to 0 (s > 0): no measured zero
    "params-illposed_E-lowband-zero": ("probe", {"probe": {
        "kind": "illposed_E", "params": {"s": 100, "k_list": [16, 64]}}}, None),
    "params-illposed_E-lowband-zero-second-k": ("probe", {"probe": {
        "kind": "illposed_E", "params": {"s": 20, "k_list": [16, 32, 64]}}}, None),
    "params-illposed_E-t-zero": ("probe", {"probe": {
        "kind": "illposed_E", "params": {"s": -0.5, "t": 0}}}, None),
    "params-illposed_E-t-negative": ("probe", {"probe": {
        "kind": "illposed_E", "params": {"s": -0.5, "t": -1}}}, None),
    # the sign pair is no datum kind: its probe builds it
    "initial_data-INFLATION_PAIR-solve": ("solve", solve_cfg(initial_data={
        "kind": "INFLATION_PAIR", "pair_k": 1}), None),
    "initial_data-INFLATION_PAIR-norms": ("norms", norms_cfg(initial_data={
        "kind": "INFLATION_PAIR", "pair_k": 1}), None),
    "initial_data-INFLATION_PAIR-scaling": ("probe", {**solve_cfg(initial_data={
        "kind": "INFLATION_PAIR", "pair_k": 1}), "probe": {"kind": "scaling_vanishing"}},
        None),
    "params-scaling": ("probe", {**solve_cfg(), "probe": {
        "kind": "scaling_vanishing", "params": {"lamlist": [1, 2]}}}, None),
    # values the specs or the engine reject
    "grid.h": ("solve", solve_cfg(grid={"xi_max": 4, "h": 0.3}), None),
    "d": ("solve", solve_cfg(d=4), None),
    "nonlinearity.m": ("solve", solve_cfg(nonlinearity={"type": "POWER", "m": 1}),
                       None),
    "time.nt": ("solve", solve_cfg(time={"T": 1.0, "nt": "abc"}), None),
    "band_K": ("taylor", solve_cfg(band_K=100), None),
    "frame_stride": ("solve", solve_cfg(output={"frame_stride": 0}), None),
    "norms-q": ("norms", norms_cfg(norms=[{"flavor": "ES_LATTICE", "gamma": 2,
                                           "q": 3}]), None),
    "norms-gamma": ("norms", norms_cfg(norms=[{"flavor": "ES_LATTICE",
                                               "gamma": 0.5}]), None),
    # a key or flavor that would not change the row's value
    "norms-E21-sigma": ("norms", norms_cfg(norms=[{"flavor": "E21", "s": -1.0,
                                                   "sigma": 5}]), None),
    "norms-HSIGMA-s": ("norms", norms_cfg(norms=[{"flavor": "HSIGMA", "s": -3}]), None),
    "norms-timed-HSIGMA": ("norms", norms_cfg(norms=[{"flavor": "HSIGMA", "gamma": 2}]),
                           None),
    "norms-timed-ES_INTEGRAL": ("norms", norms_cfg(norms=[{
        "flavor": "ES_INTEGRAL", "s": -1.0, "gamma": "inf", "q": 1}]), None),
    "oracle.quad_order": ("oracle-compare", solve_cfg(oracle={"quad_order": 32}),
                          None),
    # an empty band compares nothing
    "oracle.compare_band-0": ("oracle-compare", solve_cfg(oracle={"compare_band": 0}),
                              None),
    "oracle.compare_band-negative": ("oracle-compare",
                                     solve_cfg(oracle={"compare_band": -1}), None),
    # the half-line datum starts at xi = 1: the band xi < 1 holds only zeros
    "oracle.compare_band-no-cell": ("oracle-compare",
                                    solve_cfg(oracle={"compare_band": 1.0}), None),
    "params-nan": ("probe", {"probe": {"kind": "illposed_H",
                                       "params": {"sigma": -2.0, "c_t": float("nan")}}},
                   None),
    "params-inf": ("probe", {"probe": {"kind": "illposed_H",
                                       "params": {"sigma": -2.0, "c_t": "-inf"}}}, None),
    "params-inequality-nan": ("probe", {"probe": {"kind": "product_e21",
                                                  "params": {"s": float("nan")}}},
                              None),
    "params-inequality-inf": ("probe", {"probe": {"kind": "product_es",
                                                  "params": {"sigma": "inf"}}}, None),
    "probe.n_samples": ("probe", {"probe": {"kind": "product_es", "n_samples": -3}},
                        None),
    "params-gammas-empty": ("probe", {"probe": {"kind": "heat_semigroup",
                                                "params": {"gammas": []}}}, None),
    # a value that is not of the parameter's type: a fraction for an integer, a
    # bool for a number, a string for a list, pairs for an object
    "params-inequality-fraction-m": ("probe", {"probe": {
        "kind": "product_es", "params": {"m": 2.5}}}, None),
    "params-inequality-bool": ("probe", {"probe": {
        "kind": "product_es", "params": {"s": True}}}, None),
    "params-inequality-list-of-pairs": ("probe", {"probe": {
        "kind": "product_es", "params": [["m", 3]]}}, None),
    "params-gammas-string": ("probe", {"probe": {"kind": "heat_semigroup",
                                                 "params": {"gammas": "12"}}}, None),
    "params-N_list-string": ("probe", {"probe": {
        "kind": "illposed_H", "params": {"sigma": -2.0, "N_list": "48"}}}, None),
    "epsilon0-bool": ("solve", solve_cfg(epsilon0=True), None),
    # eps0 is the gate of u^m only: e^u's gate is 2 lambda_shift
    "epsilon0-EXPONENTIAL": ("solve", exp_cfg(epsilon0=2.0), None),
    # the e^u series runs to the grid's top order: there is no order to set
    "nonlinearity.M": ("solve", exp_cfg(nonlinearity={"type": "EXPONENTIAL", "M": 6}),
                       None),
    "initial_data.kind-INFLATION_BUMP": ("norms", norms_cfg(initial_data={
        "kind": "INFLATION_BUMP", "scale_n": 2}), None),
    "iterate.tol-inf": ("solve", solve_cfg(iterate={"jmax": 8, "tol": "inf"}), None),
    "probe.T-overflow": ("probe", {"probe": {"kind": "product_es", "n_samples": 2,
                                             "T": 1e308, "nt": 5}}, None),
    "field-header": ("norms", None, "1 0.5\n" + FIELD_ROWS),
    "field-row": ("norms", None, "1 0.5 2\n" + FIELD_ROWS + "1.0,0.0\n"),
}
# field files that fail, and the start of the error after "<path>: "
BAD_FIELDS = {
    "header-float-xi_max": ("1 0.5 2.5\n" + FIELD_ROWS,
                            "malformed field header", "invalid literal for int()"),
    "header-text-h": ("1 abc 2\n" + FIELD_ROWS, "malformed field header",
                      "could not convert string to float"),
    "header-misaligned-h": ("1 0.3 2\n" + FIELD_ROWS, "malformed field header",
                            "1/h must be a positive integer"),
    "index-columns-1d": ("1 0.5 2\n" + INDEXED_ROWS, "malformed field row", "line 2:"),
    "index-columns-2d": ("2 0.5 1\n" + "".join(
        f"{i},{j},1.0,0.0\n" for i in range(2) for j in range(2)),
        "malformed field row", "line 2:"),
    "index-columns-3d": ("3 0.5 1\n" + "".join(
        f"{i},{j},{k},1.0,0.0\n" for i in range(2) for j in range(2) for k in range(2)),
        "malformed field row", "line 2:"),
}
BAD_CONFIGS.update({f"field-{name}": ("norms", None, text)
                    for name, (text, _, _) in BAD_FIELDS.items()})


# one key from another kind per datum kind, and the keys that kind takes
FOREIGN_DATUM_KEYS = {
    "EXP_HALFLINE-width": ("solve", solve_cfg(initial_data={
        "kind": "EXP_HALFLINE", "width": 3.0}), "width", ("amplitude",)),
    "OCTANT_BUMP-pair_k": ("solve", solve_cfg(initial_data={
        "kind": "OCTANT_BUMP", "eps0": 1.0, "width": 0.5, "pair_k": 99}),
        "pair_k", ("eps0", "width", "amplitude")),
    "HALFLINE_DERIVATIVE-eps0": ("solve", solve_cfg(initial_data={
        "kind": "HALFLINE_DERIVATIVE", "eps0": 7.0}),
        "eps0", ("amplitude", "deriv_order", "shift")),
    "EXP_HALFLINE-scale_n": ("norms", norms_cfg(initial_data={
        "kind": "EXP_HALFLINE", "scale_n": 2}), "scale_n", ("amplitude",)),
}
BAD_CONFIGS.update({f"initial_data-{name}": (command, cfg, None)
                    for name, (command, cfg, _, _) in FOREIGN_DATUM_KEYS.items()})

# a key a nonlinearity type does not take, and the keys that type takes
FOREIGN_NONLINEARITY_KEYS = {
    "POWER-M": ({"type": "POWER", "m": 2, "M": 6}, "M", ("type", "m")),
    "EXPONENTIAL-M": ({"type": "EXPONENTIAL", "M": 6}, "M", ("type",)),
    "EXPONENTIAL-m": ({"type": "EXPONENTIAL", "m": 3}, "m", ("type",)),
}
BAD_CONFIGS.update({f"nonlinearity-{name}": ("solve", solve_cfg(nonlinearity=nl), None)
                    for name, (nl, _, _) in FOREIGN_NONLINEARITY_KEYS.items()})


# a config with one integer key set to the given value, per key
INTEGER_KEYS = {
    "time.nt": lambda v: ("solve", solve_cfg(time={"T": 1.0, "nt": v})),
    "nonlinearity.m": lambda v: ("solve", solve_cfg(nonlinearity={"type": "POWER",
                                                                  "m": v})),
    "iterate.jmax": lambda v: ("solve", solve_cfg(iterate={"jmax": v, "tol": 1e-12})),
    "grid.xi_max": lambda v: ("solve", solve_cfg(grid={"xi_max": v, "h": 1 / 16})),
    "output.frame_stride": lambda v: ("solve", solve_cfg(output={"frame_stride": v})),
    "probe.params.N_list": lambda v: ("probe", {"probe": {
        "kind": "illposed_H", "params": {"sigma": -2.0, "N_list": [8, v]}}}),
}


class TestStrictConfig:
    @pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
    def test_bad_config_exit_2(self, tmp_path, name):
        command, cfg, field_text = BAD_CONFIGS[name]
        if field_text is not None:
            path = tmp_path / "f.field"
            path.write_text(field_text)
            cfg = {"field_file": str(path), "norms": [{"flavor": "E21", "s": -1.0}]}
        out = tmp_path / "out"
        assert run(command, write_cfg(tmp_path, cfg), str(out)) == 2
        man = manifest(out)
        assert man["exit_status"] == 2
        assert man["error"].startswith("config:")

    @pytest.mark.parametrize("name", sorted(BAD_FIELDS))
    def test_bad_field_file_named(self, tmp_path, name):
        text, what, why = BAD_FIELDS[name]
        path = tmp_path / "f.field"
        path.write_text(text)
        cfg = {"field_file": str(path), "norms": [{"flavor": "E21", "s": -1.0}]}
        out = tmp_path / "out"
        assert run("norms", write_cfg(tmp_path, cfg), str(out)) == 2
        assert manifest(out)["error"].startswith(f"config: {what} in {path}: {why}")

    @pytest.mark.parametrize("name", sorted(FOREIGN_DATUM_KEYS))
    def test_foreign_datum_key_named_with_accepted_keys(self, tmp_path, name):
        command, cfg, key, takes = FOREIGN_DATUM_KEYS[name]
        out = tmp_path / "out"
        assert run(command, write_cfg(tmp_path, cfg), str(out)) == 2
        error = manifest(out)["error"]
        assert error.startswith("config:") and f"'{key}'" in error
        assert cfg["initial_data"]["kind"] in error
        accepted = error.split("accepted: ")[1].split(", ")
        assert sorted(accepted) == sorted(("kind", *takes))

    @pytest.mark.parametrize("name", sorted(FOREIGN_NONLINEARITY_KEYS))
    def test_foreign_nonlinearity_key_named(self, tmp_path, name):
        nl, key, own = FOREIGN_NONLINEARITY_KEYS[name]
        out = tmp_path / "out"
        cfg = solve_cfg(nonlinearity=nl)
        assert run("solve", write_cfg(tmp_path, cfg), str(out)) == 2
        error = manifest(out)["error"]
        assert error.startswith("config:") and f"'{key}'" in error
        assert nl["type"] in error
        assert sorted(error.split("accepted: ")[1].split(", ")) == sorted(own)

    @pytest.mark.parametrize("extra", [
        {"width": 3.0}, {"deriv_order": 5, "pair_k": 99}, {"eps0": 7.0},
        {"scale_n": -3}, {"m": 1}, {"s": -2.0}, {"sigma": 1.0}], ids="-".join)
    def test_golden_datum_takes_only_amplitude(self, tmp_path, extra):
        cfg = solve_cfg(initial_data={"kind": "EXP_HALFLINE", **extra})
        out = tmp_path / "out"
        assert run("solve", write_cfg(tmp_path, cfg), str(out)) == 2
        error = manifest(out)["error"]
        assert error.startswith("config:")
        assert all(f"'{key}'" in error for key in extra)

    @pytest.mark.parametrize("value", [6.5, True, math.inf, math.nan], ids=repr)
    @pytest.mark.parametrize("key", sorted(INTEGER_KEYS))
    def test_integer_key_takes_no_fraction_bool_or_infinity(self, tmp_path, key, value):
        command, cfg = INTEGER_KEYS[key](value)
        out = tmp_path / "out"
        assert run(command, write_cfg(tmp_path, cfg), str(out)) == 2
        error = manifest(out)["error"]
        assert error.startswith(f"config: {key}:") and "not an integer" in error

    def test_integral_float_is_an_integer(self, tmp_path):
        def cfg(n):  # the integer keys as n(value)
            return solve_cfg(grid={"xi_max": n(4), "h": 1 / 16},
                             time={"T": 1.0, "nt": n(33)},
                             nonlinearity={"type": "POWER", "m": n(2)},
                             iterate={"jmax": n(8), "tol": 1e-12},
                             output={"frame_stride": n(16)})

        for n in (int, float):
            out = tmp_path / n.__name__
            assert run("solve", write_cfg(tmp_path, cfg(n)), str(out)) == 0
        for name in manifest(tmp_path / "int")["outputs"]:
            assert (tmp_path / "int" / name).read_bytes() == \
                (tmp_path / "float" / name).read_bytes()

    def test_unknown_key_named_in_error(self, tmp_path):
        out = tmp_path / "out"
        cfg = solve_cfg(iterate={"jmax": 8, "tolerance": 1e-3})
        assert run("solve", write_cfg(tmp_path, cfg), str(out)) == 2
        assert "'tolerance'" in manifest(out)["error"]
        assert "iterate" in manifest(out)["error"]

    def test_one_config_serves_solve_and_taylor(self, tmp_path):
        cfg = write_cfg(tmp_path, solve_cfg(band_K=2.0, output={"frame_stride": 16}))
        assert run("solve", cfg, str(tmp_path / "s")) == 0
        assert run("taylor", cfg, str(tmp_path / "t")) == 0
        assert len(list((tmp_path / "s").glob("solution_*.field"))) == 3

    def test_gamma_inf_is_accepted(self, tmp_path):
        # gamma = inf (the supremum in time) is the one non-finite value accepted
        cfg = norms_cfg(norms=[{"flavor": "ES_LATTICE", "gamma": "inf", "q": 1}])
        out = tmp_path / "out"
        assert run("norms", write_cfg(tmp_path, cfg), str(out)) == 0
        row = (out / "norms.csv").read_text().splitlines()[1].split(",")
        assert row[3] == "inf" and np.isfinite(float(row[5]))

    def test_probe_gamma_inf_is_accepted(self, tmp_path):
        # the gammas of an inequality probe take inf item by item
        cfg = {"probe": {"kind": "heat_semigroup", "params": {"gammas": [2, "inf"]},
                         "n_samples": 2, "nt": 5}}
        out = tmp_path / "out"
        assert run("probe", write_cfg(tmp_path, cfg), str(out)) == 0
        report = json.loads((out / "probe_report.json").read_text())
        assert report["params"]["gammas"] == [2.0, "inf"]
        assert list(report["measured"]["per_gamma"]) == ["2.0", "inf"]

    def test_unread_norm_key_names_the_row(self, tmp_path):
        cfg = norms_cfg(norms=[{"flavor": "E21", "s": -1.0},
                               {"flavor": "HSIGMA", "s": -1.0, "sigma": 1.0}])
        out = tmp_path / "out"
        assert run("norms", write_cfg(tmp_path, cfg), str(out)) == 2
        assert manifest(out)["error"] == \
            "config: norms[1]: s is not a parameter of the HSIGMA norm"

    def test_top_level_sigma_is_rejected(self, tmp_path):
        # datum parameters are set only in initial_data: a top-level sigma
        # is an unknown key
        cfg = {"d": 1, "grid": {"xi_max": 16, "h": 0.5}, "sigma": 1.0,
               "initial_data": {"kind": "EXP_HALFLINE"},
               "norms": [{"flavor": "HSIGMA"}]}
        out = tmp_path / "out"
        assert run("norms", write_cfg(tmp_path, cfg), str(out)) == 2
        assert "'sigma'" in manifest(out)["error"]
