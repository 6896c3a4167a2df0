import csv
import json
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

    def test_divergence_exit_4(self, tmp_path):
        cfg = solve_cfg(
            grid={"xi_max": 8, "h": 1 / 8},
            initial_data={"kind": "OCTANT_BUMP", "eps0": 1.0, "width": 1.0,
                          "amplitude": 200.0},
            time={"T": 1.0, "nt": 17},
        )
        out = tmp_path / "out"
        status = run("solve", write_cfg(tmp_path, cfg), str(out))
        assert status == 4
        assert "divergence" in manifest(out)["error"]

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
        cfg = {
            "d": 1,
            "nonlinearity": {"type": "EXPONENTIAL", "M": 6},
            "epsilon0": 2.0,
            "s": -1.0,
            "lambda_shift": 2.0,
            "grid": {"xi_max": 32, "h": 0.25},
            "time": {"T": 0.25, "nt": 33},
            "iterate": {"jmax": 8, "tol": 1e-13},
            "initial_data": {"kind": "OCTANT_BUMP", "eps0": 4.0, "width": 0.5,
                             "amplitude": 0.01},
        }
        out = tmp_path / "out"
        status = run("solve", write_cfg(tmp_path, cfg), str(out))
        assert status == 0
        man = manifest(out)
        assert man["checks"]["converged"] is True
        assert man["checks"]["support_propagation"] is True
        assert man["details"]["truncation_sensitivity"] < 1e-8

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


class TestTaylorAndOracle:
    def test_taylor_band_solution(self, tmp_path):
        cfg = solve_cfg(band_K=3.0)
        out = tmp_path / "out"
        assert run("taylor", write_cfg(tmp_path, cfg), str(out)) == 0
        man = manifest(out)
        assert man["checks"]["coefficient_supports"] is True
        assert man["details"]["orders"] >= 3

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

    def test_oracle_nt_fine_floor(self, tmp_path):
        cfg = solve_cfg(oracle={"nt_fine": 33})
        assert run("oracle-compare", write_cfg(tmp_path, cfg),
                   str(tmp_path / "o")) == 2


FIELD_ROWS = "0,1.0,0.0\n1,1.0,0.0\n2,1.0,0.0\n3,1.0,0.0\n"  # a 4-cell 1D grid

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
    "oracle.quad_order": ("oracle-compare", solve_cfg(oracle={"quad_order": 32}),
                          None),
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
    "iterate.tol-inf": ("solve", solve_cfg(iterate={"jmax": 8, "tol": "inf"}), None),
    "probe.T-overflow": ("probe", {"probe": {"kind": "product_es", "n_samples": 2,
                                             "T": 1e308, "nt": 5}}, None),
    "field-header": ("norms", None, "1 0.5\n" + FIELD_ROWS),
    "field-row": ("norms", None, "1 0.5 2\n" + FIELD_ROWS + "7,1.0,0.0\n"),
}


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
    "INFLATION_PAIR-amplitude": ("solve", solve_cfg(initial_data={
        "kind": "INFLATION_PAIR", "pair_k": 1, "amplitude": 2.0}),
        "amplitude", ("pair_k", "s", "m")),
    "INFLATION_BUMP-m": ("norms", norms_cfg(initial_data={
        "kind": "INFLATION_BUMP", "scale_n": 2, "m": 3}), "m", ("scale_n", "sigma")),
}
BAD_CONFIGS.update({f"initial_data-{name}": (command, cfg, None)
                    for name, (command, cfg, _, _) in FOREIGN_DATUM_KEYS.items()})

# the other type's parameter per nonlinearity type, and the key that type takes
FOREIGN_NONLINEARITY_KEYS = {
    "POWER-M": ({"type": "POWER", "m": 2, "M": 6}, "M", "m"),
    "EXPONENTIAL-m": ({"type": "EXPONENTIAL", "M": 6, "m": 3}, "m", "M"),
}
BAD_CONFIGS.update({f"nonlinearity-{name}": ("solve", solve_cfg(nonlinearity=nl), None)
                    for name, (nl, _, _) in FOREIGN_NONLINEARITY_KEYS.items()})


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
        assert sorted(error.split("accepted: ")[1].split(", ")) == sorted(("type", own))

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

    def test_top_level_sigma_is_rejected(self, tmp_path):
        # datum parameters are set only in initial_data: a top-level sigma
        # is an unknown key
        cfg = {"d": 1, "grid": {"xi_max": 16, "h": 0.5}, "sigma": 1.0,
               "initial_data": {"kind": "INFLATION_BUMP", "scale_n": 4},
               "norms": [{"flavor": "HSIGMA"}]}
        out = tmp_path / "out"
        assert run("norms", write_cfg(tmp_path, cfg), str(out)) == 2
        assert "'sigma'" in manifest(out)["error"]
