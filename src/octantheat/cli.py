"""Batch front-end: configure runs from JSON, execute solve / taylor /
norms / probe / oracle-compare pipelines, and emit plot-ready CSV plus a
run manifest.

Exit codes: 0 all requested checks passed, 2 configuration or schema
violation, 3 support-gate violation, 4 numerical divergence.  Re-running
with the same configuration and seed is byte-identical in all numerical
outputs (manifest timings excluded).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .data import InitialDataKind, InitialDataSpec, make_initial_data
from .engine import (
    DivergenceError,
    GateError,
    Nonlinearity,
    NonlinearityKind,
    ProblemSpec,
    assemble_band_solution,
    exp_picard_iterate,
    free_trajectory,
    picard_iterate,
    taylor_coefficients,
)
from .lattice import FrequencyField, load_field, make_grid, save_field, support_stats
from .norms import NormFlavor, NormSpec, SpaceTimeField, TimeSpaceNormSpec, \
    static_norm, timespace_norm
from .oracle import OracleConfig, etd_reference_solve
from .probes import (
    INEQUALITY_KINDS,
    error_decay_fit,
    illposed_probe_E,
    illposed_probe_H,
    inequality_probe,
    scaling_vanishing_curve,
)

__all__ = ["main", "run"]

COMMANDS = ("solve", "taylor", "norms", "probe", "oracle-compare")


class ConfigError(ValueError):
    """The JSON configuration violates the schema."""


def _need(cfg: dict, key: str, where: str = "config"):
    if key not in cfg:
        raise ConfigError(f"missing key {key!r} in {where}")
    return cfg[key]


def _build_grid(cfg: dict):
    g = _need(cfg, "grid")
    return make_grid(int(cfg.get("d", 1)), int(_need(g, "xi_max", "grid")),
                     float(_need(g, "h", "grid")))


def _build_datum(cfg: dict, grid):
    idata = _need(cfg, "initial_data")
    kind = str(_need(idata, "kind", "initial_data")).upper()
    try:
        kind = InitialDataKind(kind)
    except ValueError as exc:
        raise ConfigError(f"unknown initial_data kind {kind!r}") from exc
    spec = InitialDataSpec(
        kind=kind,
        eps0=float(idata.get("eps0", 1.0)),
        width=float(idata.get("width", 0.5)),
        amplitude=complex(idata.get("amplitude", 1.0)),
        deriv_order=int(idata.get("deriv_order", 1)),
        shift=float(idata.get("shift", 1.0)),
        pair_k=int(idata.get("pair_k", 16)),
        scale_n=int(idata.get("scale_n", 8)),
        s=float(idata.get("s", cfg.get("s", -1.0))),
        sigma=float(idata.get("sigma", cfg.get("sigma", 0.0))),
        m=int(idata.get("m", 2)),
    )
    try:
        return make_initial_data(spec, grid)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_problem(cfg: dict, refine: bool) -> tuple[ProblemSpec, FrequencyField]:
    grid = _build_grid(cfg)
    tcfg = _need(cfg, "time")
    icfg = cfg.get("iterate", {})
    ncfg = _need(cfg, "nonlinearity")
    ntype = str(_need(ncfg, "type", "nonlinearity")).upper()
    if ntype == "POWER":
        nl = Nonlinearity(NonlinearityKind.POWER, m=int(ncfg.get("m", 2)))
    elif ntype == "EXPONENTIAL":
        nl = Nonlinearity(NonlinearityKind.EXPONENTIAL,
                          taylor_order=int(ncfg.get("M", 12)))
    else:
        raise ConfigError(f"nonlinearity type must be POWER or EXPONENTIAL, "
                          f"got {ntype!r}")
    nt = int(_need(tcfg, "nt", "time"))
    if refine:
        grid = make_grid(grid.d, grid.xi_max, grid.h / 2.0)
        nt = 2 * nt - 1
    try:
        spec = ProblemSpec(
            grid=grid,
            nonlinearity=nl,
            eps0=float(cfg.get("epsilon0", 1.0)),
            s=float(cfg.get("s", -1.0)),
            sigma=float(cfg.get("sigma", 0.0)),
            delta=float(cfg.get("delta", 1.0)),
            lambda_shift=float(cfg.get("lambda_shift", 0.0)),
            T=float(_need(tcfg, "T", "time")),
            nt=nt,
            jmax=int(icfg.get("jmax", 12)),
            tol=float(icfg.get("tol", 1e-10)),
            conv_rule=str(cfg.get("conv_rule", "trapezoid")),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    datum = _build_datum(cfg, spec.grid)
    if not isinstance(datum, FrequencyField):
        raise GateError("sign-pair inflation data are not admissible solver input")
    return spec, datum


def _write_frames(u: SpaceTimeField, out: Path, stem: str, stride: int) -> list[str]:
    files = []
    for n in range(0, u.nt, stride):
        path = out / f"{stem}_t{n:05d}.field"
        save_field(u.frame(n), path)
        files.append(path.name)
    return files


def _csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (complex, np.complexfloating)):
        return f"{float(x.real)!r}+{float(x.imag)!r}j"
    return str(x)


def _cmd_solve(cfg: dict, out: Path, seed: int, refine: bool) -> tuple[dict, dict]:
    spec, v0 = _build_problem(cfg, refine)
    stride = int(cfg.get("output", {}).get("frame_stride", max(1, (spec.nt - 1) // 8)))
    if spec.nonlinearity.kind is NonlinearityKind.POWER:
        trace = picard_iterate(spec, v0)
        m_eff = spec.nonlinearity.m
        gate = spec.eps0
        bound = lambda j: j * (m_eff - 1) * gate  # noqa: E731
    else:
        trace = exp_picard_iterate(spec, v0)
        gate = support_stats(v0).min_l1
        bound = lambda j: j * gate  # noqa: E731
    support_ok = all(
        s >= bound(j) - 1e-12 for j, s in enumerate(trace.support_min_l1[1:], start=1)
    )
    fit = error_decay_fit(trace, s_tilde=spec.s - 1.0) \
        if len(trace.iterates) >= 4 else None
    files = _write_frames(trace.final, out, "solution", stride)
    _csv(out / "iteration.csv",
         ["j", "support_min_l1", "increment_norm", "error_vs_final"],
         [[j + 1, trace.support_min_l1[j], trace.increment_norms[j],
           trace.errors[j]] for j in range(len(trace.iterates))])
    files.append("iteration.csv")
    checks = {"converged": trace.converged, "support_propagation": support_ok}
    if fit is not None:
        checks["error_decay"] = bool(fit.passed)
    extras = {
        "support_min_l1": trace.support_min_l1,
        "increment_norms": trace.increment_norms,
        "errors": trace.errors,
        "fitted_C": fit.measured["C"] if fit is not None else None,
        "truncation_sensitivity": trace.truncation_sensitivity,
    }
    return checks, {"outputs": files, **extras}


def _cmd_taylor(cfg: dict, out: Path, seed: int, refine: bool) -> tuple[dict, dict]:
    spec, v0 = _build_problem(cfg, refine)
    K = float(cfg.get("band_K", min(3.0, spec.grid.xi_max)))
    stack = taylor_coefficients(spec, v0, K)
    assembled = assemble_band_solution(stack, spec.delta, K)
    stride = int(cfg.get("output", {}).get("frame_stride", max(1, (spec.nt - 1) // 8)))
    files = _write_frames(assembled, out, "band_solution", stride)
    rows = []
    for k, ck in enumerate(stack.coeffs, start=1):
        st = support_stats(ck.frame(ck.nt - 1))
        rows.append([k, st.min_l1 if not st.empty else math.inf])
    _csv(out / "coefficients.csv", ["order", "support_min_l1"], rows)
    files.append("coefficients.csv")
    order_ok = all(
        math.isinf(row[1]) or row[1] >= (k + 1) * stack.eps0 - 1e-12
        for k, row in enumerate(rows)
    )
    checks = {"coefficient_supports": order_ok}
    return checks, {"outputs": files, "orders": stack.orders, "band_K": K}


def _norm_specs(cfg: dict) -> list[dict]:
    specs = cfg.get("norms")
    if not specs:
        raise ConfigError("norms command needs a nonempty 'norms' list")
    return specs


def _cmd_norms(cfg: dict, out: Path, seed: int, refine: bool) -> tuple[dict, dict]:
    if "field_file" in cfg:
        f = load_field(cfg["field_file"])
    else:
        grid = _build_grid(cfg)
        if refine:
            grid = make_grid(grid.d, grid.xi_max, grid.h / 2.0)
        datum = _build_datum(cfg, grid)
        if not isinstance(datum, FrequencyField):
            raise ConfigError("norms command needs a plain field datum")
        f = datum
    rows = []
    for item in _norm_specs(cfg):
        flavor = str(_need(item, "flavor", "norms[]")).upper()
        s = float(item.get("s", 0.0))
        sigma = float(item.get("sigma", 0.0))
        gamma = item.get("gamma")
        q = item.get("q")
        if gamma is None:
            try:
                value = static_norm(f, NormSpec(NormFlavor(flavor), s, sigma))
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
            rows.append([flavor, s, sigma, "", "", value])
        else:
            tcfg = _need(cfg, "time")
            nt = int(_need(tcfg, "nt", "time"))
            if refine:
                nt = 2 * nt - 1
            tgrid = np.linspace(0.0, float(_need(tcfg, "T", "time")), nt)
            traj = free_trajectory(f, tgrid)
            gamma_f = math.inf if str(gamma) in ("inf", "Infinity") else float(gamma)
            value = timespace_norm(
                traj, TimeSpaceNormSpec(gamma_f, int(q or 2), s, sigma)
            )
            rows.append([flavor, s, sigma, gamma, int(q or 2), value])
    _csv(out / "norms.csv", ["flavor", "s", "sigma", "gamma", "q", "value"], rows)
    return {"norms_evaluated": True}, {"outputs": ["norms.csv"],
                                       "count": len(rows)}


def _cmd_probe(cfg: dict, out: Path, seed: int, refine: bool) -> tuple[dict, dict]:
    pcfg = _need(cfg, "probe")
    kind = str(_need(pcfg, "kind", "probe"))
    params = dict(pcfg.get("params", {}))
    try:
        if kind == "illposed_H":
            report = illposed_probe_H(
                sigma=float(_need(params, "sigma", "probe.params")),
                m=int(params.get("m", 2)),
                N_list=tuple(params.get("N_list", (8, 16, 32, 64))),
                c_t=float(params.get("c_t", 1.0)),
                quad_order=int(params.get("quad_order", 64)) * (2 if refine else 1),
            )
        elif kind == "illposed_E":
            report = illposed_probe_E(
                s=float(_need(params, "s", "probe.params")),
                sigma=float(params.get("sigma", 0.0)),
                m=int(params.get("m", 2)),
                k_list=tuple(params.get("k_list", (16, 32, 64))),
                t=float(params.get("t", 1.0)),
                h=float(params.get("h", 1.0 / 16)) / (2 if refine else 1),
            )
        elif kind == "scaling_vanishing":
            grid = _build_grid(cfg)
            datum = _build_datum(cfg, grid)
            report = scaling_vanishing_curve(
                datum,
                sigma=float(params.get("sigma", 0.0)),
                lam_list=tuple(params.get("lam_list", (1, 2, 4, 8, 16))),
                s=float(params.get("s", -1.0)),
            )
        elif kind in INEQUALITY_KINDS:
            grid = _build_grid(cfg) if "grid" in cfg else None
            nt = int(pcfg.get("nt", 33))
            if refine:
                # run the whole probe (including its internal stability
                # pass) from a doubled base resolution
                if grid is None:
                    grid = make_grid(1, 8, 1.0 / 16)
                else:
                    grid = make_grid(grid.d, grid.xi_max, grid.h / 2.0)
                nt = 2 * nt - 1
            report = inequality_probe(
                kind,
                params=params,
                n_samples=int(pcfg.get("n_samples", 20)),
                seed=seed,
                grid=grid,
                T=float(pcfg.get("T", 1.0)),
                nt=nt,
            )
        else:
            raise ConfigError(f"unknown probe kind {kind!r}")
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc
    with open(out / "probe_report.json", "w") as fh:
        json.dump(_sanitize(report.to_dict()), fh, indent=2, sort_keys=True,
                  default=_json_safe)
        fh.write("\n")
    if report.curve:
        header = sorted({k for row in report.curve for k in row})
        _csv(out / "probe_curve.csv", header,
             [[row.get(k, "") for k in header] for row in report.curve])
        outputs = ["probe_report.json", "probe_curve.csv"]
    else:
        outputs = ["probe_report.json"]
    return ({kind: bool(report.passed)} if report.passed is not None else {},
            {"outputs": outputs, "measured": report.measured})


def _cmd_oracle_compare(cfg: dict, out: Path, seed: int, refine: bool) \
        -> tuple[dict, dict]:
    spec, v0 = _build_problem(cfg, refine)
    if spec.nonlinearity.kind is not NonlinearityKind.POWER:
        raise ConfigError("oracle comparison drives the power nonlinearity")
    ocfg = cfg.get("oracle", {})
    cfg_o = OracleConfig(
        nt_fine=int(ocfg.get("nt_fine", 4 * (spec.nt - 1) + 1)),
        quad_order=int(ocfg.get("quad_order", 32)),
        compare_band=float(ocfg.get("compare_band", min(3.0, spec.grid.xi_max))),
    )
    if cfg_o.nt_fine < 4 * (spec.nt - 1) + 1:
        raise ConfigError("oracle nt_fine must be at least four times the engine's")
    trace = picard_iterate(spec, v0)
    ref = etd_reference_solve(v0, spec.nonlinearity.m, spec.T, cfg_o,
                              delta=spec.delta, lambda_shift=spec.lambda_shift,
                              conv_rule=spec.conv_rule)
    grid = spec.grid
    band = grid.l1() < cfg_o.compare_band - 1e-12
    eng = trace.final.values[-1]
    orc = ref.values[-1]
    rows = []
    for idx in zip(*np.nonzero(band)):
        e, o = eng[idx], orc[idx]
        rel = abs(e - o) / abs(o) if abs(o) > 0 else 0.0
        rows.append([*(float(grid.axis[i]) for i in idx), spec.T, e, o, rel])
    _csv(out / "oracle_compare.csv",
         [*(f"xi{i}" for i in range(grid.d)), "t", "engine", "oracle", "rel_err"],
         rows)
    num = np.sqrt(np.sum(np.abs(eng[band] - orc[band]) ** 2))
    den = np.sqrt(np.sum(np.abs(orc[band]) ** 2))
    band_err = float(num / den) if den > 0 else 0.0
    tol = float(ocfg.get("tol", 1e-3))
    checks = {"band_agreement": band_err <= tol}
    return checks, {"outputs": ["oracle_compare.csv"], "band_rel_err": band_err,
                    "tolerance": tol}


def _json_safe(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"not JSON serializable: {type(x)}")


def _sanitize(x):
    """Strict JSON has no Infinity/NaN literals; spell them out."""
    if isinstance(x, dict):
        return {k: _sanitize(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_sanitize(v) for v in x]
    if isinstance(x, (float, np.floating)) and not math.isfinite(x):
        return repr(float(x))
    return x


def run(command: str, config_path: str, out_dir: str, seed: int = 0,
        refine: bool = False) -> int:
    """Execute one pipeline; writes outputs and a manifest, returns the
    exit status (0 ok, 2 config, 3 gate, 4 divergence)."""
    t0 = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest: dict = {
        "command": command,
        "seed": seed,
        "refine": refine,
        "versions": {
            "octantheat": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    try:
        if command not in COMMANDS:
            raise ConfigError(
                f"unknown command {command!r}; expected one of {COMMANDS}"
            )
        with open(config_path) as fh:
            try:
                cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
        manifest["config"] = cfg
        handler = {
            "solve": _cmd_solve,
            "taylor": _cmd_taylor,
            "norms": _cmd_norms,
            "probe": _cmd_probe,
            "oracle-compare": _cmd_oracle_compare,
        }[command]
        checks, details = handler(cfg, out, seed, refine)
        status = 0 if all(checks.values()) else 1
        manifest["checks"] = checks
        manifest["details"] = details
        manifest["outputs"] = details.get("outputs", [])
    except (ConfigError, FileNotFoundError) as exc:
        manifest["error"] = f"config: {exc}"
        status = 2
    except GateError as exc:
        manifest["error"] = f"gate: {exc}"
        status = 3
    except DivergenceError as exc:
        manifest["error"] = f"divergence: {exc}"
        status = 4
    manifest["timings"] = {"total_s": time.perf_counter() - t0}
    manifest["exit_status"] = status
    with open(out / "manifest.json", "w") as fh:
        json.dump(_sanitize(manifest), fh, indent=2, sort_keys=True,
                  default=_json_safe)
        fh.write("\n")
    if "error" in manifest:
        print(f"error: {manifest['error']}", file=sys.stderr)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="octantheat",
        description="Fourier-side semilinear heat engine: batch pipelines",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON problem config")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--refine", action="store_true",
                        help="double grid and time resolution (stability check)")
    args = parser.parse_args(argv)
    return run(args.command, args.config, args.out, args.seed, args.refine)


if __name__ == "__main__":
    sys.exit(main())
