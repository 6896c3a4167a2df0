"""Batch front-end: configure runs from JSON, execute solve / taylor /
norms / probe / oracle-compare pipelines, and emit plot-ready CSV plus a
run manifest.

Each config section is read against the spec or entry point it builds
(its parameters, types and defaults); any other key is rejected.

Exit codes: 0 all requested checks passed, 1 a check failed, 2
configuration or schema violation, 3 support-gate violation, 4 an iterate
left the floating-point range (a Picard iterate or its norm overflowed, or
an oracle step went unstable; large data alone do not cause it).  Re-running
with the same configuration and seed is byte-identical in all numerical
outputs (manifest timings excluded).
"""
from __future__ import annotations

import argparse
import dataclasses
import enum
import inspect
import json
import math
import sys
import time
import types
import typing
from pathlib import Path

import numpy as np

from . import __version__
from .data import DATA_KINDS, InitialDataKind, InitialDataSpec, make_initial_data
from .engine import DivergenceError, GateError, Nonlinearity, NonlinearityKind, \
    ProblemSpec, assemble_band_solution, free_trajectory, picard_iterate, \
    taylor_coefficients
from .lattice import FrequencyField, FrequencyGrid, load_field, make_grid, save_field, \
    support_stats
from .norms import NormFlavor, NormSpec, SpaceTimeField, TimeSpaceNormSpec, \
    static_norm, timespace_norm
from .oracle import OracleConfig, etd_reference_solve
from .probes import INEQUALITY_KINDS, error_decay_fit, illposed_probe_E, \
    illposed_probe_H, inequality_probe, scaling_vanishing_curve

__all__ = ["main", "run"]


class ConfigError(ValueError):
    """The JSON configuration violates the schema."""


# config key -> ProblemSpec field, for the top-level keys of a solver run
PROBLEM_KEYS = {"epsilon0": "eps0", "s": "s", "delta": "delta",
                "lambda_shift": "lambda_shift", "conv_rule": "conv_rule"}
# top-level keys over all commands, so one config serves solve and taylor
TOP_KEYS = (*PROBLEM_KEYS, "d", "band_K", "field_file", "grid", "time",
            "iterate", "nonlinearity", "initial_data", "output", "norms", "probe",
            "oracle")
SAMPLE_KEYS = ("n_samples", "T", "nt")  # how an inequality kind samples fields
PROBE_KEYS = ("kind", "params", *SAMPLE_KEYS)
# the parameters to which inf is a legitimate value (gamma = inf: sup in time)
INF_OK = {(TimeSpaceNormSpec, "gamma"),
          (INEQUALITY_KINDS["heat_semigroup"][0], "gammas")}
# probe kind -> entry point, and the parameter --refine scales by a factor
# (inequality kinds: inequality_probe on the kind's measurement)
PROBES = {
    "illposed_H": (illposed_probe_H, ("quad_order", 2)),
    "illposed_E": (illposed_probe_E, ("h", 0.5)),
    "scaling_vanishing": (scaling_vanishing_curve, None),
}


def _need(cfg: dict, key: str, where: str = "config"):
    if key not in cfg:
        raise ConfigError(f"missing key {key!r} in {where}")
    return cfg[key]


def _pick(section: dict, keys) -> dict:
    return {k: section[k] for k in keys if k in section}


def _check_keys(section, where: str, accepted) -> dict:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(section) - set(accepted))
    if unknown:
        raise ConfigError(f"unknown key(s) {', '.join(map(repr, unknown))} in "
                          f"{where}; accepted: {', '.join(sorted(accepted))}")
    return section


def _coerce(hint, value, where: str, inf_ok: bool = False):
    """Convert a config value to an annotated type: by calling the type
    (float, int, complex, str), an enum by upper-cased name, and a JSON list
    to ``tuple[T, ...]`` item by item.  NaN and -inf fail, +inf unless
    ``inf_ok``; a number takes no bool, an int no float with a fraction."""
    if typing.get_origin(hint) is types.UnionType:  # ``X | None``
        hint = typing.get_args(hint)[0]
    kind = typing.get_origin(hint) or hint
    if kind is int and (isinstance(value, bool) or isinstance(value, float)
                        and not value.is_integer()):
        raise ConfigError(f"{where}: {value!r} is not an integer")
    if kind in (float, complex) and isinstance(value, bool):
        raise ConfigError(f"{where}: {value!r} is not a number")
    if kind is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: {value!r} is not a JSON list")
        return tuple(_coerce(typing.get_args(hint)[0], v, where, inf_ok) for v in value)
    try:
        out = kind(str(value).upper()) if issubclass(kind, enum.Enum) else kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    if kind in (float, complex) and not (np.isfinite(out) or inf_ok and out == np.inf):
        raise ConfigError(f"{where}: {value!r} is not a finite number")
    return out


def _fields(target, section, where: str, keys=None, given=()) -> dict:
    """Coerced keyword arguments for ``target`` from one config section.
    ``keys`` maps each accepted config key to the target parameter it sets
    (a sequence: parameters under their own names; default: all of them).
    Other keys, and missing ones whose parameter has no default and is not
    ``given``, are config errors; absent keys keep the target's default."""
    params = inspect.signature(target).parameters
    if not isinstance(keys, dict):
        keys = {k: k for k in (keys or params)}
    _check_keys(section, where, keys)
    for key, name in keys.items():
        if key not in section and name not in given \
                and params[name].default is inspect.Parameter.empty:
            raise ConfigError(f"missing key {key!r} in {where}")
    hints = typing.get_type_hints(target)
    return {keys[k]: _coerce(hints[keys[k]], v, f"{where}.{k}",
                             (target, keys[k]) in INF_OK) for k, v in section.items()}


def _read(target, section, where: str, keys=None, /, **given):
    """Build ``target`` from one config section on top of the arguments the
    CLI supplies itself (section values win); its ValueError names ``where``."""
    kwargs = {**given, **_fields(target, section, where, keys, given)}
    try:
        return target(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _call(target, *args, **kwargs):
    """Call or construct ``target``; its ValueError is a config error."""
    try:
        return target(*args, **kwargs)
    except GateError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _default(fn, name: str):
    return inspect.signature(fn).parameters[name].default


def _refine(grid: FrequencyGrid | None, nt: int | None):
    """--refine: halve the grid spacing, double the time nodes (None stays None)."""
    return (None if grid is None else make_grid(grid.d, grid.xi_max, grid.h / 2.0),
            None if nt is None else 2 * nt - 1)


def _build_grid(cfg: dict) -> FrequencyGrid:
    return _read(make_grid, _need(cfg, "grid"), "grid", ("xi_max", "h"),
                 **_fields(make_grid, {"d": cfg.get("d", 1)}, "config", ("d",)))


def _time(cfg: dict) -> dict:
    """The time section; T and nt are both required."""
    t = _fields(ProblemSpec, _need(cfg, "time"), "time", ("T", "nt"))
    return {key: _need(t, key, "time") for key in ("T", "nt")}


def _build_datum(cfg: dict, grid):
    """The datum: ``kind`` picks a sampler in ``DATA_KINDS``, whose keyword
    parameters are the section's other keys."""
    section = _need(cfg, "initial_data")
    if not isinstance(section, dict):
        raise ConfigError("initial_data must be a JSON object")
    kind = _coerce(InitialDataKind, _need(section, "kind", "initial_data"),
                   "initial_data.kind")
    sampler = DATA_KINDS[kind]
    keys = tuple(inspect.signature(sampler).parameters)[1:]  # all but the grid
    _check_keys(section, f"initial_data of kind {kind.value}", ("kind", *keys))
    params = _fields(sampler, _pick(section, keys), "initial_data", keys)
    return _call(make_initial_data, InitialDataSpec(kind, **params), grid)


def _build_nonlinearity(cfg: dict) -> Nonlinearity:
    """The nonlinearity: ``type`` picks the kind, which takes only its own
    parameter, ``m`` for POWER (EXPONENTIAL takes none)."""
    section = _need(cfg, "nonlinearity")
    if not isinstance(section, dict):
        raise ConfigError("nonlinearity must be a JSON object")
    kind = _coerce(NonlinearityKind, _need(section, "type", "nonlinearity"),
                   "nonlinearity.type")
    own = {"m": "m"} if kind is NonlinearityKind.POWER else {}
    _check_keys(section, f"nonlinearity of type {kind.value}", ("type", *own))
    return _read(Nonlinearity, section, "nonlinearity", {"type": "kind", **own})


def _build_problem(cfg: dict, refine: bool) -> tuple[ProblemSpec, FrequencyField]:
    grid, t = _build_grid(cfg), _time(cfg)
    if refine:
        grid, t["nt"] = _refine(grid, t["nt"])
    nl = _build_nonlinearity(cfg)
    spec = _read(ProblemSpec, _pick(cfg, PROBLEM_KEYS), "config", PROBLEM_KEYS,
                 grid=grid, nonlinearity=nl, **t,
                 eps0=1.0 if nl.kind is NonlinearityKind.POWER else None,
                 **_fields(ProblemSpec, cfg.get("iterate", {}), "iterate",
                           ("jmax", "tol")))
    return spec, _build_datum(cfg, spec.grid)


def _frame_stride(cfg: dict, nt: int) -> int:
    output = _check_keys(cfg.get("output", {}), "output", ("frame_stride",))
    stride = _coerce(int, output.get("frame_stride", max(1, (nt - 1) // 8)),
                     "output.frame_stride")
    if stride < 1:
        raise ConfigError(f"output.frame_stride must be positive, got {stride}")
    return stride


def _write_frames(u: SpaceTimeField, out: Path, stem: str, stride: int) -> list[str]:
    files = []
    for n in range(0, u.nt, stride):
        path = out / f"{stem}_t{n:05d}.field"
        save_field(u.frame(n), path)
        files.append(path.name)
    return files


def _csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w") as fh:
        fh.writelines(",".join(map(_fmt, row)) + "\n" for row in [header, *rows])


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (complex, np.complexfloating)):
        im = repr(float(x.imag))  # its own sign when negative, so complex() parses it
        return f"{float(x.real)!r}{'' if im[0] == '-' else '+'}{im}j"
    return str(x)


def _cmd_solve(cfg: dict, out: Path, seed: int, refine: bool) -> tuple[dict, dict]:
    spec, v0 = _build_problem(cfg, refine)
    stride = _frame_stride(cfg, spec.nt)
    trace = picard_iterate(spec, v0)
    # support gained per iterate: (m - 1) eps0 for u^m, the datum's exact offset for e^u
    step = support_stats(v0).min_l1 if spec.eps0 is None \
        else (spec.nonlinearity.m - 1) * spec.eps0
    support_ok = all(
        s >= j * step - 1e-12 for j, s in enumerate(trace.support_min_l1[1:], start=1)
    )
    # the fit's own precondition: four iterates, or a run ending at a fixed point
    fit = error_decay_fit(trace, s_tilde=spec.s - 1.0) \
        if len(trace.iterates) >= 4 or trace.support_min_l1[-1] == math.inf else None
    files = _write_frames(trace.final, out, "solution", stride)
    _csv(out / "iteration.csv",
         ["j", "support_min_l1", "increment_norm", "error_vs_final"],
         [[j + 1, trace.support_min_l1[j], trace.increment_norms[j],
           trace.errors[j]] for j in range(len(trace.iterates))])
    files.append("iteration.csv")
    checks = {"converged": trace.converged, "support_propagation": support_ok}
    if fit is not None:
        checks["error_decay"] = bool(fit.passed)
    return checks, {
        "outputs": files,
        "support_min_l1": trace.support_min_l1,
        "increment_norms": trace.increment_norms,
        "errors": trace.errors,
        "fitted_C": fit.measured["C"] if fit is not None else None,
    }


def _cmd_taylor(cfg: dict, out: Path, seed: int, refine: bool) -> tuple[dict, dict]:
    spec, v0 = _build_problem(cfg, refine)
    K = _coerce(float, cfg.get("band_K", min(3.0, spec.grid.xi_max)), "band_K")
    stride = _frame_stride(cfg, spec.nt)
    stack = _call(taylor_coefficients, spec, v0, K)
    assembled = _call(assemble_band_solution, stack, spec.delta, K)
    files = _write_frames(assembled, out, "band_solution", stride)
    rows = [[k, support_stats(ck.frame(ck.nt - 1)).min_l1]
            for k, ck in enumerate(stack.coeffs, 1)]
    _csv(out / "coefficients.csv", ["order", "support_min_l1"], rows)
    files.append("coefficients.csv")
    # order k starts at k * eps0 (an empty coefficient passes)
    checks = {"coefficient_supports": all(s >= k * stack.eps0 - 1e-12 for k, s in rows)}
    return checks, {"outputs": files, "orders": stack.orders, "band_K": K}


def _cmd_norms(cfg: dict, out: Path, seed: int, refine: bool) -> tuple[dict, dict]:
    items = cfg.get("norms")
    if not items or not isinstance(items, list):
        raise ConfigError("norms command needs a nonempty 'norms' list")
    # a row with gamma is a time-space norm on the heat evolution of the field
    timed = [isinstance(item, dict) and "gamma" in item for item in items]
    grid = None if "field_file" in cfg else _build_grid(cfg)
    t = _time(cfg) if any(timed) else {"nt": None}
    if refine and grid is None and not any(timed):
        raise ConfigError("--refine has no effect: a field_file is read at its own "
                          "resolution, and no norms row has gamma (time nodes)")
    if refine:
        grid, t["nt"] = _refine(grid, t["nt"])
    f = _call(load_field, _coerce(str, cfg["field_file"], "field_file")) \
        if grid is None else _build_datum(cfg, grid)
    if any(timed):
        traj = _call(free_trajectory, f, _call(np.linspace, 0.0, t["T"], t["nt"]))
    rows = []
    for i, (item, is_timed) in enumerate(zip(items, timed)):
        where = f"norms[{i}]"
        _check_keys(item, where,
                    ("flavor", "s", "sigma", *(("gamma", "q") if is_timed else ())))
        spec = _read(NormSpec, _pick(item, ("flavor", "s", "sigma")), where)
        if is_timed and spec.flavor is not NormFlavor.ES_LATTICE:
            raise ConfigError(f"{where}: a time-space row (one with gamma) has flavor "
                              f"ES_LATTICE, not {spec.flavor.value}")
        if is_timed:
            tspec = _read(TimeSpaceNormSpec, _pick(item, ("gamma", "q")), where,
                          ("gamma", "q"), q=2, s=spec.s, sigma=spec.sigma)
            tail = [item["gamma"], tspec.q, _call(timespace_norm, traj, tspec)]
        else:
            tail = ["", "", _call(static_norm, f, spec)]
        rows.append([spec.flavor.value, spec.s, spec.sigma, *tail])
    _csv(out / "norms.csv", ["flavor", "s", "sigma", "gamma", "q", "value"], rows)
    return {"norms_evaluated": True}, {"outputs": ["norms.csv"],
                                       "count": len(rows)}


def _cmd_probe(cfg: dict, out: Path, seed: int, refine: bool) -> tuple[dict, dict]:
    pcfg = _check_keys(_need(cfg, "probe"), "probe", PROBE_KEYS)
    kind = str(_need(pcfg, "kind", "probe"))
    if kind in INEQUALITY_KINDS:  # params: the measurement's keyword-only ones
        target, refined = INEQUALITY_KINDS[kind][0], None
        keys = tuple(target.__kwdefaults__)
    elif kind in PROBES:  # params: the entry point's, but the datum f
        target, refined = PROBES[kind]
        keys = [name for name in inspect.signature(target).parameters if name != "f"]
        _check_keys(pcfg, "probe", ("kind", "params"))
    else:
        raise ConfigError(f"unknown probe kind {kind!r}")
    params = _fields(target, pcfg.get("params", {}), "probe.params", keys)
    if refine and refined:
        name, factor = refined
        params[name] = factor * params.get(name, _default(target, name))
    if kind in INEQUALITY_KINDS:
        args = _fields(inequality_probe, _pick(pcfg, SAMPLE_KEYS), "probe", SAMPLE_KEYS)
        args["grid"] = _build_grid(cfg) if "grid" in cfg \
            else _default(inequality_probe, "grid")
        if refine:  # the whole probe, stability pass included, from a finer base
            args["grid"], args["nt"] = _refine(
                args["grid"], args.get("nt", _default(inequality_probe, "nt")))
        report = _call(inequality_probe, kind, params, seed=seed, **args)
    elif kind == "scaling_vanishing":  # lam still divides 1/h: refining doubles 1/h
        grid = _refine(_build_grid(cfg), None)[0] if refine else _build_grid(cfg)
        report = _call(target, _build_datum(cfg, grid), **params)
    else:
        report = _call(target, **params)
    _write_json(out / "probe_report.json", report.to_dict())
    outputs = ["probe_report.json"]
    if report.curve:
        header = sorted({k for row in report.curve for k in row})
        _csv(out / "probe_curve.csv", header,
             [[row.get(k, "") for k in header] for row in report.curve])
        outputs.append("probe_curve.csv")
    return ({kind: bool(report.passed)} if report.passed is not None else {},
            {"outputs": outputs, "measured": report.measured})


def _cmd_oracle_compare(cfg: dict, out: Path, seed: int, refine: bool) \
        -> tuple[dict, dict]:
    spec, v0 = _build_problem(cfg, refine)
    if spec.nonlinearity.kind is not NonlinearityKind.POWER:
        raise ConfigError("oracle comparison drives the power nonlinearity")
    ocfg = _check_keys(cfg.get("oracle", {}), "oracle",
                       ("nt_fine", "compare_band", "tol"))
    floor = 4 * (spec.nt - 1) + 1
    cfg_o = _read(OracleConfig, _pick(ocfg, ("nt_fine",)), "oracle", None,
                  nt_fine=floor)
    if cfg_o.nt_fine < floor:
        raise ConfigError("oracle nt_fine must be at least four times the engine's")
    compare_band = _coerce(float, ocfg.get("compare_band", min(3.0, spec.grid.xi_max)),
                           "oracle.compare_band")
    if not compare_band > 0:
        raise ConfigError("oracle compare_band must be positive: the band is empty")
    tol = _coerce(float, ocfg.get("tol", 1e-3), "oracle.tol")
    if not tol > 0:
        raise ConfigError(f"oracle.tol must be positive, got {tol!r}")
    trace = picard_iterate(spec, v0)
    # the band is closed (oracle module docstring): integrate only its box
    grid = make_grid(spec.grid.d, min(spec.grid.xi_max, math.ceil(compare_band)),
                     spec.grid.h)
    box = (slice(grid.n),) * grid.d
    ref = _call(etd_reference_solve, dataclasses.replace(spec, grid=grid),
                FrequencyField(grid, v0.values[box]), cfg_o)
    band = grid.l1() < compare_band - 1e-12
    eng = trace.final.values[-1][box]
    orc = ref.values[-1]
    den = np.sqrt(np.sum(np.abs(orc[band]) ** 2))
    if not den > 0:
        raise ConfigError("oracle compare_band holds no nonzero cell: "
                          "the comparison is empty")
    rows = []
    for idx in zip(*np.nonzero(band)):
        e, o = eng[idx], orc[idx]
        rel = abs(e - o) / abs(o) if abs(o) > 0 else 0.0
        rows.append([*(float(grid.axis[i]) for i in idx), spec.T, e, o, rel])
    _csv(out / "oracle_compare.csv",
         [*(f"xi{i}" for i in range(grid.d)), "t", "engine", "oracle", "rel_err"],
         rows)
    num = np.sqrt(np.sum(np.abs(eng[band] - orc[band]) ** 2))
    band_err = float(num / den)
    checks = {"band_agreement": band_err <= tol}
    return checks, {"outputs": ["oracle_compare.csv"], "band_rel_err": band_err,
                    "tolerance": tol}


HANDLERS = {"solve": _cmd_solve, "taylor": _cmd_taylor, "norms": _cmd_norms,
            "probe": _cmd_probe, "oracle-compare": _cmd_oracle_compare}
COMMANDS = tuple(HANDLERS)


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


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(_sanitize(obj), fh, indent=2, sort_keys=True, default=_json_safe)
        fh.write("\n")


def run(command: str, config_path: str, out_dir: str, seed: int = 0,
        refine: bool = False) -> int:
    """Execute one pipeline; writes outputs and a manifest, returns the
    exit status (0 ok, 1 a check failed, 2 config, 3 gate, 4 an iterate left
    the floating-point range)."""
    t0 = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest: dict = {
        "command": command,
        "seed": seed,
        "refine": refine,
        "versions": {"octantheat": __version__, "numpy": np.__version__},
    }
    try:
        if command not in COMMANDS:
            raise ConfigError(f"unknown command {command!r}; "
                              f"expected one of {COMMANDS}")
        with open(config_path) as fh:
            try:
                cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
        manifest["config"] = cfg
        checks, details = HANDLERS[command](_check_keys(cfg, "config", TOP_KEYS),
                                            out, seed, refine)
        status = 0 if all(checks.values()) else 1
        manifest.update(checks=checks, details=details,
                        outputs=details.get("outputs", []))
    except (ConfigError, OSError) as exc:
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
    _write_json(out / "manifest.json", manifest)
    if "error" in manifest:
        print(f"error: {manifest['error']}", file=sys.stderr)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="octantheat",
        description="Fourier-side semilinear heat engine: batch pipelines")
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
