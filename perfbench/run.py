"""octantheat benchmark: time-to-solution on four workloads.

    python3 perfbench/run.py --workload band-1d [--seed 0] [--seconds 25] [--trace 0|1]

Run from the repository root.  The load is a closed loop: one caller in one
single-threaded worker process, ops back to back, each op one workload's
fixed sequence of calls into the package (``octantheat.cli.run`` for the
CLI pipelines, library calls otherwise), every op checked outside its timed
region.  Each invocation runs one workload in a fresh worker process, so
peak memory is per workload.

``--trace 0`` prints the end-to-end metrics.  ``setup_s`` is the median over
several fresh processes of the time from process start until the package is
imported, the seeded inputs are generated and the configs are written.
``op_s`` is the median over ops of each op's wall time rescaled by the
host-speed kernel timed around it (``hostspeed.py``), because the shared
host's speed drifts; the raw wall times are in the report and the result
file.  Each ``setup_s`` sample is rescaled in the same way, by the median
of three kernel runs in its process right after it is ready.

``--trace 1`` runs untraced ops, then wraps the public functions of every
package module (from this directory, the package is untouched) and runs
traced ops; it prints per-op layer metrics derived from the spans, in raw
wall time, and ``trace.overhead_frac`` from rescaled times.

A human-readable report precedes the last line of output, which is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A result file
with the environment record is written to ``perfbench/out/``.  The exit
status is 0 when every op passed its checks, 1 when any failed, and 2 or 3
(with no result line) when the package is missing or the worker crashed.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# BENCHMARK.json lists all but solve-2d: at 6-9 s per op it made the longest
# runs, and leaving it out lets the other runs be longer within the time
# budget for a full benchmark pass.  It stays runnable by name.
WORKLOADS = ("band-1d", "solve-2d", "oracle-1d", "dilate-io")
DEFAULT_SEED = 0
SETUP_STARTS = 5  # processes timed per run for setup_s (the worker is one)
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "op_s": "s",
    "peak_rss_mb": "MiB",
    "ref_rel_err": "1",
}

PER_LAYER = {
    "lattice.convolve.calls": "count",
    "lattice.convolve.self_s": "s",
    "lattice.save_field.self_s": "s",
    "lattice.save_field.bytes": "B",
    "lattice.load_field.self_s": "s",
    "lattice.load_field.bytes": "B",
    "lattice.support_stats.self_s": "s",
    "engine.picard_iterate.self_s": "s",
    "engine.picard_iterate.iterations": "count",
    "engine.duhamel.calls": "count",
    "engine.duhamel.self_s": "s",
    "engine.free_trajectory.self_s": "s",
    "engine.taylor_coefficients.self_s": "s",
    "engine.taylor_coefficients.orders": "count",
    "engine.assemble_band_solution.self_s": "s",
    "norms.weighted_l1_seq_norm.calls": "count",
    "norms.weighted_l1_seq_norm.self_s": "s",
    "norms.static_norm.self_s": "s",
    "norms.timespace_norm.self_s": "s",
    "data.scale_data.self_s": "s",
    "data.rescale_solution.self_s": "s",
    "data.make_initial_data.self_s": "s",
    "oracle.etd_reference_solve.self_s": "s",
    "oracle.etd_reference_solve.steps": "count",
    "probes.error_decay_fit.self_s": "s",
    "cli.run.self_s": "s",
    "lattice.self_s": "s",
    "engine.self_s": "s",
    "norms.self_s": "s",
    "data.self_s": "s",
    "oracle.self_s": "s",
    "probes.self_s": "s",
    "cli.self_s": "s",
    "trace.op_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_frac": "1",
}


class WorkerError(RuntimeError):
    """The worker process crashed, timed out or printed no result."""


def tail_percentile(samples: list[float]):
    """Highest of p50..p99.9 with at least ten samples beyond it, as
    (p, nearest-rank value), or None when there are fewer than 20 samples."""
    n = len(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            return p, sorted(samples)[math.ceil(p / 100.0 * n) - 1]
    return None


def metrics_from(report: dict, setup_samples: list[float], trace: int) -> dict:
    """The metrics of one run: end-to-end ones untraced, per-layer traced."""
    if trace:
        plain = statistics.median(report["op_samples"])
        traced = statistics.median(report["traced_scaled_samples"])
        values = {name: report["per_op"].get(name, 0.0) for name in PER_LAYER}
        values["trace.op_s"] = statistics.median(report["traced_samples"])
        values["trace.overhead_frac"] = (traced - plain) / plain
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "op_s": statistics.median(report["op_samples"]),
            "peak_rss_mb": report["peak_rss_mb"],
            "ref_rel_err": report["ref_rel_err"],
        }
        units = END_TO_END
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def environment(child_env: dict) -> dict:
    """Machine record: CPU model, cache sizes, cores, load, thread settings."""
    env = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {k: child_env.get(k) for k in THREAD_VARS},
    }
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh
                      if ln.startswith("model name")]
        env["cpu_model"] = models[0] if models else None
        with open("/proc/loadavg") as fh:
            env["loadavg"] = fh.read().split()[:3]
    except OSError:
        pass
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((idx / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}-{kind}"] = size
    env["caches_per_cpu0"] = caches
    return env


class Runner:
    """Starts worker processes one at a time and stops them on exit."""

    def __init__(self, env: dict, deadline: float) -> None:
        self.env = env
        self.deadline = deadline
        self.proc: subprocess.Popen | None = None

    def start(self, args: list[str]) -> tuple[float, float, list[str]]:
        """Run one worker; returns (seconds until READY, the host-speed
        kernel's time right after, output lines)."""
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *args],
            stdout=subprocess.PIPE, text=True, env=self.env, cwd=ROOT)
        try:
            out, _ = self.proc.communicate(timeout=self.deadline - time.monotonic())
        except subprocess.TimeoutExpired as exc:
            raise WorkerError("worker timed out") from exc
        finally:
            self.stop()
        lines = out.splitlines()
        if self.proc.returncode != 0:
            raise WorkerError(f"worker exited with {self.proc.returncode}")
        ready = [ln for ln in lines if ln.startswith("READY ")]
        ref = [ln for ln in lines if ln.startswith("REF ")]
        if not ready or not ref:
            raise WorkerError("worker never became ready")
        return float(ready[0].split()[1]) - t0, float(ref[0].split()[1]), lines

    def stop(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def print_report(args, metrics: dict, report: dict, setup_wall: list[float]) -> None:
    attempted, failed = report["attempted"], report["failed"]
    print(f"octantheat benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}; closed loop, 1 caller, "
          f"1 single-threaded process, ops back to back")
    for name, m in metrics.items():
        note = ""
        if name == "setup_s":
            note = (f"median of {len(setup_wall)} process starts; "
                    f"raw wall median {statistics.median(setup_wall):.4f} s")
        elif name == "op_s":
            tail = tail_percentile(report["op_samples"])
            note = (f"median of {len(report['op_samples'])} ops; "
                    + (f"p{tail[0]:g} {tail[1]:.4f} s" if tail else
                       "no percentile has 10 samples beyond it")
                    + f"; raw wall median {statistics.median(report['op_wall_samples']):.4f} s")
        elif name == "trace.op_s":
            note = (f"median of {len(report['traced_samples'])} traced ops; "
                    f"untraced median of {len(report['op_samples'])}")
        elif name.endswith(".self_s") and metrics.get("trace.op_s"):
            note = f"{100.0 * m['value'] / metrics['trace.op_s']['value']:5.1f} % of traced op"
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:<40} {value:<14} {m['unit']:<6} {note}")
    print(f"  {'fail_frac':<40} {f'{failed / attempted:.6g}':<14} {'1':<6} "
          f"{failed} of {attempted} ops failed")
    for line in report["failures"]:
        print(f"  FAILED {line}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "octantheat" / "__init__.py").is_file():
        print(f"run.py: the octantheat package is not under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    child_env = {**os.environ, **{k: "1" for k in THREAD_VARS}}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    runner = Runner(child_env, deadline)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        setup_wall, setup_refs = [], []
        if not args.trace:
            for i in range(SETUP_STARTS - 1):
                ready, ref, _ = runner.start(
                    [*common, "--work", str(work / f"setup-{i}"), "--setup-only"])
                setup_wall.append(ready)
                setup_refs.append(ref)
        spans = ["--spans", str(OUT / f"spans-{tag}.json")] if args.trace else []
        ready, ref, lines = runner.start([*common, "--work", str(work / "main"), *spans])
        setup_wall.append(ready)
        setup_refs.append(ref)
        setup_samples = [hostspeed.rescale(w, r) for w, r in zip(setup_wall, setup_refs)]
        try:
            report = json.loads(lines[-1])
        except ValueError as exc:
            raise WorkerError("worker printed no result") from exc
    except WorkerError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3
    finally:
        runner.stop()
        shutil.rmtree(work, ignore_errors=True)

    metrics = metrics_from(report, setup_samples, args.trace)
    attempted, failed = report["attempted"], report["failed"]
    correct = failed == 0
    print_report(args, metrics, report, setup_wall)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "environment": {**environment(child_env), "versions": report["versions"]},
        "setup_samples": setup_samples, "setup_wall_samples": setup_wall,
        "setup_ref_samples": setup_refs, "worker": report, "metrics": metrics,
        "fail_frac": failed / attempted,
    }
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump(record, fh, indent=2)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
