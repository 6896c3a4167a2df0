"""One workload in one process: set up, signal ready, run ops, report.

Started by ``run.py``; prints ``READY`` once the package is imported, the
seeded inputs are generated and the config files are written, then ``REF``
with the host-speed kernel's time (see ``hostspeed.py``), then (unless
``--setup-only``) runs the closed loop and prints one JSON line of raw
samples as its last line of output.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
PKG = "octantheat"


class Loop:
    """Closed loop over one workload: one caller, ops back to back, each
    op checked outside its timed region and bracketed by two runs of the
    ``reference`` kernel, by which its wall time is rescaled."""

    def __init__(self, workload, tracer=None, reference=None) -> None:
        self.w = workload
        self.tracer = tracer
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.ref_errs: list[float] = []
        self.durations: dict[int, float] = {}
        self.refs: dict[int, float] = {}  # kernel time just before each op
        self.scaled: dict[int, float] = {}

    def one(self, traced: bool = False) -> int:
        op_id = self.attempted
        self.attempted += 1
        self.w.prepare()
        gc.collect()  # garbage of earlier ops must not set this op's memory peak
        if self.reference is not None:
            self.refs[op_id] = self.reference()
        if traced:
            self.tracer.op = op_id
        start = time.perf_counter()
        try:
            result = self.w.op()
            problems = None
        except Exception:  # an op that raises is a failed op
            problems = [traceback.format_exc(limit=3)]
        self.durations[op_id] = time.perf_counter() - start
        if traced:
            self.tracer.op = None
        if problems is None:
            try:
                problems, err = self.w.check(result)
                if err is not None:
                    self.ref_errs.append(err)
            except Exception:
                problems = [traceback.format_exc(limit=3)]
        if problems:
            self.failed += 1
            self.failures.append(f"op {op_id}: " + "; ".join(problems))
        return op_id

    def for_seconds(self, seconds: float, traced: bool = False) -> list[int]:
        """Start ops until ``seconds`` have passed (at least one op)."""
        start = time.perf_counter()
        ids = [self.one(traced)]
        while time.perf_counter() - start < seconds:
            ids.append(self.one(traced))
        if self.reference is not None:
            refs = [self.refs[i] for i in ids] + [self.reference()]
            for k, i in enumerate(ids):
                ref = (refs[k] + refs[k + 1]) / 2.0
                self.scaled[i] = hostspeed.rescale(self.durations[i], ref)
        return ids

    def times(self, ids) -> list[float]:
        return [self.durations[i] for i in ids]

    def scaled_times(self, ids) -> list[float]:
        return [self.scaled[i] for i in ids]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True, help="scratch directory")
    ap.add_argument("--spans", help="file the traced run writes its spans to")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    # The host's vCPUs drift in speed independently of each other, so an op
    # and the kernel runs that rescale it must run on the same one.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    src = ROOT / "src"
    if not (src / PKG / "__init__.py").is_file():
        print(f"worker: no {PKG} package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads  # imports the package, numpy and scipy

    if not Path(workloads.oh.__file__).resolve().is_relative_to(src.resolve()):
        print(f"worker: {PKG} was imported from outside {src}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, Path(args.work))
    print(f"READY {time.clock_gettime(time.CLOCK_MONOTONIC)!r}", flush=True)
    print(f"REF {statistics.median(hostspeed.reference_s() for _ in range(3))!r}",
          flush=True)
    if args.setup_only:
        return 0

    import numpy
    import scipy
    import tracing

    tracer = tracing.Tracer()
    # no warm-up op: a CLI user pays first-call costs on every invocation,
    # and the median keeps one slow first op from moving op_s
    loop = Loop(workload, tracer, hostspeed.reference_s)
    report = {
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, PKG: workloads.oh.__version__},
    }
    if args.trace:
        plain = loop.for_seconds(args.seconds / 2)
        n_wrapped = tracing.install(tracer, PKG, workloads.LAYERS,
                                    tracing.default_counters(PKG))
        traced = loop.for_seconds(args.seconds / 2, traced=True)
        totals = tracing.per_op_totals(tracer.spans)
        for op in traced:
            totals[op]["trace.unattributed_s"] = (
                loop.durations[op] - totals[op]["trace.spanned_s"])
        names = sorted({k for op in traced for k in totals.get(op, {})})
        report.update({
            "op_samples": loop.scaled_times(plain),
            "op_wall_samples": loop.times(plain),
            "traced_samples": loop.times(traced),
            "traced_scaled_samples": loop.scaled_times(traced),
            "traced_ops": traced,
            "per_op": tracing.median_per_op(totals, traced, names),
            "wrapped_functions": n_wrapped,
            "spans": len(tracer.spans),
        })
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump(tracer.spans, fh)
    else:
        ids = loop.for_seconds(args.seconds)
        report["op_samples"] = loop.scaled_times(ids)
        report["op_wall_samples"] = loop.times(ids)
    report.update({
        "attempted": loop.attempted,
        "failed": loop.failed,
        "failures": loop.failures[:5],
        "ref_samples": list(loop.refs.values()),
        "ref_rel_err": statistics.median(loop.ref_errs) if loop.ref_errs else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
