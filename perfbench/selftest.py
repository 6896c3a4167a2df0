"""Self-test of the benchmark harness; runs in about a second.

    python3 perfbench/selftest.py

Checks that a child span's time is subtracted exactly once from its
parent's self time, that wrapping reaches names re-imported into sibling
modules, that a failed check or a raised error is counted against the ops
attempted, that an op's wall time is rescaled by the mean of the two
host-speed kernel runs around it, and that every printed metric name and
unit is well formed and matches ``BENCHMARK.json``.  It does not import the
package under test.
"""
from __future__ import annotations

import io
import json
import math
import re
import sys
import time
import types
from contextlib import redirect_stdout

import hostspeed
import run
import tracing
import worker

NAME_RE = re.compile(r"[A-Za-z0-9_.-]{1,64}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_self_time() -> None:
    # root [0, 10] > child [2, 5] > grandchild [3, 4]; second child [6, 7]
    spans = [["x.root", 0.0, 10.0, None, 0, None],
             ["x.child", 2.0, 5.0, 0, 0, None],
             ["y.leaf", 3.0, 4.0, 1, 0, {"bytes": 7}],
             ["x.child", 6.0, 7.0, 0, 0, None]]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    t = tracing.per_op_totals(spans)[0]
    assert t["x.root.self_s"] == 6.0 and t["x.child.self_s"] == 3.0
    assert t["x.child.calls"] == 2 and t["y.leaf.bytes"] == 7
    assert t["x.self_s"] + t["y.self_s"] == t["trace.spanned_s"] == 10.0


def _toy_package() -> str:
    """A package ``toypkg`` whose ``high`` module re-imports ``low.leaf``."""
    pkg = types.ModuleType("toypkg")
    low = types.ModuleType("toypkg.low")
    high = types.ModuleType("toypkg.high")
    exec("import time\n__all__ = ['leaf']\n"
         "def leaf():\n    time.sleep(0.002)\n", low.__dict__)
    high.leaf = low.leaf
    exec("import time\n__all__ = ['top']\n"
         "def top():\n    time.sleep(0.002)\n    leaf()\n    leaf()\n", high.__dict__)
    pkg.low, pkg.high = low, high
    sys.modules.update({"toypkg": pkg, "toypkg.low": low, "toypkg.high": high})
    return "toypkg"


def check_live_tracing() -> None:
    pkg = _toy_package()
    tracer = tracing.Tracer()
    assert tracing.install(tracer, pkg, ("low", "high")) == 2
    high = sys.modules["toypkg.high"]
    high.top()  # no op set: not recorded
    assert tracer.spans == []
    tracer.op = 5
    start = time.perf_counter()
    high.top()
    elapsed = time.perf_counter() - start
    tracer.op = None
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names == ["high.top", "low.leaf", "low.leaf"], names
    assert [s[tracing.PARENT] for s in tracer.spans] == [None, 0, 0]
    own = tracing.self_times(tracer.spans)
    root = tracer.spans[0]
    assert math.isclose(sum(own), root[tracing.END] - root[tracing.START],
                        rel_tol=1e-12)
    assert 0.0 < own[0] < elapsed and all(o > 0.0 for o in own)


class _ToyWorkload:
    """Op 1 fails its check, op 3 raises; the rest pass."""

    def __init__(self) -> None:
        self.n = 0

    def prepare(self) -> None:
        pass

    def op(self):
        self.n += 1
        if self.n == 3:
            raise RuntimeError("boom")
        return self.n

    def check(self, result):
        return (["bad output"] if result == 1 else []), 1e-3


def check_fail_frac() -> None:
    loop = worker.Loop(_ToyWorkload())
    for _ in range(4):
        loop.one()
    assert (loop.attempted, loop.failed) == (4, 2), (loop.attempted, loop.failed)
    assert loop.ref_errs == [1e-3] * 3  # every checked op, passed or not
    report = {"attempted": loop.attempted, "failed": loop.failed,
              "failures": [], "op_samples": loop.times(range(4)),
              "op_wall_samples": loop.times(range(4)),
              "peak_rss_mb": 1.0, "ref_rel_err": 1e-3}
    args = types.SimpleNamespace(workload="toy", seed=0, seconds=1.0, trace=0)
    metrics = run.metrics_from(report, [0.5], 0)
    with redirect_stdout(io.StringIO()) as buf:
        run.print_report(args, metrics, report, [0.5])
    assert re.search(r"^\s*fail_frac\s+0\.5\s", buf.getvalue(), re.M), buf.getvalue()


def check_rescale() -> None:
    refs = iter([0.1, 0.3, 0.5])
    loop = worker.Loop(_ToyWorkload(), reference=lambda: next(refs))
    (op,) = loop.for_seconds(0.0)  # one op, between kernel runs 0.1 and 0.3
    assert loop.refs == {op: 0.1}
    expected = loop.durations[op] * hostspeed.REFERENCE_S / 0.2
    assert math.isclose(loop.scaled_times([op])[0], expected, rel_tol=1e-12)
    assert hostspeed.rescale(2.0, 2 * hostspeed.REFERENCE_S) == 1.0


def check_names() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {kind: {m["name"]: m["unit"] for m in spec[kind]}
                for kind in ("end_to_end", "per_layer")}
    assert declared["end_to_end"] == run.END_TO_END
    assert declared["per_layer"] == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    report = {"op_samples": [1.0, 2.0], "traced_samples": [1.5],
              "traced_scaled_samples": [1.5],
              "per_op": {}, "peak_rss_mb": 1.0, "ref_rel_err": 1e-3}
    for trace in (0, 1):
        for name, m in run.metrics_from(report, [0.5], trace).items():
            assert NAME_RE.fullmatch(name), name
            assert UNIT_RE.fullmatch(m["unit"]), m["unit"]
    for name in (*run.WORKLOADS, "fail_frac"):
        assert NAME_RE.fullmatch(name), name


def main() -> int:
    if not __debug__:
        raise SystemExit("selftest relies on assert; run it without -O")
    checks = [check_self_time, check_live_tracing, check_fail_frac, check_rescale,
              check_names]
    for check in checks:
        check()
    print(f"selftest: {len(checks)} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
