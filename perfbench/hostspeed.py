"""Host speed, measured by a fixed reference kernel timed next to every op.

The benchmark host is a shared virtual machine whose CPU speed drifts by up
to 2x over tens of seconds.  The drift is in the speed of the CPU itself:
a worker's CPU time equals its wall time to 0.1 %, so it never waits for a
core.  Medians of raw wall times therefore follow the host's load as much
as the program.

Each op is bracketed by two runs of this kernel, and the op's wall time is
rescaled by ``REFERENCE_S`` over the mean of the two.  A rescaled time is
the op's wall time on a host that runs the kernel in ``REFERENCE_S``
seconds (about this host when it is quiet).  The kernel is compute-bound
Python and small-array numpy/scipy work, the mix the package's ops run;
a memory-bound part tracked the ops worse.  It calls nothing of the
package, so no change to the package moves it.
"""
from __future__ import annotations

import time

import numpy as np
import scipy.signal

REFERENCE_S = 0.045  # kernel time on the baseline host when it is quiet

_N = np.arange(256)
_A = np.exp(0.01j * _N) / (1.0 + _N)
_X = np.linspace(0.0, 4.0, 64 * 64).reshape(64, 64)


def reference_s() -> float:
    """Wall time of one run of the fixed reference kernel."""
    start = time.perf_counter()
    for _ in range(500):
        scipy.signal.convolve(_A, _A, method="direct")
    for k in range(800):
        np.exp(-_X * _X * (1.0 + k / 800)).sum()
    table: dict[int, int] = {}
    for i in range(150_000):
        table[i & 255] = table.get(i & 255, 0) + i
    return time.perf_counter() - start


def rescale(wall_s: float, ref_s: float) -> float:
    """A wall time taken when the kernel ran in ``ref_s``, on the reference host."""
    return wall_s * REFERENCE_S / ref_s
