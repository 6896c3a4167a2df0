"""Picard iteration of the quadratic heat flow in three dimensions.

The datum is the octant bump on [1, 1.5)^3 (l1 offset eps = 3) on a 32^3
grid over [0, 4)^3.  Each increment climbs at least eps in l1, so after
four iterates it has left the grid, and every iterate takes the band below
the last increment's support from the previous one bitwise: below 2 eps,
where no product of the datum reaches, the final iterate is the free
evolution itself.  The fourth iterate's band covers the grid, so its
increment is exactly 0 and the run ends there at a fixed point.  The
solve's wall time, its traced memory peak and the memory its trace
retains are printed: the trace keeps the final stack and each earlier
iterate only on the cells it had not settled, at most 27 MiB here, and
the peak stays within four stacks.
"""
import time
import tracemalloc

import numpy as np

from octantheat import (
    InitialDataKind,
    InitialDataSpec,
    Nonlinearity,
    NonlinearityKind,
    ProblemSpec,
    free_trajectory,
    make_grid,
    make_initial_data,
    picard_iterate,
)

grid = make_grid(3, 4, 1 / 8)
eps0, m = 1.0, 2
v0 = make_initial_data(
    InitialDataSpec(InitialDataKind.OCTANT_BUMP, eps0=eps0, width=0.5), grid
)
spec = ProblemSpec(
    grid=grid,
    nonlinearity=Nonlinearity(NonlinearityKind.POWER, m=m),
    eps0=eps0, s=-1.0, T=1.0, nt=33, jmax=4, tol=0.0,
)
tracemalloc.start()
start = time.perf_counter()
trace = picard_iterate(spec, v0)
wall = time.perf_counter() - start
retained, peak = (b / 2**20 for b in tracemalloc.get_traced_memory())
tracemalloc.stop()

eps = grid.d * eps0  # the datum's l1 offset
print(f"datum: bump on [{eps0}, {eps0 + 0.5})^3 on a {grid.n}^3 grid, nt = {spec.nt}")
print(f"{'j':>3} {'supp >=':>9} {'support_min_l1':>15}")
for j, s in enumerate(trace.support_min_l1, start=1):
    print(f"{j:>3} {(j - 1) * (m - 1) * eps:>9.3f} {s:>15.3f}")
    assert s >= (j - 1) * (m - 1) * eps
assert trace.converged and trace.support_min_l1[-1] == float("inf")
stack = spec.nt * grid.n**grid.d * 16 / 2**20  # one complex (nt, *grid) stack
print(f"wall time of the solve: {wall:.2f} s, traced peak {peak:.1f} MiB; "
      f"the trace of {len(trace.iterates)} iterates retains {retained:.1f} MiB "
      f"(one whole stack is {stack:.1f} MiB)")
assert retained <= 27.0, "the trace must keep only the unsettled cells"
# the trace, three working stacks and the convolution's blocks: Duhamel
# integrates in place over the integrand, so a fourth stack would show
assert peak <= 4 * stack, "a u^m solve must hold at most four stacks at its peak"

free = spec.delta * free_trajectory(v0, spec.tgrid).values
band = grid.l1() < m * eps - 1e-12  # no product of the datum reaches below m eps
assert trace.final.values[:, band].tobytes() == free[:, band].tobytes(), \
    "the settled band must equal the free evolution bitwise"
print(f"settled band |xi|_1 < {m * eps:g}: {int(band.sum())} cells per frame "
      "equal the free evolution bitwise")
