"""Support propagation and super-factorial convergence of the iteration.

Octant-supported data with spectrum offset eps0 make each Picard
increment climb the frequency axis: increment j lives above
j (m-1) eps0, so every iterate is already exact on a growing band, and
on a finite grid the iteration terminates exactly once the increments
escape.  The errors against the final iterate collapse like C^j/(j!)^2.
"""
from octantheat import (
    InitialDataKind,
    InitialDataSpec,
    Nonlinearity,
    NonlinearityKind,
    ProblemSpec,
    error_decay_fit,
    make_grid,
    make_initial_data,
    picard_iterate,
)

grid = make_grid(1, 4, 1 / 32)
eps0, m = 0.5, 2
v0 = make_initial_data(
    InitialDataSpec(InitialDataKind.OCTANT_BUMP, eps0=eps0, width=0.5), grid
)
spec = ProblemSpec(
    grid=grid,
    nonlinearity=Nonlinearity(NonlinearityKind.POWER, m=m),
    eps0=eps0, s=-1.0, T=1.0, nt=65, jmax=8, tol=0.0,
)
trace = picard_iterate(spec, v0)

print(f"datum: bump on [{eps0}, {eps0 + 0.5}) -> increments climb by "
      f"(m-1) eps0 = {(m - 1) * eps0} per step")
# the measured support starts at or above the edge of the band copied from the
# previous iterate; FFT round-off just above that edge makes it read the edge,
# so it is a lower bound on the exact increment's support
print(f"{'j':>3} {'supp >=':>9} {'meas<=exact':>11} {'increment size':>15}")
for j, (s, inc) in enumerate(zip(trace.support_min_l1, trace.increment_norms),
                             start=1):
    bound = (j - 1) * (m - 1) * eps0
    meas = "empty" if s == float("inf") else f"{s:.2f}"
    print(f"{j:>3} {bound:>9.2f} {meas:>11} {inc:>15.3e}")

fit = error_decay_fit(trace, s_tilde=-2.0)
print(f"decay-law fit: C = {fit.measured['C']:.3f}, verdict {fit.verdict}")
print("errors vs final iterate:",
      " ".join(f"{e:.1e}" for e in fit.measured["errors"]))
