"""The exponential nonlinearity through the shifted semigroup.

Dilating u_t - Delta u = e^u - 1 produces a lam^2-shifted semigroup that
decays only above |xi|_inf = 2 lam, which is why the datum's spectrum
must start above 2.  The series nonlinearity is summed to the grid's top
order: order r starts at r times the datum's offset, so no order above it
has a cell on the grid, and nothing is truncated.
"""
from octantheat import (
    InitialDataKind,
    InitialDataSpec,
    Nonlinearity,
    NonlinearityKind,
    ProblemSpec,
    make_grid,
    make_initial_data,
    picard_iterate,
    scale_data,
    support_stats,
)

lam = 2
base = make_grid(1, 50, 1 / 8)
u0 = make_initial_data(
    InitialDataSpec(InitialDataKind.OCTANT_BUMP, eps0=2.0, width=0.5,
                    amplitude=0.01), base)
print(f"datum spectrum starts at |xi|_inf = {support_stats(u0).min_linf}"
      " (entry gate: >= 2)")

u0l = scale_data(u0, lam, 0.0)  # on scaled_grid(base, lam)
print(f"after dilation by lam = {lam}: spectrum above "
      f"{support_stats(u0l).min_linf} = 2 lam")

spec = ProblemSpec(
    grid=u0l.grid,
    nonlinearity=Nonlinearity(NonlinearityKind.EXPONENTIAL),
    s=-1.0, lambda_shift=float(lam), T=0.25, nt=65, jmax=10, tol=1e-13,
)
trace = picard_iterate(spec, u0l)  # the spec's nonlinearity picks the flow
print(f"converged: {trace.converged} after {len(trace.iterates)} iterations")
print("increment support staircase (j * gate with gate = min l1 of datum):")
gate = support_stats(u0l).min_l1
for j, s in enumerate(trace.support_min_l1, start=1):
    meas = "empty" if s == float("inf") else f"{s:.1f}"
    print(f"  step {j}: support from {meas} (bound {(j - 1) * gate:.1f})")
