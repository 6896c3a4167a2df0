"""Large data become small data under dilation, and solves commute with it.

With s < 0 the dilated norm carries a factor 2^{s (lam - 1) eps0}, so an
integer scale factor can always push a datum below the contraction
threshold, as the proof does.  The solver needs no such step: on a grid it
ends after J* iterates at any amplitude, and on index-preserving grids
solving the dilated problem and undoing the dilation reproduces the direct
solve bit for bit.
"""
import numpy as np

from octantheat import (
    InitialDataKind,
    InitialDataSpec,
    Nonlinearity,
    NonlinearityKind,
    ProblemSpec,
    choose_lambda,
    make_grid,
    make_initial_data,
    picard_iterate,
    rescale_solution,
    scale_data,
    scaling_vanishing_curve,
)

print("scale-factor selection for a large datum (norm 7, eps0 = 1, m = 2):")
plan = choose_lambda(7.0, s=-1.0, sigma=-1.5, m=2, eps0=1.0, C_fix=2.0)
print(f"  lam = {plan.lam}, rescaled weight index s0 = {plan.s0}, "
      f"criterion value {plan.smallness_margin:.2e} <= 1/100")

print("\nvanishing dilation curve at the balanced amplitude exponent:")
grid = make_grid(1, 4, 1 / 16)
f = make_initial_data(InitialDataSpec(InitialDataKind.EXP_HALFLINE), grid)
rep = scaling_vanishing_curve(f, sigma=0.0, s=-1.0)
for row in rep.curve:
    print(f"  lam={row['lam']:>2}: norm {row['norm']:.4e}")

print("\nround trip at amplitude 200, far from small: dilate -> solve -> undo")
m = 2
a = 2.0 / (m - 1)
base = make_grid(1, 8, 1 / 8)
v0 = make_initial_data(
    InitialDataSpec(InitialDataKind.OCTANT_BUMP, eps0=1.0, width=1.0,
                    amplitude=200.0), base)


def spec_for(g, T, eps0):
    return ProblemSpec(grid=g, nonlinearity=Nonlinearity(NonlinearityKind.POWER, m=m),
                       eps0=eps0, s=-1.0, T=T, nt=17, jmax=20, tol=1e-12)


direct = picard_iterate(spec_for(base, 1.0, 1.0), v0)
print(f"  direct: {len(direct.iterates)} iterates, the last increment "
      f"{direct.increment_norms[-1]}, max |v| {np.abs(direct.final.values).max():.2e}")
for lam in (2, 4):
    v0l = scale_data(v0, lam, a)  # on scaled_grid(base, lam)
    small = picard_iterate(spec_for(v0l.grid, 1.0 / lam**2, float(lam)), v0l)
    back = rescale_solution(small.final, lam, a)  # back on base
    same = back.values.tobytes() == direct.final.values.tobytes()
    print(f"  lam = {lam}: {len(small.iterates)} iterates, the undone final is "
          f"bitwise equal to the direct one: {same}")
    assert same
