"""Exact band solutions of the quadratic heat flow, three ways.

The datum v0(xi) = e^xi on xi >= 1 admits a closed-form amplitude
expansion whose first three orders solve the flow exactly below
frequency 3.  We compute the band solution with the Taylor recursion,
cross-check it against nested-quadrature evaluations of the closed
forms, and against an independent integrating-factor RK4 integrator.
"""
import numpy as np

from octantheat import (
    InitialDataKind,
    InitialDataSpec,
    Nonlinearity,
    NonlinearityKind,
    OracleConfig,
    ProblemSpec,
    assemble_band_solution,
    etd_reference_solve,
    exp_halfline_band,
    make_grid,
    make_initial_data,
    picard_iterate,
    taylor_coefficients,
)

grid = make_grid(1, 4, 1 / 64)
v0 = make_initial_data(InitialDataSpec(InitialDataKind.EXP_HALFLINE), grid)
spec = ProblemSpec(
    grid=grid,
    nonlinearity=Nonlinearity(NonlinearityKind.POWER, m=2),
    eps0=1.0, s=-1.0, T=1.0, nt=257, jmax=8, tol=1e-12,
)

print("Amplitude expansion: three derivative trajectories cover |xi| < 3")
stack = taylor_coefficients(spec, v0, K=3.0)
sol = assemble_band_solution(stack, delta=1.0, K=3.0)

band = (grid.axis >= 1.0) & (grid.axis < 3.0)
ref = exp_halfline_band(1.0, grid.axis[band], delta=1.0, quad_order=32)
err = np.linalg.norm(sol.values[-1][band] - ref) / np.linalg.norm(ref)
print(f"  band-L2 error vs closed forms at t=1: {err:.2e}")

print("Picard iteration reaches the same band solution")
trace = picard_iterate(spec, v0)
diff = np.abs(trace.final.values[:, band] - sol.values[:, band]).max()
print(f"  converged={trace.converged}, max band deviation {diff:.2e}")

print("Independent integrating-factor RK4 run")
oracle = etd_reference_solve(spec, v0, OracleConfig(nt_fine=1025))
err2 = np.linalg.norm(oracle.values[-1][band] - ref) / np.linalg.norm(ref)
print(f"  band-L2 error vs closed forms at t=1: {err2:.2e}")

print("Sample values at t = 1:")
for x in (1.5, 2.25, 2.75):
    i = int(round(x / grid.h))
    print(f"  xi={x}: band solution {sol.values[-1][i].real:+.6f}, "
          f"free evolution {np.exp(-x**2 + x):+.6f}")
