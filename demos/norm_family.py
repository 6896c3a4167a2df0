"""The weighted norm family on octant spectra.

The exponential weight 2^{s|xi|} with s < 0 is what makes arbitrarily
rough data small after dilation; the lattice form built from unit-cube
projections is equivalent to the integral form, and the l1-over-cubes
flavor sits between the weighted L2 scales.
"""
import math

import numpy as np

from octantheat import (
    FrequencyField,
    InitialDataKind,
    InitialDataSpec,
    NormFlavor,
    NormSpec,
    make_grid,
    make_initial_data,
    static_norm,
)

grid = make_grid(1, 4, 1 / 32)
f = make_initial_data(InitialDataSpec(InitialDataKind.EXP_HALFLINE), grid)

# each flavor takes only the weights it reads: E21 no sigma, HSIGMA no s
print("one datum, four norms (ES_*: s = -1, sigma = 0.5; E21: s = -1; "
      "HSIGMA: sigma = 0.5):")
for spec in (NormSpec(NormFlavor.ES_INTEGRAL, s=-1.0, sigma=0.5),
             NormSpec(NormFlavor.ES_LATTICE, s=-1.0, sigma=0.5),
             NormSpec(NormFlavor.E21, s=-1.0), NormSpec(NormFlavor.HSIGMA, sigma=0.5)):
    print(f"  {spec.flavor.value:12s} {static_norm(f, spec):.6f}")

print("\nexponential weight dominates polynomial growth: for any r the")
print("Sobolev norm controls the weighted norm with an explicit constant")
for r in (0.0, 2.0, 5.0):
    weight = (1.0 + grid.euclid_sq()) ** ((0.5 - r) / 2.0) * 2.0 ** (-grid.l1())
    C = float(weight.max())
    lhs = static_norm(f, NormSpec(NormFlavor.ES_INTEGRAL, -1.0, 0.5))
    rhs = static_norm(f, NormSpec(NormFlavor.HSIGMA, sigma=r))
    print(f"  r={r}: ratio {lhs / rhs:.3e} <= C {C:.3e}")

print("\nlattice/integral equivalence on random fields:")
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(50):
    g = FrequencyField(grid, rng.standard_normal(grid.shape)
                       + 1j * rng.standard_normal(grid.shape))
    lat = static_norm(g, NormSpec(NormFlavor.ES_LATTICE, -1.0, 0.5))
    integ = static_norm(g, NormSpec(NormFlavor.ES_INTEGRAL, -1.0, 0.5))
    worst = max(worst, lat / integ, integ / lat)
bound = 2.0 ** 1 * (1 + math.sqrt(1)) ** 0.5
print(f"  worst ratio over 50 fields: {worst:.3f} (bound {bound:.3f})")
