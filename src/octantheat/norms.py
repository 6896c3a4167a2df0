"""Weighted spectral norms on frequency fields and space-time trajectories.

Static flavors on a field f̂:

* ``ES_INTEGRAL``  — || <xi>^sigma 2^{s|xi|} f̂ ||_{L2}, with |xi| the l1
  norm and <xi> the Euclidean bracket, evaluated as a Riemann sum.
* ``ES_LATTICE``   — the unit-cube equivalent ( sum_k 2^{2s|k|} <k>^{2 sigma}
  ||f̂||^2_{L2(Q_k)} )^{1/2}.
* ``E21``          — sum_k 2^{s|k|} ||f̂||_{L2(Q_k)} (takes no sigma).
* ``HSIGMA``       — the Sobolev norm || <xi>^sigma f̂ ||_{L2} (takes no s).

Time-space norms take the L^gamma_t norm per cube first (trapezoid in
time, supremum for gamma = inf), then the weighted l^q sum over cubes;
gamma = inf, q = 1 is the sup-in-time l1 norm sum_k 2^{s|k|} sup_t
||u||_{L2(Q_k)} of the iteration's error estimate.  All evaluations are
deterministic, fixed-order reductions.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .lattice import FrequencyField, FrequencyGrid, cube_l2_table

__all__ = [
    "NormFlavor",
    "NormSpec",
    "TimeSpaceNormSpec",
    "SpaceTimeField",
    "static_norm",
    "timespace_norm",
]


class NormFlavor(str, enum.Enum):
    ES_INTEGRAL = "ES_INTEGRAL"
    ES_LATTICE = "ES_LATTICE"
    E21 = "E21"
    HSIGMA = "HSIGMA"


@dataclass(frozen=True)
class NormSpec:
    """Which static norm: E21 takes no sigma, HSIGMA no s; an absent one is 0.0."""

    flavor: NormFlavor
    s: float | None = None
    sigma: float | None = None

    def __post_init__(self) -> None:
        flavor = NormFlavor(self.flavor)
        unread = {NormFlavor.E21: "sigma", NormFlavor.HSIGMA: "s"}.get(flavor)
        if unread and getattr(self, unread) is not None:
            raise ValueError(f"{unread} is not a parameter of the {flavor.value} norm")
        for key, value in (("flavor", flavor), ("s", self.s), ("sigma", self.sigma)):
            object.__setattr__(self, key, 0.0 if value is None else value)  # -0.0 kept


@dataclass(frozen=True)
class TimeSpaceNormSpec:
    """Time-space norm: weighted l^q over cubes of per-cube L^gamma_t L^2."""

    gamma: float
    q: int
    s: float = 0.0
    sigma: float = 0.0

    def __post_init__(self) -> None:
        if not (self.gamma >= 1):
            raise ValueError("gamma must lie in [1, inf]")
        if self.q not in (1, 2):
            raise ValueError("q must be 1 or 2")


@dataclass(frozen=True, eq=False)
class SpaceTimeField:
    """A frequency field per node of a uniform time grid on [0, T]."""

    grid: FrequencyGrid
    tgrid: np.ndarray
    values: np.ndarray  # shape (nt, *grid.shape)

    def __post_init__(self) -> None:
        tg = np.ascontiguousarray(np.asarray(self.tgrid, dtype=float))
        if tg.ndim != 1 or tg.size < 2:
            raise ValueError("tgrid must hold at least two nodes")
        steps = np.diff(tg)
        if np.any(steps <= 0) or abs(steps.max() - steps.min()) > 1e-9 * steps.max():
            raise ValueError("tgrid must be uniform and increasing")
        v = np.ascontiguousarray(np.asarray(self.values, dtype=np.complex128))
        if v.shape != (tg.size, *self.grid.shape):
            raise ValueError(
                f"values shape {v.shape} != (nt, *grid.shape) "
                f"{(tg.size, *self.grid.shape)}"
            )
        object.__setattr__(self, "tgrid", tg)
        object.__setattr__(self, "values", v)

    @property
    def nt(self) -> int:
        return self.tgrid.size

    @property
    def T(self) -> float:
        return float(self.tgrid[-1])

    def frame(self, i: int) -> FrequencyField:
        return FrequencyField(self.grid, self.values[i])

    def __sub__(self, other: "SpaceTimeField") -> "SpaceTimeField":
        if self.grid != other.grid or self.nt != other.nt:
            raise ValueError("space-time fields must share grid and tgrid")
        return SpaceTimeField(self.grid, self.tgrid, self.values - other.values)


def _lattice_weights(grid: FrequencyGrid, s: float, sigma: float) -> np.ndarray:
    return 2.0 ** (s * grid.lattice_l1()) * grid.lattice_bracket() ** sigma


def static_norm(f: FrequencyField, spec: NormSpec) -> float:
    """Evaluate a static norm; always finite and nonnegative."""
    grid = f.grid
    hd = grid.h**grid.d
    flavor = spec.flavor
    if flavor in (NormFlavor.ES_INTEGRAL, NormFlavor.HSIGMA):  # HSIGMA's s is 0.0
        w = 2.0 ** (spec.s * grid.l1()) * (1.0 + grid.euclid_sq()) ** (spec.sigma / 2)
        return float(np.sqrt(np.sum((w * np.abs(f.values)) ** 2) * hd))
    table = cube_l2_table(f.values, grid)
    if flavor is NormFlavor.ES_LATTICE:
        w = _lattice_weights(grid, spec.s, spec.sigma)
        return float(np.sqrt(np.sum((w * table) ** 2)))
    if flavor is NormFlavor.E21:
        return _weighted_cube_sum(table, grid, spec.s)
    raise ValueError(f"unknown flavor {flavor}")


def timespace_norm(u: SpaceTimeField, spec: TimeSpaceNormSpec) -> float:
    """( sum_k 2^{s|k|q} <k>^{sigma q} ||u||^q_{L^gamma_t L2(Q_k)} )^{1/q},
    L^gamma_t by the trapezoid rule on u's time grid (the sup for inf)."""
    table, gamma = cube_l2_table(u.values, u.grid), spec.gamma
    per_cube = table.max(axis=0) if math.isinf(gamma) else \
        np.trapezoid(table**gamma, u.tgrid, axis=0) ** (1.0 / gamma)
    w = _lattice_weights(u.grid, spec.s, spec.sigma)
    return float(np.sum((w * per_cube) ** spec.q)) ** (1.0 / spec.q)


def _weighted_cube_sum(table: np.ndarray, grid: FrequencyGrid, s: float) -> float:
    """sum_k 2^{s|k|} table[k] over the unit cubes: E21 and the Picard
    trace's increment and error norms."""
    return float(np.sum(_lattice_weights(grid, s, 0.0) * table))  # <k>^0 = 1.0
