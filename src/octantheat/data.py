"""Fourier-side initial-data families, dilation operators, and the
scale-factor selection that turns large data into small data.

Data kinds
----------
Each kind's sampler in ``DATA_KINDS`` takes the grid and exactly the
parameters shown with their defaults; any other raises ValueError.  Every
kind samples a plain :class:`FrequencyField` supported in the octant (the
+/-k sign pair of the norm-inflation probe is no datum: ``illposed_probe_E``
builds its two pieces itself).

* ``EXP_HALFLINE(amplitude=1)``: v0(xi) = A e^xi on xi >= 1 (d = 1), the
  golden reference datum with a closed-form band solution.
* ``OCTANT_BUMP(eps0=1, width=0.5, amplitude=1)``: A on the box
  [eps0, eps0 + width)^d.
* ``HALFLINE_DERIVATIVE(amplitude=1, deriv_order=1, shift=1)``:
  A (i (xi - shift))^deriv_order on xi >= shift (d = 1), the Fourier side of a
  modulated derivative of delta(x) + 2i/x.

Dilations act on the Fourier side: x -> lam^a f(lam x) becomes
v(xi) -> lam^{a-d} v(xi/lam).  For an integer lam that divides 1/h, sample
i of ``scaled_grid(grid, lam)`` sits at lam times sample i of ``grid``, so a
dilation and its undo relabel the grid and scale the values by one factor;
nothing is interpolated, and no other lam is accepted.
"""
from __future__ import annotations

import enum
import inspect
import math
from dataclasses import dataclass

import numpy as np

from .engine import _integer
from .lattice import (
    FrequencyField,
    FrequencyGrid,
    make_grid,
)
from .norms import NormFlavor, NormSpec, SpaceTimeField, static_norm

__all__ = [
    "InitialDataKind",
    "InitialDataSpec",
    "ScalingPlan",
    "make_initial_data",
    "scale_data",
    "scaled_grid",
    "choose_lambda",
    "rescale_solution",
]


class InitialDataKind(str, enum.Enum):
    EXP_HALFLINE = "EXP_HALFLINE"
    OCTANT_BUMP = "OCTANT_BUMP"
    HALFLINE_DERIVATIVE = "HALFLINE_DERIVATIVE"


@dataclass(frozen=True)
class ScalingPlan:
    """Scale factor, amplitude exponent and rescaled weight index."""

    lam: int
    a: float
    s0: float
    smallness_margin: float


def _indicator_box(grid: FrequencyGrid, lo: float, hi: float) -> np.ndarray:
    """Product of per-axis indicators of [lo, hi) sampled at left edges."""
    out = np.ones(grid.shape)
    for c in grid.coords():
        out = out * ((c >= lo - 1e-12) & (c < hi - 1e-12))
    return out


def _check_cover(grid: FrequencyGrid, hi: float, what: str) -> None:
    if hi > grid.xi_max + 1e-12:
        raise ValueError(
            f"{what} support reaches {hi}, beyond the grid extent {grid.xi_max}"
        )


def _exp_halfline(grid: FrequencyGrid, /, amplitude: complex = 1.0) -> FrequencyField:
    if grid.d != 1:
        raise ValueError("EXP_HALFLINE is a one-dimensional datum")
    xi = grid.axis
    return FrequencyField(grid, amplitude * np.exp(xi) * (xi >= 1.0 - 1e-12))


def _octant_bump(grid: FrequencyGrid, /, eps0: float = 1.0, width: float = 0.5,
                 amplitude: complex = 1.0) -> FrequencyField:
    if eps0 <= 0 or width <= 0:
        raise ValueError("OCTANT_BUMP needs eps0 > 0 and width > 0")
    _check_cover(grid, eps0 + width, "OCTANT_BUMP")
    return FrequencyField(grid, amplitude * _indicator_box(grid, eps0, eps0 + width))


def _halfline_derivative(grid: FrequencyGrid, /, amplitude: complex = 1.0,
                         deriv_order: int = 1, shift: float = 1.0) -> FrequencyField:
    if grid.d != 1:
        raise ValueError("HALFLINE_DERIVATIVE is a one-dimensional datum")
    if deriv_order < 0:
        raise ValueError("derivative order must be nonnegative")
    xi = grid.axis
    mask = xi >= shift - 1e-12
    return FrequencyField(grid, amplitude * (1j * (xi - shift)) ** deriv_order * mask)


# kind -> sampler(grid, /, **params); its keyword parameters, defaults and
# type hints are the kind's whole parameter schema
DATA_KINDS = {
    InitialDataKind.EXP_HALFLINE: _exp_halfline,
    InitialDataKind.OCTANT_BUMP: _octant_bump,
    InitialDataKind.HALFLINE_DERIVATIVE: _halfline_derivative,
}


@dataclass(frozen=True, init=False)
class InitialDataSpec:
    """A datum kind and the keyword parameters of its sampler in
    ``DATA_KINDS``; a parameter the kind does not take raises ValueError."""

    kind: InitialDataKind
    params: dict

    def __init__(self, kind: InitialDataKind, **params) -> None:
        kind = InitialDataKind(kind)
        takes = tuple(inspect.signature(DATA_KINDS[kind]).parameters)[1:]
        unknown = sorted(set(params) - set(takes))
        if unknown:
            raise ValueError(f"{kind.value} takes no parameter(s) "
                             f"{', '.join(unknown)}; it takes {', '.join(takes)}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", params)


def make_initial_data(spec: InitialDataSpec, grid: FrequencyGrid) -> FrequencyField:
    """Sample the requested datum on ``grid``, in the octant, from its own
    support threshold upward; the solvers check their support gates when
    they run."""
    return DATA_KINDS[spec.kind](grid, **spec.params)


def scaled_grid(grid: FrequencyGrid, lam: int) -> FrequencyGrid:
    """Index-preserving dilated grid (lam * xi_max, lam * h).

    Sample i of the output sits at lam times sample i of the input, so
    dilation becomes an exact per-index map.  Requires lam | 1/h.
    """
    lam = _integer(lam, 1, "scaled_grid needs an integer factor")
    if grid.n_sub % lam != 0:
        raise ValueError(
            f"scale factor {lam} must divide 1/h = {grid.n_sub} for cube alignment"
        )
    return make_grid(grid.d, grid.xi_max * lam, grid.h * lam)


def _target(grid: FrequencyGrid, out_grid: FrequencyGrid | None) -> FrequencyGrid:
    """``grid``, which ``out_grid`` must equal when given."""
    if out_grid is not None and out_grid != grid:
        raise ValueError(f"out_grid {out_grid} is not the index-preserving grid {grid}")
    return grid


def scale_data(
    f: FrequencyField,
    lam: int,
    a: float,
    out_grid: FrequencyGrid | None = None,
) -> FrequencyField:
    """Fourier side of x -> lam^a f(lam x): v(xi) -> lam^{a-d} v(xi/lam).

    On ``scaled_grid(f.grid, lam)`` sample i sits at lam times sample i of
    ``f``, so the dilation relabels the grid and scales every value by
    lam^{a-d}, with no interpolation.  lam must be a positive integer that
    divides 1/h; ``out_grid``, if given, must be that grid.
    """
    lam = _integer(lam, 1, "scale_data needs an integer factor")
    grid = _target(scaled_grid(f.grid, lam), out_grid)
    vals = lam ** (a - grid.d) * f.values.view(np.float64)  # by parts: -0.0 stays
    return FrequencyField(grid, vals.view(np.complex128))


_LAM_CAP = 10**6  # choose_lambda's search bound


def choose_lambda(
    f: FrequencyField | float,
    s: float,
    sigma: float,
    m: int,
    eps0: float,
    C_fix: float,
) -> ScalingPlan:
    """Smallest integer lam > max(2, 1/eps0) making the dilated datum small.

    The criterion is C_fix * (lam^{2/(m-1) - d/2 + max(sigma, 0)}
    2^{s (lam-1) eps0} ||f||)^{m-1} <= 1/100, with d read from the field
    and ||f|| its ES_INTEGRAL norm at (s, sigma) (d = 1 when a bare norm
    value is passed).  Such a lam exists for every s < 0; a safety cap
    guards against misconfiguration.  This lam is the proof's criterion: a
    grid can hold the dilation only if 1/h is a multiple of lam (see
    :func:`scaled_grid`).  An m that is not an integer >= 2, or a
    non-finite parameter or norm, raises ValueError.
    """
    m = _integer(m, 2, "choose_lambda needs an integer m")
    if not all(math.isfinite(x) for x in (s, sigma, eps0, C_fix)):
        raise ValueError("s, sigma, eps0 and C_fix must be finite")
    if s >= 0:
        raise ValueError("scale selection requires s < 0")
    if eps0 <= 0 or C_fix <= 0:
        raise ValueError("eps0 and C_fix must be positive")
    if isinstance(f, FrequencyField):
        d = f.grid.d
        norm = static_norm(f, NormSpec(NormFlavor.ES_INTEGRAL, s=s, sigma=sigma))
    else:
        d = 1
        norm = float(f)
    if not 0 <= norm < math.inf:  # NaN fails it too
        raise ValueError(f"the datum's norm must be finite and nonnegative, got {norm}")

    expo = 2.0 / (m - 1) - d / 2.0 + max(sigma, 0.0)
    lam = math.floor(max(2.0, 1.0 / eps0)) + 1
    if lam > _LAM_CAP:
        raise RuntimeError("scale-factor search exceeded the safety cap")

    def crit(lam_: int) -> float:
        return C_fix * (lam_**expo * 2.0 ** (s * (lam_ - 1) * eps0) * norm) ** (m - 1)

    while not crit(lam) <= 0.01:  # a NaN criterion searches on to the cap
        lam += 1
        if lam > _LAM_CAP:
            raise RuntimeError("scale-factor search exceeded the safety cap")
    return ScalingPlan(lam=lam, a=2.0 / (m - 1), s0=lam * s,
                       smallness_margin=crit(lam))


def rescale_solution(
    u,
    lam: int,
    a: float,
    out_grid: FrequencyGrid | None = None,
):
    """Undo :func:`scale_data` on a trajectory: frames pick up
    lam^{d-a} v(lam xi) and the time axis dilates to [0, lam^2 T].

    The output grid G = (xi_max / lam, h / lam) is the one with
    ``scaled_grid(G, lam) == u.grid``, so the map relabels the grid and
    scales every value, with no interpolation.  lam must be a positive
    integer that divides xi_max; ``out_grid``, if given, must be G.
    """
    grid = u.grid
    lam = _integer(lam, 1, "rescale_solution needs an integer factor")
    if grid.xi_max % lam != 0:
        raise ValueError(f"scale factor {lam} must divide xi_max = {grid.xi_max}")
    out = _target(make_grid(grid.d, grid.xi_max // lam, grid.h / lam), out_grid)
    # a complex stack by parts, so -0.0 stays; a float64 stack is scaled as it is
    vals = lam ** (grid.d - a) * u.values.view(np.float64)
    return SpaceTimeField(out, lam**2 * u.tgrid, vals.view(u.values.dtype))
