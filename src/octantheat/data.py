"""Fourier-side initial-data families, dilation operators, and the
scale-factor selection that turns large data into small data.

Data kinds
----------
Each kind's sampler in ``DATA_KINDS`` takes the grid and exactly the
parameters shown with their defaults; any other raises ValueError.

* ``EXP_HALFLINE(amplitude=1)``: v0(xi) = A e^xi on xi >= 1 (d = 1), the
  golden reference datum with a closed-form band solution.
* ``OCTANT_BUMP(eps0=1, width=0.5, amplitude=1)``: A on the box
  [eps0, eps0 + width)^d.
* ``HALFLINE_DERIVATIVE(amplitude=1, deriv_order=1, shift=1)``:
  A (i (xi - shift))^deriv_order on xi >= shift (d = 1), the Fourier side of a
  modulated derivative of delta(x) + 2i/x.
* ``INFLATION_PAIR(pair_k=16, s=-1, m=2)``: the +/-k indicator pair with
  amplitude 2^{-s d k / 2} whose cross-convolution piles up near the
  origin; the negative piece is carried as a separate mirrored field and
  is rejected by every solver gate.
* ``INFLATION_BUMP(scale_n=8, sigma=0)``: N^{-sigma - d/2} per-axis
  indicator of [N/2d, N/d), the Sobolev-scaled datum of the H-norm
  inflation probe.

Dilations act on the Fourier side: x -> lam^a f(lam x) becomes
v(xi) -> lam^{a-d} v(xi/lam), resampled axis by axis onto a target grid by
a blocked linear interpolation that keeps half-open-cell supports exact.
"""
from __future__ import annotations

import enum
import inspect
import math
from dataclasses import dataclass

import numpy as np

from .lattice import (
    FrequencyField,
    FrequencyGrid,
    make_grid,
)
from .norms import NormFlavor, NormSpec, SpaceTimeField, static_norm

__all__ = [
    "InitialDataKind",
    "InitialDataSpec",
    "IllposedPair",
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
    INFLATION_PAIR = "INFLATION_PAIR"
    INFLATION_BUMP = "INFLATION_BUMP"


@dataclass(frozen=True, eq=False)
class IllposedPair:
    """Positive piece plus mirrored negative piece of the sign-pair datum."""

    pos: FrequencyField
    neg: FrequencyField  # mirrored=True: stored values sample v(-xi)
    amplitude: float
    pair_k: int


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


def _inflation_pair(grid: FrequencyGrid, /, pair_k: int = 16, s: float = -1.0,
                    m: int = 2) -> IllposedPair:
    k, d = pair_k, grid.d
    if m < 2:
        raise ValueError("INFLATION_PAIR needs m >= 2")
    amp = 2.0 ** (-s * d * k / 2.0)
    pos_hi = (m - 1) * k + 0.5
    neg_w = 1.0 / (2.0 * (m - 1))
    _check_cover(grid, pos_hi, "INFLATION_PAIR positive piece")
    _check_cover(grid, k + neg_w, "INFLATION_PAIR negative piece")
    if neg_w < grid.h - 1e-12:
        raise ValueError("grid too coarse for the negative piece width")
    pos = FrequencyField(grid, amp * _indicator_box(grid, (m - 1) * k, pos_hi))
    # stored as g(xi) = v(-xi): support [k, k + 1/(2(m-1)))
    neg = FrequencyField(grid, amp * _indicator_box(grid, k, k + neg_w), mirrored=True)
    return IllposedPair(pos, neg, amp, k)


def _inflation_bump(grid: FrequencyGrid, /, scale_n: int = 8,
                    sigma: float = 0.0) -> FrequencyField:
    N, d = scale_n, grid.d
    if N < 1:
        raise ValueError("INFLATION_BUMP needs a positive scale")
    _check_cover(grid, N / d, "INFLATION_BUMP")
    amp = float(N) ** (-sigma - d / 2.0)
    return FrequencyField(grid, amp * _indicator_box(grid, N / (2.0 * d), N / d))


# kind -> sampler(grid, /, **params); its keyword parameters, defaults and
# type hints are the kind's whole parameter schema
DATA_KINDS = {
    InitialDataKind.EXP_HALFLINE: _exp_halfline,
    InitialDataKind.OCTANT_BUMP: _octant_bump,
    InitialDataKind.HALFLINE_DERIVATIVE: _halfline_derivative,
    InitialDataKind.INFLATION_PAIR: _inflation_pair,
    InitialDataKind.INFLATION_BUMP: _inflation_bump,
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


def make_initial_data(
    spec: InitialDataSpec, grid: FrequencyGrid
) -> FrequencyField | IllposedPair:
    """Sample the requested datum on ``grid``.

    Solver-bound kinds are sampled in the octant, each from its own
    support threshold (eps0, 1 or the shift) upward; the solvers check
    their support gates when they run.  ``INFLATION_PAIR`` returns an
    :class:`IllposedPair`, which no solver accepts.
    """
    return DATA_KINDS[spec.kind](grid, **spec.params)


def scaled_grid(grid: FrequencyGrid, lam: int) -> FrequencyGrid:
    """Index-preserving dilated grid (lam * xi_max, lam * h).

    Sample i of the output sits at lam times sample i of the input, so
    dilation becomes an exact per-index map.  Requires lam | 1/h.
    """
    if int(lam) != lam or lam < 1:
        raise ValueError("scaled_grid needs a positive integer factor")
    lam = int(lam)
    if grid.n_sub % lam != 0:
        raise ValueError(
            f"scale factor {lam} must divide 1/h = {grid.n_sub} for cube alignment"
        )
    return make_grid(grid.d, grid.xi_max * lam, grid.h * lam)


def _resample(values: np.ndarray, grid: FrequencyGrid, at: np.ndarray) -> np.ndarray:
    """Support-aware linear interpolation of the last ``grid.d`` axes of
    ``values``, sampled on ``grid``, onto the coordinates ``at`` along each.

    A point belongs to the half-open cell containing it; points whose cell
    carries a zero sample map to zero, so dilated supports stay exact.
    Within a support run, values are interpolated linearly, with one-sided
    extrapolation inside the top edge cell.  Rows share their source cells and
    are gathered in blocks of about 2^13 cells, which bounds the working memory.
    """
    n = grid.n
    cell = np.floor(at / grid.h + 1e-9).astype(int)
    inside = (cell >= 0) & (cell < n)
    cid = np.clip(cell, 0, n - 1)
    frac = at / grid.h - cid
    base = np.where(inside, cid, 0)
    nxt = np.clip(base + 1, 0, n - 1)
    prv = np.clip(base - 1, 0, n - 1)
    block = max(1, 2**13 // max(n, at.size))

    def last_axis(v: np.ndarray) -> np.ndarray:  # frees its copy of v on return
        flat = v.reshape(-1, n)
        out = np.empty((flat.shape[0], at.size), dtype=v.dtype)
        for lo in range(0, flat.shape[0], block):
            rows = flat[lo:lo + block]
            low, up, down = rows[:, base], rows[:, nxt], rows[:, prv]
            slope = np.where((up != 0) & (base + 1 < n), up - low,
                             np.where((down != 0) & (base > 0), low - down, 0.0))
            out[lo:lo + block] = np.where((low != 0) & inside, low + frac * slope, 0.0)
        return out.reshape(v.shape[:-1] + at.shape)

    for axis in range(values.ndim - grid.d, values.ndim):
        values = np.moveaxis(last_axis(np.moveaxis(values, axis, -1)), -1, axis)
    return values


def scale_data(
    f: FrequencyField,
    lam: float,
    a: float,
    out_grid: FrequencyGrid | None = None,
) -> FrequencyField:
    """Fourier side of x -> lam^a f(lam x): v(xi) -> lam^{a-d} v(xi/lam).

    The default target keeps the spacing and extends the axis to cover the
    dilated support; pass ``scaled_grid(grid, lam)`` for the exact
    index-preserving map.  Raises if the dilated support overflows the
    target grid.
    """
    if lam <= 0:
        raise ValueError("scale factor must be positive")
    grid = f.grid
    if out_grid is None:
        out_grid = make_grid(grid.d, max(1, math.ceil(lam * grid.xi_max)), grid.h)
    if out_grid.d != grid.d:
        raise ValueError("target grid dimension mismatch")
    nz = f.values != 0
    if nz.any():
        top = float(grid.linf()[nz].max()) + grid.h
        if lam * top > out_grid.xi_max + 1e-9:
            raise ValueError(
                f"dilated support reaches {lam * top}, beyond target extent "
                f"{out_grid.xi_max}"
            )
    vals = lam ** (a - grid.d) * _resample(f.values, grid, out_grid.axis / lam)
    return FrequencyField(out_grid, vals, f.mirrored)


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
    guards against misconfiguration.
    """
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

    expo = 2.0 / (m - 1) - d / 2.0 + max(sigma, 0.0)
    lam = math.floor(max(2.0, 1.0 / eps0)) + 1
    if lam > _LAM_CAP:
        raise RuntimeError("scale-factor search exceeded the safety cap")

    def crit(lam_: int) -> float:
        return C_fix * (lam_**expo * 2.0 ** (s * (lam_ - 1) * eps0) * norm) ** (m - 1)

    while crit(lam) > 0.01:
        lam += 1
        if lam > _LAM_CAP:
            raise RuntimeError("scale-factor search exceeded the safety cap")
    return ScalingPlan(lam=lam, a=2.0 / (m - 1), s0=lam * s,
                       smallness_margin=crit(lam))


def rescale_solution(
    u,
    lam: float,
    a: float,
    out_grid: FrequencyGrid | None = None,
):
    """Undo a dilation on a trajectory: frames pick up lam^{d-a} v(lam xi)
    and the time axis dilates to [0, lam^2 T].

    With ``out_grid`` the inverse of :func:`scaled_grid` the per-index map
    is exact; otherwise values are resampled like :func:`scale_data`.
    """
    if lam <= 0:
        raise ValueError("scale factor must be positive")
    grid = u.grid
    if out_grid is None:
        xi_out = grid.xi_max / lam
        if abs(xi_out - round(xi_out)) > 1e-9 or round(xi_out) < 1:
            raise ValueError(
                "cannot infer an aligned output grid; pass out_grid explicitly"
            )
        out_grid = make_grid(grid.d, int(round(xi_out)), grid.h / lam)
    if out_grid.d != grid.d:
        raise ValueError("target grid dimension mismatch")
    tgrid_out = lam**2 * u.tgrid
    frames = lam ** (grid.d - a) * _resample(u.values, grid, out_grid.axis * lam)
    return SpaceTimeField(out_grid, tgrid_out, frames)
