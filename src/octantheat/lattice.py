"""Frequency-octant lattices: uniform grids, unit-cube projections,
m-fold discrete convolution, support bookkeeping, and field files.

A field lives on a uniform grid over the frequency octant [0, xi_max)^d.
Cells are half-open, samples sit at left edges, and the cell count per
unit cube is an integer, so the unit-cube projections form an exact
partition of every field.  Discrete convolution has a Riemann weight h^d
per pairwise convolution; an optional run-aware trapezoid weighting raises
the quadrature order for data that are smooth within their support.
:func:`convolve` sums one pair of fields directly; :func:`convolve_frames`
convolves (nt, *grid) frame stacks by zero-padded FFTs, with the direct
sum's exact zeros and its values up to FFT round-off.

All operations are pure functions on immutable inputs and use fixed-order
reductions, so repeated runs are bit-identical.  A field file holds one text
row per cell with each value's ``repr``, built and parsed as whole arrays.
"""
from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import fft as _fft
from scipy.signal import convolve as _sig_convolve

__all__ = [
    "FrequencyGrid",
    "FrequencyField",
    "SupportStats",
    "make_grid",
    "box_project",
    "convolve",
    "convolve_frames",
    "convolve_power",
    "support_stats",
    "save_field",
    "load_field",
]

RULES = ("riemann", "trapezoid")  # convolution quadrature rules


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform grid over the frequency octant [0, xi_max)^d.

    Parameters
    ----------
    d : int
        Dimension, 1 <= d <= 3.
    xi_max : int
        Per-axis extent; unit cubes must tile the domain exactly.
    h : float
        Grid spacing; 1/h must be a positive integer so that every unit
        cube k + [0,1)^d is a union of whole cells.
    """

    d: int
    xi_max: int
    h: float

    def __post_init__(self) -> None:
        if self.d not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.d}")
        if not float(self.xi_max).is_integer() or self.xi_max < 1:
            raise ValueError(f"xi_max must be a positive integer, got {self.xi_max}")
        object.__setattr__(self, "xi_max", int(self.xi_max))
        inv = 1.0 / self.h if self.h > 0 else 0.0
        n_sub = int(round(inv))
        if n_sub < 1 or abs(inv - n_sub) > 1e-9 * inv:
            raise ValueError(
                f"1/h must be a positive integer (cube alignment), got h={self.h}"
            )
        object.__setattr__(self, "h", 1.0 / n_sub)

    @property
    def n_sub(self) -> int:
        """Cells per unit length (1/h)."""
        return int(round(1.0 / self.h))

    @property
    def n(self) -> int:
        """Cells per axis."""
        return self.xi_max * self.n_sub

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d

    @property
    def axis(self) -> np.ndarray:
        """Sample coordinates along one axis (left cell edges)."""
        return np.arange(self.n) * self.h

    def coords(self) -> list[np.ndarray]:
        """Per-axis coordinate arrays broadcastable to ``shape``."""
        return _axis_views(self.axis, self.d)

    def l1(self) -> np.ndarray:
        """|xi| = sum_j xi(j) per cell (octant, so no absolute values needed)."""
        return sum(self.coords())

    def linf(self) -> np.ndarray:
        """|xi|_inf per cell."""
        return functools.reduce(np.maximum, self.coords())

    def euclid_sq(self) -> np.ndarray:
        """Squared Euclidean norm per cell (the Laplacian symbol)."""
        return sum(c * c for c in self.coords())

    def lattice_coords(self) -> list[np.ndarray]:
        """Per-axis unit-cube lattice indices k(j), broadcastable to
        (xi_max,)*d."""
        return _axis_views(np.arange(self.xi_max, dtype=float), self.d)

    def lattice_l1(self) -> np.ndarray:
        """|k| over the unit-cube lattice, shape (xi_max,)*d."""
        return sum(self.lattice_coords())

    def lattice_bracket(self) -> np.ndarray:
        """<k> = (1 + |k|_2^2)^(1/2) over the unit-cube lattice."""
        return np.sqrt(1.0 + sum(k * k for k in self.lattice_coords()))


def _axis_views(axis: np.ndarray, d: int) -> list[np.ndarray]:
    """``axis`` laid along each of d axes, broadcastable to (len(axis),)*d."""
    return [axis.reshape([-1 if b == a else 1 for b in range(d)]) for a in range(d)]


@dataclass(frozen=True, eq=False)
class FrequencyField:
    """Complex samples of a Fourier-side function on a :class:`FrequencyGrid`.

    ``mirrored=True`` marks a field whose stored values are samples of
    v(-xi); it is used only to carry the negative-frequency piece of the
    sign-pair inflation datum and is rejected by every solver gate.
    """

    grid: FrequencyGrid
    values: np.ndarray
    mirrored: bool = False

    def __post_init__(self) -> None:
        v = np.ascontiguousarray(np.asarray(self.values, dtype=np.complex128))
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(v.view(np.float64))):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", v)

    def copy(self) -> "FrequencyField":
        return FrequencyField(self.grid, self.values.copy(), self.mirrored)


@dataclass(frozen=True)
class SupportStats:
    """Distances from the origin to the numerical support of a field."""

    min_l1: float
    min_linf: float
    in_octant: bool
    tol: float
    empty: bool = False


def make_grid(d: int, xi_max: int, h: float) -> FrequencyGrid:
    """Build a frequency grid; rejects spacings that break cube alignment."""
    return FrequencyGrid(d, xi_max, h)


def box_project(f: FrequencyField, k) -> FrequencyField:
    """Restrict ``f`` to the unit cube k + [0,1)^d, zero elsewhere.

    Out-of-range lattice points give the zero field.  Summing over all k
    reconstructs ``f`` bitwise.
    """
    k = np.atleast_1d(np.asarray(k, dtype=int))
    if k.size != f.grid.d:
        raise ValueError(f"lattice point must have {f.grid.d} components")
    out = np.zeros_like(f.values)
    if np.any(k < 0) or np.any(k >= f.grid.xi_max):
        return FrequencyField(f.grid, out, f.mirrored)
    ns = f.grid.n_sub
    sl = tuple(slice(ki * ns, (ki + 1) * ns) for ki in k)
    out[sl] = f.values[sl]
    return FrequencyField(f.grid, out, f.mirrored)


def cube_l2_table(values: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    """L2 norm of a value array over every unit cube, shape (xi_max,)*d.

    Accepts leading batch axes (e.g. time frames).
    """
    lead = values.shape[: values.ndim - grid.d]
    X, ns = grid.xi_max, grid.n_sub
    blocked = values.reshape(*lead, *((X, ns) * grid.d))
    sq = np.abs(blocked) ** 2
    # sum over the sub-cell axes, which sit at odd positions after the lead
    sub_axes = tuple(len(lead) + 1 + 2 * a for a in range(grid.d))
    return np.sqrt(np.sum(sq, axis=sub_axes) * grid.h**grid.d)


def _shifted_nonzero(mask: np.ndarray, axis: int, step: int) -> np.ndarray:
    """mask of "neighbor at offset -step along axis is nonzero" (zero fill)."""
    out = np.zeros_like(mask)
    src = [slice(None)] * mask.ndim
    dst = [slice(None)] * mask.ndim
    if step == 1:  # neighbor to the left
        dst[axis] = slice(1, None)
        src[axis] = slice(None, -1)
    else:  # neighbor to the right
        dst[axis] = slice(None, -1)
        src[axis] = slice(1, None)
    out[tuple(dst)] = mask[tuple(src)]
    return out


def _rule_terms(f: np.ndarray, g: np.ndarray, d: int, rule: str):
    """Operand pairs whose plain convolutions over the last ``d`` axes sum
    to the rule's convolution, and the weight of that sum in units of h^d.

    The trapezoid rule has one pair per sign pattern: along every axis a
    product keeps its half weight only where the f factor's neighbor on one
    side and the g factor's neighbor on the other side are nonzero (the
    opposite pattern, at the mirrored position).  ``g is f`` shares operands.
    """
    if rule not in RULES:
        raise ValueError(f"unknown convolution rule {rule!r}")
    if rule == "riemann":
        return [(f, g)], 1.0

    def masked(x: np.ndarray) -> list[np.ndarray]:
        nonzero = x != 0
        out = []
        for signs in itertools.product((1, -1), repeat=d):
            keep = True
            for axis, s in enumerate(signs, start=x.ndim - d):
                keep = keep & _shifted_nonzero(nonzero, axis, s)
            out.append(x * keep)
        return out

    fm = masked(f)
    return list(zip(fm, reversed(fm if g is f else masked(g)))), 1.0 / 2**d


def convolve(
    f: FrequencyField,
    g: FrequencyField,
    rule: str = "riemann",
    warn_on_truncation: bool = True,
) -> FrequencyField:
    """Discrete convolution of two octant fields by direct summation,
    truncated at xi_max.

    ``rule="riemann"`` weights every product by h^d (exact for indicator
    data sampled on whole cells).  ``rule="trapezoid"`` halves the weight
    of the first and last nonzero product of each contiguous run along
    every axis, which is second-order accurate for data smooth within
    their support.  Octant support only moves upward, so truncation never
    corrupts values below xi_max.
    """
    if f.grid != g.grid:
        raise ValueError("convolve requires a shared grid")
    if f.mirrored or g.mirrored:
        raise ValueError("convolve is defined for octant-stored fields only")
    grid = f.grid
    terms, weight = _rule_terms(f.values, g.values, grid.d, rule)
    full = np.zeros(tuple(2 * n - 1 for n in grid.shape), dtype=np.complex128)
    for fm, gm in terms:
        full = full + _sig_convolve(fm, gm, mode="full", method="direct")
    full *= grid.h**grid.d * weight

    cut = tuple(slice(0, n) for n in grid.shape)
    if warn_on_truncation:
        spill = full.copy()
        spill[cut] = 0.0
        if np.any(spill != 0):
            warnings.warn("convolution support reaches xi_max; band of validity "
                          "shrinks", RuntimeWarning, stacklevel=2)
    return FrequencyField(grid, full[cut])


def convolve_frames(
    a: np.ndarray, b: np.ndarray, grid: FrequencyGrid, rule: str = "riemann"
) -> np.ndarray:
    """Frame-by-frame :func:`convolve` of two (nt, *grid.shape) stacks,
    truncated at xi_max, by zero-padded FFTs over the grid axes.

    Grid axes are padded to 2n, so the cyclic convolution is the linear one
    on [0, n).  The rule's operand pairs are summed in the frequency domain
    and inverted once.  As in the direct sum, cells outside the
    combinatorial support (the count convolution of the operands' nonzero
    masks) are exact zeros; inside it the values agree with the direct sum
    to FFT round-off.  Blocks of about 2^16 padded cells bound the working
    memory.
    """
    if a.shape != b.shape or a.shape[1:] != grid.shape:
        raise ValueError(f"frame stacks must both have shape (nt, *{grid.shape}), "
                         f"got {a.shape} and {b.shape}")
    out = np.zeros(a.shape, dtype=np.complex128)
    axes = tuple(range(1, grid.d + 1))
    pad = tuple(2 * n for n in grid.shape)
    cut = (slice(None),) + tuple(slice(0, n) for n in grid.shape)
    block = max(1, 2**16 // math.prod(pad))
    for lo in range(0, a.shape[0], block):
        fa = a[lo:lo + block]
        fb = fa if b is a else b[lo:lo + block]
        # when every frame has the same support, one frame's counts serve all
        same = all(np.array_equal(m.any(0), m.all(0)) for m in (fa != 0, fb != 0))
        frames = 1 if same else fa.shape[0]
        terms, weight = _rule_terms(fa, fb, grid.d, rule)
        ops = {id(x): x for pair in terms for x in pair}  # one FFT per operand
        hat = {k: _fft.fftn(x, pad, axes) for k, x in ops.items()}
        cnt = {k: _fft.rfftn(x[:frames] != 0, pad, axes) for k, x in ops.items()}
        spec = sum(hat[id(f)] * hat[id(g)] for f, g in terms)
        counts = sum(cnt[id(f)] * cnt[id(g)] for f, g in terms)
        spec *= grid.h**grid.d * weight
        np.copyto(out[lo:lo + block],
                  _fft.ifftn(spec, pad, axes, overwrite_x=True)[cut],
                  where=_fft.irfftn(counts, pad, axes)[cut] > 0.5)
    return out


def convolve_power(
    f: FrequencyField,
    m: int,
    rule: str = "riemann",
    warn_on_truncation: bool = True,
) -> FrequencyField:
    """m-fold self-convolution by repeated pairwise convolution (m >= 1;
    ``f`` itself for m = 1)."""
    if m < 1 or int(m) != m:
        raise ValueError(f"power must be a positive integer, got {m}")
    out = f  # the first product f * f shares its operands
    for _ in range(int(m) - 1):
        out = convolve(out, f, rule=rule, warn_on_truncation=warn_on_truncation)
    return out


def support_stats(f: FrequencyField, tol: float | None = None) -> SupportStats:
    """Scan cells with |value| > tol and report support distances.

    Default tolerance is 1e-13 * max|value| (below quadrature noise).
    """
    mags = np.abs(f.values)
    if tol is None:
        tol = 1e-13 * (float(mags.max()) if mags.size else 0.0)
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    mask = mags > tol
    if not np.any(mask):
        return SupportStats(np.inf, np.inf, True, tol, empty=True)
    l1 = f.grid.l1()[mask]
    li = f.grid.linf()[mask]
    in_octant = (not f.mirrored) or float(li.max()) == 0.0
    return SupportStats(float(l1.min()), float(li.min()), in_octant, tol)


def save_field(f: FrequencyField, path) -> None:
    """Write a field as text: header "d h xi_max", then one row per cell
    "i0[,i1[,i2]],re,im" in lexicographic index order, values as ``repr``."""
    grid = f.grid
    cells = itertools.product([f"{i}," for i in range(grid.n)], repeat=grid.d)
    rows = map("{}{!r},{!r}\n".format, map("".join, cells),
               f.values.real.ravel().tolist(), f.values.imag.ravel().tolist())
    with open(path, "w") as fh:
        fh.write(f"{grid.d} {grid.h!r} {grid.xi_max}\n" + "".join(rows))


def load_field(path) -> FrequencyField:
    """Read a field written by :func:`save_field`.  Every cell needs exactly
    one row: blank, malformed, out-of-range, repeated or missing rows raise
    ValueError."""
    with open(path) as fh:
        head, body = fh.readline().split(), fh.read()
    if len(head) != 3:
        raise ValueError(f"malformed field header in {path}")
    grid = make_grid(int(head[0]), int(head[2]), float(head[1]))
    if body.startswith("\n") or "\n\n" in body:  # loadtxt would skip them
        raise ValueError(f"blank field row in {path}")
    dtype = [("idx", np.int64, (grid.d,)), ("val", np.float64, (2,))]
    parse = functools.partial(np.loadtxt, dtype=dtype, comments=None, delimiter=",",
                              ndmin=1)
    lines = body.split("\n")  # only the last can be empty
    try:  # on an empty body loadtxt warns
        rows = parse(lines) if body else np.zeros(0, dtype)
    except ValueError:  # re-parse line by line to name the first bad one
        for line, text in enumerate(filter(None, lines), start=2):
            try:
                parse([text])
            except ValueError as exc:  # without numpy's own row count
                raise ValueError(f"malformed field row in {path}: line {line}: "
                                 + str(exc).split(" at row")[0]) from None
        raise
    bad = np.any((rows["idx"] < 0) | (rows["idx"] >= grid.n), axis=1)
    if bad.any():
        raise ValueError(f"out-of-range field row in {path}: line {bad.argmax() + 2}")
    cell = np.ravel_multi_index(tuple(rows["idx"].T), grid.shape)
    count = np.bincount(cell, minlength=math.prod(grid.shape))
    if count.max() > 1:
        raise ValueError(f"repeated field row in {path}: the cell of line "
                         f"{(count[cell] > 1).argmax() + 2} has {count.max()} rows")
    if rows.size != count.size:
        raise ValueError(f"field file {path} has {rows.size} of {count.size} rows")
    vals = np.zeros(count.size, dtype=np.complex128)
    vals.real[cell], vals.imag[cell] = rows["val"].T
    return FrequencyField(grid, vals.reshape(grid.shape))
