"""Frequency-octant lattices: uniform grids, unit-cube projections,
m-fold discrete convolution, support bookkeeping, and field files.

A field lives on a uniform grid over the frequency octant [0, xi_max)^d.
Cells are half-open, samples sit at left edges, and the cell count per
unit cube is an integer, so the unit-cube projections form an exact
partition of every field.  Discrete convolution has a Riemann weight h^d
per pairwise convolution; an optional run-aware trapezoid weighting raises
the quadrature order for data that are smooth within their support.
:func:`convolve` and :func:`convolve_power` sum directly (``np.convolve``
in 1D, a shift-and-add over nonzero cells above; a trapezoid self-product
sums half its mirrored terms, twice), and :func:`convolve_frames` convolves
(nt, *grid) frame stacks by zero-padded FFTs.  Both kernels take from one
plan per pair of nonzero patterns each operand's support box (the cells
whose products can reach [0, n)) and the rule's operand masks.  The FFT
kernel keeps the direct sum's exact zeros (a count convolution kept with
the plan) and its values up to FFT round-off; the truncation warning
follows the combinatorial support, not the values.

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
from numpy import fft as _fft

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

    @functools.cached_property
    def n_sub(self) -> int:
        """Cells per unit length (1/h)."""
        return int(round(1.0 / self.h))

    @functools.cached_property
    def n(self) -> int:
        """Cells per axis."""
        return self.xi_max * self.n_sub

    @functools.cached_property
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


def _rule_terms(f: np.ndarray, g: np.ndarray, rule: str):
    """Operand pairs whose plain convolutions sum to the rule's
    convolution, and the weight of that sum in units of h^d.

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
        for signs in itertools.product((1, -1), repeat=x.ndim):
            keep = True
            for axis, s in enumerate(signs):
                keep = keep & _shifted_nonzero(nonzero, axis, s)
            out.append(x * keep)
        return out

    fm = masked(f)
    return list(zip(fm, reversed(fm if g is f else masked(g)))), 1.0 / 2**f.ndim


_SPILL = "convolution support reaches xi_max; band of validity shrinks"


@dataclass(frozen=True, eq=False)
class _Plan:
    """How one pair of nonzero patterns f, g convolves under a rule.

    Per axis, with a, b the patterns' first and A, B their last nonzero
    cells, only f on [a, min(A + 1, n - b)) and g on [b, min(B + 1, n - a))
    have products that land in [0, n).  ``terms`` holds the rule's operand
    masks, computed on the whole patterns and cut to those boxes; ``cells``
    is the output from a + b up and ``crop`` the part of the boxes' full
    convolution that lands there; ``pad`` is :func:`_next_fast_len` of that
    convolution's length per axis, so that a cyclic convolution of that
    length is the linear one.  ``scale`` is h^d times the rule's
    weight, and ``spills`` whether some product of a term lands at or beyond
    n on an axis.  There are no terms when a pattern is empty or a + b >= n
    on an axis.
    """

    spills: bool
    terms: tuple = ()
    fbox: tuple[slice, ...] = ()
    gbox: tuple[slice, ...] = ()
    cells: tuple[slice, ...] = ()
    crop: tuple[slice, ...] = ()
    pad: tuple[int, ...] = ()
    scale: float = 1.0

    @functools.cached_property
    def support(self) -> np.ndarray:
        """Which ``crop`` cells some product reaches (the count convolution
        of the masks), where the direct sum may be nonzero."""
        axes = tuple(range(len(self.pad)))
        # one object for both operands, so that equal masks share a transform
        spec = _spectrum(self.terms, True, True,
                         lambda x, m: _fft.rfftn(x * m, self.pad, axes))
        return _fft.irfftn(spec, self.pad, axes)[self.crop] > 0.5


@functools.lru_cache(maxsize=16)
def _plan(f_bits: bytes, g_bits: bytes, shape: tuple, h: float, rule: str) -> _Plan:
    """The :class:`_Plan` of two nonzero patterns, each packed by ``np.packbits``,
    on a grid of ``shape`` and spacing h; equal patterns share their masks."""
    f, g = (np.unpackbits(np.frombuffer(bits, np.uint8), count=math.prod(shape))
            .reshape(shape).astype(bool) for bits in (f_bits, g_bits))
    terms, weight = _rule_terms(f, f if g_bits == f_bits else g, rule)
    terms = [(fm, gm) for fm, gm in terms if fm.any() and gm.any()]
    n = shape[0]
    spills = any(np.any(np.argwhere(fm).max(0) + np.argwhere(gm).max(0) >= n)
                 for fm, gm in terms)
    if not terms:
        return _Plan(spills)
    (a, A), (b, B) = ((nz.min(0), nz.max(0)) for nz in map(np.argwhere, (f, g)))
    if np.any(a + b >= n):
        return _Plan(spills)
    f_end, g_end = np.minimum(A + 1, n - b), np.minimum(B + 1, n - a)
    fbox, gbox = _box(a, f_end), _box(b, g_end)
    cut = {}  # each mask cut once, so that equal patterns keep sharing masks
    terms = tuple((cut.setdefault(id(fm), fm[fbox]), cut.setdefault(id(gm), gm[gbox]))
                  for fm, gm in terms)
    out_end = np.minimum(f_end + g_end - 1, n)
    pad = tuple(map(_next_fast_len, (f_end - a + g_end - b - 1).tolist()))
    return _Plan(spills, terms, fbox, gbox, _box(a + b, out_end),
                 _box(np.zeros_like(a), out_end - a - b), pad, h**len(shape) * weight)


def _next_fast_len(n: int) -> int:
    """The least k >= n (n >= 1) with no prime factor above 11, a length
    pocketfft transforms fast: ``scipy.fft.next_fast_len`` for complex data."""
    for k in itertools.count(n):
        rest = k
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return k


def _box(lo: np.ndarray, hi: np.ndarray) -> tuple[slice, ...]:
    """Per-axis slices [lo, hi) with plain ints, which index faster."""
    return tuple(map(slice, lo.tolist(), hi.tolist()))


def _direct(f: np.ndarray, g: np.ndarray, grid: FrequencyGrid, rule: str):
    """The direct convolution sum of two value arrays under ``rule``,
    truncated at xi_max, and whether it spills past xi_max.

    Only the products inside the plan's boxes are formed, by ``np.convolve``
    for d = 1 and :func:`_shift_add` above.  Under the trapezoid rule equal
    operands' term N - 1 - i is term i swapped: the first half counts twice.
    """
    f_bits = np.packbits(f != 0).tobytes()
    g_bits = f_bits if g is f else np.packbits(g != 0).tobytes()
    p = _plan(f_bits, g_bits, grid.shape, grid.h, rule)
    terms, scale = p.terms, p.scale
    if rule == "trapezoid" and g_bits == f_bits and (g is f or np.array_equal(f, g)):
        terms, scale = terms[:len(terms) // 2], 2.0 * scale
    out = np.zeros(grid.shape, dtype=np.complex128)
    fb, gb = f[p.fbox], g[p.gbox]
    conv = np.convolve if grid.d == 1 else _shift_add
    for fm, gm in terms:
        out[p.cells] += conv(fb * fm, gb * gm)[p.crop]
    out *= scale
    return out, p.spills


def _shift_add(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Full linear convolution of two arrays of one rank: ``y`` shifted to
    every nonzero cell of ``x`` in index order, times that cell's value."""
    full = np.zeros([a + b - 1 for a, b in zip(x.shape, y.shape)], dtype=np.complex128)
    for i, v in zip(np.argwhere(x).tolist(), x[x != 0].tolist()):
        view = full[tuple(slice(k, k + n) for k, n in zip(i, y.shape))]
        view += v * y
    return full


def _direct_power(v: np.ndarray, m: int, grid: FrequencyGrid, rule: str):
    """m-fold :func:`_direct` self-convolution of a value array (m >= 2),
    and whether any of its products spills past xi_max."""
    out, spills = v, False  # the first product v * v shares its operands
    for _ in range(m - 1):
        out, spilled = _direct(out, v, grid, rule)
        spills |= spilled
    return out, spills


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

    The sum runs over each operand's support box: the cells that can reach
    [0, n) against the other operand's first nonzero cell.  Boxes are
    planned once per pair of nonzero patterns, grid and rule, and reused
    while the supports stay the same.  The truncation warning fires when
    the combinatorial support of the product reaches xi_max.
    """
    if f.grid != g.grid:
        raise ValueError("convolve requires a shared grid")
    if f.mirrored or g.mirrored:
        raise ValueError("convolve is defined for octant-stored fields only")
    values, spills = _direct(f.values, g.values, f.grid, rule)
    if warn_on_truncation and spills:
        warnings.warn(_SPILL, RuntimeWarning, stacklevel=2)
    return FrequencyField(f.grid, values)


def convolve_frames(
    a: np.ndarray, b: np.ndarray, grid: FrequencyGrid, rule: str = "riemann"
) -> np.ndarray:
    """Frame-by-frame :func:`convolve` of two (nt, *grid.shape) stacks,
    truncated at xi_max, by zero-padded FFTs over the grid axes.

    Frames are grouped by their pair of nonzero patterns, and each group
    runs through the plan :func:`convolve` uses for that pair: each operand
    is cut to its support box (the cells whose products can reach [0, n))
    and masked by the rule, each axis is padded to :func:`_next_fast_len` of
    the boxes' full convolution length, the rule's terms are summed in the
    frequency domain and inverted once, and only cells from a + b up
    are written (a, b the patterns' first nonzero cells).  Cells outside
    the combinatorial support, a count convolution of the masks kept with
    the plan, are exact zeros as in the direct sum; inside it the values
    agree with the direct sum to FFT round-off.  An empty operand, or
    a + b >= n on an axis, gives zeros without a transform.  Blocks of
    about 2^16 padded cells bound the working memory.
    """
    if a.shape != b.shape or a.shape[1:] != grid.shape:
        raise ValueError(f"frame stacks must both have shape (nt, *{grid.shape}), "
                         f"got {a.shape} and {b.shape}")
    if rule not in RULES:
        raise ValueError(f"unknown convolution rule {rule!r}")
    out = np.zeros(a.shape, dtype=np.complex128)
    bits = [[row.tobytes() for row in np.packbits(x.reshape(len(x), -1) != 0, axis=1)]
            for x in ((a,) if b is a else (a, b))]
    groups: dict[tuple[bytes, bytes], list[int]] = {}
    for t, pair in enumerate(zip(bits[0], bits[-1])):
        groups.setdefault(pair, []).append(t)
    for pair, frames in groups.items():
        p = _plan(*pair, grid.shape, grid.h, rule)
        if not p.terms:
            continue
        block = max(1, 2**16 // math.prod(p.pad))
        axes = tuple(range(1, 1 + grid.d))
        for lo in range(0, len(frames), block):
            t = frames[lo:lo + block]
            f = a[(t, *p.fbox)]
            g = f if b is a else b[(t, *p.gbox)]  # b is a shares the transforms
            spec = _spectrum(p.terms, f, g, lambda x, m: _padded_fft(x, m, p.pad))
            spec *= p.scale
            vals = _fft.ifftn(spec, axes=axes, out=spec)[(..., *p.crop)]
            out[(t, *p.cells)] = np.where(p.support, vals, 0.0)
    return out


def _padded_fft(x: np.ndarray, m: np.ndarray, pad: tuple[int, ...]) -> np.ndarray:
    """FFT over the last len(pad) axes of x * m zero-padded to ``pad``, formed
    in place in one buffer.  Axes are transformed last first, as by ``fftn``,
    and each only on the rows whose earlier indices lie inside m's box: the
    other rows are zero, and so are their transforms, so the result is
    ``fftn``'s bit for bit."""
    buf = np.zeros((len(x), *pad), dtype=np.complex128)
    np.multiply(x, m, out=buf[(..., *map(slice, m.shape))])
    for k in reversed(range(len(pad))):
        rows = buf[(slice(None), *map(slice, m.shape[:k]))]
        _fft.fftn(rows, axes=(k + 1,), out=rows)
    return buf


def _spectrum(terms, f, g, transform):
    """Sum over the mask pairs (fm, gm) of the products transform(f, fm) *
    transform(g, gm); each distinct operand is transformed once."""
    ops = {(id(x), id(m)): (x, m) for pair in terms for x, m in zip((f, g), pair)}
    hat = {key: transform(x, m) for key, (x, m) in ops.items()}
    return sum(hat[id(f), id(fm)] * hat[id(g), id(gm)] for fm, gm in terms)


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
    if m == 1:
        return f
    if f.mirrored:
        raise ValueError("convolve is defined for octant-stored fields only")
    values, spills = _direct_power(f.values, int(m), f.grid, rule)
    if warn_on_truncation and spills:
        warnings.warn(_SPILL, RuntimeWarning, stacklevel=2)
    return FrequencyField(f.grid, values)


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
