"""Frequency-octant lattices: uniform grids, unit-cube L2 tables,
m-fold discrete convolution, support bookkeeping, and field files.

A field lives on a uniform grid over the frequency octant [0, xi_max)^d.
Cells are half-open, samples sit at left edges, and the cell count per
unit cube is an integer, so the unit cubes partition every field's cells
exactly.  Discrete convolution has a Riemann weight h^d
per pairwise convolution; an optional run-aware trapezoid weighting raises
the quadrature order to two for data that are smooth within their support
when each support run has a sample on both its edges.  A half-open box
such as ``OCTANT_BUMP``'s, whose last sample sits h below its top edge,
converges at first order: a 1D u^2 run from it errs by 0.44, 0.21 and
0.105 of its nonlinear part at h = 1/8, 1/16 and 1/32.
:func:`convolve` sums directly (``np.convolve`` in 1D, a shift-and-add
over nonzero cells above; a trapezoid self-product sums half its mirrored
terms, twice), and :func:`convolve_sum` sums weighted products of
(nt, *grid) frame stacks by zero-padded FFTs on a window of output cells
the caller keeps, with one inverse per window its products share
(:func:`convolve_frames` is its one-product call).  Both kernels take from
one plan per pair of nonzero patterns each operand's support box (the
cells whose products can reach [0, n)) and the rule's operand masks; the
plan's window, the one place that derives output cells, crop and FFT
pad, cuts them to the cells a call computes (the whole grid for the direct
sum).  A mask differs from its
operand only at run ends, so a 1D trapezoid product whose operands each
hold one run transforms each distinct operand once, unmasked, and
subtracts the products the rule drops at the run ends directly (the
composite trapezoid rule is the rectangle sum less half its end terms);
other patterns, and every pattern in d >= 2, transform the masked
operands.  The FFT kernel keeps the direct sum's exact zeros (a count
convolution kept with the plan) and its values up to FFT round-off; the
truncation warning follows the combinatorial support, not the values.
Stacks that are all float64 convolve by real FFTs into a float64 sum.

All operations are pure functions on immutable inputs and use fixed-order
reductions, so repeated runs are bit-identical.  A field file holds its
header "d h xi_max" and then one text row "re,im" per cell in lexicographic
index order, each value its ``repr``, built and parsed as whole arrays.
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
    "convolve",
    "convolve_frames",
    "convolve_sum",
    "support_stats",
    "save_field",
    "load_field",
]

RULES = ("riemann", "trapezoid")  # convolution quadrature rules
BLOCK_CELLS = 2**14  # cells per block of a frame-stack pass: 256 KiB buffers


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
    """Complex samples of a Fourier-side function on a :class:`FrequencyGrid`."""

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.ascontiguousarray(np.asarray(self.values, dtype=np.complex128))
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(v.view(np.float64))):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class SupportStats:
    """Distances from the origin to a field's nonzero cells (inf if it has none)."""

    min_l1: float
    min_linf: float


def make_grid(d: int, xi_max: int, h: float) -> FrequencyGrid:
    """Build a frequency grid; rejects spacings that break cube alignment."""
    return FrequencyGrid(d, xi_max, h)


def cube_l2_table(values: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    """L2 norm of a value array over every unit cube, shape (xi_max,)*d.

    Accepts leading batch axes (e.g. time frames), and on the last d axes
    any box of whole cubes of the grid's cells (one entry per cube).
    """
    lead = values.shape[: values.ndim - grid.d]
    ns = grid.n_sub
    blocked = values.reshape(*lead, *(k for s in values.shape[len(lead):]
                                      for k in (s // ns, ns)))
    sq = np.abs(blocked) ** 2
    # sum over the sub-cell axes, which sit at odd positions after the lead
    sub_axes = tuple(len(lead) + 1 + 2 * a for a in range(grid.d))
    return np.sqrt(np.sum(sq, axis=sub_axes) * grid.h**grid.d)


def _shifted_nonzero(mask: np.ndarray, axis: int, step: int) -> np.ndarray:
    """mask of "neighbor at offset -step along axis is nonzero" (zero fill)."""
    out = np.zeros_like(mask)
    lead = (slice(None),) * axis
    dst, src = (slice(1, None), slice(None, -1))[::step]  # step -1: right neighbor
    out[(*lead, dst)] = mask[(*lead, src)]
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
        return [x * functools.reduce(np.logical_and, (_shifted_nonzero(nonzero, axis, s)
                                                      for axis, s in enumerate(signs)))
                for signs in itertools.product((1, -1), repeat=x.ndim)]

    fm = masked(f)
    return list(zip(fm, reversed(fm if g is f else masked(g)))), 1.0 / 2**f.ndim


_SPILL = "convolution support reaches xi_max; band of validity shrinks"


@dataclass(frozen=True, eq=False)
class _Plan:
    """How one pair of nonzero patterns f, g convolves under a rule on a
    grid of n cells per axis.

    ``fbox`` and ``gbox`` are the patterns' bounding boxes [a, A + 1) and
    [b, B + 1) per axis, a, b their first and A, B their last nonzero cells;
    ``terms`` holds the rule's operand masks on the whole grid (none when a
    pattern is empty); ``scale`` is h^d times the rule's weight.  ``twin``
    marks equal patterns under the trapezoid rule, whose term N - 1 - i is
    term i swapped.  ``ends`` is set on a 1D trapezoid plan whose operands
    each hold one run: per term, the one cell it drops from f (the run's
    first or last) and the one it drops from g.  Only :meth:`window` cuts
    the boxes, masks and run ends and derives output cells, crop and pad;
    the :attr:`support` reads the whole grid's, and :meth:`direct` reads it
    with its masks cast to complex128, :attr:`whole`.
    """

    n: int
    terms: tuple = ()
    fbox: tuple[slice, ...] = ()
    gbox: tuple[slice, ...] = ()
    scale: float = 1.0
    twin: bool = False
    ends: tuple | None = None

    @functools.cached_property
    def spills(self) -> bool:
        """Whether some product of a term lands at or beyond n on an axis;
        only :func:`convolve`'s truncation warning reads it."""
        return any(np.any(np.argwhere(fm).max(0) + np.argwhere(gm).max(0) >= self.n)
                   for fm, gm in self.terms)

    @functools.cached_property
    def whole(self):
        """:meth:`window` over the whole grid, computed once per plan, with
        its masks cast once to complex128, as each product of the direct sum
        would cast them: the sums keep their bits."""
        window = self.window(0, self.n)
        if window is None:
            return None
        terms, *rest = window
        return (tuple((fm.astype(np.complex128), gm.astype(np.complex128))
                      for fm, gm in terms), *rest)

    @functools.cached_property
    def halves(self):
        """:attr:`whole`'s first half of the terms, and twice the scale."""
        return self.whole[0][:len(self.whole[0]) // 2], 2.0 * self.scale

    def direct(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The direct sum of two value arrays with this plan's patterns,
        truncated at xi_max, over the boxes only: ``np.convolve`` in 1D and
        :func:`_shift_add` above.  A twin plan sums equal operands (``g is
        f``, or equal values) by :attr:`halves`: the first half counts twice."""
        out = np.zeros(f.shape, dtype=np.complex128)
        if self.whole is None:
            return out
        (terms, fbox, gbox, cells, crop, _, _), scale = self.whole, self.scale
        if self.twin and (g is f or np.array_equal(f, g)):
            terms, scale = self.halves
        cells, fb, gb = out[cells], f[fbox], g[gbox]
        conv = np.convolve if f.ndim == 1 else _shift_add
        for fm, gm in terms:
            cells += conv(fb * fm, gb * gm)[crop]
        cells *= scale
        return out

    @functools.cached_property
    def support(self) -> np.ndarray:
        """Which cells of the whole grid's crop some product reaches (the count
        convolution of the masks), where the direct sum may be nonzero."""
        terms, _, _, _, crop, pad, _ = self.window(0, self.n)
        axes = tuple(range(len(pad)))
        # one object for both operands, so that equal masks share a transform
        spec = _spectrum(terms, True, True, lambda x, m: _fft.rfftn(x * m, pad, axes))
        return _fft.irfftn(spec, pad, axes)[crop] > 0.5

    def window(self, lo: int, hi: int):
        """The plan cut to the output cells below hi on every axis whose index
        sum is at least lo: ``(terms, fbox, gbox, cells, crop, pad, ends)``,
        or None when no product lands there (a + b >= hi on an axis, or lo
        above the largest index sum).  ``cells`` is the output from a + b up
        and ``crop`` the part of the boxes' full convolution that lands
        there; ``pad`` is :func:`_next_fast_len` of that convolution's length
        per axis, so that a cyclic convolution of that length is the linear
        one.  ``ends`` holds :attr:`ends`' cells in the boxes' indices, None
        where the box cut that cell off (None with no :attr:`ends`).

        Only f on [a, min(A + 1, hi - b)) and g on [b, min(B + 1, hi - a))
        reach cells below hi, and the masks are cut to those boxes.  In 1D a
        cyclic convolution of length P equals the linear one, of length L, at
        every index >= L - P (the aliasing argument of overlap-save), so the
        pad need only reach L - skip, skip the distance of lo above a + b.
        In d >= 2 lo gives no per-axis bound; the caller zeroes the cells
        below it.
        """
        if not self.terms:
            return None
        a, b = ([s.start for s in box] for box in (self.fbox, self.gbox))
        ab = [x + y for x, y in zip(a, b)]
        f_end = [min(s.stop, hi - y) for s, y in zip(self.fbox, b)]
        g_end = [min(s.stop, hi - x) for s, x in zip(self.gbox, a)]
        lf = [e - s for e, s in zip(f_end, a)]
        lg = [e - s for e, s in zip(g_end, b)]
        out = [min(x + y - 1, hi - s) for x, y, s in zip(lf, lg, ab)]  # crop ends
        skip = lo - sum(ab)
        if min(out) <= 0 or skip > sum(out) - len(out):
            return None
        alias = max(skip, 0) if len(out) == 1 else 0
        pad = tuple(_next_fast_len(max(x, y, c, x + y - 1 - alias))
                    for x, y, c in zip(lf, lg, out))
        fbox, gbox = tuple(map(slice, a, f_end)), tuple(map(slice, b, g_end))
        cut = {}  # each mask cut once, so that equal patterns keep sharing masks
        terms = tuple((cut.setdefault(id(fm), fm[fbox]), cut.setdefault(id(gm), gm[gbox]))
                      for fm, gm in self.terms)
        ends = self.ends and tuple((i - a[0] if i < f_end[0] else None,
                                    j - b[0] if j < g_end[0] else None)
                                   for i, j in self.ends)
        return (terms, fbox, gbox, tuple(slice(s, s + c) for s, c in zip(ab, out)),
                tuple(map(slice, out)), pad, ends)


@functools.lru_cache(maxsize=64)
def _plan(f_bits: bytes, g_bits: bytes, shape: tuple, h: float, rule: str) -> _Plan:
    """The :class:`_Plan` of two nonzero patterns, each packed by ``np.packbits``,
    on a grid of ``shape`` and spacing h; equal patterns share their masks."""
    f, g = (np.unpackbits(np.frombuffer(bits, np.uint8), count=math.prod(shape))
            .reshape(shape).astype(bool) for bits in (f_bits, g_bits))
    terms, weight = _rule_terms(f, f if g_bits == f_bits else g, rule)
    terms = [(fm, gm) for fm, gm in terms if fm.any() and gm.any()]
    if not terms:
        return _Plan(shape[0])
    (a, A), (b, B) = ((nz.min(0), nz.max(0)) for nz in map(np.argwhere, (f, g)))
    fbox, gbox = _box(a, A + 1), _box(b, B + 1)
    ends = None
    if rule == "trapezoid" and len(shape) == 1 and f[fbox].all() and g[gbox].all():
        # term 0 pairs f from its second cell with g up to its last but one,
        # term 1 the mirror (_rule_terms)
        (f_run,), (g_run,) = fbox, gbox
        ends = ((f_run.start, g_run.stop - 1), (f_run.stop - 1, g_run.start))
    return _Plan(shape[0], tuple(terms), fbox, gbox, h**len(shape) * weight,
                 rule == "trapezoid" and g_bits == f_bits, ends)


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
    """:meth:`_Plan.direct` of two value arrays under ``rule``, and whether it spills."""
    f_bits = np.packbits(f.astype(bool)).tobytes()
    g_bits = f_bits if g is f else np.packbits(g.astype(bool)).tobytes()
    p = _plan(f_bits, g_bits, grid.shape, grid.h, rule)
    return p.direct(f, g), p.spills


def _shift_add(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Full linear convolution of two arrays of one rank: ``y`` shifted to
    every nonzero cell of ``x`` in index order, times that cell's value."""
    full = np.zeros([a + b - 1 for a, b in zip(x.shape, y.shape)], dtype=np.complex128)
    for i, v in zip(np.argwhere(x).tolist(), x[x != 0].tolist()):
        view = full[tuple(slice(k, k + n) for k, n in zip(i, y.shape))]
        view += v * y
    return full


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
    their support when each run has a sample on both its edges; a
    half-open support, sampled up to h below its top edge, is first order.
    Octant support only moves upward, so truncation never corrupts values
    below xi_max.

    The sum runs over each operand's support box: the cells that can reach
    [0, n) against the other operand's first nonzero cell.  Boxes are
    planned once per pair of nonzero patterns, grid and rule, and reused
    while the supports stay the same.  The truncation warning fires when
    the combinatorial support of the product reaches xi_max.
    """
    if f.grid != g.grid:
        raise ValueError("convolve requires a shared grid")
    values, spills = _direct(f.values, g.values, f.grid, rule)
    if warn_on_truncation and spills:
        warnings.warn(_SPILL, RuntimeWarning, stacklevel=2)
    return FrequencyField(f.grid, values)


def convolve_frames(
    a: np.ndarray, b: np.ndarray, grid: FrequencyGrid, rule: str = "riemann",
    lo: int = 0, hi: int | None = None,
) -> np.ndarray:
    """Frame-by-frame :func:`convolve` of two (nt, *grid.shape) stacks,
    truncated at xi_max, by zero-padded FFTs over the grid axes, computed
    only on the caller's window: the cells below ``hi`` (default n) on
    every axis whose index sum is at least ``lo``.  Cells outside the
    window are zero.  It is the one-term call of :func:`convolve_sum`, whose
    docstring gives the method.
    """
    return convolve_sum([(1.0, a, b)], grid, rule, lo, hi)


def convolve_sum(
    terms, grid: FrequencyGrid, rule: str = "riemann", lo: int = 0,
    hi: int | None = None,
) -> np.ndarray:
    """Sum over ``terms``, (weight, a, b) triples of (nt, *grid.shape)
    stacks, of weight times :func:`convolve_frames` of a and b, on the
    caller's window (cells below ``hi`` on every axis whose index sum is at
    least ``lo``), in one pass: the terms whose windows match are summed in
    the frequency domain and inverted once.

    Each distinct operand's nonzero pattern is packed per frame, and one
    vectorized compare of consecutive packed rows splits the frames into
    runs on which every operand keeps its pattern.  In each run every term
    takes the plan :func:`convolve` uses for its pair of patterns, cut to
    the window (:meth:`_Plan.window`): each operand is cut to its support
    box (the cells whose products can reach the cells below hi) and masked
    by the rule, and each axis is padded to :func:`_next_fast_len` of the
    boxes' full convolution length (in 1D only of the part from lo up, by
    the overlap-save argument).  Terms whose windows share output cells,
    crop and pad form a group; a term with no window (an empty operand,
    a + b >= hi on an axis, or lo above every index sum it reaches) adds
    nothing and transforms nothing.  Per group, in blocks sliced as views,
    each term's rule terms are summed in the frequency domain, scaled by
    the term's weight, added into the group's spectrum and inverted once,
    and only the kept cells from a + b up are written (a, b the patterns'
    first nonzero cells); groups with other windows add their own inverse.
    In 1D under the trapezoid rule, when each operand's box holds one run,
    each distinct operand is transformed once, unmasked: the two rule terms
    sum to twice the plain product less the products each drops at a run
    end, which are subtracted directly per term, scaled by its weight
    (:func:`_subtract_ends`).  Cells outside the combinatorial supports, a
    count convolution of the masks kept with each plan, are exact zeros as
    in the direct sum; inside them the values agree with the direct sum to
    FFT round-off.  A one-term call with weight 1 is the plain product.
    When every operand stack is float64 and every weight real, the sum is
    real: each operand takes ``rfft`` on the last grid axis (its half
    spectrum) and ``fft`` on the others, and ``irfftn`` gives a float64
    output; windows, plans, exact zeros and run-end corrections are the
    complex path's.  Any other call is complex128.  Blocks of about
    ``BLOCK_CELLS`` padded cells bound the working memory: their operand
    transforms and product stay in L2 and are reused from the heap, not
    re-faulted, from block to block.
    """
    if not terms:
        raise ValueError("convolve_sum needs at least one term")
    shape = terms[0][1].shape
    for _, a, b in terms:
        if a.shape != shape or b.shape != shape or shape[1:] != grid.shape:
            raise ValueError(f"frame stacks must all have shape (nt, *{grid.shape}), "
                             f"got {a.shape} and {b.shape}")
    if rule not in RULES:
        raise ValueError(f"unknown convolution rule {rule!r}")
    operands = {id(x): x for _, a, b in terms for x in (a, b)}
    real = all(x.dtype == np.float64 for x in operands.values()) \
        and all(np.isrealobj(w) for w, *_ in terms)
    out = np.zeros(shape, dtype=np.float64 if real else np.complex128)
    # per distinct operand, its nonzero pattern packed per frame
    packed = {key: np.packbits(x.reshape(len(x), -1).astype(bool), axis=1)
              for key, x in operands.items()}
    change = np.zeros(max(len(out) - 1, 0), dtype=bool)
    for rows in packed.values():
        change |= np.any(rows[1:] != rows[:-1], axis=1)
    starts = [0, *(np.flatnonzero(change) + 1).tolist()] if len(out) else []
    hi = grid.n if hi is None else min(hi, grid.n)
    axes = tuple(range(1, 1 + grid.d))
    for first, stop in zip(starts, [*starts[1:], len(out)]):
        bits = {key: rows[first].tobytes() for key, rows in packed.items()}
        groups: dict[tuple, tuple] = {}  # by output cells, crop and pad
        for w, a, b in terms:
            p = _plan(bits[id(a)], bits[id(b)], grid.shape, grid.h, rule)
            window = p.window(lo, hi)
            if window is not None:
                rterms, fbox, gbox, cells, crop, pad, ends = window
                key = (*(c.start for c in cells), *(c.stop for c in crop), pad)
                groups.setdefault(key, (cells, crop, pad, []))[-1].append(
                    (a, b, rterms, fbox, gbox, w * p.scale, ends, p.support))
        for written, (cells, crop, pad, group) in enumerate(groups.values()):
            keep = functools.reduce(np.logical_or, (support[crop] for *_, support in group))
            skip = lo - sum(c.start for c in cells)
            if skip > 0:  # the cells whose index sum is below lo
                keep = keep & (np.indices(keep.shape).sum(axis=0) >= skip)
            block = max(1, BLOCK_CELLS // math.prod(pad))
            for start in range(first, stop, block):
                t = slice(start, min(start + block, stop))
                spec, drops = None, []
                for a, b, rterms, fbox, gbox, coef, ends, _ in group:
                    f = a[(t, *fbox)]
                    g = f if b is a else b[(t, *gbox)]  # b is a shares the transforms
                    if ends:  # the terms' sum is len(rterms) f * g less the drops
                        term = _padded_fft(f, None, pad)
                        term *= term if g is f else _padded_fft(g, None, pad)
                        term *= len(rterms) * coef
                        drops.append((f, g, ends, coef))
                    else:
                        term = _spectrum(rterms, f, g,
                                         lambda x, m: _padded_fft(x, m, pad))
                        term *= coef
                    if spec is None:
                        spec = term
                    else:
                        spec += term
                vals = (_fft.irfftn(spec, pad, axes) if real
                        else _fft.ifftn(spec, axes=axes, out=spec))[(..., *crop)]
                for f, g, ends, coef in drops:
                    _subtract_ends(vals, f, g, ends, coef, max(skip, 0))
                dst = out[(t, *cells)]
                if written:  # an earlier group of this run wrote some of these cells
                    np.add(dst, vals, out=dst, where=keep)
                else:
                    np.copyto(dst, vals, where=keep)
    return out


def _subtract_ends(vals, f, g, ends, scale, first):
    """Subtract from ``vals``, from cell ``first`` up, the scaled products
    each trapezoid term drops from the full 1D convolution of blocks f and
    g: a term that drops f's cell i and g's cell j sums (f - f_i) * (g -
    g_j), which is f * g less g_j f shifted by j and f_i g shifted by i,
    plus f_i g_j at i + j (i or j None: the window cut that cell off).
    Each frame's coefficients are its own, so a block's cells have the
    bits they have in a block of one frame."""
    width = vals.shape[-1]

    def axpy(shift, c, x):  # vals -= c x, x from cell shift on
        lo, hi = max(shift, first), min(shift + x.shape[-1], width)
        if lo < hi:
            vals[:, lo:hi] -= c[:, None] * x[:, lo - shift:hi - shift]

    for i, j in ends:
        if j is not None:
            axpy(j, scale * g[:, j], f)
        if i is not None:
            axpy(i, scale * f[:, i], g)
        if i is not None and j is not None and first <= i + j < width:
            vals[:, i + j] += scale * f[:, i] * g[:, j]


def _padded_fft(x: np.ndarray, m: np.ndarray | None,
                pad: tuple[int, ...]) -> np.ndarray:
    """FFT over the last len(pad) axes of x * m (of x when m is None)
    zero-padded to ``pad``, formed in place in one buffer.  Axes are
    transformed last first, as by ``fftn``, and each only on the rows whose
    earlier indices lie inside x's box: the other rows are zero, and so are
    their transforms, so the result is ``fftn``'s bit for bit.  A float64 x
    takes ``rfft`` on the last axis, its pad[-1] // 2 + 1 cells of the half
    spectrum that ``irfftn`` inverts, and ``fft`` on the others, each padded
    by the transform itself while the axes before it still hold the box."""
    box = x.shape[1:]
    if x.dtype == np.float64:
        out = _fft.rfft(x if m is None else x * m, pad[-1], axis=-1)
        for k in reversed(range(len(pad) - 1)):
            out = _fft.fft(out, pad[k], axis=k + 1)
        return out
    buf = np.zeros((len(x), *pad), dtype=np.complex128)
    cut = buf[(..., *map(slice, box))]
    if m is None:
        cut[...] = x
    else:
        np.multiply(x, m, out=cut)
    for k in reversed(range(len(pad))):
        rows = buf[(slice(None), *map(slice, box[:k]))]
        _fft.fftn(rows, axes=(k + 1,), out=rows)
    return buf


def _spectrum(terms, f, g, transform):
    """Sum over the mask pairs (fm, gm) of the products transform(f, fm) *
    transform(g, gm), in place in term order; each distinct operand is
    transformed once.  Mirrored terms are multiplied anew: numpy's complex
    product is not bitwise commutative."""
    ops = {(id(x), id(m)): (x, m) for pair in terms for x, m in zip((f, g), pair)}
    hat = {key: transform(x, m) for key, (x, m) in ops.items()}
    (fm, gm), *rest = terms
    out = hat[id(f), id(fm)] * hat[id(g), id(gm)]
    for fm, gm in rest:
        out += hat[id(f), id(fm)] * hat[id(g), id(gm)]
    return out


def support_stats(f: FrequencyField) -> SupportStats:
    """Support distances of ``f`` over its exact support: its nonzero cells."""
    mask = f.values != 0
    if not np.any(mask):
        return SupportStats(np.inf, np.inf)
    return SupportStats(float(f.grid.l1()[mask].min()), float(f.grid.linf()[mask].min()))


def save_field(f: FrequencyField, path) -> None:
    """Write a field as text: header "d h xi_max", then one row "re,im" per
    cell in lexicographic index order, each value its ``repr``."""
    grid = f.grid
    body = ("%r,%r\n" * f.values.size) % tuple(f.values.view(np.float64).ravel().tolist())
    with open(path, "w") as fh:
        fh.write(f"{grid.d} {grid.h!r} {grid.xi_max}\n" + body)


def load_field(path) -> FrequencyField:
    """Read a field written by :func:`save_field`.  A malformed header, and
    blank, malformed, missing or extra rows, raise ValueError naming the file."""
    with open(path) as fh:
        head, body = fh.readline().split(), fh.read()
    try:
        d, h, xi_max = head
        grid = make_grid(int(d), int(xi_max), float(h))
    except ValueError as exc:
        raise ValueError(f"malformed field header in {path}: {exc}") from None
    if body.startswith("\n") or "\n\n" in body:  # loadtxt would skip them
        raise ValueError(f"blank field row in {path}")
    # one field of two columns: a row with any other column count fails
    dtype = [("val", np.float64, (2,))]
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
    cells = math.prod(grid.shape)
    if rows.size != cells:
        raise ValueError(f"field file {path} has {rows.size} of {cells} rows")
    return FrequencyField(grid, rows["val"].view(np.complex128).reshape(grid.shape))
