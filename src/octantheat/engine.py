"""Fourier-side Duhamel/Picard iteration for u^m and for e^u - 1 (with a
shifted semigroup), and the band-exact Taylor-coefficient recursion.

Everything happens on the frequency grid: the heat semigroup is the
pointwise multiplier exp(-t(|xi|_2^2 - lam^2)), and Duhamel integrals are
cumulative trapezoid sums evaluated by an exact one-step recurrence.  One
Picard loop drives both flows.  The nonlinearity gives its integrand from
the convolution powers v^{*2}, v^{*3}, ... per time node (all nodes in one
batched FFT kernel): v^{*m} for u^m, lam^2 sum_r v^{*r} / r! for e^u, summed
to the grid's top order, above which v^{*r} has no cell.
Because octant supports only move upward and each nonlinear application
adds at least (m-1) copies of the datum's support offset (one for e^u),
every iterate is exact on a growing low-frequency band.  The Picard loop
copies that band from the previous iterate, so it stays bitwise fixed
under FFT round-off, and on a finite grid the iteration terminates exactly
once the band covers the grid.  Duhamel runs only on the box of cells
outside the band (in Taylor: on each integrand's nonzero box), and gives
the whole grid's bytes there.

Iterations are sequential in j; per-node work uses fixed-order
reductions, so runs are bit-identical.
"""
from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .lattice import (BLOCK_CELLS, RULES, FrequencyField, FrequencyGrid, SupportStats,
                      convolve_frames, cube_l2_table, support_stats)
from .norms import SpaceTimeField, _weighted_cube_sum

__all__ = [
    "GateError",
    "DivergenceError",
    "NonlinearityKind",
    "Nonlinearity",
    "ProblemSpec",
    "IterationTrace",
    "TaylorStack",
    "free_trajectory",
    "duhamel",
    "picard_iterate",
    "taylor_coefficients",
    "assemble_band_solution",
]


class GateError(ValueError):
    """A support gate (octant / eps0 / shifted-spectrum) was violated."""


class DivergenceError(RuntimeError):
    """A run left the floating-point range: a Picard iterate or its increment
    norm overflowed to inf or NaN, or an oracle RK4 step went unstable."""


class NonlinearityKind(str, enum.Enum):
    POWER = "POWER"
    EXPONENTIAL = "EXPONENTIAL"


@dataclass(frozen=True)
class Nonlinearity:
    """u^m (POWER: ``m``, an integer of at least 2, default 2; an integral
    float is stored as int) or e^u - 1 (EXPONENTIAL, which takes no
    parameter: its series is summed to the grid's top order)."""

    kind: NonlinearityKind
    m: int | None = None

    def __post_init__(self) -> None:
        kind = NonlinearityKind(self.kind)
        if kind is NonlinearityKind.POWER:
            m = _integer(2 if self.m is None else self.m, 2,
                         "power nonlinearity needs an integer m")
            object.__setattr__(self, "m", m)
        elif self.m is not None:
            raise ValueError("m is not a parameter of the EXPONENTIAL nonlinearity")
        object.__setattr__(self, "kind", kind)


def _integer(value, least: int, what: str) -> int:
    """``value`` as an int, an integral float included; a bool, a fraction, a
    non-finite value or one below ``least`` raises ValueError(what >= least)."""
    if isinstance(value, bool) or not float(value).is_integer() or value < least:
        raise ValueError(f"{what} >= {least}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ProblemSpec:
    """One solver run: grid, horizon, nonlinearity and iteration controls.
    ``eps0``, the gate of u^m, is required by POWER and refused by EXPONENTIAL.
    ``nt`` and ``jmax`` are integers (an integral float is stored as int)."""

    grid: FrequencyGrid
    nonlinearity: Nonlinearity
    eps0: float | None = None
    s: float = -1.0
    delta: float = 1.0
    lambda_shift: float = 0.0
    T: float = 1.0
    nt: int = 257
    jmax: int = 12
    tol: float = 1e-10
    conv_rule: str = "trapezoid"

    def __post_init__(self) -> None:
        if (self.nonlinearity.kind is NonlinearityKind.POWER) == (self.eps0 is None):
            raise ValueError("the POWER flow needs eps0" if self.eps0 is None else
                             "the EXPONENTIAL flow's gate is 2 lambda_shift, not eps0")
        for key in ("s", "delta", "lambda_shift"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)}")
        if self.eps0 is not None and not 0 < self.eps0 < math.inf:
            raise ValueError(f"eps0 must be finite and positive, got {self.eps0}")
        if not 0 < self.T < math.inf:
            raise ValueError(f"T must be finite and positive, got {self.T}")
        if not self.tol >= 0:  # NaN fails it too
            raise ValueError(f"tol must be nonnegative, got {self.tol}")
        for key, least in (("nt", 2), ("jmax", 1)):
            object.__setattr__(self, key, _integer(getattr(self, key), least,
                                                   f"{key} must be an integer"))
        if self.conv_rule not in RULES:
            raise ValueError(f"conv_rule must be in {RULES}, got {self.conv_rule!r}")

    @property
    def tgrid(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.nt)


@dataclass(frozen=True, eq=False)
class _Iterates(Sequence):
    """v^1..v^J, read-only: the final whole, and each earlier iterate rebuilt
    on read as the final with its values on its unsettled cells put back."""

    grid: FrequencyGrid
    tgrid: np.ndarray
    parts: list[tuple[np.ndarray, np.ndarray]]  # (cells, values) of v^1..v^{J-1}
    final: np.ndarray

    def __len__(self) -> int:
        return len(self.parts) + 1

    def __getitem__(self, i: int) -> SpaceTimeField:
        i, values = range(len(self))[i], self.final
        if i < len(self.parts):
            (cells, part), values = self.parts[i], values.copy()
            values[:, cells] = part
        return SpaceTimeField(self.grid, self.tgrid, values)


@dataclass(eq=False)
class IterationTrace:
    """Iterates v^1..v^J with support statistics and error sequences.

    ``support_min_l1[i]`` is the smallest l1 support distance of the
    increment v^{i+1} - v^i (inf when it vanishes on the grid), a lower
    bound on the exact one: FFT round-off can make it read the edge of the
    band copied from v^i;
    ``increment_norms[i]`` is its sup-in-time l1 norm (``timespace_norm``
    with ``TimeSpaceNormSpec(inf, 1, s)``); ``errors[i]`` measures v^{i+1}
    against the final iterate in that norm, sum_k 2^{s|k|} times
    ``error_tables[i]``, the sup over time of its cube L2 norms.  A Picard
    trace keeps the final whole and each earlier iterate only on the cells
    it had not settled, the only ones where it can differ from the final.
    """

    iterates: Sequence[SpaceTimeField]
    support_min_l1: list[float]
    increment_norms: list[float]
    errors: list[float]
    converged: bool
    error_tables: list[np.ndarray]

    @property
    def final(self) -> SpaceTimeField:
        return self.iterates[-1]


@dataclass(eq=False)
class TaylorStack:
    """Unnormalized derivative trajectories of the solution in the data
    amplitude, valid for assembling the exact solution on |xi|_1 < K.

    Order 1 is the free evolution on the whole grid; orders 2 and up are
    computed only below K on every axis and are zero at or above K on any
    axis."""

    coeffs: list[SpaceTimeField]  # entry k-1 holds d^k v / d delta^k at 0
    K: float
    eps0: float

    @property
    def orders(self) -> int:
        return len(self.coeffs)


def heat_symbol(grid: FrequencyGrid, lambda_shift: float = 0.0) -> np.ndarray:
    """|xi|_2^2 - lambda_shift^2 per cell."""
    return grid.euclid_sq() - lambda_shift**2


def free_trajectory(
    v0: FrequencyField, tgrid: np.ndarray, lambda_shift: float = 0.0
) -> SpaceTimeField:
    """Semigroup evolution of v0 sampled on the whole time grid."""
    w = heat_symbol(v0.grid, lambda_shift)
    mult = np.multiply.outer(np.asarray(tgrid, float), w)
    np.exp(np.negative(mult, out=mult), out=mult)  # exp(-t w), in one stack
    return SpaceTimeField(v0.grid, tgrid, mult * v0.values[None, ...])


def duhamel(G: SpaceTimeField, lambda_shift: float = 0.0) -> SpaceTimeField:
    """Cumulative trapezoid of int_0^t exp(-(t-tau) w) G(tau) dtau per node.

    The one-step recurrence I_{n+1} = e^{-dt w} (I_n + dt/2 G_n) + dt/2 G_{n+1}
    reproduces the composite trapezoid rule of the full integrand exactly.
    It runs over a copy of G's values: G is left as it is.
    """
    dt = float(G.tgrid[1] - G.tgrid[0])
    return SpaceTimeField(G.grid, G.tgrid,
                          _duhamel(G.values.copy(), heat_symbol(G.grid, lambda_shift), dt))


def _duhamel(G: np.ndarray, w: np.ndarray, dt: float) -> np.ndarray:
    """:func:`duhamel`'s recurrence, cell by cell, in place over a complex stack G
    of frames of w's shape (w the heat symbol on their cells); returns G."""
    decay = np.exp(-dt * w).astype(np.complex128)  # as the product would cast it
    half = complex(0.5 * dt)  # so too: every per-frame ufunc has one dtype
    # frame by frame in the recurrence's order: dt/2 G_n is formed (in two
    # buffers swapped each step) before I_n is written over G_n, and I_0 = 0
    h0, h1 = np.multiply(half, G[0]), np.empty_like(G[0])
    G[0] = 0
    for prev, cur in zip(G[:-1], G[1:]):
        np.multiply(half, cur, out=h1)
        np.add(prev, h0, out=cur)
        cur *= decay
        cur += h1
        h0, h1 = h1, h0
    return G


def _gate(v0: FrequencyField, min_linf: float) -> SupportStats:
    st = support_stats(v0)  # an empty datum passes
    if st.min_linf < min_linf - 1e-12:
        raise GateError(
            f"datum spectrum starts at |xi|_inf = {st.min_linf:.6g}, below the "
            f"required gate {min_linf:.6g}"
        )
    return st


@np.errstate(over="ignore", invalid="ignore")  # overflow raises DivergenceError
def _run_picard(spec: ProblemSpec, v0: FrequencyField) -> IterationTrace:
    """The Picard loop v^{j+1} = delta e^{-t w} v0 + Duhamel(N(v^j)), v^0 = 0.

    The spec's nonlinearity gives N from the stages v^{*2}, ..., v^{*top}
    (top - 1 batched convolutions per iterate): N(v) = v^{*m} for u^m
    (top = m), lam^2 sum_{r=2}^top v^{*r} / r! for e^u.  There v^{*r} starts
    at index sum r eps_cells, eps_cells the datum's least index sum, so no
    order above top = max(2, d(n - 1) // eps_cells) has a cell and the sum
    is the whole series on the grid; it stops at an order zero on every
    cell, and folds r! into acc where it would leave the float range.
    v^{j+1} - v^j vanishes on |xi|_1 < (j band_step + 1) eps, eps the
    datum's l1 offset and band_step = m - 1 (1 for e^u), so v^{j+1} takes
    that band from v^j.  Counting it in cell indices keeps it exact: the
    iterate whose band covers the grid runs no convolution and its
    increment is exactly 0, which ends the run.  The last stage is computed
    only from the band up (the kernel's ``lo``); an earlier stage's products
    below it still reach the last stage's cells above it."""
    exponential = spec.nonlinearity.kind is NonlinearityKind.EXPONENTIAL
    lam = spec.lambda_shift
    tgrid, grid, rule = spec.tgrid, spec.grid, spec.conv_rule
    free_vals = free_trajectory(v0, tgrid, lam).values
    np.multiply(spec.delta, free_vals, out=free_vals)
    w, dt = heat_symbol(grid, lam), float(tgrid[1] - tgrid[0])
    index_l1 = np.indices(grid.shape).sum(axis=0)
    occupied = index_l1[v0.values != 0]
    eps_cells = int(occupied.min()) if occupied.size else 0
    # e^u has no m: no order above top has a cell (an empty datum is never live)
    top = spec.nonlinearity.m or max(2, grid.d * (grid.n - 1) // max(eps_cells, 1))
    band_step = 1 if exponential else top - 1

    v = np.zeros_like(free_vals)
    parts: list[tuple[np.ndarray, np.ndarray]] = []
    starts: list[int] = []
    supports: list[float] = []
    inc_norms: list[float] = []
    converged = False
    for j in range(spec.jmax):
        need = (j * band_step + 1) * eps_cells
        # a cell below ``start`` on some axis has l1 index below need: settled
        start = max(0, need - (grid.d - 1) * (grid.n - 1))
        live = start < grid.n and v.any()  # N(v^0) = N(0) = 0
        acc, G, coef = v, np.zeros_like(v) if exponential and live else None, 1
        for r in range(2, top + 1) if live else ():
            acc = convolve_frames(acc, v, grid, rule, need if r == top else 0)
            if exponential:
                if not acc.any():  # so is every higher order
                    break
                if coef * r >= 2**1023:  # r! would leave the float range (r = 171)
                    acc, coef = acc / coef, 1
                coef *= r  # acc / coef is v^{*r} / r!
                G += acc / coef
        box = (slice(start, None),) * grid.d
        sub = (slice(None), *box)
        v_next = (G if exponential else acc) if live else np.zeros_like(v)
        if live and exponential:  # v^{j+1} is made in place over the integrand
            np.multiply(lam**2, v_next[sub], out=v_next[sub])
        if live:  # off the box every cell is settled, copied from v^j below
            _duhamel(v_next[sub], w[box], dt)
        v_next[sub] += free_vals[sub]  # +0.0 + free: bitwise free + Duhamel(0)
        settled = index_l1 < need
        np.copyto(v_next, v, where=settled)
        table, changed = _sup_cube_diff(v_next, v, grid, start)
        supports.append(float(grid.l1()[changed].min()) if changed.any() else math.inf)
        inc = _weighted_cube_sum(table, grid, spec.s)
        if not math.isfinite(inc):  # a NaN or inf anywhere in v_next makes it so
            raise DivergenceError(f"iterate {j + 1} or its increment norm left the "
                                  "floating-point range")
        inc_norms.append(inc)
        if j:  # every later iterate copies v^j's settled band: keep the rest
            parts.append((~settled, v[:, ~settled]))
        starts.append(start)
        v = v_next
        if inc < spec.tol or not changed.any():  # v^{j+1} = v^j: a fixed point
            converged = True
            break

    del free_vals
    v.flags.writeable = False
    # v^{j+1} equals the final off its kept part, which lies in v^{j+2}'s
    # box (the final's own error reads no cell)
    tables = [_sup_cube_diff(part, v, grid, start, cells)[0] for (cells, part), start
              in zip([*parts, (None, v)], starts[1:] + [grid.n])]
    return IterationTrace(
        iterates=_Iterates(grid, tgrid, parts, v),
        support_min_l1=supports,
        increment_norms=inc_norms,
        errors=[_weighted_cube_sum(table, grid, spec.s) for table in tables],
        converged=converged,
        error_tables=tables,
    )


def _sup_cube_diff(a: np.ndarray, b: np.ndarray, grid: FrequencyGrid, start: int,
                   cells: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """For two (nt, *grid.shape) stacks equal below ``start`` on some axis:
    the sup over time of the unit-cube L2 table of a - b, and the cells
    where a - b is nonzero in some frame.  Only the box of cubes from
    start // n_sub up on every axis is read, in blocks of about
    ``BLOCK_CELLS`` cells that stay in L2 and are reused, not re-faulted, so
    no full difference stack is formed; both are the whole stack's bits.
    With ``cells`` (in that box; a = b off them), ``a`` is a on the cells."""
    c0 = min(start // grid.n_sub, grid.xi_max)
    cubes, box = (slice(c0, None),) * grid.d, (slice(c0 * grid.n_sub, None),) * grid.d
    table, changed = np.zeros((grid.xi_max,) * grid.d), np.zeros(grid.shape, bool)
    block = max(1, BLOCK_CELLS // max(1, changed[box].size))
    if cells is not None:  # off the cells a - b is b - b: +0.0, as b is finite
        a, at = a - b[:, cells], np.flatnonzero(cells[box])
    for t in range(0, len(b), block):
        rows = slice(t, t + block)
        if cells is None:
            diff = a[(rows, *box)] - b[(rows, *box)]
            changed[box] |= np.any(diff != 0, axis=0)
        else:  # the table only: ``changed`` stays empty
            diff = np.zeros_like(b[(rows, *box)])
            diff.reshape(len(diff), -1)[:, at] = a[rows]
        np.maximum(table[cubes], cube_l2_table(diff, grid).max(0), out=table[cubes])
    return table, changed


def picard_iterate(spec: ProblemSpec, v0: FrequencyField) -> IterationTrace:
    """Iterate v^{j+1} = delta e^{-t w} v0 + Duhamel(N(v^j)), v^0 = 0, for
    the spec's nonlinearity, until the weighted increment norm drops below
    tol or jmax is reached.

    The data need no smallness.  Each iterate is final on a band that grows
    by a fixed number of cells per iterate.  The J*-th iterate's band covers
    the grid, so its increment is exactly 0 and any positive tol ends the
    run there; J* is fixed by the grid, the datum's offset and the
    nonlinearity, not by the amplitude.  Raises :class:`DivergenceError`
    only when an iterate or its increment norm leaves the floating-point
    range.

    u^m: the datum must be octant-supported with |xi|_inf >= eps0.  e^u - 1
    (u_t - (lam^2 + Delta) u = lam^2 (e^u - u - 1)): lam > 0, and the datum,
    dilated onto this grid, starts at |xi|_inf >= 2 lam, off the origin.  Its
    series is summed to the grid's top order, max(2, d(n - 1) // eps_cells)
    for the datum's least index sum eps_cells, above which no order has a
    cell: it is the whole series on the grid, with no truncation.  Each
    iterate runs up to top - 1 convolution stages, so the cost grows like
    n^2 / eps_cells: a datum whose offset is a small share of the grid runs
    many stages.  A run ends at an exactly zero increment whatever tol is.
    The trace holds the final stack of nt * n^d complex cells (16 bytes
    each) and each earlier iterate's cells outside the band it settled;
    while it runs, u^m holds three stacks more (v^j, the free evolution and
    v^{j+1}, integrated in place over its integrand); e^u's stage loop more.
    """
    if spec.nonlinearity.kind is NonlinearityKind.POWER:
        _gate(v0, spec.eps0)
    elif spec.lambda_shift <= 0:
        raise GateError("the exponential flow needs a positive semigroup shift")
    elif _gate(v0, 2.0 * spec.lambda_shift).min_linf == 0:
        raise GateError("the exponential series has no top order on the grid: "
                        "the datum holds the origin")
    return _run_picard(spec, v0)


def taylor_coefficients(
    spec: ProblemSpec, v0: FrequencyField, K: float
) -> TaylorStack:
    """Derivative trajectories of the solution in the amplitude delta.

    Order 1 is the free evolution of v0; order k is the Duhamel integral
    of the multinomial sum of convolutions of lower orders.  Each order k
    has l1 support offset at least k times the datum's, so finitely many
    orders assemble the exact solution on |xi|_1 < K.  Supports only move
    up on every axis, so the convolutions are computed only below K on
    every axis (the kernel's ``hi``), a box that holds the band.  The run
    holds its orders plus a few working stacks of nt * n^d complex cells.
    """
    if spec.nonlinearity.kind is not NonlinearityKind.POWER:
        raise ValueError("the amplitude expansion is built for power flows")
    if K <= 0:
        raise ValueError("band K must be positive")
    if K > spec.grid.xi_max + 1e-12:
        raise ValueError(
            f"band K = {K} exceeds the grid validity xi_max = {spec.grid.xi_max}"
        )
    st = _gate(v0, spec.eps0)
    eps = spec.eps0 if st.min_l1 == math.inf else st.min_l1
    m = spec.nonlinearity.m
    grid, rule, tgrid = spec.grid, spec.conv_rule, spec.tgrid

    # normalized coefficients a_k = c_k / k!; orders with k*eps >= K vanish
    # on the open band, so max{k : k*eps < K} orders suffice.  The nominal
    # count K / ((m-1) eps) is kept as a floor so the stack always carries
    # the orders a band-K assembly is quoted with.
    k_top = max(
        1,
        math.ceil(K / eps - 1e-9) - 1,
        math.ceil(K / ((m - 1) * eps) - 1e-9),
    )

    hi = math.ceil(K / grid.h - 1e-9)  # the first cell index at or above K
    lam = spec.lambda_shift
    w, dt = heat_symbol(grid, lam), float(tgrid[1] - tgrid[0])
    a: dict[int, np.ndarray] = {1: free_trajectory(v0, tgrid, lam).values}

    # P[r, k]: degree-k coefficient of the r-fold convolution power of
    # sum_k a_k delta^k (zero for k < r).  It needs only degrees below k, so
    # one pass in increasing k fills it, for the (r, k) that order k_top
    # reads: k <= k_top - (m - r).  Both rules are symmetric, so for r = 2
    # each unordered pair a_i * a_{k-i} is convolved once.  P[m, k] is read
    # by order k alone, and each product is dropped once added in.
    P: dict[tuple[int, int], np.ndarray] = {}
    for k in range(2, k_top + 1):
        for r in range(max(2, m - k_top + k), min(k, m) + 1):
            P[r, k] = acc = np.zeros_like(a[1])
            for i in range(1, (k // 2 if r == 2 else k - r + 1) + 1):
                rest = a[k - i] if r == 2 else P[r - 1, k - i]
                if a[i].any() and rest.any():
                    prod = convolve_frames(a[i], rest, grid, rule, 0, hi)
                    if r == 2 and 2 * i < k:
                        prod *= 2.0
                    acc += prod
                    del prod
        # a_k is made in place over P[m, k] (none below order m): +0.0 off the box
        a[k] = P.pop((m, k)) if k >= m else np.zeros_like(a[1])
        live = np.argwhere(a[k].any(axis=0))
        if len(live):  # Duhamel only on the box of the cells the integrand reaches
            box = tuple(map(slice, live.min(0), live.max(0) + 1))
            _duhamel(a[k][(slice(None), *box)], w[box], dt)

    for k in range(1, k_top + 1):  # c_k = k! a_k, in place
        np.multiply(math.factorial(k), a[k], out=a[k])
    coeffs = [SpaceTimeField(grid, tgrid, a[k]) for k in range(1, k_top + 1)]
    return TaylorStack(coeffs=coeffs, K=float(K), eps0=eps)


def assemble_band_solution(
    stack: TaylorStack, delta: float, K: float
) -> SpaceTimeField:
    """Finite amplitude series sum_k delta^k / k! c_k masked to |xi|_1 < K.

    Exact there up to quadrature error once the stack covers the band.
    """
    if K > stack.K + 1e-12:
        raise ValueError(f"stack covers |xi| < {stack.K}, cannot assemble K = {K}")
    first = stack.coeffs[0]
    mask = first.grid.l1() < K - 1e-12
    total = np.zeros_like(first.values)
    block = max(1, BLOCK_CELLS // mask.size)  # frames summed in place at a time
    for t in range(0, len(total), block):
        acc = total[t:t + block]
        for k, ck in enumerate(stack.coeffs, start=1):
            acc += (delta**k / math.factorial(k)) * ck.values[t:t + block]
        acc *= mask
    return SpaceTimeField(first.grid, first.tgrid, total)
