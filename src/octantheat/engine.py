"""Fourier-side Duhamel/Picard iteration for u^m and for the truncated
e^u - 1 (with a shifted semigroup), and the band-exact Taylor-coefficient
recursion.

Everything happens on the frequency grid: the heat semigroup is the
pointwise multiplier exp(-t(|xi|_2^2 - lam^2)), and Duhamel integrals are
cumulative trapezoid sums evaluated by an exact one-step recurrence.  One
Picard loop drives both flows.  The nonlinearity gives its integrand from
the convolution powers v^{*2}, ..., v^{*M} per time node (all nodes in one
batched FFT kernel): v^{*m} for u^m, lam^2 sum_r v^{*r} / r! for e^u.
Because octant supports only move upward and each nonlinear application
adds at least (m-1) copies of the datum's support offset (one for e^u),
every iterate is exact on a growing low-frequency band.  The Picard loop
copies that band from the previous iterate, so it stays bitwise fixed
under FFT round-off, and on a finite grid the iteration terminates exactly
once the band covers the grid.

Iterations are sequential in j; per-node work uses fixed-order
reductions, so runs are bit-identical.
"""
from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .lattice import (RULES, FrequencyField, FrequencyGrid, convolve_frames,
                      support_stats)
from .norms import SpaceTimeField, weighted_l1_seq_norm

__all__ = [
    "GateError",
    "DivergenceError",
    "NonlinearityKind",
    "Nonlinearity",
    "ProblemSpec",
    "IterationTrace",
    "TaylorStack",
    "propagate",
    "free_trajectory",
    "duhamel",
    "picard_iterate",
    "taylor_coefficients",
    "assemble_band_solution",
    "exp_picard_iterate",
]


class GateError(ValueError):
    """A support gate (octant / eps0 / shifted-spectrum) was violated."""


class DivergenceError(RuntimeError):
    """The iteration left the regime the engine certifies."""


class NonlinearityKind(str, enum.Enum):
    POWER = "POWER"
    EXPONENTIAL = "EXPONENTIAL"


@dataclass(frozen=True)
class Nonlinearity:
    """u^m (POWER: ``m``, default 2) or e^u - 1 truncated at order M
    (EXPONENTIAL: ``taylor_order``, default 12); each kind takes only its own."""

    kind: NonlinearityKind
    m: int | None = None
    taylor_order: int | None = None

    def __post_init__(self) -> None:
        kind = NonlinearityKind(self.kind)
        power = kind is NonlinearityKind.POWER
        own, other = ("m", "taylor_order") if power else ("taylor_order", "m")
        if getattr(self, other) is not None:
            raise ValueError(f"{other} is not a parameter of the {kind.value} "
                             "nonlinearity")
        if getattr(self, own) is None:
            object.__setattr__(self, own, 2 if power else 12)
        if getattr(self, own) < 2:
            raise ValueError(f"{kind.value.lower()} nonlinearity needs {own} >= 2")
        object.__setattr__(self, "kind", kind)


@dataclass(frozen=True)
class ProblemSpec:
    """One solver run: grid, horizon, nonlinearity and iteration controls."""

    grid: FrequencyGrid
    nonlinearity: Nonlinearity
    eps0: float
    s: float = -1.0
    delta: float = 1.0
    lambda_shift: float = 0.0
    T: float = 1.0
    nt: int = 257
    jmax: int = 12
    tol: float = 1e-10
    conv_rule: str = "trapezoid"

    def __post_init__(self) -> None:
        if self.eps0 <= 0:
            raise ValueError("eps0 must be positive")
        if not 0 < self.T < math.inf or self.nt < 2 or not math.isfinite(self.delta):
            raise ValueError("need 0 < T < inf, nt >= 2 and a finite delta")
        if self.jmax < 1:
            raise ValueError("jmax must be positive")
        if self.conv_rule not in RULES:
            raise ValueError(f"conv_rule must be in {RULES}, got {self.conv_rule!r}")

    @property
    def tgrid(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.nt)


@dataclass(eq=False)
class IterationTrace:
    """Iterates v^1..v^J with support statistics and error sequences.

    ``support_min_l1[i]`` is the smallest l1 support distance of the
    increment v^{i+1} - v^i (inf when it vanishes on the grid), a lower
    bound on the exact one: FFT round-off can make it read the edge of the
    band copied from v^i;
    ``increment_norms[i]`` is its weighted l1-over-cubes size; ``errors[i]``
    measures v^{i+1} against the final iterate.
    """

    iterates: list[SpaceTimeField]
    support_min_l1: list[float]
    increment_norms: list[float]
    errors: list[float]
    converged: bool
    truncation_sensitivity: float | None = None

    @property
    def final(self) -> SpaceTimeField:
        return self.iterates[-1]


@dataclass(eq=False)
class TaylorStack:
    """Unnormalized derivative trajectories of the solution in the data
    amplitude, valid for assembling the exact solution on |xi|_1 < K."""

    coeffs: list[SpaceTimeField]  # entry k-1 holds d^k v / d delta^k at 0
    K: float
    eps0: float

    @property
    def orders(self) -> int:
        return len(self.coeffs)


def heat_symbol(grid: FrequencyGrid, lambda_shift: float = 0.0) -> np.ndarray:
    """|xi|_2^2 - lambda_shift^2 per cell."""
    return grid.euclid_sq() - lambda_shift**2


def propagate(f: FrequencyField, t: float, lambda_shift: float = 0.0) -> FrequencyField:
    """Apply the (shifted) heat semigroup multiplier exp(-t w) at time t >= 0."""
    if t < 0:
        raise ValueError("the semigroup runs forward in time only")
    w = heat_symbol(f.grid, lambda_shift)
    return FrequencyField(f.grid, f.values * np.exp(-t * w), f.mirrored)


def free_trajectory(
    v0: FrequencyField, tgrid: np.ndarray, lambda_shift: float = 0.0
) -> SpaceTimeField:
    """Semigroup evolution of v0 sampled on the whole time grid."""
    w = heat_symbol(v0.grid, lambda_shift)
    mult = np.exp(-np.multiply.outer(np.asarray(tgrid, float), w))
    return SpaceTimeField(v0.grid, tgrid, mult * v0.values[None, ...])


def duhamel(G: SpaceTimeField, lambda_shift: float = 0.0) -> SpaceTimeField:
    """Cumulative trapezoid of int_0^t exp(-(t-tau) w) G(tau) dtau per node.

    The one-step recurrence I_{n+1} = e^{-dt w} (I_n + dt/2 G_n) + dt/2 G_{n+1}
    reproduces the composite trapezoid rule of the full integrand exactly.
    """
    w = heat_symbol(G.grid, lambda_shift)
    dt = float(G.tgrid[1] - G.tgrid[0])
    decay = np.exp(-dt * w).astype(np.complex128)  # as the product would cast it
    out = np.zeros_like(G.values)
    hG = (0.5 * dt) * G.values
    # in place, frame by frame, in the recurrence's operation order
    for prev, cur, h0, h1 in zip(out[:-1], out[1:], hG[:-1], hG[1:]):
        np.add(prev, h0, out=cur)
        cur *= decay
        cur += h1
    return SpaceTimeField(G.grid, G.tgrid, out)


def _gate(spec: ProblemSpec, v0: FrequencyField, min_linf: float) -> None:
    if not isinstance(v0, FrequencyField):
        raise GateError(
            "solver input must be a plain octant field "
            "(sign-pair inflation data are not admissible)"
        )
    st = support_stats(v0)
    if st.empty:
        return
    if not st.in_octant or v0.mirrored:
        raise GateError("solver input must be supported in the frequency octant")
    if st.min_linf < min_linf - 1e-12:
        raise GateError(
            f"datum spectrum starts at |xi|_inf = {st.min_linf:.6g}, below the "
            f"required gate {min_linf:.6g}"
        )


def _run_picard(spec: ProblemSpec, v0: FrequencyField, M: int) -> IterationTrace:
    """The Picard loop v^{j+1} = delta e^{-t w} v0 + Duhamel(N(v^j)), v^0 = 0.

    The spec's nonlinearity gives N from the stages v^{*2}, ..., v^{*M}
    (M - 1 batched convolutions per iterate): N(v) = v^{*M} for u^m
    (M = m), lam^2 sum_{r=2}^M v^{*r} / r! for e^u truncated at order M.
    v^{j+1} - v^j vanishes on |xi|_1 < (j band_step + 1) eps, eps the
    datum's l1 offset and band_step = M - 1 (1 for e^u), so v^{j+1} takes
    that band from v^j.  Counting it in cell indices keeps it exact, so the
    run ends once the band covers the grid."""
    exponential = spec.nonlinearity.kind is NonlinearityKind.EXPONENTIAL
    band_step = 1 if exponential else M - 1
    lam = spec.lambda_shift
    tgrid, grid, rule = spec.tgrid, spec.grid, spec.conv_rule
    free_vals = spec.delta * free_trajectory(v0, tgrid, lam).values
    index_l1 = np.indices(grid.shape).sum(axis=0)
    occupied = index_l1[v0.values != 0]
    eps_cells = int(occupied.min()) if occupied.size else 0

    v = np.zeros_like(free_vals)
    iterates: list[np.ndarray] = []
    supports: list[float] = []
    inc_norms: list[float] = []
    converged = False
    for j in range(spec.jmax):
        acc, G = v, np.zeros_like(v) if exponential else None
        for r in range(2, M + 1) if v.any() else ():  # N(v^0) = N(0) = 0
            acc = convolve_frames(acc, v, grid, rule)
            if exponential:
                G += acc / math.factorial(r)
        G = lam**2 * G if exponential else acc
        v_next = free_vals + duhamel(SpaceTimeField(grid, tgrid, G), lam).values
        settled = index_l1 < (j * band_step + 1) * eps_cells
        v_next[:, settled] = v[:, settled]
        if not np.all(np.isfinite(v_next.view(np.float64))):
            raise DivergenceError("iterates left the floating-point range")
        diff = v_next - v
        changed = np.any(diff != 0, axis=0)
        supports.append(float(grid.l1()[changed].min()) if changed.any() else math.inf)
        inc = weighted_l1_seq_norm(SpaceTimeField(grid, tgrid, diff), spec.s)
        inc_norms.append(inc)
        iterates.append(v_next)
        v = v_next
        if inc < spec.tol:
            converged = True
            break
        if (
            len(inc_norms) >= 4
            and inc_norms[-1] > inc_norms[-2] > inc_norms[-3] > inc_norms[-4]
        ):
            raise DivergenceError(
                "increment norms grew for three consecutive iterations on the "
                f"band below xi_max = {grid.xi_max}; the run is outside the "
                "certified small-data regime (rescale the datum first)"
            )

    final = iterates[-1]
    errors = [
        weighted_l1_seq_norm(SpaceTimeField(grid, tgrid, vj - final), spec.s)
        for vj in iterates
    ]
    return IterationTrace(
        iterates=[SpaceTimeField(grid, tgrid, vj) for vj in iterates],
        support_min_l1=supports,
        increment_norms=inc_norms,
        errors=errors,
        converged=converged,
    )


def picard_iterate(spec: ProblemSpec, v0: FrequencyField) -> IterationTrace:
    """Iterate v^{j+1} = delta e^{-t w} v0 + Duhamel((v^j)^{*m}), v^0 = 0.

    The datum must be octant-supported with |xi|_inf >= eps0.  Stops when
    the weighted increment norm drops below tol or jmax is reached; raises
    :class:`DivergenceError` when increments grow three times in a row.
    """
    if spec.nonlinearity.kind is not NonlinearityKind.POWER:
        raise ValueError("picard_iterate drives the power nonlinearity; "
                         "use exp_picard_iterate for the exponential flow")
    _gate(spec, v0, spec.eps0)
    return _run_picard(spec, v0, spec.nonlinearity.m)


def exp_picard_iterate(
    spec: ProblemSpec,
    u0: FrequencyField,
    sensitivity_probe: bool = True,
) -> IterationTrace:
    """Picard iteration for u_t - (lam^2 + Delta) u = lam^2 (e^u - u - 1)
    with the exponential series truncated at ``taylor_order``.

    The datum (already dilated onto this grid) must have its spectrum in
    the octant with |xi|_inf >= 2 * lambda_shift.  When
    ``sensitivity_probe`` is set, the run is repeated with two more series
    terms and the weighted distance between the final iterates is recorded
    as ``truncation_sensitivity`` (a warning is raised above tol).
    """
    if spec.nonlinearity.kind is not NonlinearityKind.EXPONENTIAL:
        raise ValueError("exp_picard_iterate needs an EXPONENTIAL nonlinearity")
    if spec.lambda_shift <= 0:
        raise GateError("the exponential flow needs a positive semigroup shift")
    _gate(spec, u0, 2.0 * spec.lambda_shift)
    M = spec.nonlinearity.taylor_order
    trace = _run_picard(spec, u0, M)
    if sensitivity_probe:
        hi = _run_picard(spec, u0, M + 2)
        sens = weighted_l1_seq_norm(trace.final - hi.final, spec.s)
        trace.truncation_sensitivity = sens
        if sens > spec.tol:
            warnings.warn(
                f"exponential-series truncation sensitivity {sens:.3e} exceeds "
                f"tol {spec.tol:.3e}; the series order M = {M} is too low for that tol",
                RuntimeWarning,
                stacklevel=2,
            )
    return trace


def taylor_coefficients(
    spec: ProblemSpec, v0: FrequencyField, K: float
) -> TaylorStack:
    """Derivative trajectories of the solution in the amplitude delta.

    Order 1 is the free evolution of v0; order k is the Duhamel integral
    of the multinomial sum of convolutions of lower orders.  Each order k
    has l1 support offset at least k times the datum's, so finitely many
    orders assemble the exact solution on |xi|_1 < K.
    """
    if spec.nonlinearity.kind is not NonlinearityKind.POWER:
        raise ValueError("the amplitude expansion is built for power flows")
    if K <= 0:
        raise ValueError("band K must be positive")
    if K > spec.grid.xi_max + 1e-12:
        raise ValueError(
            f"band K = {K} exceeds the grid validity xi_max = {spec.grid.xi_max}"
        )
    _gate(spec, v0, spec.eps0)
    st = support_stats(v0, tol=0.0)
    eps = spec.eps0 if st.empty else st.min_l1
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

    lam = spec.lambda_shift
    a: dict[int, np.ndarray] = {1: free_trajectory(v0, tgrid, lam).values}
    zero = np.zeros_like(a[1])

    # P[r][k]: degree-k coefficient of the r-fold convolution power of
    # sum_k a_k delta^k, built lazily.  Both rules are symmetric, so for
    # r = 2 each unordered pair a_i * a_{k-i} is convolved once.
    P: dict[tuple[int, int], np.ndarray] = {}

    def power_coeff(r: int, k: int) -> np.ndarray:
        if r == 1:
            return a.get(k, zero)
        if k < r:
            return zero
        key = (r, k)
        if key not in P:
            acc = np.zeros_like(zero)
            for i in range(1, (k // 2 if r == 2 else k - r + 1) + 1):
                ai = a.get(i, None)
                if ai is None or not ai.any():
                    continue
                rest = power_coeff(r - 1, k - i)
                if not rest.any():
                    continue
                pair = 2.0 if r == 2 and 2 * i < k else 1.0
                acc += pair * convolve_frames(ai, rest, grid, rule)
            P[key] = acc
        return P[key]

    for k in range(2, k_top + 1):
        Gk = power_coeff(m, k)
        a[k] = (duhamel(SpaceTimeField(grid, tgrid, Gk), lam).values if Gk.any()
                else zero)

    coeffs = [
        SpaceTimeField(grid, tgrid, math.factorial(k) * a[k])
        for k in range(1, k_top + 1)
    ]
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
    total = np.zeros_like(first.values)
    for k, ck in enumerate(stack.coeffs, start=1):
        total += (delta**k / math.factorial(k)) * ck.values
    mask = first.grid.l1() < K - 1e-12
    return SpaceTimeField(first.grid, first.tgrid, total * mask[None, ...])
