"""Independent reference computations for cross-validating the engine.

Two deliberately different routes:

* :func:`etd_reference_solve` integrates the stiff spectral ODE
  v' = -(|xi|^2 - lam^2) v + v^{*m} with an integrating-factor classical
  Runge-Kutta scheme (exact for the linear part, fourth order in the
  nonlinear part).  Each stage convolves one frame by direct summation:
  every product of the power calls the direct sum of the lattice's plan for
  its operands' nonzero patterns (for the self-product half the mirrored
  trapezoid terms, twice), and keeps that plan while the patterns stay the
  same, so the plan cache is asked only when a support changes.  A product
  keeps too its operands' bytes on the plan's boxes, the only cells the
  direct sum reads, and its result: when those bytes repeat, the product is
  that result again, bit for bit.  They repeat on the default compare box
  [0, 3) for data from eps >= 1: a product reads cells below 3 - eps <= 2
  and lands from 2 eps >= 2 up, so no stage increment touches what it
  reads.  Stage 3 then repeats stage 2's operands and the next step's
  stage 1 repeats stage 4's, and half the direct sums are not run again.
  The stages are written into four buffers allocated once per solve from E,
  E2 and step constants cast once to complex128, as each product with a
  complex stage would cast them: the bits are those of float constants.
  The divergence guard reads the frames a block of steps at a time and
  names the first one out of range.  The engine transforms whole frame
  stacks at once instead; the oracle shares no Duhamel code path with it,
  so band agreement between the two is evidence rather than tautology.
  The band |xi|_1 < B is closed: a product on a band cell comes from two
  band cells, whose trapezoid masks read neighbours that again sum to that
  cell.  So for gated data (zero at the origin) CLI ``oracle-compare`` runs
  only the box [0, ceil(B))^d, whose run is the whole grid's on the band,
  bit for bit.

* :func:`exp_halfline_reference` evaluates the closed-form amplitude
  derivatives of the quadratic flow with datum e^xi H(xi - 1) by nested
  Gauss-Legendre quadrature (orders 2 and 3 are double and four-fold
  nested integrals).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .engine import DivergenceError, NonlinearityKind, ProblemSpec, heat_symbol
from .lattice import FrequencyField, _plan
from .norms import SpaceTimeField

__all__ = [
    "OracleConfig",
    "etd_reference_solve",
    "exp_halfline_reference",
    "exp_halfline_band",
]


# steps per divergence check: one reduction for the block's frames, not one
# per step, and a diverging run goes on fewer than this past its first bad
# frame before it raises
GUARD_STEPS = 16


@dataclass(frozen=True)
class OracleConfig:
    """Reference-integrator resolution.  nt_fine should be at least four
    times the engine's node count for the comparisons to be one-sided."""

    nt_fine: int = 1025


@lru_cache(maxsize=64)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _gl(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    x, w = _leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def etd_reference_solve(
    spec: ProblemSpec, v0: FrequencyField, cfg: OracleConfig
) -> SpaceTimeField:
    """Integrating-factor RK4 solve of the band-truncated spectral ODE for
    the spec's u^m, horizon, amplitude, shift and convolution rule, in
    ``cfg.nt_fine`` time nodes.

    Raises ValueError for a non-POWER spec or nt_fine < 2, and
    :class:`DivergenceError` when a step leaves the certified range
    (step-size instability or genuine blow-up on the band).
    """
    if spec.nonlinearity.kind is not NonlinearityKind.POWER:
        raise ValueError("the reference integrator drives the power nonlinearity")
    if cfg.nt_fine < 2:
        raise ValueError(f"nt_fine must be at least 2, got {cfg.nt_fine}")
    grid, m, nt = spec.grid, spec.nonlinearity.m, cfg.nt_fine
    tgrid = np.linspace(0.0, spec.T, nt)
    dt = float(tgrid[1] - tgrid[0])
    w = heat_symbol(grid, spec.lambda_shift)
    # complex128 once, as each product with a complex stage would cast them
    E = np.exp(-dt * w).astype(np.complex128)
    E2 = np.exp(-0.5 * dt * w).astype(np.complex128)

    # product k of the power keeps its operands' last nonzero patterns, a byte
    # per cell, and their plan: the plan cache is asked only on a change.  It
    # keeps too its operands' last bytes on the plan's boxes, the only cells
    # the direct sum reads, and its result, read-only: a product whose
    # operands repeat there is that result again, bit for bit
    memo = [((), None, None, None)] * (m - 1)

    def N(v: np.ndarray) -> np.ndarray:
        out, v_nz = v, v.astype(bool).tobytes()
        for k, (keys, p, ops, res) in enumerate(memo):
            now = (out.astype(bool).tobytes() if k else v_nz), v_nz
            if now != keys:
                packed = (np.packbits(np.frombuffer(nz, bool)).tobytes() for nz in now)
                p, ops = _plan(*packed, grid.shape, grid.h, spec.conv_rule), None
            if p.whole is None:  # an empty pattern: the sum is zero
                seen = ()
            elif out is v:  # one pattern, so one box; the key's length marks it
                seen = out[p.whole[1]].tobytes(),
            else:
                seen = out[p.whole[1]].tobytes(), v[p.whole[2]].tobytes()
            if seen != ops:
                res = p.direct(out, v)
                res.flags.writeable = False
            memo[k] = now, p, seen, res
            out = res
        return out

    v = spec.delta * v0.values
    frames = np.empty((nt, *grid.shape), dtype=np.complex128)
    frames[0] = v
    guard = 1e6 * max(1.0, float(np.abs(v).max()))
    half, dtE2, twoE2, sixth = complex(0.5 * dt), dt * E2, 2.0 * E2, complex(dt / 6.0)
    Ev, a, b, c = np.empty((4, *grid.shape), dtype=np.complex128)
    mul, add = np.multiply, np.add
    # the guard reads the frames a block of steps at a time and names the
    # first one out of range; a diverging state may overflow before its
    # block ends.  A stage's buffer is free again once N returns: N keeps
    # only its operands' bytes, and its products are read-only
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, nt):
            k1 = N(v)
            k2 = N(mul(E2, add(v, mul(half, k1, out=a), out=a), out=a))
            k3 = N(add(mul(E2, v, out=b), mul(half, k2, out=c), out=b))
            k4 = N(add(mul(E, v, out=Ev), mul(dtE2, k3, out=c), out=c))
            mul(twoE2, add(k2, k3, out=a), out=a)
            add(add(mul(E, k1, out=b), a, out=b), k4, out=b)
            v = add(Ev, mul(sixth, b, out=b), out=frames[n])
            if n % GUARD_STEPS == 0 or n == nt - 1:
                lo = (n - 1) // GUARD_STEPS * GUARD_STEPS + 1
                peaks = np.abs(frames[lo:n + 1]).reshape(n + 1 - lo, -1).max(axis=1)
                bad = np.flatnonzero(~(peaks <= guard))  # NaN and inf fail it too
                if bad.size:
                    raise DivergenceError(
                        f"reference integrator unstable at step {lo + bad[0]} "
                        f"(dt = {dt:.3e}); refine the step or shrink the horizon"
                    )
    return SpaceTimeField(grid, tgrid, frames)


def _inner_double(t2, x2, q: int) -> np.ndarray:
    """int_0^{t2} int_1^{x2-1} exp(2 t1 x1 (x2 - x1)) dx1 dt1, broadcast over
    equal-shape arrays t2, x2 (zero where x2 < 2)."""
    t2 = np.asarray(t2, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    u, uw = _gl(q, 0.0, 1.0)
    # t1 = t2 * p, x1 = 1 + (x2 - 2) * r
    p, pw = u[:, None], uw[:, None]
    r, rw = u[None, :], uw[None, :]
    t2e = t2[..., None, None]
    x2e = x2[..., None, None]
    width = np.maximum(x2e - 2.0, 0.0)
    t1 = t2e * p
    x1 = 1.0 + width * r
    integrand = np.exp(2.0 * t1 * x1 * (x2e - x1))
    jac = t2 * np.maximum(x2 - 2.0, 0.0)
    return np.sum(integrand * (pw * rw), axis=(-2, -1)) * jac


def exp_halfline_reference(
    t: float, xi: float, order: int, quad_order: int = 32
) -> complex:
    """Closed-form amplitude derivative of the quadratic flow with datum
    e^xi H(xi - 1), evaluated at one (t, xi) point.

    Order 1 is pointwise; orders 2 and 3 are nested Gauss-Legendre
    quadratures of the printed integral forms.  Points below the order's
    support threshold return 0.
    """
    if order not in (1, 2, 3):
        raise ValueError("orders 1..3 are available")
    if t < 0:
        raise ValueError("t must be nonnegative")
    q = quad_order
    if xi < order:  # order k lives on xi >= k
        return 0.0 + 0.0j
    if order == 1:
        return complex(np.exp(-t * xi**2 + xi))
    if order == 2:
        val = 2.0 * np.exp(-t * xi**2 + xi) * _inner_double(
            np.array(t), np.array(xi), q
        )
        return complex(val)
    t2, t2w = _gl(q, 0.0, t)
    x2, x2w = _gl(q, 2.0, xi - 1.0)
    T2g, X2g = np.meshgrid(t2, x2, indexing="ij")
    inner = _inner_double(T2g, X2g, q)
    outer = np.exp(2.0 * T2g * X2g * (xi - X2g)) * inner
    val = np.einsum("i,j,ij->", t2w, x2w, outer)
    return complex(12.0 * np.exp(-t * xi**2 + xi) * val)


def exp_halfline_band(
    t: float, xis: np.ndarray, delta: float = 1.0, quad_order: int = 32
) -> np.ndarray:
    """Three-term exact band solution sum_k delta^k / k! d^k v at the given
    frequencies (valid for xi < 3 up to quadrature error)."""
    out = np.zeros(len(xis), dtype=np.complex128)
    for i, x in enumerate(np.asarray(xis, dtype=float)):
        for k, fact in ((1, 1.0), (2, 2.0), (3, 6.0)):
            out[i] += delta**k / fact * exp_halfline_reference(t, float(x), k, quad_order)
    return out
