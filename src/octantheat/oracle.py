"""Independent reference computations for cross-validating the engine.

Two deliberately different routes:

* :func:`etd_reference_solve` integrates the stiff spectral ODE
  v' = -(|xi|^2 - lam^2) v + v^{*m} with an integrating-factor classical
  Runge-Kutta scheme (exact for the linear part, fourth order in the
  nonlinear part).  It convolves frame by frame by direct summation
  (:func:`convolve_power`), where the engine uses the batched FFT kernel,
  and shares no Duhamel code path with the engine, so band agreement
  between the two is evidence rather than tautology.

* :func:`exp_halfline_reference` evaluates the closed-form amplitude
  derivatives of the quadratic flow with datum e^xi H(xi - 1) by nested
  Gauss-Legendre quadrature (orders 2 and 3 are double and four-fold
  nested integrals).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .engine import DivergenceError, heat_symbol
from .lattice import FrequencyField, convolve_power
from .norms import SpaceTimeField

__all__ = [
    "OracleConfig",
    "etd_reference_solve",
    "exp_halfline_reference",
    "exp_halfline_band",
]


@dataclass(frozen=True)
class OracleConfig:
    """Reference-integrator resolution.  nt_fine should be at least four
    times the engine's node count for the comparisons to be one-sided."""

    nt_fine: int = 1025
    compare_band: float = 3.0


@lru_cache(maxsize=64)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _gl(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    x, w = _leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def etd_reference_solve(
    v0: FrequencyField,
    m: int,
    T: float,
    cfg: OracleConfig,
    delta: float = 1.0,
    lambda_shift: float = 0.0,
    conv_rule: str = "trapezoid",
) -> SpaceTimeField:
    """Integrating-factor RK4 solve of the band-truncated spectral ODE.

    Raises :class:`DivergenceError` when a step leaves the certified range
    (step-size instability or genuine blow-up on the band).
    """
    if m < 2:
        raise ValueError("power must be at least 2")
    grid = v0.grid
    nt = cfg.nt_fine
    tgrid = np.linspace(0.0, T, nt)
    dt = float(tgrid[1] - tgrid[0])
    w = heat_symbol(grid, lambda_shift)
    E = np.exp(-dt * w)
    E2 = np.exp(-0.5 * dt * w)

    def N(v: np.ndarray) -> np.ndarray:
        return convolve_power(FrequencyField(grid, v), m, conv_rule,
                              warn_on_truncation=False).values

    v = delta * v0.values.copy()
    frames = np.empty((nt, *grid.shape), dtype=np.complex128)
    frames[0] = v
    guard = 1e6 * max(1.0, float(np.abs(v).max()))
    for n in range(nt - 1):
        k1 = N(v)
        a = E2 * (v + 0.5 * dt * k1)
        k2 = N(a)
        b = E2 * v + 0.5 * dt * k2
        k3 = N(b)
        c = E * v + dt * E2 * k3
        k4 = N(c)
        v = E * v + (dt / 6.0) * (E * k1 + 2.0 * E2 * (k2 + k3) + k4)
        if not np.all(np.isfinite(v.view(np.float64))) or np.abs(v).max() > guard:
            raise DivergenceError(
                f"reference integrator unstable at step {n + 1} "
                f"(dt = {dt:.3e}); refine the step or shrink the horizon"
            )
        frames[n + 1] = v
    return SpaceTimeField(grid, tgrid, frames)


def _inner_double(t2, x2, q: int) -> np.ndarray:
    """int_0^{t2} int_1^{x2-1} exp(2 t1 x1 (x2 - x1)) dx1 dt1, broadcast over
    equal-shape arrays t2, x2 (zero where x2 < 2)."""
    t2 = np.asarray(t2, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    u, uw = _leggauss(q)
    u = 0.5 * (u + 1.0)  # nodes on [0, 1]
    uw = 0.5 * uw
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
    fact = [1.0, 1.0, 2.0, 6.0]
    for i, x in enumerate(np.asarray(xis, dtype=float)):
        for k in (1, 2, 3):
            out[i] += delta**k / fact[k] * exp_halfline_reference(
                t, float(x), k, quad_order
            )
    return out
