"""Numerical verification probes: inequality constants on seeded random
fields, the scaling-vanishing curve, norm-inflation growth in the
exponentially weighted and Sobolev scales, and the super-factorial
error-decay law of the iteration.

Probe verdicts test the direction and shape of each estimate, never
unnamed constants.  Every probe is deterministic given its seed and
configuration, and every measured constant is re-measured once on a
refined grid (the same functions, prolonged cell-wise); a constant that
drifts by more than 2x marks the report inconclusive.

The random family puts per-cell complex Gaussians under a per-cube
polynomial envelope <k>^-rho, octant-masked by construction, with
rho swept over {0, 1, 2}; trajectories are separable, a field times a
positive time profile.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .data import (
    InitialDataKind,
    InitialDataSpec,
    make_initial_data,
    scale_data,
    scaled_grid,
)
from .engine import IterationTrace, duhamel, free_trajectory
from .lattice import (
    FrequencyField,
    FrequencyGrid,
    convolve_frames,
    cube_l2_table,
    make_grid,
)
from .norms import (
    NormFlavor,
    NormSpec,
    SpaceTimeField,
    TimeSpaceNormSpec,
    static_norm,
    timespace_norm,
    weighted_l1_seq_norm,
)
from .oracle import _gl

__all__ = [
    "ProbeReport",
    "inequality_probe",
    "scaling_vanishing_curve",
    "illposed_probe_E",
    "illposed_probe_H",
    "inflation_exponent",
    "error_decay_fit",
    "random_field",
]


@dataclass
class ProbeReport:
    """Outcome of one probe: inputs, measured constants, verdict."""

    kind: str
    params: dict
    seed: int | None
    resolution: dict
    measured: dict
    refined: dict | None = None
    drift: float | None = None
    stable: bool | None = None
    passed: bool | None = None
    curve: list = dc_field(default_factory=list)
    notes: str = ""

    @property
    def verdict(self) -> str:
        if self.stable is False:
            return "inconclusive"
        if self.passed is None:
            return "measured"
        return "pass" if self.passed else "fail"

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["verdict"] = self.verdict
        return out


# ---------------------------------------------------------------------------
# seeded random family


def _cube_envelope(grid: FrequencyGrid, rho: float) -> np.ndarray:
    return np.sqrt(1.0 + sum(np.floor(c) ** 2 for c in grid.coords())) ** (-rho)


def _draw_cells(grid: FrequencyGrid, rho: float, rng: np.random.Generator,
                linf_floor: float = 0.0) -> np.ndarray:
    cells = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    cells = cells * _cube_envelope(grid, rho)
    if linf_floor > 0.0:
        cells = cells * (grid.linf() >= linf_floor - 1e-12)
    return cells


def _prolong(cells: np.ndarray, d: int, factor: int = 2) -> np.ndarray:
    out = cells
    for a in range(d):
        out = np.repeat(out, factor, axis=a)
    return out


def random_field(grid: FrequencyGrid, rho: float, rng: np.random.Generator,
                 linf_floor: float = 0.0) -> FrequencyField:
    """One member of the seeded test family."""
    return FrequencyField(grid, _draw_cells(grid, rho, rng, linf_floor))


def _time_profile_params(rng: np.random.Generator) -> tuple[float, float, float]:
    return (float(rng.uniform(0.0, 2.0)),
            float(rng.uniform(0.0, 4.0)),
            float(rng.uniform(0.0, 2 * math.pi)))


def _time_profile(params: tuple[float, float, float], tgrid: np.ndarray) -> np.ndarray:
    b, w, phi = params
    return np.exp(-b * tgrid) * (1.1 + np.cos(w * tgrid + phi)) / 2.1


@dataclass(frozen=True)
class _Sample:
    """Cells drawn at base resolution plus time-profile parameters, so the
    same functions can be re-rendered on a refined grid."""

    cells: tuple[np.ndarray, ...]
    profiles: tuple[tuple[float, float, float], ...]

    def fields(self, grid: FrequencyGrid, factor: int) -> list[FrequencyField]:
        return [
            FrequencyField(grid, _prolong(c, grid.d, factor) if factor > 1 else c)
            for c in self.cells
        ]

    def trajectories(
        self, grid: FrequencyGrid, tgrid: np.ndarray, factor: int
    ) -> list[SpaceTimeField]:
        out = []
        for f, p in zip(self.fields(grid, factor), self.profiles):
            g = _time_profile(p, tgrid).reshape((tgrid.size,) + (1,) * grid.d)
            out.append(SpaceTimeField(grid, tgrid, g * f.values[None, ...]))
        return out


def _draw_samples(grid: FrequencyGrid, rng: np.random.Generator, n_samples: int,
                  fields_per_sample: int, linf_floor: float = 0.0) -> list[_Sample]:
    rhos = (0.0, 1.0, 2.0)
    samples = []
    for i in range(n_samples):
        rho = rhos[i % len(rhos)]
        cells = tuple(
            _draw_cells(grid, rho, rng, linf_floor) for _ in range(fields_per_sample)
        )
        profiles = tuple(_time_profile_params(rng) for _ in range(fields_per_sample))
        samples.append(_Sample(cells, profiles))
    return samples


def _conv_traj(trajs: list[SpaceTimeField]) -> SpaceTimeField:
    """Per-node Riemann-rule convolution of separable trajectories (space
    parts convolved once per stage, exact for the separable family)."""
    grid = trajs[0].grid
    acc = functools.reduce(lambda a, u: convolve_frames(a, u.values, grid), trajs[1:],
                           trajs[0].values)
    return SpaceTimeField(grid, trajs[0].tgrid, acc)


# ---------------------------------------------------------------------------
# inequality probes


def _sigma_c(d: int, m: int) -> float:
    return d / 2.0 - 2.0 / (m - 1)


def _max_ratio(pairs) -> float:
    """The largest num / den (at least 0) over (num, den) pairs with a finite
    den > 0.  Without such a pair nothing was measured: ValueError."""
    best, usable = 0.0, False
    for num, den in pairs:
        if 0 < den < math.inf:
            best, usable = max(best, num / den), True
    if not usable:
        raise ValueError("no sample gives a finite positive denominator: the drawn "
                         "fields vanish on this grid or their norms overflow")
    return best


def _measure_heat_semigroup(grid, tgrid, samples, factor, p) -> dict:
    s, sigma = p["s"], p["sigma"]
    gammas = (1.0, float(p["m"]), math.inf) if p["gammas"] is None else p["gammas"]
    if not gammas:
        raise ValueError("heat_semigroup needs at least one gamma")
    rows = []  # per sample: the trajectory's norm for each gamma, the datum's norm
    for smp in samples:
        (u0,) = smp.fields(grid, factor)[:1]
        traj = free_trajectory(u0, tgrid)
        rows.append(([timespace_norm(traj, TimeSpaceNormSpec(g, 2, s, sigma + 2.0 / g))
                      for g in gammas],
                     static_norm(u0, NormSpec(NormFlavor.ES_LATTICE, s, sigma))))
    per_gamma = {str(g): _max_ratio((lhs[i], den) for lhs, den in rows)
                 for i, g in enumerate(gammas)}
    return {"C": max(per_gamma.values()), "per_gamma": per_gamma}


def _measure_shifted_semigroup(grid, tgrid, samples, factor, p) -> dict:
    lam, c_rate = p["lam"], p["c_rate"]
    kk = grid.lattice_coords()
    k2 = sum(k * k for k in kk)
    admissible = functools.reduce(np.maximum, kk) >= 2 * lam
    ratios = []  # per sample: the largest ratio over its cubes with a usable base
    for smp in samples:
        (u0,) = smp.fields(grid, factor)[:1]
        base = cube_l2_table(u0.values, grid)
        ok = admissible & (base > 0) & (base < math.inf)
        if not ok.any():
            continue
        evolved = cube_l2_table(free_trajectory(u0, tgrid, lam).values, grid)
        growth = np.exp(np.multiply.outer(c_rate * tgrid, k2[ok]))
        ratios.append(float((evolved[:, ok] * growth / base[ok]).max()))
    return {"C": _max_ratio((r, 1.0) for r in ratios), "c_rate": c_rate}


def _measure_product_es(grid, tgrid, samples, factor, p) -> dict:
    s, sigma, m = p["s"], p["sigma"], p["m"]
    if sigma < _sigma_c(grid.d, m) - 1e-12:
        raise ValueError(
            f"product estimate needs sigma >= d/2 - 2/(m-1) = {_sigma_c(grid.d, m)}"
        )
    lhs_spec = TimeSpaceNormSpec(1.0, 2, s, sigma)
    rhs_spec = TimeSpaceNormSpec(float(m), 2, s, sigma + 2.0 / m)

    def ratio(smp):
        trajs = smp.trajectories(grid, tgrid, factor)[:m]
        return (timespace_norm(_conv_traj(trajs), lhs_spec),
                math.prod(timespace_norm(u, rhs_spec) for u in trajs))
    return {"C": _max_ratio(map(ratio, samples))}


def _measure_product_no_lowband(grid, tgrid, samples, factor, p) -> dict:
    s, sigma, m = p["s"], p["sigma"], p["m"]
    cube0 = np.indices(grid.shape).max(axis=0) < grid.n_sub  # unit cube k = 0
    lhs_spec = TimeSpaceNormSpec(1.0, 2, s, sigma, "EXCLUDE_ZERO")
    high_spec = TimeSpaceNormSpec(1.0, 2, s, sigma + 2.0, "EXCLUDE_ZERO")
    sup_spec = TimeSpaceNormSpec(math.inf, 2, s, sigma)

    def ratio(smp):
        trajs = smp.trajectories(grid, tgrid, factor)[:m]
        low = [SpaceTimeField(grid, tgrid, np.where(cube0, u.values, 0)) for u in trajs]
        lhs = timespace_norm(_conv_traj(trajs) - _conv_traj(low), lhs_spec)
        sup = [timespace_norm(u, sup_spec) for u in trajs]  # once per trajectory
        rhs = 0.0  # sum over i of the high norm of u_i times the sups of the others
        for i, u in enumerate(trajs):
            rhs += math.prod([timespace_norm(u, high_spec), *sup[:i], *sup[i + 1:]])
        return lhs, rhs
    return {"C": _max_ratio(map(ratio, samples))}


def _measure_highband_smoothing(grid, tgrid, samples, factor, p) -> dict:
    s, sigma, A, q = p["s"], p["sigma"], p["A"], p["q"]
    spec = TimeSpaceNormSpec(math.inf, q, s, sigma)

    def ratio(smp):
        (f,) = smp.trajectories(grid, tgrid, factor)[:1]
        return timespace_norm(duhamel(f), spec) * A**2, timespace_norm(f, spec)
    return {"C": _max_ratio(map(ratio, samples)), "A": A}


def _measure_conv_weighted_l1(grid, tgrid, samples, factor, p) -> dict:
    s_tilde, m = p["s_tilde"], p["m"]
    if s_tilde > 0:
        raise ValueError("the weighted l1 convolution bound needs s_tilde <= 0")

    def ratio(smp):
        trajs = smp.trajectories(grid, tgrid, factor)[:m]
        return (weighted_l1_seq_norm(_conv_traj(trajs), s_tilde),
                math.prod(weighted_l1_seq_norm(u, s_tilde) for u in trajs))
    return {"C": _max_ratio(map(ratio, samples))}


def _measure_product_e21(grid, tgrid, samples, factor, p) -> dict:
    s, m = p["s"], p["m"]
    if s >= 0:
        raise ValueError("the E21 product bound needs s < 0")
    one_spec = TimeSpaceNormSpec(1.0, 1, s, 0.0)
    sup_spec = TimeSpaceNormSpec(math.inf, 1, s, 0.0)

    def ratio(smp):
        (u,) = smp.trajectories(grid, tgrid, factor)[:1]
        return (timespace_norm(_conv_traj([u] * m), one_spec),
                timespace_norm(u, sup_spec) ** (m - 1) * timespace_norm(u, one_spec))
    return {"C": _max_ratio(map(ratio, samples))}


def _measure_sobolev_embedding(grid, tgrid, samples, factor, p) -> dict:
    s, sigma, r = p["s"], p["sigma"], p["r"]
    if s >= 0:
        raise ValueError("the embedding into the exponential scale needs s < 0")
    weight = (1.0 + grid.euclid_sq()) ** ((sigma - r) / 2.0) * 2.0 ** (s * grid.l1())
    C_explicit = float(weight.max())

    def ratio(smp):
        (f,) = smp.fields(grid, factor)[:1]
        return (static_norm(f, NormSpec(NormFlavor.ES_INTEGRAL, s, sigma)),
                static_norm(f, NormSpec(NormFlavor.HSIGMA, sigma=r)))
    best = _max_ratio(map(ratio, samples))
    return {"C": best, "C_explicit": C_explicit,
            "holds": bool(best <= C_explicit * (1 + 1e-9))}


def _measure_e21_chain(grid, tgrid, samples, factor, p) -> dict:
    s, sigma_low, sigma_high = p["s"], p["sigma_low"], p["sigma_high"]
    if sigma_low > 0:
        raise ValueError("the lower embedding needs sigma_low <= 0")
    if sigma_high <= grid.d / 2.0:
        raise ValueError("the upper embedding needs sigma_high > d/2")
    bracket = grid.lattice_bracket()
    C_cs = float(np.sqrt(np.sum(bracket ** (-2.0 * sigma_high))))
    norms = []  # per sample: E21, ES_LATTICE at sigma_low and at sigma_high
    for smp in samples:
        (f,) = smp.fields(grid, factor)[:1]
        norms.append([static_norm(f, NormSpec(NormFlavor.E21, s)),
                      static_norm(f, NormSpec(NormFlavor.ES_LATTICE, s, sigma_low)),
                      static_norm(f, NormSpec(NormFlavor.ES_LATTICE, s, sigma_high))])
    lo_best = _max_ratio((lo, e21) for e21, lo, _ in norms)
    hi_best = _max_ratio((e21, C_cs * hi) for e21, _, hi in norms)
    return {
        "C": max(lo_best, hi_best),
        "lower_ratio": lo_best,
        "upper_ratio": hi_best,
        "C_upper_explicit": C_cs,
        "holds": bool(lo_best <= 1 + 1e-9 and hi_best <= 1 + 1e-9),
    }


_S_SIGMA_M = {"s": -1.0, "sigma": 0.0, "m": 2}

# kind -> (measurement, fields per sample (None: one per power m), every
# parameter with its default, |xi|_inf below which the drawn fields vanish)
INEQUALITY_KINDS = {
    "heat_semigroup": (_measure_heat_semigroup, 1, {**_S_SIGMA_M, "gammas": None},
                       lambda p: 1.0),
    "shifted_semigroup": (_measure_shifted_semigroup, 1, {"lam": 2.0, "c_rate": 0.5},
                          lambda p: 2.0 * p["lam"]),
    "product_es": (_measure_product_es, None, _S_SIGMA_M, None),
    "product_no_lowband": (_measure_product_no_lowband, None, _S_SIGMA_M, None),
    "highband_smoothing": (_measure_highband_smoothing, 1,
                           {"s": -1.0, "sigma": 0.0, "A": 4.0, "q": 1},
                           lambda p: p["A"]),
    "conv_weighted_l1": (_measure_conv_weighted_l1, None, {"s_tilde": -1.0, "m": 2},
                         None),
    "product_e21": (_measure_product_e21, 1, {"s": -1.0, "m": 2}, None),
    "sobolev_embedding": (_measure_sobolev_embedding, 1,
                          {"s": -1.0, "sigma": 0.0, "r": 0.0}, None),
    "e21_chain": (_measure_e21_chain, 1,
                  {"s": -1.0, "sigma_low": 0.0, "sigma_high": 1.0}, None),
}


def inequality_probe(
    kind: str,
    params: dict | None = None,
    n_samples: int = 20,
    seed: int = 0,
    grid: FrequencyGrid = make_grid(1, 8, 1.0 / 8),
    T: float = 1.0,
    nt: int = 33,
    refine: bool = True,
) -> ProbeReport:
    """Measure the constant of one estimate over the seeded field family.

    The constant is re-measured once with halved grid spacing and doubled
    time resolution (same functions); a drift above 2x marks the report
    inconclusive.  Parameters the estimate does not take, and parameter
    combinations outside its hypotheses, raise ValueError.
    """
    if kind not in INEQUALITY_KINDS:
        raise ValueError(f"unknown probe kind {kind!r}; "
                         f"available: {sorted(INEQUALITY_KINDS)}")
    measure, n_fields, defaults, linf_floor = INEQUALITY_KINDS[kind]
    unknown = sorted(set(params or {}) - set(defaults))
    if unknown:
        raise ValueError(f"{kind} takes no parameter(s) {', '.join(unknown)}; "
                         f"it takes {', '.join(sorted(defaults))}")
    p = dict(defaults)
    for key, value in (params or {}).items():
        try:  # to the default's type; gammas (default None) to floats
            p[key] = type(p[key])(value) if p[key] is not None \
                else tuple(map(float, value))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{kind} parameter {key}: {exc}") from exc
        # NaN and +-inf fail, except gamma = inf (the supremum in time)
        if not all(math.isfinite(v) or key == "gammas" and v == math.inf
                   for v in np.atleast_1d(p[key])):
            raise ValueError(f"{kind} parameter {key}: {value!r} is not finite")
    if p.get("m", 2) < 2:
        raise ValueError(f"{kind} needs m >= 2")
    if n_samples < 1:
        raise ValueError(f"{kind} needs n_samples >= 1")
    fields = n_fields if n_fields is not None else int(p["m"])
    rng = np.random.default_rng(seed)
    samples = _draw_samples(grid, rng, n_samples, fields,
                            linf_floor(p) if linf_floor else 0.0)
    tgrid = np.linspace(0.0, T, nt)

    measured = measure(grid, tgrid, samples, 1, p)
    report = ProbeReport(
        kind=kind,
        params=p,
        seed=seed,
        resolution={"d": grid.d, "h": grid.h, "xi_max": grid.xi_max,
                    "T": T, "nt": nt, "n_samples": n_samples,
                    "drift_bound": 2.0},
        measured=measured,
        curve=[{"sample": "base", **{k: v for k, v in measured.items()
                                     if isinstance(v, (int, float, bool))}}],
    )
    if refine:
        fine_grid = make_grid(grid.d, grid.xi_max, grid.h / 2.0)
        fine_t = np.linspace(0.0, T, 2 * nt - 1)
        refined = measure(fine_grid, fine_t, samples, 2, p)
        report.refined = refined
        base_c, fine_c = measured["C"], refined["C"]
        drift = (1.0 if base_c == fine_c else math.inf if 0.0 in (base_c, fine_c)
                 else max(base_c / fine_c, fine_c / base_c))
        report.drift = drift
        report.stable = bool(drift <= 2.0)
        report.curve.append(
            {"sample": "refined", **{k: v for k, v in refined.items()
                                     if isinstance(v, (int, float, bool))}}
        )
    finite = math.isfinite(measured["C"])
    holds = measured.get("holds", True)
    report.passed = bool(finite and holds and (report.stable is not False))
    return report


# ---------------------------------------------------------------------------
# scaling limit


def scaling_vanishing_curve(
    f: FrequencyField,
    sigma: float = 0.0,
    lam_list: tuple[int, ...] = (1, 2, 4, 8, 16),
    s: float = -1.0,
) -> ProbeReport:
    """Norms of lam^{d/2 - sigma} f(lam x) along a dilation ladder.

    Requires s < 0 and sigma >= 0 (the amplitude exponent is tied to
    sigma by a = d/2 - sigma).  Passes when the curve is strictly
    decreasing and ends below a tenth of its starting value.
    """
    if s >= 0:
        raise ValueError("the vanishing-scaling curve requires s < 0")
    if not lam_list:
        raise ValueError("the vanishing-scaling curve needs a nonempty lam_list")
    if sigma < 0:
        raise ValueError("the vanishing-scaling curve requires sigma >= 0")
    grid = f.grid
    a = grid.d / 2.0 - sigma
    spec = NormSpec(NormFlavor.ES_INTEGRAL, s, sigma)
    values = [static_norm(f if lam == 1 else
                          scale_data(f, lam, a, out_grid=scaled_grid(grid, lam)), spec)
              for lam in lam_list]
    curve = [{"lam": int(lam), "norm": v} for lam, v in zip(lam_list, values)]
    if values[0] == 0.0:
        passed = all(v == 0.0 for v in values)
        note = "zero datum; curve identically zero"
    else:
        decreasing = all(values[i + 1] < values[i] for i in range(len(values) - 1))
        passed = decreasing and values[-1] < 0.1 * values[0]
        note = ""
    return ProbeReport(
        kind="scaling_vanishing",
        params={"sigma": sigma, "s": s, "a": a, "lam_list": list(lam_list)},
        seed=None,
        resolution={"d": grid.d, "h": grid.h, "xi_max": grid.xi_max},
        measured={"first": values[0], "last": values[-1],
                  "C": values[-1] / values[0] if values[0] else 0.0},
        passed=bool(passed),
        stable=True,
        curve=curve,
        notes=note,
    )


# ---------------------------------------------------------------------------
# norm-inflation probes


def _exprel(z: np.ndarray) -> np.ndarray:
    """(e^z - 1)/z, stable through z = 0."""
    z = np.asarray(z, dtype=float)
    out = np.ones_like(z)
    nz = z != 0
    out[nz] = np.expm1(z[nz]) / z[nz]
    return out


def illposed_probe_E(
    s: float,
    sigma: float = 0.0,
    m: int = 2,
    k_list: tuple[int, ...] = (16, 32, 64),
    t: float = 1.0,
    h: float = 1.0 / 16,
    growth_factor: float = 4.0,
) -> ProbeReport:
    """Low-band output of the second iteration step for the +/-k sign-pair
    datum, against the pair frequency k.

    For each k the datum's positive and mirrored pieces are sampled on a
    grid, their cross term is summed over all offsets and cells at once, and
    the time integral of the semigroup kernel is carried out in closed form
    (the integrand decays on the k^-2 timescale, far below any uniform
    time grid).  The report passes when the weighted low-band size grows
    at least ``growth_factor`` per step in k; with s = 0 there is no
    exponential amplitude and the sequence does not diverge.
    """
    if m not in (2, 3):
        raise ValueError("the sign-pair probe supports m in {2, 3}")
    d = 1
    values = []
    for k in k_list:
        grid = make_grid(d, (m - 1) * k + 1, h)
        pair = make_initial_data(
            InitialDataSpec(InitialDataKind.INFLATION_PAIR, s=s, m=m, pair_k=k),
            grid,
        )
        pos = pair.pos.values.real
        neg = pair.neg.values.real
        n_half = int(round(0.5 / h))
        # the low band comes from m phi_+ phi_-^(m-1): axis 0 runs over the
        # output offsets xi, axes 1..m-1 over the mirrored piece's cells
        # eta_n, and the positive factor sits at xi + sum eta_n
        cells = np.ix_(np.arange(-n_half, n_half + 1), *[np.nonzero(neg)[0]] * (m - 1))
        x, etas = cells[0] * h, [c * h for c in cells[1:]]
        xi = x.ravel()
        zeta = sum(etas, x)
        idx = sum(cells)
        ok = (idx >= 0) & (idx < pos.size)
        amp_p = np.where(ok, pos[np.clip(idx, 0, pos.size - 1)], 0.0)
        amp_n = functools.reduce(np.multiply, [neg[c] for c in cells[1:]])
        Qtot = sum((e**2 for e in etas), zeta**2)
        kern = t * _exprel(t * (x**2 - Qtot))
        I = m * np.exp(-t * xi**2) * h ** (m - 1) * np.sum(
            amp_p * amp_n * kern, axis=tuple(range(1, m)))
        w = 2.0 ** (s * np.abs(xi)) * (1.0 + xi**2) ** (sigma / 2.0)
        G = float(np.sqrt(h * np.sum((w * I) ** 2)))
        values.append(G)
    ratios = [
        values[i + 1] / values[i] if values[i] > 0 else math.inf if values[i + 1] > 0
        else 0.0
        for i in range(len(values) - 1)
    ]
    diverging = bool(values and values[-1] > 0
                     and all(r >= growth_factor for r in ratios))
    return ProbeReport(
        kind="illposed_E",
        params={"s": s, "sigma": sigma, "m": m, "k_list": list(k_list), "t": t,
                "growth_factor": growth_factor},
        seed=None,
        resolution={"d": d, "h": h},
        measured={"C": max(values) if values else 0.0,
                  "ratios": ratios, "diverging": diverging},
        passed=diverging,
        stable=True,
        curve=[{"k": int(k), "lowband": G} for k, G in zip(k_list, values)],
    )


def inflation_exponent(m: int, d: int, sigma: float) -> float:
    """Growth exponent of the m-th amplitude derivative in the Sobolev
    scale: (m-1)(d/2 - sigma) - 2.  Positive only below the scaling index."""
    return (m - 1) * (d / 2.0 - sigma) - 2.0


def illposed_probe_H(
    sigma: float,
    m: int = 2,
    N_list: tuple[int, ...] = (8, 16, 32, 64),
    c_t: float = 1.0,
    quad_order: int = 64,
    slope_tol: float = 0.15,
) -> ProbeReport:
    """Sobolev size of the m-th amplitude derivative at t = c/N^2 for the
    N-scaled indicator datum in d = 1, with a log-log slope fit against the
    predicted growth exponent.

    Refuses weight indices at or above the scaling index, where the
    exponent is nonpositive and there is nothing to verify.
    """
    d = 1
    if m not in (2, 3):
        raise ValueError("the scaled-datum probe supports m in {2, 3}")
    if not N_list or min(N_list) < 1:
        raise ValueError("the scaled-datum probe needs positive scales N_list")
    expo = inflation_exponent(m, d, sigma)
    if expo <= 0:
        raise ValueError(
            f"exponent nonpositive ({expo:.3g}); sigma must lie below "
            f"{_sigma_c(d, m):.3g}"
        )
    vals = []
    for N in N_list:
        tN = c_t / N**2
        amp = float(N) ** (-sigma - d / 2.0)
        lo, hi = N / 2.0, float(N)

        def F(xi: np.ndarray) -> np.ndarray:
            # axis 0 runs over the output nodes, the others over the
            # quadrature nodes of the first m - 1 factors' frequencies
            x = xi[:, None]
            if m == 2:  # x - e1 in [lo, hi) too: a nonempty range on (2 lo, 2 hi)
                e1, w1 = _gl(quad_order, np.maximum(lo, x - hi),
                             np.minimum(hi, x - lo))
                Q = e1**2 + (x - e1) ** 2
                kern = tN * _exprel(tN * (x**2 - Q))
                out = amp**2 * np.sum(w1 * kern, axis=1)
            else:
                n1, w1 = _gl(max(32, quad_order // 2), lo, hi)
                x, e1, e2 = x[:, None], n1[:, None], n1[None, :]
                rest = x - e1 - e2
                ok = (rest >= lo) & (rest < hi)
                Q = e1**2 + e2**2 + rest**2
                kern = tN * _exprel(tN * (x**2 - Q)) * ok
                out = amp**3 * np.einsum("i,j,pij->p", w1, w1, kern)
            return np.exp(-tN * xi**2) * out

        total = 0.0
        # integrate |<xi>^sigma m! F|^2 over the output band, split at the
        # overlap kinks
        kinks = np.unique(
            np.clip(np.array([m * lo, m * lo + (hi - lo), m * hi - (hi - lo), m * hi]),
                    m * lo, m * hi)
        )
        for aa, bb in zip(kinks[:-1], kinks[1:]):
            if bb - aa <= 0:
                continue
            nodes, wts = _gl(quad_order, float(aa), float(bb))
            vals_F = F(nodes)
            wgt = (1.0 + nodes**2) ** (sigma / 2.0)
            total += float(np.sum(wts * (wgt * math.factorial(m) * vals_F) ** 2))
        vals.append(math.sqrt(total))
    slope = float(np.polyfit(np.log(np.asarray(N_list, float)),
                             np.log(np.asarray(vals)), 1)[0])
    passed = abs(slope - expo) <= slope_tol
    return ProbeReport(
        kind="illposed_H",
        params={"sigma": sigma, "m": m, "d": d, "N_list": list(N_list),
                "c_t": c_t, "target_exponent": expo, "slope_tol": slope_tol},
        seed=None,
        resolution={"quad_order": quad_order},
        measured={"C": slope, "slope": slope, "target": expo},
        passed=bool(passed),
        stable=True,
        curve=[{"N": int(N), "h_norm": v} for N, v in zip(N_list, vals)],
    )


# ---------------------------------------------------------------------------
# error-decay law


def error_decay_fit(
    trace: IterationTrace,
    reference: SpaceTimeField | None = None,
    s_tilde: float = -2.0,
    j_lo: int = 2,
) -> ProbeReport:
    """Fit the smallest single C satisfying both halves of the decay law,
    e_j <= C^j / (j!)^2 and e_{j+1} (j+1)^2 / e_j <= C, over the recorded
    iterates, with e_j measured against the reference (final iterate when
    not given).

    Vanishing errors satisfy any C and are skipped.  A sequence whose
    implied constant keeps escalating through the end of the window (the
    signature of errors that stop decaying super-factorially: the ratio
    e_{j+1}(j+1)^2/e_j grows without settling under the bound-fit
    constant) fails; genuine second-kind decay saturates or collapses once
    increments escape the band.
    """
    iterates = trace.iterates
    if len(iterates) < 4:
        raise ValueError("need at least four iterates to fit the decay law")
    ref = reference if reference is not None else trace.final
    e = {j: weighted_l1_seq_norm(vj - ref, s_tilde)
         for j, vj in enumerate(iterates, start=1)}
    j_hi = len(iterates) if reference is not None else len(iterates) - 1
    fit_js = [j for j in range(j_lo, j_hi + 1) if e.get(j, 0.0) > 0.0]
    if not fit_js:
        C_bound, C, ratios, passed = 0.0, 0.0, [], True
    else:
        C_bound = max((e[j] * math.factorial(j) ** 2) ** (1.0 / j) for j in fit_js)
        ratios = [
            e[j + 1] * (j + 1) ** 2 / e[j]
            for j in fit_js
            if j + 1 in e and e[j] > 0.0 and e[j + 1] > 0.0
        ]
        C = max([C_bound, *ratios])
        escalating = (
            len(ratios) >= 3
            and all(b > a for a, b in zip(ratios, ratios[1:]))
            and ratios[-1] > C_bound * (1 + 1e-6)
        )
        passed = math.isfinite(C) and not escalating
    return ProbeReport(
        kind="error_decay",
        params={"s_tilde": s_tilde, "j_lo": j_lo, "j_hi": j_hi},
        seed=None,
        resolution={},
        measured={"C": C, "C_bound": C_bound, "ratios": ratios,
                  "errors": [e[j] for j in sorted(e)]},
        passed=bool(passed),
        stable=True,
        curve=[{"j": j, "error": e[j]} for j in sorted(e)],
    )
