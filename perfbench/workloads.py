"""The benchmark's four workloads.

Each workload is built from a seed and a scratch directory: the seed
draws input values only (data amplitude and phase, or the cells of a
random field), never grid sizes, time nodes, iteration limits or bands,
so the work per op is the same on every seed.  The program receives only
the generated configs and fields.

``op()`` is one workload's fixed sequence of calls into the package's
public entry points; ``check(result)`` runs outside the timed region and
returns the names of failed checks and the op's reference error (None
when the outputs it needs are missing).

Library calls go through module attributes (``oh.cli.run``, ``oh.scale_data``)
so that a traced run sees the wrapped functions.
"""
from __future__ import annotations

import csv
import itertools
import json
import math
import shutil
from pathlib import Path

import numpy as np
import scipy.signal

import octantheat as oh
import octantheat.cli  # noqa: F401  (binds oh.cli)

LAYERS = ("lattice", "engine", "norms", "data", "oracle", "probes", "cli")


def _amplitude(rng: np.random.Generator) -> complex:
    """Data amplitude near 1: +-2 % in size, +-0.05 rad in phase, so the
    solves stay in the regime (and iteration counts) the configs size."""
    size = 1.0 + 0.02 * rng.uniform(-1.0, 1.0)
    return complex(size * np.exp(0.05j * rng.uniform(-1.0, 1.0)))


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _manifest(out: Path) -> dict:
    with open(out / "manifest.json") as fh:
        return json.load(fh)


def _cli_problems(label: str, rc: int, out: Path) -> tuple[list[str], dict]:
    """Exit status and manifest checks of one CLI run."""
    problems = [] if rc == 0 else [f"{label}: exit {rc}"]
    man = _manifest(out)
    checks = man.get("checks", {})
    if not checks:
        problems.append(f"{label}: manifest has no checks")
    problems += [f"{label}: check {k} false" for k, v in checks.items() if v is not True]
    return problems, man


class Workload:
    """Scratch directory handling shared by all workloads."""

    name = ""

    def __init__(self, seed: int, work: Path) -> None:
        self.rng = np.random.default_rng(seed % 2**63)
        self.work = work
        self.out = work / "out"
        work.mkdir(parents=True, exist_ok=True)

    def prepare(self) -> None:
        """Remove the previous op's outputs, so a check never reads stale files."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir()

    def write_config(self, name: str, cfg: dict) -> str:
        path = self.work / name
        with open(path, "w") as fh:
            json.dump(cfg, fh, indent=2)
        return str(path)


class Band1D(Workload):
    """CLI ``solve`` then ``taylor`` on the 1D exact-band problem."""

    name = "band-1d"
    NT, K, ITERATIONS = 257, 6.0, 8

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        self.amp = _amplitude(self.rng)
        self.config = self.write_config("band.json", {
            "d": 1,
            "grid": {"xi_max": 8, "h": 1 / 64},
            "time": {"T": 1.0, "nt": self.NT},
            "nonlinearity": {"type": "POWER", "m": 2},
            "epsilon0": 1.0,
            "iterate": {"jmax": self.ITERATIONS, "tol": 1e-12},
            "initial_data": {"kind": "EXP_HALFLINE", "amplitude": repr(self.amp)},
            "band_K": self.K,
        })
        self.ref = None

    def op(self):
        rc_solve = oh.cli.run("solve", self.config, str(self.out / "solve"))
        rc_taylor = oh.cli.run("taylor", self.config, str(self.out / "taylor"))
        return rc_solve, rc_taylor

    def check(self, result) -> tuple[list[str], float]:
        rc_solve, rc_taylor = result
        problems, man = _cli_problems("solve", rc_solve, self.out / "solve")
        more, man_t = _cli_problems("taylor", rc_taylor, self.out / "taylor")
        problems += more
        iters = len(man["details"]["support_min_l1"])
        if iters != self.ITERATIONS:
            problems.append(f"solve ran {iters} iterations, not {self.ITERATIONS}")
        if man_t["details"]["orders"] != int(self.K):
            problems.append(f"taylor built {man_t['details']['orders']} orders")
        last = f"t{self.NT - 1:05d}.field"
        picard = oh.lattice.load_field(self.out / "solve" / f"solution_{last}")
        taylor = oh.lattice.load_field(self.out / "taylor" / f"band_solution_{last}")
        grid = picard.grid
        # the exact band; above it the routes differ at O(h^2), because the
        # trapezoid convolution weights depend on each operand's support
        band = (grid.axis >= 1.0) & (grid.axis < 3.0)
        routes = _rel(taylor.values[band], picard.values[band])
        if not routes <= 1e-10:
            problems.append(f"solve and taylor differ by {routes:.3e} on the band")
        if self.ref is None:
            self.ref = oh.exp_halfline_band(1.0, grid.axis[band], delta=self.amp)
        err = _rel(picard.values[band], self.ref)
        if not err <= 1e-3:  # acceptance criterion 1 at this resolution
            problems.append(f"band error vs closed form {err:.3e} > 1e-3")
        return problems, err


class Solve2D(Workload):
    """CLI ``solve`` on the 2D octant bump (direct convolution bound)."""

    name = "solve-2d"
    NT, ITERATIONS = 9, 4

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        self.amp = _amplitude(self.rng)
        self.bump = {"kind": "OCTANT_BUMP", "eps0": 1.0, "width": 0.5}
        self.config = self.write_config("solve2d.json", {
            "d": 2,
            "grid": {"xi_max": 4, "h": 1 / 8},
            "time": {"T": 1.0, "nt": self.NT},
            "nonlinearity": {"type": "POWER", "m": 2},
            "epsilon0": 1.0,
            "iterate": {"jmax": 10, "tol": 1e-12},
            "initial_data": {**self.bump, "amplitude": repr(self.amp)},
        })
        self.expected = None

    def op(self):
        return oh.cli.run("solve", self.config, str(self.out))

    def _expected(self) -> dict:
        """Free evolution, combinatorial support, and a time-exact
        reference for the two lowest orders (set up once per process)."""
        grid = oh.make_grid(2, 4, 1 / 8)
        v0 = oh.make_initial_data(
            oh.InitialDataSpec(**{**self.bump, "amplitude": self.amp}), grid)
        tgrid = np.linspace(0.0, 1.0, self.NT)
        return {
            "l1": grid.l1(),
            "free": oh.free_trajectory(v0, tgrid).values[-1],
            "support": _trapezoid_support(v0.values != 0),
            "two_orders": self.amp * _free_1d(1.0) + self.amp**2 * _second_order(1.0),
        }

    def check(self, result) -> tuple[list[str], float]:
        problems, man = _cli_problems("solve", result, self.out)
        iters = len(man["details"]["support_min_l1"])
        if iters != self.ITERATIONS:
            problems.append(f"solve ran {iters} iterations, not {self.ITERATIONS}")
        if self.expected is None:
            self.expected = self._expected()
        ex = self.expected
        final = oh.lattice.load_field(self.out / f"solution_t{self.NT - 1:05d}.field")
        u = final.values
        # below l1 = 4 (twice the datum's offset) only the free part lives
        first = ex["l1"] < 4.0 - 1e-12
        if not np.array_equal(u[first], ex["free"][first]):
            problems.append("first band differs from the free evolution")
        if not np.array_equal(u != 0, ex["support"]):
            problems.append("nonzero pattern differs from the combinatorial support")
        # below l1 = 6 the solution is the free part plus the second order
        band = ex["l1"] < 6.0 - 1e-12
        err = _rel(u[band], ex["two_orders"][band])
        if not err <= 1e-2:
            problems.append(f"two-order band error {err:.3e} > 1e-2")
        return problems, err


def _shift_nonzero(mask: np.ndarray, axis: int, step: int) -> np.ndarray:
    """Cells whose neighbour at offset -step along ``axis`` is in ``mask``."""
    out = np.roll(mask, step, axis=axis)
    edge = [slice(None)] * mask.ndim
    edge[axis] = 0 if step == 1 else -1
    out[tuple(edge)] = False
    return out


def _trapezoid_support(datum: np.ndarray) -> np.ndarray:
    """Support of the quadratic Picard fixed point under the trapezoid rule:
    S = datum | union over sign patterns of (boolean) convolutions of S
    restricted to cells with a support neighbour, truncated to the grid."""
    shape = datum.shape
    cut = tuple(slice(0, n) for n in shape)
    support = datum
    while True:
        grown = datum.copy()
        for signs in itertools.product((1, -1), repeat=datum.ndim):
            f = support.copy()
            g = support.copy()
            for axis, s in enumerate(signs):
                f &= _shift_nonzero(support, axis, s)
                g &= _shift_nonzero(support, axis, -s)
            if f.any() and g.any():
                counts = scipy.signal.fftconvolve(f.astype(float), g.astype(float))
                grown |= counts[cut] > 0.5
        if np.array_equal(grown, support):
            return support
        support = grown


def _bump_1d():
    grid = oh.make_grid(1, 4, 1 / 8)
    spec = oh.InitialDataSpec("OCTANT_BUMP", eps0=1.0, width=0.5)
    return grid, oh.make_initial_data(spec, grid), grid.axis**2


def _free_1d(t: float) -> np.ndarray:
    grid, b, w = _bump_1d()
    f = b.values * np.exp(-t * w)
    return np.outer(f, f)


def _second_order(T: float, nodes: int = 48) -> np.ndarray:
    """int_0^T e^{-(T-s)|xi|^2} (f_s * f_s) ds for the unit 2D bump, with the
    trapezoid-rule spatial convolution and Gauss-Legendre in time.  The bump
    is a tensor product, so both factors split into 1D pieces."""
    grid, b, w = _bump_1d()
    x, wt = np.polynomial.legendre.leggauss(nodes)
    s_nodes, s_weights = 0.5 * T * (x + 1.0), 0.5 * T * wt
    out = np.zeros((grid.n, grid.n), dtype=complex)
    for s, ws in zip(s_nodes, s_weights):
        fs = oh.FrequencyField(grid, b.values * np.exp(-s * w))
        c = oh.lattice.convolve(fs, fs, rule="trapezoid", warn_on_truncation=False)
        e = np.exp(-(T - s) * w) * c.values
        out += ws * np.outer(e, e)
    return out


class Oracle1D(Workload):
    """CLI ``oracle-compare``: Picard against the RK4 reference integrator."""

    name = "oracle-1d"

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        self.config = self.write_config("oracle.json", {
            "d": 1,
            "grid": {"xi_max": 4, "h": 1 / 32},
            "time": {"T": 1.0, "nt": 513},
            "nonlinearity": {"type": "POWER", "m": 2},
            "epsilon0": 1.0,
            "iterate": {"jmax": 8, "tol": 1e-12},
            "initial_data": {"kind": "EXP_HALFLINE",
                             "amplitude": repr(_amplitude(self.rng))},
        })

    def op(self):
        return oh.cli.run("oracle-compare", self.config, str(self.out))

    def check(self, result) -> tuple[list[str], float]:
        problems, man = _cli_problems("oracle-compare", result, self.out)
        return problems, float(man["details"]["band_rel_err"])


class DilateIO(Workload):
    """Dilate -> evolve -> undo on a random 2D field, field I/O, CLI norms."""

    name = "dilate-io"
    LAM, A, NT, STRIDE = 2, 2.0, 129, 16
    NORM_T, NORM_NT = 0.25, 33

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        self.grid = oh.make_grid(2, 4, 1 / 16)
        self.field = oh.random_field(self.grid, 1.0, self.rng, linf_floor=1.0)
        self.big = oh.scaled_grid(self.grid, self.LAM)
        self.tgrid = np.linspace(0.0, 1.0 / 16, self.NT)
        self.frames = list(range(0, self.NT, self.STRIDE))
        self.last = self.out / f"frame_{self.frames[-1]:03d}.field"
        self.config = self.write_config("norms.json", {
            "d": 2,
            "field_file": str(self.last),
            "time": {"T": self.NORM_T, "nt": self.NORM_NT},
            "norms": [
                {"flavor": "ES_INTEGRAL", "s": -1.0, "sigma": 0.5},
                {"flavor": "ES_LATTICE", "s": -1.0, "sigma": 0.5},
                {"flavor": "E21", "s": -1.0},
                {"flavor": "HSIGMA", "sigma": 0.5},
                {"flavor": "ES_LATTICE", "gamma": 2, "q": 2},
                {"flavor": "ES_LATTICE", "gamma": "inf", "q": 1, "s": -1.0},
            ],
        })
        self.direct = None

    def op(self):
        small = oh.scale_data(self.field, self.LAM, self.A, out_grid=self.big)
        traj = oh.free_trajectory(small, self.tgrid)
        back = oh.rescale_solution(traj, self.LAM, self.A, out_grid=self.grid)
        loaded = []
        for n in self.frames:
            path = self.out / f"frame_{n:03d}.field"
            oh.save_field(back.frame(n), path)
            loaded.append(oh.load_field(path))
        rc = oh.cli.run("norms", self.config, str(self.out / "norms"))
        return back, loaded, rc

    def check(self, result) -> tuple[list[str], float]:
        back, loaded, rc = result
        problems, _ = _cli_problems("norms", rc, self.out / "norms")
        if self.direct is None:
            # the semigroup commutes with the power-of-two dilation bitwise
            self.direct = oh.free_trajectory(
                self.field, self.LAM**2 * self.tgrid).values
        if not np.array_equal(back.values[0], self.field.values):
            problems.append("round trip changed the datum")
        if not np.array_equal(back.values, self.direct):
            problems.append("rescaled trajectory differs from the direct evolution")
        for n, f in zip(self.frames, loaded):
            if f.grid != self.grid or not np.array_equal(f.values, back.values[n]):
                problems.append(f"frame {n} changed in save/load")
        with open(self.out / "norms" / "norms.csv") as fh:
            rows = list(csv.DictReader(fh))
        values = [float(r["value"]) for r in rows]
        if len(values) != 6 or not all(map(math.isfinite, values)):
            problems.append(f"norm values {values}")
            return problems, None
        exact = _l2_time_norm(back.values[-1], self.grid, self.NORM_T)
        return problems, abs(values[4] - exact) / exact


def _l2_time_norm(values: np.ndarray, grid, T: float) -> float:
    """Unweighted L2_t L2 norm of the free evolution over [0, T], exact in
    time: int_0^T e^{-2tw} dt = -expm1(-2Tw) / (2w) per cell."""
    w = grid.euclid_sq()
    safe = np.where(w > 0, w, 1.0)
    tint = np.where(w > 0, -np.expm1(-2.0 * T * safe) / (2.0 * safe), T)
    return float(np.sqrt(grid.h**grid.d * np.sum(np.abs(values) ** 2 * tint)))


WORKLOADS = {w.name: w for w in (Band1D, Solve2D, Oracle1D, DilateIO)}
