import importlib
import os
import subprocess
import sys
from pathlib import Path

import octantheat

MODULES = ("lattice", "norms", "data", "engine", "oracle", "probes")

# the public names of the package, pinned: a name added to or dropped from a
# module's __all__ changes the package namespace and must show up here
PUBLIC = [
    "DivergenceError", "FrequencyField", "FrequencyGrid", "GateError",
    "InitialDataKind", "InitialDataSpec", "IterationTrace",
    "Nonlinearity", "NonlinearityKind", "NormFlavor", "NormSpec", "OracleConfig",
    "ProbeReport", "ProblemSpec", "ScalingPlan", "SpaceTimeField", "SupportStats",
    "TaylorStack", "TimeSpaceNormSpec", "__version__", "assemble_band_solution",
    "choose_lambda", "convolve", "convolve_frames", "duhamel", "error_decay_fit", "etd_reference_solve", "exp_halfline_band",
    "exp_halfline_reference", "free_trajectory",
    "illposed_probe_E", "illposed_probe_H", "inequality_probe", "inflation_exponent",
    "load_field", "make_grid", "make_initial_data", "picard_iterate",
    "random_field", "rescale_solution", "save_field", "scale_data", "scaled_grid",
    "scaling_vanishing_curve", "static_norm", "support_stats", "taylor_coefficients",
    "timespace_norm",
]


def test_public_names_pinned():
    assert sorted(octantheat.__all__) == PUBLIC
    assert len(set(octantheat.__all__)) == len(octantheat.__all__)


def test_each_name_is_its_modules_object():
    seen = {"__version__"}
    for name in MODULES:
        mod = importlib.import_module(f"octantheat.{name}")
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            assert getattr(octantheat, attr) is obj, f"{name}.{attr}"
            assert getattr(obj, "__module__", mod.__name__) == mod.__name__, \
                f"{name}.{attr} is defined in {obj.__module__}"
            seen.add(attr)
    assert seen == set(octantheat.__all__)


def test_no_scipy_on_import():
    # the package runs on numpy alone; scipy.signal and scipy.fft took more
    # than half of the import time
    env = dict(os.environ)
    path = [str(Path(octantheat.__file__).parents[1]), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    code = ("import sys, octantheat, octantheat.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"
