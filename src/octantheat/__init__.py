"""Fourier-side computation engine for complex semilinear heat flows with
octant-supported spectra: exact band solutions via Picard/Taylor
recursions, an exponentially weighted norm family, dilation machinery,
and numerical probes of the estimates the construction rests on.
"""

__version__ = "0.1.0"

from .lattice import (
    FrequencyGrid,
    FrequencyField,
    SupportStats,
    make_grid,
    box_project,
    convolve,
    convolve_frames,
    convolve_power,
    support_stats,
    save_field,
    load_field,
)
from .norms import (
    NormFlavor,
    NormSpec,
    TimeSpaceNormSpec,
    SpaceTimeField,
    static_norm,
    timespace_norm,
    weighted_l1_seq_norm,
)
from .data import (
    InitialDataKind,
    InitialDataSpec,
    IllposedPair,
    ScalingPlan,
    make_initial_data,
    scale_data,
    scaled_grid,
    choose_lambda,
    rescale_solution,
)
from .engine import (
    GateError,
    DivergenceError,
    NonlinearityKind,
    Nonlinearity,
    ProblemSpec,
    IterationTrace,
    TaylorStack,
    propagate,
    free_trajectory,
    duhamel,
    picard_iterate,
    taylor_coefficients,
    assemble_band_solution,
    exp_picard_iterate,
)
from .oracle import (
    OracleConfig,
    etd_reference_solve,
    exp_halfline_reference,
    exp_halfline_band,
)
from .probes import (
    ProbeReport,
    inequality_probe,
    scaling_vanishing_curve,
    illposed_probe_E,
    illposed_probe_H,
    inflation_exponent,
    error_decay_fit,
    random_field,
)

__all__ = [
    "__version__",
    "FrequencyGrid", "FrequencyField", "SupportStats", "make_grid",
    "box_project", "convolve", "convolve_frames", "convolve_power",
    "support_stats", "save_field", "load_field",
    "NormFlavor", "NormSpec", "TimeSpaceNormSpec", "SpaceTimeField",
    "static_norm", "timespace_norm", "weighted_l1_seq_norm",
    "InitialDataKind", "InitialDataSpec", "IllposedPair", "ScalingPlan",
    "make_initial_data", "scale_data", "scaled_grid", "choose_lambda",
    "rescale_solution",
    "GateError", "DivergenceError", "NonlinearityKind", "Nonlinearity",
    "ProblemSpec", "IterationTrace", "TaylorStack", "propagate",
    "free_trajectory", "duhamel", "picard_iterate", "taylor_coefficients",
    "assemble_band_solution", "exp_picard_iterate",
    "OracleConfig", "etd_reference_solve", "exp_halfline_reference",
    "exp_halfline_band",
    "ProbeReport", "inequality_probe", "scaling_vanishing_curve",
    "illposed_probe_E", "illposed_probe_H", "inflation_exponent",
    "error_decay_fit", "random_field",
]
