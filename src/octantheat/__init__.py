"""Fourier-side computation engine for complex semilinear heat flows with
octant-supported spectra: exact band solutions via Picard/Taylor
recursions, an exponentially weighted norm family, dilation machinery,
and numerical probes of the estimates the construction rests on.
"""

__version__ = "0.1.0"

from . import data, engine, lattice, norms, oracle, probes
from .lattice import *  # noqa: F401,F403
from .norms import *  # noqa: F401,F403
from .data import *  # noqa: F401,F403
from .engine import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .probes import *  # noqa: F401,F403

__all__ = ["__version__", *lattice.__all__, *norms.__all__, *data.__all__,
           *engine.__all__, *oracle.__all__, *probes.__all__]
