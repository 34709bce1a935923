"""Null holomorphic curves in C^3: construction, deformation, certification.

The package builds holomorphic maps whose derivative lives in the punctured
null quadric, deforms them by approximate boundary-value corrections with
verifiable certificates, and transfers the results to minimal surfaces in
R^3 and Bryant-type surfaces in hyperbolic 3-space.
"""

from .errors import (
    AliasingError,
    ConvergenceFailureError,
    DegenerateImmersionError,
    DomainError,
    NonDominatingSprayError,
    NonHolomorphicDataError,
    NonzeroResidueError,
    NotInH3Error,
    NotInNullConeError,
    NotInSL2Error,
    NullCurveError,
    PoleError,
    ToleranceUnachievableError,
    UnsupportedZeroConfigurationError,
)
from .kernels import BACKEND
from .series import SeriesMap

__version__ = "0.1.0"

__all__ = [
    "AliasingError",
    "BACKEND",
    "ConvergenceFailureError",
    "DegenerateImmersionError",
    "DomainError",
    "NonDominatingSprayError",
    "NonHolomorphicDataError",
    "NonzeroResidueError",
    "NotInH3Error",
    "NotInNullConeError",
    "NotInSL2Error",
    "NullCurveError",
    "PoleError",
    "SeriesMap",
    "ToleranceUnachievableError",
    "UnsupportedZeroConfigurationError",
    "__version__",
]
