"""Exception hierarchy.

Each class corresponds to a distinct failure mode of the library; the CLI
maps them onto exit codes (domain errors -> 1, tolerance failures -> 2).
"""

import contextlib


class NullCurveError(Exception):
    """Base class for all library errors."""


class DomainError(NullCurveError):
    """Evaluation point outside the series' domain of definition."""


@contextlib.contextmanager
def _parsing(what: str):
    """Report a missing key or a wrongly shaped value in a JSON document as a DomainError."""
    try:
        yield
    except (KeyError, IndexError, TypeError, ValueError) as err:
        raise DomainError("malformed %s JSON: %s: %s" % (what, type(err).__name__, err)) from None


class AliasingError(NullCurveError):
    """Boundary sample count too small for the degree window."""


class NonHolomorphicDataError(NullCurveError):
    """Boundary data has too much energy outside the requested window."""

    def __init__(self, message, leakage=None):
        super().__init__(message)
        self.leakage = leakage


class NonzeroResidueError(NullCurveError):
    """Antiderivative requested for a series with a z^-1 coefficient."""


class NotInNullConeError(NullCurveError):
    """Vector or map fails the z1^2+z2^2+z3^2 = 0 membership test."""


class UnsupportedZeroConfigurationError(NullCurveError):
    """Spinor square roots do not exist as single-valued series."""


class PoleError(NullCurveError):
    """Third coordinate too close to zero for the SL2 transfer."""


class NotInSL2Error(NullCurveError):
    """Matrix determinant is not 1 within tolerance."""


class NotInH3Error(NullCurveError):
    """Matrix is not a valid hyperbolic-space point."""


class NonDominatingSprayError(NullCurveError):
    """Spray too degenerate for the period map to be submersive."""


class ConvergenceFailureError(NullCurveError):
    """Newton iteration failed to reach the residual target."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class ToleranceUnachievableError(NullCurveError):
    """No admissible construction met the tolerance (best attempt attached)."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class DegenerateImmersionError(NullCurveError):
    """Conformal factor vanishes on the evaluation grid."""
