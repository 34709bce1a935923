"""Loop periods of f dz and the Newton iteration that kills them.

On the annulus the coefficient of z**-1 obstructs integration: the period
over the core loop is exactly 2*pi*i times that coefficient, so period
reads are coefficient arithmetic, never quadrature.  kill_periods removes
the obstruction by shifting a spinor inside an additive spray (which keeps
everything exactly null) and driving the period vector to zero with a
damped least-squares Newton iteration.
"""

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .errors import (
    ConvergenceFailureError,
    DomainError,
    NonDominatingSprayError,
)
from .geometry import SpinorPair, spinor_project
from .series import SeriesMap

# kill_periods: Newton iteration cap, centered-difference step, smallest
# admissible singular value of the period Jacobian, relative stopping tolerance
KILL_MAX_ITER = 50
KILL_FD_STEP = 1e-6
KILL_SIGMA_MIN = 1e-8
KILL_TOL = 1e-10
# the spray's complex parameter count (_shift) and the radius of the ball
# its Newton iterates must stay in
SPRAY_DIM = 6
SPRAY_BALL = 4.0


@dataclass(frozen=True)
class PeriodMatrix:
    """Columns are the loop integrals of f dz, one per homology generator."""

    columns: np.ndarray  # (3, m) complex; m = 0 for disc, 1 for annulus
    loop_radii: Tuple[float, ...]

    def __post_init__(self):
        cols = np.asarray(self.columns, dtype=np.complex128).reshape(3, -1).copy()
        cols.flags.writeable = False
        object.__setattr__(self, "columns", cols)

    @property
    def max_abs(self) -> float:
        if self.columns.shape[1] == 0:
            return 0.0
        return float(np.abs(self.columns).max())


def periods(f: SeriesMap) -> PeriodMatrix:
    """Loop periods of f dz; exact 2*pi*i * coeff(z**-1) on the annulus."""
    if f.domain == "disc":
        return PeriodMatrix(np.zeros((f.ncomp, 0), dtype=np.complex128), ())
    col = 2j * np.pi * f.residue()
    return PeriodMatrix(col[:, None], (float(np.sqrt(f.r0)),))


@dataclass
class KillPeriodsResult:
    t0: np.ndarray  # (N,) complex spray parameter
    g: SeriesMap  # projected null map with dead periods
    spinor: SpinorPair  # the shifted spinor pair
    residual: float
    iterations: List[dict] = field(default_factory=list)


def _shift(s: SpinorPair, t: np.ndarray) -> SpinorPair:
    """The spray: u + t2/z + t0 + t1 z and v + t5/z + t3 + t4 z.

    Each basis function {1, z, 1/z} shifts one spinor component only:
    pairing the same function on both collapses the period Jacobian (the
    z-shift column vanishes identically on the catalog spinors).
    """
    def laurent(c):
        # c = (c_-1, c_0, c_1)
        return SeriesMap.from_components([c], -1, "annulus", s.u.r0)

    return SpinorPair(s.u + laurent(t[[2, 0, 1]]), s.v + laurent(t[[5, 3, 4]]))


def kill_periods(s: SpinorPair, target: Optional[float] = None) -> KillPeriodsResult:
    """Newton-drive the period vector of pi(shifted spinor) to zero.

    The period map is polynomial in the complex spray parameter t, so the
    Jacobian comes from centered real-step differences on each complex
    coordinate.  Steps are damped by backtracking halving and accepted
    only on residual decrease.  Stops at |P| <= KILL_TOL*(1 + boundary scale),
    or at the explicit absolute target when one is given.
    """
    if s.u.domain != "annulus":
        raise DomainError("period killing lives on the annulus")

    def period_vec(t: np.ndarray) -> np.ndarray:
        return periods(spinor_project(_shift(s, t))).columns[:, 0]

    def jacobian(t: np.ndarray) -> np.ndarray:
        J = np.empty((3, SPRAY_DIM), dtype=np.complex128)
        for j in range(SPRAY_DIM):
            e = np.zeros(SPRAY_DIM, dtype=np.complex128)
            e[j] = KILL_FD_STEP
            J[:, j] = (period_vec(t + e) - period_vec(t - e)) / (2 * KILL_FD_STEP)
        return J

    g0 = spinor_project(s)
    if target is None:
        target = KILL_TOL * (1.0 + g0.sup_boundary())
    t = np.zeros(SPRAY_DIM, dtype=np.complex128)
    P = period_vec(t)
    rnorm = float(np.linalg.norm(P))
    trace = [{"t": t.copy(), "residual_norm": rnorm}]
    if rnorm <= target:
        return KillPeriodsResult(
            t0=t, g=g0, spinor=s, residual=rnorm, iterations=trace
        )

    # domination check at t = 0
    J = jacobian(t)
    svals = np.linalg.svd(J, compute_uv=False)
    if svals[-1] < KILL_SIGMA_MIN:
        raise NonDominatingSprayError(
            "period Jacobian nearly rank-deficient (sigma_min %.3g)" % svals[-1]
        )

    it = 0
    while rnorm > target:
        it += 1
        if it > KILL_MAX_ITER:
            raise ConvergenceFailureError(
                "no convergence after %d iterations (residual %.3g)"
                % (KILL_MAX_ITER, rnorm),
                trace=trace,
            )
        if it > 1:
            J = jacobian(t)
        step = np.linalg.lstsq(J, -P, rcond=None)[0]
        alpha = 1.0
        while alpha >= 2.0 ** -20:
            t_new = t + alpha * step
            P_new = period_vec(t_new)
            r_new = float(np.linalg.norm(P_new))
            if r_new < rnorm:
                break
            alpha *= 0.5
        else:
            raise ConvergenceFailureError(
                "line search stalled at residual %.3g" % rnorm, trace=trace
            )
        t, P, rnorm = t_new, P_new, r_new
        trace.append({"t": t.copy(), "residual_norm": rnorm})
        if float(np.linalg.norm(t)) > SPRAY_BALL:
            raise ConvergenceFailureError(
                "iterate left the spray ball (|t| = %.3g > %.3g)"
                % (float(np.linalg.norm(t)), SPRAY_BALL),
                trace=trace,
            )

    shifted = _shift(s, t)
    g = spinor_project(shifted)
    return KillPeriodsResult(
        t0=t, g=g, spinor=shifted, residual=rnorm, iterations=trace
    )
