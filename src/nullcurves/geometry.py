"""Algebra of the null quadrics and the transfers between models.

Covers the membership tests for the conical quadric {z1^2+z2^2+z3^2 = 0},
the spinor parametrization pi(u, v) = (u^2-v^2, i(u^2+v^2), 2uv) with its
two-sheeted lift, the rational map into SL2(C) carrying null curves to
null curves there, and the hermitian projection onto hyperbolic 3-space.
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import (
    DomainError,
    NonHolomorphicDataError,
    NotInH3Error,
    NotInNullConeError,
    NotInSL2Error,
    PoleError,
    UnsupportedZeroConfigurationError,
)
from .series import DEFAULT_BOUNDARY_SAMPLES, SeriesMap, fit_from_boundary

NULL_TOL = 1e-10
# the smallest |z3| tmap accepts: the transfer's pole clearance
POLE_TOL = 1e-6
DET_TOL = 1e-9
LIFT_ROUNDTRIP_TOL = 1e-10


def null_residual(v) -> float:
    """|v1^2 + v2^2 + v3^2|, unnormalized; callers divide by |v|^2."""
    v = np.asarray(v, dtype=np.complex128)
    return float(abs(v[0] * v[0] + v[1] * v[1] + v[2] * v[2]))


def require_c3(F: SeriesMap) -> None:
    """Raise DomainError unless F has the 3 components of a map into C^3."""
    if F.ncomp != 3:
        raise DomainError("a null curve has 3 components, not %d" % F.ncomp)


def require_null(f: SeriesMap) -> None:
    """Raise NotInNullConeError unless f . f vanishes on the boundary.

    The sup of |f1^2 + f2^2 + f3^2| over 1024 boundary samples must stay
    under NULL_TOL times the squared sup of |f| there.  Evaluation commutes
    with products, so the squares are summed on the samples of f.  Samples
    whose squares overflow raise DomainError: their residual would be NaN,
    which no comparison with the tolerance may pass.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        vals = f.rings(f.boundary_radii, 1024)
        scale2 = float((np.abs(vals) ** 2).sum(axis=2).max())
        res = float(np.abs((vals * vals).sum(axis=2)).max())
    if not (np.isfinite(scale2) and np.isfinite(res)):
        raise DomainError("squared curve values overflow on the boundary circles")
    scale2 = max(scale2, 1e-300)
    if not res <= NULL_TOL * scale2:
        raise NotInNullConeError("map is not null: residual %.3g" % (res / scale2))


@dataclass(frozen=True)
class NullVector:
    """A point of the punctured null quadric, validated on construction."""

    v: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=np.complex128).reshape(3).copy()
        n2 = float((np.abs(v) ** 2).sum())
        if n2 == 0.0:
            raise NotInNullConeError("zero vector is excluded from the punctured cone")
        if null_residual(v) > NULL_TOL * n2:
            raise NotInNullConeError(
                "sum of squares %.3g exceeds tolerance" % null_residual(v)
            )
        v.flags.writeable = False
        object.__setattr__(self, "v", v)

    @property
    def norm(self) -> float:
        return float(np.sqrt((np.abs(self.v) ** 2).sum()))


@dataclass(frozen=True)
class SpinorPair:
    """Scalar series (u, v) on a shared domain, mapping into C^2 minus 0."""

    u: SeriesMap
    v: SeriesMap

    def __post_init__(self):
        if self.u.ncomp != 1 or self.v.ncomp != 1:
            raise ValueError("spinor components must be scalar series")
        self.u._same_domain(self.v)


# -- spinor parametrization --------------------------------------------------


def spinor_project(s: SpinorPair) -> SeriesMap:
    """pi(u, v) = (u^2 - v^2, i(u^2 + v^2), 2uv) by exact convolution."""
    u2 = s.u * s.u
    v2 = s.v * s.v
    uv = s.u * s.v
    return SeriesMap.stack([u2 - v2, (u2 + v2) * 1j, uv * 2.0])


def spinor_point(a, b) -> np.ndarray:
    """pi on a constant spinor: (a^2 - b^2, i(a^2 + b^2), 2ab)."""
    return np.array(
        [a * a - b * b, 1j * (a * a + b * b), 2 * a * b], dtype=np.complex128
    )


def spinor_bilinear(s: SpinorPair, a: complex, b: complex) -> SeriesMap:
    """Symmetric companion B((u,v),(a,b)) = (ua - vb, i(ua + vb), ub + va).

    Polarization of pi: pi(u + t*a, v + t*b) = pi(u,v) + 2t*B + t^2*pi(a,b).
    """
    ua = s.u * complex(a)
    vb = s.v * complex(b)
    ub = s.u * complex(b)
    va = s.v * complex(a)
    return SeriesMap.stack([ua - vb, (ua + vb) * 1j, ub + va])


def _winding(values) -> Tuple[int, float]:
    """Winding number of a nonvanishing circular sample loop, with slack."""
    closed = np.concatenate([values, values[:1]])
    ang = np.unwrap(np.angle(closed))
    w = (ang[-1] - ang[0]) / (2 * np.pi)
    return int(np.round(w)), float(abs(w - np.round(w)))


def _fit_samples(width: int) -> int:
    n = 512
    while n < 4 * (width + 2):
        n *= 2
    return n


def _sqrt(g: SeriesMap, width: int) -> SeriesMap:
    """Square root of a zero-free series by exp(half log) of boundary samples.

    Branch bookkeeping: the boundary winding w must be even, and zero on
    the disc or equal on both circles of the annulus.  Factor out z^w,
    take the log of the remainder on each circle (the annulus's inner
    branch joined to the outer one through g along the radial segment at
    angle 0), exponentiate half, refit, multiply back z^(w/2).
    """
    n = _fit_samples(width + g.width)
    vals = g.rings(g.boundary_radii, n)[..., 0]
    mag = np.abs(vals)
    top = mag.max(axis=1)
    if (top == 0.0).any() or (mag.min(axis=1) <= 1e-13 * top).any():
        raise UnsupportedZeroConfigurationError("candidate square vanishes on samples")
    # n resolves the window's width, not the winding of z^lo: a window clear
    # of degree 0 counts lo plus the windings of g / z^lo, an exact shift
    shift = 0 if g.degree_lo <= 0 <= g.degree_hi else g.degree_lo
    loops = vals
    if shift:
        loops = SeriesMap(g.coeffs, 0, g.domain, g.r0).rings(g.boundary_radii, n)[..., 0]
    windings = [(w + shift, slack) for w, slack in map(_winding, loops)]
    if max(slack for _, slack in windings) > 0.05:
        raise UnsupportedZeroConfigurationError(
            "winding number poorly resolved; zeros too close to the boundary"
        )
    w = windings[0][0]
    if g.domain == "disc" and w != 0:
        raise UnsupportedZeroConfigurationError(
            "candidate square has %d zeros in the disc" % w
        )
    if g.domain == "annulus" and windings[1][0] != w:
        raise UnsupportedZeroConfigurationError(
            "series has zeros inside the annulus (winding %d vs %d)"
            % (w, windings[1][0])
        )
    if w % 2 != 0:
        raise UnsupportedZeroConfigurationError(
            "odd boundary winding %d admits no single-valued square root" % w
        )
    theta = 2 * np.pi * np.arange(n) / n
    h_out = vals[0] * np.exp(-1j * w * theta)
    ang_out = np.unwrap(np.angle(h_out))
    u_out = np.exp(0.5 * (np.log(np.abs(h_out)) + 1j * ang_out))
    u_out = u_out * np.exp(1j * (w // 2) * theta)
    if g.domain == "disc":
        return fit_from_boundary(u_out[None, :, None], 0, width)[0]
    r0 = g.r0
    h_in = vals[1] * (r0 ** (-w)) * np.exp(-1j * w * theta)
    # connect the inner branch through g along the radial segment at angle 0
    radial = g.eval_many(np.linspace(r0, 1.0, 257)).ravel()
    ang_radial = np.unwrap(np.angle(radial))
    offset = ang_out[0] - ang_radial[-1]
    ang_in = np.unwrap(np.angle(h_in))
    ang_in = ang_in - ang_in[0] + (ang_radial[0] + offset)
    log_in = np.log(np.abs(h_in)) + 1j * ang_in
    u_in = np.exp(0.5 * log_in) * (r0 ** (w // 2)) * np.exp(1j * (w // 2) * theta)
    roots = np.stack([u_out, u_in])[..., None]
    return fit_from_boundary(roots, w // 2 - width, w // 2 + width, r0)[0]


def _lift_roundtrip_error(f: SeriesMap, pair: SpinorPair) -> float:
    proj = spinor_project(pair)
    lo = min(f.degree_lo, proj.degree_lo)
    hi = max(f.degree_hi, proj.degree_hi)
    diff = proj._window(lo, hi) - f._window(lo, hi)
    scale = float(np.abs(f.coeffs).max())
    return float(np.abs(diff).max()) / (scale if scale > 0 else 1.0)


def spinor_lift(f: SeriesMap) -> SpinorPair:
    """Lift a map into the punctured null quadric through pi.

    Candidate squares are u^2 = (f1 - i f2)/2 and v^2 = -(f1 + i f2)/2.
    The first that is zero-free on the domain gets the square root, one
    boundary exp(half log) refit as a series (``_sqrt``), and the partner
    follows by division from f3 = 2uv.  A candidate that vanishes on a
    boundary circle, or whose winding admits no root, is refused at once:
    neither depends on the fit width.  The fit starts at width max(2 * f.width + 8, 64), which holds
    the roots of a projected polynomial spinor pair (at most half the
    degree of f); a root that is not a polynomial, such as sqrt(1 - z/rho)
    for rho just above 1, may need more, so a fit leak or a round trip
    pi(u, v) off f by more than LIFT_ROUNDTRIP_TOL doubles the width, up
    to 2^15, before it raises UnsupportedZeroConfigurationError.  On an
    annulus the doubling also stops, with the last failure, before a width
    whose inner-circle scale r0^-width leaves the float range.
    The global sign is fixed by pushing u (then v) at the first boundary
    sample into the closed right half-plane.  A map whose boundary samples,
    or their squares, overflow raises DomainError.
    """
    require_c3(f)
    n = _fit_samples(f.width)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = f.rings(f.boundary_radii, n)
    if not np.isfinite(vals).all():
        raise DomainError("curve values overflow on the boundary circles")
    with np.errstate(over="ignore", invalid="ignore"):
        norms2 = (np.abs(vals) ** 2).sum(axis=2)
        sos = np.abs(vals[..., 0] ** 2 + vals[..., 1] ** 2 + vals[..., 2] ** 2)
    if not (np.isfinite(norms2).all() and np.isfinite(sos).all()):
        raise DomainError("squared curve values overflow on the boundary circles")
    scale2 = norms2.max()
    for n2, s in zip(norms2, sos):
        if s.max() > NULL_TOL * scale2 * 10:
            raise NotInNullConeError(
                "sum-of-squares residual %.3g on samples" % (s.max() / scale2)
            )
        if n2.min() <= (1e-12 * scale2):
            raise NotInNullConeError("map vanishes on a sample (not in A*)")

    u2 = (f.component(0) - f.component(1) * 1j) * 0.5
    v2 = (f.component(0) + f.component(1) * 1j) * (-0.5)
    # degenerate planar branches: one candidate identically zero
    cscale = float(np.abs(f.coeffs).max())
    u2_zero = float(np.abs(u2.coeffs).max()) <= 1e-14 * cscale
    v2_zero = float(np.abs(v2.coeffs).max()) <= 1e-14 * cscale
    if u2_zero and v2_zero:
        raise NotInNullConeError("map is identically zero")

    width = max(2 * f.width + 8, 64)
    while True:
        try:
            if u2_zero or v2_zero:
                root = _sqrt(v2 if u2_zero else u2, width)
                zero = SeriesMap.zero(1, f.domain, f.r0)
                pair = SpinorPair(zero, root) if u2_zero else SpinorPair(root, zero)
            else:
                pair = _lift_general(f, u2, v2, width)
            err = _lift_roundtrip_error(f, pair)
            if err <= LIFT_ROUNDTRIP_TOL:
                return _normalize_sign(pair)
            failure = "lift round-trip error %.3g exceeds %.3g" % (
                err,
                LIFT_ROUNDTRIP_TOL,
            )
        except NonHolomorphicDataError as exc:
            failure = str(exc)
        width *= 2
        if width > (1 << 15):
            raise UnsupportedZeroConfigurationError(failure)
        if f.domain == "annulus":
            # a fit at this width reads degrees down to about -(width + f.width)
            # on the inner circle; past the float range its scale r0^d is inf
            with np.errstate(over="ignore"):
                inner_scale = np.float64(f.r0) ** -(width + f.width)
            if not np.isfinite(inner_scale):
                raise UnsupportedZeroConfigurationError(
                    "%s; width %d would overflow the inner circle's scale r0^-%d"
                    % (failure, width, width + f.width)
                )


def _lift_general(f, u2, v2, width) -> SpinorPair:
    """Root of the first zero-free candidate square, partner from f3 = 2uv."""
    first_exc = None
    for primary, name in ((u2, "u"), (v2, "v")):
        try:
            root = _sqrt(primary, width)
        except UnsupportedZeroConfigurationError as exc:
            if first_exc is None:
                first_exc = exc
            continue
        other = _divide_by(f.component(2) * 0.5, root, width)
        if name == "u":
            return SpinorPair(root, other)
        return SpinorPair(other, root)
    raise UnsupportedZeroConfigurationError(
        "both candidate squares vanish somewhere on the domain: %s" % first_exc
    )


def _divide_by(num: SeriesMap, den: SeriesMap, width: int) -> SeriesMap:
    """num/den refit from boundary values (den zero-free by construction)."""
    n = _fit_samples(width + max(num.width, den.width))
    quot = num.rings(num.boundary_radii, n) / den.rings(den.boundary_radii, n)
    lo = 0 if num.domain == "disc" else -width
    return fit_from_boundary(quot, lo, width, num.r0)[0]


def _normalize_sign(pair: SpinorPair) -> SpinorPair:
    """First-boundary-sample right-half-plane convention for (u, v)."""
    z0 = 1.0
    su = complex(pair.u.eval(z0)[0])
    sv = complex(pair.v.eval(z0)[0])
    scale = max(abs(su), abs(sv), 1e-300)
    sign = 1.0
    if abs(su.real) > 1e-12 * scale:
        sign = 1.0 if su.real > 0 else -1.0
    elif abs(sv.real) > 1e-12 * scale:
        sign = 1.0 if sv.real > 0 else -1.0
    elif su.imag < 0:
        sign = -1.0
    return SpinorPair(pair.u * sign, pair.v * sign)


# -- SL2(C) and H^3 ----------------------------------------------------------
#
# Every map below takes one point or a whole array of them: matrices carry
# leading axes (..., 2, 2), and each check holds for every entry.


def _det(m: np.ndarray) -> np.ndarray:
    """Determinants of the 2x2 matrices m (..., 2, 2)."""
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def _matrices(m) -> np.ndarray:
    """m as complex 2x2 matrices (..., 2, 2); ValueError on any other shape."""
    m = np.asarray(m, dtype=np.complex128)
    if m.shape[-2:] != (2, 2):
        raise ValueError("expected 2x2 matrices, got shape %s" % (m.shape,))
    return m


def _tmap_entries(p: np.ndarray) -> np.ndarray:
    """Vectorized Eq-free T: p (..., 3) -> matrices (..., 2, 2), det == 1."""
    z1, z2, z3 = p[..., 0], p[..., 1], p[..., 2]
    out = np.empty(p.shape[:-1] + (2, 2), dtype=np.complex128)
    out[..., 0, 0] = 1.0 / z3
    out[..., 0, 1] = (z1 + 1j * z2) / z3
    out[..., 1, 0] = (z1 - 1j * z2) / z3
    out[..., 1, 1] = (z1 * z1 + z2 * z2 + z3 * z3) / z3
    return out


def tmap(p) -> np.ndarray:
    """Rational map (z1,z2,z3) -> SL2(C): points p (..., 3) to matrices (..., 2, 2).

    The determinant is (z1^2+z2^2+z3^2 - (z1+iz2)(z1-iz2))/z3^2 = 1 as an
    algebraic identity, null or not.  Raises PoleError if any |z3| is at
    most POLE_TOL, and DomainError if an entry overflows, as z1^2 does
    for |z1| past 1e154.
    """
    p = np.asarray(p, dtype=np.complex128)
    if p.shape[-1:] != (3,):
        raise ValueError("points must have shape (..., 3), got %s" % (p.shape,))
    f3 = np.abs(p[..., 2])
    if (f3 <= POLE_TOL).any():
        raise PoleError("third coordinate %.3g at the pole of the map" % f3.min())
    with np.errstate(over="ignore", invalid="ignore"):
        out = _tmap_entries(p)
    if not np.isfinite(out).all():
        raise DomainError("SL2 matrix entries of the transfer overflow")
    return out


@dataclass(frozen=True)
class TMapCurveReport:
    """Sampled SL2 image of a null curve with the quadric membership data."""

    boundary_matrices: np.ndarray  # (N, 2, 2) at the N-th roots of unity
    grid_matrices: np.ndarray  # (R, A, 2, 2) on the layout of rings(radii, A)
    max_det_error: float  # max |det - 1| over all samples
    max_tangent_det: float  # max |det d/dtheta (T o F)| on the boundary
    max_tangent_det_normalized: float  # same, over squared frobenius norm


def tmap_on_curve(
    F: SeriesMap,
    n_r: int = 33,
    n_theta: int = 256,
    n_boundary: int = DEFAULT_BOUNDARY_SAMPLES,
) -> TMapCurveReport:
    """Push a null curve through tmap, sampling grid and boundary.

    Checks that F is null (derivative sum of squares), that F3 clears the
    pole on the whole grid, and reports the quadric membership of the
    image tangents: det of the centered theta-difference of T o F on the
    boundary, which vanishes for exact null curves in SL2(C).  The grid is
    n_r evenly spaced rings from the inner boundary (the centre of the
    disc) to |z| = 1, at n_theta angles each.  Matrices whose determinants
    or squared tangents overflow raise DomainError.
    """
    require_c3(F)
    require_null(F.derivative())
    radii = np.linspace(0.0 if F.domain == "disc" else F.r0, 1.0, n_r)
    grid_mats = tmap(F.rings(radii, n_theta))
    bmats = tmap(F.circle_values(1.0, n_boundary))
    h = 2 * np.pi / n_boundary
    with np.errstate(over="ignore", invalid="ignore"):
        max_det_err = max(
            float(np.abs(_det(bmats) - 1.0).max()), float(np.abs(_det(grid_mats) - 1.0).max())
        )
        dmats = (np.roll(bmats, -1, axis=0) - np.roll(bmats, 1, axis=0)) / (2 * h)
        tangent_dets = _det(dmats)
        fro2 = (np.abs(dmats) ** 2).sum(axis=(1, 2))
    # |det| <= fro2 / 2, so a finite fro2 leaves the tangent dets finite too
    if not (np.isfinite(max_det_err) and np.isfinite(fro2).all()):
        raise DomainError("SL2 image of the curve overflows in its determinants or tangents")
    normalized = np.abs(tangent_dets) / np.maximum(fro2, 1e-300)
    return TMapCurveReport(
        boundary_matrices=bmats,
        grid_matrices=grid_mats,
        max_det_error=max_det_err,
        max_tangent_det=float(np.abs(tangent_dets).max()),
        max_tangent_det_normalized=float(normalized.max()),
    )


def bryant_project(m) -> np.ndarray:
    """m -> m conj(m)^T on matrices (..., 2, 2), landing in the hyperboloid model of H^3.

    Raises NotInSL2Error unless every |det m - 1| is at most DET_TOL, and
    DomainError if an entry of m conj(m)^T overflows: its diagonal is the
    squared norm of a row, so a finite one leaves det m finite too.
    """
    mat = _matrices(m)
    with np.errstate(over="ignore", invalid="ignore"):
        h = mat @ np.conj(np.swapaxes(mat, -1, -2))
        det = _det(mat)
    if not np.isfinite(h).all():
        raise DomainError("hermitian matrices m conj(m)^T overflow")
    defect = np.abs(det - 1.0)
    if not (defect <= DET_TOL).all():
        worst = np.ravel(det)[np.argmax(defect)]
        raise NotInSL2Error("determinant %s is not 1 within %.3g" % (worst, DET_TOL))
    return h


def h3_minkowski(h, tol: float = 1e-10) -> np.ndarray:
    """Hyperboloid coordinates (..., 4) = (x0, x1, x2, x3) of hermitian det-1 points.

    Convention: h = [[x0+x3, x1+ix2], [x1-ix2, x0-x3]].  Raises NotInH3Error
    unless every point is hermitian, has x0^2 - x1^2 - x2^2 - x3^2 = 1
    within tol * max(1, x0^2) and lies on the upper sheet x0 > 0.  A point
    whose x0^2 overflows raises DomainError.
    """
    mat = _matrices(h)
    herm = np.abs(mat - np.conj(np.swapaxes(mat, -1, -2))).max(axis=(-2, -1))
    if not (herm <= 1e-12 * np.maximum(1.0, np.abs(mat).max(axis=(-2, -1)))).all():
        raise NotInH3Error("matrix is not hermitian (defect %.3g)" % np.max(herm))
    x0 = 0.5 * (mat[..., 0, 0].real + mat[..., 1, 1].real)
    x3 = 0.5 * (mat[..., 0, 0].real - mat[..., 1, 1].real)
    x1 = mat[..., 0, 1].real
    x2 = mat[..., 0, 1].imag
    with np.errstate(over="ignore", invalid="ignore"):
        q = x0 * x0 - x1 * x1 - x2 * x2 - x3 * x3
    if not np.isfinite(q).all():
        raise DomainError("hyperboloid coordinates overflow when squared")
    defect = np.abs(q - 1.0)
    if not (defect <= tol * np.maximum(1.0, x0 * x0)).all():
        raise NotInH3Error("minkowski norm %.12g is not 1" % np.ravel(q)[np.argmax(defect)])
    if not (x0 > 0).all():
        raise NotInH3Error("point lies on the lower sheet (x0 = %.3g)" % np.min(x0))
    return np.stack([x0, x1, x2, x3], axis=-1)
