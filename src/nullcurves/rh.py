"""Approximate Riemann-Hilbert solvers.

rh_approx solves the C^n problem for one family of discs f(z) + c(z) w,
|w| <= 1, by the rational-shift formula F(z) = f(z) + c(z) z^k with the
smallest k that certifies the three distance conditions on samples.
rh_null_disc / rh_null_annulus run the null-curve variant: lift the
derivative to spinors, push along a tapered amplitude times a constant
spinor direction, project back through the quadratic parametrization, and
integrate.  The push carries a factor sqrt(2k+1) z^k so that after
integration the boundary circle term has exactly the tapered amplitude;
the cross term decays like 1/sqrt(k) and the certificate measures
everything rather than assuming it.

The null certificate samples G - F on the boundary of the region it claims,
where the sup sits; every circle goes through the wrapped-FFT ring sampler.
F's values on the radial segments at the keep-masks' ends come from
SeriesMap.eval_many, the blocked Horner kernel, at those few hundred points.
(b) is still the maximum over 64 collar radii, but their rings are measured
bound first: with L = sup|G'| on the boundary circles, bounded by sampling
(Ehlich-Zeller), no radius between measured ones exceeds the tent
(phi_i + phi_j + L gap) / 2, so only gaps whose tent reaches the running
maximum are bisected (see _certify_null).
A null push decides before it builds anything: a datum whose collar floor
reaches epsilon is refused, and the fit degree of the amplitude root is
read off the fit's own floor, so each push runs one k-search.  The search
screens its attempts: one whose (a) on the unit circle, or whose running
(b), already reaches epsilon is dropped before the rest of its certificate
is measured.
"""

import json
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import (
    DomainError,
    NotInNullConeError,
    ToleranceUnachievableError,
    _parsing,
)
from .geometry import NullVector, SpinorPair, spinor_bilinear, spinor_point
from .series import SeriesMap
from .weierstrass import kill_periods, periods

K_MAX = 1 << 16
# boundary samples per circle of the null push's certificate and collar floor
_NULL_N = 4096
# fit degree m of the null push's boundary profile: the first tried, and the
# largest the fit floor may call for
_FIT_M_INIT = 64
_FIT_M_MAX = 256
# radii of the certificates' collar grids, r..1
_CERT_RADIAL = 64
# the null certificate evaluates at most this many collar radii at a time
_CERT_RING_BLOCK = 8
# relative margin by which a collar gap's bound must undercut the running
# maximum before the null certificate skips the radii inside the gap
_CERT_SLACK = 1e-9
# the most samples per circle that bounding sup|G'| for the null certificate
# may take: sampling a wider series costs more than the rings it can save
_LIP_MAX_N = 1 << 14

TWO_PI = 2.0 * np.pi


# -- tapered boundary amplitude ---------------------------------------------


def ramp(t):
    """C^2 ramp on [0,1]: 0 -> 1 with vanishing first and second derivative."""
    t = np.clip(t, 0.0, 1.0)
    return t - np.sin(TWO_PI * t) / TWO_PI


@dataclass(frozen=True)
class BoundaryData:
    """Deformation datum: arc, amplitude samples, null direction, taper.

    The amplitude profile used everywhere downstream is chi(theta)^2 *
    mu(theta) where chi ramps from 0 to 1 over the taper width inside each
    end of the arc; the square root chi*sqrt(mu) is what gets pushed on
    the spinor level.
    """

    arc: Tuple[float, float]  # (theta_lo, theta_hi), width in (0, 2*pi)
    mu: np.ndarray  # nonnegative samples over the arc, uniform incl. ends
    theta: NullVector  # push direction
    taper: float  # ramp width in radians
    epsilon: float
    r: float  # inner radius of the boundary collar

    def __post_init__(self):
        lo, hi = float(self.arc[0]), float(self.arc[1])
        width = hi - lo
        if not (0.0 < width < TWO_PI):
            raise DomainError("arc must be a proper nonempty subarc")
        mu = np.atleast_1d(np.asarray(self.mu, dtype=np.float64)).copy()
        if mu.ndim != 1 or mu.shape[0] < 1:
            raise ValueError("mu must be a 1-d sample array")
        # NaN passes every ordered comparison below, so finiteness comes first
        if not np.isfinite(mu).all():
            raise DomainError("mu must be finite")
        if not np.isfinite(self.theta.v).all():
            raise DomainError("push direction must be finite")
        if mu.min() < 0:
            raise ValueError("mu must be nonnegative")
        # the certificate squares the largest target radius max(mu) * |theta|
        peak = float(mu.max()) * self.theta.norm
        if not np.isfinite(peak * peak):
            raise DomainError("mu * |theta| = %.3g overflows when squared" % peak)
        if mu.shape[0] == 1:
            mu = np.repeat(mu, 2)
        if not (0.0 < self.taper and 2.0 * self.taper <= width):
            raise ValueError("need 0 < 2*taper <= arc width")
        if not (0.0 < self.r < 1.0):
            raise DomainError("collar radius must sit in (0, 1)")
        if not np.isfinite(self.epsilon):
            raise DomainError("epsilon must be finite")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        mu.flags.writeable = False
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "arc", (lo, hi))

    @property
    def width(self) -> float:
        return self.arc[1] - self.arc[0]

    def _offset(self, theta):
        """Angular position inside the arc, NaN outside."""
        d = np.mod(np.asarray(theta, dtype=np.float64) - self.arc[0], TWO_PI)
        return np.where(d <= self.width, d, np.nan)

    def mu_at(self, theta):
        d = self._offset(theta)
        x = np.where(np.isnan(d), 0.0, d) / self.width * (self.mu.shape[0] - 1)
        vals = np.interp(x, np.arange(self.mu.shape[0]), self.mu)
        return np.where(np.isnan(d), 0.0, vals)

    def chi_at(self, theta):
        d = self._offset(theta)
        x = np.where(np.isnan(d), 0.0, d)
        up = ramp(x / self.taper)
        down = ramp((self.width - x) / self.taper)
        return np.where(np.isnan(d), 0.0, np.minimum(up, down))

    def amplitude_at(self, theta):
        """The realized kappa amplitude chi^2 * mu."""
        return self.chi_at(theta) ** 2 * self.mu_at(theta)

    def sqrt_amplitude_at(self, theta):
        return self.chi_at(theta) * np.sqrt(self.mu_at(theta))

    def in_padded_arc(self, theta, pad: float):
        d = np.mod(np.asarray(theta, dtype=np.float64) - (self.arc[0] - pad), TWO_PI)
        return d <= self.width + 2.0 * pad

    def to_json(self) -> str:
        return json.dumps(
            {
                "arc": [self.arc[0], self.arc[1]],
                "mu": [float(x) for x in self.mu],
                "theta": [[float(c.real), float(c.imag)] for c in self.theta.v],
                "taper": self.taper,
                "epsilon": self.epsilon,
                "r": self.r,
            }
        )

    @staticmethod
    def from_json(text: str) -> "BoundaryData":
        d = json.loads(text)
        with _parsing("boundary datum"):
            theta = NullVector(np.array([complex(re, im) for re, im in d["theta"]]))
            return BoundaryData(
                arc=(d["arc"][0], d["arc"][1]),
                mu=np.asarray(d["mu"], dtype=np.float64),
                theta=theta,
                taper=float(d["taper"]),
                epsilon=float(d["epsilon"]),
                r=float(d["r"]),
            )


# -- certificates ------------------------------------------------------------


@dataclass(frozen=True)
class RHCertificate:
    """Measured condition maxima for one deformation, valid iff all < epsilon."""

    k: int
    r_prime: float
    epsilon: float
    cond_a: float
    cond_b: float
    cond_c: float
    cond_d: Optional[float] = None
    cond_orth: Optional[float] = None
    omega: Optional[Tuple[float, float]] = None
    n_samples: int = 0

    def _conds(self):
        conds = [self.cond_a, self.cond_b, self.cond_c]
        if self.cond_d is not None:
            conds.append(self.cond_d)
        return conds

    @property
    def valid(self) -> bool:
        return all(c < self.epsilon for c in self._conds())

    @property
    def worst(self) -> float:
        return max(self._conds())

    def to_json(self) -> str:
        payload = {
            "k": self.k,
            "r_prime": self.r_prime,
            "epsilon": self.epsilon,
            "cond_a": self.cond_a,
            "cond_b": self.cond_b,
            "cond_c": self.cond_c,
            "cond_d": self.cond_d,
            "cond_orth": self.cond_orth,
            "omega": list(self.omega) if self.omega is not None else None,
            "n_samples": self.n_samples,
            "valid": self.valid,
        }
        return json.dumps(payload)

    @staticmethod
    def from_json(text: str) -> "RHCertificate":
        d = json.loads(text)
        return RHCertificate(
            k=int(d["k"]),
            r_prime=float(d["r_prime"]),
            epsilon=float(d["epsilon"]),
            cond_a=float(d["cond_a"]),
            cond_b=float(d["cond_b"]),
            cond_c=float(d["cond_c"]),
            cond_d=None if d.get("cond_d") is None else float(d["cond_d"]),
            cond_orth=None if d.get("cond_orth") is None else float(d["cond_orth"]),
            omega=None if d.get("omega") is None else tuple(d["omega"]),
            n_samples=int(d.get("n_samples", 0)),
        )


def circle_distance(points, centers, rays) -> np.ndarray:
    """Distance from points to the circles {center + e^{i tau} ray}.

    All arrays (..., C) complex; exact minimum over tau in closed form.
    """
    d = points - centers
    d2 = (np.abs(d) ** 2).sum(axis=-1)
    r2 = (np.abs(rays) ** 2).sum(axis=-1)
    ip = np.abs((d * np.conj(rays)).sum(axis=-1))
    return np.sqrt(np.maximum(d2 + r2 - 2.0 * ip, 0.0))


def disc_distance(points, centers, rays) -> np.ndarray:
    """Distance from points to the discs {center + w ray : |w| <= 1}."""
    d = points - centers
    d2 = _component_sum(np.abs(d) ** 2)
    r2 = _component_sum(np.abs(rays) ** 2)
    ip = np.abs(_component_sum(d * np.conj(rays)))
    safe = np.maximum(r2, 1e-300)
    along2 = ip ** 2 / safe
    excess = np.maximum(ip / safe - 1.0, 0.0)
    dist2 = d2 - along2 + excess * excess * r2
    dist2 = np.where(r2 == 0.0, d2, dist2)
    return np.sqrt(np.maximum(dist2, 0.0))


def _component_sum(x) -> np.ndarray:
    """x summed over its last (component) axis, one term after the other.

    For the few components of a map that is the order .sum(axis=-1) adds
    in, so the bits agree, without NumPy's slow reduction over a short axis.
    """
    total = x[..., 0]
    for c in range(1, x.shape[-1]):
        total = total + x[..., c]
    return total


# -- the general C^n solver --------------------------------------------------


@dataclass(frozen=True)
class BoundaryDiscFamily:
    """The discs g_z(w) = f(z) + c(z) w, |w| <= 1, c trigonometric in z.

    coeffs[comp, m + d] is the z^d Fourier coefficient of c, d in [-m, m].
    """

    coeffs: np.ndarray  # (ncomp, 2m+1) complex
    degree_m: int

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.ndim != 2 or c.shape[1] != 2 * self.degree_m + 1:
            raise ValueError("coeffs must be (ncomp, 2m+1)")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def ncomp(self) -> int:
        return self.coeffs.shape[0]

    @staticmethod
    def from_constant(vector) -> "BoundaryDiscFamily":
        """Constant-in-z family c(z) = vector, given as (C,) or one (1, C) row."""
        arr = np.asarray(vector, dtype=np.complex128)
        if arr.ndim == 2 and arr.shape[0] == 1:
            arr = arr[0]
        if arr.ndim != 1:
            raise ValueError("a constant family takes one vector")
        return BoundaryDiscFamily(arr[:, None], 0)

    def circle_values(self, n: int) -> np.ndarray:
        """Values of c at the n-th roots of unity -> (n, ncomp)."""
        # c is a Laurent polynomial in z, which any annulus holds
        c = SeriesMap(self.coeffs, -self.degree_m, "annulus", 0.5)
        return c.circle_values(1.0, n)


def _certify_approx(
    f: SeriesMap,
    fam: BoundaryDiscFamily,
    F: SeriesMap,
    k: int,
    r_prime: float,
    eps: float,
    n_boundary: int,
) -> RHCertificate:
    n = n_boundary
    fb = f.circle_values(1.0, n)
    Fb = F.circle_values(1.0, n)
    c = fam.circle_values(n)
    cond_a = float(circle_distance(Fb, fb, c).max())
    rho = np.linspace(r_prime, 1.0, _CERT_RADIAL)
    cond_b = float(disc_distance(F.rings(rho, n), fb, c).max())
    diff = F - f
    dv = diff.circle_values(r_prime, n)
    cond_c = float(np.sqrt((np.abs(dv) ** 2).sum(axis=1)).max())
    return RHCertificate(
        k=k,
        r_prime=r_prime,
        epsilon=eps,
        cond_a=cond_a,
        cond_b=cond_b,
        cond_c=cond_c,
        n_samples=n,
    )


def _search_k(build_and_certify, m: int, k_max: int):
    """Doubling-then-bisection search for the smallest certifying k > m.

    build_and_certify(k, screen) -> (payload, cert).  Relies on the measured
    monotone improvement of the conditions in k.  Every attempt is
    screened: the builder may stop at a cheap bound and return a float for
    cert, a lower bound on the attempt's worst case that already reaches
    the tolerance, so k certainly fails.  An exhausted search raises with
    the certificate it would raise with unscreened (see _least_worst).
    """
    tried = []  # (worst case or a lower bound on it, k, certificate or None)
    k = m + 1

    def attempt(kk):
        """(payload, cert) when kk certifies, else None."""
        payload, cert = build_and_certify(kk, True)
        full = isinstance(cert, RHCertificate)
        tried.append((cert.worst, kk, cert) if full else (cert, kk, None))
        return (payload, cert) if full and cert.valid else None

    good = attempt(k)
    if good is None:
        k_lo = k
        while True:
            k = min(2 * (k - m) + m, k_max)
            good = attempt(k)
            if good is not None:
                break
            k_lo = k
            if k >= k_max:
                best = _least_worst(tried, build_and_certify)
                raise ToleranceUnachievableError(
                    "no k <= %d certifies the tolerance (best worst-case %.3g)"
                    % (k_max, best.worst),
                    certificate=best,
                )
    else:
        k_lo = m
    k_hi = k
    while k_hi - k_lo > 1:
        mid = (k_lo + k_hi) // 2
        found = attempt(mid)
        if found is not None:
            k_hi, good = mid, found
        else:
            k_lo = mid
    return good


def _least_worst(tried, build_and_certify) -> RHCertificate:
    """The first attempt's certificate, in attempt order, of least worst case.

    tried holds (worst, k, cert) per attempt; a screened attempt has cert
    None and only a lower bound in place of its worst.  Those are rebuilt
    and fully certified in increasing order of bound (ties in attempt
    order), and only while the bound can still beat the best so far, or
    tie it from an earlier attempt.
    """
    certs = {i: c for i, (_, _, c) in enumerate(tried) if c is not None}
    best = min(((c.worst, i) for i, c in certs.items()), default=(np.inf, len(tried)))
    for bound, i in sorted((w, i) for i, (w, _, c) in enumerate(tried) if c is None):
        if (bound, i) > best:
            break
        certs[i] = build_and_certify(tried[i][1], False)[1]
        best = min(best, (certs[i].worst, i))
    return certs[best[1]]


def rh_approx(
    f: SeriesMap,
    fam: BoundaryDiscFamily,
    r: float,
    eps: float,
    r_prime: Optional[float] = None,
    n_boundary: int = 4096,
    k_max: int = K_MAX,
) -> Tuple[SeriesMap, RHCertificate]:
    """Solve the approximate boundary-tracking problem in C^n.

    Finds the smallest k > m such that F = f + c(z) z^k satisfies,
    on samples: (a) boundary values within eps of the circle family,
    (b) the collar [r', 1] within eps of the disc family, (c) F within
    eps of f on |z| <= r'.
    """
    if f.domain != "disc":
        raise DomainError("the C^n solver works on the disc")
    if fam.ncomp != f.ncomp:
        raise ValueError("family and map component counts differ")
    if not (0.0 < r < 1.0):
        raise DomainError("need 0 < r < 1")
    if r_prime is None:
        r_prime = r
    if not (r <= r_prime < 1.0):
        raise DomainError("need r <= r_prime < 1")
    m = fam.degree_m
    if m + 1 >= k_max:
        raise ValueError("family degree %d exceeds the k budget" % m)

    def build(k, screen=False):  # the C^n certificate is never cut short
        F = f + SeriesMap(fam.coeffs, k - m, "disc")  # polynomial, as k > m
        return F, _certify_approx(f, fam, F, k, r_prime, eps, n_boundary)

    return _search_k(build, m, k_max)


# -- the null-curve variants --------------------------------------------------


def _direction_lift(theta: NullVector) -> Tuple[complex, complex]:
    """Constant spinor (a, b) with pi(a, b) = theta, via the inversion formulas."""
    t = theta.v
    a2 = (t[0] - 1j * t[1]) / 2.0
    b2 = -(t[0] + 1j * t[1]) / 2.0
    if abs(a2) >= abs(b2):
        a = np.sqrt(a2)
        b = t[2] / (2.0 * a) if abs(a) > 0 else np.sqrt(b2)
    else:
        b = np.sqrt(b2)
        a = t[2] / (2.0 * b)
    err = np.abs(spinor_point(a, b) - t).max()
    if err > 1e-12 * max(1.0, float(np.abs(t).max())):
        raise NotInNullConeError("direction does not lift through the covering")
    return complex(a), complex(b)


def _fit_boundary_profile(bd: BoundaryData, m: int, n: int = 8192):
    """Fourier fit s_hat of chi*sqrt(mu) to degrees [-m, m]; returns (coeffs, floor).

    The push puts |s_hat|^2 theta on the boundary where condition (a) wants
    a circle of radius chi^2 mu |theta|, so floor, the max over the n
    samples of ||s_hat|^2 - chi^2 mu| |theta|, is the fit's error in that
    radius: the level the k-search's worst case settles at as k grows.
    """
    theta = TWO_PI * np.arange(n) / n
    prof = bd.sqrt_amplitude_at(theta)
    bins = np.fft.fft(prof) / n
    coeffs = bins[np.mod(np.arange(-m, m + 1), n)]
    fit = SeriesMap(coeffs[None, :], -m, "annulus", 0.5)  # any annulus holds it
    fit_sq = np.abs(fit.circle_values(1.0, n)[:, 0]) ** 2
    floor = float(np.abs(fit_sq - prof * prof).max()) * bd.theta.norm
    return coeffs, floor


def _push_spinor(
    pair: SpinorPair, s_hat: np.ndarray, m: int, k: int, a: complex, b: complex
) -> Tuple[SpinorPair, SeriesMap]:
    """Shift (u, v) by S(z)*(a, b) with S = sqrt(2k+1) z^k s_hat(z).

    Returns the shifted pair and S as a SeriesMap.  The scaling makes the
    integrated circle term carry amplitude |s_hat|^2 on the boundary.
    """
    domain, r0 = pair.u.domain, pair.u.r0
    scale = np.sqrt(2.0 * k + 1.0)
    S = SeriesMap((scale * s_hat)[None, :], k - m, domain, r0)
    u_new = pair.u + S * a
    v_new = pair.v + S * b
    return SpinorPair(u_new, v_new), S


def _orth_direction(fp: np.ndarray, theta: NullVector) -> Optional[np.ndarray]:
    """Unit vector hermitian-orthogonal to span{F'(p), theta}, or None."""
    rows = np.vstack([np.conj(fp), np.conj(theta.v)])
    _, sv, vh = np.linalg.svd(rows)
    if sv.min() < 1e-10 * max(sv.max(), 1e-300):
        return None
    n = np.conj(vh[-1])
    return n / np.linalg.norm(n)


def _lipschitz(S: SeriesMap) -> float:
    """An upper bound on sup |S'| over the closed domain of S.

    |S'| is subharmonic, so the sup sits on the boundary circles.  On each,
    S' times a power of z is a trigonometric polynomial of degree
    m = ceil(span / 2) with the same modulus.  Sampled at N > 2m equispaced
    angles, such a polynomial's sup is at most sec(pi m / N) times its
    sampled max (Ehlich-Zeller; for vector values, apply it to the real
    polynomial Re<S'(z), S'(z*)> at the maximiser z*).  N is the smallest
    power of two >= max(_NULL_N, 4m), so the factor is at most sqrt 2.
    Past _LIP_MAX_N samples per circle this returns the trivial bound inf
    instead, under which the certificate measures its whole collar grid.
    """
    d = S.derivative()
    m = d.width // 2  # ceil((width - 1) / 2)
    N = 1 << (max(_NULL_N, 4 * m) - 1).bit_length()
    if N > _LIP_MAX_N:
        return np.inf
    vals = d.rings(d.boundary_radii, N)
    peak = float(np.sqrt(_component_sum(np.abs(vals) ** 2)).max())
    return peak / np.cos(np.pi * m / N)


def _certify_null(
    G: SeriesMap,
    F: SeriesMap,
    bd: BoundaryData,
    k: int,
    n_boundary: int,
    orth_dir: Optional[np.ndarray],
    screen: bool = False,
):
    """Measure the four deformation conditions plus the orthogonal leak.

    (a) the unit circle, (b) the collar over the arc padded by 2*taper, and
    (c)/(d) the C^0 closeness |G - F| on |z| <= r (from r0 on an annulus)
    plus the collar off the arc padded by 2*taper / taper.  G - F is
    holomorphic, so (c)/(d) and cond_orth sample it only on the boundary of
    their region, where the maximum principle puts the sup.

    (b) and the radial segments of (c)/(d) are the maxima over the collar
    grid of _CERT_RADIAL radii r..1, but its rings are measured bound
    first.  At a fixed angle, the disc distance of G(rho zeta) is
    L-Lipschitz in rho with L = sup|G'| (_lipschitz), so no grid radius
    strictly between two measured ones, rho_i < rho_j, exceeds the tent
    (phi_i + phi_j + L (rho_j - rho_i)) / 2; likewise |G - F| on a segment
    with sup|(G - F)'|.  The rings r and 1 come first, then every gap whose
    tent, maximised over its angles, reaches the running maximum of (b),
    (c) or (d) is bisected, up to _CERT_RING_BLOCK rings per evaluation.
    A gap is skipped only below that maximum by the relative margin
    _CERT_SLACK, far above the rounding of the measured values, so every
    field equals the full grid's.

    (a) is read off the ring rho = 1, which comes first.  With screen set,
    an (a) that already reaches epsilon ends the measurement, and so does
    a running (b) that does: the push certainly fails, and max((a), (b))
    so far, a lower bound on its worst case, is returned as a float in
    place of the certificate.
    """
    n = n_boundary
    theta = TWO_PI * np.arange(n) / n
    lo, hi = bd.arc
    pad1, pad2 = bd.taper, 2.0 * bd.taper
    tv = bd.theta.v

    Fb = F.circle_values(1.0, n)
    amp = bd.amplitude_at(theta)
    rays = amp[:, None] * tv[None, :]
    rho = np.linspace(bd.r, 1.0, _CERT_RADIAL)
    top = _CERT_RADIAL - 1
    Gb = G.circle_values(1.0, n)  # the ring rho[top] = 1
    cond_a = float(circle_distance(Gb, Fb, rays).max())
    if screen and cond_a >= bd.epsilon:
        return cond_a

    # (b) reads the collar over the padded arc against the projected discs;
    # the same rings give G on the radial segments at the keep-masks' ends
    keep = ~np.stack([bd.in_padded_arc(theta, pad) for pad in (pad2, pad1)])
    ends = keep & ~(np.roll(keep, 1, axis=1) & np.roll(keep, -1, axis=1))
    edges = np.flatnonzero(ends.any(axis=0))
    idx = np.flatnonzero(~keep[0])
    on_seg = keep[:, edges]  # the segments (c), then (d), reads
    Fs = F.eval_many(rho[:, None] * np.exp(1j * theta[edges]))
    Fs = Fs.reshape(_CERT_RADIAL, edges.size, F.ncomp)
    phi = np.empty((_CERT_RADIAL, idx.size))  # disc distances, by radius
    psi = np.empty((_CERT_RADIAL, edges.size))  # |G - F| on the segments

    def measure(ids, Gr):
        """Record the rings Gr at rho[ids]; their maxima for (b), (c), (d)."""
        phi[ids] = disc_distance(Gr[:, idx], Fb[idx], rays[idx])
        psi[ids] = np.sqrt((np.abs(Gr[:, edges] - Fs[ids]) ** 2).sum(axis=2))
        return [float(phi[ids].max())] + [
            float(psi[ids].max(where=kp, initial=0.0)) for kp in on_seg]

    ring_r = G.rings(rho[:1], n)
    cond_b, seg_c, seg_d = map(max, measure([top], Gb[None]), measure([0], ring_r))
    if screen and cond_b >= bd.epsilon:
        return max(cond_a, cond_b)

    # h = G - F on the domain's boundary circles, then on the ring r
    h = G - F
    hr = h.rings(F.boundary_radii + (bd.r,), n)  # (R, n, C)
    hn = np.sqrt((np.abs(hr) ** 2).sum(axis=2))
    if F.domain == "annulus":
        # mu vanishes on the inner circle, so the target there is the point F(x)
        cond_a = max(cond_a, float(hn[1].max()))

    # (c)/(d): every angle of the ring r (and r0), the rest under the keep-mask
    inner = float(hn[1:].max())
    cond_c, cond_d = (max(inner, float(hn[0].max(where=kp, initial=0.0)), seg)
                      for kp, seg in zip(keep, (seg_c, seg_d)))

    lip, lip_h = _lipschitz(G), _lipschitz(h)
    lo_i, hi_i = np.array([0]), np.array([top])
    while lo_i.size:
        half = 0.5 * (rho[hi_i] - rho[lo_i])
        tent_b = 0.5 * (phi[lo_i] + phi[hi_i]).max(axis=1) + lip * half
        split = tent_b >= cond_b * (1.0 - _CERT_SLACK)
        mean = 0.5 * (psi[lo_i] + psi[hi_i])
        for kp, cond in zip(on_seg, (cond_c, cond_d)):
            tent = mean.max(axis=1, where=kp, initial=-np.inf) + lip_h * half
            split |= tent >= cond * (1.0 - _CERT_SLACK)
        split &= hi_i - lo_i > 1
        lo_i, hi_i = lo_i[split], hi_i[split]
        mid = (lo_i + hi_i) // 2
        for s in range(0, mid.size, _CERT_RING_BLOCK):
            ids = mid[s:s + _CERT_RING_BLOCK]
            more_b, more_c, more_d = measure(ids, G.rings(rho[ids], n))
            cond_b = max(cond_b, more_b)
            if screen and cond_b >= bd.epsilon:
                return max(cond_a, cond_b)
            cond_c, cond_d = max(cond_c, more_c), max(cond_d, more_d)
        lo_i, hi_i = np.concatenate([lo_i, mid]), np.concatenate([mid, hi_i])

    orth_max = None
    if orth_dir is not None:
        orth_max = float(np.abs(hr[:-1] @ np.conj(orth_dir)).max())
    return RHCertificate(
        k=k,
        r_prime=bd.r,
        epsilon=bd.epsilon,
        cond_a=cond_a,
        cond_b=cond_b,
        cond_c=cond_c,
        cond_d=cond_d,
        cond_orth=orth_max,
        omega=(lo - pad2, hi + pad2),
        n_samples=n,
    )


@dataclass
class NullDeformation:
    """Full state of one null-curve deformation (pipelines keep the spinor)."""

    G: SeriesMap
    cert: RHCertificate
    spinor: SpinorPair


def _collar_floor(F: SeriesMap, bd: BoundaryData, n: int) -> float:
    """A lower bound on the worse of conditions (b) and (c) for any push.

    D is the max, over the angles (b) reads (the arc padded by 2*taper), of
    the distance from F(r zeta) to the target disc at F(zeta).  Every push
    gives G = F + h, and the disc distance is 1-Lipschitz in its point.  The
    first collar radius of (b) is exactly r and (c) reads |h| at every angle
    of the ring r, so cond_b >= D - sup|h(r .)| and cond_c >= sup|h(r .)|:
    no k and no fit degree brings both below D/2, which this returns.
    """
    theta = TWO_PI * np.arange(n) / n
    idx = np.flatnonzero(bd.in_padded_arc(theta, 2.0 * bd.taper))
    Fb, Fr = F.rings([1.0, bd.r], n)[:, idx]
    rays = bd.amplitude_at(theta[idx])[:, None] * bd.theta.v[None, :]
    return 0.5 * float(disc_distance(Fr, Fb, rays).max())


def _rh_null(
    F: SeriesMap,
    bd: BoundaryData,
    spinor: Optional[SpinorPair] = None,
    k_fixed: Optional[int] = None,
    orth_direction: Optional[np.ndarray] = None,
) -> NullDeformation:
    """Certified null push of F along bd, or ToleranceUnachievableError.

    A datum whose collar floor (_collar_floor) reaches epsilon is refused
    before any push is built.  Zero amplitude returns G = F with its
    measured certificate.  Otherwise the fit degree m is chosen once: the
    first of 64, 128, 256 (below k_fixed when given) whose fit floor is
    below epsilon, else the largest.  The floor picks the degree but never
    refuses: a search can dip somewhat below it.  Then one k-search up to
    K_MAX (or one build at k_fixed) certifies or raises.

    The certificate measures cond_orth along orth_direction (or normal to
    F' and the push direction at the arc midpoint) but does not bound it;
    a caller with a budget for that leak checks it on the result.
    """
    from .geometry import spinor_lift  # local import to avoid cycle at module load

    if F.ncomp != 3:
        raise ValueError("expected a 3-component null curve")
    base_point = 0.0 if F.domain == "disc" else float(np.sqrt(F.r0))
    base_value = F.eval(base_point)
    fprime = F.derivative()
    if spinor is None:
        spinor = spinor_lift(fprime)
    a, b = _direction_lift(bd.theta)

    floor = _collar_floor(F, bd, _NULL_N)
    if not floor < bd.epsilon:
        raise ToleranceUnachievableError(
            "conditions (b)/(c) have a collar floor %.3g that reaches the tolerance %.3g"
            % (floor, bd.epsilon)
        )

    if orth_direction is not None:
        orth_dir = np.asarray(orth_direction, dtype=np.complex128)
        orth_dir = orth_dir / np.linalg.norm(orth_dir)
    else:
        mid = 0.5 * (bd.arc[0] + bd.arc[1])
        fp_mid = fprime.eval(np.exp(1j * mid))
        orth_dir = _orth_direction(fp_mid, bd.theta)

    if float(bd.mu.max()) == 0.0:
        cert = _certify_null(F, F, bd, 0, _NULL_N, orth_dir)
        if not cert.valid:
            raise ToleranceUnachievableError(
                "the unpushed curve misses the tolerance (worst-case %.3g)" % cert.worst,
                certificate=cert,
            )
        return NullDeformation(G=F, cert=cert, spinor=spinor)

    cap = _FIT_M_MAX
    if k_fixed is not None:
        if k_fixed < 2:
            raise ValueError("k_fixed must be at least 2")
        cap = min(cap, k_fixed - 1)  # the fit degree stays below the frequency
    m = min(_FIT_M_INIT, cap)
    s_hat, fit_floor = _fit_boundary_profile(bd, m)
    while not fit_floor < bd.epsilon and m < cap:
        m = min(2 * m, cap)
        s_hat, fit_floor = _fit_boundary_profile(bd, m)

    B = spinor_bilinear(spinor, a, b)
    pi_ab = spinor_point(a, b)

    def push(k):
        pushed, S = _push_spinor(spinor, s_hat, m, k, a, b)
        S2 = S * S
        cross = B * (2.0 * S)
        circ = SeriesMap(
            (S2.coeffs[0][None, :] * pi_ab[:, None]),
            S2.degree_lo,
            S2.domain,
            S2.r0,
        )
        gprime = fprime + cross + circ
        if F.domain == "annulus":
            P = periods(gprime)
            if P.max_abs > 1e-12 * (1.0 + float(np.abs(gprime.coeffs).max())):
                res = kill_periods(pushed, target=1e-10)
                pushed, gprime = res.spinor, res.g
        return gprime.antiderivative(base_point, base_value), pushed

    # the latest push, kept: an exhausted search certifies in full the
    # screened attempt of least bound, which is most often its last one
    latest = {}

    def build(k, screen=False):
        if k not in latest:
            latest.clear()
            latest[k] = push(k)
        G, pushed = latest[k]
        cert = _certify_null(G, F, bd, k, _NULL_N, orth_dir, screen=screen)
        return NullDeformation(G, cert, pushed), cert

    if k_fixed is None:
        return _search_k(build, m, K_MAX)[0]
    # the caller pins the frequency (e.g. shared across arcs so the positive
    # profiles add instead of interfering); no search
    result, cert = build(k_fixed)
    if not cert.valid:
        raise ToleranceUnachievableError(
            "k = %d misses the tolerance (worst-case %.3g)" % (k_fixed, cert.worst),
            certificate=cert,
        )
    return result


def rh_null_disc(
    F: SeriesMap, bd: BoundaryData, **kwargs
) -> Tuple[SeriesMap, RHCertificate]:
    """Deform a null disc along the tapered boundary datum; returns (G, cert).

    G is exactly null (spinor-generated) and agrees with F at the base
    point; the certificate measures the boundary-circle condition, the
    collar-disc condition, and C^0 closeness |G - F| off the padded arc.
    """
    if F.domain != "disc":
        raise DomainError("use rh_null_annulus for annulus curves")
    out = _rh_null(F, bd, **kwargs)
    return out.G, out.cert


def rh_null_annulus(
    F: SeriesMap, bd: BoundaryData, **kwargs
) -> Tuple[SeriesMap, RHCertificate]:
    """Annulus variant: the push is Laurent-windowed and periods are killed.

    The deformation leaves the loop periods untouched once k clears the
    Laurent window of the spinor (the push then has no z^{-1} overlap), so
    the period correction is usually the zero shift; it is still checked
    and enforced through the same Newton machinery.
    """
    if F.domain != "annulus":
        raise DomainError("use rh_null_disc for disc curves")
    out = _rh_null(F, bd, **kwargs)
    return out.G, out.cert
