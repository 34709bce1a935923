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

Both solvers certify through one function, _certify_null, which reads a
sampled target rather than a datum: the radius vector of the target disc
at each of n angles, the angles where (c) and (d) read the unit circle,
the collar radius and the tolerance.  A null push samples its datum's
target once (BoundaryData.target); rh_approx samples c(z) once, and its
empty keep-masks make (c) and (d) the closeness on the ring r.  The
certificate samples h = G - F on the boundary of the region it claims,
where the sup sits: its circles through the wrapped-FFT ring sampler, and
the radial segments at the keep-masks' ends through one
SeriesMap.eval_many, the blocked Horner kernel, at every collar radius.
(b) is the maximum over 64 collar radii, but their rings are measured
bound first: with M a bound on |G''| read off the coefficients, no radius
between two measured ones exceeds the chord of their values plus (M/2)
tau (gap - tau), so only gaps whose bound reaches the running maximum are
bisected.
A null push decides before it builds anything: a datum whose collar floor
reaches epsilon is refused, and the fit degree of the amplitude root is
read off the fit's own floor, so each push runs one k-search.  Both
searches double k until it certifies, then close the bracket on a log-log
secant of the worst case's k^(-1/2) decay, and both screen their attempts:
one whose (a) on the unit circle, or whose running (b), already reaches
epsilon is dropped before the rest of its certificate is measured.
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
from .geometry import NullVector, SpinorPair, require_c3, spinor_bilinear, spinor_point
from .series import DEFAULT_BOUNDARY_SAMPLES, SeriesMap
from .weierstrass import kill_periods, periods

K_MAX = 1 << 16
# fit degree m of the null push's boundary profile: the first tried, and the
# largest the fit floor may call for
_FIT_M_INIT = 64
_FIT_M_MAX = 256
# samples of the boundary profile that the fit and its floor read
_FIT_N = 8192
# radii of the certificate's collar grid, r..1
_CERT_RADIAL = 64
# the null certificate evaluates at most this many collar radii at a time
_CERT_RING_BLOCK = 8
# relative margin by which a collar gap's bound must undercut the running
# maximum before the null certificate skips the radii inside the gap
_CERT_SLACK = 1e-9

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

    def _chi_mu(self, theta):
        """(chi, mu) at theta: the taper and the interpolated samples, 0 off the arc."""
        d = self._offset(theta)
        off = np.isnan(d)
        x = np.where(off, 0.0, d)
        mu = np.interp(x / self.width * (self.mu.shape[0] - 1),
                       np.arange(self.mu.shape[0]), self.mu)
        chi = np.minimum(ramp(x / self.taper), ramp((self.width - x) / self.taper))
        return np.where(off, 0.0, chi), np.where(off, 0.0, mu)

    def amplitude_at(self, theta):
        """The realized kappa amplitude chi^2 * mu."""
        chi, mu = self._chi_mu(theta)
        return chi ** 2 * mu

    def sqrt_amplitude_at(self, theta):
        chi, mu = self._chi_mu(theta)
        return chi * np.sqrt(mu)

    def in_padded_arc(self, theta, pad: float):
        d = np.mod(np.asarray(theta, dtype=np.float64) - (self.arc[0] - pad), TWO_PI)
        return d <= self.width + 2.0 * pad

    def target(self, n: int = DEFAULT_BOUNDARY_SAMPLES):
        """The push target as _certify_null reads it: (rays, keep, r, epsilon, omega).

        At theta_j = TWO_PI * j / n: rays[j] = chi^2 mu theta, the radius
        vector of the target disc; keep (2, n), the angles off the arc
        padded by 2*taper and by taper; omega, the arc padded by 2*taper,
        which the certificate reports.
        """
        theta = TWO_PI * np.arange(n) / n
        rays = self.amplitude_at(theta)[:, None] * self.theta.v[None, :]
        pad2 = 2.0 * self.taper
        keep = ~np.stack([self.in_padded_arc(theta, pad) for pad in (pad2, self.taper)])
        omega = (self.arc[0] - pad2, self.arc[1] + pad2)
        return rays, keep, self.r, self.epsilon, omega

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
    d2 = _component_sum(np.abs(d) ** 2)
    r2 = _component_sum(np.abs(rays) ** 2)
    ip = np.abs(_component_sum(d * np.conj(rays)))
    return np.sqrt(np.maximum(d2 + r2 - 2.0 * ip, 0.0))


def disc_distance(points, centers, rays) -> np.ndarray:
    """Distance from points to the discs {center + w ray : |w| <= 1}.

    along2 = ip^2 / |ray|^2 <= |d|^2, so along2 overflows only where ip^2
    does.  There d2 - along2 would read -inf, a distance of 0, so that
    raises DomainError; an overflow in d2 or the excess term reads inf.
    """
    d = points - centers
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = _component_sum(np.abs(d) ** 2)
        r2 = _component_sum(np.abs(rays) ** 2)
        ip = np.abs(_component_sum(d * np.conj(rays)))
        safe = np.maximum(r2, 1e-300)
        along2 = ip ** 2 / safe
        excess = np.maximum(ip / safe - 1.0, 0.0)
        dist2 = d2 - along2 + excess * excess * r2
    if along2.max(initial=0.0) == np.inf:
        raise DomainError("squared distances to the target discs overflow")
    dist2 = np.where(r2 == 0.0, d2, dist2)
    return np.sqrt(np.maximum(dist2, 0.0))


def _component_sum(x) -> np.ndarray:
    """x summed over its last (component) axis, one term after the other.

    Up to 3 components that is the order .sum(axis=-1) adds in, so the bits
    agree, without NumPy's slow reduction over a short axis.  From 4 on
    NumPy's reduction groups the terms otherwise, and the last bits can
    differ (measured at 4 to 8).
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


class _Screened(float):
    """A screened attempt: a lower bound on its worst case, carrying its (a)."""

    __slots__ = ("cond_a",)

    def __new__(cls, bound: float, cond_a: float):
        out = super().__new__(cls, bound)
        out.cond_a = cond_a
        return out


def _search_k(build_and_certify, m: int, k_max: int):
    """Smallest certifying k > m: doubling, then a safeguarded secant.

    build_and_certify(k, screen) -> (payload, cert).  Every attempt is
    screened: the builder may stop at a cheap bound and return a float for
    cert, a lower bound on the attempt's worst case that already reaches
    the tolerance, so k certainly fails.

    The doubling tries k = m + 1, m + 2, m + 4, ... up to k_max until one
    certifies; an exhausted search raises with the certificate it would
    raise with unscreened (see _least_worst).  Then a bracket k_lo < k_hi,
    k_lo failing and k_hi certifying, shrinks to k_hi - k_lo = 1, so the
    answer certifies and its k - 1 was attempted and failed.  Each attempt
    inside the bracket is the secant step of _secant_k on the worst case's
    decay C k^(-p), or the midpoint when the secant has no inputs or the
    previous step did not halve the bracket.  The conditions fall with k,
    but not monotonely next to epsilon (wiggles of about 1e-4 relative were
    measured there), so the answer is a certifying k whose k - 1 fails,
    and which such k depends on the path of the search.
    """
    tried = []  # (worst case or a lower bound on it, k, certificate or None)

    def attempt(kk):
        """(payload, cert) of kk; cert is a float when kk was screened out."""
        payload, cert = build_and_certify(kk, True)
        full = isinstance(cert, RHCertificate)
        tried.append((cert.worst, kk, cert) if full else (cert, kk, None))
        return payload, cert

    def certifies(out):
        return isinstance(out[1], RHCertificate) and out[1].valid

    k_lo, k_hi, a_lo = m, m + 1, None
    out = attempt(k_hi)
    while not certifies(out):
        if k_hi >= k_max:
            best = _least_worst(tried, build_and_certify)
            raise ToleranceUnachievableError(
                "no k <= %d certifies the tolerance (best worst-case %.3g)"
                % (k_max, best.worst),
                certificate=best,
            )
        # the failing end feeds the secant its (a), which a screened attempt
        # carries too: where (a) reaches epsilon, screening stops at (a) itself
        a_lo = getattr(out[1], "cond_a", None)
        k_lo, k_hi = k_hi, min(2 * (k_hi - m) + m, k_max)
        out = attempt(k_hi)
    good, eps = out, out[1].epsilon
    halved = True
    while k_hi - k_lo > 1:
        k = _secant_k(k_lo, a_lo, k_hi, good[1].worst, eps) if halved else None
        if k is None:
            k = (k_lo + k_hi) // 2
        width = k_hi - k_lo
        out = attempt(k)
        if certifies(out):
            k_hi, good = k, out
        else:
            k_lo, a_lo = k, getattr(out[1], "cond_a", None)
        halved = 2 * (k_hi - k_lo) <= width + 1  # at most ceil(width / 2)
    return good


def _secant_k(k_lo: int, a_lo: Optional[float], k_hi: int, w_hi: float,
              eps: float) -> Optional[int]:
    """The next k of the bracket search from the power law through its ends.

    The law C k^(-p) through (k_lo, a_lo) and (k_hi, w_hi) meets eps at
    k_hi (w_hi / eps)^(1 / p); this returns its ceiling, clamped to
    [k_lo + 1, k_hi - 1].  None when a_lo is missing, below eps or not
    finite, w_hi is zero, or p is not positive: bisect then.
    """
    if a_lo is None or not (eps <= a_lo < np.inf and w_hi > 0.0):
        return None
    p = np.log(a_lo / w_hi) / np.log(k_hi / k_lo)
    if not p > 0.0:
        return None
    k = int(np.ceil(k_hi * np.exp(np.log(w_hi / eps) / p)))
    return min(max(k, k_lo + 1), k_hi - 1)


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
    k_max: int = K_MAX,
) -> Tuple[SeriesMap, RHCertificate]:
    """Solve the approximate boundary-tracking problem in C^n.

    Finds the smallest k > m such that F = f + c(z) z^k satisfies,
    on samples: (a) boundary values within eps of the circle family,
    (b) the collar [r, 1] within eps of the disc family, (c) F within
    eps of f on |z| <= r.  c is sampled once, and every attempt certifies
    through _certify_null with empty keep-masks, so (b) reads every angle
    and (d) equals (c).  The certificate reports r as r_prime.
    """
    if f.domain != "disc":
        raise DomainError("the C^n solver works on the disc")
    if fam.ncomp != f.ncomp:
        raise ValueError("family and map component counts differ")
    if not (0.0 < r < 1.0):
        raise DomainError("need 0 < r < 1")
    m = fam.degree_m
    if m + 1 >= k_max:
        raise ValueError("family degree %d exceeds the k budget" % m)

    rays = fam.circle_values(DEFAULT_BOUNDARY_SAMPLES)
    keep = np.zeros((2, rays.shape[0]), dtype=bool)  # (c) and (d) read only the ring r

    def build(k, screen=False):
        F = f + SeriesMap(fam.coeffs, k - m, "disc")  # polynomial, as k > m
        return F, _certify_null(F, f, k, rays, keep, r, eps, screen=screen)

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


def _fit_boundary_profile(bd: BoundaryData, m: int):
    """Fourier fit s_hat of chi*sqrt(mu) to degrees [-m, m]; returns (coeffs, floor).

    The push puts |s_hat|^2 theta on the boundary where condition (a) wants
    a circle of radius chi^2 mu |theta|, so floor, the max over the n
    samples of ||s_hat|^2 - chi^2 mu| |theta|, is the fit's error in that
    radius: the level the k-search's worst case settles at as k grows.
    """
    n = _FIT_N
    prof = bd.sqrt_amplitude_at(TWO_PI * np.arange(n) / n)
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


def _second_derivative_bound(S: SeriesMap, r_lo, r_hi) -> np.ndarray:
    """Upper bounds on sup |S''| over the annuli r_lo <= |z| <= r_hi, elementwise.

    |S''(z)| <= sum_d |d (d - 1)| ||c_d|| |z|^(d - 2), and each power is
    largest on one of the two circles.  The pad covers the rounding of the sum.
    """
    d = S.degrees.astype(np.float64)
    w = np.abs(d * (d - 1.0)) * np.sqrt((np.abs(S.coeffs) ** 2).sum(axis=0))
    cols = np.flatnonzero(w)
    p = d[cols] - 2.0
    ends = np.maximum(np.power.outer(r_lo, p), np.power.outer(r_hi, p))
    return (1.0 + 1e-12) * (ends @ w[cols])


def _certify_null(
    G: SeriesMap,
    F: SeriesMap,
    k: int,
    rays: np.ndarray,
    keep: np.ndarray,
    r: float,
    eps: float,
    omega: Optional[Tuple[float, float]] = None,
    orth_dir: Optional[np.ndarray] = None,
    screen: bool = False,
):
    """Measure G against F and a sampled target: four conditions and the leak.

    The target is read at the n angles theta_j = 2 pi j / n, n =
    len(rays): rays[j] (C,) spans the target disc {F(zeta_j) + w rays[j] :
    |w| <= 1} and its boundary circle, and keep (2, n) marks the angles
    where (c) and (d) read the unit circle (for a null push, the angles off
    the arc padded by 2*taper and by taper).  The conditions are (a) the
    unit circle against the circles, (b) the collar r <= |z| <= 1 against
    the discs at the angles keep[0] leaves out, and (c)/(d) the C^0
    closeness |G - F| on |z| <= r (from r0 on an annulus) plus the collar
    at the angles keep[0] / keep[1] marks.  G - F is holomorphic, so
    (c)/(d) and cond_orth (along orth_dir, when given) sample it only on
    the boundary of their region, where the maximum principle puts the
    sup.  omega is reported as given.

    (b) is the maximum over the collar grid of _CERT_RADIAL radii r..1, but
    its rings are measured bound first.  Between measured radii rho_i and
    rho_j = rho_i + g, the disc distance phi at an angle zeta obeys

        phi(rho_i + tau) <= B(tau) = phi_i + (tau / g)(phi_j - phi_i) + (M / 2) tau (g - tau)

    on 0 <= tau <= g, with M >= sup|G''| there (_second_derivative_bound):
    G((rho_i + tau) zeta) lies within (M / 2) tau (g - tau) of its chord, and
    the disc distance is convex and 1-Lipschitz.  B is concave, so over the
    grid radii inside the gap it peaks at its vertex clamped to them.  The
    rings r and 1 come first, then every gap whose bound, maximised over its
    angles, reaches the running maximum is bisected, up to
    _CERT_RING_BLOCK rings per evaluation.  The radial segments of (c)/(d)
    need no bound: one Horner call reads h = G - F there at every grid
    radius.

    A gap is skipped only when its bound undercuts the running maximum by
    the relative margin _CERT_SLACK plus 2 eta, eta = noise (cond_b + R),
    R the largest |rays| that (b) reads, so cond_b equals the full grid's.
    eta bounds the rounding of disc_distance at every sample the skip
    weighs, where dist2 = d2 - along2 + excess^2 r2 cancels.  In the
    model fl(x op y) = (x op y)(1 + t), |t| <= u = 2^-53, with C
    components, d = point - center and first-order terms: d2 errs by at
    most (C + 4) u d2; ip = |<d, ray>| by (C + 4) u sqrt(d2 r2), Cauchy-
    Schwarz, so along2 = ip^2 / r2 <= d2 by (3C + 12) u d2; excess <=
    ip / r2 <= sqrt(d2 / r2) by (2C + 8) u sqrt(d2 / r2), so excess^2 r2
    <= d2 by (5C + 20) u d2; the two sums add 3 u d2.  So dist2 errs by at
    most (9C + 39) u d2, and since |sqrt(x) - sqrt(y)| <= sqrt(|x - y|)
    and the root rounds by u sqrt(d2), the distance by sqrt((9C + 40) u
    d2) <= noise sqrt(d2), noise = sqrt(16 (C + 4) u) leaving room for the
    second-order terms.  A point within phi of a disc of radius |ray| lies
    within phi + |ray| of its centre, and every sample the skip weighs has
    phi below cond_b + eta: the gap's measured ends by the running
    maximum, its inner radii because the gap is skipped.  So a skipped
    radius reads at most its bound plus eta, the bound from measured ends
    errs by eta, and the sum stays below the running maximum.  The ring
    samples' own FFT rounding, of order u log2(n) times G's coefficient
    mass, is the same for the full grid and is taken to stay below eta.

    (a) is read off the ring rho = 1, which comes first.  With screen set,
    an (a) that already reaches epsilon ends the measurement, and so does
    a running (b) that does: G certainly fails, and max((a), (b))
    so far, a lower bound on its worst case, is returned in place of the
    certificate, before h is formed, as a float that carries (a) as
    cond_a.  On the disc that (a) is the certificate's; on an annulus the
    certificate's (a) also reads the inner circle.
    """
    n = rays.shape[0]
    Fb = F.circle_values(1.0, n)
    rho = np.linspace(r, 1.0, _CERT_RADIAL)
    top = _CERT_RADIAL - 1
    Gb = G.circle_values(1.0, n)  # the ring rho[top] = 1
    cond_a = float(circle_distance(Gb, Fb, rays).max())
    if screen and cond_a >= eps:
        return _Screened(cond_a, cond_a)

    # (b) reads the collar over the padded arc against the projected discs
    idx = np.flatnonzero(~keep[0])
    phi = np.empty((_CERT_RADIAL, idx.size))  # disc distances, by radius

    def measure(ids, Gr):
        """Record the rings Gr at rho[ids]; their maximum for (b)."""
        phi[ids] = disc_distance(Gr[:, idx], Fb[idx], rays[idx])
        return float(phi[ids].max())

    cond_b = max(measure([top], Gb[None]), measure([0], G.rings(rho[:1], n)))
    if screen and cond_b >= eps:
        return _Screened(max(cond_a, cond_b), cond_a)
    # the rounding of a disc distance is at most noise * (its value + |ray|)
    noise = np.sqrt(16.0 * (rays.shape[1] + 4) * np.finfo(np.float64).epsneg)
    ray_max = float(np.sqrt(_component_sum(np.abs(rays[idx]) ** 2).max(initial=0.0)))
    lo_i, hi_i = np.array([0]), np.array([top])
    while lo_i.size:
        # a collar within a few ulps of 1 repeats radii: a gap of width 0
        # holds only copies of its measured ends
        wide = rho[hi_i] > rho[lo_i]
        lo_i, hi_i = lo_i[wide], hi_i[wide]
        r_lo, g = rho[lo_i, None], rho[hi_i, None] - rho[lo_i, None]
        M, dphi = _second_derivative_bound(G, r_lo, rho[hi_i, None]), phi[hi_i] - phi[lo_i]
        # B's vertex g/2 + x, clamped to the grid radii inside the gap: dividing
        # only where it lies strictly inside keeps M = 0 and a tiny M g finite
        x_lo, x_hi = rho[lo_i + 1, None] - r_lo - g / 2, rho[hi_i - 1, None] - r_lo - g / 2
        Mg = M * g
        x = np.where(dphi > x_hi * Mg, x_hi, x_lo)
        np.divide(dphi, Mg, out=x, where=(x_lo * Mg < dphi) & (dphi <= x_hi * Mg))
        tau = g / 2 + x
        bound = (phi[lo_i] + tau / g * dphi + M / 2 * tau * (g - tau)).max(axis=1)
        reach = cond_b * (1.0 - _CERT_SLACK) - 2.0 * noise * (cond_b + ray_max)
        split = (bound >= reach) & (hi_i - lo_i > 1)
        lo_i, hi_i = lo_i[split], hi_i[split]
        mid = (lo_i + hi_i) // 2
        for s in range(0, mid.size, _CERT_RING_BLOCK):
            ids = mid[s:s + _CERT_RING_BLOCK]
            cond_b = max(cond_b, measure(ids, G.rings(rho[ids], n)))
            if screen and cond_b >= eps:
                return _Screened(max(cond_a, cond_b), cond_a)
        lo_i, hi_i = np.concatenate([lo_i, mid]), np.concatenate([mid, hi_i])

    # h = G - F on the domain's boundary circles, then on the ring r
    h = G - F
    hr = h.rings(F.boundary_radii + (r,), n)  # (R, n, C)
    hn = np.sqrt((np.abs(hr) ** 2).sum(axis=2))
    if F.domain == "annulus":
        # mu vanishes on the inner circle, so the target there is the point F(x)
        cond_a = max(cond_a, float(hn[1].max()))

    # (c)/(d): every angle of the ring r (and r0), the unit circle under the
    # keep-mask, and the radial segments at its ends at every collar radius
    ends = keep & ~(np.roll(keep, 1, axis=1) & np.roll(keep, -1, axis=1))
    edges = np.flatnonzero(ends.any(axis=0))
    hs = h.eval_many(rho[:, None] * np.exp(1j * (TWO_PI * edges / n)))
    seg = np.sqrt((np.abs(hs) ** 2).sum(axis=1)).reshape(_CERT_RADIAL, edges.size)
    inner = float(hn[1:].max())
    cond_c, cond_d = (max(inner, float(hn[0].max(where=kp, initial=0.0)),
                          float(seg.max(where=kp[edges], initial=0.0)))
                      for kp in keep)

    orth_max = None
    if orth_dir is not None:
        orth_max = float(np.abs(hr[:-1] @ np.conj(orth_dir)).max())
    return RHCertificate(
        k=k,
        r_prime=r,
        epsilon=eps,
        cond_a=cond_a,
        cond_b=cond_b,
        cond_c=cond_c,
        cond_d=cond_d,
        cond_orth=orth_max,
        omega=omega,
        n_samples=n,
    )


@dataclass
class NullDeformation:
    """Full state of one null-curve deformation (pipelines keep the spinor)."""

    G: SeriesMap
    cert: RHCertificate
    spinor: SpinorPair


def _collar_floor(F: SeriesMap, rays: np.ndarray, keep: np.ndarray, r: float) -> float:
    """A lower bound on the worse of conditions (b) and (c) for any push.

    The target (rays, keep) and the collar radius r are the certificate's
    (_certify_null).  D is the max, over the angles (b) reads (those
    keep[0] leaves out), of the distance from F(r zeta) to the target disc
    at F(zeta).  Every push gives G = F + h, and the disc distance is
    1-Lipschitz in its point.  The first collar radius of (b) is exactly r
    and (c) reads |h| at every angle of the ring r, so cond_b >= D - sup|h(r .)| and cond_c >= sup|h(r .)|:
    no k and no fit degree brings both below D/2, which this returns.
    """
    n = rays.shape[0]
    idx = np.flatnonzero(~keep[0])
    Fb = F.circle_values(1.0, n)[idx]
    Fr = F.circle_values(r, n)[idx]
    return 0.5 * float(disc_distance(Fr, Fb, rays[idx]).max())


def _rh_null(
    F: SeriesMap,
    bd: BoundaryData,
    spinor: Optional[SpinorPair] = None,
    k_fixed: Optional[int] = None,
    orth_direction: Optional[np.ndarray] = None,
) -> NullDeformation:
    """Certified null push of F along bd, or ToleranceUnachievableError.

    On an annulus a collar radius at or inside r0 raises DomainError.  A
    datum whose collar floor (_collar_floor) reaches epsilon is refused
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
    # looked up at call time, so a wrapper installed on geometry.spinor_lift
    # (a profiler's, say) sees the call
    from .geometry import spinor_lift

    require_c3(F)
    if F.domain == "annulus" and not bd.r > F.r0:
        raise DomainError(
            "collar radius r = %.6g must exceed the annulus inner radius r0 = %.6g"
            % (bd.r, F.r0)
        )
    fprime = F.derivative()
    if spinor is None:
        # first: the lift names a curve that overflows on the boundary
        # circles, before the base point evaluates it inside them
        spinor = spinor_lift(fprime)
    base_point = 0.0 if F.domain == "disc" else float(np.sqrt(F.r0))
    base_value = F.eval(base_point)
    a, b = _direction_lift(bd.theta)

    # the target, sampled once: the floor and every certificate read it
    target = bd.target()
    if target[1][0].all():
        raise DomainError(
            "the arc padded by 2 taper holds none of the %d boundary samples"
            % target[1].shape[1]
        )
    floor = _collar_floor(F, *target[:3])
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
        cert = _certify_null(F, F, 0, *target, orth_dir)
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

    def build(k, screen=False):
        G, pushed = push(k)
        cert = _certify_null(G, F, k, *target, orth_dir, screen=screen)
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
