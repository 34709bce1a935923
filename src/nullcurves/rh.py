"""Approximate Riemann-Hilbert solvers.

rh_approx solves the C^n problem by the rational-shift formula
F(z) = f(z) + sum_j c_j(z) z^{jk} with the smallest k that certifies the
three distance conditions on samples.  rh_null_disc / rh_null_annulus run
the null-curve variant: lift the derivative to spinors, push along a
tapered amplitude times a constant spinor direction, project back through
the quadratic parametrization, and integrate.  The push carries a factor
sqrt(2k+1) z^k so that after integration the boundary circle term has
exactly the tapered amplitude; the cross term decays like 1/sqrt(k) and
the certificate measures everything rather than assuming it.

All certificate grids are unions of circles, so every evaluation runs
through the wrapped-FFT circle sampler regardless of series width.
"""

import json
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import kernels
from .errors import (
    DomainError,
    NotInNullConeError,
    ToleranceUnachievableError,
    _parsing,
)
from .geometry import NullVector, SpinorPair, spinor_bilinear
from .series import SeriesMap
from .weierstrass import kill_periods, periods

K_MAX = 1 << 16
# fit degree m of the null push's boundary profile: the first fit, and the
# cap of the doubling retries when no k certifies
_FIT_M_INIT = 64
_FIT_M_MAX = 256
# the certificate reduces its (radius, angle) grids this many radii at a
# time: all ~100 rings of a certificate at once cost about 27 MB of peak
# memory at 4096 angles
_CERT_RING_BLOCK = 8

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
    d2 = (np.abs(d) ** 2).sum(axis=-1)
    r2 = (np.abs(rays) ** 2).sum(axis=-1)
    ip = (d * np.conj(rays)).sum(axis=-1)
    safe = np.maximum(r2, 1e-300)
    along2 = np.abs(ip) ** 2 / safe
    excess = np.maximum(np.abs(ip) / safe - 1.0, 0.0)
    dist2 = d2 - along2 + excess * excess * r2
    dist2 = np.where(r2 == 0.0, d2, dist2)
    return np.sqrt(np.maximum(dist2, 0.0))


# -- the general C^n solver --------------------------------------------------


@dataclass(frozen=True)
class BoundaryDiscFamily:
    """g_z(w) - f(z) = sum_{j=1..J} c_j(z) w^j, c_j trigonometric in z.

    coeffs[j, comp, m + d] is the z^d Fourier coefficient of c_{j+1},
    d in [-m, m].
    """

    coeffs: np.ndarray  # (J, ncomp, 2m+1) complex
    degree_m: int

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.ndim != 3 or c.shape[2] != 2 * self.degree_m + 1:
            raise ValueError("coeffs must be (J, ncomp, 2m+1)")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def J(self) -> int:
        return self.coeffs.shape[0]

    @property
    def ncomp(self) -> int:
        return self.coeffs.shape[1]

    @staticmethod
    def from_constant(vectors) -> "BoundaryDiscFamily":
        """Constant-in-z family: c_j(z) = vectors[j-1]."""
        arr = np.asarray(vectors, dtype=np.complex128)
        if arr.ndim == 1:
            arr = arr[None, :]
        return BoundaryDiscFamily(arr[:, :, None], 0)

    def circle_values(self, n: int) -> np.ndarray:
        """Values of all c_j at the n-th roots of unity -> (n, J, ncomp)."""
        # each c_j is a Laurent polynomial in z, which any annulus holds
        rows = self.coeffs.reshape(-1, self.coeffs.shape[2])
        vals = SeriesMap(rows, -self.degree_m, "annulus", 0.5).circle_values(1.0, n)
        return vals.reshape(n, self.J, self.ncomp)


def _rh_sum(f: SeriesMap, fam: BoundaryDiscFamily, k: int) -> SeriesMap:
    """F = f + sum_j c_j(z) z^{jk}, polynomial because k > m."""
    F = f
    m = fam.degree_m
    for j in range(1, fam.J + 1):
        lo = j * k - m
        term = SeriesMap(fam.coeffs[j - 1], lo, "disc")
        F = F + term
    return F


def _certify_approx(
    f: SeriesMap,
    fam: BoundaryDiscFamily,
    F: SeriesMap,
    k: int,
    r_prime: float,
    eps: float,
    n_boundary: int,
    n_tau: int,
    n_radial: int,
    w_grid: int,
) -> RHCertificate:
    n = n_boundary
    fb = f.circle_values(1.0, n)
    Fb = F.circle_values(1.0, n)
    cj = fam.circle_values(n)  # (n, J, ncomp)
    if fam.J == 1:
        cond_a = float(circle_distance(Fb, fb, cj[:, 0, :]).max())
    else:
        tau = TWO_PI * np.arange(n_tau) / n_tau
        powers = np.exp(1j * np.outer(np.arange(1, fam.J + 1), tau))  # (J, n_tau)
        cloud = fb[:, None, :] + np.einsum("njc,jt->ntc", cj, powers)
        d2 = kernels.min_dist2_grouped(Fb[:, None, :], cloud)
        cond_a = float(np.sqrt(d2).max())

    rho = np.linspace(r_prime, 1.0, n_radial)
    Fr = np.ascontiguousarray(F.rings(rho, n).swapaxes(0, 1))  # (n, R, C)
    if fam.J == 1:
        centers = np.broadcast_to(fb[:, None, :], Fr.shape)
        rays = np.broadcast_to(cj[:, 0, :][:, None, :], Fr.shape)
        cond_b = float(disc_distance(Fr, centers, rays).max())
    else:
        rw = np.linspace(0.0, 1.0, w_grid)
        phw = TWO_PI * np.arange(w_grid) / w_grid
        w = (rw[:, None] * np.exp(1j * phw)[None, :]).ravel()  # (w_grid^2,)
        wp = w[None, :] ** np.arange(1, fam.J + 1)[:, None]  # (J, W)
        cloud = fb[:, None, :] + np.einsum("njc,jw->nwc", cj, wp)
        d2 = kernels.min_dist2_grouped(Fr, cloud)
        cond_b = float(np.sqrt(d2).max())

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


def _search_k(build_and_certify, m: int, k_max: int, k_init: Optional[int] = None):
    """Doubling-then-bisection search for the smallest certifying k > m.

    build_and_certify(k) -> (payload, cert).  Relies on the measured
    monotone improvement of the conditions in k.
    """
    best = None  # least-worst certificate for error reporting
    k = max(m + 1, k_init if k_init else 0)

    def attempt(kk):
        nonlocal best
        payload, cert = build_and_certify(kk)
        if best is None or cert.worst < best[1].worst:
            best = (payload, cert)
        return payload, cert

    payload, cert = attempt(k)
    if not cert.valid:
        k_lo = k
        while True:
            k = min(2 * (k - m) + m, k_max)
            payload, cert = attempt(k)
            if cert.valid:
                break
            k_lo = k
            if k >= k_max:
                raise ToleranceUnachievableError(
                    "no k <= %d certifies the tolerance (best worst-case %.3g)"
                    % (k_max, best[1].worst),
                    certificate=best[1],
                )
    else:
        k_lo = m
    k_hi = k
    good = (payload, cert)
    while k_hi - k_lo > 1:
        mid = (k_lo + k_hi) // 2
        payload, cert = attempt(mid)
        if cert.valid:
            k_hi, good = mid, (payload, cert)
        else:
            k_lo = mid
    return good


def rh_approx(
    f: SeriesMap,
    fam: BoundaryDiscFamily,
    r: float,
    eps: float,
    r_prime: Optional[float] = None,
    n_boundary: int = 4096,
    n_tau: int = 256,
    n_radial: int = 64,
    w_grid: int = 16,
    k_max: int = K_MAX,
    k_init: Optional[int] = None,
) -> Tuple[SeriesMap, RHCertificate]:
    """Solve the approximate boundary-tracking problem in C^n.

    Finds the smallest k > m such that F = f + sum_j c_j z^{jk} satisfies,
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
    if float(np.abs(fam.coeffs).max(initial=0.0)) == 0.0:
        # vacuous family: the discs are the single points f(z), nothing to track
        cert = RHCertificate(
            k=m + 1,
            r_prime=r_prime,
            epsilon=eps,
            cond_a=0.0,
            cond_b=0.0,
            cond_c=0.0,
            n_samples=n_boundary,
        )
        return f, cert

    def build(k):
        F = _rh_sum(f, fam, k)
        cert = _certify_approx(
            f, fam, F, k, r_prime, eps, n_boundary, n_tau, n_radial, w_grid
        )
        return F, cert

    return _search_k(build, m, k_max, k_init)


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
    check = np.array([a * a - b * b, 1j * (a * a + b * b), 2 * a * b])
    if np.abs(check - t).max() > 1e-12 * max(1.0, float(np.abs(t).max())):
        raise NotInNullConeError("direction does not lift through the covering")
    return complex(a), complex(b)


def _fit_boundary_profile(bd: BoundaryData, m: int, n: int = 8192):
    """Fourier fit of chi*sqrt(mu) to degrees [-m, m]; returns (coeffs, tail).

    tail is the sup over samples of |fit - profile|, the honest aliasing
    plus truncation error of the tapered amplitude root.
    """
    theta = TWO_PI * np.arange(n) / n
    prof = bd.sqrt_amplitude_at(theta)
    bins = np.fft.fft(prof) / n
    coeffs = bins[np.mod(np.arange(-m, m + 1), n)]
    fit = SeriesMap(coeffs[None, :], -m, "annulus", 0.5)  # any annulus holds it
    tail = float(np.abs(fit.circle_values(1.0, n)[:, 0] - prof).max())
    return coeffs, tail


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


def _certify_null(
    G: SeriesMap,
    F: SeriesMap,
    bd: BoundaryData,
    k: int,
    n_boundary: int,
    orth_dir: Optional[np.ndarray],
    n_radial: int = 64,
    n_interior_radii: int = 33,
) -> RHCertificate:
    """Measure the four deformation conditions plus the orthogonal budget."""
    n = n_boundary
    theta = TWO_PI * np.arange(n) / n
    lo, hi = bd.arc
    pad1, pad2 = bd.taper, 2.0 * bd.taper
    tv = bd.theta.v

    Fb = F.circle_values(1.0, n)
    Gb = G.circle_values(1.0, n)
    amp = bd.amplitude_at(theta)
    rays = amp[:, None] * tv[None, :]
    dist_a = circle_distance(Gb, Fb, rays)
    cond_a = float(dist_a.max())
    if F.domain == "annulus":
        # mu vanishes on the inner circle, so the target there is the point F(x)
        Fi = F.circle_values(F.r0, n)
        Gi = G.circle_values(G.r0, n)
        cond_a = max(cond_a, float(np.sqrt((np.abs(Gi - Fi) ** 2).sum(1)).max()))

    # (b): the collar over the padded arc against the projected discs
    idx = np.flatnonzero(bd.in_padded_arc(theta, pad2))
    cond_b = 0.0
    for rho in _blocks(np.linspace(bd.r, 1.0, n_radial)):
        Gr = G.rings(rho, n)[:, idx]
        cond_b = max(cond_b, float(disc_distance(Gr, Fb[idx], rays[idx]).max()))

    # (c)/(d): C^1 closeness off the padded neighborhoods; inside the collar
    # the keep-masks drop the padded arc, below it every angle counts
    r_in = F.r0 if F.domain == "annulus" else 0.0
    off_c = ~bd.in_padded_arc(theta, pad2)
    off_d = ~bd.in_padded_arc(theta, pad1)
    h = TWO_PI / n
    val_c = deriv_c = val_d = deriv_d = orth_max = 0.0
    for radii in _blocks(np.linspace(r_in, 1.0, n_interior_radii)):
        diff = G.rings(radii, n) - F.rings(radii, n)  # (R, n, C)
        dn = np.sqrt((np.abs(diff) ** 2).sum(axis=2))
        fd = (np.roll(diff, -1, axis=1) - np.roll(diff, 1, axis=1)) / (2.0 * h)
        fdn = np.sqrt((np.abs(fd) ** 2).sum(axis=2))
        if orth_dir is not None:
            orth_max = max(orth_max, float(np.abs(diff @ np.conj(orth_dir)).max()))
        below = (radii < bd.r - 1e-12)[:, None]
        keep_c, keep_d = below | off_c, below | off_d
        val_c = max(val_c, float(dn.max(where=keep_c, initial=0.0)))
        deriv_c = max(deriv_c, float(fdn.max(where=keep_c, initial=0.0)))
        val_d = max(val_d, float(dn.max(where=keep_d, initial=0.0)))
        deriv_d = max(deriv_d, float(fdn.max(where=keep_d, initial=0.0)))
    return RHCertificate(
        k=k,
        r_prime=bd.r,
        epsilon=bd.epsilon,
        cond_a=cond_a,
        cond_b=cond_b,
        cond_c=val_c + deriv_c,
        cond_d=val_d + deriv_d,
        cond_orth=orth_max if orth_dir is not None else None,
        omega=(lo - pad2, hi + pad2),
        n_samples=n,
    )


def _blocks(radii: np.ndarray):
    """Consecutive slices of at most _CERT_RING_BLOCK radii."""
    return np.split(radii, range(_CERT_RING_BLOCK, radii.size, _CERT_RING_BLOCK))


@dataclass
class NullDeformation:
    """Full state of one null-curve deformation (pipelines keep the spinor)."""

    G: SeriesMap
    cert: RHCertificate
    spinor: SpinorPair


def _rh_null(
    F: SeriesMap,
    bd: BoundaryData,
    spinor: Optional[SpinorPair] = None,
    n_boundary: int = 4096,
    k_max: int = K_MAX,
    k_fixed: Optional[int] = None,
    orth_direction: Optional[np.ndarray] = None,
) -> NullDeformation:
    """Certified null push of F along bd; refit at a higher degree on failure.

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

    if float(bd.mu.max()) == 0.0:
        cert = RHCertificate(
            k=0,
            r_prime=bd.r,
            epsilon=bd.epsilon,
            cond_a=0.0,
            cond_b=0.0,
            cond_c=0.0,
            cond_d=0.0,
            cond_orth=0.0,
            omega=(bd.arc[0] - 2 * bd.taper, bd.arc[1] + 2 * bd.taper),
            n_samples=n_boundary,
        )
        return NullDeformation(G=F, cert=cert, spinor=spinor)

    if orth_direction is not None:
        orth_dir = np.asarray(orth_direction, dtype=np.complex128)
        orth_dir = orth_dir / np.linalg.norm(orth_dir)
    else:
        mid = 0.5 * (bd.arc[0] + bd.arc[1])
        fp_mid = fprime.eval(np.exp(1j * mid))
        orth_dir = _orth_direction(fp_mid, bd.theta)

    B = spinor_bilinear(spinor, a, b)
    pi_ab = np.array(
        [a * a - b * b, 1j * (a * a + b * b), 2 * a * b], dtype=np.complex128
    )

    m = _FIT_M_INIT
    if k_fixed is not None:
        if k_fixed < 2:
            raise ValueError("k_fixed must be at least 2")
        # the fit degree must stay below the pinned frequency; a coarser
        # fit just carries a larger honest tail into the certificate
        m = min(m, k_fixed - 1)
    while True:
        s_hat, tail = _fit_boundary_profile(bd, m)

        def build(k):
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
            G = gprime.antiderivative(base_point, base_value)
            cert = _certify_null(G, F, bd, k, n_boundary, orth_dir)
            return NullDeformation(G, cert, pushed), cert

        try:
            if k_fixed is not None:
                # caller pins the frequency (e.g. shared across arcs so the
                # positive profiles add instead of interfering); no search
                result, cert = build(k_fixed)
                if not cert.valid:
                    raise ToleranceUnachievableError(
                        "k = %d misses the tolerance (worst-case %.3g)"
                        % (k_fixed, cert.worst),
                        certificate=cert,
                    )
                return result
            return _search_k(build, m, k_max)[0]
        except ToleranceUnachievableError:
            cap = _FIT_M_MAX if k_fixed is None else min(_FIT_M_MAX, k_fixed - 1)
            if m >= cap:
                raise
            m = min(2 * m, cap)


def rh_null_disc(
    F: SeriesMap, bd: BoundaryData, **kwargs
) -> Tuple[SeriesMap, RHCertificate]:
    """Deform a null disc along the tapered boundary datum; returns (G, cert).

    G is exactly null (spinor-generated) and agrees with F at the base
    point; the certificate measures the boundary-circle condition, the
    collar-disc condition, and C^1 closeness off the padded arc.
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
