"""Truncated power/Laurent series on the closed disc and on annuli.

A SeriesMap holds one coefficient row per component over a shared degree
window [degree_lo, degree_hi].  Disc maps are normalized to degree_lo = 0,
annulus maps to degree_lo <= 0.  All values are immutable; every operation
returns a fresh object.

Boundary work goes through wrapped FFT evaluation: the values of the
truncated series at N uniform points of a circle equal N * ifft of the
coefficient array folded modulo N (after radial/phase scaling).  That is
exact for any degree span, which keeps the high-degree deformation series
(degrees in the tens of thousands) cheap to sample.
"""

import json
import operator
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import scipy.fft

from .errors import (
    AliasingError,
    DomainError,
    NonHolomorphicDataError,
    NonzeroResidueError,
    _parsing,
)
from .kernels import horner_eval

DEFAULT_DEGREE_CAP = 256
DEFAULT_BOUNDARY_SAMPLES = 4096
_BOUNDARY_SLACK = 1e-9
# switch convolution products to FFT above this combined width
_CONV_FFT_CUTOFF = 1024


def fftconvolve(a, b) -> np.ndarray:
    """Full linear convolution of complex arrays along the last axis, by FFT.

    Bit-identical to scipy.signal.fftconvolve(a, b, mode="full") along that
    axis, without importing scipy.signal, which costs most of a process
    start.  Like SciPy, a factor of width 1 is a plain product.
    """
    if a.shape[-1] == 1 or b.shape[-1] == 1:
        return a * b
    n = a.shape[-1] + b.shape[-1] - 1
    nfft = scipy.fft.next_fast_len(n, real=False)
    spec = scipy.fft.fft(a, nfft) * scipy.fft.fft(b, nfft)
    return scipy.fft.ifft(spec)[..., :n]


def _as_coeff_matrix(components) -> np.ndarray:
    arr = np.array(components, dtype=np.complex128)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValueError("components must be a vector or a matrix of coefficients")
    return arr


@dataclass(frozen=True)
class SeriesMap:
    """Vector of truncated scalar series sharing one degree window and domain."""

    coeffs: np.ndarray  # (ncomp, width) complex128, read-only
    degree_lo: int
    domain: str  # "disc" or "annulus"
    r0: Optional[float] = None  # inner radius when domain == "annulus"

    def __post_init__(self):
        coeffs = np.ascontiguousarray(self.coeffs, dtype=np.complex128)
        if coeffs.ndim != 2 or coeffs.shape[1] == 0:
            raise ValueError("coeffs must be (ncomp, width) with width >= 1")
        lo = int(self.degree_lo)
        if self.domain == "disc":
            if self.r0 is not None:
                raise ValueError("disc domain takes no inner radius")
            if lo < 0:
                raise DomainError("disc series cannot carry negative degrees")
            if lo > 0:
                coeffs = np.concatenate(
                    [np.zeros((coeffs.shape[0], lo), dtype=np.complex128), coeffs],
                    axis=1,
                )
                lo = 0
        elif self.domain == "annulus":
            if self.r0 is None or not (0.0 < self.r0 < 1.0):
                raise DomainError("annulus needs inner radius r0 in (0, 1)")
            if lo > 0:
                coeffs = np.concatenate(
                    [np.zeros((coeffs.shape[0], lo), dtype=np.complex128), coeffs],
                    axis=1,
                )
                lo = 0
        else:
            raise DomainError("domain must be 'disc' or 'annulus'")
        coeffs = coeffs.copy()
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "degree_lo", lo)

    # -- basic queries ----------------------------------------------------

    @property
    def ncomp(self) -> int:
        return self.coeffs.shape[0]

    @property
    def width(self) -> int:
        return self.coeffs.shape[1]

    @property
    def degree_hi(self) -> int:
        return self.degree_lo + self.width - 1

    @property
    def degrees(self) -> np.ndarray:
        return np.arange(self.degree_lo, self.degree_hi + 1)

    def component(self, k: int) -> "SeriesMap":
        return SeriesMap(self.coeffs[k : k + 1], self.degree_lo, self.domain, self.r0)

    def in_domain(self, z: complex) -> bool:
        az = abs(z)
        if az > 1.0 + _BOUNDARY_SLACK:
            return False
        if self.domain == "annulus" and az < self.r0 - _BOUNDARY_SLACK:
            return False
        return True

    def _same_domain(self, other: "SeriesMap"):
        if self.domain != other.domain or (
            self.domain == "annulus" and self.r0 != other.r0
        ):
            raise DomainError("operands live on different domains")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_components(components, degree_lo=0, domain="disc", r0=None) -> "SeriesMap":
        return SeriesMap(_as_coeff_matrix(components), int(degree_lo), domain, r0)

    @staticmethod
    def constant(values, domain="disc", r0=None) -> "SeriesMap":
        vals = np.atleast_1d(np.asarray(values, dtype=np.complex128))
        return SeriesMap(vals[:, None], 0, domain, r0)

    @staticmethod
    def zero(ncomp=1, domain="disc", r0=None) -> "SeriesMap":
        return SeriesMap(np.zeros((ncomp, 1), dtype=np.complex128), 0, domain, r0)

    @staticmethod
    def stack(parts) -> "SeriesMap":
        """Concatenate scalar maps (or small vectors) into one vector map."""
        parts = list(parts)
        first = parts[0]
        for p in parts[1:]:
            first._same_domain(p)
        lo = min(p.degree_lo for p in parts)
        hi = max(p.degree_hi for p in parts)
        rows = []
        for p in parts:
            padded = p._window(lo, hi)
            rows.append(padded)
        return SeriesMap(np.concatenate(rows, axis=0), lo, first.domain, first.r0)

    def _window(self, lo: int, hi: int) -> np.ndarray:
        """Coefficients re-indexed onto [lo, hi], zero-filled (must contain self)."""
        if lo > self.degree_lo or hi < self.degree_hi:
            raise ValueError("window does not contain the coefficient support")
        out = np.zeros((self.ncomp, hi - lo + 1), dtype=np.complex128)
        off = self.degree_lo - lo
        out[:, off : off + self.width] = self.coeffs
        return out

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "SeriesMap") -> "SeriesMap":
        self._same_domain(other)
        if self.ncomp != other.ncomp:
            raise ValueError("component counts differ")
        lo = min(self.degree_lo, other.degree_lo)
        hi = max(self.degree_hi, other.degree_hi)
        return SeriesMap(
            self._window(lo, hi) + other._window(lo, hi), lo, self.domain, self.r0
        )

    def __sub__(self, other: "SeriesMap") -> "SeriesMap":
        return self + (other * (-1.0))

    def __mul__(self, other):
        if isinstance(other, SeriesMap):
            return self._product(other)
        return SeriesMap(self.coeffs * other, self.degree_lo, self.domain, self.r0)

    __rmul__ = __mul__

    def _product(self, other: "SeriesMap") -> "SeriesMap":
        """Componentwise convolution product; scalar factors broadcast."""
        self._same_domain(other)
        a, b = self, other
        if a.ncomp != b.ncomp:
            if a.ncomp == 1:
                a = SeriesMap(
                    np.repeat(a.coeffs, b.ncomp, axis=0), a.degree_lo, a.domain, a.r0
                )
            elif b.ncomp == 1:
                b = SeriesMap(
                    np.repeat(b.coeffs, a.ncomp, axis=0), b.degree_lo, b.domain, b.r0
                )
            else:
                raise ValueError("component counts differ and neither is scalar")
        lo = a.degree_lo + b.degree_lo
        if a.width + b.width <= _CONV_FFT_CUTOFF or self.domain == "annulus":
            # Direct convolution keeps structurally-zero slots exactly zero.
            # On annuli that matters: FFT noise in deep negative degrees gets
            # amplified by r0^-|d| at the inner circle.
            rows = [
                np.convolve(a.coeffs[k], b.coeffs[k]) for k in range(a.ncomp)
            ]
            prod = np.vstack(rows)
        else:
            prod = fftconvolve(a.coeffs, b.coeffs)
        return SeriesMap(prod, lo, self.domain, self.r0)

    def dot(self, other: "SeriesMap") -> "SeriesMap":
        """Bilinear sum over components of the convolution products (no conj)."""
        prod = self._product(other)
        return SeriesMap(
            prod.coeffs.sum(axis=0, keepdims=True), prod.degree_lo, self.domain, self.r0
        )

    def shift(self, power: int) -> "SeriesMap":
        """Multiply by z**power (exact reindexing)."""
        return SeriesMap(self.coeffs, self.degree_lo + power, self.domain, self.r0)

    def truncate(self, degree_lo: int, degree_hi: int) -> Tuple["SeriesMap", float]:
        """Restrict to a window; returns (map, dropped-energy fraction)."""
        lo = max(degree_lo, 0) if self.domain == "disc" else degree_lo
        d = self.degrees
        keep = (d >= lo) & (d <= degree_hi)
        total = float(np.sum(np.abs(self.coeffs) ** 2))
        dropped = float(np.sum(np.abs(self.coeffs[:, ~keep]) ** 2))
        leakage = dropped / total if total > 0 else 0.0
        width = degree_hi - lo + 1
        out = np.zeros((self.ncomp, width), dtype=np.complex128)
        src = self.coeffs[:, keep]
        if src.shape[1]:
            off = max(self.degree_lo, lo) - lo
            out[:, off : off + src.shape[1]] = src
        return SeriesMap(out, lo, self.domain, self.r0), leakage

    # -- calculus ---------------------------------------------------------

    def derivative(self) -> "SeriesMap":
        d = self.degrees.astype(np.complex128)
        dc = self.coeffs * d
        if self.domain == "disc":
            if self.width == 1:
                return SeriesMap.zero(self.ncomp, self.domain, self.r0)
            return SeriesMap(dc[:, 1:], 0, self.domain, self.r0)
        return SeriesMap(dc, self.degree_lo - 1, self.domain, self.r0)

    def residue(self) -> np.ndarray:
        """Coefficient of z**-1 per component (zero vector for disc maps)."""
        out = np.zeros(self.ncomp, dtype=np.complex128)
        if self.degree_lo <= -1 <= self.degree_hi:
            out = self.coeffs[:, -1 - self.degree_lo].copy()
        return out

    def antiderivative(
        self, base_point: complex, base_value, residue_tol: float = 1e-8
    ) -> "SeriesMap":
        """Termwise antiderivative pinned to base_value at base_point.

        On the annulus the z**-1 coefficient obstructs integration; it must
        be below residue_tol in modulus (run the period check first) and is
        dropped.
        """
        if not self.in_domain(base_point):
            raise DomainError("base point outside the domain")
        res = self.residue()
        if self.domain == "annulus":
            bad = np.abs(res).max() if res.size else 0.0
            if bad >= residue_tol:
                raise NonzeroResidueError(
                    "z**-1 coefficient of modulus %.3g obstructs integration" % bad
                )
        d = self.degrees
        lo, hi = self.degree_lo + 1, self.degree_hi + 1
        lo = min(lo, 0)
        width = hi - lo + 1
        out = np.zeros((self.ncomp, width), dtype=np.complex128)
        keep = d != -1
        out[:, d[keep] + 1 - lo] = self.coeffs[:, keep] / (d[keep] + 1)
        prim = SeriesMap(out, lo, self.domain, self.r0)
        base_value = np.atleast_1d(np.asarray(base_value, dtype=np.complex128))
        correction = base_value - prim.eval(base_point)
        bump = np.zeros((self.ncomp, width), dtype=np.complex128)
        bump[:, -lo] = correction
        return SeriesMap(prim.coeffs + bump, lo, self.domain, self.r0)

    # -- evaluation -------------------------------------------------------

    def eval(self, z: complex) -> np.ndarray:
        """Value at one point of the closed domain, (ncomp,) complex."""
        return self.eval_many(np.asarray([z]))[0]

    def eval_many(self, z) -> np.ndarray:
        """Values at points z (M,), -> (M, ncomp); Horner over the window."""
        z = np.asarray(z, dtype=np.complex128).ravel()
        for zz in z:
            if not self.in_domain(zz):
                raise DomainError("evaluation point %r outside the domain" % zz)
        vals = horner_eval(self.coeffs, z)
        if self.degree_lo != 0:
            vals = vals * (z[:, None] ** self.degree_lo)
        return vals

    def rings(self, radii, n: int, phases=0.0) -> np.ndarray:
        """Values on circles: z = radii[i]*exp(i(2pi j/n + phases[i])) -> (R, n, ncomp).

        Exact wrapped-FFT evaluation of the truncated series; no aliasing
        constraint because this is evaluation, not fitting.  Each ring is
        scaled and folded mod n on its own, which keeps the scratch memory
        at one ring's worth for wide series; the FFT runs once over all
        rings.  The result is C-contiguous.
        """
        radii = np.atleast_1d(np.asarray(radii, dtype=np.float64))
        phases = np.broadcast_to(np.asarray(phases, dtype=np.float64), radii.shape)
        d = self.degrees
        # degrees are contiguous, so the mod-n fold is a padded reshape-sum
        off = self.degree_lo % n
        nblocks = -(-(off + self.width) // n)
        buf = np.zeros((self.ncomp, nblocks * n), dtype=np.complex128)
        folded = np.empty((radii.size, self.ncomp, n), dtype=np.complex128)
        for i, (radius, phase) in enumerate(zip(radii, phases)):
            scale = (radius ** d.astype(np.float64)) * np.exp(1j * phase * d)
            buf[:, off : off + self.width] = self.coeffs * scale[None, :]
            folded[i] = buf.reshape(self.ncomp, nblocks, n).sum(axis=1)
        vals = n * np.fft.ifft(folded, axis=2)
        return np.ascontiguousarray(vals.transpose(0, 2, 1))

    def circle_values(self, radius: float, n: int, phase: float = 0.0) -> np.ndarray:
        """Values at z = radius*exp(i(2pi j/n + phase)), j = 0..n-1 -> (n, ncomp)."""
        return self.rings(radius, n, phase)[0]

    def sup_boundary(self, n: int = DEFAULT_BOUNDARY_SAMPLES) -> float:
        """Max euclidean norm over n outer-circle samples (and inner, annulus).

        Components are holomorphic so each |component| is subharmonic and
        the closed-domain sup sits on the boundary.
        """
        radii = [1.0] if self.domain == "disc" else [1.0, self.r0]
        vals = self.rings(radii, n)
        return float(np.sqrt((np.abs(vals) ** 2).sum(axis=2)).max())


@dataclass(frozen=True)
class BoundarySamples:
    """Uniform circle samples of a map, carrier for fit_from_boundary."""

    n_samples: int
    values: np.ndarray  # (N, ncomp) outer-circle values
    inner_values: Optional[np.ndarray]  # (N, ncomp) for annuli, else None
    domain: str
    r0: Optional[float] = None

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.complex128)
        if vals.ndim == 1:
            vals = vals[:, None]
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        if self.inner_values is not None:
            iv = np.ascontiguousarray(self.inner_values, dtype=np.complex128)
            if iv.ndim == 1:
                iv = iv[:, None]
            iv = iv.copy()
            iv.flags.writeable = False
            object.__setattr__(self, "inner_values", iv)


def boundary_samples(series: SeriesMap, n: int) -> BoundarySamples:
    """Alias-free boundary sampling; n must be a power of two >= 4*span."""
    span = series.degree_hi - series.degree_lo
    if n < 4 or (n & (n - 1)) != 0:
        raise AliasingError("sample count must be a power of two >= 4")
    if n < 4 * span:
        raise AliasingError(
            "%d samples alias a degree span of %d (need >= %d)" % (n, span, 4 * span)
        )
    outer = series.circle_values(1.0, n)
    inner = None
    if series.domain == "annulus":
        inner = series.circle_values(series.r0, n)
    return BoundarySamples(n, outer, inner, series.domain, series.r0)


def fit_from_boundary(
    samples: BoundarySamples,
    degree_lo: int,
    degree_hi: int,
    fit_tol: float = 1e-8,
) -> Tuple[SeriesMap, float]:
    """Project boundary samples onto a coefficient window.

    Returns (series, leakage) where leakage is the relative sample energy
    unexplained by the window: out-of-window Fourier bins of the outer
    circle, plus (for annuli) the mismatch of the fit against the inner
    circle samples.  leakage > fit_tol raises NonHolomorphicDataError.
    """
    n = samples.n_samples
    span = degree_hi - degree_lo
    if span >= n:
        raise AliasingError("window wider than the number of samples")
    bins = np.fft.fft(samples.values, axis=0) / n  # (N, ncomp)
    degrees = np.arange(degree_lo, degree_hi + 1)
    idx = np.mod(degrees, n)
    coeffs = bins[idx].T.copy()  # (ncomp, width)
    total = float(np.sum(np.abs(bins) ** 2))
    mask = np.zeros(n, dtype=bool)
    mask[idx] = True
    out_energy = float(np.sum(np.abs(bins[~mask]) ** 2))
    leakage = out_energy / total if total > 0 else 0.0
    if samples.domain == "annulus" and samples.inner_values is not None:
        # Negative degrees are ill-conditioned against outer samples (noise
        # scales like r0^-|d| at the inner circle), so read them off the
        # inner circle instead, where the rescaling attenuates.
        neg = degrees < 0
        if neg.any():
            bins_in = np.fft.fft(samples.inner_values, axis=0) / n
            scale = samples.r0 ** (-degrees[neg]).astype(np.float64)
            coeffs[:, neg] = (bins_in[idx[neg]] * scale[:, None]).T
    series = SeriesMap(coeffs, degree_lo, samples.domain, samples.r0)
    if samples.domain == "annulus" and samples.inner_values is not None:
        pred_out, pred_in = series.rings([1.0, samples.r0], n)
        mm_in = float(np.sum(np.abs(pred_in - samples.inner_values) ** 2))
        itotal = float(np.sum(np.abs(samples.inner_values) ** 2))
        if itotal > 0:
            leakage = max(leakage, mm_in / itotal)
        mm_out = float(np.sum(np.abs(pred_out - samples.values) ** 2))
        if total > 0:
            leakage = max(leakage, mm_out / (total * n))
    if leakage > fit_tol:
        raise NonHolomorphicDataError(
            "boundary data leaks %.3g of its energy outside degrees [%d, %d]"
            % (leakage, degree_lo, degree_hi),
            leakage=leakage,
        )
    return series, leakage


# -- serialization ---------------------------------------------------------


def to_json(series: SeriesMap) -> str:
    """Bit-exact JSON encoding (floats survive repr round-trip)."""
    payload = {
        "domain": series.domain,
        "r0": series.r0,
        "degree_lo": series.degree_lo,
        "degree_hi": series.degree_hi,
        "components": [
            [[float(c.real), float(c.imag)] for c in row] for row in series.coeffs
        ],
    }
    return json.dumps(payload)


def from_json(text: str) -> SeriesMap:
    payload = json.loads(text)
    with _parsing("curve"):
        rows = [
            [complex(re, im) for re, im in comp] for comp in payload["components"]
        ]
        coeffs = np.array(rows, dtype=np.complex128)
        # checked here rather than in SeriesMap, whose constructor is on the hot path
        if not np.isfinite(coeffs).all():
            raise DomainError("series coefficients must be finite")
        return SeriesMap(
            coeffs,
            operator.index(payload["degree_lo"]),  # rejects fractions, not truncates
            payload["domain"],
            payload["r0"],
        )
