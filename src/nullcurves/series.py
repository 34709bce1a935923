"""Truncated power/Laurent series on the closed disc and on annuli.

A SeriesMap holds one coefficient row per component over a shared degree
window [degree_lo, degree_hi], stored as given: a high-frequency push
z^k * s(z) keeps only its 2m + 1 coefficients, on the disc (degree_lo >= 0)
and on annuli alike.  All values are immutable; every operation returns a
fresh object.

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

from .errors import (
    AliasingError,
    DomainError,
    NonHolomorphicDataError,
    NonzeroResidueError,
    _parsing,
)
from .kernels import horner_eval

# samples per boundary circle: the push target, its certificate, the growth
# check and the ledger's reports all read a curve's one unit-circle sampling
DEFAULT_BOUNDARY_SAMPLES = 4096
_BOUNDARY_SLACK = 1e-9
# the largest relative sample energy a boundary fit may leave unexplained
FIT_LEAK_TOL = 1e-7
# switch convolution products to FFT above this combined width
_CONV_FFT_CUTOFF = 1024
# the largest z**-1 coefficient an annulus antiderivative drops
_RESIDUE_TOL = 1e-8
# complex entries of padded window that rings scales and folds at a time:
# 512 KB of scratch
_RINGS_SCRATCH = 1 << 15


def _fast_length(n: int) -> int:
    """The smallest 2*3*5*7*11-smooth integer >= n, as
    scipy.fft.next_fast_len(n, real=False) returns it.

    m is such an integer exactly when it divides 2310**e for an e at least
    every prime exponent in m, and m.bit_length() is such an e.
    """
    m = n
    while pow(2310, m.bit_length(), m):
        m += 1
    return m


def fftconvolve(a, b) -> np.ndarray:
    """Full linear convolution of complex arrays along the last axis, by FFT.

    Bit-identical to scipy.signal.fftconvolve(a, b, mode="full") along that
    axis, without importing SciPy, which costs most of a process start.
    Since NumPy 2.0, np.fft runs the same C++ pocketfft as scipy.fft, so at
    SciPy's transform length (_fast_length) its c2c transforms give the same
    bits.  Like SciPy, a factor of width 1 is a plain product.
    """
    if a.shape[-1] == 1 or b.shape[-1] == 1:
        return a * b
    n = a.shape[-1] + b.shape[-1] - 1
    nfft = _fast_length(n)
    spec = np.fft.fft(a, nfft) * np.fft.fft(b, nfft)
    return np.fft.ifft(spec)[..., :n]


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
        src = np.asarray(self.coeffs, dtype=np.complex128)
        if src.ndim != 2 or src.shape[1] == 0:
            raise ValueError("coeffs must be (ncomp, width) with width >= 1")
        lo = int(self.degree_lo)
        if self.domain == "disc":
            if self.r0 is not None:
                raise ValueError("disc domain takes no inner radius")
            if lo < 0:
                raise DomainError("disc series cannot carry negative degrees")
        elif self.domain == "annulus":
            if self.r0 is None or not (0.0 < self.r0 < 1.0):
                raise DomainError("annulus needs inner radius r0 in (0, 1)")
        else:
            raise DomainError("domain must be 'disc' or 'annulus'")
        coeffs = src.copy()  # one C-contiguous copy of the window as given
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "degree_lo", lo)
        object.__setattr__(self, "_unit_circle", {})  # n -> circle_values(1.0, n)

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

    @property
    def boundary_radii(self) -> Tuple[float, ...]:
        """Radii of the circles that bound the domain: (1.0,) or (1.0, r0)."""
        return (1.0,) if self.domain == "disc" else (1.0, self.r0)

    def component(self, k: int) -> "SeriesMap":
        return SeriesMap(self.coeffs[k : k + 1], self.degree_lo, self.domain, self.r0)

    def in_domain(self, z: complex) -> bool:
        return not self._outside(z)

    def _outside(self, z):
        """Which points z (a scalar or an array) lie outside the closed domain."""
        az = np.abs(z)
        outside = az > 1.0 + _BOUNDARY_SLACK
        if self.domain == "annulus":
            outside = outside | (az < self.r0 - _BOUNDARY_SLACK)
        return outside

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
            # amplified by r0^-|d| at the inner circle.  Factors are stored
            # on their support, so a push factor z^k s(z) costs its 2m + 1
            # coefficients here, whatever k is.
            rows = [
                np.convolve(a.coeffs[k], b.coeffs[k]) for k in range(a.ncomp)
            ]
            prod = np.vstack(rows)
        else:
            prod = fftconvolve(a.coeffs, b.coeffs)
        return SeriesMap(prod, lo, self.domain, self.r0)

    # -- calculus ---------------------------------------------------------

    def derivative(self) -> "SeriesMap":
        d = self.degrees.astype(np.complex128)
        dc = self.coeffs * d
        if self.domain == "disc" and self.degree_lo == 0:
            # the constant term's derivative would sit at degree -1, off the disc
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

    def antiderivative(self, base_point: complex, base_value) -> "SeriesMap":
        """Termwise antiderivative pinned to base_value at base_point.

        On the annulus the z**-1 coefficient obstructs integration; it must
        be below _RESIDUE_TOL in modulus (run the period check first) and is
        dropped.
        """
        if not self.in_domain(base_point):
            raise DomainError("base point outside the domain")
        res = self.residue()
        if self.domain == "annulus":
            bad = np.abs(res).max() if res.size else 0.0
            if bad >= _RESIDUE_TOL:
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
        if z == 0 and self.domain == "disc":  # the disc's center: no Horner pass
            if self.degree_lo > 0:
                return np.zeros(self.ncomp, dtype=np.complex128)
            return self.coeffs[:, 0].copy()
        return self.eval_many(np.asarray([z]))[0]

    def eval_many(self, z) -> np.ndarray:
        """Values at points z (M,), -> (M, ncomp); Horner over the window."""
        z = np.asarray(z, dtype=np.complex128).ravel()
        outside = self._outside(z)
        if outside.any():
            zz = z[np.argmax(outside)]
            raise DomainError("evaluation point %r outside the domain" % zz)
        vals = horner_eval(self.coeffs, z)
        if self.degree_lo != 0:
            vals = vals * (z[:, None] ** self.degree_lo)
        return vals

    def rings(self, radii, n: int, phases=0.0) -> np.ndarray:
        """Values on circles: z = radii[i]*exp(i(2pi j/n + phases[i])) -> (R, n, ncomp).

        Exact wrapped-FFT evaluation of the truncated series; no aliasing
        constraint because this is evaluation, not fitting.  The rings are
        scaled as arrays, as many at a time as fit _RINGS_SCRATCH entries of
        padded window: one np.power.outer of the block's radii, its phase
        factors exp(i phase d) (kept while the next block has the same
        phases, as when every ring shares one; rings of phase 0 are not
        multiplied), and one reshape-sum that folds the window mod n, block
        of n after block of n.  The FFT then runs once, in place, over all
        rings.  Only the nonzero columns are scaled: a pushed curve's window
        is mostly zero runs, and a zero column adds an exact zero to the
        fold, so skipping it changes no sum (and never forms 0 * inf where
        radius ** d overflows).  Every ring gets the bits it would get on
        its own, whatever rings share its call.
        """
        radii = np.atleast_1d(np.asarray(radii, dtype=np.float64))
        phases = np.broadcast_to(np.asarray(phases, dtype=np.float64), radii.shape)
        cols = np.flatnonzero(self.coeffs.any(axis=0))
        if cols.size and cols[-1] - cols[0] + 1 == cols.size:
            cols = slice(cols[0], cols[-1] + 1)  # one run: a slice writes faster
        d = self.degrees[cols]
        coeffs = self.coeffs[:, cols]
        # degrees are contiguous, so the mod-n fold is a padded reshape-sum
        off = self.degree_lo % n
        nblocks = -(-(off + self.width) // n)
        step = max(1, _RINGS_SCRATCH // (self.ncomp * nblocks * n))
        buf = np.zeros((min(step, radii.size), self.ncomp, nblocks * n), dtype=np.complex128)
        window = buf[:, :, off : off + self.width]
        folded = np.empty((radii.size, self.ncomp, n), dtype=np.complex128)
        fd = d.astype(np.float64)
        turn, last = None, ()  # the phase factors of the last block's phases
        for s in range(0, radii.size, step):
            e = min(s + step, radii.size)
            scale = np.power.outer(radii[s:e], fd)
            ph = phases[s:e]
            if ph.any():
                if not np.array_equal(ph, last):
                    turn, last = np.exp(np.multiply.outer(1j * ph, d)), ph
                turned = scale.astype(np.complex128)
                np.multiply(scale, turn, out=turned, where=(ph != 0.0)[:, None])
                scale = turned
            window[: e - s, :, cols] = coeffs * scale[:, None, :]
            np.sum(buf[: e - s].reshape(e - s, self.ncomp, nblocks, n), axis=2,
                   out=folded[s:e])
        vals = np.fft.ifft(folded, axis=2, out=folded)
        vals *= n
        return vals.transpose(0, 2, 1)

    def circle_values(self, radius: float, n: int) -> np.ndarray:
        """Values at z = radius*exp(2 pi i j/n), j = 0..n-1 -> (n, ncomp).

        The unit circle's values are kept per n once computed, read-only,
        so every caller of one curve shares one sampling.
        """
        if radius != 1.0:
            return self.rings(radius, n)[0]
        vals = self._unit_circle.get(n)
        if vals is None:
            vals = self.rings(1.0, n)[0]
            vals.flags.writeable = False
            self._unit_circle[n] = vals
        return vals

    def sup_boundary(self, n: int = DEFAULT_BOUNDARY_SAMPLES) -> float:
        """Max euclidean norm over n outer-circle samples (and inner, annulus).

        Components are holomorphic so each |component| is subharmonic and
        the closed-domain sup sits on the boundary.  The unit circle comes
        from circle_values; the inner circle is sampled here and not kept.
        """
        return max(
            float(np.sqrt((np.abs(self.circle_values(r, n)) ** 2).sum(axis=1)).max())
            for r in self.boundary_radii
        )


def fit_from_boundary(
    values, degree_lo: int, degree_hi: int, r0: Optional[float] = None
) -> Tuple[SeriesMap, float]:
    """Invert ``rings`` on a domain's boundary: samples -> coefficient window.

    values is the (R, N, C) array ``s.rings(s.boundary_radii, N)`` returns:
    R = 1 is the disc, R = 2 the annulus with inner radius r0.  Returns
    (series, leakage) where leakage is the relative sample energy
    unexplained by the window: out-of-window Fourier bins of the outer
    circle, plus (for annuli) the mismatch of the fit against both circles.
    leakage > FIT_LEAK_TOL raises NonHolomorphicDataError.
    """
    values = np.asarray(values, dtype=np.complex128)
    if values.ndim != 3 or values.shape[0] not in (1, 2):
        raise ValueError("samples must be (R, N, C) with R = 1 or 2 boundary circles")
    n = values.shape[1]
    domain = "disc" if values.shape[0] == 1 else "annulus"
    span = degree_hi - degree_lo
    if span >= n:
        raise AliasingError("window wider than the number of samples")
    bins = np.fft.fft(values[0], axis=0) / n  # (N, ncomp)
    degrees = np.arange(degree_lo, degree_hi + 1)
    idx = np.mod(degrees, n)
    coeffs = bins[idx].T.copy()  # (ncomp, width)
    total = float(np.sum(np.abs(bins) ** 2))
    mask = np.zeros(n, dtype=bool)
    mask[idx] = True
    out_energy = float(np.sum(np.abs(bins[~mask]) ** 2))
    leakage = out_energy / total if total > 0 else 0.0
    if domain == "annulus":
        # Negative degrees are ill-conditioned against outer samples (noise
        # scales like r0^-|d| at the inner circle), so read them off the
        # inner circle instead, where the rescaling attenuates.
        neg = degrees < 0
        if neg.any():
            bins_in = np.fft.fft(values[1], axis=0) / n
            scale = r0 ** (-degrees[neg]).astype(np.float64)
            coeffs[:, neg] = (bins_in[idx[neg]] * scale[:, None]).T
    series = SeriesMap(coeffs, degree_lo, domain, r0)
    if domain == "annulus":
        pred_out, pred_in = series.rings(series.boundary_radii, n)
        mm_in = float(np.sum(np.abs(pred_in - values[1]) ** 2))
        itotal = float(np.sum(np.abs(values[1]) ** 2))
        if itotal > 0:
            leakage = max(leakage, mm_in / itotal)
        mm_out = float(np.sum(np.abs(pred_out - values[0]) ** 2))
        if total > 0:
            leakage = max(leakage, mm_out / (total * n))
    if leakage > FIT_LEAK_TOL:
        raise NonHolomorphicDataError(
            "boundary data leaks %.3g of its energy outside degrees [%d, %d]"
            % (leakage, degree_lo, degree_hi),
            leakage=leakage,
        )
    return series, leakage


# -- serialization ---------------------------------------------------------


def to_json(series: SeriesMap) -> str:
    """Bit-exact JSON encoding (floats survive repr round-trip).

    Each coefficient is written as [re, im], read off the complex128 array
    as its float64 pairs in one tolist.
    """
    coeffs = series.coeffs
    payload = {
        "domain": series.domain,
        "r0": series.r0,
        "degree_lo": series.degree_lo,
        "degree_hi": series.degree_hi,
        "components": coeffs.view(np.float64).reshape(*coeffs.shape, 2).tolist(),
    }
    return json.dumps(payload)


def _degree(payload: dict, key: str) -> int:
    value = payload[key]
    if isinstance(value, bool):  # JSON true and false are not degrees
        raise DomainError("%s must be an integer" % key)
    return operator.index(value)  # rejects fractions, not truncates


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
        lo = _degree(payload, "degree_lo")
        if _degree(payload, "degree_hi") != lo + coeffs.shape[-1] - 1:
            raise DomainError(
                "degree_hi %r does not match degree_lo %d and %d coefficients per row"
                % (payload["degree_hi"], lo, coeffs.shape[-1])
            )
        return SeriesMap(coeffs, lo, payload["domain"], payload["r0"])
