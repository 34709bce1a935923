"""Quantitative verification reports for curve maps.

nullity_residual           coefficient-space membership check for the null
                           quadric of the derivative
intrinsic_radius           shortest-path metric radius on a polar grid
                           weighted by the metric factor |F'|, plus the
                           extrinsic (ambient) radius
bounded_coordinate_report  sup of the third coordinate and boundary min of
                           the first two (bounded/proper split)
embedded_check             sampled self-intersection scan

All reports are measurements on finite grids: necessary checks, never proofs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import kernels
from .errors import DegenerateImmersionError, DomainError
from .series import SeriesMap, fftconvolve

__all__ = [
    "RadiusReport",
    "EmbeddednessReport",
    "nullity_residual",
    "intrinsic_radius",
    "bounded_coordinate_report",
    "embedded_check",
]

DEFAULT_GRID = (128, 512)


def nullity_residual(F: SeriesMap) -> float:
    """Normalized coefficient norm of (F1')^2 + (F2')^2 + ... .

    The sum telescopes to zero exactly when the derivative takes values in
    the null quadric, so the residual of a spinor-generated curve is at the
    rounding floor.  Normalization: max coefficient norm of the individual
    squares.  A curve with zero derivative reports 0.
    """
    fp = F.derivative()
    if fp.width <= 2048:
        conv = np.convolve
    else:
        # the normalized, unweighted residual tolerates the FFT noise floor
        conv = fftconvolve
    squares = np.stack([conv(row, row) for row in fp.coeffs])
    scale = float(np.abs(squares).max(initial=0.0))
    if scale == 0.0:
        return 0.0
    return float(np.abs(squares.sum(axis=0)).max() / scale)


@dataclass(frozen=True)
class RadiusReport:
    """Intrinsic vs extrinsic size of the image surface.

    intrinsic_radius: shortest weighted-graph path from |z| = r_core to the
    outer circle, edges weighted by the midpoint rule: an estimate of the
    metric distance with no bound in either direction (ROADMAP item 2).
    extrinsic_radius: boundary sup of the ambient euclidean norm.
    shortcut_length: minimal boundary-to-boundary path length between
    antipodal outer arcs, so curtain-style shortcuts show up in ledgers.
    """

    intrinsic_radius: float
    extrinsic_radius: float
    grid: Tuple[int, int]
    r_core: float
    shortcut_length: Optional[float] = None

    def __post_init__(self):
        if self.intrinsic_radius < 0 or self.extrinsic_radius < 0:
            raise ValueError("radii must be nonnegative")


def _polar_weights(F: SeriesMap, radii: np.ndarray, nang: int):
    """Edge-weight arrays for the polar graph: lambda(midpoint) * length."""
    fp = F.derivative()
    dth = 2.0 * math.pi / nang

    def lam(rads, phases=0.0):
        vals = fp.rings(rads, nang, phases)
        return np.sqrt((np.abs(vals) ** 2).sum(axis=2))

    if not np.all(lam(radii) > 0.0):
        raise DegenerateImmersionError(
            "metric factor vanishes on the grid; the map is not an immersion there"
        )
    r0, r1 = radii[:-1], radii[1:]
    tan_length = 2.0 * radii * math.sin(dth / 2.0)
    w_tan = lam(radii * math.cos(dth / 2.0), dth / 2.0) * tan_length[:, None]
    w_rad = lam((r0 + r1) / 2.0) * (r1 - r0)[:, None]
    # up-left midpoints are the conjugate ray of the up-right ones; moduli
    # go through hypot, which rounds as the scalar complex abs does
    mid = (r0 + r1 * np.exp(1j * dth)) / 2.0
    step = r1 * np.exp(1j * dth) - r0
    diag_length = np.hypot(step.real, step.imag)[:, None]
    mid_radius = np.hypot(mid.real, mid.imag)
    w_dru = lam(mid_radius, np.angle(mid)) * diag_length
    w_drl = lam(mid_radius, -np.angle(mid)) * diag_length
    return w_tan, w_rad, w_dru, w_drl


def _radial_nodes(inner: float, nrad: int) -> np.ndarray:
    """Ring radii from inner to 1: uniform body plus a geometric tail.

    High-frequency boundary pushes concentrate their metric in a collar of
    width ~ 1/frequency; uniform rings step straight over it and report no
    growth.  The tail rings shrink geometrically toward the boundary so
    midpoint quadrature resolves layers down to ~1e-6.
    """
    if nrad < 24 or inner >= 0.9:
        return np.linspace(inner, 1.0, nrad)
    n_fine = min(nrad // 2, 64)
    n_coarse = nrad - n_fine
    knee = 0.98
    coarse = np.linspace(inner, knee, n_coarse, endpoint=False)
    q = 1e-4 ** (1.0 / (n_fine - 2))
    tail = 1.0 - (1.0 - knee) * q ** np.arange(n_fine - 1)
    return np.concatenate([coarse, tail, [1.0]])


def intrinsic_radius(
    F: SeriesMap,
    r_core: Optional[float] = None,
    grid: Tuple[int, int] = DEFAULT_GRID,
) -> RadiusReport:
    """Metric radius report on an nrad x nang polar graph.

    Shortest path from the circle |z| = r_core to the outer circle, edges
    weighted by the conformal factor at the edge midpoint times euclidean
    edge length (8-neighbour stencil).  Extrinsic radius is the boundary
    sup of |F|.  The intrinsic figure is a midpoint-rule estimate with no
    bound in either direction: on the cubic Enneper-like seed it reads below
    the exact radius 4 sqrt(2)/3 and rises under grid refinement (ROADMAP
    item 2).
    """
    nrad, nang = grid
    if nrad < 2 or nang < 8:
        raise ValueError("grid must be at least 2 x 8")
    inner_floor = 0.0 if F.domain == "disc" else F.r0
    if r_core is None:
        r_core = inner_floor
    if not inner_floor <= r_core < 1.0:
        raise DomainError("r_core %r outside [%r, 1)" % (r_core, inner_floor))

    radii = _radial_nodes(r_core, nrad)
    w_tan, w_rad, w_dru, w_drl = _polar_weights(F, radii, nang)

    src = np.zeros((nrad, nang), dtype=bool)
    src[0] = True
    dists = kernels.dijkstra_polar(w_tan, w_rad, w_dru, w_drl, src)
    intrinsic = float(dists[-1].min())

    angles = 2.0 * math.pi * np.arange(nang) / nang
    near = np.cos(angles) >= math.cos(math.pi / 4.0)
    far = np.cos(angles) <= -math.cos(math.pi / 4.0)
    src2 = np.zeros((nrad, nang), dtype=bool)
    src2[-1] = near
    d2 = kernels.dijkstra_polar(w_tan, w_rad, w_dru, w_drl, src2)
    shortcut = float(d2[-1][far].min())

    return RadiusReport(
        intrinsic_radius=intrinsic,
        extrinsic_radius=F.sup_boundary(max(4096, nang)),
        grid=(nrad, nang),
        r_core=float(r_core),
        shortcut_length=shortcut,
    )


def bounded_coordinate_report(F: SeriesMap, n: int = 4096) -> Tuple[float, float]:
    """(sup |F3|, boundary min of |(F1, F2)|) on n boundary samples.

    |F3| is subharmonic, so by the maximum principle its closed-domain sup
    sits on the boundary circles, the only ones sampled.  The min is a pure
    boundary quantity (properness proxy).
    """
    if F.ncomp != 3:
        raise ValueError("bounded_coordinate_report expects a 3-component curve")
    boundary = F.rings(F.boundary_radii, n).reshape(-1, 3)
    sup_f3 = float(np.abs(boundary[:, 2]).max())
    min_12 = float(np.sqrt((np.abs(boundary[:, :2]) ** 2).sum(axis=1)).min())
    return sup_f3, min_12


@dataclass(frozen=True)
class EmbeddednessReport:
    """Sampled self-intersection scan: a necessary check, never a proof.

    min_separation: smallest ambient distance over sample pairs whose
    domain separation is at least d_dom (inf when no pair qualifies).
    offending_pair: domain points of the first pair below d_amb, if any.
    """

    min_separation: float
    offending_pair: Optional[Tuple[complex, complex]]
    min_pair: Optional[Tuple[complex, complex]]
    n_samples: int
    d_dom: float
    d_amb: float

    @property
    def flagged(self) -> bool:
        return self.offending_pair is not None

    def to_json(self) -> str:
        def enc(pair):
            if pair is None:
                return None
            return [[p.real, p.imag] for p in pair]

        return json.dumps(
            {
                "min_separation": self.min_separation,
                "offending_pair": enc(self.offending_pair),
                "min_pair": enc(self.min_pair),
                "n_samples": self.n_samples,
                "d_dom": self.d_dom,
                "d_amb": self.d_amb,
            }
        )


def _sample_layout(F: SeriesMap, n_samples: int):
    """Deterministic polar samples: ~n_samples nodes on rings, even angles."""
    nrad = max(2, int(round(math.sqrt(n_samples / 4.0))))
    nang = max(8, (n_samples // nrad) & ~1)  # even so z and -z pair up
    if F.domain == "disc":
        radii = np.arange(1, nrad + 1) / nrad
    else:
        radii = np.linspace(F.r0, 1.0, nrad)
    angles = 2.0 * math.pi * np.arange(nang) / nang
    dom = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    ambient = F.rings(radii, nang).reshape(-1, F.ncomp)
    return dom, ambient


def embedded_check(
    F: SeriesMap,
    n_samples: int = 4096,
    d_dom: float = 0.5,
    d_amb: float = 1e-3,
) -> EmbeddednessReport:
    """Scan all sample pairs with domain separation >= d_dom.

    The samples lie on rings (_sample_layout), so consecutive ones are close
    in both the domain and the image.  kernels.pair_scan uses that to skip
    the pairs a bound on their separation rules out, and its report equals
    the all-pairs scan's: the lowest-index pair wins ties.  Flags ambient
    separations below d_amb.
    """
    dom, ambient = _sample_layout(F, n_samples)
    min_sep, mi, mj, fi, fj = kernels.pair_scan(ambient, dom, d_dom, d_amb)
    return EmbeddednessReport(
        min_separation=float(min_sep),
        offending_pair=(complex(dom[fi]), complex(dom[fj])) if fi >= 0 else None,
        min_pair=(complex(dom[mi]), complex(dom[mj])) if mi >= 0 else None,
        n_samples=int(dom.size),
        d_dom=d_dom,
        d_amb=d_amb,
    )
