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
from .geometry import SpinorPair, require_c3
from .series import DEFAULT_BOUNDARY_SAMPLES, SeriesMap

__all__ = [
    "RadiusReport",
    "EmbeddednessReport",
    "nullity_residual",
    "intrinsic_radius",
    "bounded_coordinate_report",
    "embedded_check",
]

DEFAULT_GRID = (128, 512)
_SQRT2 = math.sqrt(2.0)


def _lifted(F: SeriesMap) -> Tuple[SeriesMap, int]:
    """(F 2^e, e): a curve whose squares underflow (below about 1e-154), lifted.

    e lifts the largest coefficient into [2^-256, 2^-255).  A power of two
    scales every float step exactly, so lengths scale back by 2^-e.  A curve
    whose largest coefficient reaches 2^-256 comes back as it is, e = 0.
    """
    e = max(0, -255 - math.frexp(float(np.abs(F.coeffs).max(initial=0.0)))[1])
    return (F * math.ldexp(1.0, e) if e else F), e


def nullity_residual(F: SeriesMap) -> float:
    """Normalized coefficient norm of (F1')^2 + (F2')^2 + ... .

    The sum telescopes to zero exactly when the derivative takes values in
    the null quadric, so the residual of a spinor-generated curve is at the
    rounding floor.  Normalization: max coefficient norm of the individual
    squares.  A curve with zero derivative reports 0.  The quadric lives in
    C^3, so a map with another number of components raises DomainError.
    The ratio is scale-free, so a curve too small to square is lifted first.
    """
    require_c3(F)
    fp = _lifted(F)[0].derivative()
    squares = (fp * fp).coeffs
    scale = float(np.abs(squares).max(initial=0.0))
    if scale == 0.0:
        return 0.0
    return float(np.abs(squares.sum(axis=0)).max() / scale)


@dataclass(frozen=True)
class RadiusReport:
    """Intrinsic vs extrinsic size of the image surface.

    intrinsic_radius: shortest weighted-graph path from the inner boundary
    (the centre of the disc, the circle r0 of the annulus) to the outer
    circle, edges weighted by the midpoint rule: an estimate of the metric
    distance with no bound in either direction (ROADMAP item 3).
    extrinsic_radius: boundary sup of the ambient euclidean norm.
    """

    intrinsic_radius: float
    extrinsic_radius: float

    def __post_init__(self):
        if self.intrinsic_radius < 0 or self.extrinsic_radius < 0:
            raise ValueError("radii must be nonnegative")


def _polar_weights(
    F: SeriesMap, radii: np.ndarray, nang: int, spinor: Optional[SpinorPair] = None
):
    """Edge-weight arrays for the polar graph: lambda(midpoint) * length.

    lambda = |F'| is read off F' or, when given, off a spinor (u, v) with
    pi(u, v) = F', by the identity |pi(u, v)| = sqrt2 (|u|^2 + |v|^2).  F'
    is quadratic in the spinor, so a curve pushed at frequencies k1 and k2
    carries blocks near 2k1, k1 + k2 and 2k2 in F' against blocks near k1
    and k2 in (u, v): on the gate-9 curve after its k doubles, 3180 nonzero
    columns against 259, on three components against two.  The outer node
    ring checks the spinor against |F'| there (ValueError past 1e-9 of the
    ring's max), so a spinor of another curve never yields weights.  A
    factor that overflows on the node rings raises DomainError.
    """
    dth = 2.0 * math.pi / nang

    def lam(rads, phases=0.0):
        vals = source.rings(rads, nang, phases)
        sq = (np.abs(vals) ** 2).sum(axis=2)
        return np.sqrt(sq) if spinor is None else _SQRT2 * sq

    # F' itself may overflow (d c_d), which the node rings then report
    with np.errstate(over="ignore", invalid="ignore"):
        source = F.derivative() if spinor is None else SeriesMap.stack([spinor.u, spinor.v])
        nodes = lam(radii)
    if not np.isfinite(nodes).all():
        # an inf would meet the zero tangential length at r = 0 as NaN,
        # which the shortest-path kernel refuses without naming the cause
        raise DomainError("metric factor |F'| overflows on the grid")
    if not np.all(nodes > 0.0):
        raise DegenerateImmersionError(
            "metric factor vanishes on the grid; the map is not an immersion there"
        )
    if spinor is not None:
        outer = np.linalg.norm(F.derivative().rings(radii[-1:], nang)[0], axis=1)
        if not np.abs(nodes[-1] - outer).max() <= 1e-9 * outer.max():
            raise ValueError("the spinor does not generate F' on the outer ring")
    del nodes  # only the checks read the node rings
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
    grid: Tuple[int, int] = DEFAULT_GRID,
    spinor: Optional[SpinorPair] = None,
) -> RadiusReport:
    """Metric radius report on an nrad x nang polar graph.

    Shortest path from the inner boundary (the centre of the disc, the
    circle r0 of the annulus) to the outer circle, edges weighted by the
    conformal factor at the edge midpoint times euclidean edge length
    (8-neighbour stencil).  Extrinsic radius is the boundary
    sup of |F|.  The intrinsic figure is a midpoint-rule estimate with no
    bound in either direction: on the cubic Enneper-like seed it reads below
    the exact radius 4 sqrt(2)/3 and rises under grid refinement (ROADMAP
    item 3).  One shortest-path sweep, sourced on the inner ring, gives the
    radius (kernels.dijkstra_polar).

    The conformal factor is |F'| = |pi(u, v)| = sqrt2 (|u|^2 + |v|^2) for
    a spinor (u, v) of F'.  Given one, the weights are read off it, whose
    support is the smaller since F' is quadratic in it, and the radius
    moves only at rounding level (_polar_weights).  Without one, they are
    read off F', which needs no lift; so are they for a curve too small to
    square, measured at 2^e F (_lifted) with both radii scaled back.
    """
    nrad, nang = grid
    if nrad < 2 or nang < 8:
        raise ValueError("grid must be at least 2 x 8")
    F, e = _lifted(F)
    spinor = None if e else spinor
    inner = 0.0 if F.domain == "disc" else F.r0
    weights = _polar_weights(F, _radial_nodes(inner, nrad), nang, spinor)
    src = np.zeros((nrad, nang), dtype=bool)
    src[0] = True
    dists = kernels.dijkstra_polar(*weights, src)
    return RadiusReport(
        intrinsic_radius=math.ldexp(float(dists[-1].min()), -e),
        extrinsic_radius=math.ldexp(F.sup_boundary(max(DEFAULT_BOUNDARY_SAMPLES, nang)), -e),
    )


def bounded_coordinate_report(F: SeriesMap) -> Tuple[float, float]:
    """(sup |F3|, boundary min of |(F1, F2)|) on DEFAULT_BOUNDARY_SAMPLES per circle.

    |F3| is subharmonic, so by the maximum principle its closed-domain sup
    sits on the boundary circles, the only ones sampled.  The min is a pure
    boundary quantity (properness proxy).
    """
    require_c3(F)
    boundary = np.concatenate(
        [F.circle_values(r, DEFAULT_BOUNDARY_SAMPLES) for r in F.boundary_radii])
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


def _layout_shape(n_samples: int) -> Tuple[int, int]:
    """Rings and angles (nrad, nang) of the embeddedness samples."""
    nrad = max(2, int(round(math.sqrt(n_samples / 4.0))))
    return nrad, max(8, (n_samples // nrad) & ~1)  # even so z and -z pair up


def _polar_rings(F: SeriesMap, nrad: int, nang: int):
    """Radii and samples F.rings(radii, nang) of the polar layout that the
    mesh export and the embeddedness scan share: rings k/nrad, k = 1..nrad,
    on the disc (its centre left out), linspace(r0, 1, nrad) on the annulus."""
    if F.domain == "disc":
        radii = np.arange(1, nrad + 1) / nrad
    else:
        radii = np.linspace(F.r0, 1.0, nrad)
    return radii, F.rings(radii, nang)


def _sample_layout(F: SeriesMap, n_samples: int):
    """Deterministic polar samples: ~n_samples nodes on rings, even angles,
    ring by ring (_layout_shape, _polar_rings)."""
    nrad, nang = _layout_shape(n_samples)
    radii, ambient = _polar_rings(F, nrad, nang)
    angles = 2.0 * math.pi * np.arange(nang) / nang
    dom = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    return dom, ambient.reshape(-1, F.ncomp)


def embedded_check(
    F: SeriesMap,
    n_samples: int = 4096,
    d_dom: float = 0.5,
    d_amb: float = 1e-3,
) -> EmbeddednessReport:
    """Scan all sample pairs with domain separation >= d_dom.

    The samples lie on a grid of rings by angles (_sample_layout), so grid
    neighbours are close in both the domain and the image.
    kernels.pair_scan, told the ring count, bounds 2 x 2 patches of that
    grid to skip the pairs a bound on their separation rules out, and its
    report equals the all-pairs scan's: the lowest-index pair wins ties.
    Flags ambient separations below d_amb.  A curve too small to square is
    scanned at 2^e F (_lifted) against 2^e d_amb, its minimum scaled back.
    """
    F, e = _lifted(F)
    dom, ambient = _sample_layout(F, n_samples)
    nrad, _ = _layout_shape(n_samples)
    min_sep, mi, mj, fi, fj = kernels.pair_scan(
        ambient, dom, d_dom, math.ldexp(d_amb, e), rows=nrad)
    return EmbeddednessReport(
        min_separation=math.ldexp(float(min_sep), -e),
        offending_pair=(complex(dom[fi]), complex(dom[fj])) if fi >= 0 else None,
        min_pair=(complex(dom[mi]), complex(dom[mj])) if mi >= 0 else None,
        n_samples=int(dom.size),
        d_dom=d_dom,
        d_amb=d_amb,
    )
