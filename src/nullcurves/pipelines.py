"""End-to-end drivers: seed curves, boundary-push recursions, mesh export.

The two recursions realize the boundary-deformation loop at desk scale:
``run_completeness_recursion`` sweeps tapered arcs each round and pushes in
a scored null direction to stretch the boundary metric, while
``run_bounded_third`` alternates the two horizontal null directions with
the third component kept under an explicit budget: its V2 rounds raise the
boundary min of |(F1, F2)|, and its V1 rounds keep the boundary geometric
mean of |alpha| fixed, where alpha is the V1 coordinate of (F1, F2).
Every round appends one row of measured diagnostics to a growth ledger.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields
from typing import List, Optional, Tuple

import numpy as np

from .diagnostics import _polar_rings, bounded_coordinate_report, intrinsic_radius
from .errors import (
    DomainError,
    NullCurveError,
    ToleranceUnachievableError,
)
from .geometry import (
    NullVector,
    bryant_project,
    h3_minkowski,
    require_c3,
    spinor_point,
    tmap,
    tmap_on_curve,
)
from .rh import BoundaryData, _rh_null
from .series import SeriesMap

__all__ = [
    "CSV_HEADER",
    "GrowthLedger",
    "LedgerRow",
    "PipelineConfig",
    "catalog",
    "export_surface",
    "run_bounded_third",
    "run_completeness_recursion",
    "toy_comparison",
]

TWO_PI = 2.0 * math.pi
# the largest amplitude a round of a run starts at (_run_rounds)
MU_CAP = 2e-3
# the widest collar a push is certified on; _push_round narrows it per arc
COLLAR_R = 0.9
# the highest push frequency of a run, reached by doubling on a leak
# breach; rh.K_MAX bounds a free k-search, which the rounds never run
RUN_K_CAP = 4096
# the rings x angles export_surface and the CLI's --grid default to
EXPORT_GRID = (64, 128)
# the exponent N of the bounded-third run's toy comparison z V1 + z^N V2
TOY_EXPONENT = 50
# the most rings x angles a mesh export samples: 2^20 vertices hold 48 MiB
# of complex samples and about 60 MiB of OBJ text
MAX_MESH_VERTICES = 1 << 20

_CATALOG_NAMES = ("linear_v1", "cubic_enneper_like", "annulus_basic")

_ENNEPER_ROWS = (
    (0.0, 1.0, 0.0, -1.0 / 3.0),
    (0.0, 1.0j, 0.0, 1.0j / 3.0),
    (0.0, 0.0, 1.0, 0.0),
)


def catalog(name: str) -> SeriesMap:
    """Seed curves: all exactly null by construction."""
    if name == "linear_v1":
        return SeriesMap.from_components([[0.0, 1.0], [0.0, 1.0j], [0.0, 0.0]])
    if name == "cubic_enneper_like":
        return SeriesMap.from_components([list(r) for r in _ENNEPER_ROWS])
    if name == "annulus_basic":
        return SeriesMap.from_components(
            [list(r) for r in _ENNEPER_ROWS], domain="annulus", r0=0.25
        )
    raise ValueError("unknown catalog curve %r (have %s)" % (name, ", ".join(_CATALOG_NAMES)))


def toy_comparison(n_exp: int = TOY_EXPONENT) -> SeriesMap:
    """The non-null comparison map z*V1 + z^N*V2 used in documentation plots."""
    if n_exp < 2:
        raise ValueError("exponent must be at least 2")
    f1 = [0.0] * (n_exp + 1)
    f2 = [0.0] * (n_exp + 1)
    f1[1], f1[n_exp] = 1.0, 1.0
    f2[1], f2[n_exp] = 1.0j, -1.0j
    return SeriesMap.from_components([f1, f2, [0.0] * (n_exp + 1)])


# ----------------------------------------------------------------- config


def _is_a(kind, x) -> bool:
    """isinstance for JSON numbers, where true and false are not numbers."""
    return isinstance(x, kind) and not isinstance(x, bool)


@dataclass(frozen=True)
class PipelineConfig:
    """Declarative recursion setup; serialized with a schema tag."""

    pipeline: str = "completeness"
    seed_curve: str = "linear_v1"  # a catalog name; the curve fixes the domain
    delta: float = 0.2
    iterations: int = 5
    epsilon: float = 0.05
    arcs: int = 8
    third_budget: float = 0.2
    seed: int = 0  # no run reads it; perfbench writes it into its configs
    csv_path: Optional[str] = None
    obj_path: Optional[str] = None

    def __post_init__(self):
        # types first: the range checks below compare, and NaN passes them
        for name in ("iterations", "arcs", "seed"):
            if not _is_a(numbers.Integral, getattr(self, name)):
                raise DomainError("%s must be an integer" % name)
        for name in ("delta", "epsilon", "third_budget"):
            value = getattr(self, name)
            if not (_is_a(numbers.Real, value) and math.isfinite(value)):
                raise DomainError("%s must be a finite number" % name)
        for name in ("csv_path", "obj_path"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise DomainError("%s must be a string or null" % name)
        if self.pipeline not in ("completeness", "bounded_third"):
            raise ValueError("unknown pipeline %r" % self.pipeline)
        if self.seed_curve not in _CATALOG_NAMES:
            raise ValueError("unknown seed curve %r (have %s)"
                             % (self.seed_curve, ", ".join(_CATALOG_NAMES)))
        if self.iterations < 0:
            raise ValueError("iterations must be nonnegative")
        if self.arcs < 1:
            raise ValueError("need at least one arc per round")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        if not self.third_budget > 0:
            raise ValueError("third_budget must be positive")

    def delta_at(self, round_index: int) -> float:
        """Schedule delta_k = delta / k: divergent sum, convergent squares."""
        return self.delta / round_index

    def to_json(self) -> str:
        d = {"schema": 1}
        d.update((f.name, getattr(self, f.name)) for f in fields(self))
        return json.dumps(d)

    @staticmethod
    def from_json(text: str) -> "PipelineConfig":
        d = json.loads(text)
        if not isinstance(d, dict):
            raise DomainError("config JSON must be an object")
        schema = d.pop("schema", None)
        if not (_is_a(numbers.Integral, schema) and schema == 1):
            raise ValueError("config schema must be 1")
        unknown = sorted(set(d) - {f.name for f in fields(PipelineConfig)})
        if unknown:
            raise DomainError("unknown config keys: %s" % ", ".join(unknown))
        return PipelineConfig(**d)


# ----------------------------------------------------------------- ledger


@dataclass(frozen=True)
class LedgerRow:
    k: int
    delta: float
    intrinsic: float
    extrinsic: float
    supF3: float
    cert_a: float
    cert_b: float
    cert_c: float
    rh_k: int

    def to_csv(self) -> str:
        values = (getattr(self, f.name) for f in fields(self))
        return ",".join(str(v) if _is_a(numbers.Integral, v) else "%.17g" % v for v in values)


CSV_HEADER = ",".join(f.name for f in fields(LedgerRow))


class GrowthLedger:
    """Append-only per-round records plus free-form run metadata.

    Only the fixed row columns go to CSV; direction choices, achieved
    tolerances, boundary minima and the like live in ``meta``.
    """

    def __init__(self):
        self.rows: List[LedgerRow] = []
        self.meta: dict = {"rounds": []}

    def append(self, row: LedgerRow) -> None:
        if self.rows and row.k <= self.rows[-1].k:
            raise ValueError("ledger rows must be strictly ordered by k")
        self.rows.append(row)

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        lines.extend(row.to_csv() for row in self.rows)
        return "\n".join(lines) + "\n"


# ------------------------------------------------- arc and direction setup


def _round_arcs(m: int) -> Tuple[List[Tuple[float, float]], float]:
    """Arc windows covering the outer circle, with the taper width.

    For m >= 3 the arcs are double-width with half-spacing tapers, so the
    flat plateaus tile the circle exactly: every boundary point receives
    one full-amplitude push per round.  m <= 2 cannot fit that overlap in
    a sub-2pi window and degrades to slightly shortened abutting arcs.
    """
    spacing = TWO_PI / m
    if m >= 3:
        tau = spacing / 2.0
        arcs = [((i - 0.5) * spacing, (i + 1.5) * spacing) for i in range(m)]
    else:
        tau = spacing / 8.0
        arcs = [(i * spacing, (i + 1) * spacing - tau) for i in range(m)]
    return arcs, tau


def _null_direction_dictionary() -> Tuple[NullVector, ...]:
    """16 unit null directions: both horizontal axes plus a sphere spiral.

    Directions only matter up to phase (the push sweeps the phase circle),
    so the spinor parameters (a, b) are spread over half-angles by a
    golden-ratio spiral; the two poles are the horizontal directions
    (1, +-i, 0)/sqrt(2).
    """
    params = [(1.0, 0.0 + 0.0j), (0.0, 1.0 + 0.0j)]
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    for i in range(14):
        half = 0.5 * math.acos(1.0 - 2.0 * (i + 0.5) / 14.0)
        phi = (TWO_PI * i / golden) % TWO_PI
        params.append((math.cos(half), math.sin(half) * np.exp(1j * phi)))
    out = []
    for a, b in params:
        v = spinor_point(a, b)
        out.append(NullVector(v / np.linalg.norm(v)))
    return tuple(out)


def _pick_direction(
    F: SeriesMap, arc: Tuple[float, float], dictionary: Tuple[NullVector, ...]
) -> Tuple[int, NullVector]:
    """Score dictionary directions at the arc midpoint.

    Small hermitian alignment with the boundary tangent image keeps the
    push from digging metric valleys (the aligned component subtracts from
    the conformal factor at anti-phase angles); small alignment with the
    position vector keeps the outer radius from inflating linearly in the
    push size.  Lowest combined score wins, ties to the lowest index.
    """
    mid = np.exp(0.5j * (arc[0] + arc[1]))
    tangent = F.derivative().eval(mid)
    tn = np.linalg.norm(tangent)
    position = F.eval(mid)
    pn = np.linalg.norm(position)
    scores = np.empty(len(dictionary))
    for j, cand in enumerate(dictionary):
        s = 0.0
        if tn > 0.0:
            s += abs(np.vdot(cand.v, tangent / tn)) ** 2
        if pn > 1e-12:
            s += abs(np.vdot(cand.v, position / pn)) ** 2
        scores[j] = s
    idx = int(np.argmin(scores))
    return idx, dictionary[idx]


# ----------------------------------------------------------- push plumbing


def _round_frequency(mu: float) -> int:
    """Push frequency of a run whose first round starts at amplitude mu.

    The collar metric spike has height ~ k*mu against the base conformal
    factor, so k keeps k*mu around 1.3, clamped to [96, RUN_K_CAP].  It is
    read once per run: a push at a new k meets the earlier pushes at
    anti-phase angles, where the metric's cross term digs valleys.
    """
    return min(RUN_K_CAP, max(96, int(round(1.3 / mu))))


def _record(
    ledger: GrowthLedger,
    curve: SeriesMap,
    rnd: int,
    delta: float,
    certs,
    arcs=None,
    spinor=None,
) -> None:
    """Measure the curve after round rnd and append its ledger row and metadata.

    The round's spinor, when there is one, gives the metric factor at the
    cost of its own support, not the wider one of F' (intrinsic_radius).
    """
    rep = intrinsic_radius(curve, spinor=spinor)
    sup3, min12 = bounded_coordinate_report(curve)
    ledger.append(LedgerRow(
        k=rnd,
        delta=delta,
        intrinsic=rep.intrinsic_radius,
        extrinsic=rep.extrinsic_radius,
        supF3=sup3,
        cert_a=max((c.cond_a for c in certs), default=0.0),
        cert_b=max((c.cond_b for c in certs), default=0.0),
        cert_c=max((c.cond_c for c in certs), default=0.0),
        rh_k=max((c.k for c in certs), default=0),
    ))
    extra = {"min_F12": min12}
    if arcs is not None:
        extra["arcs"] = arcs
    ledger.meta["rounds"].append(extra)


class _Breach(Exception):
    """args (cert, budget): a certified push whose leak cond_orth reaches the budget."""


def _push_round(
    cfg: PipelineConfig,
    choose_direction,
    rnd: int,
    curve: SeriesMap,
    spinor,
    mu: float,
    k: int,
):
    """Push every arc of round rnd once, at frequency k and amplitude up to mu.

    delta_k caps the push; the realized amplitude is halved until the
    measured outer radius stays inside the round's quadratic allowance (the
    push's frequency-mixing residue scales like sqrt(mu), so it cannot be
    certified away at any fixed tolerance), and the halved mu carries on to
    the next arc.  A push whose leak cond_orth reaches the budget of
    choose_direction raises _Breach before its growth is read: a leaky push
    is never kept.  Returns (curve, spinor, mu, certs, arc_meta).
    """
    delta_k = cfg.delta_at(rnd)
    arcs, tau = _round_arcs(cfg.arcs)
    allowance = 3.4 * delta_k * delta_k
    e_start = curve.sup_boundary()
    certs = []
    arc_meta = []
    for arc in arcs:
        theta, label, orth_budget, orth_direction = choose_direction(curve, arc, rnd)
        # The curve's own radial drift across the collar is mostly
        # perpendicular to the push disc, so it lower-bounds the drift
        # condition at sup|F'| * (1 - r).  Narrow the collar until that
        # floor sits at half the tolerance.
        sup_fp = curve.derivative().sup_boundary(2048)
        r_arc = max(COLLAR_R, 1.0 - 0.5 * cfg.epsilon / max(sup_fp, 1e-12))
        while True:
            bd = BoundaryData(
                arc=arc, mu=np.array([mu]), theta=theta, taper=tau, epsilon=cfg.epsilon, r=r_arc
            )
            out = _rh_null(curve, bd, spinor=spinor, k_fixed=k, orth_direction=orth_direction)
            if orth_budget is not None and out.cert.cond_orth >= orth_budget:
                raise _Breach(out.cert, orth_budget)
            growth = out.G.sup_boundary() - e_start
            if growth <= allowance or mu <= delta_k / 1024.0:
                break
            mu *= 0.5
        curve, spinor = out.G, out.spinor
        certs.append(out.cert)
        arc_meta.append(
            {"theta": label, "mu": mu, "rh_k": out.cert.k, "r": r_arc, "growth": growth}
        )
    return curve, spinor, mu, certs, arc_meta


def _run_rounds(cfg: PipelineConfig, choose_direction) -> GrowthLedger:
    """Shared driver; choose_direction(F, arc, round) -> info.

    info is (direction, label, budget, fixed direction).  Each round
    starts at the amplitude min(delta_k, MU_CAP, twice the last round's
    final mu).  Every push of the run shares round 1's frequency: the arc
    profiles are nonnegative, so same-k pushes reinforce where they
    overlap, while a push at a new k meets earlier ones at anti-phase
    angles, in its round or an earlier one.  The driver, not the
    certificate search, enforces the budget.  The orthogonal leak of a
    push scales like sqrt(mu / k), so a breach replays the round from its
    starting curve at half the amplitude and, up to RUN_K_CAP, twice the
    frequency, kept by later rounds; the 7th breach in a round aborts the
    run.  Any library error in a round attaches the ledger so far
    (``partial_ledger``, with ``meta["aborted"]``).  The spinor
    factorization is threaded through every push, so the curve is
    re-lifted exactly once (at the seed) per run.
    """
    curve = catalog(cfg.seed_curve)
    ledger = GrowthLedger()
    ledger.meta["config"] = json.loads(cfg.to_json())
    _record(ledger, curve, 0, 0.0, [])
    spinor = None
    mu = math.inf
    try:
        for rnd in range(1, cfg.iterations + 1):
            delta_k = cfg.delta_at(rnd)
            mu = min(delta_k, MU_CAP, 2.0 * mu)
            if rnd == 1:
                k = _round_frequency(mu)
            for restarts in range(7):
                try:
                    curve, spinor, mu, certs, arc_meta = _push_round(
                        cfg, choose_direction, rnd, curve, spinor, mu * 0.5 ** restarts, k
                    )
                    break
                except _Breach as breach:
                    cert, budget = breach.args
                    if restarts == 6:
                        raise ToleranceUnachievableError(
                            "fixed-direction leak cond_orth = %.3g reaches the budget %.3g"
                            " at k = %d after %d round restarts"
                            % (cert.cond_orth, budget, k, restarts),
                            certificate=cert,
                        ) from None
                    if 2 * k <= RUN_K_CAP:
                        k *= 2
            _record(ledger, curve, rnd, delta_k, certs, arc_meta, spinor)
    except NullCurveError as err:
        ledger.meta["aborted"] = "round %d: %s" % (rnd, err)
        err.partial_ledger = ledger
        raise
    ledger.meta["final_width"] = curve.width
    ledger.meta["final_curve"] = curve
    return ledger


def run_completeness_recursion(cfg: PipelineConfig) -> GrowthLedger:
    """Per round: push every arc in its scored null direction.

    Each push wiggles the boundary at a fresh spatial frequency, adding a
    thin high-metric collar that every escaping path must cross, so the
    intrinsic radius gains roughly a multiple of delta_k per round while
    the scoring keeps the extrinsic footprint to a quadratic drift.
    """
    if cfg.pipeline != "completeness":
        raise ValueError("config names pipeline %r" % cfg.pipeline)
    dictionary = _null_direction_dictionary()

    def choose(F, arc, rnd):
        idx, theta = _pick_direction(F, arc, dictionary)
        return theta, idx, None, None

    return _run_rounds(cfg, choose)


def run_bounded_third(cfg: PipelineConfig) -> GrowthLedger:
    """Alternate pushes along V2 = (1,-i,0) and V1 = (1,i,0) with a third-axis budget.

    Write the planar part as (F1, F2) = alpha * V1/sqrt2 + beta * V2/sqrt2.
    The spinor lift of V1 is (a, 0) and of V2 is (0, b), so a V1 round
    moves only alpha and a V2 round only beta.  A V2 push is
    hermitian-orthogonal to alpha's direction and raises the boundary min
    of |(F1, F2)|.  Every spinor shift vanishes at the base point to order
    k - m >= 1 and G(0) = F(0), so alpha'(0) stays at its seed value.  By
    Jensen's formula the boundary geometric mean of |alpha| is at least
    |alpha'(0)|, with equality when alpha/z has no zeros on the disc, as
    measured on the gate runs.  A V1 round then only moves |alpha| around
    the circle: where it raises |alpha| it lowers it elsewhere, so it can
    lower the boundary minimum.

    The push directions have no third component, but the spinor cross term
    leaks one.  The certificate measures that leak along e3 (cond_orth),
    and the round driver, not the certificate search, caps it for each arc
    push, not for each round, at third_budget / 2^(round+1): a push over
    the cap ends that pass of _push_round, _run_rounds replays the round
    from its starting curve at half the amplitude and, up to RUN_K_CAP, twice
    the frequency, and the run aborts at the 7th breach in one round.
    The certified bound on a round's sup|F3| change is therefore ``arcs``
    times that cap, and sup|F3| <= third_budget over a run is measured,
    not certified: at 8 arcs, rounds 3 and 4 of the four-round run with
    delta 0.2 move sup|F3| by 0.0197 and 0.0068 against per-push caps of
    0.0125 and 0.00625, and the run ends at 0.0461.
    """
    if cfg.pipeline != "bounded_third":
        raise ValueError("config names pipeline %r" % cfg.pipeline)
    if catalog(cfg.seed_curve).domain != "disc":
        raise DomainError("the alternating construction is seeded on the disc")
    sqrt2 = math.sqrt(2.0)
    v2 = NullVector(np.array([1.0, -1.0j, 0.0]) / sqrt2)
    v1 = NullVector(np.array([1.0, 1.0j, 0.0]) / sqrt2)
    e3 = np.array([0.0, 0.0, 1.0], dtype=np.complex128)

    def choose(F, arc, rnd):
        theta = v2 if rnd % 2 == 1 else v1
        label = "V2" if rnd % 2 == 1 else "V1"
        budget = cfg.third_budget / (2.0 ** (rnd + 1))
        return theta, label, budget, e3

    ledger = _run_rounds(cfg, choose)
    toy_sup3, toy_min12 = bounded_coordinate_report(toy_comparison())
    ledger.meta["toy"] = {
        "exponent": TOY_EXPONENT,
        "sup_F3": toy_sup3,
        "boundary_min_F12": toy_min12,
    }
    return ledger


# ------------------------------------------------------------ mesh export


def _mesh_points(F: SeriesMap, grid: Tuple[int, int]):
    """Deterministic vertex layout: optional center, then rings inside out."""
    nrad, nang = grid
    if nrad < 2 or nang < 3:
        raise ValueError("mesh grid must be at least 2 x 3")
    if nrad * nang > MAX_MESH_VERTICES:
        raise DomainError("mesh grid %d x %d exceeds MAX_MESH_VERTICES = %d"
                          % (nrad, nang, MAX_MESH_VERTICES))
    pts = _polar_rings(F, nrad, nang)[1].reshape(-1, F.ncomp)
    has_center = F.domain == "disc"
    if has_center:
        pts = np.concatenate([F.eval(0.0)[None, :], pts], axis=0)
    return pts, has_center


def _mesh_faces(nrad: int, nang: int, has_center: bool) -> np.ndarray:
    """Triangles (F, 3) of the polar mesh in 1-based OBJ vertex ids: the
    centre fan, then two per grid cell, ring by ring."""
    j = np.arange(nang)
    # id of vertex (ring i, angle j) is start[i] + j
    start = (2 if has_center else 1) + nang * np.arange(nrad)[:, None]
    a, b = start[:-1] + j, start[:-1] + (j + 1) % nang
    c, d = start[1:] + (j + 1) % nang, start[1:] + j
    faces = np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)
    if not has_center:
        return faces
    fan = np.stack([np.ones(nang, dtype=int), start[0] + j, start[0] + (j + 1) % nang], axis=1)
    return np.concatenate([fan, faces])


def export_surface(
    F: SeriesMap,
    target: str,
    path: str,
    grid: Tuple[int, int] = EXPORT_GRID,
) -> str:
    """Write an OBJ mesh of the real part (r3) or the CMC-1 transfer (h3).

    r3 meshes Re F on a polar grid.  h3 audits nullity with tmap_on_curve,
    then sends every mesh vertex through tmap, bryant_project and
    h3_minkowski, whose checks (pole clearance, unit determinant, hermitian
    form, hyperboloid, upper sheet) raise on any failing vertex, and meshes
    the hyperboloid points (x1, x2, x3); x0 is determined by the hyperboloid
    relation.  A curve that overflows on the mesh raises DomainError before
    either, and so does a curve that is not in C^3, before any sample.
    """
    if target not in ("r3", "h3"):
        raise ValueError("target must be r3 or h3")
    require_c3(F)
    with np.errstate(over="ignore", invalid="ignore"):
        pts, has_center = _mesh_points(F, grid)
    if not np.isfinite(pts).all():
        raise DomainError("curve values overflow on the mesh grid")
    if target == "r3":
        verts = pts.real
    else:
        tmap_on_curve(F, n_r=9, n_theta=64, n_boundary=1024)
        verts = h3_minkowski(bryant_project(tmap(pts)))[:, 1:]
    faces = _mesh_faces(grid[0], grid[1], has_center)
    with open(path, "w", newline="\n") as fh:
        fh.write("# %s mesh, %d x %d polar grid\n" % (target, grid[0], grid[1]))
        fh.write("v %.17g %.17g %.17g\n" * len(verts) % tuple(verts.ravel().tolist()))
        fh.write("f %d %d %d\n" * len(faces) % tuple(faces.ravel().tolist()))
    return path
