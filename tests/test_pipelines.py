"""Recursion drivers: catalog, config, ledgers, pipelines, mesh export."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullcurves import diagnostics, kernels, pipelines, rh, series
from nullcurves.cli import main
from nullcurves.diagnostics import (
    bounded_coordinate_report,
    intrinsic_radius,
    nullity_residual,
)
from nullcurves.errors import (
    DegenerateImmersionError,
    DomainError,
    NotInSL2Error,
    PoleError,
    ToleranceUnachievableError,
)
from nullcurves.geometry import NullVector, bryant_project, h3_minkowski, tmap
from nullcurves.pipelines import (
    CSV_HEADER,
    GrowthLedger,
    LedgerRow,
    PipelineConfig,
    catalog,
    export_surface,
    run_bounded_third,
    run_completeness_recursion,
    toy_comparison,
)
from nullcurves.series import SeriesMap


# -- catalog ----------------------------------------------------------------


def test_linear_v1_values():
    F = catalog("linear_v1")
    assert F.domain == "disc"
    v = F.eval(1.0)
    assert v[0] == 1.0 and v[1] == 1.0j and v[2] == 0.0
    # derivative is the constant null vector (1, i, 0)
    fp = F.derivative().eval(0.37 + 0.1j)
    assert np.allclose(fp, [1.0, 1.0j, 0.0], atol=0)


def test_cubic_matches_hand_polynomial():
    F = catalog("cubic_enneper_like")
    for z in (0.3, -0.5 + 0.4j, 0.9j, 0.99):
        want = np.array(
            [z - z**3 / 3.0, 1j * (z + z**3 / 3.0), z**2], dtype=complex
        )
        assert np.allclose(F.eval(z), want, atol=1e-15)


def test_catalog_curves_exactly_null():
    # (1 - z^2)^2 + (i(1 + z^2))^2 + (2z)^2 = 0 is a polynomial identity,
    # so the residual is pure floating-point noise
    for name in ("linear_v1", "cubic_enneper_like", "annulus_basic"):
        assert nullity_residual(catalog(name)) <= 1e-14


def test_annulus_basic_domain():
    F = catalog("annulus_basic")
    assert F.domain == "annulus"
    assert F.r0 == 0.25
    disc_twin = catalog("cubic_enneper_like")
    z = 0.5 * np.exp(0.713j)
    assert np.allclose(F.eval(z), disc_twin.eval(z), atol=0)


def test_annulus_basic_derivative_periods_vanish():
    # the derivative of a global Laurent polynomial map integrates to zero
    # around the core circle
    fp = catalog("annulus_basic").derivative()
    n = 4096
    theta = 2 * np.pi * np.arange(n) / n
    z = 0.5 * np.exp(1j * theta)
    vals = fp.eval_many(z) * (1j * z)[:, None]
    per = vals.mean(axis=0)
    assert np.abs(per).max() <= 1e-12


def test_catalog_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown catalog curve"):
        catalog("helicoid")


# -- toy comparison ----------------------------------------------------------

# oracle: for F = (z + z^N, i(z - z^N), 0) the parallelogram law gives
# |F1|^2 + |F2|^2 = 2(|z|^2 + |z|^{2N}), so the boundary value is exactly 2.


def test_toy_boundary_min_is_two():
    toy = toy_comparison(50)
    theta = 2 * np.pi * np.arange(4097) / 4097
    vals = toy.eval_many(np.exp(1j * theta))
    mods = np.sqrt(np.abs(vals[:, 0]) ** 2 + np.abs(vals[:, 1]) ** 2)
    assert np.abs(mods - 2.0).max() <= 1e-12
    sup3, min12 = bounded_coordinate_report(toy)
    assert sup3 == 0.0
    assert min12 == pytest.approx(2.0, abs=1e-12)


@given(st.integers(2, 12), st.floats(0.0, 2 * math.pi))
@settings(max_examples=30, deadline=None)
def test_toy_parallelogram_identity_inside(n_exp, angle):
    toy = toy_comparison(n_exp)
    for rho in (0.3, 0.8, 1.0):
        z = rho * np.exp(1j * angle)
        v = toy.eval(z)
        want = 2.0 * (rho**2 + rho ** (2 * n_exp))
        got = abs(v[0]) ** 2 + abs(v[1]) ** 2
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert v[2] == 0.0


def test_toy_rejects_tiny_exponent():
    with pytest.raises(ValueError):
        toy_comparison(1)


# -- config ------------------------------------------------------------------


def test_config_json_roundtrip():
    cfg = PipelineConfig(
        pipeline="bounded_third",
        iterations=3,
        delta=0.15,
        arcs=5,
        epsilon=0.02,
        csv_path="ledger.csv",
    )
    back = PipelineConfig.from_json(cfg.to_json())
    assert back == cfg
    assert json.loads(cfg.to_json())["schema"] == 1


def test_config_rejects_wrong_schema():
    blob = json.loads(PipelineConfig().to_json())
    # true == 1 in Python, but a JSON boolean is no schema number
    for schema in (2, True, 1.0):
        blob["schema"] = schema
        with pytest.raises(ValueError, match="config schema must be 1"):
            PipelineConfig.from_json(json.dumps(blob))


@pytest.mark.parametrize(
    "kw",
    [
        {"pipeline": "steepest_descent"},
        {"seed_curve": "torus"},
        {"iterations": -1},
        {"arcs": 0},
        {"epsilon": 0.0},
        {"delta": -0.1},
        {"delta": 0.0},
        # keeps the id it had when kw6-kw9 held the collar, k-cap and mu-cap
        # cases, whose keys are now module constants
        pytest.param({"third_budget": 0.0}, id="kw10"),
    ],
)
def test_config_validation(kw):
    with pytest.raises(ValueError):
        PipelineConfig(**kw)


def test_delta_schedule_is_harmonic():
    cfg = PipelineConfig(delta=0.2)
    assert cfg.delta_at(1) == 0.2
    assert cfg.delta_at(4) == 0.05


# -- ledger ------------------------------------------------------------------


def _row(k, x=1.0):
    return LedgerRow(
        k=k, delta=x, intrinsic=x, extrinsic=x, supF3=x,
        cert_a=x, cert_b=x, cert_c=x, rh_k=k,
    )


def test_csv_header_and_format():
    led = GrowthLedger()
    led.append(_row(0, 0.1))
    text = led.to_csv()
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("0,0.10000000000000001,")
    assert text.endswith("\n")


def test_ledger_rows_strictly_ordered():
    led = GrowthLedger()
    led.append(_row(0))
    led.append(_row(1))
    with pytest.raises(ValueError, match="strictly ordered"):
        led.append(_row(1))


def test_row_serializes_17_digits():
    row = _row(3, 1.0 / 3.0)
    assert "0.33333333333333331" in row.to_csv()


# -- completeness recursion ----------------------------------------------------


def test_zero_rounds_gives_seed_row_only():
    cfg = PipelineConfig(iterations=0)
    led = run_completeness_recursion(cfg)
    assert len(led.rows) == 1
    assert led.rows[0].k == 0
    assert led.rows[0].supF3 == 0.0
    assert led.rows[0].intrinsic == pytest.approx(math.sqrt(2.0), rel=1e-10)


def test_one_round_grows_intrinsic_radius():
    cfg = PipelineConfig(iterations=1)
    led = run_completeness_recursion(cfg)
    assert len(led.rows) == 2
    assert led.rows[1].intrinsic > led.rows[0].intrinsic
    assert led.rows[1].rh_k >= 96
    # the realized push settings are recorded per arc
    arcs = led.meta["rounds"][1]["arcs"]
    assert len(arcs) == cfg.arcs


def test_completeness_keeps_gaining_past_round_5():
    # gate 8's config for 12 rounds: every push of the run shares round 1's
    # frequency, so later pushes do not meet earlier ones at anti-phase angles
    cfg = PipelineConfig(
        pipeline="completeness", iterations=12, delta=0.2, arcs=8, epsilon=0.05
    )
    rows = run_completeness_recursion(cfg).rows
    intr = [row.intrinsic for row in rows]
    assert all(b > a for a, b in zip(intr, intr[1:])), intr
    assert {row.rh_k for row in rows[1:]} == {650}


def _count_dijkstra(monkeypatch):
    calls = []
    real = kernels.dijkstra_polar

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(kernels, "dijkstra_polar", counted)
    return calls


def test_record_runs_one_dijkstra_and_no_shortcut(monkeypatch):
    calls = _count_dijkstra(monkeypatch)
    ledger = GrowthLedger()
    pipelines._record(ledger, catalog(PipelineConfig().seed_curve), 0, 0.0, [])
    assert len(calls) == 1
    assert "shortcut" not in ledger.meta["rounds"][0]


def test_gate8_recursion_runs_one_dijkstra_per_row(monkeypatch):
    calls = _count_dijkstra(monkeypatch)
    cfg = PipelineConfig(
        pipeline="completeness", iterations=5, delta=0.2, arcs=8, epsilon=0.05
    )
    ledger = run_completeness_recursion(cfg)
    assert len(ledger.rows) == 6
    assert len(calls) == 6


def test_verify_runs_one_dijkstra_and_reports_no_shortcut(monkeypatch, capsys, tmp_path):
    curve = tmp_path / "curve.json"
    assert main(["construct", "cubic_enneper_like", "--out", str(curve)]) == 0
    calls = _count_dijkstra(monkeypatch)
    assert main(["verify", str(curve)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(calls) == 1
    assert list(report) == ["domain", "nullity", "intrinsic_radius", "extrinsic_radius",
                            "embedded"]
    F = series.from_json(curve.read_text())
    assert report["intrinsic_radius"] == intrinsic_radius(F).intrinsic_radius


def test_recursion_rows_read_the_metric_factor_off_the_spinor(monkeypatch):
    # a silent fallback to F' keeps every ledger and gate within rounding,
    # and only this spy sees it
    spinors = []
    real = diagnostics._polar_weights

    def spy(F, radii, nang, spinor=None):
        spinors.append(spinor)
        return real(F, radii, nang, spinor)

    monkeypatch.setattr(diagnostics, "_polar_weights", spy)
    run_completeness_recursion(PipelineConfig(iterations=1, arcs=4))
    assert len(spinors) == 2
    assert spinors[0] is None  # the seed row: no spinor before round 1
    assert spinors[1] is not None


_LEDGER_INT_COLUMNS = ("k", "rh_k")


def test_gate_ledgers_match_committed_values(monkeypatch):
    """Gate 8 and gate 9 configs against tests/data, to rounding across platforms.

    Integer columns must match exactly and every float cell within 1e-10
    relative; the byte-level sha256 only holds on one platform.  The runs
    also count the collar rings of G that the certificates evaluate: the
    bound on |G''| keeps them to about a twentieth of the 64-ring grids.
    """
    runs = (
        ("gate8", run_completeness_recursion, "completeness", 5, 120),
        ("gate9", run_bounded_third, "bounded_third", 4, 99),
    )
    certify, rings = rh._certify_null, SeriesMap.rings
    certified, collar = [], []  # the G under certification; its ring count

    def counted_certify(G, *args, **kwargs):
        certified.append(G)
        try:
            return certify(G, *args, **kwargs)
        finally:
            certified.pop()

    def counted_rings(self, radii, n, phases=0.0):
        if certified and self is certified[-1]:
            collar[-1] += np.atleast_1d(radii).size
        return rings(self, radii, n, phases)

    monkeypatch.setattr(rh, "_certify_null", counted_certify)
    monkeypatch.setattr(SeriesMap, "rings", counted_rings)
    for gate, run, pipeline, iterations, most_rings in runs:
        cfg = PipelineConfig(
            pipeline=pipeline, iterations=iterations, delta=0.2, arcs=8, epsilon=0.05
        )
        collar.append(0)
        got = [line.split(",") for line in run(cfg).to_csv().splitlines()]
        assert collar[-1] <= most_rings, gate
        path = Path(__file__).parent / "data" / ("%s_ledger.csv" % gate)
        want = [line.split(",") for line in path.read_text().splitlines()]
        assert got[0] == want[0] == CSV_HEADER.split(",")
        assert len(got) == len(want), gate
        for row_got, row_want in zip(got[1:], want[1:]):
            for name, a, b in zip(want[0], row_got, row_want):
                if name in _LEDGER_INT_COLUMNS:
                    assert int(a) == int(b), (gate, name, row_got, row_want)
                else:
                    assert math.isclose(float(a), float(b), rel_tol=1e-10), (
                        gate, name, row_got, row_want
                    )


def test_runs_are_deterministic():
    cfg = PipelineConfig(iterations=1, arcs=4)
    a = run_completeness_recursion(cfg).to_csv()
    b = run_completeness_recursion(cfg).to_csv()
    assert a == b


def test_push_round_samples_each_curve_once_on_the_unit_circle(monkeypatch):
    """A fixed-k round of 2 arcs: the collar floor, the certificate, the
    growth check and the round's start share one unit-circle sampling per
    curve at n = 4096."""
    rings, sampled = SeriesMap.rings, {}

    def counted(self, radii, n, phases=0.0):
        if n == 4096 and 1.0 in np.atleast_1d(radii):
            # the entry keeps self alive, so no later curve reuses its id
            sampled.setdefault(id(self), [self, 0])[1] += 1
        return rings(self, radii, n, phases)

    monkeypatch.setattr(SeriesMap, "rings", counted)
    cfg = PipelineConfig(arcs=2, iterations=1)
    v2 = NullVector(np.array([1.0, -1.0j, 0.0]) / math.sqrt(2.0))
    F = catalog("linear_v1")
    k = pipelines._round_frequency(pipelines.MU_CAP)
    G, _, _, certs, _ = pipelines._push_round(
        cfg, lambda curve, arc, rnd: (v2, "V2", None, None), 1, F, None, pipelines.MU_CAP, k
    )
    assert [c.k for c in certs] == [k, k]
    counts = {key: count for key, (_, count) in sampled.items()}
    assert counts[id(F)] == 1 and counts[id(G)] == 1
    assert set(counts.values()) == {1}


def test_pipeline_name_checked():
    cfg = PipelineConfig(pipeline="bounded_third")
    with pytest.raises(ValueError, match="pipeline"):
        run_completeness_recursion(cfg)


def test_unreachable_tolerance_surfaces_partial_ledger():
    cfg = PipelineConfig(iterations=1, epsilon=1e-12)
    with pytest.raises(ToleranceUnachievableError) as exc:
        run_completeness_recursion(cfg)
    led = exc.value.partial_ledger
    assert [row.k for row in led.rows] == [0]
    assert "aborted" in led.meta


def test_error_measuring_a_round_surfaces_partial_ledger(monkeypatch, tmp_path, capsys):
    # the seed row is measured, then round 1's measurement fails
    calls = []

    def second_call_fails(F, **kwargs):
        calls.append(F)
        if len(calls) % 2 == 0:
            raise DegenerateImmersionError("conformal factor vanishes")
        return intrinsic_radius(F, **kwargs)

    monkeypatch.setattr(pipelines, "intrinsic_radius", second_call_fails)
    cfg = PipelineConfig(iterations=1, arcs=3)
    with pytest.raises(DegenerateImmersionError) as exc:
        run_completeness_recursion(cfg)
    led = exc.value.partial_ledger
    assert [row.k for row in led.rows] == [0]
    assert led.meta["aborted"].startswith("round 1:")

    path = tmp_path / "config.json"
    path.write_text(cfg.to_json())
    target = tmp_path / "partial.csv"
    assert main(["recurse", str(path), "--out", str(target)]) == 1
    assert "conformal factor vanishes" in capsys.readouterr().err
    assert target.read_text() == led.to_csv()


def test_annulus_seed_runs_on_the_annulus_and_domain_key_is_refused(tmp_path, capsys):
    # the seed curve fixes the domain; a config still naming one is refused
    led = run_completeness_recursion(PipelineConfig(seed_curve="annulus_basic", iterations=0))
    seed = led.meta["final_curve"]
    assert (seed.domain, seed.r0) == ("annulus", 0.25)
    assert np.array_equal(seed.coeffs, catalog("annulus_basic").coeffs)
    assert [row.k for row in led.rows] == [0]
    blob = json.loads(PipelineConfig(iterations=0).to_json())
    assert "domain" not in blob
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(blob, domain="disc")))
    assert main(["recurse", str(path)]) == 1
    assert capsys.readouterr().err == "error: unknown config keys: domain\n"


# -- bounded third coordinate ---------------------------------------------------


def test_bounded_seed_has_zero_third():
    cfg = PipelineConfig(pipeline="bounded_third", iterations=0)
    led = run_bounded_third(cfg)
    assert led.rows[0].supF3 == 0.0
    assert led.meta["toy"]["sup_F3"] == 0.0
    assert led.meta["toy"]["boundary_min_F12"] == pytest.approx(2.0, abs=1e-12)


def test_one_alternating_push():
    # first round pushes along V2 = (1, -i, 0), which is hermitian-orthogonal
    # to the seed position z*V1 at every boundary point, so the boundary min
    # of |(F1, F2)| gains quadratically while |F3| stays far inside budget
    cfg = PipelineConfig(pipeline="bounded_third", iterations=1)
    led = run_bounded_third(cfg)
    mins = [r["min_F12"] for r in led.meta["rounds"]]
    assert mins[1] > mins[0]
    assert led.rows[1].supF3 < 0.1


def test_bounded_third_budget_abort(tmp_path, capsys):
    # every push certifies at epsilon, but no restart brings its leak into
    # F3 under a per-push cap of 1e-6 / 4
    cfg = PipelineConfig(pipeline="bounded_third", iterations=1, arcs=3, third_budget=1e-6)
    with pytest.raises(ToleranceUnachievableError) as exc:
        run_bounded_third(cfg)
    msg = str(exc.value)
    assert "fixed-direction leak" in msg and "budget 2.5e-07" in msg
    cert = exc.value.certificate
    assert cert.valid
    assert cert.cond_orth >= cfg.third_budget / 4
    led = exc.value.partial_ledger
    assert [row.k for row in led.rows] == [0]
    assert led.meta["aborted"].startswith("round 1: fixed-direction leak")

    path = tmp_path / "config.json"
    path.write_text(cfg.to_json())
    code = main(["recurse", str(path), "--out", str(tmp_path / "partial.csv")])
    assert code == 2
    assert "fixed-direction leak" in capsys.readouterr().err


def test_bounded_third_needs_disc():
    cfg = PipelineConfig(pipeline="bounded_third", seed_curve="annulus_basic")
    with pytest.raises(DomainError):
        run_bounded_third(cfg)


# -- mesh export -----------------------------------------------------------------


def _read_obj(path):
    verts, faces = [], []
    with open(path) as fh:
        for line in fh:
            if line.startswith("v "):
                verts.append([float(t) for t in line.split()[1:]])
            elif line.startswith("f "):
                faces.append([int(t) for t in line.split()[1:]])
    return np.array(verts), faces


def test_linear_mesh_is_planar(tmp_path):
    path = str(tmp_path / "flat.obj")
    export_surface(catalog("linear_v1"), "r3", path, grid=(8, 16))
    verts, faces = _read_obj(path)
    assert verts.shape == (8 * 16 + 1, 3)  # rings plus the center point
    assert len(faces) == 16 + 7 * 16 * 2
    assert np.abs(verts[:, 2]).max() == 0.0
    # Re(z, iz, 0) = (x, -y, 0): the outer ring is the unit circle
    outer = verts[-16:]
    assert np.abs(np.hypot(outer[:, 0], outer[:, 1]) - 1.0).max() <= 1e-12


def test_face_indices_in_range(tmp_path):
    path = str(tmp_path / "check.obj")
    export_surface(catalog("cubic_enneper_like"), "r3", path, grid=(5, 7))
    verts, faces = _read_obj(path)
    flat = [i for f in faces for i in f]
    assert min(flat) == 1
    assert max(flat) == len(verts)


def test_annulus_mesh_starts_on_the_inner_circle(tmp_path):
    # rings r0..1 from the inside out, and no centre vertex
    F = catalog("annulus_basic")
    nrad, nang = 4, 8
    radii = np.linspace(F.r0, 1.0, nrad)
    zs = (radii[:, None] * np.exp(2j * np.pi * np.arange(nang) / nang)).ravel()
    meshes = {}
    for target in ("r3", "h3"):
        path = str(tmp_path / (target + ".obj"))
        export_surface(F, target, path, grid=(nrad, nang))
        verts, faces = _read_obj(path)
        assert verts.shape == (nrad * nang, 3)
        assert len(faces) == (nrad - 1) * nang * 2
        assert sorted({i for f in faces for i in f}) == list(range(1, nrad * nang + 1))
        meshes[target] = verts
    assert np.abs(meshes["r3"][0] - F.eval(F.r0).real).max() <= 1e-12
    for z, vert in zip(zs, meshes["h3"]):
        h = bryant_project(tmap(F.eval(z)))
        x0 = 0.5 * (h[0, 0].real + h[1, 1].real)
        assert x0 > 0.0  # the upper sheet
        assert x0 * x0 - (vert ** 2).sum() == pytest.approx(1.0, abs=1e-8)


def test_constant_unit_third_maps_to_h3_origin(tmp_path):
    F = SeriesMap.from_components([[0.0], [0.0], [1.0]])
    path = str(tmp_path / "origin.obj")
    export_surface(F, "h3", path, grid=(4, 8))
    verts, _ = _read_obj(path)
    assert np.abs(verts).max() <= 1e-14


def test_h3_export_lands_on_hyperboloid(tmp_path):
    F = catalog("cubic_enneper_like") + SeriesMap.constant((0.0, 0.0, 2.0))
    path = str(tmp_path / "bryant.obj")
    grid = (6, 12)
    export_surface(F, "h3", path, grid=grid)
    verts, _ = _read_obj(path)
    # recompute x0 through the matrix route at the documented vertex layout
    # and check x0^2 - |x|^2 = 1 against the coordinates in the file
    zs = [0.0]
    for i in range(grid[0]):
        rho = (i + 1) / grid[0]
        zs.extend(rho * np.exp(2j * np.pi * np.arange(grid[1]) / grid[1]))
    assert len(zs) == len(verts)
    for z, vert in zip(zs, verts):
        h = bryant_project(tmap(F.eval(z)))
        x0 = 0.5 * (h[0, 0].real + h[1, 1].real)
        q = x0 * x0 - (vert**2).sum()
        assert q == pytest.approx(1.0, abs=1e-8)


def test_h3_rejects_pole(tmp_path):
    # F3 = z^2 hits zero at the grid center
    with pytest.raises(PoleError):
        export_surface(
            catalog("cubic_enneper_like"), "h3", str(tmp_path / "x.obj")
        )


def test_h3_export_checks_every_vertex(tmp_path):
    # F3 = 1e-5 clears the pole tolerance, but T's entries reach 2e5 and
    # the rounding in z1 + i z2 leaves a determinant defect near 1e-6
    F = catalog("linear_v1") + SeriesMap.constant((0.0, 0.0, 1e-5))
    path = tmp_path / "x.obj"
    with pytest.raises(NotInSL2Error):
        export_surface(F, "h3", str(path))
    assert not path.exists()


def test_unknown_target_rejected(tmp_path):
    with pytest.raises(ValueError):
        export_surface(catalog("linear_v1"), "s3", str(tmp_path / "x.obj"))


def _line_by_line_obj(F, target, grid):
    """The OBJ bytes of the writer export_surface replaced: one formatted
    line per vertex and per face, faces from a Python loop."""
    pts, has_center = pipelines._mesh_points(F, grid)
    if target == "r3":
        verts = pts.real
    else:
        verts = h3_minkowski(bryant_project(tmap(pts)))[:, 1:]
    nrad, nang = grid
    off = 1 if has_center else 0

    def vid(i, j):
        return off + i * nang + (j % nang) + 1

    faces = [(1, vid(0, j), vid(0, j + 1)) for j in range(nang)] if has_center else []
    for i in range(nrad - 1):
        for j in range(nang):
            a, b = vid(i, j), vid(i, j + 1)
            c, d = vid(i + 1, j + 1), vid(i + 1, j)
            faces += [(a, b, c), (a, c, d)]
    lines = ["# %s mesh, %d x %d polar grid" % (target, nrad, nang)]
    lines += ["v %.17g %.17g %.17g" % (v[0], v[1], v[2]) for v in verts]
    lines += ["f %d %d %d" % f for f in faces]
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("grid", [(2, 3), (3, 5), (64, 128)])
@pytest.mark.parametrize("name, target", [("cubic_enneper_like", "r3"),
                                          ("annulus_basic", "h3"), ("annulus_basic", "r3")])
def test_obj_bytes_equal_the_line_by_line_writer(tmp_path, name, target, grid):
    path = tmp_path / "mesh.obj"
    export_surface(catalog(name), target, str(path), grid=grid)
    assert path.read_bytes() == _line_by_line_obj(catalog(name), target, grid)


def test_mesh_export_deterministic(tmp_path):
    p1, p2 = str(tmp_path / "a.obj"), str(tmp_path / "b.obj")
    export_surface(catalog("cubic_enneper_like"), "r3", p1, grid=(6, 9))
    export_surface(catalog("cubic_enneper_like"), "r3", p2, grid=(6, 9))
    assert Path(p1).read_bytes() == Path(p2).read_bytes()
