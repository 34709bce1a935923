"""CLI surface: subcommands, exit codes, byte-level determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nullcurves
from nullcurves import pipelines, series
from nullcurves.cli import main
from nullcurves.geometry import NullVector
from nullcurves.pipelines import CSV_HEADER, PipelineConfig, catalog
from nullcurves.rh import BoundaryData


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_config(tmp_path, **overrides):
    cfg = PipelineConfig(**overrides)
    path = tmp_path / "config.json"
    path.write_text(cfg.to_json())
    return str(path)


def _datum_blob(**overrides):
    kw = dict(
        arc=(0.0, math.pi / 2),
        mu=np.array([0.05]),
        theta=NullVector(np.array([1.0, -1.0j, 0.0])),
        taper=math.pi / 8,
        epsilon=0.05,
        r=0.98,
    )
    kw.update(overrides)
    return json.loads(BoundaryData(**kw).to_json())


def write_datum(tmp_path, **overrides):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(_datum_blob(**overrides)))
    return str(path)


# -- construct ---------------------------------------------------------------


def test_construct_writes_curve_json(capsys):
    code, out, _ = run(capsys, "construct", "linear_v1")
    assert code == 0
    F = series.from_json(out)
    assert np.allclose(F.eval(1.0), [1.0, 1.0j, 0.0], atol=0)


def test_construct_unknown_name_is_domain_error(capsys):
    code, out, err = run(capsys, "construct", "catenoid")
    assert code == 1
    assert out == ""
    assert "unknown catalog curve" in err


def test_construct_to_file(tmp_path, capsys):
    path = tmp_path / "curve.json"
    code, out, _ = run(capsys, "construct", "cubic_enneper_like", "--out", str(path))
    assert code == 0 and out == ""
    assert series.from_json(path.read_text()).degree_hi == 3


# -- usage -------------------------------------------------------------------


def test_missing_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 64
    assert "usage" in err


def test_bad_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "export", "x.json", "--target", "r4", "--out", "y")
    assert code == 64


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "construct" in out and "recurse" in out


def test_missing_file_is_domain_error(tmp_path, capsys):
    code, _, err = run(capsys, "verify", str(tmp_path / "nope.json"))
    assert code == 1


# -- deform ------------------------------------------------------------------


def test_deform_zero_amplitude_is_identity(tmp_path, capsys):
    curve = tmp_path / "curve.json"
    code, out, _ = run(capsys, "construct", "linear_v1", "--out", str(curve))
    assert code == 0
    datum = write_datum(tmp_path, mu=np.array([0.0]))
    code, out, _ = run(capsys, "deform", str(curve), datum)
    assert code == 0
    assert out == curve.read_text()


def test_deform_writes_certificate(tmp_path, capsys):
    curve = tmp_path / "curve.json"
    run(capsys, "construct", "linear_v1", "--out", str(curve))
    datum = write_datum(tmp_path)
    cert = tmp_path / "cert.json"
    code, out, _ = run(capsys, "deform", str(curve), datum, "--cert", str(cert))
    assert code == 0
    G = series.from_json(out)
    blob = json.loads(cert.read_text())
    assert blob["valid"] is True
    assert blob["k"] >= 1
    # the deformation moved the boundary but kept the base point
    assert np.allclose(G.eval(0.0), [0.0, 0.0, 0.0], atol=1e-12)


def test_deform_unreachable_tolerance_exits_2(tmp_path, capsys):
    curve = tmp_path / "curve.json"
    run(capsys, "construct", "linear_v1", "--out", str(curve))
    datum = write_datum(tmp_path, epsilon=1e-9, r=0.5)
    code, _, err = run(capsys, "deform", str(curve), datum)
    assert code == 2
    assert "tolerance" in err


@pytest.mark.parametrize(
    "arc, taper",
    [((0.3, 0.3 + math.pi / 2), math.pi / 8), ((0.5, 4.5), 1.2)],
    ids=["segments_inside_r0", "empty_keep_mask"],
)
def test_deform_annulus_collar_inside_r0_is_domain_error(arc, taper, tmp_path, capsys):
    curve = tmp_path / "curve.json"
    run(capsys, "construct", "annulus_basic", "--out", str(curve))
    datum = write_datum(tmp_path, arc=arc, taper=taper, epsilon=2.0, r=0.2)
    code, out, err = run(capsys, "deform", str(curve), datum)
    assert code == 1
    assert out == ""
    assert "r = 0.2" in err and "r0 = 0.25" in err


def test_deform_non_finite_datum_is_domain_error(tmp_path, capsys):
    curve = tmp_path / "curve.json"
    run(capsys, "construct", "linear_v1", "--out", str(curve))
    datum = write_datum(tmp_path)
    for key, value in (("mu", [float("nan")]), ("epsilon", float("nan"))):
        blob = json.loads(Path(datum).read_text())
        blob[key] = value
        bad = tmp_path / ("bad_%s.json" % key)
        bad.write_text(json.dumps(blob))
        code, _, err = run(capsys, "deform", str(curve), str(bad))
        assert code == 1
        assert "finite" in err


def test_deform_non_finite_curve_is_domain_error(tmp_path, capsys):
    curve = tmp_path / "curve.json"
    run(capsys, "construct", "linear_v1", "--out", str(curve))
    blob = json.loads(curve.read_text())
    blob["components"][0][0] = [float("nan"), 0.0]
    curve.write_text(json.dumps(blob))
    code, _, err = run(capsys, "deform", str(curve), write_datum(tmp_path))
    assert code == 1
    assert "finite" in err


def _config_blob(**changes):
    blob = json.loads(PipelineConfig(iterations=0).to_json())
    blob.update(changes)
    return blob


def _without(key, blob):
    blob = dict(blob)
    del blob[key]
    return blob


_CURVE = json.loads(series.to_json(catalog("linear_v1")))

# (subcommand, which input is malformed, its JSON)
MALFORMED = {
    "iterations_float": ("recurse", "config", _config_blob(iterations=2.5)),
    "arcs_string": ("recurse", "config", _config_blob(arcs="3")),
    "grid_string_entry": ("recurse", "config", _config_blob(grid=["a", 4])),
    "unknown_key": ("recurse", "config", _config_blob(rounds=3)),
    "relax_tolerance_key": ("recurse", "config", _config_blob(relax_tolerance=False)),
    "top_level_array": ("recurse", "config", [1, 2]),
    "delta_infinite": ("recurse", "config", _config_blob(delta=float("inf"))),
    "epsilon_infinite": ("recurse", "config", _config_blob(epsilon=float("inf"))),
    "datum_without_theta": ("deform", "datum", _without("theta", _datum_blob())),
    "mu_overflows_when_squared": ("deform", "datum", dict(_datum_blob(), mu=[1e308])),
    "bare_number_components": ("deform", "curve", dict(_CURVE, components=[1.0, 2.0])),
    "curve_without_components": ("deform", "curve", _without("components", _CURVE)),
    "fractional_degree": ("deform", "curve", dict(_CURVE, degree_lo=0.5)),
    "degree_hi_past_the_coefficients": ("deform", "curve", dict(_CURVE, degree_hi=7)),
    "degree_hi_string": ("deform", "curve", dict(_CURVE, degree_hi="x")),
    "curve_without_degree_hi": ("deform", "curve", _without("degree_hi", _CURVE)),
    "boolean_degree": ("deform", "curve", dict(_CURVE, degree_lo=False)),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_json_is_domain_error(case, tmp_path, capsys):
    command, which, blob = MALFORMED[case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(blob))
    if command == "recurse":
        argv = ["recurse", str(path), "--out", str(tmp_path / "ledger.csv")]
    else:
        curve = tmp_path / "curve.json"
        curve.write_text(json.dumps(_CURVE))
        argv = ["deform", str(path if which == "curve" else curve),
                str(path if which == "datum" else write_datum(tmp_path))]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "ledger.csv").exists()


# -- verify ------------------------------------------------------------------


def test_verify_disc_curve(capsys, tmp_path):
    curve = tmp_path / "curve.json"
    run(capsys, "construct", "cubic_enneper_like", "--out", str(curve))
    code, out, _ = run(capsys, "verify", str(curve))
    assert code == 0
    report = json.loads(out)
    assert report["domain"] == "disc"
    assert report["nullity"] <= 1e-10
    assert "periods" not in report
    assert report["intrinsic_radius"] > 0
    assert report["embedded"]["n_samples"] > 0


def test_verify_measures_a_curve_too_small_to_square(capsys, tmp_path):
    # g(z) (1, i, 0) + (0, 0, 1) with g a random cubic: at 1e-300 the squares
    # of its values underflow, yet verify reads the scale-1 radii times 1e-300
    g = np.random.default_rng(0).normal(size=(4, 2)) @ np.array([1.0, 1j])
    rows = np.array([1.0, 1j, 0.0])[:, None] * g[None, :]
    rows[2, 0] = 1.0
    curve = tmp_path / "curve.json"
    reports = []
    for scale in (1.0, 1e-300):
        curve.write_text(series.to_json(series.SeriesMap(rows * scale, 0, "disc")))
        code, out, _ = run(capsys, "verify", str(curve))
        assert code == 0
        reports.append(json.loads(out))
    for key in ("intrinsic_radius", "extrinsic_radius"):
        assert reports[1][key] / 1e-300 == pytest.approx(reports[0][key], rel=1e-12)


def test_verify_overflowing_metric_factor_is_domain_error(capsys, tmp_path):
    # finite coefficients whose |F'|^2 overflows: the weights would meet the
    # zero tangential length at the centre as inf * 0
    curve = tmp_path / "curve.json"
    big = series.SeriesMap.from_components([[0.0, 1e308], [0.0, 1e308j], [0.0, 0.0]])
    curve.write_text(series.to_json(big))
    code, out, err = run(capsys, "verify", str(curve))
    assert code == 1
    assert out == ""
    assert "metric factor" in err and "overflows" in err


def test_verify_overflowing_derivative_prints_only_the_error(capsys, tmp_path):
    # F' = 1 + 2e308 z overflows in its coefficients: no NumPy warning may
    # reach stderr ahead of the domain error
    curve = tmp_path / "curve.json"
    big = series.SeriesMap.from_components([[0.0, 1.0, 1e308], [0.0, 1j, 1e308j], [0.0, 0.0, 0.0]])
    curve.write_text(series.to_json(big))
    code, out, err = run(capsys, "verify", str(curve))
    assert code == 1
    assert out == ""
    assert err == "error: metric factor |F'| overflows on the grid\n"


def test_verify_annulus_reports_periods(capsys, tmp_path):
    curve = tmp_path / "curve.json"
    run(capsys, "construct", "annulus_basic", "--out", str(curve))
    code, out, _ = run(capsys, "verify", str(curve))
    assert code == 0
    report = json.loads(out)
    assert report["periods"]["max_abs"] <= 1e-12


# -- recurse -----------------------------------------------------------------


def test_recurse_zero_rounds_single_row(tmp_path, capsys):
    cfg = write_config(tmp_path, iterations=0)
    code, out, _ = run(capsys, "recurse", cfg)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    assert lines[1].startswith("0,")


def test_recurse_invocations_byte_identical(tmp_path, capsys):
    cfg = write_config(tmp_path, iterations=1, arcs=4)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run(capsys, "recurse", cfg, "--out", str(out1))[0] == 0
    assert run(capsys, "recurse", cfg, "--out", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_recurse_honors_config_csv_path(tmp_path, capsys):
    target = tmp_path / "ledger.csv"
    cfg = write_config(tmp_path, iterations=0, csv_path=str(target))
    code, out, _ = run(capsys, "recurse", cfg)
    assert code == 0 and out == ""
    assert target.read_text().startswith(CSV_HEADER)


def test_recurse_abort_writes_partial_ledger(tmp_path, capsys):
    cfg = write_config(tmp_path, iterations=1, epsilon=1e-12)
    target = tmp_path / "partial.csv"
    code, _, err = run(capsys, "recurse", cfg, "--out", str(target))
    assert code == 2
    lines = target.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2  # seed row survived the abort


def test_recurse_refuses_toy_exponent_before_any_push(tmp_path, capsys, monkeypatch):
    # the seed curve fixes r0, and the toy exponent, the amplitude cap, the
    # collar radius, the frequency cap and the radius grid are constants: a
    # config that still carries one, at its old default, names the unknown key
    def no_push(*args, **kwargs):
        raise AssertionError("a push ran before the config was checked")

    monkeypatch.setattr(pipelines, "_rh_null", no_push)
    path = tmp_path / "config.json"
    for pipeline, key, value in (("bounded_third", "toy_exponent", 50),
                                 ("completeness", "r0", 0.25),
                                 ("completeness", "domain", "disc"),
                                 ("completeness", "mu_cap", 2e-3),
                                 ("completeness", "collar_r", 0.9),
                                 ("bounded_third", "k_max", 4096),
                                 ("completeness", "grid", [128, 512])):
        blob = _config_blob(pipeline=pipeline, iterations=1, arcs=2, **{key: value})
        path.write_text(json.dumps(blob))
        code, out, err = run(capsys, "recurse", str(path))
        assert code == 1 and out == ""
        assert err == "error: unknown config keys: %s\n" % key


def test_recurse_bounded_third(tmp_path, capsys):
    cfg = write_config(tmp_path, pipeline="bounded_third", iterations=1, arcs=4)
    code, out, _ = run(capsys, "recurse", cfg)
    assert code == 0
    rows = out.splitlines()[1:]
    sup3 = [float(r.split(",")[4]) for r in rows]
    assert sup3[0] == 0.0
    assert 0.0 < sup3[1] < 0.1


# -- export ------------------------------------------------------------------


def test_export_r3_mesh(tmp_path, capsys):
    curve = tmp_path / "curve.json"
    run(capsys, "construct", "linear_v1", "--out", str(curve))
    mesh = tmp_path / "flat.obj"
    code, _, _ = run(
        capsys, "export", str(curve), "--target", "r3", "--out", str(mesh),
        "--grid", "6,12",
    )
    assert code == 0
    lines = mesh.read_text().splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 6 * 12 + 1


def test_export_h3_pole_is_domain_error(tmp_path, capsys):
    curve = tmp_path / "curve.json"
    run(capsys, "construct", "cubic_enneper_like", "--out", str(curve))
    code, _, err = run(
        capsys, "export", str(curve), "--target", "h3",
        "--out", str(tmp_path / "x.obj"),
    )
    assert code == 1
    assert "pole" in err.lower()


def test_export_h3_off_sl2_is_domain_error(tmp_path, capsys):
    curve = tmp_path / "curve.json"
    blob = dict(_CURVE, components=_CURVE["components"][:2] + [[[1e-5, 0.0], [0.0, 0.0]]])
    curve.write_text(json.dumps(blob))
    mesh = tmp_path / "x.obj"
    code, _, err = run(capsys, "export", str(curve), "--target", "h3", "--out", str(mesh))
    assert code == 1
    assert "determinant" in err
    assert not mesh.exists()


@pytest.mark.parametrize("target", ["r3", "h3"])
def test_export_overflowing_curve_is_domain_error(target, tmp_path, capsys):
    # finite coefficients, but 0.25 ** -600 overflows on the inner mesh rings:
    # no NaN vertex is written and no NumPy warning precedes the error
    c = np.zeros((3, 602), dtype=complex)
    c[:, 0] = c[:, 601] = [1.0, 1j, 0.0]  # degrees -600 and 1
    curve = tmp_path / "curve.json"
    curve.write_text(series.to_json(series.SeriesMap(c, -600, "annulus", 0.25)))
    mesh = tmp_path / "m.obj"
    code, out, err = run(capsys, "export", str(curve), "--target", target,
                         "--out", str(mesh), "--grid", "3,8")
    assert code == 1 and out == ""
    assert err == "error: curve values overflow on the mesh grid\n"
    assert not mesh.exists()


def test_deform_overflowing_curve_is_domain_error(tmp_path, capsys):
    # the annulus curve above overflows on its inner boundary circle, where
    # the lift samples it: one error naming the overflow, no NumPy warning
    c = np.zeros((3, 602), dtype=complex)
    c[:, 0] = c[:, 601] = [1.0, 1j, 0.0]  # degrees -600 and 1
    curve = tmp_path / "curve.json"
    curve.write_text(series.to_json(series.SeriesMap(c, -600, "annulus", 0.25)))
    code, out, err = run(capsys, "deform", str(curve), write_datum(tmp_path))
    assert code == 1 and out == ""
    assert err == "error: curve values overflow on the boundary circles\n"


def test_deform_overflowing_squares_is_domain_error(tmp_path, capsys):
    # 1e200 (z, iz, 0) samples finitely, but its squares overflow: one error
    # naming the overflow, no NumPy warning, and no claim that the map vanishes
    curve = tmp_path / "curve.json"
    curve.write_text(series.to_json(series.SeriesMap.from_components(
        [[0.0, 1e200], [0.0, 1e200j], [0.0, 0.0]])))
    code, out, err = run(capsys, "deform", str(curve), write_datum(tmp_path))
    assert code == 1 and out == ""
    assert err == "error: squared curve values overflow on the boundary circles\n"


def test_deform_high_degree_counts_its_zeros(tmp_path, capsys):
    # z^200000 (1, i, 0): the candidate square 200000 z^199999 winds 199999
    # times, more than the 512 boundary samples its width asks for resolve
    c = np.array([[1.0], [1j], [0.0]])
    curve = tmp_path / "curve.json"
    curve.write_text(series.to_json(series.SeriesMap(c, 200000, "disc")))
    code, out, err = run(capsys, "deform", str(curve), write_datum(tmp_path))
    assert code == 1 and out == ""
    assert err == "error: candidate square has 199999 zeros in the disc\n"


@pytest.mark.parametrize("ncomp", [1, 2, 4])
@pytest.mark.parametrize("target", ["r3", "h3"])
def test_export_refuses_a_curve_outside_c3(ncomp, target, tmp_path, capsys, monkeypatch):
    # refused before any sample and before the mesh file is opened
    def no_rings(*args, **kwargs):
        raise AssertionError("a ring was sampled before the components were checked")

    curve = tmp_path / "curve.json"
    curve.write_text(series.to_json(series.SeriesMap.from_components(
        [[0.0, 1.0], [0.0, 1j], [0.0, 0.0], [1.0, 0.0]][:ncomp])))
    monkeypatch.setattr(series.SeriesMap, "rings", no_rings)
    mesh = tmp_path / "m.obj"
    code, out, err = run(capsys, "export", str(curve), "--target", target,
                         "--out", str(mesh), "--grid", "4,8")
    assert code == 1 and out == ""
    assert err == "error: a null curve has 3 components, not %d\n" % ncomp
    assert not mesh.exists()


def test_verify_refuses_a_curve_outside_c3(tmp_path, capsys):
    # (z, iz) is null in C^2, but a null curve lives in C^3; deform refuses
    # it in the words verify and export use
    curve = tmp_path / "curve.json"
    curve.write_text(series.to_json(series.SeriesMap.from_components([[0.0, 1.0], [0.0, 1j]])))
    for argv in (["verify", str(curve)], ["deform", str(curve), write_datum(tmp_path)]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv[0]
        assert err == "error: a null curve has 3 components, not 2\n", argv[0]


def test_export_h3_overflowing_squares_is_domain_error(tmp_path, capsys):
    # 1e160 (z^3, iz^3, 0) + (0, 0, 1) is finite on the mesh, but the
    # derivative's squares overflow in the nullity audit: one error naming
    # the overflow, no NumPy warning, no determinant of NaN
    curve = tmp_path / "curve.json"
    curve.write_text(series.to_json(series.SeriesMap.from_components(
        [[0.0, 0.0, 0.0, 1e160], [0.0, 0.0, 0.0, 1e160j], [1.0, 0.0, 0.0, 0.0]])))
    mesh = tmp_path / "m.obj"
    code, out, err = run(capsys, "export", str(curve), "--target", "h3",
                         "--out", str(mesh), "--grid", "4,8")
    assert code == 1 and out == ""
    assert err == "error: squared curve values overflow on the boundary circles\n"
    assert not mesh.exists()


def test_deform_lifts_before_it_evaluates_the_base_point(tmp_path, capsys):
    # (1e-149, 1e-149 i, 0) z^-1000000 on r0 = 0.81 overflows inside the
    # annulus too, at the base point 0.9: the lift names the overflow first
    c = np.array([[1e-149], [1e-149j], [0.0]])
    curve = tmp_path / "curve.json"
    curve.write_text(series.to_json(series.SeriesMap(c, -1000000, "annulus", 0.81)))
    code, out, err = run(capsys, "deform", str(curve), write_datum(tmp_path))
    assert code == 1 and out == ""
    assert err == "error: curve values overflow on the boundary circles\n"


def test_export_refuses_a_grid_over_the_vertex_cap(tmp_path, capsys, monkeypatch):
    # refused before any ring is sampled, so the test allocates nothing
    def no_rings(*args, **kwargs):
        raise AssertionError("a ring was sampled before the grid was checked")

    curve = tmp_path / "curve.json"
    run(capsys, "construct", "cubic_enneper_like", "--out", str(curve))
    monkeypatch.setattr(series.SeriesMap, "rings", no_rings)
    mesh = tmp_path / "m.obj"
    nrad = pipelines.MAX_MESH_VERTICES // 8 + 1
    code, out, err = run(capsys, "export", str(curve), "--target", "r3",
                         "--out", str(mesh), "--grid", "%d,8" % nrad)
    assert code == 1 and out == ""
    assert err == "error: mesh grid %d x 8 exceeds MAX_MESH_VERTICES = %d\n" % (
        nrad, pipelines.MAX_MESH_VERTICES)
    assert not mesh.exists()


def test_export_bad_grid_is_usage_error(tmp_path, capsys):
    curve = tmp_path / "curve.json"
    run(capsys, "construct", "linear_v1", "--out", str(curve))
    code, _, err = run(
        capsys, "export", str(curve), "--target", "r3",
        "--out", str(tmp_path / "x.obj"), "--grid", "coarse",
    )
    assert code == 64


def test_seed_flag_is_gone(capsys):
    code, out, _ = run(capsys, "--seed", "0", "construct", "linear_v1")
    assert code == 64 and out == ""


# -- fuzzed inputs -------------------------------------------------------------

_DELETE = "<delete>"
_VALUES = (None, True, "", "x", [], {}, [[1]], -1, 0, 1.5, 1e308, 10**30,
           float("nan"), float("inf"), -float("inf"))
# each base input keeps every valid mutant fast: the curve is pushed with
# zero amplitude, the datum is the refused one (its collar floor refuses any
# nonzero mu at once), the config runs no round on a tiny grid
_BASES = {
    "curve": _CURVE,
    "datum": _datum_blob(mu=np.array([0.0]), epsilon=1e-9, r=0.5),
    "config": _config_blob(iterations=0),
}


@st.composite
def _mutants(draw):
    which = draw(st.sampled_from(sorted(_BASES)))
    blob = dict(_BASES[which])
    key = draw(st.sampled_from(sorted(blob) + ["unknown_key"]))
    values = _VALUES + (_DELETE,)
    if which == "config" and key == "iterations":
        values = tuple(v for v in _VALUES if v != 10**30)  # a run of 10**30 rounds
    value = draw(st.sampled_from(values))
    if value is _DELETE:
        blob.pop(key, None)
    else:
        blob[key] = value
    return which, blob


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_mutants())
def test_mutated_json_exits_cleanly(tmp_path_factory, mutant):
    which, blob = mutant
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "input.json"
    path.write_text(json.dumps(blob))
    if which == "config":
        argv = ["recurse", str(path), "--out", str(work / "ledger.csv")]
    else:
        curve = work / "curve.json"
        curve.write_text(json.dumps(_CURVE))
        datum = work / "datum.json"
        datum.write_text(json.dumps(_datum_blob(mu=np.array([0.0]))))  # the identity push
        argv = ["deform", str(path if which == "curve" else curve),
                str(path if which == "datum" else datum)]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)  # a mutated csv_path or obj_path writes here
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2, 64)
    assert "Traceback" not in err.getvalue()


# -- property sweep over curves and data ----------------------------------------

_NON_FINITE_OR_WRONG_TYPE = (float("nan"), float("inf"), -float("inf"), None, "x", True, [1.0])


@st.composite
def _curve_blobs(draw):
    """Curve JSON: 1-4 components of width <= 16, degree_lo within 1e6, at
    coefficient scales 1e-320 to 1e300.  The rows are g(z) (1, i, 0), null
    (g one term or random, plus at times a constant third coordinate), or
    random; at most one field is then made non-finite or of a wrong type."""
    ncomp = draw(st.sampled_from([1, 2, 3, 3, 3, 4]))
    width = draw(st.integers(1, 16))
    lo = draw(st.one_of(st.integers(-2, 1), st.integers(-10**6, 10**6)))
    scale = 10.0 ** draw(st.one_of(st.just(0), st.integers(-320, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["monomial", "null", "random"]))
    if shape == "random":
        rows = rng.normal(size=(ncomp, width)) + 1j * rng.normal(size=(ncomp, width))
    else:
        g = rng.normal(size=width) + 1j * rng.normal(size=width)
        if shape == "monomial":
            g[np.arange(width) != draw(st.integers(0, width - 1))] = 0.0
        rows = np.array([1.0, 1j, 0.0, 0.0])[:ncomp, None] * g[None, :]
    rows = rows * scale
    if shape != "random" and ncomp >= 3 and lo <= 0 < lo + width and draw(st.booleans()):
        rows[2, -lo] = 1.0  # a constant third coordinate clear of the pole
    domain = draw(st.sampled_from(["disc", "annulus"]))
    r0 = None
    if domain == "annulus":
        r0 = draw(st.one_of(st.sampled_from([5e-324, 0.25, 0.81, 1.0 - 2.0**-53]),
                            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)))
    blob = {"components": [[[c.real, c.imag] for c in row] for row in rows],
            "degree_lo": lo, "degree_hi": lo + width - 1, "domain": domain, "r0": r0}
    field = draw(st.sampled_from([None] * 8 + ["coefficient", "degree_lo", "r0", "domain"]))
    bad = draw(st.sampled_from(_NON_FINITE_OR_WRONG_TYPE))
    if field == "coefficient":
        row = blob["components"][draw(st.integers(0, ncomp - 1))]
        row[draw(st.integers(0, width - 1))] = [bad, 0.0]
    elif field is not None:
        blob[field] = bad
    return blob


@st.composite
def _datum_blobs(draw):
    """Datum JSON at the ends of each range: the arc's width and position,
    the taper, epsilon, the collar radius, mu's sign and size, |theta|."""
    width = draw(st.sampled_from([1e-9, 2.0 * math.pi - 1e-9]))
    start = draw(st.sampled_from([0.0, 1e6]))
    theta = np.array(draw(st.sampled_from([[1.0, -1j, 0.0], [1.0, 1j, 0.0]])))
    theta = theta * draw(st.sampled_from([1e-150, 1.0, 1e150]))
    return {
        "arc": [start, start + width],
        "mu": [draw(st.sampled_from([-0.1, 0.0, 1e-300, 0.1, 1e150]))],
        "theta": [[c.real, c.imag] for c in theta],
        "taper": draw(st.sampled_from([1e-300, width / 2.0])),
        "epsilon": draw(st.sampled_from([5e-324, 1e300])),
        "r": draw(st.sampled_from([5e-324, 0.9, 1.0 - 2.0**-53])),
    }


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_curve_blobs(), _datum_blobs())
def test_commands_exit_cleanly_on_swept_curves(tmp_path_factory, curve_blob, datum_blob):
    # deform, verify and export each exit 0, 1 or 2 with at most one line on
    # stderr, and a failure with exactly one error line; pytest turns any
    # NumPy warning into an error, so none may be raised
    work = tmp_path_factory.mktemp("sweep")
    curve, datum = work / "curve.json", work / "datum.json"
    curve.write_text(json.dumps(curve_blob))
    datum.write_text(json.dumps(datum_blob))
    for argv in (["deform", str(curve), str(datum), "--out", str(work / "pushed.json")],
                 ["verify", str(curve)],
                 ["export", str(curve), "--target", "r3", "--out", str(work / "r3.obj"),
                  "--grid", "4,8"],
                 ["export", str(curve), "--target", "h3", "--out", str(work / "h3.obj"),
                  "--grid", "4,8"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        lines = err.getvalue().splitlines()
        assert code in (0, 1, 2), (argv[0], code)
        assert len(lines) == (code != 0), (argv[0], lines)
        assert not lines or lines[0].startswith(("error: ", "tolerance failure: ")), lines


# -- import path -------------------------------------------------------------

# runs every command with SciPy unimportable: a None entry in sys.modules
# makes "import scipy" raise ImportError
_NO_SCIPY_PROBE = """
import sys
sys.modules["scipy"] = None
from nullcurves.cli import main

curve, datum, pushed, mesh, config, ledger = sys.argv[1:]
for name, argv in [
    ("construct", ["construct", "linear_v1", "--out", curve]),
    ("deform", ["deform", curve, datum, "--out", pushed]),
    ("export", ["export", pushed, "--target", "r3", "--out", mesh, "--grid", "6,12"]),
    ("verify", ["verify", pushed]),
    ("recurse", ["recurse", config, "--out", ledger]),
]:
    assert main(argv) == 0, name
"""


def test_no_command_needs_scipy(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(PipelineConfig(iterations=1, arcs=4).to_json())
    src = os.path.dirname(os.path.dirname(nullcurves.__file__))
    paths = [str(tmp_path / "curve.json"), write_datum(tmp_path),
             str(tmp_path / "pushed.json"), str(tmp_path / "mesh.obj"),
             str(config), str(tmp_path / "ledger.csv")]
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", _NO_SCIPY_PROBE, *paths], env=env,
                   capture_output=True, text=True, check=True, timeout=300)
    # the header and the rows of rounds 0 and 1
    assert len((tmp_path / "ledger.csv").read_text().splitlines()) == 3
