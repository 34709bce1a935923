"""CLI surface: subcommands, exit codes, byte-level determinism."""

import contextlib
import io
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    cfg = write_config(tmp_path, iterations=1, epsilon=1e-12, k_max=64)
    target = tmp_path / "partial.csv"
    code, _, err = run(capsys, "recurse", cfg, "--out", str(target))
    assert code == 2
    lines = target.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2  # seed row survived the abort


def test_recurse_refuses_toy_exponent_before_any_push(tmp_path, capsys, monkeypatch):
    def no_push(*args, **kwargs):
        raise AssertionError("a push ran before the config was checked")

    monkeypatch.setattr(pipelines, "_rh_null", no_push)
    path = tmp_path / "config.json"
    blob = _config_blob(pipeline="bounded_third", iterations=1, arcs=2, toy_exponent=1)
    path.write_text(json.dumps(blob))
    code, _, err = run(capsys, "recurse", str(path))
    assert code == 1
    assert "toy_exponent" in err


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
    "config": _config_blob(iterations=0, grid=[2, 8]),
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
