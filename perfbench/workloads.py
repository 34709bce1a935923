"""Workload inputs, request sequences and output checks.

Every request is one in-process call of ``nullcurves.cli.main``.  Inputs
are generated from the seed before anything is timed; checks and
determinism digests are computed after the timer stops.
"""

import json
import math
import os
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from nullcurves import series
from nullcurves.diagnostics import nullity_residual
from nullcurves.geometry import NullVector
from nullcurves.pipelines import PipelineConfig, catalog
from nullcurves.rh import BoundaryData

# gate 8's frozen extrinsic growth (tests/test_acceptance.py)
EXTRINSIC_GROWTH_GOLDEN = 0.010762099147462401
NULLITY_TOL = 1e-10
PERIOD_TOL = 1e-9
EXPORT_GRID = (64, 128)

GATE_CONFIGS = {
    "completeness": dict(pipeline="completeness", iterations=5, delta=0.2, arcs=8, epsilon=0.05),
    "bounded_third": dict(pipeline="bounded_third", iterations=4, delta=0.2, arcs=8, epsilon=0.05),
}
SMOKE_SIZE = dict(iterations=1, arcs=4)

SESSION_CURVES = ("linear_v1", "cubic_enneper_like", "annulus_basic")
SESSION_EPSILON = 0.05
# tests/test_cli.py::test_deform_unreachable_tolerance_exits_2
REFUSAL_DATUM = dict(arc=(0.0, math.pi / 2), mu=np.array([0.05]),
                     theta=NullVector(np.array([1.0, -1.0j, 0.0])),
                     taper=math.pi / 8, epsilon=1e-9, r=0.5)

@dataclass
class Request:
    kind: str  # recurse | deform | verify | export | refuse
    argv: List[str]
    # (exit code, stdout, stderr) -> (problems, bytes whose sha256 is the digest)
    check: Callable[[int, str, str], tuple]
    label: str = ""


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _ledger(path):
    blob = _read_bytes(path)
    header, *lines = blob.decode().splitlines()
    rows = [dict(zip(header.split(","), map(float, line.split(",")))) for line in lines]
    return blob, rows


def _check_recurse(cfg: PipelineConfig, ledger_path: str, smoke: bool):
    def check(code, out, err):
        if code != 0:
            return ["recurse exited %d: %s" % (code, err.strip()[-200:])], err.encode()
        blob, rows = _ledger(ledger_path)
        problems = []
        if len(rows) != cfg.iterations + 1:
            problems.append("ledger has %d rows, want %d" % (len(rows), cfg.iterations + 1))
        if cfg.pipeline == "completeness":
            intr = [r["intrinsic"] for r in rows]
            if not all(b > a for a, b in zip(intr, intr[1:])):
                problems.append("intrinsic radius not strictly increasing: %s" % intr)
            growth = rows[-1]["extrinsic"] - rows[0]["extrinsic"]
            budget = 4.0 * sum(cfg.delta_at(k) ** 2 for k in range(1, cfg.iterations + 1))
            if growth > budget:
                problems.append("extrinsic growth %.6g over quadratic budget %.6g" % (growth, budget))
            if not smoke and growth > 1.05 * EXTRINSIC_GROWTH_GOLDEN:
                problems.append("extrinsic growth %.6g over 1.05 x golden" % growth)
        else:
            sup3 = max(r["supF3"] for r in rows)
            if sup3 > cfg.third_budget:
                problems.append("max supF3 %.6g over %.6g" % (sup3, cfg.third_budget))
        return problems, blob

    return check


def recursion_requests(name: str, workdir: str, seed: int, smoke: bool):
    params = dict(GATE_CONFIGS[name], seed=seed)
    if smoke:
        params.update(SMOKE_SIZE)
    cfg = PipelineConfig(**params)
    cfg_path = os.path.join(workdir, "config.json")
    ledger = os.path.join(workdir, "ledger.csv")
    with open(cfg_path, "w") as fh:
        fh.write(cfg.to_json())
    req = Request("recurse", ["recurse", cfg_path, "--out", ledger],
                  _check_recurse(cfg, ledger, smoke), name)
    return [req], {"config": json.loads(cfg.to_json())}


def session_data(seed: int, smoke: bool):
    """One boundary datum per catalog curve; the seed picks arc, mu, direction.

    The collar radius follows the floor rule of ``pipelines._run_rounds``:
    narrow the collar until the curve's own drift sup|F'|(1 - r) sits at
    half the tolerance, never below r = 0.9.
    """
    rng = np.random.default_rng(seed)
    directions = (np.array([1.0, -1.0j, 0.0]), np.array([1.0, 1.0j, 0.0]))
    data = []
    for name in SESSION_CURVES[:1] if smoke else SESSION_CURVES:
        F = catalog(name)
        start = float(rng.uniform(0.0, 2.0 * math.pi))
        mu = float(rng.uniform(0.05, 0.15))
        theta = directions[int(rng.integers(2))]
        sup_fp = F.derivative().sup_boundary(2048)
        r = max(0.9, 1.0 - 0.5 * SESSION_EPSILON / max(sup_fp, 1e-12))
        bd = BoundaryData(arc=(start, start + math.pi / 2), mu=np.array([mu]),
                          theta=NullVector(theta), taper=math.pi / 8,
                          epsilon=SESSION_EPSILON, r=r)
        data.append((name, F, bd))
    return data


def _check_deform(out_path, cert_path):
    def check(code, out, err):
        if code != 0:
            return ["deform exited %d: %s" % (code, err.strip()[-200:])], err.encode()
        blob = _read_bytes(out_path)
        problems = []
        if json.loads(_read_bytes(cert_path))["valid"] is not True:
            problems.append("certificate not valid")
        nul = nullity_residual(series.from_json(blob.decode()))
        if not nul <= NULLITY_TOL:
            problems.append("nullity residual %.3g" % nul)
        return problems, blob

    return check


def _check_verify(domain):
    def check(code, out, err):
        if code != 0:
            return ["verify exited %d: %s" % (code, err.strip()[-200:])], err.encode()
        try:
            report = json.loads(out)
        except json.JSONDecodeError as exc:
            return ["verify report does not parse: %s" % exc], out.encode()
        problems = []
        if not report["nullity"] <= NULLITY_TOL:
            problems.append("nullity %.3g" % report["nullity"])
        if not report["intrinsic_radius"] > 0:
            problems.append("intrinsic radius %r" % report["intrinsic_radius"])
        if domain == "annulus" and not report["periods"]["max_abs"] <= PERIOD_TOL:
            problems.append("periods %.3g" % report["periods"]["max_abs"])
        return problems, out.encode()

    return check


def _check_export(mesh_path, has_center):
    nrad, nang = EXPORT_GRID
    want_v = nrad * nang + (1 if has_center else 0)
    want_f = (nang if has_center else 0) + 2 * (nrad - 1) * nang

    def check(code, out, err):
        if code != 0:
            return ["export exited %d: %s" % (code, err.strip()[-200:])], err.encode()
        blob = _read_bytes(mesh_path)
        lines = blob.split(b"\n")
        nv = sum(1 for line in lines if line.startswith(b"v "))
        nf = sum(1 for line in lines if line.startswith(b"f "))
        problems = []
        if (nv, nf) != (want_v, want_f):
            problems.append("mesh has %d vertices / %d faces, want %d / %d"
                            % (nv, nf, want_v, want_f))
        return problems, blob

    return check


def _check_refuse(code, out, err):
    problems = []
    if code != 2:
        problems.append("refusal exited %d, want 2" % code)
    if "tolerance" not in err:
        problems.append("refusal message names no tolerance: %s" % err.strip()[-200:])
    return problems, ("%d %s" % (code, err)).encode()


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return path


def session_requests(workdir: str, seed: int, smoke: bool):
    requests = []
    record = []
    for i, (name, F, bd) in enumerate(session_data(seed, smoke)):
        curve = _write(os.path.join(workdir, "curve%d.json" % i), series.to_json(F) + "\n")
        datum = _write(os.path.join(workdir, "datum%d.json" % i), bd.to_json())
        out = os.path.join(workdir, "pushed%d.json" % i)
        cert = os.path.join(workdir, "cert%d.json" % i)
        mesh = os.path.join(workdir, "mesh%d.obj" % i)
        target = "h3" if F.domain == "annulus" else "r3"
        grid = "%d,%d" % EXPORT_GRID
        requests += [
            Request("deform", ["deform", curve, datum, "--out", out, "--cert", cert],
                    _check_deform(out, cert), name),
            Request("verify", ["verify", out], _check_verify(F.domain), name),
            Request("export", ["export", out, "--target", target, "--out", mesh, "--grid", grid],
                    _check_export(mesh, F.domain == "disc"), name),
        ]
        record.append({"curve": name, "datum": json.loads(bd.to_json()), "export": target})
    refusal = BoundaryData(**REFUSAL_DATUM).to_json()
    curve = _write(os.path.join(workdir, "refuse_curve.json"),
                   series.to_json(catalog("linear_v1")) + "\n")
    datum = _write(os.path.join(workdir, "refuse_datum.json"), refusal)
    requests.append(Request("refuse", ["deform", curve, datum], _check_refuse, "linear_v1"))
    return requests, {"data": record, "refusal": json.loads(refusal)}


def build(name: str, workdir: str, seed: int, smoke: bool):
    """(requests of one pass, description of the inputs for the record)."""
    if name == "cli_session":
        return session_requests(workdir, seed, smoke)
    return recursion_requests(name, workdir, seed, smoke)
