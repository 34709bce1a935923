"""Command line front end.

Subcommands mirror the library's workflow: ``construct`` a catalog curve,
``deform`` it with a boundary datum, ``verify`` its invariants, ``recurse``
a full pipeline from a config file, ``export`` a mesh.  Curve and boundary
data travel as JSON, ledgers as CSV, meshes as OBJ; all outputs are
deterministic, so identical invocations are byte-identical.

Exit codes: 0 success, 1 domain errors, 2 tolerance failures, 64 usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import series
from .diagnostics import embedded_check, intrinsic_radius, nullity_residual
from .errors import (
    ConvergenceFailureError,
    NullCurveError,
    ToleranceUnachievableError,
)
from .pipelines import (
    EXPORT_GRID,
    PipelineConfig,
    catalog,
    export_surface,
    run_bounded_third,
    run_completeness_recursion,
)
from .rh import BoundaryData, rh_null_annulus, rh_null_disc
from .weierstrass import periods

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_TOLERANCE = 2
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the 64 exit path."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="nullcurves", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="write a catalog curve as JSON")
    p.add_argument("name", help="linear_v1 | cubic_enneper_like | annulus_basic")
    p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("deform", help="apply one certified boundary push")
    p.add_argument("curve", help="curve JSON path")
    p.add_argument("data", help="boundary datum JSON path")
    p.add_argument("--out", help="deformed curve path (default stdout)")
    p.add_argument("--cert", help="also write the certificate JSON here")

    p = sub.add_parser("verify", help="print nullity/radii/periods as JSON")
    p.add_argument("curve", help="curve JSON path")

    p = sub.add_parser("recurse", help="run a pipeline from a config file")
    p.add_argument("config", help="pipeline config JSON path")
    p.add_argument("--out", help="ledger CSV path (default config csv_path, else stdout)")

    p = sub.add_parser("export", help="write an OBJ mesh of the curve")
    p.add_argument("curve", help="curve JSON path")
    p.add_argument("--target", required=True, choices=("r3", "h3"))
    p.add_argument("--out", required=True, help="mesh path")
    p.add_argument("--grid", default="%d,%d" % EXPORT_GRID, help="radial,angular mesh size")

    return parser


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)


def _cmd_construct(args) -> int:
    curve = catalog(args.name)
    _emit(series.to_json(curve) + "\n", args.out)
    return EXIT_OK


def _cmd_deform(args) -> int:
    F = series.from_json(_read(args.curve))
    bd = BoundaryData.from_json(_read(args.data))
    solve = rh_null_disc if F.domain == "disc" else rh_null_annulus
    G, cert = solve(F, bd)
    _emit(series.to_json(G) + "\n", args.out)
    if args.cert:
        _emit(cert.to_json() + "\n", args.cert)
    return EXIT_OK


def _cmd_verify(args) -> int:
    F = series.from_json(_read(args.curve))
    radius = intrinsic_radius(F)
    report = {
        "domain": F.domain,
        "nullity": nullity_residual(F),
        "intrinsic_radius": radius.intrinsic_radius,
        "extrinsic_radius": radius.extrinsic_radius,
    }
    report["embedded"] = json.loads(embedded_check(F).to_json())
    if F.domain == "annulus":
        per = periods(F.derivative())
        report["periods"] = {
            "max_abs": per.max_abs,
            "columns": [
                [[c.real, c.imag] for c in col] for col in per.columns.T
            ],
        }
    sys.stdout.write(json.dumps(report, indent=2) + "\n")
    return EXIT_OK


def _cmd_recurse(args) -> int:
    cfg = PipelineConfig.from_json(_read(args.config))
    run = (
        run_completeness_recursion
        if cfg.pipeline == "completeness"
        else run_bounded_third
    )
    out = args.out if args.out is not None else cfg.csv_path
    try:
        ledger = run(cfg)
    except NullCurveError as err:
        partial = getattr(err, "partial_ledger", None)
        if partial is not None:
            _emit(partial.to_csv(), out)
        raise
    _emit(ledger.to_csv(), out)
    if cfg.obj_path is not None:
        export_surface(ledger.meta["final_curve"], "r3", cfg.obj_path)
    return EXIT_OK


def _cmd_export(args) -> int:
    F = series.from_json(_read(args.curve))
    try:
        nrad, nang = (int(t) for t in args.grid.split(","))
    except ValueError:
        raise _UsageError("--grid expects 'radial,angular'")
    export_surface(F, args.target, args.out, grid=(nrad, nang))
    return EXIT_OK


_COMMANDS = {
    "construct": _cmd_construct,
    "deform": _cmd_deform,
    "verify": _cmd_verify,
    "recurse": _cmd_recurse,
    "export": _cmd_export,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        sys.stderr.write("error: %s\n" % err)
        return EXIT_USAGE
    except SystemExit as err:  # --help
        return int(err.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as err:
        sys.stderr.write("error: %s\n" % err)
        return EXIT_USAGE
    except (ToleranceUnachievableError, ConvergenceFailureError) as err:
        sys.stderr.write("tolerance failure: %s\n" % err)
        return EXIT_TOLERANCE
    except (NullCurveError, ValueError, OSError, json.JSONDecodeError) as err:
        sys.stderr.write("error: %s\n" % err)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
