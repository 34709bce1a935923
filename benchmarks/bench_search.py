"""Replay the k-searches of the CLI's seeded deform session.

For each seed, the boundary data come from the CLI session benchmark's own
draw, ``session_data`` in perfbench/workloads.py, loaded by path: one
datum per catalog curve.  Each datum runs one certified null push, that
is one k-search, and the script prints its k, its attempts, the attempts
that certified and its seconds.

Usage: PYTHONPATH=src python benchmarks/bench_search.py [--seeds 101 102]
"""

import argparse
import importlib.util
import time
from pathlib import Path

from nullcurves import rh
from nullcurves.errors import ToleranceUnachievableError

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location(WORKLOADS.stem, WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[101, 102])
    args = ap.parse_args()
    workloads = load_workloads()

    certify = rh._certify_null
    attempts = []  # one entry per certificate: did it certify?

    def counted(*a, **kw):
        out = certify(*a, **kw)
        attempts.append(isinstance(out, rh.RHCertificate) and out.valid)
        return out

    rh._certify_null = counted
    totals = [0, 0, 0.0]
    print("%6s  %-20s %6s %9s %11s %8s" % ("seed", "curve", "k", "attempts", "certifying",
                                             "seconds"))
    for seed in args.seeds:
        for name, F, bd in workloads.session_data(seed, smoke=False):
            attempts.clear()
            t0 = time.perf_counter()
            try:
                k = rh._rh_null(F, bd).cert.k
            except ToleranceUnachievableError:
                k = "refused"
            seconds = time.perf_counter() - t0
            totals[0] += len(attempts)
            totals[1] += sum(attempts)
            totals[2] += seconds
            print("%6d  %-20s %6s %9d %11d %8.3f" % (seed, name, k, len(attempts),
                                                     sum(attempts), seconds))
    print("%6s  %-20s %6s %9d %11d %8.3f" % ("all", "", "", *totals))


if __name__ == "__main__":
    main()
