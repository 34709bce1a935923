"""Replay the k-searches of the CLI's seeded deform session.

For each seed and each catalog curve, one boundary datum is drawn as the
CLI session benchmark draws it: a quarter arc at a random start, mu in
[0.05, 0.15], the push direction (1, -i, 0) or (1, i, 0), taper pi/8 and
epsilon 0.05.  The collar radius follows the drift rule: narrow the
collar until the curve's own drift sup|F'| (1 - r) sits at half the
tolerance, never below r = 0.9.  Each datum runs one certified null push,
that is one k-search, and the script prints its k, its attempts, the
attempts that certified and its seconds.

Usage: PYTHONPATH=src python benchmarks/bench_search.py [--seeds 101 102]
"""

import argparse
import math
import time

import numpy as np

from nullcurves import rh
from nullcurves.errors import ToleranceUnachievableError
from nullcurves.geometry import NullVector
from nullcurves.pipelines import catalog

CURVES = ("linear_v1", "cubic_enneper_like", "annulus_basic")
EPSILON = 0.05


def session_data(seed):
    """(curve name, curve, datum) per catalog curve, drawn from the seed."""
    rng = np.random.default_rng(seed)
    directions = (np.array([1.0, -1.0j, 0.0]), np.array([1.0, 1.0j, 0.0]))
    for name in CURVES:
        F = catalog(name)
        start = float(rng.uniform(0.0, 2.0 * math.pi))
        mu = float(rng.uniform(0.05, 0.15))
        theta = directions[int(rng.integers(2))]
        sup_fp = F.derivative().sup_boundary(2048)
        r = max(0.9, 1.0 - 0.5 * EPSILON / max(sup_fp, 1e-12))
        yield name, F, rh.BoundaryData(arc=(start, start + math.pi / 2), mu=np.array([mu]),
                                       theta=NullVector(theta), taper=math.pi / 8,
                                       epsilon=EPSILON, r=r)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[101, 102])
    args = ap.parse_args()

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
        for name, F, bd in session_data(seed):
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
