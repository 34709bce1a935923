"""Time the hot kernels on shapes taken from their real call sites.

The shapes come from boundary evaluation, certificate distances, the
intrinsic-radius Dijkstra and the embeddedness pair scan.  The pair scan
runs twice: on a random cloud, its worst case (samples without locality
leave its bounds nothing to prune), and last on what ``verify`` passes it,
the ring grid with its ring count.
Prints the best time of each kernel over a few repeats.

Usage: PYTHONPATH=src python benchmarks/bench_kernels.py [--repeat N]
"""

import argparse
import time

import numpy as np

from nullcurves import kernels
from nullcurves.diagnostics import _layout_shape, _sample_layout
from nullcurves.pipelines import catalog


def timeit(fn, args, repeat):
    best = np.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def workloads(rng):
    cplx = lambda *s: rng.normal(size=s) + 1j * rng.normal(size=s)

    yield "horner_eval (3x1400 @ 4096)", "horner_eval", (
        cplx(3, 1400),
        np.exp(2j * np.pi * np.arange(4096) / 4096),
    )
    yield "min_dist2 (4096 vs 2048, C=3)", "min_dist2", (
        cplx(4096, 3),
        cplx(2048, 3),
    )
    yield "min_dist2_grouped (64x64 vs 64x256)", "min_dist2_grouped", (
        cplx(64, 64, 3),
        cplx(64, 256, 3),
    )
    w = rng.uniform(0.1, 1.0, size=(4, 128, 512))
    src = np.zeros((128, 512), dtype=bool)
    src[0] = True
    # the radial and diagonal weights span the 127 gaps between the rings
    yield "dijkstra_polar (128x512)", "dijkstra_polar", (w[0], w[1, :-1], w[2, :-1], w[3, :-1], src)
    yield "pair_scan worst case (random N=2000, C=3)", "pair_scan", (
        cplx(2000, 3),
        cplx(2000),
        0.5,
        1e-3,
    )
    dom, ambient = _sample_layout(catalog("cubic_enneper_like"), 4096)
    rings = _layout_shape(4096)[0]
    yield "pair_scan (verify, cubic_enneper_like N=4096, %d rings)" % rings, "pair_scan", (
        ambient,
        dom,
        0.5,
        1e-3,
        rings,
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    rows = [(label, timeit(getattr(kernels, name), payload, args.repeat))
            for label, name, payload in workloads(np.random.default_rng(0))]
    width = max(len(label) for label, _ in rows)
    print("%-*s %10s" % (width, "kernel", "best"))
    for label, seconds in rows:
        print("%-*s %9.1fms" % (width, label, 1e3 * seconds))


if __name__ == "__main__":
    main()
