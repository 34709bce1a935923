"""End-to-end benchmark of nullcurves: recursions and a CLI session.

Usage, from the repository root:

    python3 perfbench/run.py --workload completeness --seed 1 --seconds 33 --trace 0

Workloads (closed loop, one client, one process; every request is an
in-process call of ``nullcurves.cli.main``):

  completeness   ``recurse`` on the gate-8 config
  bounded_third  ``recurse`` on the gate-9 config
  cli_session    deform / verify / export of one seeded datum per catalog
                 curve, then the refused deform of the tier-1 test

``--trace 0`` times round(seconds / first pass time) passes, at least one,
and prints the end-to-end metrics.  ``--trace 1`` times one untraced pass,
then one pass with spans (see ``tracing.py``), and prints the per-layer
metrics; the difference of the two passes is the tracing overhead.  Every
repeated pass must reproduce the first pass's outputs byte for byte.
``--smoke`` shrinks every workload for the benchmark's own test.

The last line of stdout is the result: ``correct``, ``attempted``,
``failed`` and ``metrics``, named and ordered as in BENCHMARK.json.  The full record (environment, per-request
times, output digests, span table) goes to ``perfbench/out/`` and is
printed on the line before it.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# two BLAS threads on two cores cost 1.4x the CPU time and saved no wall time
BLAS_THREADS = 1
WORKLOADS = ("completeness", "bounded_third", "cli_session")
SETUP_SAMPLES = 3
MICRO_REPEAT = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true", help="reduced sizes for the self-test")
    return p.parse_args(argv)


def measure_setup(n):
    """Seconds from spawning a fresh interpreter until nullcurves.cli is imported.

    CLOCK_MONOTONIC is shared between processes, so the child's
    perf_counter reading after the import is comparable to ours.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    code = "import nullcurves.cli, time; print(repr(time.perf_counter()))"
    samples = []
    for _ in range(n):
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(done.stdout.strip()) - t0)
    return samples


def environment(seed):
    import numpy
    import scipy

    import nullcurves

    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        revision = lines[1] if top.returncode == 0 and os.path.samefile(lines[0], ROOT) else None
    except (OSError, subprocess.SubprocessError, IndexError):
        revision = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": nullcurves.BACKEND,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "git_revision": revision,
        "seed": seed,
        "machine": platform.machine(),
    }


def run_pass(cli_main, requests, tracer, pass_no, reference):
    """Run one pass; returns (seconds, [(kind, seconds, problems, digest)])."""
    gc.collect()
    results = []
    for i, req in enumerate(requests):
        out, err = io.StringIO(), io.StringIO()
        span = tracer.request_span("cli." + req.kind, "p%d.r%d" % (pass_no, i)) \
            if tracer else contextlib.nullcontext()
        code = None
        t0 = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(list(req.argv))
        except Exception:
            # the CLI maps every library error to an exit code; anything
            # else is a failed request, reported and not fatal to the run
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
        if code is None:
            problems, digest = ["uncaught: %s" % err.getvalue().strip()[-300:]], None
        else:
            problems, blob = req.check(code, out.getvalue(), err.getvalue())
            digest = hashlib.sha256(blob).hexdigest()
        if reference is not None and digest != reference[i][3]:
            problems.append("output differs from the first pass")
        for p in problems:
            print("FAIL pass %d %s %s: %s" % (pass_no, req.kind, req.label, p), file=sys.stderr)
        results.append((req.kind, seconds, problems, digest))
    return sum(r[1] for r in results), results


def kernel_micro():
    """Time bench_kernels.py's five shapes on the active backend, with op counts."""
    import numpy as np

    from nullcurves import kernels

    spec = importlib.util.spec_from_file_location(
        "bench_kernels", os.path.join(ROOT, "benchmarks", "bench_kernels.py"))
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    rows = {}
    for label, name, payload in bench.workloads(np.random.default_rng(0)):
        fn = getattr(kernels, name)
        times = []
        for _ in range(MICRO_REPEAT):
            t0 = time.perf_counter()
            fn(*payload)
            times.append(time.perf_counter() - t0)
        rows[name] = {"shape": label, "median_s": statistics.median(times),
                      "ops": operation_count(name, payload)}
    return rows


def operation_count(name, payload):
    """Computed work of one kernel call, from its argument shapes."""
    if name == "horner_eval":
        (ncomp, width), (npts,) = payload[0].shape, payload[1].shape
        return {"complex_multiply_adds": ncomp * width * npts}
    if name == "min_dist2":
        (nq, ncomp), (ncloud, _) = payload[0].shape, payload[1].shape
        return {"pair_components": nq * ncloud * ncomp}
    if name == "min_dist2_grouped":
        (ngroup, nq, ncomp), (_, ncloud, _) = payload[0].shape, payload[1].shape
        return {"pair_components": ngroup * nq * ncloud * ncomp}
    if name == "dijkstra_polar":
        nrad, nang = payload[0].shape
        # ring edges plus a radial and two diagonal edges per node and gap,
        # each scanned once from either end
        edges = nrad * nang + 3 * (nrad - 1) * nang
        return {"nodes": nrad * nang, "edge_scans": 2 * edges}
    if name == "pair_scan":
        n, ncomp = payload[0].shape
        return {"pairs": n * (n - 1) // 2, "pair_components": n * (n - 1) // 2 * ncomp}
    raise ValueError("no operation count for kernel %r" % name)


def per_kind(results_by_pass):
    kinds = {}
    for results in results_by_pass:
        for kind, seconds, _, _ in results:
            kinds.setdefault(kind, []).append(seconds)
    return {k: {"n": len(v), "median_s": statistics.median(v), "min_s": min(v),
                "max_s": max(v)} for k, v in kinds.items()}


def layer_metrics(tracer, kept, micro, overhead):
    table = tracer.summary()
    row = lambda name: table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                        "errors": 0, "nodes": 0})
    selfs = tracing.layer_self_times(table)
    push, cert = row("rh.push"), row("rh.certify")
    accepted = push["calls"] - push["errors"]
    recursion_pushes = sum(1 for s in tracer.spans if s[0] == "rh.push" and s[5] == "ok"
                           and tracer.spans[s[3]][0] == "pipelines.recurse")
    recurses = sum(1 for s in tracer.spans if s[0] == "pipelines.recurse" and s[5] == "ok")
    values = {
        "series.circle_values_calls": row("series.circle_values")["calls"],
        "series.circle_values_s": row("series.circle_values")["total_s"],
        "series.antiderivative_s": row("series.antiderivative")["total_s"],
        "series.json_calls": row("series.json")["calls"],
        "series.self_s": selfs["series"],
        "geometry.spinor_lift_s": row("geometry.spinor_lift")["total_s"],
        "geometry.tmap_on_curve_calls": row("geometry.tmap_on_curve")["calls"],
        "geometry.self_s": selfs["geometry"],
        "weierstrass.periods_calls": row("weierstrass.periods")["calls"],
        "weierstrass.kill_periods_calls": row("weierstrass.kill_periods")["calls"],
        "rh.push_calls": push["calls"],
        "rh.push_s": push["total_s"],
        "rh.certify_calls": cert["calls"],
        "rh.certify_s": cert["total_s"],
        "rh.fit_s": row("rh.fit")["total_s"],
        "rh.cert_accept_ratio": accepted / cert["calls"] if cert["calls"] else 0.0,
        "rh.self_s": selfs["rh"],
        "diagnostics.intrinsic_radius_s": row("diagnostics.intrinsic_radius")["total_s"],
        "diagnostics.edge_weights_s": row("diagnostics.edge_weights")["total_s"],
        "diagnostics.bounded_report_calls": row("diagnostics.bounded_report")["calls"],
        "diagnostics.embedded_check_calls": row("diagnostics.embedded_check")["calls"],
        "diagnostics.self_s": selfs["diagnostics"],
        "kernels.dijkstra_calls": row("kernels.dijkstra")["calls"],
        "kernels.dijkstra_s": row("kernels.dijkstra")["total_s"],
        "kernels.dijkstra_nodes": row("kernels.dijkstra")["nodes"],
        "kernels.pair_scan_calls": row("kernels.pair_scan")["calls"],
        "kernels.self_s": selfs["kernels"],
        "pipelines.self_s": selfs["pipelines"],
        "pipelines.pushes_discarded": recursion_pushes - kept * recurses if kept else 0,
        "cli.self_s": selfs["cli"],
        "trace.overhead_s": overhead,
    }
    for name, row_ in micro.items():
        values["kernels.micro.%s_s" % name] = row_["median_s"]
    return values, table, selfs


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nullcurves", "cli.py")):
        print("error: no nullcurves sources under %s" % SRC, file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)

    from nullcurves.cli import main as cli_main  # also writes the bytecode caches

    import workloads

    setup = measure_setup(1 if args.smoke else SETUP_SAMPLES)
    env = environment(args.seed)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    tag = "%s-seed%d-trace%d%s" % (args.workload, args.seed, args.trace,
                                   "-smoke" if args.smoke else "")
    try:
        requests, inputs = workloads.build(args.workload, workdir, args.seed, args.smoke)
        passes = [run_pass(cli_main, requests, None, 0, None)]
        # the pass count is fixed by the first pass, so a run measures
        # about --seconds whatever the pass length
        n_passes = 1 if args.trace else max(1, round(args.seconds / passes[0][0]))
        while len(passes) < n_passes:
            passes.append(run_pass(cli_main, requests, None, len(passes), passes[0][1]))
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "smoke": args.smoke, "env": env, "inputs": inputs,
                  "setup_s": setup, "pass_s": [p[0] for p in passes]}
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                passes.append(run_pass(cli_main, requests, tracer, len(passes), passes[0][1]))
            finally:
                tracer.uninstall()
            spans_path = os.path.join(OUT, "spans-%s.jsonl" % tag)
            tracer.write(spans_path)
            micro = kernel_micro()
            overhead = passes[-1][0] - passes[0][0]
            # a finished recursion keeps one push per arc and round
            cfg = inputs.get("config")
            kept = cfg["iterations"] * cfg["arcs"] if cfg else 0
            metrics, table, selfs = layer_metrics(tracer, kept, micro, overhead)
            record["tracing"] = {
                "spans_file": os.path.relpath(spans_path, ROOT), "spans": len(tracer.spans),
                "untraced_pass_s": passes[0][0], "traced_pass_s": passes[-1][0],
                "overhead_s": overhead,
                "computed_overhead_s": len(tracer.spans) * tracing.span_cost(),
                "layer_self_s": selfs, "span_table": table,
                "kernels_micro": micro,
            }
            if tracer.last_ledger is not None and args.workload == "bounded_third":
                mins = [r["min_F12"] for r in tracer.last_ledger.meta["rounds"]]
                record["gate9_monotone"] = {
                    "boundary_min_F12": mins,
                    "strictly_increasing": all(b > a for a, b in zip(mins, mins[1:])),
                    "note": "fails by design (README, gate 9); reported, not counted",
                }
        else:
            metrics = {
                "setup_s": statistics.median(setup),
                "pass_s": statistics.median(p[0] for p in passes),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = [r for _, rs in passes for r in rs]
    attempted = len(results)
    failed = sum(1 for r in results if r[2])
    record["requests"] = per_kind([rs for _, rs in passes[:len(passes) - args.trace]])
    record["output_sha256"] = [[r[0], r[3]] for r in passes[0][1]]
    record["fail_share"] = failed / attempted
    record["metrics"] = metrics
    with open(SPEC) as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    if set(units) != set(metrics):
        raise SystemExit("metrics %s differ from BENCHMARK.json %s"
                         % (sorted(metrics), sorted(units)))
    metrics = {name: metrics[name] for name in units}
    with open(os.path.join(OUT, tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print("%s seed %d, backend %s, %d BLAS thread(s), revision %s"
          % (args.workload, args.seed, env["backend"], BLAS_THREADS, env["git_revision"]))
    for name, value in metrics.items():
        print("  %-36s %.6g %s" % (name, value, units[name]))
    if not args.trace:
        for kind, st in record["requests"].items():
            print("  %-36s %.6g s (median of %d)" % (kind + "_s", st["median_s"], st["n"]))
    print("  %-36s %.6g (%d/%d)" % ("fail_share", record["fail_share"], failed, attempted))
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
