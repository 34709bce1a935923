"""The benchmark harnesses name library functions; those names must resolve.

perfbench/tracing.py wraps library names by string and
benchmarks/bench_kernels.py times kernels by name, so a rename under
src/ breaks them without breaking an import.  These checks read both
files, run nothing timed and fail in well under a second.  The recursion
output check must also read the config attributes it names.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from nullcurves import kernels

ROOT = Path(__file__).resolve().parent.parent


def _load(relpath):
    path = ROOT / relpath
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _load("perfbench/tracing.py")
    assert tracing.WRAPS
    for module_name, owner_name, attr, span in tracing.WRAPS:
        owner = importlib.import_module(module_name)
        if owner_name is not None:
            owner = getattr(owner, owner_name)
        assert callable(getattr(owner, attr, None)), (module_name, owner_name, attr, span)


def test_every_benchmarked_kernel_resolves():
    bench = _load("benchmarks/bench_kernels.py")
    names = [name for _, name, _ in bench.workloads(np.random.default_rng(0))]
    assert names
    for name in names:
        assert callable(getattr(kernels, name, None)), name


def test_benchmark_inputs_build_and_round_trip():
    """Every config and datum perfbench/workloads.py builds is still accepted.

    A config key the library drops fails here instead of in the benchmark.
    """
    from nullcurves.pipelines import PipelineConfig
    from nullcurves.rh import BoundaryData

    workloads = _load("perfbench/workloads.py")
    for name, params in workloads.GATE_CONFIGS.items():
        for smoke in (False, True):
            kw = dict(params, seed=105)
            if smoke:
                kw.update(workloads.SMOKE_SIZE)
            cfg = PipelineConfig(**kw)
            assert PipelineConfig.from_json(cfg.to_json()) == cfg, (name, smoke)
    for smoke in (False, True):
        data = workloads.session_data(105, smoke)
        assert [name for name, _, _ in data] == list(workloads.SESSION_CURVES[: len(data)])
        for _, _, bd in data:
            assert BoundaryData.from_json(bd.to_json()).to_json() == bd.to_json()
    refusal = BoundaryData(**workloads.REFUSAL_DATUM)
    assert BoundaryData.from_json(refusal.to_json()).to_json() == refusal.to_json()


def test_recursion_check_reads_its_config(tmp_path):
    """perfbench's ledger check runs on both gate configs and a tiny ledger.

    It reads iterations, pipeline, delta_at and third_budget off the config,
    so one of those that vanishes fails here instead of in the benchmark.
    """
    from nullcurves.pipelines import CSV_HEADER, PipelineConfig

    workloads = _load("perfbench/workloads.py")
    for name, params in workloads.GATE_CONFIGS.items():
        for smoke in (False, True):
            kw = dict(params, seed=105)
            if smoke:
                kw.update(workloads.SMOKE_SIZE)
            cfg = PipelineConfig(**kw)
            ledger = tmp_path / ("%s-%s.csv" % (name, smoke))
            # rising intrinsic radius, no extrinsic growth, sup|F3| in budget
            rows = ["%d,0.1,%d,1.0,0.0,0,0,0,0" % (k, k + 1) for k in range(cfg.iterations + 1)]
            ledger.write_text("\n".join([CSV_HEADER] + rows) + "\n")
            check = workloads._check_recurse(cfg, str(ledger), smoke)
            assert check(0, "", "") == ([], ledger.read_bytes()), (name, smoke)
            ledger.write_text("\n".join([CSV_HEADER] + rows[:1]) + "\n")
            problems, _ = check(0, "", "")
            assert problems and "ledger has 1 rows" in problems[0], (name, smoke)
