"""The benchmark harnesses name library functions; those names must resolve.

perfbench/tracing.py wraps library names by string and
benchmarks/bench_kernels.py times kernels by name, so a rename under
src/ breaks them without breaking an import.  These checks read both
files, run nothing timed and fail in well under a second.
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
