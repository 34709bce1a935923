"""Self-test of the benchmark at reduced size.

Run from the repository root:  python3 -m pytest perfbench

Each workload runs in smoke mode (one round of four arcs, one session
datum plus the refusal), untraced and traced.  The result line must have
the agreed schema and carry every metric BENCHMARK.json names, with its
unit; the record line before it must carry the environment block.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def test_workloads_match_benchmark_json():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    record = json.loads(lines[-2])
    assert {"python", "numpy", "scipy", "backend", "nproc", "blas_threads",
            "git_revision", "seed"} <= set(record["env"])
    assert record["env"]["seed"] == 3
    assert all(digest for _, digest in record["output_sha256"])
    if trace:
        assert record["tracing"]["spans"] > 0
        assert set(record["tracing"]["layer_self_s"]) == set(tracing.LAYERS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", "completeness", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
