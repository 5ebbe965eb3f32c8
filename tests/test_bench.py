"""The bench harness still drives the package: each traced workload runs
to its end in a fresh process and reports every per-layer metric finite.

The bench wraps package functions by name and calls them with fixed
arguments, so a renamed function or a changed signature breaks it; this
smoke run catches that in the unit suite. Whether the bench's own checks
pass (``correct``) is left to the bench.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_TRACED_RUN = """
import json, sys, time
start = time.perf_counter()
sys.path[:0] = [{bench!r}, {src!r}]
from pathlib import Path
import workloads
result = workloads.run({name!r}, 0, 0.0, True, Path({out!r}), lambda: time.perf_counter() - start)
print(json.dumps(result["metrics"]))
"""


# frozen-eval and pretrain-small together reach every name the tracer wraps
@pytest.mark.parametrize("name", ["frozen-eval", "pretrain-small"])
def test_traced_workload_reports_every_layer_metric_finite(name, tmp_path):
    code = _TRACED_RUN.format(bench=str(ROOT / "bench"), src=str(ROOT / "src"), name=name, out=str(tmp_path))
    # BLAS pinned to one thread before numpy loads, as bench/run.py does
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    bad = {key: m["value"] for key, m in metrics.items() if not math.isfinite(m["value"])}
    assert not bad, bad
