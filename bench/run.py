"""Benchmark for pairmask: pre-training, frozen evaluation and their layers.

Run one workload in this process; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``):

    python3 bench/run.py --workload pretrain-small --seed 0 --seconds 30 --trace 0

``--workload all`` runs every workload, each in its own process, one
after another, and prints a table of their metrics.

BLAS is pinned to one thread before numpy loads; see bench/README.md.
"""

import os
import sys
import time

_START = time.perf_counter()
_CPU_AT_START = time.process_time()
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NAMES = ("pretrain-small", "pretrain-default", "frozen-eval")


def since_start() -> float:
    """Seconds since the process started.

    The CPU time spent before this module's first line stands in for the
    interpreter's start-up, which computes and reads cached files only.
    """
    return _CPU_AT_START + time.perf_counter() - _START


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"bench: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {}
    for name, res in results.items():
        for key, m in res["metrics"].items():
            print(f"{name:18s} {key:45s} {m['value']:14.4f} {m['unit']}")
            metrics[f"{name}.{key}"] = m
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pairmask" / "__init__.py").is_file():
        print(f"bench: no pairmask sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    import pairmask
    if SRC not in Path(pairmask.__file__).resolve().parents:
        print(f"bench: imported pairmask from {pairmask.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), OUT, since_start)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n"
    )
    for check in result["checks"]:
        print(f"check {check['name']}: {'PASS' if check['ok'] else 'FAIL'} {check['detail']}")
    for key, m in result["metrics"].items():
        print(f"{key:45s} {m['value']:14.4f} {m['unit']}")
    print(f"host kernel median {result['host_kernel_ms_median']:.4f} ms; unscaled timings:")
    for key, value in result["raw_timing_metrics"].items():
        print(f"  {key:43s} {value:14.4f}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
