"""Record the benchmark's numbers for one commit in a JSON file.

Run from the repository root:

    python3 perfbench/baseline.py --label <commit> --seeds 1-10 --trace-seeds 1-3 \
        --out perfbench/BASELINE.json

Every workload runs once per seed with ``run.py --trace 0`` (end-to-end
metrics) and once per trace seed with ``--trace 1`` (per-layer metrics), each
for the ``run_seconds`` of ``BENCHMARK.json``. The file records, per
workload, the median and quartiles of every metric over the seeds, the
spread (quartile distance over median), self time per module, and the
environment the numbers were taken in.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

from run import BLAS_THREADS, module_breakdown


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "n": len(values),
        "values": values,
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}, "
          f"{result['attempted']} runs, {result['failed']} failed", flush=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="commit the numbers belong to")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace-seeds", type=seed_range, default=seed_range("1-3"))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = {}
    for w in spec["workloads"]:
        plain = [run_once(w["name"], s, seconds, 0) for s in args.seeds]
        traced = [run_once(w["name"], s, seconds, 1) for s in args.trace_seeds]
        layers = {
            m["name"]: summary([r["metrics"][m["name"]]["value"] for r in traced])
            for m in spec["per_layer"]
        }
        modules = module_breakdown({k: (v["median"], v["n"]) for k, v in layers.items()})
        total = sum(modules.values())
        workloads[w["name"]] = {
            "why": w["why"],
            "seeds": args.seeds,
            "trace_seeds": args.trace_seeds,
            "attempted": sum(r["attempted"] for r in plain + traced),
            "failed": sum(r["failed"] for r in plain + traced),
            "end_to_end": {
                m["name"]: {"unit": m["unit"],
                            **summary([r["metrics"][m["name"]]["value"] for r in plain])}
                for m in spec["end_to_end"]
            },
            "module_self_s": {k: {"s": v, "share": v / total} for k, v in modules.items()},
            "per_layer": {m["name"]: {"unit": m["unit"], **layers[m["name"]]}
                          for m in spec["per_layer"]},
        }
    report = {
        "label": args.label,
        "run_seconds": seconds,
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": int(BLAS_THREADS),
            "machine": platform.machine(),
        },
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
