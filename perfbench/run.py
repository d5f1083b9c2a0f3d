"""Benchmark for cellmine: a seeded synthetic city through the whole pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload towers-wide --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

A run first generates the workload's city for the seed (cached per seed under
``perfbench/.cache``), outside any timing. It then starts fresh
single-process pipeline runs (``pipeline.py``) one after another until the
next would overrun ``--seconds``; each is one closed-loop batch job with BLAS
pinned to one thread. Every run is checked against the ground truth.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json`` (medians
over the pipeline runs). ``--trace 1`` runs traced pipelines and prints the
per-layer metrics: self time per ``<module>.<function>``, counts, and the
tracing overhead (span count times the cost of one span). Every time and
rate is scaled to a reference CPU speed by a probe timed in the pipeline
process before and after the pipeline (see ``pipeline.probe``); the
unscaled wall times are printed per run.
The last line of standard output is one JSON object; the exit code is 1 if
any pipeline run failed a correctness gate.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from citygen import generate
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent

CACHE = Path("perfbench") / ".cache"
KEEP_CITIES = 6
RUN_LIMIT_S = 170.0  # a run ends well inside the 180 s a caller allows
MIN_PIPELINE_RUNS = 2  # set-up and pipeline time are medians of at least two
BLAS_THREADS = "1"
# Pipeline times are scaled by PROBE_REF_S / the pipeline process's probe
# time (see pipeline.probe): the seconds the run would have taken at the CPU
# speed where the probe takes PROBE_REF_S.
PROBE_REF_S = 0.45


def load_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def units(spec: dict, kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``."""
    return {m["name"]: m["unit"] for m in spec[kind]}


def city_dir(root: Path, name: str, seed: int) -> Path:
    """The generated city for (workload, seed), made on first use."""
    cities = root / CACHE / "city"
    target = cities / f"{name}-s{seed}"
    if not (target / "truth.json").exists():
        tmp = cities / f".tmp-{name}-s{seed}-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        generate(WORKLOADS[name].city, seed, tmp)
        shutil.rmtree(target, ignore_errors=True)
        tmp.rename(target)
    target.touch()
    old = sorted(
        (p for p in cities.iterdir() if not p.name.startswith(".")),
        key=lambda p: p.stat().st_mtime,
    )
    for p in old[:-KEEP_CITIES]:
        shutil.rmtree(p, ignore_errors=True)
    return target


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH", "")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(root: Path, name: str, city: Path, trace: bool, timeout: float) -> dict:
    """One fresh pipeline process. Returns its record, with ``setup_s``
    measured from just before the process is spawned to the moment its
    imports are done, or ``{"error": ...}``."""
    workdir = root / CACHE / "work" / f"{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [
        sys.executable, str(BENCH_DIR / "pipeline.py"), "--city", str(city),
        "--workload", name, "--workdir", str(workdir), "--trace", str(int(trace)),
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=child_env(root), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"pipeline run exceeded {timeout:.0f} s", "wall_s": timeout}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wall = time.monotonic() - spawned
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"exit {proc.returncode}: {' | '.join(tail)}", "wall_s": wall}
    record = json.loads(lines[-1])
    record["setup_s"] = record.pop("ready_at") - spawned
    record["wall_s"] = wall
    record["scale"] = PROBE_REF_S / record["probe_s"]
    return record


def measure(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Pipeline runs until the next one would overrun ``seconds``, at least
    MIN_PIPELINE_RUNS of them."""
    city = city_dir(root, name, seed)
    start = time.monotonic()
    records: list[dict] = []
    while True:
        elapsed = time.monotonic() - start
        records.append(
            run_child(root, name, city, trace, max(10.0, RUN_LIMIT_S - elapsed))
        )
        elapsed = time.monotonic() - start
        typical = statistics.mean(r["wall_s"] for r in records)
        if len(records) < MIN_PIPELINE_RUNS:
            continue
        if elapsed + typical > seconds or elapsed + typical > RUN_LIMIT_S - 10:
            break
    return {"records": records, "city": city}


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(records: list[dict]) -> dict[str, tuple[float, int]]:
    ok = [r for r in records if "error" not in r]
    if not ok:
        return {}
    out = {
        "pipeline_s": [r["pipeline_s"] * r["scale"] for r in ok],
        "towers_per_s": [r["towers"] / (r["pipeline_s"] * r["scale"]) for r in ok],
        "setup_s": [r["setup_s"] * r["scale"] for r in ok],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
        "ari": [r["ari"] for r in ok],
        "mixture_mae": [r["mixture_mae"] for r in ok],
        "poi_match": [r["poi_match"] for r in ok],
    }
    return {k: (_median(v), len(v)) for k, v in out.items()}


def _scaled(value: float, unit: str, scale: float) -> float:
    if unit == "s":
        return value * scale
    if unit.endswith("/s"):
        return value / scale
    return value


def per_layer(records: list[dict], declared: dict[str, str]) -> dict[str, tuple[float, int]]:
    traced = [r for r in records if "error" not in r]
    if not traced:
        return {}
    out = {}
    for name, unit in declared.items():
        values = [_scaled(r["layers"].get(name, 0.0), unit, r["scale"]) for r in traced]
        out[name] = (_median(values), len(values))
    return out


def module_breakdown(layers: dict[str, tuple[float, int]]) -> dict[str, float]:
    """Self seconds per module, from the ``<module>.<function>.s`` metrics."""
    modules: dict[str, float] = {}
    for name, (value, _) in layers.items():
        parts = name.split(".")
        if len(parts) == 3 and parts[2] == "s":
            modules[parts[0]] = modules.get(parts[0], 0.0) + value
    return modules


def run_workload(
    root: Path, spec: dict, name: str, seed: int, seconds: float, trace: bool
) -> int:
    result = measure(root, name, seed, seconds, trace)
    records = result["records"]
    failed = [r for r in records if "error" in r or r["failures"]]
    ok = [r for r in records if "error" not in r]
    print(f"workload {name}  seed {seed}  city {result['city'].relative_to(root)}")
    print(
        f"  pipeline runs {len(records)} (failed {len(failed)})  nproc {os.cpu_count()}"
        f"  blas threads {BLAS_THREADS}"
        f"  process threads {max((r['os_threads'] for r in ok), default=0)}"
        f"  closed loop, one job per process"
    )
    for r in failed:
        print(f"  FAILED: {r.get('error') or '; '.join(r['failures'])}")
    print(f"  per {'traced ' if trace else ''}run, unscaled wall pipeline_s/setup_s"
          " x probe scale: " + "  ".join(
              f"{r['pipeline_s']:.3f}/{r['setup_s']:.3f}x{r['scale']:.3f}" for r in ok
          ))
    if trace:
        declared = units(spec, "per_layer")
        values = per_layer(records, declared)
    else:
        declared = units(spec, "end_to_end")
        values = end_to_end(records)
    for metric, unit in declared.items():
        if metric in values:
            value, n = values[metric]
            print(f"  {metric:45s} {value:14.6g} {unit:10s} (median of {n})")
        if metric == "mixture_mae" and ok:
            # most mix towers lie outside the simplex in feature space; this
            # is what answering 1/4 for every weight would score
            uniform = _median([r["uniform_guess_mae"] for r in ok])
            print(f"  {'  uniform-guess mixture_mae':45s} {uniform:14.6g}")
    print(f"  {'failed_share':45s} {len(failed) / len(records):14.6g} {'share':10s}")
    if trace and values:
        modules = module_breakdown(values)
        total = sum(modules.values())
        print(f"  self time by module: {total:.4f} s of traced pipeline_s"
              f" {values['trace.pipeline_s'][0]:.4f} s; benchmark glue outside any span"
              f" {values['trace.unattributed_s'][0]:.4f} s,"
              f" span cost {values['trace.overhead_s'][0]:.4f} s")
        for module, s in sorted(modules.items(), key=lambda kv: -kv[1]):
            print(f"    {module:12s} {s:10.4f} s  {100 * s / total:5.1f}%")
        last = ok[-1]
        trace_path = root / CACHE / "trace" / f"{name}-s{seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps({"spans": last["spans"], "layers": last["layers"]}))
        print(f"  spans written to {trace_path.relative_to(root)}")
    metrics = {m: {"value": values[m][0], "unit": u} for m, u in declared.items() if m in values}
    correct = not failed and len(metrics) == len(declared)
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    for needed in (root / "src" / "cellmine" / "__init__.py", root / "BENCHMARK.json"):
        if not needed.is_file():
            print(f"perfbench: {needed} not found; run from the repository root",
                  file=sys.stderr)
            return 2
    spec = load_spec(root)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        status |= run_workload(root, spec, name, args.seed, seconds, bool(args.trace))
    return status


if __name__ == "__main__":
    sys.exit(main())
