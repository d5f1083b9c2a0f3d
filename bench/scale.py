"""Scale probe: the traced benchmark pipeline on generated cities of growing size.

Run from the repository root:

    python3 bench/scale.py --label "after" [--root DIR]

For 500, 2,000 and 10,000 towers it generates the seed-1 city
``CitySpec(towers=N, sessions_per_block=1)`` with ``perfbench/citygen.py``
(cached under ``bench/.cache``), then runs ``perfbench/pipeline.py``'s traced, in-memory
``run_pipeline`` on it in a fresh process, with BLAS pinned to ``BLAS_THREADS``
threads.
``--root`` picks the checkout whose ``src`` and ``perfbench`` are run, so an
older commit can be measured with this script. The record of each run (the
seconds and ``ru_maxrss`` of importing numpy, scipy and the pipeline with every
``cellmine`` stage, self seconds per stage, ``ru_maxrss``, each stage's
``ru_maxrss`` growth, quality, failed gates, the probe time and the
environment, with ``nproc`` and the ``cpus`` the process may run on) goes into
``BENCH_scale.json`` under ``--label``; records under other labels are kept.
``pipeline_s`` and ``self_s`` are wall seconds; ``pipeline_s_scaled`` and
``self_s_scaled`` are the same times multiplied by the record's ``probe_scale``,
``PROBE_REF_S`` over the probe time. ``BLAS_THREADS`` and ``PROBE_REF_S`` are
imported from ``perfbench/run.py``, so these records are made and scaled as the
benchmark's are. Every benchmark module comes from the ``--root`` checkout.
The 10k city takes minutes and a few GB of memory. This is not part of the
test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

REPO = Path(__file__).resolve().parents[1]
OUT = REPO / "BENCH_scale.json"
CACHE = REPO / "bench" / ".cache"
TOWERS = (500, 2000, 10000)
SEED = 1


def _import_bench(root: Path) -> None:
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]


def rss_growth_per_span(tracer, maxrss_mb) -> dict[str, float]:
    """Make each of ``tracer``'s spans also add the growth of ``maxrss_mb()``
    while it is open to the returned dict, under the span's name. A stage's
    growth is how far it raised the process's peak, so a stage that stays
    below an earlier peak reads 0."""
    growth: dict[str, float] = {}
    span = tracer.span

    @contextmanager
    def measured(name: str):
        before = maxrss_mb()
        with span(name):
            yield
        growth[name] = growth.get(name, 0.0) + maxrss_mb() - before

    tracer.span = measured
    return growth


def run_one(root: Path, city: Path) -> dict:
    """One traced pipeline over ``city``; runs in its own process so that
    ru_maxrss belongs to this city alone, and so that the import of the
    package and the benchmark is timed from a cold start."""
    t0 = perf_counter()
    _import_bench(root)
    import numpy
    import pipeline
    import scipy
    from run import PROBE_REF_S

    import_s = perf_counter() - t0
    import_maxrss_mb = pipeline._maxrss_mb()
    truth = json.loads((city / "truth.json").read_text())
    tracer = pipeline.Tracer(True)
    rss_growth = rss_growth_per_span(tracer, pipeline._maxrss_mb)
    probe_before = pipeline.probe()
    t0 = perf_counter()
    with tempfile.TemporaryDirectory() as workdir:
        out = pipeline.run_pipeline(
            city, Path(workdir), truth["origin_epoch_s"], truth["days"], False, tracer
        )
    pipeline_s = perf_counter() - t0
    maxrss_mb = pipeline._maxrss_mb()
    out["quality"] = pipeline.quality(out, truth)
    self_s = sorted(tracer.self_times().items(), key=lambda kv: -kv[1])
    record = {
        "import_s": round(import_s, 3),
        "import_maxrss_mb": round(import_maxrss_mb, 1),
        "towers": len(out["registry"]),
        "clustered": len(out["usable"]),
        "sessions": len(out["sessions"]),
        "pipeline_s": round(pipeline_s, 3),
        "ru_maxrss_mb": round(maxrss_mb, 1),
        "rss_growth_mb": {
            name: round(mb, 1) for name, mb in sorted(rss_growth.items(), key=lambda kv: -kv[1])
        },
        "r_chosen": out["model"].r,
        **{k: round(v, 6) for k, v in out["quality"].items()},
        "failed_gates": pipeline.check_gates(out, truth),
        "self_s": {name: round(s, 3) for name, s in self_s},
    }
    del out
    probe_s = (probe_before + pipeline.probe()) / 2.0
    record["probe_s"] = round(probe_s, 4)
    scale = PROBE_REF_S / probe_s
    record["probe_scale"] = round(scale, 4)
    record["pipeline_s_scaled"] = round(pipeline_s * scale, 3)
    record["self_s_scaled"] = {name: round(s * scale, 3) for name, s in self_s}
    record["environment"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus": len(os.sched_getaffinity(0)),
    }
    return record


def city_for(root: Path, towers: int) -> Path:
    city = CACHE / f"city-{towers}-s{SEED}"
    if not (city / "truth.json").exists():
        from citygen import CitySpec, generate

        generate(CitySpec(towers=towers, sessions_per_block=1), SEED, city)
    return city


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="key of this run in the output")
    parser.add_argument("--root", type=Path, default=REPO, help="checkout to measure")
    parser.add_argument("--one", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if args.one:
        print(json.dumps(run_one(root, args.one)))
        return 0

    _import_bench(root)
    from run import BLAS_THREADS

    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    records = {}
    for towers in TOWERS:
        city = city_for(root, towers)
        proc = subprocess.run(
            [sys.executable, __file__, "--label", args.label, "--root", str(root),
             "--one", str(city)],
            env=env, capture_output=True, text=True, check=True,
        )
        records[str(towers)] = json.loads(proc.stdout.strip().splitlines()[-1])
        r = records[str(towers)]
        print(f"{towers} towers: import {r['import_s']} s ({r['import_maxrss_mb']} MB),"
              f" {r['pipeline_s']} s, ru_maxrss {r['ru_maxrss_mb']} MB,"
              f" ari {r['ari']}, poi_match {r['poi_match']}", flush=True)
    doc = json.loads(OUT.read_text()) if OUT.exists() else {}
    doc["command"] = "python3 bench/scale.py --label LABEL [--root CHECKOUT]"
    doc["seed"] = SEED
    doc.setdefault("runs", {})[args.label] = records
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
