import json
import shutil
import subprocess
import sys

import pipeline
import run
from conftest import BENCH_DIR, ROOT


def _child_record(capsys, city, workdir, trace):
    args = ["--city", str(city), "--workload", "staged-roundtrip", "--workdir", str(workdir),
            "--trace", str(trace)]
    assert pipeline.main(args) == 0
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    record["setup_s"] = 1.0
    record["scale"] = 1.0
    return record


def test_printed_metric_names_match_benchmark_json(smoke_city, declared, capsys, tmp_path):
    city, _ = smoke_city
    plain = _child_record(capsys, city, tmp_path / "plain", 0)
    traced = _child_record(capsys, city, tmp_path / "traced", 1)

    e2e = {m["name"] for m in declared["end_to_end"]}
    layers = {m["name"] for m in declared["per_layer"]}
    assert set(run.end_to_end([plain])) == e2e
    # the staged workload opens every span
    assert set(traced["layers"]) == layers
    units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert set(run.per_layer([traced], units)) == layers
    assert 0 < traced["layers"]["trace.overhead_s"] < traced["pipeline_s"]


def test_self_times_add_up_to_the_traced_pipeline(smoke_city, tmp_path):
    city, truth = smoke_city
    tracer = pipeline.Tracer(True)
    pipeline.run_pipeline(city, tmp_path, truth["origin_epoch_s"], truth["days"], True, tracer)
    root = [s for s in tracer.spans if s[0] == "pipeline"]
    assert len(root) == 1
    total = root[0][2] - root[0][1]
    assert abs(sum(tracer.self_times().values()) - total) < 1e-9
    assert all(parent in (-1, 0) for *_, parent in tracer.spans)


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".cache", "__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest-dense", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert not (tmp_path / "perfbench" / ".cache").exists()
