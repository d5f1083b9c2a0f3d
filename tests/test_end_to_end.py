"""End-to-end oracles: the benchmark's staged pipeline on a small generated city.

``perfbench/pipeline.py`` ``run_pipeline`` runs every stage and writes each
stage's output through its public writer. Two changes of the input must not
change what it writes:

- every valid session's bytes doubled: each statistic after binning is free
  of scale, so only the files that hold byte counts may change;
- the rows of ``sessions.csv`` and ``towers.csv`` in another order: the
  pipeline sorts what it reads, so no staged file may change.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import pipeline  # noqa: E402
from citygen import CitySpec, generate  # noqa: E402

from cellmine.ingest import read_binned  # noqa: E402

CITY = CitySpec(towers=48, sessions_per_block=2)
SEED = 7
# the staged files that hold byte counts, which doubling the bytes doubles
BYTE_FILES = {"binned.npy", "binned_manifest.json", "time_features.csv"}


def run(city: Path, workdir: Path, truth: dict) -> tuple[dict, dict[str, bytes]]:
    """The pipeline's outputs, and every staged file's name and bytes."""
    workdir.mkdir()
    out = pipeline.run_pipeline(city, workdir, truth["origin_epoch_s"], truth["days"],
                                True, pipeline.Tracer(False))
    return out, {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


def rewrite(source: Path, target: Path, edit) -> None:
    """Copy the tables the pipeline reads from the city at ``source`` to
    ``target``, with the lines after each header passed through ``edit(name, lines)``."""
    target.mkdir()
    for name in ("sessions.csv", "towers.csv", "pois.csv"):
        header, *lines = (source / name).read_text().splitlines()
        (target / name).write_text("\n".join([header, *edit(name, lines)]) + "\n")


@pytest.fixture(scope="module")
def city(tmp_path_factory):
    directory = tmp_path_factory.mktemp("city")
    truth = generate(CITY, SEED, directory)
    return directory, truth, run(directory, tmp_path_factory.mktemp("base") / "work", truth)


def _double_bytes(name: str, lines: list[str]) -> list[str]:
    if name != "sessions.csv":
        return lines
    doubled = []
    for line in lines:
        fields = line.split(",")
        if len(fields) == 5 and fields[4].lstrip("-").isdigit():
            fields[4] = str(2 * int(fields[4]))
        doubled.append(",".join(fields))
    return doubled


def test_doubled_bytes_leave_every_scale_free_output_unchanged(city, tmp_path):
    directory, truth, (out, files) = city
    rewrite(directory, tmp_path / "city", _double_bytes)
    doubled, doubled_files = run(tmp_path / "city", tmp_path / "work", truth)
    assert doubled_files.keys() == files.keys()
    changed = {name for name in files if doubled_files[name] != files[name]}
    assert changed == BYTE_FILES
    # vectors, spectral features, mixtures, vertices, assignments, centroids,
    # DBI trace and distance CDF are bit-identical, and so are the energy ratios
    assert doubled["energy"] == out["energy"]
    series, _ = read_binned(tmp_path / "work" / "binned.npy", tmp_path / "work" / "binned_manifest.json")
    assert list(series) == list(out["series"])
    for tower_id, s in series.items():
        assert np.array_equal(s.slot_bytes, 2.0 * out["series"][tower_id].slot_bytes)


def test_shuffled_rows_leave_every_staged_file_unchanged(city, tmp_path):
    directory, truth, (_, files) = city
    rng = np.random.default_rng(SEED)
    rewrite(directory, tmp_path / "city",
            lambda name, lines: [lines[i] for i in rng.permutation(len(lines))]
            if name in ("sessions.csv", "towers.csv") else lines)
    _, shuffled_files = run(tmp_path / "city", tmp_path / "work", truth)
    assert shuffled_files.keys() == files.keys() and len(files) == 15
    assert [name for name in files if shuffled_files[name] != files[name]] == []
