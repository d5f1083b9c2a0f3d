"""End-to-end oracles: the benchmark's staged pipeline on a small generated city.

``perfbench/pipeline.py`` ``run_pipeline`` runs every stage and writes each
stage's output through its public writer. Three changes of the input may
change what it writes only as follows:

- every valid session's bytes times 2 or 8: each statistic after binning is
  free of scale, so only the files that hold byte counts may change;
- the rows of ``sessions.csv`` and ``towers.csv`` in another order: the
  pipeline sorts what it reads, so no staged file may change;
- every tower id given one prefix that holds a comma, a quote and a
  non-ASCII character: it keeps the ids' order, so the files that hold no id
  may not change, and every other file reads back as before, under the new ids.
"""

import csv
import json
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
# the staged files that hold byte counts, which scaling the bytes scales
BYTE_FILES = {"binned.npy", "binned_manifest.json", "time_features.csv"}


def run(city: Path, workdir: Path, truth: dict) -> tuple[dict, dict[str, bytes]]:
    """The pipeline's outputs, and every staged file's name and bytes."""
    workdir.mkdir()
    out = pipeline.run_pipeline(city, workdir, truth["origin_epoch_s"], truth["days"],
                                True, pipeline.Tracer(False))
    return out, {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


def rewrite(source: Path, target: Path, edit) -> None:
    """Copy the tables the pipeline reads from the city at ``source`` to
    ``target``, with the rows after each header, as lists of cells, passed
    through ``edit(name, rows)`` and written by ``csv.writer``."""
    target.mkdir()
    for name in ("sessions.csv", "towers.csv", "pois.csv"):
        with open(source / name, newline="", encoding="utf-8") as f:
            header, *rows = csv.reader(f)
        with open(target / name, "w", newline="", encoding="utf-8") as f:
            csv.writer(f, lineterminator="\n").writerows([header, *edit(name, rows)])


@pytest.fixture(scope="module")
def city(tmp_path_factory):
    directory = tmp_path_factory.mktemp("city")
    truth = generate(CITY, SEED, directory)
    return directory, truth, run(directory, tmp_path_factory.mktemp("base") / "work", truth)


def _scale_bytes(factor: int):
    def edit(name: str, rows: list[list[str]]) -> list[list[str]]:
        if name != "sessions.csv":
            return rows
        return [row[:4] + [str(factor * int(row[4]))]
                if len(row) == 5 and row[4].lstrip("-").isdigit() else row for row in rows]

    return edit


@pytest.mark.parametrize("factor", [2, 8])
def test_scaled_bytes_leave_every_scale_free_output_unchanged(city, tmp_path, factor):
    directory, truth, (out, files) = city
    rewrite(directory, tmp_path / "city", _scale_bytes(factor))
    scaled, scaled_files = run(tmp_path / "city", tmp_path / "work", truth)
    assert scaled_files.keys() == files.keys()
    changed = {name for name in files if scaled_files[name] != files[name]}
    assert changed == BYTE_FILES
    # vectors, spectral features, mixtures, vertices, assignments, centroids,
    # DBI trace and distance CDF are bit-identical, and so are the energy ratios
    assert scaled["energy"] == out["energy"]
    series, _ = read_binned(tmp_path / "work" / "binned.npy", tmp_path / "work" / "binned_manifest.json")
    assert list(series) == list(out["series"])
    for tower_id, s in series.items():
        assert np.array_equal(s.slot_bytes, factor * out["series"][tower_id].slot_bytes)


def test_shuffled_rows_leave_every_staged_file_unchanged(city, tmp_path):
    directory, truth, (_, files) = city
    rng = np.random.default_rng(SEED)
    rewrite(directory, tmp_path / "city",
            lambda name, rows: [rows[i] for i in rng.permutation(len(rows))]
            if name in ("sessions.csv", "towers.csv") else rows)
    _, shuffled_files = run(tmp_path / "city", tmp_path / "work", truth)
    assert shuffled_files.keys() == files.keys() and len(files) == 15
    assert [name for name in files if shuffled_files[name] != files[name]] == []


# A comma and a quote, which a CSV cell must quote, and a non-ASCII character.
# It begins with a capital, so that the ids keep their order against the
# lower-case "cluster" rows of time_features.csv.
PREFIX = 'Q,"塔-'
# the staged files that hold no tower id
ID_FREE_FILES = {"binned.npy", "vectors.bin", "centroids.csv", "dbi_trace.csv",
                 "distance_cdf.csv", "poi_table.csv"}


def _prefix_ids(name: str, rows: list[list[str]]) -> list[list[str]]:
    column = {"sessions.csv": 1, "towers.csv": 0}.get(name)
    if column is None:
        return rows
    return [row[:column] + [PREFIX + row[column].strip()] + row[column + 1:]
            if len(row) > column else row for row in rows]


def read_back(name: str, data: bytes):
    """A staged file's content: the rows of a CSV file or the value of a JSON one."""
    text = data.decode("utf-8")
    return json.loads(text) if name.endswith(".json") else list(csv.reader(text.splitlines(True)))


def test_prefixed_tower_ids_leave_every_output_unchanged_under_the_new_ids(city, tmp_path):
    directory, truth, (out, files) = city
    rewrite(directory, tmp_path / "city", _prefix_ids)
    _, prefixed_files = run(tmp_path / "city", tmp_path / "work", truth)
    assert prefixed_files.keys() == files.keys()
    ids = set(out["registry"])

    def renamed(value):
        if isinstance(value, str):
            return PREFIX + value if value in ids else value
        if isinstance(value, list):
            return [renamed(v) for v in value]
        if isinstance(value, dict):
            return {renamed(k): renamed(v) for k, v in value.items()}
        return value

    for name in files:
        if name in ID_FREE_FILES:
            assert prefixed_files[name] == files[name], name
        else:
            assert read_back(name, prefixed_files[name]) == renamed(read_back(name, files[name])), name
            assert prefixed_files[name] != files[name], name
