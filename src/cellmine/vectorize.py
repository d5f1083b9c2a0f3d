"""Turn binned series into fixed-length, zero-score-normalized traffic vectors.

The canonical configuration is 4 aligned weeks of 10-minute slots (4032
values). Vectors can be stored as CSV (``tower_id,degenerate,v0,...``) or as
a float64 ``.npy`` of one row per vector by tower id, beside its manifest
``<name>.json`` (row ``values``, per-row ``towers`` and ``degenerate``). In the
CSV, ``degenerate`` is ``0`` or ``1``, each value is the shortest repr of its
float, and a tower id holding a comma, a quote, ``\r`` or ``\n`` is quoted
with its quotes doubled (``common.csv_cell``), as every CSV table is.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .common import (
    NPY_MAGIC,
    SLOT_SECONDS,
    SLOTS_PER_DAY,
    SLOTS_PER_WEEK,
    checked_towers,
    csv_cell,
    finite_entries,
    local_seconds_of_day,
    local_weekday,
    open_reading,
    read_json,
    read_npy,
    read_table,
    reject_bad,
    sorted_by_tower,
    unit_scaled,
    write_csv_blocks,
    write_json,
    write_npy,
)
from .ingest import BinnedSeries


class VectorizeError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class TrafficVector:
    """Zero-score-normalized per-tower time series.

    ``values`` is a read-only 1-D float64 array of finite values: the
    constructor converts them and keeps a read-only view, so the caller's own
    array stays writable and no value changes once checked. A value that is
    not finite, or no number at all, raises ``VectorizeError`` naming the
    tower and its index. ``degenerate`` marks towers whose raw
    series was constant (dead towers); their values are all zero, and a
    degenerate vector holding any other value raises ``VectorizeError``. The
    caller drops them before clustering, which raises ``ClusterError`` on a
    degenerate vector.
    """

    tower_id: str
    values: np.ndarray
    degenerate: bool = False

    def __post_init__(self):
        values, finite = finite_entries(self.values, np.float64)
        if values.ndim != 1:
            raise VectorizeError(f"tower {self.tower_id}: vector of shape {values.shape}")
        reject_bad(values, finite, VectorizeError,
                   lambda i: f"tower {self.tower_id}: v{i}", "a finite value")
        if self.degenerate and np.any(values):
            raise VectorizeError(f"tower {self.tower_id}: degenerate, but its values are not all 0")
        values = values.view()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return int(self.values.shape[0])


def trim_to_weeks(series: BinnedSeries, weeks: int) -> BinnedSeries:
    """Keep the first ``weeks`` whole weeks, each starting on a Monday at
    civil midnight. Slots before the first such Monday are dropped.
    """
    if weeks < 1:
        raise VectorizeError(f"weeks must be >= 1, got {weeks}")
    sod = local_seconds_of_day(series.origin)
    if sod % SLOT_SECONDS != 0:
        raise VectorizeError(
            f"series origin is not slot-aligned to civil midnight "
            f"(seconds of day {sod}); no week boundary falls on a slot edge"
        )
    # slots until the next civil midnight, then whole days to Monday (weekday 0)
    to_midnight = (-sod % 86400) // SLOT_SECONDS
    first_midnight = series.origin + to_midnight * SLOT_SECONDS
    days_ahead = -local_weekday(first_midnight) % 7
    offset = to_midnight + days_ahead * SLOTS_PER_DAY
    needed = offset + weeks * SLOTS_PER_WEEK
    if needed > series.n_slots:
        raise VectorizeError(
            f"tower {series.tower_id}: need {needed} slots "
            f"({weeks} aligned weeks from slot {offset}), have {series.n_slots}"
        )
    return BinnedSeries(
        series.tower_id,
        series.origin + offset * SLOT_SECONDS,
        series.slot_bytes[offset : offset + weeks * SLOTS_PER_WEEK].copy(),
    )


def normalize(series: BinnedSeries) -> TrafficVector:
    """Zero-score normalization with the population standard deviation, of
    the series scaled by ``common.unit_scaled``, so it is finite for every
    finite series. A constant series cannot be scaled; it yields an all-zero
    vector with the degenerate flag set rather than an error. An empty series,
    or one that holds inf or NaN, raises ``VectorizeError``."""
    raw = np.asarray(series.slot_bytes, dtype=float)
    if raw.size == 0:
        raise VectorizeError(f"tower {series.tower_id}: empty series")
    reject_bad(raw, np.isfinite(raw), VectorizeError,
               lambda i: f"tower {series.tower_id}: slot {i}", "a finite count")
    scaled, _ = unit_scaled(raw)
    if np.ptp(scaled) == 0.0:
        return TrafficVector(series.tower_id, np.zeros_like(raw), degenerate=True)
    return TrafficVector(series.tower_id, (scaled - scaled.mean()) / scaled.std(), degenerate=False)


def _vectors_header(n: int) -> list[str]:
    return ["tower_id", "degenerate"] + [f"v{i}" for i in range(n)]


def _ordered(vectors: Sequence[TrafficVector]) -> tuple[list[TrafficVector], int]:
    """``vectors`` in a writer's order, and the values each holds: as many as the first."""
    for vec in vectors:
        if vec.n != vectors[0].n:
            raise VectorizeError(f"tower {vec.tower_id} holds {vec.n} values,"
                                 f" but tower {vectors[0].tower_id} holds {vectors[0].n}")
    return sorted_by_tower(vectors, VectorizeError), vectors[0].n if vectors else 0


def write_vectors_csv(path: str | Path, vectors: Sequence[TrafficVector]) -> Path:
    """Write one row per vector, sorted by tower id. Every vector must hold
    as many values as the first, which sizes the header."""
    ordered, n = _ordered(vectors)

    def row(vec: TrafficVector) -> str:
        cells = [csv_cell(vec.tower_id), str(int(vec.degenerate)), *map(repr, vec.values.tolist())]
        return ",".join(cells) + "\n"

    return write_csv_blocks(path, _vectors_header(n), map(row, ordered), VectorizeError)


def read_vectors_csv(path: str | Path) -> list[TrafficVector]:
    def vector(fields: list[str]) -> TrafficVector:
        flag = fields[1]
        if flag not in ("0", "1"):
            raise ValueError(f"degenerate is {flag!r}, not 0 or 1")
        return TrafficVector(fields[0], np.array([float(x) for x in fields[2:]]), flag == "1")

    # One header column per value, counted on the first non-blank line; read_csv checks it all.
    with open_reading(path, binary=True, error=VectorizeError) as f:
        text = io.TextIOWrapper(f, encoding="utf-8", errors="replace", newline="")
        first = next((line for line in text if line.strip("\r\n")), "")
    header = _vectors_header(first.count(",") - 1)
    return read_table(path, header, VectorizeError, "vectors", vector)


def write_vectors_binary(path: str | Path, vectors: Sequence[TrafficVector]) -> Path:
    """Write the ``.npy`` and manifest of the module docstring. Every vector
    must hold as many values as the first."""
    ordered, n = _ordered(vectors)
    path = write_npy(path, (len(ordered), n), (vec.values for vec in ordered), VectorizeError)
    manifest = {"towers": [vec.tower_id for vec in ordered], "values": n,
                "degenerate": [bool(vec.degenerate) for vec in ordered]}
    write_json(f"{path}.json", manifest, VectorizeError)
    return path


def _checked_manifest(manifest: dict) -> tuple[list[str], list[bool], int]:
    """The manifest's towers, flags and row width, once they are valid."""
    towers, flags, width = manifest["towers"], manifest["degenerate"], manifest["values"]
    checked_towers(towers)
    if not isinstance(flags, list) or list(map(type, flags)) != [bool] * len(towers):
        raise TypeError(f"degenerate is not a list of {len(towers)} bools")
    if type(width) is not int or width < 0:
        raise ValueError(f"values is {width!r}, not a count")
    return towers, flags, width


def read_vectors_binary(path: str | Path) -> list[TrafficVector]:
    """The vectors ``write_vectors_binary`` wrote, rows of one copy of its array. A bad
    manifest or array and a row ``TrafficVector`` rejects raise ``VectorizeError``."""
    towers, flags, width = read_json(f"{path}.json", VectorizeError, _checked_manifest)
    return read_npy(path, (len(towers), width), VectorizeError,
                    lambda matrix: list(map(TrafficVector, towers, matrix, flags)))


def read_vectors(path: str | Path) -> list[TrafficVector]:
    """Read either format, sniffing the ``.npy`` magic."""
    with open_reading(path, binary=True, error=VectorizeError) as f:
        binary = f.read(len(NPY_MAGIC)) == NPY_MAGIC
    return read_vectors_binary(path) if binary else read_vectors_csv(path)


def vectorize_all(series: Iterable[BinnedSeries], weeks: int) -> list[TrafficVector]:
    return [normalize(trim_to_weeks(s, weeks)) for s in series]
