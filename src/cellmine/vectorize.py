"""Turn binned series into fixed-length, zero-score-normalized traffic vectors.

The canonical configuration is 4 aligned weeks of 10-minute slots (4032
values). Vectors can be stored as CSV (``tower_id,degenerate,v0,...``) or as
a compact length-prefixed little-endian binary. In the CSV, ``degenerate`` is
``0`` or ``1``, each value is the shortest repr of its float, and a tower id
holding a comma, a quote, ``\r`` or ``\n`` is quoted with its quotes doubled
(``common.csv_cell``), as every CSV table is.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .common import (
    DEFAULT_TZ_OFFSET_MINUTES,
    SLOT_SECONDS,
    SLOTS_PER_DAY,
    SLOTS_PER_WEEK,
    csv_cell,
    local_seconds_of_day,
    local_weekday,
    read_csv,
    reject_nan,
    reject_repeat,
    write_csv_blocks,
)
from .ingest import BinnedSeries

_BIN_MAGIC = b"CMVEC1\n"


class VectorizeError(ValueError):
    pass


@dataclass(slots=True)
class TrafficVector:
    """Zero-score-normalized per-tower time series.

    ``degenerate`` marks towers whose raw series was constant (dead towers);
    their values are all zero and they are excluded from clustering by default.
    """

    tower_id: str
    values: np.ndarray
    degenerate: bool = False

    @property
    def n(self) -> int:
        return int(self.values.shape[0])


def trim_to_weeks(
    series: BinnedSeries, weeks: int, tz_offset_minutes: int = DEFAULT_TZ_OFFSET_MINUTES
) -> BinnedSeries:
    """Keep the first ``weeks`` whole weeks, each starting on a Monday at
    civil midnight. Slots before the first such Monday are dropped.
    """
    if weeks < 1:
        raise VectorizeError(f"weeks must be >= 1, got {weeks}")
    sod = local_seconds_of_day(series.origin, tz_offset_minutes)
    if sod % SLOT_SECONDS != 0:
        raise VectorizeError(
            f"series origin is not slot-aligned to civil midnight "
            f"(seconds of day {sod}); no week boundary falls on a slot edge"
        )
    # slots until the next civil midnight, then whole days to Monday (weekday 0)
    to_midnight = (-sod % 86400) // SLOT_SECONDS
    first_midnight = series.origin + to_midnight * SLOT_SECONDS
    days_ahead = -local_weekday(first_midnight, tz_offset_minutes) % 7
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
    """Zero-score normalization with the population standard deviation.

    A constant series cannot be scaled; it yields an all-zero vector with the
    degenerate flag set rather than an error. A series that holds inf or NaN,
    or whose std overflows or underflows to 0, raises ``VectorizeError``.
    """
    raw = np.asarray(series.slot_bytes, dtype=float)
    if raw.size == 0:
        raise VectorizeError(f"tower {series.tower_id}: empty series")
    with np.errstate(all="ignore"):
        if np.ptp(raw) == 0.0:
            return TrafficVector(series.tower_id, np.zeros_like(raw), degenerate=True)
        std = raw.std()
        values = (raw - raw.mean()) / std
    # An infinite std makes every z-score 0, so it is tested apart.
    if not (np.isfinite(std) and np.isfinite(values).all()):
        raise VectorizeError(f"tower {series.tower_id}: z-score is not finite (std {float(std)})")
    return TrafficVector(series.tower_id, values, degenerate=False)


def _vectors_header(n: int) -> list[str]:
    return ["tower_id", "degenerate"] + [f"v{i}" for i in range(n)]


def write_vectors_csv(path: str | Path, vectors: Sequence[TrafficVector]) -> Path:
    """Write one row per vector, sorted by tower id. Every vector must hold
    as many values as the first, which sizes the header."""
    n = vectors[0].n if vectors else 0
    for vec in vectors:
        if vec.n != n:
            raise VectorizeError(
                f"tower {vec.tower_id} holds {vec.n} values,"
                f" but tower {vectors[0].tower_id} holds {n}"
            )

    def row(vec: TrafficVector) -> str:
        cells = [csv_cell(vec.tower_id), str(int(vec.degenerate)), *map(repr, vec.values.tolist())]
        return ",".join(cells) + "\n"

    rows = map(row, sorted(vectors, key=lambda v: v.tower_id))
    return write_csv_blocks(path, _vectors_header(n), rows)


def read_vectors_csv(path: str | Path) -> list[TrafficVector]:
    seen: set[str] = set()

    def vector(fields: list[str]) -> TrafficVector:
        reject_repeat(seen, fields[0])
        flag = fields[1]
        if flag not in ("0", "1"):
            raise ValueError(f"degenerate is {flag!r}, not 0 or 1")
        values = np.array([float(x) for x in fields[2:]])
        reject_nan(values, "v{}".format)
        return TrafficVector(fields[0], values, flag == "1")

    with open(path, encoding="utf-8", newline="") as f:
        # The header names one column per value: size it from the first
        # non-blank line, and read_csv checks every name.
        first = next((line for line in iter(f.readline, "") if line.strip("\r\n")), "")
        f.seek(0)
        header = _vectors_header(first.count(",") - 1)
        return list(read_csv(f, header, VectorizeError, path, "vectors", vector))


def write_vectors_binary(path: str | Path, vectors: Sequence[TrafficVector]) -> Path:
    """Length-prefixed binary: magic, u32 record count, then per record a
    u16 id length + UTF-8 id, u8 degenerate flag, u32 value count and the
    values as little-endian float64."""
    path = Path(path)
    with open(path, "wb") as f:
        f.write(_BIN_MAGIC)
        f.write(struct.pack("<I", len(vectors)))
        for vec in sorted(vectors, key=lambda v: v.tower_id):
            ident = vec.tower_id.encode("utf-8")
            f.write(struct.pack("<H", len(ident)))
            f.write(ident)
            f.write(struct.pack("<BI", int(vec.degenerate), vec.n))
            f.write(np.asarray(vec.values, dtype="<f8").tobytes())
    return path


def read_vectors_binary(path: str | Path) -> list[TrafficVector]:
    out = []
    seen: set[str] = set()
    with open(path, "rb") as f:

        def read_exact(size: int) -> bytes:
            data = f.read(size)
            if len(data) != size:
                raise VectorizeError(f"truncated vector file: {path}")
            return data

        magic = f.read(len(_BIN_MAGIC))
        if magic != _BIN_MAGIC:
            raise VectorizeError(f"not a cellmine vector file: {path}")
        (count,) = struct.unpack("<I", read_exact(4))
        for record in range(1, count + 1):
            (id_len,) = struct.unpack("<H", read_exact(2))
            try:
                tower_id = read_exact(id_len).decode("utf-8")
            except UnicodeDecodeError:
                raise VectorizeError(f"{path} record {record}: tower id is not UTF-8") from None
            degenerate, n = struct.unpack("<BI", read_exact(5))
            if degenerate > 1:
                raise VectorizeError(
                    f"{path} record {record}: degenerate flag is {degenerate}, not 0 or 1"
                )
            values = np.frombuffer(read_exact(8 * n), dtype="<f8").astype(float)
            try:
                reject_repeat(seen, tower_id)
                reject_nan(values, "v{}".format)
            except ValueError as exc:
                raise VectorizeError(f"{path} record {record}: {exc}") from None
            out.append(TrafficVector(tower_id, values, bool(degenerate)))
        if f.read(1):
            raise VectorizeError(f"{path}: bytes after the last of {count} records")
    return out


def read_vectors(path: str | Path) -> list[TrafficVector]:
    """Read either format, sniffing the binary magic."""
    with open(path, "rb") as f:
        magic = f.read(len(_BIN_MAGIC))
    if magic == _BIN_MAGIC:
        return read_vectors_binary(path)
    return read_vectors_csv(path)


def vectorize_all(
    series: Iterable[BinnedSeries], weeks: int, tz_offset_minutes: int = DEFAULT_TZ_OFFSET_MINUTES
) -> list[TrafficVector]:
    return [normalize(trim_to_weeks(s, weeks, tz_offset_minutes)) for s in series]
