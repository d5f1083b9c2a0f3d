"""Session-log ingestion: parse, deduplicate, and bin traffic into 10-minute slots.

Wire formats:
    sessions.csv  ``user_id,tower_id,start_epoch_s,end_epoch_s,bytes``
    towers.csv    ``tower_id,lat,lon``
    binned.csv    ``tower_id,slot_index,bytes`` (zero slots omitted) plus a JSON
                  manifest carrying origin, slot_seconds=600, days and the tower list.

``deduplicate`` and ``bin_traffic`` work on whole arrays, one entry per session
(or per session and slot). ``deduplicate`` sorts on integer keys; it reads and
compares user ids only for the sessions that share a (tower_id, start) with
another. Both compute in int64; ``SessionLog`` holds the one rule of a valid
session, which keeps that exact, and ``parse_sessions`` reports a row that breaks it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .common import (
    DEFAULT_TZ_OFFSET_MINUTES,
    SLOT_SECONDS,
    SLOTS_PER_DAY,
    csv_cell,
    epoch_to_iso,
    parse_lat_lon,
    read_csv,
    read_header,
    read_json,
    write_csv_blocks,
    write_json,
)

SESSIONS_HEADER = ["user_id", "tower_id", "start_epoch_s", "end_epoch_s", "bytes"]
TOWERS_HEADER = ["tower_id", "lat", "lon"]
BINNED_HEADER = ["tower_id", "slot_index", "bytes"]

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
# bin_traffic multiplies a byte count by an overlap of at most one slot in int64.
_MAX_BYTES = _INT64_MAX // SLOT_SECONDS


class IngestError(ValueError):
    """Raised on malformed input files and on an invalid ``SessionLog``."""


@dataclass(frozen=True, slots=True)
class SessionLog:
    """One anonymized data-usage session. A valid one has non-empty ids,
    ``end >= start``, ``bytes >= 0``, and ``start``, ``end``, ``end - start``
    and ``bytes * SLOT_SECONDS`` inside the int64 range that ``deduplicate``
    and ``bin_traffic`` compute in. Building an invalid session, also by
    ``dataclasses.replace``, raises ``IngestError`` with the reason that
    ``parse_sessions`` reports for its row."""

    user_id: str
    tower_id: str
    start: int
    end: int
    bytes: int

    def __post_init__(self) -> None:
        if not self.user_id or not self.tower_id:
            raise IngestError("empty user_id or tower_id")
        if self.end < self.start:
            raise IngestError("end < start")
        if self.bytes < 0:
            raise IngestError("negative bytes")
        # With end >= start and bytes >= 0, these are the int64 limits left.
        if self.start < _INT64_MIN or self.end > _INT64_MAX:
            raise IngestError("timestamp outside the int64 range")
        if self.end - self.start > _INT64_MAX:
            raise IngestError("end - start overflows int64")
        if self.bytes > _MAX_BYTES:
            raise IngestError(f"bytes * {SLOT_SECONDS} overflows int64")


@dataclass(frozen=True, slots=True)
class TowerRecord:
    tower_id: str
    lat: float
    lon: float


@dataclass(slots=True)
class BinnedSeries:
    """Per-tower traffic totals over consecutive 10-minute slots."""

    tower_id: str
    origin: int
    slot_bytes: np.ndarray

    @property
    def n_slots(self) -> int:
        return int(self.slot_bytes.shape[0])


@dataclass(frozen=True, slots=True)
class RejectedRow:
    line_no: int
    line: str
    reason: str


@dataclass(slots=True)
class BinResult:
    series: dict[str, BinnedSeries]
    unknown_towers: int
    out_of_window_bytes: float


def _session_from_row(row: Sequence[str]) -> SessionLog:
    if len(row) != 5:
        raise ValueError(f"expected 5 fields, got {len(row)}")
    user_id, tower_id, start_s, end_s, bytes_s = row
    user_id, tower_id = user_id.strip(), tower_id.strip()
    try:
        start, end, nbytes = int(start_s), int(end_s), int(bytes_s)
    except ValueError:
        # An empty id is the reason given even when a number is bad too.
        SessionLog(user_id, tower_id, 0, 0, 0)
        raise ValueError("non-integer timestamp or byte count") from None
    return SessionLog(user_id, tower_id, start, end, nbytes)


def parse_sessions(lines: Iterable[str]) -> tuple[list[SessionLog], list[RejectedRow]]:
    """Parse a sessions.csv stream.

    Malformed rows go to the reject report and parsing continues. An empty
    stream gives no sessions; otherwise its first non-blank row must be the
    header. This is the one reader that carries on past a bad row, so it
    keeps its own row loop in place of ``read_csv``.
    """
    reader = csv.reader(lines)
    sessions: list[SessionLog] = []
    rejects: list[RejectedRow] = []
    if not read_header(reader, SESSIONS_HEADER, IngestError, "sessions", "sessions"):
        return sessions, rejects
    for row in reader:
        if not row:
            continue
        try:
            sessions.append(_session_from_row(row))
        except ValueError as exc:
            rejects.append(RejectedRow(reader.line_num, ",".join(row), str(exc)))
    return sessions, rejects


def parse_towers(lines: Iterable[str]) -> dict[str, TowerRecord]:
    """Parse towers.csv into a registry. The registry must be clean: any
    malformed row or duplicate tower_id raises."""
    registry: dict[str, TowerRecord] = {}

    def tower(fields: list[str]) -> TowerRecord:
        tower_id, lat, lon = fields
        tower_id = tower_id.strip()
        coordinates = parse_lat_lon(lat, lon)
        if not tower_id:
            raise ValueError("empty tower_id")
        if tower_id in registry:
            raise ValueError(f"duplicate tower_id {tower_id}")
        return TowerRecord(tower_id, *coordinates)

    for record in read_csv(lines, TOWERS_HEADER, IngestError, "towers", "towers", tower):
        registry[record.tower_id] = record
    return registry


def _int64_fields(logs: list[SessionLog]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """start, end and bytes of every session as int64 arrays; SessionLog keeps them in range."""
    return tuple(
        np.fromiter(map(attrgetter(name), logs), np.int64, len(logs))
        for name in ("start", "end", "bytes")
    )


def _codes(ids: list[str], names: list[str]) -> np.ndarray:
    """Position of each id in ``names``, or -1 for an id not in it."""
    index = dict(zip(names, range(len(names))))
    return np.fromiter(map(index.get, ids, repeat(-1)), np.int64, len(ids))


def deduplicate(logs: Iterable[SessionLog]) -> list[SessionLog]:
    """Collapse exact duplicates; for conflicting logs (same user, tower and
    interval but different bytes) keep the one with the larger byte count.

    Returns input objects, one per (user_id, tower_id, start, end), sorted by
    (tower_id, start, user_id, end). A stable ``np.lexsort`` orders every
    session by (tower_id, start, end, bytes) on int64 keys. User ids are
    compared, as Python strings, only among the sessions that share a
    (tower_id, start) with another: a second stable lexsort orders each such
    group by the rank of its ids among the sorted distinct ids of all groups.
    Each group of duplicates is then a run that ends with its largest byte
    count, and the last of each run is kept.
    """
    logs = list(logs)
    start, end, nbytes = _int64_fields(logs)
    towers = [s.tower_id for s in logs]
    tower = _codes(towers, sorted(set(towers)))
    order = np.lexsort((nbytes, end, start, tower))
    # first[i]: the i-th sorted session starts a (tower_id, start) group.
    group = np.stack((tower, start))[:, order]
    first = np.ones(len(logs), dtype=bool)
    first[1:] = (group[:, 1:] != group[:, :-1]).any(axis=0)
    # Only in a group of two or more do user ids decide the order.
    tied = ~first
    tied[:-1] |= ~first[1:]
    ranked = order[tied]
    # Ids are read in input order: the sorted order scatters the reads.
    idx = np.sort(ranked)
    users = [logs[i].user_id for i in idx.tolist()]
    user = np.zeros(len(logs), dtype=np.int64)
    user[idx] = _codes(users, sorted(set(users)))
    order[tied] = ranked[np.lexsort((user[ranked], np.cumsum(first)[tied]))]
    key = np.stack((tower, start, user, end))[:, order]
    last = np.ones(len(logs), dtype=bool)
    last[:-1] = (key[:, 1:] != key[:, :-1]).any(axis=0)
    return list(map(logs.__getitem__, order[last].tolist()))


def bin_traffic(
    logs: Iterable[SessionLog],
    origin: int,
    days: int,
    registry: dict[str, TowerRecord],
) -> BinResult:
    """Spread each session's bytes over the 10-minute slots it overlaps,
    proportionally to overlap duration.

    Zero-duration sessions assign all bytes to the slot containing their
    start. Portions outside [origin, origin + days*86400) are dropped and
    accounted in ``out_of_window_bytes``. Sessions on towers missing from
    the registry are counted and skipped, and every registry tower gets a
    series (all-zero if silent). Series come sorted by tower id.

    A session's share of a slot is ``bytes * overlap / duration``, the
    product in int64 and the quotient in float64. While ``bytes * overlap``
    stays below 2**53 it converts to float64 exactly, and the share is the
    correctly rounded quotient; above that it is rounded twice. The dropped
    part outside the window is computed in float64 with the same 2**53
    bound. One ``np.bincount`` adds the shares in input order, so each slot
    is the left-to-right float64 sum of its sessions' shares, and
    ``out_of_window_bytes`` the left-to-right sum of their dropped parts.
    ``SessionLog`` keeps every int64 product and difference here exact.

    Working memory holds several int64/float64 arrays with one entry per
    (session, slot) pair, so it grows with the total number of slots the
    sessions cover: up to ``len(logs) * days * 144`` entries for sessions
    that span the whole window.
    """
    if days <= 0:
        raise IngestError(f"days must be positive, got {days}")
    logs = list(logs)
    n_slots = days * SLOTS_PER_DAY
    window_end = origin + days * 86400
    start, end, nbytes = _int64_fields(logs)
    towers = [s.tower_id for s in logs]
    names = sorted(registry)
    code = _codes(towers, names)
    known = code >= 0

    zero = end == start
    lo = np.maximum(start, origin)
    hi = np.minimum(end, window_end)
    hit = np.flatnonzero(known & ((lo < hi) | (zero & (origin <= start) & (start < window_end))))
    # A zero-duration session counts as the one second [start, start + 1).
    one = zero[hit]
    duration = end[hit] + one - start[hit]
    lo, hi = lo[hit], hi[hit] + one
    first = (lo - origin) // SLOT_SECONDS
    count = (hi - 1 - origin) // SLOT_SECONDS - first + 1

    # One entry per (session, slot), sessions in input order.
    slot = np.arange(count.sum()) + np.repeat(first - (np.cumsum(count) - count), count)
    slot_start = origin + slot * SLOT_SECONDS
    slot_end = np.minimum(np.repeat(end[hit] + one, count), slot_start + SLOT_SECONDS)
    overlap = slot_end - np.maximum(np.repeat(start[hit], count), slot_start)
    share = np.repeat(nbytes[hit], count) * overlap / np.repeat(duration, count)
    flat = np.repeat(code[hit] * n_slots, count) + slot
    sums = np.bincount(flat, weights=share, minlength=len(names) * n_slots)
    sums = sums.reshape(len(names), n_slots)

    dropped = np.where(known, nbytes, 0).astype(np.float64)
    # The outside seconds can reach end - start, so this product is taken in
    # float64, where it cannot overflow and is exact below 2**53.
    dropped[hit] = nbytes[hit].astype(np.float64) * (duration - (hi - lo)) / duration
    series = {name: BinnedSeries(name, origin, sums[i]) for i, name in enumerate(names)}
    out_of_window = float(np.cumsum(dropped)[-1]) if len(logs) else 0.0
    return BinResult(series, int(np.count_nonzero(~known)), out_of_window)


def write_binned(
    directory: str | Path,
    result: BinResult,
    origin: int,
    days: int,
    tz_offset_minutes: int = DEFAULT_TZ_OFFSET_MINUTES,
) -> tuple[Path, Path]:
    """Write binned.csv (non-zero slots only) and its JSON manifest. The
    manifest also records ``origin`` as an ISO date, so it must lie in the
    years 1 to 9999. Every slot must hold a finite, non-negative byte count,
    as ``read_binned`` requires."""
    try:
        origin_iso = epoch_to_iso(origin, tz_offset_minutes)
    except (OverflowError, ValueError):
        raise IngestError(f"origin {origin} is not a date in the years 1 to 9999") from None
    towers = sorted(result.series)
    for tower_id in towers:
        values = result.series[tower_id].slot_bytes
        bad = np.flatnonzero(~((values >= 0.0) & (values < np.inf)))
        if bad.size:
            raise IngestError(
                f"tower {tower_id} slot {bad[0]} holds {values[bad[0]]}, not a number in [0, inf)"
            )
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    def nonzero_rows(tower_id: str) -> str:
        values = result.series[tower_id].slot_bytes
        idx = np.flatnonzero(values)
        q = csv_cell(tower_id)
        return "".join(f"{q},{i},{x!r}\n" for i, x in zip(idx.tolist(), values[idx].tolist()))

    csv_path = write_csv_blocks(directory / "binned.csv", BINNED_HEADER, map(nonzero_rows, towers))
    manifest = {
        "origin_epoch_s": origin,
        "origin_iso": origin_iso,
        "slot_seconds": SLOT_SECONDS,
        "days": days,
        "tz_offset_minutes": tz_offset_minutes,
        "towers": towers,
        "unknown_tower_sessions": result.unknown_towers,
        "out_of_window_bytes": result.out_of_window_bytes,
    }
    return csv_path, write_json(directory / "binned_manifest.json", manifest)


def _manifest_series(manifest: dict) -> tuple[dict, dict[str, BinnedSeries]]:
    """The manifest and one all-zero series per manifest tower."""
    origin = manifest["origin_epoch_s"]
    if type(origin) is not int:
        raise TypeError(f"origin_epoch_s is {origin!r}, not an integer")
    towers = manifest["towers"]
    if not (isinstance(towers, list) and all(isinstance(t, str) for t in towers)):
        raise TypeError("towers is not a list of strings")
    if manifest["slot_seconds"] != SLOT_SECONDS:
        raise ValueError(f"slot_seconds is {manifest['slot_seconds']!r}, not {SLOT_SECONDS}")
    days = manifest["days"]
    if type(days) is not int or days < 1:
        raise ValueError(f"days is {days!r}, not a positive integer")
    n_slots = days * SLOTS_PER_DAY
    return manifest, {t: BinnedSeries(t, origin, np.zeros(n_slots)) for t in towers}


def read_binned(csv_path: str | Path, manifest_path: str | Path) -> tuple[dict[str, BinnedSeries], dict]:
    manifest, series = read_json(manifest_path, IngestError, _manifest_series)
    n_slots = manifest["days"] * SLOTS_PER_DAY
    # Rows go into Python lists, which read and store one value faster than
    # an array does, and each list becomes its tower's array at the end.
    lists = {t: [0.0] * n_slots for t in series}

    def slot_value(fields: list[str]) -> tuple[list[float], int, float]:
        tower_id, idx, value = fields
        slots = lists.get(tower_id)
        if slots is None:
            raise ValueError(f"tower {tower_id} is not in the manifest")
        slot = int(idx)
        if not 0 <= slot < n_slots:
            raise ValueError(f"slot {slot} outside 0..{n_slots - 1}")
        nbytes = float(value)
        if not 0.0 <= nbytes < np.inf:  # also false for NaN
            raise ValueError(f"bytes {value} is not a number in [0, inf)")
        # write_binned writes each (tower, slot) at most once, so a slot that
        # is already nonzero shows a repeated row without a seen-set.
        if slots[slot]:
            raise ValueError(f"tower {tower_id} slot {slot} already holds {slots[slot]}")
        return slots, slot, nbytes

    with open(csv_path, encoding="utf-8", newline="") as f:
        for slots, slot, value in read_csv(
            f, BINNED_HEADER, IngestError, csv_path, "binned", slot_value
        ):
            slots[slot] = value
    for tower_id, values in lists.items():
        series[tower_id].slot_bytes = np.array(values)
    return series, manifest

