"""Session-log ingestion: parse, deduplicate, and bin traffic into 10-minute slots.

Wire formats:
    sessions.csv  ``user_id,tower_id,start_epoch_s,end_epoch_s,bytes``
    towers.csv    ``tower_id,lat,lon``
    binned.npy    the towers x slots float64 array of ``common.write_npy``; its JSON
                  manifest names the towers, origin, slot_seconds=600, days and tz_offset_minutes=480.

``deduplicate`` and ``bin_traffic`` work on whole arrays with one entry per
session; ``bin_traffic`` also on arrays with one entry per session and slot,
for one chunk of sessions at a time. ``deduplicate`` sorts on integer keys; it
reads user ids, ends and byte counts only for the sessions that share a
(tower_id, start) with another. Both compute in int64. ``_session_fault``
holds the one rule of a valid session, which keeps that exact:
``SessionLog`` raises its reason, and ``parse_sessions`` applies it once per
row and reports a row that breaks it.
"""

from __future__ import annotations

import csv
import sys
from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .common import (
    SLOT_SECONDS,
    SLOTS_PER_DAY,
    TZ_OFFSET_MINUTES,
    checked_towers,
    csv_errors,
    epoch_to_iso,
    parse_lat_lon,
    read_csv,
    read_header,
    read_json,
    read_npy,
    reject_bad,
    reject_repeat,
    write_json,
    write_npy,
)

SESSIONS_HEADER = ["user_id", "tower_id", "start_epoch_s", "end_epoch_s", "bytes"]
TOWERS_HEADER = ["tower_id", "lat", "lon"]

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
# bin_traffic multiplies a byte count by an overlap of at most one slot in int64.
_MAX_BYTES = _INT64_MAX // SLOT_SECONDS
# (session, slot) pairs that bin_traffic expands at once
BIN_PAIRS = 1 << 16


class IngestError(ValueError):
    """Raised on malformed input files and on an invalid ``SessionLog``."""


@dataclass(frozen=True, slots=True)
class SessionLog:
    """One anonymized data-usage session. A valid one has non-empty ids,
    ``end >= start``, ``bytes >= 0``, and ``start``, ``end``, ``end - start``
    and ``bytes * SLOT_SECONDS`` inside the int64 range that ``deduplicate``
    and ``bin_traffic`` compute in. That rule is ``_session_fault``. Building
    an invalid session, also by ``dataclasses.replace``, raises ``IngestError``
    with its reason, the one ``parse_sessions`` reports for the row."""

    user_id: str
    tower_id: str
    start: int
    end: int
    bytes: int

    def __post_init__(self) -> None:
        reason = _session_fault(self.user_id, self.tower_id, self.start, self.end, self.bytes)
        if reason is not None:
            raise IngestError(reason)


def _session_fault(user_id: str, tower_id: str, start: int, end: int, nbytes: int) -> str | None:
    """Why a session of these fields is not valid, or None if it is: the one
    rule that ``SessionLog`` and ``parse_sessions`` both apply."""
    if not user_id or not tower_id:
        return "empty user_id or tower_id"
    if end < start:
        return "end < start"
    if nbytes < 0:
        return "negative bytes"
    # With end >= start and bytes >= 0, these are the int64 limits left.
    if start < _INT64_MIN or end > _INT64_MAX:
        return "timestamp outside the int64 range"
    if end - start > _INT64_MAX:
        return "end - start overflows int64"
    if nbytes > _MAX_BYTES:
        return f"bytes * {SLOT_SECONDS} overflows int64"
    return None


@dataclass(frozen=True, slots=True)
class TowerRecord:
    tower_id: str
    lat: float
    lon: float


@dataclass(slots=True)
class BinnedSeries:
    """Per-tower traffic totals over consecutive 10-minute slots, a 1-D array
    whenever it is set, at construction or later. It stays writable, as the
    benchmark's gate test adds bytes to a slot in place, so ``normalize`` and
    ``daily_profile`` check the slots they read."""

    tower_id: str
    origin: int
    slot_bytes: np.ndarray

    def __setattr__(self, name: str, value: Any) -> None:
        if name == "slot_bytes" and np.ndim(value) != 1:
            raise IngestError(f"tower {self.tower_id}: series of shape {np.shape(value)}")
        object.__setattr__(self, name, value)

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


def parse_sessions(lines: Iterable[str]) -> tuple[list[SessionLog], list[RejectedRow]]:
    """Parse a sessions.csv stream.

    Malformed rows go to the reject report and parsing continues. An empty
    stream gives no sessions; otherwise its first non-blank row must be the
    header. This is the one reader that carries on past a bad row, so it
    keeps its own row loop in place of ``read_csv``. Each row is checked once,
    by the rule ``SessionLog`` applies; the session of a valid row has its
    slots filled directly, since ``SessionLog(...)`` would check it again.
    """
    reader = csv.reader(lines)
    sessions: list[SessionLog] = []
    rejects: list[RejectedRow] = []
    set_user, set_tower, set_start, set_end, set_bytes = (
        getattr(SessionLog, name).__set__ for name in SessionLog.__slots__
    )
    with csv_errors(reader, IngestError, "sessions"):
        if not read_header(reader, SESSIONS_HEADER, IngestError, "sessions", "sessions"):
            return sessions, rejects
        for row in reader:
            if not row:
                continue
            if len(row) != 5:
                reason = f"expected 5 fields, got {len(row)}"
            else:
                user_id, tower_id, start, end, nbytes = row
                # One str per tower id: the many sessions of a tower share it.
                user_id, tower_id = user_id.strip(), sys.intern(tower_id.strip())
                try:
                    start, end, nbytes = int(start), int(end), int(nbytes)
                except ValueError:
                    # An empty id is the reason given even when a number is bad too.
                    reason = (_session_fault(user_id, tower_id, 0, 0, 0)
                              or "non-integer timestamp or byte count")
                else:
                    reason = _session_fault(user_id, tower_id, start, end, nbytes)
                if reason is None:
                    session = object.__new__(SessionLog)
                    set_user(session, user_id)
                    set_tower(session, tower_id)
                    set_start(session, start)
                    set_end(session, end)
                    set_bytes(session, nbytes)
                    sessions.append(session)
                    continue
            rejects.append(RejectedRow(reader.line_num, ",".join(row), reason))
    return sessions, rejects


def parse_towers(lines: Iterable[str]) -> dict[str, TowerRecord]:
    """Parse towers.csv into a registry. The registry must be clean: any
    malformed row or repeated tower_id raises."""
    seen: set[str] = set()

    def tower(fields: list[str]) -> TowerRecord:
        tower_id, lat, lon = fields
        tower_id = tower_id.strip()
        coordinates = parse_lat_lon(lat, lon)
        if not tower_id:
            raise ValueError("empty tower_id")
        reject_repeat(seen, tower_id)
        return TowerRecord(tower_id, *coordinates)

    records = read_csv(lines, TOWERS_HEADER, IngestError, "towers", "towers", tower)
    return {record.tower_id: record for record in records}


def _int64_fields(logs: list[SessionLog], *names: str) -> tuple[np.ndarray, ...]:
    """The ``names`` fields of every session as int64 arrays; SessionLog keeps them in range."""
    return tuple(np.fromiter(map(attrgetter(name), logs), np.int64, len(logs)) for name in names)


def _codes(ids: list[str], names: list[str]) -> np.ndarray:
    """Position of each id in ``names``, or -1 for an id not in it."""
    index = dict(zip(names, range(len(names))))
    return np.fromiter(map(index.get, ids, repeat(-1)), np.int64, len(ids))


def _ranks(ids: list[str]) -> np.ndarray:
    """Rank of each id among the sorted distinct ids."""
    return _codes(ids, sorted(set(ids)))


def deduplicate(logs: Iterable[SessionLog]) -> list[SessionLog]:
    """Collapse exact duplicates; for conflicting logs (same user, tower and
    interval but different bytes) keep the one with the larger byte count.

    Returns input objects, one per (user_id, tower_id, start, end), sorted by
    (tower_id, start, user_id, end). A stable ``np.lexsort`` orders every
    session by (tower_id, start) on int64 keys, and a session alone in its
    (tower_id, start) group is kept as it is. Only the sessions of the groups
    of two or more have their user id, end and bytes read. One stable lexsort
    ranks them on (group, user, end, bytes), where user is the rank of the id
    among the sorted distinct ids of all such groups, compared as Python
    strings. Each set of duplicates is then a run that ends with its largest
    byte count, and the last of each run is kept.
    """
    logs = list(logs)
    (start,) = _int64_fields(logs, "start")
    tower = _ranks([s.tower_id for s in logs])
    order = np.lexsort((start, tower))
    tower, start = tower[order], start[order]
    # first[i]: the i-th sorted session starts a (tower_id, start) group.
    first = np.ones(len(logs), dtype=bool)
    first[1:] = (tower[1:] != tower[:-1]) | (start[1:] != start[:-1])
    tied = ~first
    tied[:-1] |= ~first[1:]
    # The tied sessions are read in input order: the sorted order scatters the reads.
    ranked = order[tied]
    inv = np.argsort(ranked)
    idx = ranked[inv]
    group_logs = [logs[i] for i in idx.tolist()]
    end, nbytes = _int64_fields(group_logs, "end", "bytes")
    key = np.stack((np.cumsum(first)[tied][inv], _ranks([s.user_id for s in group_logs]), end))
    rank = np.lexsort((nbytes, *key[::-1]))
    order[tied] = idx[rank]
    key = key[:, rank]
    last = np.ones(len(idx), dtype=bool)
    last[:-1] = (key[:, 1:] != key[:, :-1]).any(axis=0)
    keep = ~tied
    keep[tied] = last
    return list(map(logs.__getitem__, order[keep].tolist()))


def _chunks(pairs: np.ndarray) -> Iterator[slice]:
    """Consecutive slices of ``pairs`` (one positive count per session), each
    summing to at most ``BIN_PAIRS``, or one session long when that session
    alone has more."""
    ends = np.cumsum(pairs)
    a = 0
    while a < len(pairs):
        b = max(int(np.searchsorted(ends, ends[a] - pairs[a] + BIN_PAIRS, side="right")), a + 1)
        yield slice(a, b)
        a = b


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
    bound. ``np.add.at`` adds the shares into one zeroed array in input
    order, so each slot is the left-to-right float64 sum of its sessions'
    shares, and ``out_of_window_bytes`` the left-to-right sum of their
    dropped parts. ``SessionLog`` keeps every int64 product and difference
    here exact.

    Working memory holds the towers x slots output, a few arrays with one
    entry per session, and several int64/float64 arrays with one entry per
    (session, slot) pair for one chunk of consecutive sessions at a time.
    A chunk holds at most ``BIN_PAIRS`` pairs, or the slots of one session
    that covers more, so the pairs in memory at once do not grow with the
    number of sessions.
    """
    if days <= 0:
        raise IngestError(f"days must be positive, got {days}")
    logs = list(logs)
    n_slots = days * SLOTS_PER_DAY
    window_end = origin + days * 86400
    names = sorted(registry)
    start, end, nbytes = _int64_fields(logs, "start", "end", "bytes")
    code = _codes([s.tower_id for s in logs], names)
    known = code >= 0
    zero = end == start
    lo = np.maximum(start, origin)
    hi = np.minimum(end, window_end)
    hit = np.flatnonzero(known & ((lo < hi) | (zero & (origin <= start) & (start < window_end))))
    dropped = np.where(known, nbytes, 0).astype(np.float64)

    # From here on, only the sessions in ``hit``. Each array over all sessions
    # is replaced by its part in ``hit``, or deleted, before the chunks are
    # expanded, so that it is freed. A zero-duration session counts as the
    # one second [start, start + 1).
    one = zero[hit]
    row = code[hit] * n_slots
    start, lo = start[hit], lo[hit]
    end, hi = end[hit] + one, hi[hit] + one
    nbytes = nbytes[hit]
    duration = end - start
    # The outside seconds can reach end - start, so this product is taken in
    # float64, where it cannot overflow and is exact below 2**53.
    dropped[hit] = nbytes.astype(np.float64) * (duration - (hi - lo)) / duration
    out_of_window = float(np.cumsum(dropped)[-1]) if len(logs) else 0.0
    first = (lo - origin) // SLOT_SECONDS
    count = (hi - 1 - origin) // SLOT_SECONDS - first + 1
    del code, zero, lo, hi, hit, dropped

    sums = np.zeros(len(names) * n_slots)
    for part in _chunks(count):
        # One entry per (session, slot), sessions in input order.
        c = count[part]
        slot = np.arange(c.sum()) + np.repeat(first[part] - (np.cumsum(c) - c), c)
        slot_start = origin + slot * SLOT_SECONDS
        slot_end = np.minimum(np.repeat(end[part], c), slot_start + SLOT_SECONDS)
        overlap = slot_end - np.maximum(np.repeat(start[part], c), slot_start)
        share = np.repeat(nbytes[part], c) * overlap / np.repeat(duration[part], c)
        np.add.at(sums, np.repeat(row[part], c) + slot, share)
    sums = sums.reshape(len(names), n_slots)
    series = {name: BinnedSeries(name, origin, sums[i]) for i, name in enumerate(names)}
    return BinResult(series, int(np.count_nonzero(~known)), out_of_window)


def _check_slots(matrix: np.ndarray, towers: Sequence[str]) -> np.ndarray:
    """``matrix``, or ``IngestError`` naming its first slot not in [0, inf); row i is ``towers[i]``."""
    reject_bad(matrix, (matrix >= 0.0) & (matrix < np.inf), IngestError,  # False for NaN
               lambda i, slot: f"tower {towers[i]} slot {slot}", "a number in [0, inf)")
    return matrix


def write_binned(
    directory: str | Path, result: BinResult, origin: int, days: int
) -> tuple[Path, Path]:
    """Write binned.npy, a C-order float64 array whose row i is the series of
    the i-th tower by id, and a JSON manifest that also dates ``origin`` in ISO,
    so in the years 1 to 9999, into the existing ``directory``. Each series
    must start at ``origin``, span ``days`` days and hold byte counts in
    [0, inf), as ``read_binned`` requires."""
    if days <= 0:
        raise IngestError(f"days must be positive, got {days}")
    try:
        origin_iso = epoch_to_iso(origin)
    except (OverflowError, ValueError):
        raise IngestError(f"origin {origin} is not a date in the years 1 to 9999") from None
    towers = sorted(result.series)
    n_slots = days * SLOTS_PER_DAY
    for tower_id, series in sorted(result.series.items()):
        if series.origin != origin or series.n_slots != n_slots:
            raise IngestError(f"tower {tower_id}: series of {series.n_slots} slots from"
                              f" {series.origin}, not of {n_slots} slots from origin {origin}")
        _check_slots(series.slot_bytes.reshape(1, n_slots), [tower_id])
    rows = (result.series[tower_id].slot_bytes for tower_id in towers)
    path = write_npy(Path(directory) / "binned.npy", (len(towers), n_slots), rows, IngestError)
    manifest = {
        "origin_epoch_s": origin,
        "origin_iso": origin_iso,
        "slot_seconds": SLOT_SECONDS,
        "days": days,
        "tz_offset_minutes": TZ_OFFSET_MINUTES,
        "towers": towers,
        "unknown_tower_sessions": result.unknown_towers,
        "out_of_window_bytes": result.out_of_window_bytes,
    }
    return path, write_json(path.with_name("binned_manifest.json"), manifest, IngestError)


def _checked_manifest(manifest: dict) -> dict:
    """The manifest, once its origin, tower list, slot length, days and
    clock are valid."""
    origin = manifest["origin_epoch_s"]
    if type(origin) is not int:
        raise TypeError(f"origin_epoch_s is {origin!r}, not an integer")
    checked_towers(manifest["towers"])
    if manifest["slot_seconds"] != SLOT_SECONDS:
        raise ValueError(f"slot_seconds is {manifest['slot_seconds']!r}, not {SLOT_SECONDS}")
    days = manifest["days"]
    if type(days) is not int or days < 1:
        raise ValueError(f"days is {days!r}, not a positive integer")
    if manifest["tz_offset_minutes"] != TZ_OFFSET_MINUTES:
        raise ValueError(
            f"tz_offset_minutes is {manifest['tz_offset_minutes']!r}, not {TZ_OFFSET_MINUTES}"
        )
    return manifest


def read_binned(path: str | Path, manifest_path: str | Path) -> tuple[dict[str, BinnedSeries], dict]:
    """The series and manifest ``write_binned`` wrote, each series a row of the
    array ``common.read_npy`` checks; a slot outside [0, inf) raises ``IngestError``."""
    manifest = read_json(manifest_path, IngestError, _checked_manifest)
    towers, origin = manifest["towers"], manifest["origin_epoch_s"]
    shape = (len(towers), manifest["days"] * SLOTS_PER_DAY)
    matrix = read_npy(path, shape, IngestError, lambda m: _check_slots(m, towers))
    return {t: BinnedSeries(t, origin, matrix[i]) for i, t in enumerate(towers)}, manifest
