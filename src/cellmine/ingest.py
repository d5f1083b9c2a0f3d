"""Session-log ingestion: parse, deduplicate, and bin traffic into 10-minute slots.

Wire formats:
    sessions.csv  ``user_id,tower_id,start_epoch_s,end_epoch_s,bytes``
    towers.csv    ``tower_id,lat,lon``
    binned.csv    ``tower_id,slot_index,bytes`` (zero slots omitted) plus a JSON
                  manifest carrying origin, slot_seconds=600, days and the tower list.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .common import SLOT_SECONDS, SLOTS_PER_DAY, DEFAULT_TZ_OFFSET_MINUTES, epoch_to_iso

SESSIONS_HEADER = ["user_id", "tower_id", "start_epoch_s", "end_epoch_s", "bytes"]
TOWERS_HEADER = ["tower_id", "lat", "lon"]
BINNED_HEADER = ["tower_id", "slot_index", "bytes"]


class IngestError(ValueError):
    """Raised on malformed input files or (in strict mode) malformed rows."""


@dataclass(frozen=True, slots=True)
class SessionLog:
    """One anonymized data-usage session."""

    user_id: str
    tower_id: str
    start: int
    end: int
    bytes: int


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
    user_id, tower_id, start_s, end_s, bytes_s = (field.strip() for field in row)
    if not user_id or not tower_id:
        raise ValueError("empty user_id or tower_id")
    try:
        start = int(start_s)
        end = int(end_s)
        nbytes = int(bytes_s)
    except ValueError:
        raise ValueError("non-integer timestamp or byte count") from None
    if end < start:
        raise ValueError("end < start")
    if nbytes < 0:
        raise ValueError("negative bytes")
    return SessionLog(user_id, tower_id, start, end, nbytes)


def parse_sessions(
    lines: Iterable[str], strict: bool = False
) -> tuple[list[SessionLog], list[RejectedRow]]:
    """Parse a sessions.csv stream.

    Malformed rows go to the reject report and parsing continues; with
    ``strict`` the first malformed row raises ``IngestError`` instead.
    The header row is structural and always required.
    """
    reader = csv.reader(lines)
    sessions: list[SessionLog] = []
    rejects: list[RejectedRow] = []
    header_seen = False
    for line_no, row in enumerate(reader, start=1):
        if not row:
            continue
        if not header_seen:
            if [c.strip() for c in row] != SESSIONS_HEADER:
                raise IngestError(
                    f"bad sessions header on line {line_no}: expected {','.join(SESSIONS_HEADER)}"
                )
            header_seen = True
            continue
        try:
            sessions.append(_session_from_row(row))
        except ValueError as exc:
            if strict:
                raise IngestError(f"line {line_no}: {exc}") from None
            rejects.append(RejectedRow(line_no, ",".join(row), str(exc)))
    if not header_seen and (sessions or rejects):
        raise IngestError("sessions stream missing header row")
    return sessions, rejects


def parse_towers(lines: Iterable[str]) -> dict[str, TowerRecord]:
    """Parse towers.csv into a registry. The registry must be clean: any
    malformed row or duplicate tower_id raises."""
    reader = csv.reader(lines)
    registry: dict[str, TowerRecord] = {}
    header_seen = False
    for line_no, row in enumerate(reader, start=1):
        if not row:
            continue
        if not header_seen:
            if [c.strip() for c in row] != TOWERS_HEADER:
                raise IngestError(
                    f"bad towers header on line {line_no}: expected {','.join(TOWERS_HEADER)}"
                )
            header_seen = True
            continue
        if len(row) != 3:
            raise IngestError(f"towers line {line_no}: expected 3 fields")
        tower_id = row[0].strip()
        try:
            lat = float(row[1])
            lon = float(row[2])
        except ValueError:
            raise IngestError(f"towers line {line_no}: non-numeric coordinate") from None
        if not tower_id:
            raise IngestError(f"towers line {line_no}: empty tower_id")
        if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
            raise IngestError(f"towers line {line_no}: coordinate out of range")
        if tower_id in registry:
            raise IngestError(f"towers line {line_no}: duplicate tower_id {tower_id}")
        registry[tower_id] = TowerRecord(tower_id, lat, lon)
    return registry


def deduplicate(logs: Iterable[SessionLog]) -> list[SessionLog]:
    """Collapse exact duplicates; for conflicting logs (same user, tower and
    interval but different bytes) keep the larger byte count. Output is sorted
    by (tower_id, start) with a full deterministic tiebreak."""
    best: dict[tuple[str, str, int, int], int] = {}
    for log in logs:
        key = (log.user_id, log.tower_id, log.start, log.end)
        prev = best.get(key)
        if prev is None or log.bytes > prev:
            best[key] = log.bytes
    out = [
        SessionLog(user, tower, start, end, nbytes)
        for (user, tower, start, end), nbytes in best.items()
    ]
    out.sort(key=lambda s: (s.tower_id, s.start, s.user_id, s.end, s.bytes))
    return out


def bin_traffic(
    logs: Iterable[SessionLog],
    origin: int,
    days: int,
    registry: dict[str, TowerRecord] | None = None,
) -> BinResult:
    """Spread each session's bytes over the 10-minute slots it overlaps,
    proportionally to overlap duration.

    Zero-duration sessions assign all bytes to the slot containing their
    start. Portions outside [origin, origin + days*86400) are dropped and
    accounted in ``out_of_window_bytes``. When a registry is supplied,
    sessions on unknown towers are counted and skipped, and every registry
    tower gets a series (all-zero if silent).
    """
    if days <= 0:
        raise IngestError(f"days must be positive, got {days}")
    n_slots = days * SLOTS_PER_DAY
    window_end = origin + days * 86400
    series: dict[str, np.ndarray] = {}
    if registry is not None:
        for tower_id in registry:
            series[tower_id] = np.zeros(n_slots)
    unknown = 0
    dropped = 0.0
    for log in logs:
        if registry is not None and log.tower_id not in registry:
            unknown += 1
            continue
        slots = series.get(log.tower_id)
        if slots is None:
            slots = series[log.tower_id] = np.zeros(n_slots)
        if log.end == log.start:
            if origin <= log.start < window_end:
                slots[(log.start - origin) // SLOT_SECONDS] += log.bytes
            else:
                dropped += log.bytes
            continue
        duration = log.end - log.start
        lo = max(log.start, origin)
        hi = min(log.end, window_end)
        if hi <= lo:
            dropped += log.bytes
            continue
        first = (lo - origin) // SLOT_SECONDS
        last = (hi - 1 - origin) // SLOT_SECONDS
        for slot in range(first, last + 1):
            slot_start = origin + slot * SLOT_SECONDS
            overlap = min(log.end, slot_start + SLOT_SECONDS) - max(log.start, slot_start)
            slots[slot] += log.bytes * overlap / duration
        dropped += log.bytes * ((lo - log.start) + (log.end - hi)) / duration
    result = {
        tower_id: BinnedSeries(tower_id, origin, slots)
        for tower_id, slots in sorted(series.items())
    }
    return BinResult(result, unknown, dropped)


def write_binned(
    directory: str | Path,
    result: BinResult,
    origin: int,
    days: int,
    tz_offset_minutes: int = DEFAULT_TZ_OFFSET_MINUTES,
) -> tuple[Path, Path]:
    """Write binned.csv (non-zero slots only) and its JSON manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    csv_path = directory / "binned.csv"
    manifest_path = directory / "binned_manifest.json"
    with open(csv_path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(BINNED_HEADER)
        for tower_id in sorted(result.series):
            slots = result.series[tower_id].slot_bytes
            for idx in np.nonzero(slots)[0]:
                writer.writerow([tower_id, int(idx), repr(float(slots[idx]))])
    manifest = {
        "origin_epoch_s": origin,
        "origin_iso": epoch_to_iso(origin, tz_offset_minutes),
        "slot_seconds": SLOT_SECONDS,
        "days": days,
        "tz_offset_minutes": tz_offset_minutes,
        "towers": sorted(result.series),
        "unknown_tower_sessions": result.unknown_towers,
        "out_of_window_bytes": result.out_of_window_bytes,
    }
    with open(manifest_path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return csv_path, manifest_path


def read_binned(csv_path: str | Path, manifest_path: str | Path) -> tuple[dict[str, BinnedSeries], dict]:
    with open(manifest_path) as f:
        manifest = json.load(f)
    origin = int(manifest["origin_epoch_s"])
    n_slots = int(manifest["days"]) * SLOTS_PER_DAY
    series = {
        tower_id: BinnedSeries(tower_id, origin, np.zeros(n_slots))
        for tower_id in manifest["towers"]
    }
    with open(csv_path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        if header != BINNED_HEADER:
            raise IngestError(f"bad binned header: {header}")
        for row in reader:
            try:
                if len(row) != 3:
                    raise ValueError(f"expected 3 fields, got {len(row)}")
                tower_id, idx, value = row
                if tower_id not in series:
                    raise ValueError(f"tower {tower_id} is not in the manifest")
                slot = int(idx)
                if not 0 <= slot < n_slots:
                    raise ValueError(f"slot {slot} outside 0..{n_slots - 1}")
                series[tower_id].slot_bytes[slot] = float(value)
            except ValueError as exc:
                raise IngestError(f"{csv_path} line {reader.line_num}: {exc}") from None
    return series, manifest


def write_reject_report(path: str | Path, rejects: Sequence[RejectedRow]) -> Path:
    path = Path(path)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["line_no", "reason", "line"])
        for r in rejects:
            writer.writerow([r.line_no, r.reason, r.line])
    return path


def iter_file_lines(path: str | Path) -> Iterator[str]:
    with open(path, newline="") as f:
        yield from f
