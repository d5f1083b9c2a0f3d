"""Shared time constants, the CSV and JSON file helpers every stage reads and
writes its tables with, and small helpers used across pipeline stages."""

from __future__ import annotations

import csv
import hashlib
import json
from datetime import datetime, timedelta, timezone
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Iterable, Iterator, Sequence

SLOT_SECONDS = 600
SLOTS_PER_DAY = 144
DAYS_PER_WEEK = 7
SLOTS_PER_WEEK = SLOTS_PER_DAY * DAYS_PER_WEEK  # 1008

# Civil clock used to interpret ISO timestamps and weekday boundaries.
# A fixed offset, not a zoneinfo zone: slot arithmetic must never cross a
# DST discontinuity.
DEFAULT_TZ_OFFSET_MINUTES = 480  # UTC+8

WEEKDAY_NAMES = ("monday", "tuesday", "wednesday", "thursday", "friday",
                 "saturday", "sunday")


def tz_from_offset(offset_minutes: int) -> timezone:
    return timezone(timedelta(minutes=offset_minutes))


def parse_iso_to_epoch(text: str, tz_offset_minutes: int = DEFAULT_TZ_OFFSET_MINUTES) -> int:
    """Parse an ISO-8601 timestamp to epoch seconds.

    Naive timestamps are interpreted in the configured fixed-offset civil
    timezone; aware timestamps keep their own offset.
    """
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=tz_from_offset(tz_offset_minutes))
    return int(dt.timestamp())


def epoch_to_iso(epoch_s: int, tz_offset_minutes: int = DEFAULT_TZ_OFFSET_MINUTES) -> str:
    dt = datetime.fromtimestamp(epoch_s, tz=tz_from_offset(tz_offset_minutes))
    return dt.isoformat()


def local_weekday(epoch_s: int, tz_offset_minutes: int = DEFAULT_TZ_OFFSET_MINUTES) -> int:
    """Weekday of the civil date containing ``epoch_s`` (Monday = 0)."""
    # 1970-01-01 was a Thursday (weekday 3).
    local_days = (epoch_s + tz_offset_minutes * 60) // 86400
    return (local_days + 3) % 7


def local_seconds_of_day(epoch_s: int, tz_offset_minutes: int = DEFAULT_TZ_OFFSET_MINUTES) -> int:
    return (epoch_s + tz_offset_minutes * 60) % 86400


def parse_week_start(value: str | int) -> int:
    if isinstance(value, int):
        if not 0 <= value <= 6:
            raise ValueError(f"week start out of range: {value}")
        return value
    name = value.strip().lower()
    if name not in WEEKDAY_NAMES:
        raise ValueError(f"unknown weekday name: {value!r}")
    return WEEKDAY_NAMES.index(name)


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        while True:
            block = f.read(1 << 20)
            if not block:
                break
            h.update(block)
    return h.hexdigest()


def parse_lat_lon(lat: str, lon: str) -> tuple[float, float]:
    """Latitude and longitude in degrees; ``ValueError`` when either is not
    a number or lies outside [-90, 90] x [-180, 180]."""
    try:
        lat_deg, lon_deg = float(lat), float(lon)
    except ValueError:
        raise ValueError("non-numeric coordinate") from None
    if not (-90.0 <= lat_deg <= 90.0 and -180.0 <= lon_deg <= 180.0):
        raise ValueError("coordinate out of range")
    return lat_deg, lon_deg


def csv_cell(text: str) -> str:
    """``text`` as one cell of a CSV row of two or more cells. A cell that
    holds a comma, a quote, ``\r`` or ``\n`` is put in quotes, with each
    quote inside doubled; any other cell is written as it is."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> Path:
    """Write ``header`` and then ``rows`` to ``path`` as CSV.

    The header row is always written. A float is written as its shortest
    round-trip repr, which ``float`` reads back bit for bit, ``None`` as an
    empty cell and any other field as ``str`` gives it. Rows end in ``\n``,
    and every field is quoted by the rule of ``csv_cell``: a field holding a
    comma, a quote, ``\r`` or ``\n`` is quoted, with its quotes doubled.
    """
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as f:
        write = f.write
        # csv quotes a field only for the characters of its line terminator,
        # and a bare "\r" left unquoted would end the row for a reader. So the
        # writer ends rows in "\r\n", and since it writes each row with one
        # call, that call swaps the ending for "\n".
        out = SimpleNamespace(write=lambda line: write(line[:-2] + "\n"))
        writer = csv.writer(out, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def write_csv_blocks(path: str | Path, header: Sequence[str], blocks: Iterable[str]) -> Path:
    """Write ``header`` and then each of ``blocks`` to ``path``. A block is
    whole rows of text, each ending in ``\n``, with its cells made by
    ``csv_cell`` or by ``repr`` of a number: the same bytes ``write_csv``
    writes, for tables too wide to send each cell through ``csv.writer``."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(map(csv_cell, header)) + "\n")
        f.writelines(blocks)
    return path


def read_header(reader, header: Sequence[str], error: type[Exception], source: str | Path,
                kind: str) -> bool:
    """Consume ``reader`` (a ``csv.reader``) up to its first non-blank row and
    check that row, with stripped fields, against ``header``. A different row
    raises ``error`` naming the ``kind`` of table and then the column counts,
    when they differ, or else the first column that differs. Returns False
    when the stream ends first."""
    for fields in reader:
        if fields:
            found = [c.strip() for c in fields]
            prefix = f"{source} line {reader.line_num}: bad {kind} header"
            if len(found) != len(header):
                raise error(f"{prefix}, {len(found)} columns, expected {len(header)}")
            for i, (got, want) in enumerate(zip(found, header), start=1):
                if got != want:
                    raise error(f"{prefix}, column {i} is {got!r}, expected {want!r}")
            return True
    return False


def read_csv(lines: Iterable[str], header: Sequence[str], error: type[Exception],
             source: str | Path, kind: str, parse: Callable[[list[str]], Any]) -> Iterator[Any]:
    """Yield ``parse(fields)`` for every non-blank row after the header.

    ``lines`` is a file opened with ``encoding="utf-8"`` and ``newline=""``,
    or any iterable of lines. The header row is required and blank rows are
    skipped. ``parse`` gets the row's fields, as many as the header has, and
    raises ``ValueError`` on a bad value. A stream without a header (see
    ``read_header``), a row whose width differs from the header's and a
    ``ValueError`` from ``parse`` all raise ``error`` as
    ``<source> line <n>: <reason>``. ``n`` is the physical line that ends
    the row, so a quoted newline in an earlier row does not shift it.
    """
    reader = csv.reader(lines)
    if not read_header(reader, header, error, source, kind):
        raise error(f"{source}: bad {kind} header: no header row, expected {','.join(header)}")
    width = len(header)
    for fields in reader:
        if len(fields) != width:
            if not fields:
                continue
            raise error(f"{source} line {reader.line_num}: expected {width} fields, got {len(fields)}")
        try:
            row = parse(fields)
        except ValueError as exc:
            raise error(f"{source} line {reader.line_num}: {exc}") from None
        yield row


def write_json(path: str | Path, payload: Any) -> Path:
    """Write ``payload`` as JSON indented by 2 with sorted keys, and a final newline."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def read_json(path: str | Path, error: type[Exception], parse: Callable[[Any], Any]) -> Any:
    """Load the JSON file at ``path`` and return ``parse(payload)``. Bad JSON,
    and the ``KeyError``, ``TypeError`` or ``ValueError`` that ``parse``
    raises on a missing key or a wrong type, raise ``error`` naming the file."""
    try:
        with open(path, encoding="utf-8") as f:
            return parse(json.load(f))
    except (KeyError, TypeError, ValueError) as exc:
        raise error(f"{path}: {type(exc).__name__}: {exc}") from None
