"""Shared time constants, the CSV and JSON file helpers every stage reads and
writes its tables with, and small helpers used across pipeline stages."""

from __future__ import annotations

import csv
import json
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

SLOT_SECONDS = 600
SLOTS_PER_DAY = 144
DAYS_PER_WEEK = 7
SLOTS_PER_WEEK = SLOTS_PER_DAY * DAYS_PER_WEEK  # 1008

# Civil clock used to write ISO dates and to find weekday boundaries.
# A fixed offset, not a zoneinfo zone: slot arithmetic must never cross a
# DST discontinuity.
DEFAULT_TZ_OFFSET_MINUTES = 480  # UTC+8


def epoch_to_iso(epoch_s: int, tz_offset_minutes: int = DEFAULT_TZ_OFFSET_MINUTES) -> str:
    dt = datetime.fromtimestamp(epoch_s, tz=timezone(timedelta(minutes=tz_offset_minutes)))
    return dt.isoformat()


def local_weekday(epoch_s: int, tz_offset_minutes: int = DEFAULT_TZ_OFFSET_MINUTES) -> int:
    """Weekday of the civil date containing ``epoch_s`` (Monday = 0)."""
    # 1970-01-01 was a Thursday (weekday 3).
    local_days = (epoch_s + tz_offset_minutes * 60) // 86400
    return (local_days + 3) % 7


def local_seconds_of_day(epoch_s: int, tz_offset_minutes: int = DEFAULT_TZ_OFFSET_MINUTES) -> int:
    return (epoch_s + tz_offset_minutes * 60) % 86400


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
    lines = (
        ",".join("" if v is None else csv_cell(str(v)) for v in row) + "\n" for row in rows
    )
    return write_csv_blocks(path, header, lines)


def write_csv_blocks(path: str | Path, header: Sequence[str], blocks: Iterable[str]) -> Path:
    """Write ``header`` and then each of ``blocks`` to ``path``. A block is
    whole rows of text, each ending in ``\n``, with its cells made by
    ``csv_cell`` or by ``repr`` of a number, as ``write_csv`` makes them."""
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


def reject_nan(values: Sequence[float] | np.ndarray, column: Callable[[int], str]) -> None:
    """Raise ``ValueError`` naming ``column(i)`` for the first NaN
    ``values[i]``, if there is one. A reader calls it on each row it parses,
    so that no NaN in a file passes on in silence."""
    nan = np.isnan(values)
    if nan.any():
        raise ValueError(f"{column(int(nan.argmax()))} is NaN")


def reject_repeat(seen: set[str], tower_id: str) -> None:
    """Raise ``ValueError`` if a reader's row repeats a tower in ``seen``, else add it."""
    if tower_id in seen:
        raise ValueError(f"tower {tower_id} is repeated")
    seen.add(tower_id)


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
