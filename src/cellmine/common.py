"""Shared time constants, the file helpers every stage reads and writes its
files with, and small helpers used across pipeline stages. Every file is
written through ``open_replacing`` and read through ``open_reading``; either
turns an ``OSError`` into the stage's own error naming the file. Every text
file is UTF-8, and text that UTF-8 cannot encode raises the writer's error.
``reject_bad`` is the one bad-value rule: every check of a module's values
names the first bad entry and its value through it, and ``finite_array`` is the
one conversion rule: every float array a stage takes in goes through it."""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager, suppress
from datetime import datetime, timedelta, timezone
from operator import attrgetter
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

T = TypeVar("T")
NPY_MAGIC = np.lib.format.MAGIC_PREFIX

SLOT_SECONDS = 600
SLOTS_PER_DAY = 144
DAYS_PER_WEEK = 7
SLOTS_PER_WEEK = SLOTS_PER_DAY * DAYS_PER_WEEK  # 1008

# The civil clock of the city the logs come from, UTC+8: it dates the ISO
# origin of a manifest and places every day and week boundary. It is a fixed
# offset, not a zoneinfo zone, so no DST jump ever splits a slot.
TZ_OFFSET_MINUTES = 480


def epoch_to_iso(epoch_s: int) -> str:
    dt = datetime.fromtimestamp(epoch_s, tz=timezone(timedelta(minutes=TZ_OFFSET_MINUTES)))
    return dt.isoformat()


def local_weekday(epoch_s: int) -> int:
    """Weekday of the civil date containing ``epoch_s`` (Monday = 0)."""
    # 1970-01-01 was a Thursday (weekday 3).
    local_days = (epoch_s + TZ_OFFSET_MINUTES * 60) // 86400
    return (local_days + 3) % 7


def local_seconds_of_day(epoch_s: int) -> int:
    return (epoch_s + TZ_OFFSET_MINUTES * 60) % 86400


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


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[Any]],
              error: type[Exception]) -> Path:
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
    return write_csv_blocks(path, header, lines, error)


@contextmanager
def open_replacing(path: Path, binary: bool, error: type[Exception]) -> Iterator[IO]:
    """Open a temporary file beside ``path`` for writing, as bytes or as
    UTF-8 text with no newline translation, and once the block has finished
    ``os.replace`` it over ``path``. If the block raises, the temporary file
    is removed and ``path`` keeps what it held, so a failed write never
    leaves a truncated table behind. Every file the package writes is
    written through here. Every file is UTF-8: text that UTF-8 cannot encode
    raises ``error``, the writer's own, quoting the text up to and including
    the first such character (at most its last 40 characters). A text file
    encodes each non-ASCII ``write`` at once, so that text is the row or
    block being written. An ``OSError`` raises ``error`` naming ``path``."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8", newline="") as f:
            yield f
        os.replace(tmp, path)
    except BaseException as exc:
        with suppress(FileNotFoundError, NotADirectoryError):  # no temporary file was made
            tmp.unlink()
        if isinstance(exc, UnicodeEncodeError):
            text = exc.object[: exc.start + 1][-40:]
            raise error(f"{path}: {text!r} is not UTF-8 ({exc.reason})") from None
        if isinstance(exc, OSError):  # its message names the temporary file
            raise error(f"{path}: [Errno {exc.errno}] {exc.strerror}") from None
        raise


@contextmanager
def open_reading(path: str | Path, binary: bool, error: type[Exception]) -> Iterator[IO]:
    """Open ``path`` for reading, as bytes or as UTF-8 text with no newline
    translation, the twin of ``open_replacing``: every file the package reads
    is opened here. An ``OSError`` while the file is opened or read raises
    ``error``, the reader's own, naming ``path``."""
    try:
        with open(path, "rb") if binary else open(path, encoding="utf-8", newline="") as f:
            yield f
    except OSError as exc:  # as in open_replacing, the message names path once
        raise error(f"{path}: [Errno {exc.errno}] {exc.strerror}") from None


def write_csv_blocks(path: str | Path, header: Sequence[str], blocks: Iterable[str],
                     error: type[Exception]) -> Path:
    """Write ``header`` and then each of ``blocks`` to ``path``. A block is
    whole rows of text, each ending in ``\n``, with its cells made by
    ``csv_cell`` or by ``repr`` of a number, as ``write_csv`` makes them."""
    path = Path(path)
    with open_replacing(path, binary=False, error=error) as f:
        f.write(",".join(map(csv_cell, header)) + "\n")
        f.writelines(blocks)
    return path


@contextmanager
def csv_errors(reader, error: type[Exception], source: str | Path) -> Iterator[None]:
    """Raise ``error`` for what ``reader`` cannot split or decode (see ``read_csv``)."""
    try:
        yield
    except csv.Error as exc:
        raise error(f"{source} line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{source}: {exc}") from None


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
    ``read_header``), a row csv cannot split or whose width differs from the
    header's, and a ``ValueError`` from ``parse`` raise ``error`` as
    ``<source> line <n>: <reason>``, ``n`` the physical line that ends the
    row. Text that is not UTF-8 raises it as ``<source>: <reason>``: the
    stream decodes ahead of its rows, so no line is known.
    """
    reader = csv.reader(lines)
    width = len(header)
    with csv_errors(reader, error, source):
        if not read_header(reader, header, error, source, kind):
            raise error(f"{source}: bad {kind} header: no header row, expected {','.join(header)}")
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


def read_table(path: str | Path, header: Sequence[str], error: type[Exception], kind: str,
               parse: Callable[[list[str]], T]) -> list[T]:
    """Every row ``read_csv`` parses from the file at ``path``, a table of one
    row per tower: a row whose first cell repeats an earlier row's raises
    ``error`` naming the tower and the line."""
    seen: set[str] = set()

    def row(fields: list[str]) -> T:
        reject_repeat(seen, fields[0])
        return parse(fields)

    with open_reading(path, binary=False, error=error) as f:
        return list(read_csv(f, header, error, path, kind, row))


def write_npy(path: str | Path, shape: tuple[int, int], rows: Iterable[np.ndarray],
              error: type[Exception]) -> Path:
    """Write ``rows``, of ``shape[1]`` values each, one at a time as the bytes of
    a C-order float64 array of ``shape`` that ``np.save`` writes to ``path``."""
    path = Path(path)
    with open_replacing(path, binary=True, error=error) as f:
        np.lib.format.write_array_header_1_0(f, {"descr": "<f8", "fortran_order": False, "shape": shape})
        for row in rows:
            f.write(np.ascontiguousarray(row, "<f8"))
    return path


def read_npy(path: str | Path, shape: tuple[int, int], error: type[Exception],
             parse: Callable[[np.ndarray], T]) -> T:
    """``parse`` of a C-order copy of the array ``write_npy`` wrote, memory-mapped
    while it is checked. Any array but a float64 one of ``shape``, bytes after it
    and a ``ValueError`` from ``parse`` raise ``error`` naming the file."""
    with open_reading(path, binary=True, error=error) as f:
        try:
            np.lib.format.read_magic(f)  # np.load would open a zip file as an .npz
            with np.errstate(over="raise"):  # for a shape whose size overflows
                mapped = np.load(path, mmap_mode="r", allow_pickle=False)
            if mapped.dtype != np.float64 or mapped.shape != shape:
                raise ValueError(f"holds {mapped.dtype.str} {mapped.shape}, not <f8 {shape}")
            if mapped.offset + mapped.nbytes != os.fstat(f.fileno()).st_size:
                raise ValueError("holds bytes after its array")
            return parse(np.array(mapped, order="C"))
        except (ArithmeticError, OSError, ValueError) as exc:
            raise error(f"{path}: {exc}") from None


def checked_towers(towers: Any) -> None:
    """Raise ``TypeError`` unless ``towers`` is a list of ``str``, ``ValueError`` on a repeat."""
    if not (isinstance(towers, list) and all(isinstance(t, str) for t in towers)):
        raise TypeError("towers is not a list of strings")
    seen: set[str] = set()
    for tower_id in towers:
        reject_repeat(seen, tower_id)


def unit_scaled(values: np.ndarray) -> tuple[np.ndarray, np.integer | np.ndarray]:
    """``(values * 2**-e, e)``, ``e`` the binary exponent of the largest |value|
    (0 for zeros): one for a 1-D series, one per column of a 2-D table. No sum,
    mean or std of the scaled values overflows, and each value that stays normal
    is scaled exactly, so a statistic free of scale keeps its bits."""
    e = np.frexp(np.abs(values).max(axis=0))[1]
    return np.ldexp(values, -e), e


def reject_bad(values: Sequence | np.ndarray, ok: np.ndarray, error: type[Exception],
               where: Callable[..., str], what: str) -> None:
    """Raise ``error`` as ``<where(*i)> holds <values[i]>, not <what>`` for the
    first index ``i`` (C order, any rank) at which ``ok``, a mask of the shape of
    ``values``, is False. The package's one bad-value rule: every check on the
    values of a series, a vector, a matrix or a parsed row names its first bad
    entry through it."""
    if not ok.all():
        i = np.unravel_index(int(ok.argmin()), ok.shape)
        raise error(f"{where(*i)} holds {np.asarray(values)[i]}, not {what}")


def finite_array(values: Any, dtype: type, error: type[Exception], where: Callable[..., str],
                 what: str) -> np.ndarray:
    """``values`` as a read-only ``dtype`` view (the caller's array stays
    writable) once every entry is a finite number of ``dtype``; otherwise
    ``reject_bad`` names the first entry that is not, an ``object()`` as a NaN.
    Every float array a stage takes in comes through here. ``where`` gets one
    index per axis of the converted array: check the shape first, or take any."""
    try:
        array = np.asarray(values, dtype=dtype)
        finite = np.isfinite(array)
    except (TypeError, ValueError, OverflowError):
        array = np.asarray(values, dtype=object)
        finite = np.vectorize(lambda v: _finite_number(v, dtype), otypes=[bool])(array)
    reject_bad(array, finite, error, where, what)
    view = array.view()
    view.flags.writeable = False
    return view


def _finite_number(value: Any, dtype: type) -> bool:
    try:
        number = np.asarray(value, dtype=dtype)
    except (TypeError, ValueError, OverflowError):
        return False
    return number.ndim == 0 and bool(np.isfinite(number))


def reject_repeat(seen: set[str], tower_id: str) -> None:
    """Raise ``ValueError`` if a reader's row repeats a tower in ``seen``, else add it."""
    if tower_id in seen:
        raise ValueError(f"tower {tower_id} is repeated")
    seen.add(tower_id)


def sorted_by_tower(items: Iterable[T], error: type[Exception]) -> list[T]:
    """``items`` sorted by their ``tower_id``, as a writer puts them in its
    file. A file names each tower once, so a tower that appears twice raises
    ``error``, the writer's own, naming it."""
    ordered = sorted(items, key=attrgetter("tower_id"))
    for a, b in zip(ordered, ordered[1:]):
        if a.tower_id == b.tower_id:
            raise error(f"tower {a.tower_id} is repeated")
    return ordered


def write_json(path: str | Path, payload: Any, error: type[Exception]) -> Path:
    """Write ``payload`` as JSON indented by 2 with sorted keys, and a final newline."""
    path = Path(path)
    with open_replacing(path, binary=False, error=error) as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def read_json(path: str | Path, error: type[Exception], parse: Callable[[Any], Any]) -> Any:
    """Return ``parse`` of the JSON file at ``path``. A file that cannot be
    read (see ``open_reading``), bad or too deeply nested JSON, and the
    ``KeyError``, ``TypeError`` or ``ValueError`` that ``parse`` raises on a
    missing key or a wrong type, raise ``error`` naming the file."""
    with open_reading(path, binary=False, error=error) as f:
        try:
            return parse(json.load(f))
        except (KeyError, RecursionError, TypeError, ValueError) as exc:
            raise error(f"{path}: {type(exc).__name__}: {exc}") from None
