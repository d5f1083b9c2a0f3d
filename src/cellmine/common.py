"""Shared time constants and small helpers used across pipeline stages."""

from __future__ import annotations

import hashlib
from datetime import datetime, timedelta, timezone
from pathlib import Path

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
