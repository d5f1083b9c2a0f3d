"""Time-domain characterization of traffic patterns.

Daily profiles average each 10-minute slot of day separately over weekdays
and weekends. From a profile we extract the weekday/weekend traffic ratio,
peak and valley values, their ratio, and the times of prominent peaks and
valleys; between two profiles we measure the circular lag that best aligns
them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.signal import find_peaks

from .common import (
    SLOTS_PER_DAY,
    SLOTS_PER_WEEK,
    local_seconds_of_day,
    local_weekday,
    write_csv,
)
from .ingest import BinnedSeries

# Peak detection knobs: moving-average window (slots) and the prominence
# floor as a fraction of the smoothed peak-valley range.
SMOOTH_WINDOW = 5
PROMINENCE_FRACTION = 0.15

MINUTES_PER_SLOT = 10
HALF_DAY_MINUTES = 720


class TimefeatError(ValueError):
    pass


@dataclass(slots=True)
class DailyProfile:
    """Slotwise mean day, in bytes per slot, for weekdays and weekends separately."""

    source_id: str
    weekday: np.ndarray
    weekend: np.ndarray


@dataclass(slots=True)
class TimeFeatures:
    source_id: str
    weekday_weekend_ratio: float | None
    weekday_peak: float
    weekday_valley: float
    weekday_peak_valley_ratio: float | None
    weekend_peak: float
    weekend_valley: float
    weekend_peak_valley_ratio: float | None
    weekday_peak_times: list[int]  # slots of day
    weekday_valley_times: list[int]
    weekend_peak_times: list[int]
    weekend_valley_times: list[int]


def slot_to_hhmm(slot: int) -> str:
    minutes = slot * MINUTES_PER_SLOT
    return f"{minutes // 60:02d}:{minutes % 60:02d}"


def daily_profile(series: BinnedSeries) -> DailyProfile:
    """Mean weekday and weekend day of a series whose origin is a civil
    midnight; each day's weekday follows from the origin's (Monday = 0), so
    a series may start on any day. Requires whole weeks so each weekday is
    represented equally."""
    if local_seconds_of_day(series.origin) != 0:
        raise TimefeatError(
            f"{series.tower_id}: series origin is not civil midnight; "
            "profiles need day-aligned data"
        )
    values = np.asarray(series.slot_bytes, dtype=float)
    if values.size == 0 or values.size % SLOTS_PER_WEEK != 0:
        raise TimefeatError(
            f"{series.tower_id}: profile needs whole weeks of slots, got {values.size}"
        )
    days = values.reshape(-1, SLOTS_PER_DAY)
    weekdays = (local_weekday(series.origin) + np.arange(days.shape[0])) % 7
    weekday_mask = weekdays < 5
    return DailyProfile(
        series.tower_id,
        days[weekday_mask].mean(axis=0),
        days[~weekday_mask].mean(axis=0),
    )


def weekday_weekend_ratio(profile: DailyProfile) -> float | None:
    """Mean weekday daily total over mean weekend daily total; None when the
    weekend total is zero (undefined, reported as such)."""
    weekend_total = float(profile.weekend.sum())
    if weekend_total == 0.0:
        return None
    return float(profile.weekday.sum()) / weekend_total


def _circular_smooth(curve: np.ndarray) -> np.ndarray:
    kernel = np.ones(SMOOTH_WINDOW) / SMOOTH_WINDOW
    extended = np.concatenate([curve[-(SMOOTH_WINDOW // 2):], curve, curve[: SMOOTH_WINDOW // 2]])
    return np.convolve(extended, kernel, mode="valid")


def _circular_extrema(curve: np.ndarray):
    """Prominent local maxima/minima of a daily curve treated as circular.

    Peaks are found on a tripled copy so wrap-around maxima are not lost;
    only detections in the middle copy are kept.
    """
    smoothed = _circular_smooth(curve)
    span = float(smoothed.max() - smoothed.min())
    if span == 0.0:
        return [], []
    threshold = PROMINENCE_FRACTION * span
    tripled = np.concatenate([smoothed, smoothed, smoothed])
    n = smoothed.size
    peaks, _ = find_peaks(tripled, prominence=threshold)
    valleys, _ = find_peaks(-tripled, prominence=threshold)
    peak_slots = sorted({int(p - n) for p in peaks if n <= p < 2 * n})
    valley_slots = sorted({int(v - n) for v in valleys if n <= v < 2 * n})
    return peak_slots, valley_slots


def peak_valley(curve: np.ndarray):
    """Peak/valley values from the raw curve, detection times from the
    smoothed one. Returns (peak, valley, ratio-or-None, peak_slots, valley_slots)."""
    curve = np.asarray(curve, dtype=float)
    peak = float(curve.max())
    valley = float(curve.min())
    ratio = peak / valley if valley > 0.0 else None
    peak_slots, valley_slots = _circular_extrema(curve)
    return peak, valley, ratio, peak_slots, valley_slots


def compute_time_features(profile: DailyProfile) -> TimeFeatures:
    wd_peak, wd_valley, wd_ratio, wd_pt, wd_vt = peak_valley(profile.weekday)
    we_peak, we_valley, we_ratio, we_pt, we_vt = peak_valley(profile.weekend)
    return TimeFeatures(
        profile.source_id,
        weekday_weekend_ratio(profile),
        wd_peak,
        wd_valley,
        wd_ratio,
        we_peak,
        we_valley,
        we_ratio,
        wd_pt,
        wd_vt,
        we_pt,
        we_vt,
    )


def peak_offset(a: DailyProfile, b: DailyProfile) -> int:
    """Signed circular lag in minutes by which the weekday curve of profile
    ``a`` trails that of profile ``b``, from the cross-correlation of the
    smoothed, mean-removed curves. Both weekday curves must contain at least
    one prominent peak."""
    curve_a, curve_b = a.weekday, b.weekday
    for label, curve in (("a", curve_a), ("b", curve_b)):
        peaks, _ = _circular_extrema(curve)
        if not peaks:
            raise TimefeatError(f"profile {label} has no prominent peak; offset undefined")
    sa = _circular_smooth(np.asarray(curve_a, dtype=float))
    sb = _circular_smooth(np.asarray(curve_b, dtype=float))
    sa = sa - sa.mean()
    sb = sb - sb.mean()
    # circular cross-correlation c[tau] = sum_t a[t] * b[t - tau]
    corr = np.fft.irfft(np.fft.rfft(sa) * np.conj(np.fft.rfft(sb)), sa.size)
    lag = int(np.argmax(corr))
    minutes = lag * MINUTES_PER_SLOT
    if minutes > HALF_DAY_MINUTES:
        minutes -= 2 * HALF_DAY_MINUTES
    return minutes


def _times(slots: Sequence[int]) -> str:
    return " ".join(slot_to_hhmm(s) for s in slots)


def write_time_features(path: str | Path, features: Sequence[TimeFeatures]) -> Path:
    """One column per ``TimeFeatures`` field; slot lists are written as
    space-separated HH:MM times."""
    header = [f.name for f in fields(TimeFeatures)]
    values = attrgetter(*header)
    rows = ([_times(v) if isinstance(v, list) else v for v in values(t)] for t in features)
    return write_csv(path, header, rows)
