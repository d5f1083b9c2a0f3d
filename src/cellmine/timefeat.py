"""Time-domain characterization of traffic patterns.

Daily profiles average each 10-minute slot of day separately over weekdays
and weekends. From a profile we extract the weekday/weekend traffic ratio,
peak and valley values, their ratio, and the times of prominent peaks and
valleys; between two profiles we measure the circular lag that best aligns
them. A ``DailyProfile`` checks its own curves when it is built.

Peak and valley times are read on the smoothed curve as a circle, the
circular moving average over ``SMOOTH_WINDOW`` slots:

- A peak is a run of equal samples whose neighbouring samples are both
  lower. A flat top counts once, at slot ``((start + end) // 2) mod n`` in
  unwrapped run coordinates (a top that crosses midnight ends past n - 1).
- Its prominence is ``v - max(left min, right min)``, each min taken over
  the arc up to the first strictly higher sample. A peak with no strictly
  higher sample has prominence ``v - min``.
- A peak is prominent when its prominence is at least
  ``PROMINENCE_FRACTION`` of the smoothed curve's span.
- Valleys are the prominent peaks of the negated curve.

These are the slots that ``scipy.signal.find_peaks(..., prominence=...)``
finds on three copies of the smoothed curve laid end to end, in the middle
copy; the tests hold the two equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .common import (
    SLOT_SECONDS,
    SLOTS_PER_DAY,
    SLOTS_PER_WEEK,
    finite_array,
    local_seconds_of_day,
    local_weekday,
    unit_scaled,
    write_csv,
)
from .ingest import BinnedSeries

# Peak detection knobs: moving-average window (slots) and the prominence
# floor as a fraction of the smoothed peak-valley range.
SMOOTH_WINDOW = 5
PROMINENCE_FRACTION = 0.15
_REACH = SMOOTH_WINDOW // 2
_KERNEL = np.ones(SMOOTH_WINDOW) / SMOOTH_WINDOW

MINUTES_PER_SLOT = SLOT_SECONDS // 60
HALF_DAY_MINUTES = SLOTS_PER_DAY * MINUTES_PER_SLOT // 2


class TimefeatError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class DailyProfile:
    """Slotwise mean day, in bytes per slot, for weekdays and weekends
    separately: two read-only, non-empty 1-D curves of finite values and of one
    length, converted as ``TrafficVector``'s values are; others raise ``TimefeatError``."""

    source_id: str
    weekday: np.ndarray
    weekend: np.ndarray

    def __post_init__(self) -> None:
        for kind in ("weekday", "weekend"):
            curve = getattr(self, kind)
            if np.ndim(curve) != 1 or np.size(curve) == 0:
                raise TimefeatError(f"{self.source_id}: {kind} curve of shape {np.shape(curve)},"
                                    " not a non-empty 1-D curve")
            object.__setattr__(self, kind, finite_array(
                curve, np.float64, TimefeatError,
                lambda slot: f"{self.source_id}: {kind} slot {slot}", "a finite mean"))
        lengths = [self.weekday.size, self.weekend.size]
        if lengths[0] != lengths[1]:
            raise TimefeatError(f"{self.source_id}: weekday and weekend curves hold unequal"
                                f" numbers of slots: {lengths}")


class TimeFeatures(NamedTuple):
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
    represented equally, and a finite byte count in every slot. Each slot's
    days are scaled by ``common.unit_scaled``, averaged and scaled back."""
    if local_seconds_of_day(series.origin) != 0:
        raise TimefeatError(
            f"{series.tower_id}: series origin is not civil midnight; "
            "profiles need day-aligned data"
        )
    values = finite_array(series.slot_bytes, np.float64, TimefeatError,
                          lambda i: f"{series.tower_id}: slot {i}", "a finite count")
    if values.size == 0 or values.size % SLOTS_PER_WEEK != 0:
        raise TimefeatError(
            f"{series.tower_id}: profile needs whole weeks of slots, got {values.size}"
        )
    days, e = unit_scaled(values.reshape(-1, SLOTS_PER_DAY))
    weekdays = (local_weekday(series.origin) + np.arange(days.shape[0])) % 7
    weekday_mask = weekdays < 5
    return DailyProfile(
        series.tower_id,
        np.ldexp(days[weekday_mask].mean(axis=0), e),
        np.ldexp(days[~weekday_mask].mean(axis=0), e),
    )


def _ratio(curves: np.ndarray) -> float | None:
    """Mean weekday over mean weekend daily total of the two rows of ``curves``,
    scaled by one ``common.unit_scaled``; None when the weekend total is 0."""
    n = curves.shape[1]
    both, _ = unit_scaled(curves.reshape(-1))
    weekend_total = float(both[n:].sum())
    if weekend_total == 0.0:
        return None
    return float(both[:n].sum()) / weekend_total


def _circular_smooth(curves: np.ndarray) -> np.ndarray:
    """Circular moving average of each of the k rows of ``curves`` (n slots
    each), as k rows of n + 1 values whose last repeats the first: each row
    is scaled by its own ``common.unit_scaled``, wrapped round by the
    window's reach and convolved on its own. The scaling keeps every sum
    finite and, being exact, moves no peak, valley or lag."""
    n = curves.shape[1]
    scaled = unit_scaled(curves.T)[0].T
    wrapped = np.take(scaled, np.arange(-_REACH, n + 1 + _REACH), axis=1, mode="wrap")
    return np.array([np.convolve(row, _KERNEL, mode="valid") for row in wrapped])


def _prominent(heights: list[float], first: int, threshold: float) -> list[int]:
    """Indices ``first``, ``first + 2``, ... of ``heights``, the circular
    list of a curve's alternating maxima and minima with the maxima at those
    indices, whose prominence reaches ``threshold``.

    The lowest sample of an arc that ends before a higher sample is one of
    the arc's minima, so on each side it is enough to find a minimum
    ``threshold`` below the peak before a higher maximum. ``top - low`` is
    rounded as ``top - max(left min, right min)`` is, so the test is exact.
    Each walk ends within one lap: a peak with no higher maximum is the
    highest, a whole span above the lowest minimum."""
    m = len(heights)

    def reaches(i: int, step: int) -> bool:
        top = heights[i]
        for k in range(i + step, i + step * m, 2 * step):
            if top - heights[k % m] >= threshold:
                return True
            if heights[(k + step) % m] > top:
                return False
        return False

    return [i for i in range(first, m, 2) if reaches(i, -1) and reaches(i, 1)]


def _extrema(smoothed: np.ndarray) -> list[tuple[list[int], list[int]]]:
    """(peak slots, valley slots) of each row of ``_circular_smooth``'s
    output, by the rule in the module docstring."""
    n = smoothed.shape[1] - 1
    found = []
    for row, steps, span in zip(smoothed, np.diff(smoothed, axis=1), np.ptp(smoothed, axis=1)):
        if not span > 0.0:
            found.append(([], []))
            continue
        # Runs of equal samples end where the curve steps. A run whose step
        # in and step out differ in sign is a maximum or a minimum; these
        # alternate round the circle.
        ends = np.flatnonzero(steps)
        rises = steps[ends] > 0.0
        turns = np.flatnonzero(rises != np.roll(rises, 1)).tolist()
        ends = ends.tolist()
        # run j starts after ends[j - 1], a day earlier for j == 0
        slots = [(ends[j - 1] + 1 - (n if j == 0 else 0) + ends[j]) // 2 % n for j in turns]
        heights = [float(row[ends[j]]) for j in turns]
        # the first turning run is a minimum when the step out of it rises
        first_peak = 1 if rises[turns[0]] else 0
        threshold = PROMINENCE_FRACTION * float(span)
        peaks = _prominent(heights, first_peak, threshold)
        valleys = _prominent([-h for h in heights], 1 - first_peak, threshold)
        found.append((sorted(slots[i] for i in peaks), sorted(slots[i] for i in valleys)))
    return found


def compute_time_features(profile: DailyProfile) -> TimeFeatures:
    """Peak and valley values come from the raw curves, their times from the
    smoothed ones. A peak/valley ratio is None when the valley is not above 0."""
    curves = np.stack([profile.weekday, profile.weekend])
    peaks = curves.max(axis=1).tolist()
    valleys = curves.min(axis=1).tolist()
    ratios = [p / v if v > 0.0 else None for p, v in zip(peaks, valleys)]
    (wd_pt, wd_vt), (we_pt, we_vt) = _extrema(_circular_smooth(curves))
    return TimeFeatures(
        profile.source_id,
        _ratio(curves),
        peaks[0],
        valleys[0],
        ratios[0],
        peaks[1],
        valleys[1],
        ratios[1],
        wd_pt,
        wd_vt,
        we_pt,
        we_vt,
    )


def peak_offset(a: DailyProfile, b: DailyProfile) -> int:
    """Signed circular lag in minutes by which the weekday curve of profile
    ``a`` trails that of profile ``b``, from the cross-correlation of the
    smoothed, mean-removed curves. Both weekday curves must contain at least
    one prominent peak: a smoothed curve has one unless it is flat, since
    its highest sample's prominence is the whole span. The two curves must
    be of one length."""
    lengths = [a.weekday.size, b.weekday.size]
    if lengths[0] != lengths[1]:
        raise TimefeatError(f"weekday curves of {a.source_id} and {b.source_id} hold unequal"
                            f" numbers of slots: {lengths}")
    smoothed = _circular_smooth(np.stack([a.weekday, b.weekday]))[:, :-1]
    for label, span in zip("ab", np.ptp(smoothed, axis=1)):
        if not span > 0.0:
            raise TimefeatError(f"profile {label} has no prominent peak; offset undefined")
    sa, sb = (curve - curve.mean() for curve in smoothed)
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
    rows = ([_times(v) if isinstance(v, list) else v for v in t] for t in features)
    return write_csv(path, TimeFeatures._fields, rows, TimefeatError)
