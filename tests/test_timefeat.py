import numpy as np
import pytest

from cellmine.ingest import BinnedSeries
from cellmine.timefeat import (
    DailyProfile,
    TimefeatError,
    compute_time_features,
    daily_profile,
    peak_offset,
    peak_valley,
    slot_to_hhmm,
    weekday_weekend_ratio,
)

# Civil midnight in UTC+8 of Monday 2014-08-04.
MONDAY = 1407081600


def day_curve(peak_slot, width=12.0, floor=0.2, amp=1.0):
    slots = np.arange(144)
    delta = np.minimum(np.abs(slots - peak_slot), 144 - np.abs(slots - peak_slot))
    return floor + amp * np.exp(-0.5 * (delta / width) ** 2)


def weekly_series(weekday_curve, weekend_curve, weeks=1):
    days = [weekday_curve] * 5 + [weekend_curve] * 2
    return np.concatenate(days * weeks)


def test_daily_profile_constant_series():
    series = BinnedSeries("t", MONDAY, np.full(1008, 3.0))
    profile = daily_profile(series)
    np.testing.assert_array_equal(profile.weekday, np.full(144, 3.0))
    np.testing.assert_array_equal(profile.weekend, np.full(144, 3.0))


def test_daily_profile_weekday_weekend_separation():
    values = weekly_series(np.ones(144), np.zeros(144))
    profile = daily_profile(BinnedSeries("t", MONDAY, values))
    np.testing.assert_array_equal(profile.weekday, np.ones(144))
    np.testing.assert_array_equal(profile.weekend, np.zeros(144))


def test_daily_profile_respects_first_weekday():
    # series starting on Saturday: first two days are weekend
    values = weekly_series(np.ones(144), np.zeros(144))
    profile = daily_profile(BinnedSeries("t", MONDAY - 2 * 86400, np.roll(values, 2 * 144)))
    np.testing.assert_array_equal(profile.weekday, np.ones(144))
    np.testing.assert_array_equal(profile.weekend, np.zeros(144))


def test_daily_profile_requires_whole_weeks_and_alignment():
    with pytest.raises(TimefeatError, match="whole weeks"):
        daily_profile(BinnedSeries("t", MONDAY, np.ones(500)))
    with pytest.raises(TimefeatError, match="midnight"):
        daily_profile(BinnedSeries("t", MONDAY + 600, np.ones(1008)))


def test_profile_conserves_totals():
    # 5 * weekday profile + 2 * weekend profile recovers one week's total
    rng = np.random.default_rng(21)
    values = rng.uniform(0, 100, size=4 * 1008)
    profile = daily_profile(BinnedSeries("t", MONDAY, values))
    weekly_total = values.sum() / 4
    recovered = 5 * profile.weekday.sum() + 2 * profile.weekend.sum()
    assert recovered == pytest.approx(weekly_total, rel=1e-6)


def test_ratio_equal_profiles():
    profile = DailyProfile("t", np.ones(144), np.ones(144))
    assert weekday_weekend_ratio(profile) == pytest.approx(1.0)


def test_ratio_weekday_double():
    profile = DailyProfile("t", 2 * np.ones(144), np.ones(144))
    assert weekday_weekend_ratio(profile) == pytest.approx(2.0)


def test_ratio_zero_weekend_undefined():
    profile = DailyProfile("t", np.ones(144), np.zeros(144))
    assert weekday_weekend_ratio(profile) is None


def test_peak_valley_single_sinusoid_at_2130():
    slot = 129  # 21:30
    curve = 1.0 + np.cos(2 * np.pi * (np.arange(144) - slot) / 144)
    peak, valley, ratio, peak_slots, valley_slots = peak_valley(curve)
    assert peak_slots == [slot]
    assert slot_to_hhmm(slot) == "21:30"
    assert peak == pytest.approx(2.0)
    assert valley == pytest.approx(0.0, abs=1e-12)
    assert ratio is None or ratio > 1  # valley 0 -> undefined


def test_peak_valley_double_hump():
    curve = day_curve(48, width=8) + day_curve(108, width=8)
    _, _, _, peak_slots, _ = peak_valley(curve)
    assert any(abs(p - 48) <= 1 for p in peak_slots)
    assert any(abs(p - 108) <= 1 for p in peak_slots)
    assert [slot_to_hhmm(48), slot_to_hhmm(108)] == ["08:00", "18:00"]


def test_peak_valley_constant_profile():
    peak, valley, ratio, peak_slots, valley_slots = peak_valley(np.full(144, 5.0))
    assert ratio == pytest.approx(1.0)
    assert peak_slots == [] and valley_slots == []


def test_peak_valley_ratio_at_least_one():
    rng = np.random.default_rng(22)
    for _ in range(20):
        curve = rng.uniform(0.5, 10, size=144)
        _, _, ratio, _, _ = peak_valley(curve)
        assert ratio >= 1.0


def test_compute_time_features_bundle():
    wd = day_curve(63, width=10)
    we = day_curve(72, width=10) * 0.5
    profile = daily_profile(BinnedSeries("office-ish", MONDAY, weekly_series(wd, we)))
    feats = compute_time_features(profile)
    assert feats.weekday_peak_times == [63]
    assert feats.weekend_peak_times == [72]
    assert feats.weekday_weekend_ratio == pytest.approx(wd.sum() / (0.5 * wd.sum()))


def test_peak_offset_identical_profiles_zero():
    profile = DailyProfile("t", day_curve(100), day_curve(100))
    assert peak_offset(profile, profile) == 0


def test_peak_offset_constructed_shift():
    base = day_curve(60)
    shifted = np.roll(base, 18)  # a's pattern happens 18 slots later
    a = DailyProfile("a", shifted, shifted)
    b = DailyProfile("b", base, base)
    assert peak_offset(a, b) == 180
    assert peak_offset(b, a) == -180


def test_peak_offset_antisymmetric_mod_day():
    rng = np.random.default_rng(23)
    base = day_curve(40, width=9) + 0.3 * day_curve(110, width=15)
    other = day_curve(85, width=11)
    a = DailyProfile("a", base, base)
    b = DailyProfile("b", other, other)
    fwd = peak_offset(a, b)
    back = peak_offset(b, a)
    assert (fwd + back) % 1440 == 0


def test_peak_offset_requires_peaks():
    flat = DailyProfile("flat", np.ones(144), np.ones(144))
    peaked = DailyProfile("p", day_curve(60), day_curve(60))
    with pytest.raises(TimefeatError, match="no prominent peak"):
        peak_offset(flat, peaked)


def test_peak_offset_reads_only_the_weekday_curves():
    base = day_curve(60)
    a = DailyProfile("a", base, np.roll(base, 30))
    b = DailyProfile("b", base, base)
    assert peak_offset(a, b) == 0
