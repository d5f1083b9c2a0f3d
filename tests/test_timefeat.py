import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scaling import exponents, is_normal
from scipy.signal import find_peaks

from cellmine.ingest import BinnedSeries
from cellmine.timefeat import (
    PROMINENCE_FRACTION,
    SMOOTH_WINDOW,
    DailyProfile,
    TimefeatError,
    compute_time_features,
    daily_profile,
    peak_offset,
    slot_to_hhmm,
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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_daily_profile_rejects_a_non_finite_slot(bad):
    values = np.ones(1008)
    values[300] = bad
    with pytest.raises(TimefeatError, match=f"^t: slot 300 holds {bad}, not a finite count$"):
        daily_profile(BinnedSeries("t", MONDAY, values))


def test_daily_profile_of_huge_finite_slots_is_finite():
    # 20 weekday copies of 1.7e308 overflow the plain sum of the day mean
    values = np.ones(4 * 1008)
    values[::144] = 1.7e308
    profile = daily_profile(BinnedSeries("t", MONDAY, values))
    want = np.ones(144)
    want[0] = 1.7e308
    np.testing.assert_allclose(profile.weekday, want, rtol=1e-15)
    np.testing.assert_allclose(profile.weekend, want, rtol=1e-15)
    features = compute_time_features(profile)
    assert features.weekday_peak == pytest.approx(1.7e308, rel=1e-15)
    assert features.weekend_peak == pytest.approx(1.7e308, rel=1e-15)
    # every slot at the largest float, of either sign
    for top in (np.finfo(float).max, -np.finfo(float).max):
        profile = daily_profile(BinnedSeries("t", MONDAY, np.full(4 * 1008, top)))
        np.testing.assert_allclose(profile.weekday, top, rtol=1e-15)
        np.testing.assert_allclose(profile.weekend, top, rtol=1e-15)


def test_profile_conserves_totals():
    # 5 * weekday profile + 2 * weekend profile recovers one week's total
    rng = np.random.default_rng(21)
    values = rng.uniform(0, 100, size=4 * 1008)
    profile = daily_profile(BinnedSeries("t", MONDAY, values))
    weekly_total = values.sum() / 4
    recovered = 5 * profile.weekday.sum() + 2 * profile.weekend.sum()
    assert recovered == pytest.approx(weekly_total, rel=1e-6)


def ratio(profile):
    return compute_time_features(profile).weekday_weekend_ratio


def test_ratio_equal_profiles():
    profile = DailyProfile("t", np.ones(144), np.ones(144))
    assert ratio(profile) == pytest.approx(1.0)


def test_ratio_weekday_double():
    profile = DailyProfile("t", 2 * np.ones(144), np.ones(144))
    assert ratio(profile) == pytest.approx(2.0)


def test_ratio_zero_weekend_undefined():
    profile = DailyProfile("t", np.ones(144), np.zeros(144))
    assert ratio(profile) is None


def test_ratio_of_slots_whose_sums_overflow():
    # every slot's mean is 1e307, and 144 of them sum past the largest float
    profile = daily_profile(BinnedSeries("t", MONDAY, np.full(4 * 1008, 1e307)))
    assert ratio(profile) == 1.0


@given(exponents(), st.integers(0, 2**32 - 1))
@example((1020, -1000), 0)
@example((-1000, 1000), 0)
def test_ratio_is_exactly_scale_invariant(ek, seed):
    # weekday and weekend curves below 2**e, a tenth of their slots 0, and their multiples by 2**k
    (e, k), rng = ek, np.random.default_rng(seed)
    weekday, weekend = np.ldexp(rng.random((2, 144)) * (rng.random((2, 144)) < 0.9), e)
    scaled = np.ldexp([weekday, weekend], k)
    assume(is_normal([weekday, weekend]) and is_normal(scaled))
    assert ratio(DailyProfile("t", *scaled)) == ratio(DailyProfile("t", weekday, weekend))


def features_of(curve):
    """Time features of a profile whose weekday and weekend curves are both ``curve``."""
    return compute_time_features(DailyProfile("t", curve, curve))


def test_time_features_single_sinusoid_at_2130():
    slot = 129  # 21:30
    feats = features_of(1.0 + np.cos(2 * np.pi * (np.arange(144) - slot) / 144))
    assert feats.weekday_peak_times == [slot]
    assert slot_to_hhmm(slot) == "21:30"
    assert feats.weekday_peak == pytest.approx(2.0)
    assert feats.weekday_valley == pytest.approx(0.0, abs=1e-12)
    ratio = feats.weekday_peak_valley_ratio
    assert ratio is None or ratio > 1  # valley 0 -> undefined


def test_time_features_double_hump():
    feats = features_of(day_curve(48, width=8) + day_curve(108, width=8))
    assert any(abs(p - 48) <= 1 for p in feats.weekday_peak_times)
    assert any(abs(p - 108) <= 1 for p in feats.weekday_peak_times)
    assert [slot_to_hhmm(48), slot_to_hhmm(108)] == ["08:00", "18:00"]


def test_time_features_constant_profile():
    feats = features_of(np.full(144, 5.0))
    assert feats.weekday_peak_valley_ratio == pytest.approx(1.0)
    assert feats.weekday_peak_times == [] and feats.weekday_valley_times == []


def test_time_features_ratio_at_least_one():
    rng = np.random.default_rng(22)
    for _ in range(20):
        feats = features_of(rng.uniform(0.5, 10, size=144))
        assert feats.weekday_peak_valley_ratio >= 1.0


def scipy_extrema(curve):
    """Oracle: the peak and valley slots that ``scipy.signal.find_peaks``
    finds on three copies of the smoothed curve laid end to end, kept in the
    middle copy. This was the package's own code before it moved to numpy."""
    half = SMOOTH_WINDOW // 2
    extended = np.concatenate([curve[-half:], curve, curve[:half]])
    smoothed = np.convolve(extended, np.ones(SMOOTH_WINDOW) / SMOOTH_WINDOW, mode="valid")
    span = float(smoothed.max() - smoothed.min())
    if span == 0.0:
        return [], []
    threshold = PROMINENCE_FRACTION * span
    tripled = np.concatenate([smoothed, smoothed, smoothed])
    n = smoothed.size
    peaks, _ = find_peaks(tripled, prominence=threshold)
    valleys, _ = find_peaks(-tripled, prominence=threshold)
    return (
        sorted({int(p - n) for p in peaks if n <= p < 2 * n}),
        sorted({int(v - n) for v in valleys if n <= v < 2 * n}),
    )


@st.composite
def circle_pairs(draw):
    """Two curves of one length, 2 to 160 slots or a day's 144. Their values
    are small integers in runs of 1 to 12 equal samples, so the smoothed
    curves hold ties and flat tops and bottoms; a random rotation puts some
    of those across midnight. Near-flat curves put the integers at 1e-12 on
    top of 1000, a few units in the last place."""
    n = draw(st.one_of(st.just(144), st.integers(2, 160)))
    base, scale = draw(st.sampled_from([(0.0, 1.0), (1000.0, 1e-12)]))

    def curve():
        runs = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 12)), min_size=1))
        levels, lengths = zip(*runs)
        values = np.resize(np.repeat(levels, lengths), n)
        return base + scale * np.roll(values, draw(st.integers(0, n - 1)))

    return curve(), curve()


@settings(max_examples=500)
@given(circle_pairs())
@example((np.roll(np.r_[np.ones(20), np.zeros(124)], -10), np.full(144, 3.0)))
@example((np.r_[2.0, 1.0, 2.0, 1.0, 0.0, 1.0], 1000.0 + 1e-12 * np.r_[0.0, 0.0, 1.0, 0.0, 0.0, 0.0]))
# a peak and a valley whose prominence equals the threshold to the last bit
@example(2 * (np.r_[2.0, 3, 0, 0, 4, 8, 11, 3, 0, 4, 3, 3, 0, 0, 2, 10, 0, 1],))
def test_peak_and_valley_times_equal_find_peaks_on_the_tripled_curve(curves):
    weekday, weekend = curves
    feats = compute_time_features(DailyProfile("t", weekday, weekend))
    assert (feats.weekday_peak_times, feats.weekday_valley_times) == scipy_extrema(weekday)
    assert (feats.weekend_peak_times, feats.weekend_valley_times) == scipy_extrema(weekend)


def test_compute_time_features_bundle():
    wd = day_curve(63, width=10)
    we = day_curve(72, width=10) * 0.5
    profile = daily_profile(BinnedSeries("office-ish", MONDAY, weekly_series(wd, we)))
    feats = compute_time_features(profile)
    assert feats.weekday_peak_times == [63]
    assert feats.weekend_peak_times == [72]
    assert feats.weekday_weekend_ratio == pytest.approx(wd.sum() / (0.5 * wd.sum()))


def times_of(features):
    return (features.weekday_peak_times, features.weekday_valley_times,
            features.weekend_peak_times, features.weekend_valley_times)


def test_peak_times_and_lag_of_curves_whose_sums_overflow():
    # the mean removal of 1e307 * (1.5 + cos) and the steps of the smoothed
    # +-1.797e308 * cos overflow unless each curve is scaled first
    t = np.arange(144) * (2 * np.pi / 144)
    a, b = 1.5 + np.cos(t - t[12]), 1.5 + np.cos(t)
    huge = [DailyProfile(i, 1e307 * c, 1e307 * c) for i, c in (("a", a), ("b", b))]
    assert peak_offset(*huge) == peak_offset(DailyProfile("a", a, a), DailyProfile("b", b, b)) == 120
    top = np.finfo(float).max * np.cos(t)
    features = features_of(top)
    assert times_of(features) == times_of(features_of(np.cos(t))) == ([0], [72], [0], [72])
    # peak and valley values are the raw curve's
    assert (features.weekday_peak, features.weekday_valley) == (top.max(), top.min())


@given(exponents(), st.integers(0, 2**32 - 1))
@example((1020, -1000), 0)
@example((-1000, 1000), 0)
def test_peak_times_and_offset_are_exactly_scale_invariant(ek, seed):
    # random curves below 2**e, with many extrema, and their multiples by 2**k
    (e, k), rng = ek, np.random.default_rng(seed)
    curves = np.ldexp(rng.random((3, 144)), e)
    scaled = np.ldexp(curves, k)
    assume(is_normal(curves) and is_normal(scaled))
    a, b, sa, sb = (DailyProfile("t", c[i], c[2]) for c in (curves, scaled) for i in (0, 1))
    assert times_of(compute_time_features(sa)) == times_of(compute_time_features(a))
    assert peak_offset(sa, sb) == peak_offset(a, b)


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


def test_curves_of_unequal_lengths_fail_with_timefeat_error():
    # A profile checks its own curves, so such a profile is never built.
    with pytest.raises(TimefeatError, match=r"^s: weekday and weekend curves hold unequal .*: \[143, 144\]$"):
        DailyProfile("s", day_curve(60)[:-1], day_curve(60))
    short = DailyProfile("s", day_curve(60)[:-1], day_curve(60)[:-1])
    peaked = DailyProfile("p", day_curve(60), day_curve(60))
    with pytest.raises(TimefeatError, match=r"^weekday curves of s and p hold unequal .*: \[143, 144\]$"):
        peak_offset(short, peaked)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_curves_with_a_non_finite_slot_fail_with_timefeat_error(bad):
    curve = day_curve(60)
    curve[7] = bad
    with pytest.raises(TimefeatError, match=f"^s: weekday slot 7 holds {bad}, not a finite mean$"):
        DailyProfile("s", curve, day_curve(60))
    with pytest.raises(TimefeatError, match=f"^s: weekend slot 7 holds {bad}, not a finite mean$"):
        DailyProfile("s", day_curve(60), curve)


@pytest.mark.parametrize("curve, shape", [
    (np.zeros(0), r"\(0,\)"),  # a bare ValueError: zero-size array to reduction
    (np.ones((2, 72)), r"\(2, 72\)"),  # a bare TypeError
    (np.float64(1.0), r"\(\)"),
])
def test_an_empty_or_not_1_d_curve_fails_with_timefeat_error(curve, shape):
    message = f"^s: {{}} curve of shape {shape}, not a non-empty 1-D curve$"
    with pytest.raises(TimefeatError, match=message.format("weekday")):
        DailyProfile("s", curve, curve)
    with pytest.raises(TimefeatError, match=message.format("weekend")):
        DailyProfile("s", day_curve(60), curve)


def test_a_profile_cannot_change_once_checked():
    # Its curves are read-only float64 views; the caller's own arrays stay writable.
    weekday, weekend = day_curve(60), np.ones(144, dtype=int)
    profile = DailyProfile("s", weekday, weekend)
    assert profile.weekday.base is weekday and profile.weekend.dtype == np.float64
    with pytest.raises(ValueError, match="read-only"):
        profile.weekday[0] = np.nan
    with pytest.raises(dataclasses.FrozenInstanceError):
        profile.weekend = np.full(144, np.nan)
    weekday[0] = 9.0
    assert profile.weekday[0] == 9.0 and weekday.flags.writeable