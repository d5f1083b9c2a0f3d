import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from npyfiles import HUGE_HEADERS, MALFORMED_ARRAYS, npy, npy_header
from scaling import exponents, is_normal, same_bits

from cellmine.common import (
    NPY_MAGIC,
    SLOT_SECONDS,
    SLOTS_PER_WEEK,
    local_seconds_of_day,
    local_weekday,
)
from cellmine.ingest import BinnedSeries, IngestError
from cellmine.timefeat import daily_profile
from cellmine.vectorize import (
    TrafficVector,
    VectorizeError,
    normalize,
    read_vectors,
    read_vectors_binary,
    trim_to_weeks,
    write_vectors_binary,
    write_vectors_csv,
)

# Civil midnight in UTC+8 of Monday 2014-08-04 and of Friday 2014-08-01.
MONDAY = 1407081600
FRIDAY = 1406822400


def make_series(origin, n_slots, tower="t"):
    return BinnedSeries(tower, origin, np.arange(n_slots, dtype=float))


def test_trim_31_day_series_to_4_weeks():
    # month starting Friday: first Monday is 3 days in, leaving exactly 28 days
    series = make_series(FRIDAY, 31 * 144)
    trimmed = trim_to_weeks(series, 4)
    assert trimmed.n_slots == 4032
    assert trimmed.origin == MONDAY
    np.testing.assert_array_equal(trimmed.slot_bytes, series.slot_bytes[3 * 144 : 3 * 144 + 4032])


def test_trim_aligned_28_day_series_unchanged():
    series = make_series(MONDAY, 4032)
    trimmed = trim_to_weeks(series, 4)
    assert trimmed.origin == MONDAY
    np.testing.assert_array_equal(trimmed.slot_bytes, series.slot_bytes)


@given(st.integers(0, 2 * SLOTS_PER_WEEK - 1), st.integers(1, 2))
def test_trim_to_weeks_starts_on_the_first_monday_midnight(shift, weeks):
    # slot-aligned origins over the two weeks before MONDAY
    origin = MONDAY - (2 * SLOTS_PER_WEEK - shift) * SLOT_SECONDS
    series = make_series(origin, (weeks + 1) * SLOTS_PER_WEEK)
    trimmed = trim_to_weeks(series, weeks)
    assert local_weekday(trimmed.origin) == 0
    assert local_seconds_of_day(trimmed.origin) == 0
    offset, rest = divmod(trimmed.origin - origin, SLOT_SECONDS)
    assert rest == 0 and 0 <= offset < SLOTS_PER_WEEK
    np.testing.assert_array_equal(
        trimmed.slot_bytes, series.slot_bytes[offset : offset + weeks * SLOTS_PER_WEEK]
    )
    assert daily_profile(trimmed).weekday.shape == (144,)


def test_trim_insufficient_data_errors_with_counts():
    series = make_series(MONDAY, 20 * 144)
    with pytest.raises(VectorizeError, match="4032"):
        trim_to_weeks(series, 4)


def test_trim_rejects_unaligned_origin():
    series = make_series(MONDAY + 90, 4032)
    with pytest.raises(VectorizeError, match="aligned"):
        trim_to_weeks(series, 4)


@pytest.mark.parametrize("weeks", [0, -1])
def test_trim_rejects_fewer_than_one_week(weeks):
    with pytest.raises(VectorizeError, match=f"^weeks must be >= 1, got {weeks}$"):
        trim_to_weeks(make_series(MONDAY, 4032), weeks)


def test_normalize_hand_case():
    vec = normalize(BinnedSeries("t", 0, np.array([1.0, 3.0])))
    np.testing.assert_allclose(vec.values, [-1.0, 1.0])
    assert not vec.degenerate


def test_normalize_constant_is_degenerate():
    vec = normalize(BinnedSeries("t", 0, np.full(100, 7.5)))
    assert vec.degenerate
    assert np.all(vec.values == 0.0)


def test_normalize_mean_zero_std_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        raw = rng.uniform(0, 1000, size=int(rng.integers(10, 500)))
        vec = normalize(BinnedSeries("t", 0, raw))
        assert abs(vec.values.mean()) < 1e-9
        assert abs(vec.values.std() - 1.0) < 1e-9


def test_normalize_scale_invariance():
    # positive affine transforms of the raw series yield the same vector
    rng = np.random.default_rng(1)
    for _ in range(20):
        raw = rng.uniform(0, 100, size=200)
        k = float(rng.uniform(0.1, 50))
        b = float(rng.uniform(0, 20))
        base = normalize(BinnedSeries("t", 0, raw))
        scaled = normalize(BinnedSeries("t", 0, k * raw + b))
        np.testing.assert_allclose(scaled.values, base.values, atol=1e-9)


@pytest.mark.parametrize("flag", [2, "yes", None])
def test_a_vector_flag_is_a_bool(flag):
    # 2 was once written to CSV as a row read_vectors rejects, and to .npy as
    # True; "yes" and None made the CSV writer raise a bare ValueError and TypeError
    with pytest.raises(VectorizeError, match=f"^tower a: degenerate is {re.escape(repr(flag))}, not a bool$"):
        TrafficVector("a", np.zeros(3), flag)
    assert type(TrafficVector("a", np.zeros(3), np.True_).degenerate) is bool


def test_vector_io_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    vectors = [
        TrafficVector("b", rng.normal(size=50)),
        TrafficVector("a", np.zeros(50), degenerate=True),
    ]
    csv_path = write_vectors_csv(tmp_path / "v.csv", vectors)
    bin_path = write_vectors_binary(tmp_path / "v.bin", vectors)
    for path in (csv_path, bin_path):
        loaded = read_vectors(path)
        assert [v.tower_id for v in loaded] == ["a", "b"]
        assert loaded[0].degenerate and not loaded[1].degenerate
        np.testing.assert_allclose(loaded[1].values, vectors[0].values, rtol=0, atol=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_normalize_rejects_non_finite_series(bad):
    # the series' constructor rejects the slot before normalize can read it
    raw = np.arange(10, dtype=float)
    raw[4] = bad
    with pytest.raises(IngestError, match=fr"^tower t7 slot 4 holds {bad}, not a number in \[0, inf\)$"):
        normalize(BinnedSeries("t7", 0, raw))


def test_normalize_rejects_empty_series():
    with pytest.raises(VectorizeError, match="^tower t7: empty series$"):
        normalize(BinnedSeries("t7", 0, np.zeros(0)))


# Finite byte counts whose std leaves float64 unless they are scaled first:
# an infinite std, a z-score that would overflow, and stds that underflow to 0
# or overflow. Each has the z-scores of the same shape at an ordinary scale.
@pytest.mark.parametrize("raw, shape", [
    ([1e308, 1.7e308, 0.0], [10.0, 17.0, 0.0]),
    ([1.7e308, 0.0, 0.0], [1.0, 0.0, 0.0]),
    ([0.0, 5e-324], [0.0, 1.0]),
    ([1e154, 2e154, 3e154], [1.0, 2.0, 3.0]),
])
def test_normalize_scales_series_at_the_ends_of_the_float_range(raw, shape):
    vec = normalize(BinnedSeries("t7", 0, np.array(raw)))
    want = normalize(BinnedSeries("t7", 0, np.array(shape)))
    assert not vec.degenerate
    np.testing.assert_allclose(vec.values, want.values, rtol=1e-15, atol=0)


@given(exponents(), st.integers(0, 2**32 - 1))
@example((1020, -1000), 0)
@example((-1000, 1000), 0)
def test_normalize_is_exactly_scale_invariant(ek, seed):
    # a week of byte counts below 2**e, a tenth of them 0, and its multiple by 2**k
    (e, k), rng = ek, np.random.default_rng(seed)
    x = np.ldexp(rng.random(SLOTS_PER_WEEK) * (rng.random(SLOTS_PER_WEEK) < 0.9), e)
    scaled = np.ldexp(x, k)
    assume(is_normal(x) and is_normal(scaled))
    assert same_bits(normalize(BinnedSeries("t", 0, scaled)).values,
                     normalize(BinnedSeries("t", 0, x)).values)


@pytest.mark.parametrize("write", [write_vectors_csv, write_vectors_binary], ids=["csv", "binary"])
def test_vector_writers_reject_vectors_of_different_lengths(tmp_path, write):
    vectors = [TrafficVector("a", np.zeros(2)), TrafficVector("b", np.zeros(3))]
    with pytest.raises(VectorizeError, match="^tower b holds 3 values, but tower a holds 2$"):
        write(tmp_path / "v", vectors)
    assert not list(tmp_path.iterdir())


def test_vectors_binary_round_trips_an_id_of_any_length(tmp_path):
    # 65,536 UTF-8 bytes: one more than the u16 length of the earlier record format held
    vectors = [TrafficVector("é" * 32768, np.arange(2.0)), TrafficVector("a", np.zeros(2), True)]
    loaded = read_vectors(write_vectors_binary(tmp_path / "v.bin", vectors))
    assert [(v.tower_id, v.degenerate, v.values.tolist()) for v in loaded] == [
        ("a", True, [0.0, 0.0]), ("é" * 32768, False, [0.0, 1.0])
    ]


@pytest.mark.parametrize(
    "row, message",
    [
        ("a", "line 2: expected 4 fields, got 1"),
        ("a,0,1.0", "line 2: expected 4 fields, got 3"),
        ("a,0,1.0,2.0,3.0", "line 2: expected 4 fields, got 5"),
        ("a,0,1.0,x", "line 2: could not convert"),
        ("a,2,1.0,2.0", "line 2: degenerate is '2', not 0 or 1"),
        ("a, 1,1.0,2.0", "line 2: degenerate is ' 1', not 0 or 1"),
        ("a,0,1.0,nan", "line 2: tower a: v1 holds nan, not a finite value"),
        ("a,1,1.0,-1.0", "line 2: tower a: degenerate, but its values are not all 0"),
        ("a,0,1.0,2.0\nb,0,1.0,2.0\na,1,0.0,0.0", "line 4: tower a is repeated"),
    ],
)
def test_read_vectors_csv_rejects_malformed_row(tmp_path, row, message):
    path = tmp_path / "v.csv"
    path.write_text(f"tower_id,degenerate,v0,v1\n{row}\n")
    with pytest.raises(VectorizeError, match=f"v.csv {message}"):
        read_vectors(path)


def test_read_vectors_csv_rejects_empty_file(tmp_path):
    path = tmp_path / "v.csv"
    path.write_text("")
    with pytest.raises(VectorizeError, match="bad vectors header"):
        read_vectors(path)


@pytest.mark.parametrize(
    "header", ["tower_id,degenerate,foo", "tower_id,degenerate,v1", "tower_id,degenerate,v0,v0"]
)
def test_read_vectors_csv_checks_value_columns(tmp_path, header):
    path = tmp_path / "v.csv"
    path.write_text(f"{header}\na,0,1.0\n")
    with pytest.raises(VectorizeError, match="v.csv line 1: bad vectors header"):
        read_vectors(path)


def _vectors_bin(tmp_path):
    """A vectors.bin of tower t1, whose array has the shape of the arrays in
    ``npyfiles``, and the message prefix of its reader's errors."""
    path = write_vectors_binary(tmp_path / "vectors.bin", [TrafficVector("t1", np.ones(144))])
    return path, f"^{re.escape(str(path))}: "


@pytest.mark.parametrize("content, message", MALFORMED_ARRAYS)
def test_read_vectors_binary_rejects_malformed_array(tmp_path, content, message):
    path, prefix = _vectors_bin(tmp_path)
    if content is None:
        path.unlink()
    else:
        path.write_bytes(content)
    readers = [read_vectors_binary]
    if content is None or content.startswith(NPY_MAGIC):  # read_vectors reads other files as CSV
        readers.append(read_vectors)
    for read in readers:
        with pytest.raises(VectorizeError, match=prefix + message):
            read(path)


@pytest.mark.parametrize("shape, message", HUGE_HEADERS)
def test_read_vectors_rejects_a_header_claiming_more_than_the_file_holds(tmp_path, shape, message):
    path, prefix = _vectors_bin(tmp_path)
    path.write_bytes(npy_header(shape))
    tracemalloc.start()
    try:
        with pytest.raises(VectorizeError, match=f"{prefix}{message}$"):
            read_vectors(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "row, slot, value, message",
    [
        (1, 7, np.nan, "tower t1: v7 holds nan, not a finite value$"),
        (0, 143, -np.nan, "tower t0: v143 holds nan, not a finite value$"),
        (0, 0, 1.0, "tower t0: degenerate, but its values are not all 0$"),
    ],
    ids=["nan", "negative_nan", "degenerate_not_zero"],
)
def test_read_vectors_binary_rejects_a_bad_value(tmp_path, row, slot, value, message):
    vectors = [TrafficVector("t0", np.zeros(144), True), TrafficVector("t1", np.ones(144))]
    path = write_vectors_binary(tmp_path / "vectors.bin", vectors)
    matrix = np.stack([v.values for v in vectors])
    matrix[row, slot] = value
    path.write_bytes(npy(matrix))
    with pytest.raises(VectorizeError, match=f"^{re.escape(str(path))}: {message}"):
        read_vectors(path)


@pytest.mark.parametrize(
    "manifest, message",
    [
        ('{"towers": ["t1"], "values": 144}', "KeyError: 'degenerate'"),
        ('{"towers": "t1", "degenerate": [false], "values": 144}',
         "TypeError: towers is not a list of strings"),
        ('{"towers": ["t1", "t1"], "degenerate": [false, false], "values": 144}',
         "ValueError: tower t1 is repeated"),
        ('{"towers": ["t1"], "degenerate": [0], "values": 144}',
         "TypeError: degenerate is not a list of 1 bools"),
        ('{"towers": ["t1"], "degenerate": [false, false], "values": 144}',
         "TypeError: degenerate is not a list of 1 bools"),
        ('{"towers": ["t1"], "degenerate": false, "values": 144}',
         "TypeError: degenerate is not a list of 1 bools"),
        ('{"towers": ["t1"], "degenerate": [false], "values": 144.0}',
         "ValueError: values is 144.0, not a count"),
        ('{"towers": ["t1"], "degenerate": [false], "values": -1}',
         "ValueError: values is -1, not a count"),
        ("[", "JSONDecodeError"),
    ],
    ids=["no_flags", "towers_not_a_list", "repeated_tower", "flag_not_bool", "two_flags",
         "flags_not_a_list", "float_width", "negative_width", "bad_json"],
)
def test_read_vectors_binary_rejects_malformed_manifest(tmp_path, manifest, message):
    path, _ = _vectors_bin(tmp_path)
    manifest_path = tmp_path / "vectors.bin.json"
    manifest_path.write_text(manifest)
    with pytest.raises(VectorizeError, match=f"^{re.escape(str(manifest_path))}: {message}"):
        read_vectors(path)


@pytest.mark.parametrize("values, bad", [
    ([1.0, np.nan, 2.0], "v1 holds nan"),
    ([0.0, 2.0, np.inf], "v2 holds inf"),
    ([-np.inf, np.nan, 0.0], "v0 holds -inf"),
    (np.full(3, None), "v0 holds nan"),
], ids=["nan", "inf", "minus_inf", "none"])
@pytest.mark.parametrize("degenerate", [False, True])
def test_a_vector_holds_finite_values(values, bad, degenerate):
    # Such a vector was once built and written, and its reader then rejected the file.
    with pytest.raises(VectorizeError, match=f"^tower b: {bad}, not a finite value$"):
        TrafficVector("b", values, degenerate)


def test_a_vector_holds_numbers():
    # np.full(3, object()) once let a bare TypeError out of the float64 conversion
    with pytest.raises(VectorizeError, match=r"^tower b: v0 holds <object object at 0x[0-9a-f]+>, not a finite value$"):
        TrafficVector("b", np.full(3, object()))
    with pytest.raises(VectorizeError, match=r"^tower b: v2 holds x, not a finite value$"):
        TrafficVector("b", np.array([1.0, "2", "x"], dtype=object))


def test_a_vector_holds_float64_values():
    vec = TrafficVector("a", [1, 2, 3])
    assert vec.values.dtype == np.float64 and vec.values.tolist() == [1.0, 2.0, 3.0]
    values = np.arange(3.0)
    assert TrafficVector("a", values).values.base is values


def test_a_vector_cannot_change_once_checked():
    # A NaN set after the check once reached scipy, which raised a bare ValueError.
    values = np.arange(3.0)
    vs = [TrafficVector(f"t{i}", values + i) for i in range(3)]
    with pytest.raises(ValueError, match="read-only"):
        vs[1].values[0] = np.nan
    with pytest.raises(dataclasses.FrozenInstanceError):
        vs[1].values = np.full(3, np.nan)
    assert vs[1].values.tolist() == [1.0, 2.0, 3.0]
    # the caller's own array stays writable
    vec = TrafficVector("a", values)
    values[0] = 9.0
    assert vec.values[0] == 9.0 and values.flags.writeable


def test_a_vector_is_1_d():
    # a (1008, 2) series once gave a (1008, 2) vector, on which HAC failed with a bare ValueError
    with pytest.raises(VectorizeError, match=r"^tower t: vector of shape \(1008, 2\)$"):
        TrafficVector("t", np.zeros((1008, 2)))
    with pytest.raises(VectorizeError, match=r"^tower t: vector of shape \(\)$"):
        TrafficVector("t", np.float64(1.0))
