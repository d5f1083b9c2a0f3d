import re

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scaling import exponents, is_normal, same_bits

from cellmine.common import SLOT_SECONDS, SLOTS_PER_WEEK, local_seconds_of_day, local_weekday
from cellmine.ingest import BinnedSeries
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
        b = float(rng.uniform(-20, 20))
        base = normalize(BinnedSeries("t", 0, raw))
        scaled = normalize(BinnedSeries("t", 0, k * raw + b))
        np.testing.assert_allclose(scaled.values, base.values, atol=1e-9)


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
    raw = np.arange(10, dtype=float)
    raw[4] = bad
    with pytest.raises(VectorizeError, match=f"^tower t7: slot 4 holds {bad}, not a finite count$"):
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


def test_write_vectors_csv_rejects_vectors_of_different_lengths(tmp_path):
    vectors = [TrafficVector("a", np.zeros(2)), TrafficVector("b", np.zeros(3))]
    with pytest.raises(VectorizeError, match="tower b holds 3 values, but tower a holds 2"):
        write_vectors_csv(tmp_path / "v.csv", vectors)
    assert not (tmp_path / "v.csv").exists()


def test_write_vectors_binary_rejects_id_too_long_and_keeps_the_file(tmp_path):
    path = write_vectors_binary(tmp_path / "v.bin", [TrafficVector("a", np.arange(2.0))])
    before = path.read_bytes()
    # 65,535 UTF-8 bytes is the most a u16 length holds; "é" is two bytes
    vectors = [TrafficVector("a", np.zeros(2)), TrafficVector("é" * 32768, np.zeros(2))]
    with pytest.raises(VectorizeError, match="id is 65536 UTF-8 bytes, more than the 65535"):
        write_vectors_binary(path, vectors)
    assert path.read_bytes() == before
    longest = [TrafficVector("x" * 65535, np.ones(2))]
    assert read_vectors(write_vectors_binary(path, longest))[0].tower_id == "x" * 65535


def test_read_vectors_binary_truncated(tmp_path):
    vectors = [TrafficVector("a", np.arange(5.0)), TrafficVector("b", np.ones(5))]
    path = write_vectors_binary(tmp_path / "v.bin", vectors)
    data = path.read_bytes()
    # cut inside the count, an id length, an id, the flag/length header and the values
    for size in (9, 13, 15, 16, 30, len(data) - 1):
        path.write_bytes(data[:size])
        with pytest.raises(VectorizeError, match="truncated vector file: .*v.bin"):
            read_vectors(path)


@pytest.mark.parametrize(
    "row, message",
    [
        ("a", "line 2: expected 4 fields, got 1"),
        ("a,0,1.0", "line 2: expected 4 fields, got 3"),
        ("a,0,1.0,2.0,3.0", "line 2: expected 4 fields, got 5"),
        ("a,0,1.0,x", "line 2: could not convert"),
        ("a,2,1.0,2.0", "line 2: degenerate is '2', not 0 or 1"),
        ("a, 1,1.0,2.0", "line 2: degenerate is ' 1', not 0 or 1"),
        ("a,0,1.0,nan", "line 2: v1 is NaN"),
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


# magic, one record: id length, id "ab", degenerate flag, value count, one value
BINARY_RECORD = b"CMVEC1\n" + b"\x01\x00\x00\x00" + b"\x02\x00ab" + b"\x00\x01\x00\x00\x00" + bytes(8)


@pytest.mark.parametrize(
    "data, message",
    [
        (BINARY_RECORD.replace(b"ab", b"a\xff"), "v.bin record 1: tower id is not UTF-8"),
        # a value count of 2**32 - 1, some 34 GB, in a 28-byte file
        (BINARY_RECORD[:-12] + b"\xff\xff\xff\xff" + bytes(8),
         "v.bin record 1 claims 4294967295 values"),
        (BINARY_RECORD.replace(b"ab\x00", b"ab\x07"), "v.bin record 1: degenerate flag is 7, not 0 or 1"),
        (BINARY_RECORD + b"\x00", "v.bin: bytes after the last of 1 records"),
        (BINARY_RECORD[:-8] + bytes(6) + b"\xf8\x7f", "v.bin record 1: v0 is NaN"),
        # flagged degenerate, with the value 1.0
        (BINARY_RECORD.replace(b"ab\x00", b"ab\x01")[:-8] + bytes(6) + b"\xf0\x3f",
         "v.bin record 1: tower ab: degenerate, but its values are not all 0"),
        (BINARY_RECORD.replace(b"\x01", b"\x02", 1) + BINARY_RECORD[11:],
         "v.bin record 2: tower ab is repeated"),
    ],
)
def test_read_vectors_binary_rejects_malformed_file(tmp_path, data, message):
    path = tmp_path / "v.bin"
    path.write_bytes(data)
    with pytest.raises(VectorizeError, match=message):
        read_vectors(path)
    # the same record, well formed, reads back
    path.write_bytes(BINARY_RECORD)
    assert [(v.tower_id, v.degenerate, v.values.tolist()) for v in read_vectors(path)] == [
        ("ab", False, [0.0])
    ]


def test_read_vectors_binary_rejects_a_file_without_the_magic(tmp_path):
    path = write_vectors_csv(tmp_path / "v.csv", [TrafficVector("a", np.arange(2.0))])
    with pytest.raises(VectorizeError, match=f"^not a cellmine vector file: {re.escape(str(path))}$"):
        read_vectors_binary(path)
