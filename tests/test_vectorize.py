import numpy as np
import pytest

from cellmine.ingest import BinnedSeries
from cellmine.vectorize import (
    TrafficVector,
    VectorizeError,
    normalize,
    read_vectors,
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


def test_trim_insufficient_data_errors_with_counts():
    series = make_series(MONDAY, 20 * 144)
    with pytest.raises(VectorizeError, match="4032"):
        trim_to_weeks(series, 4)


def test_trim_rejects_unaligned_origin():
    series = make_series(MONDAY + 90, 4032)
    with pytest.raises(VectorizeError, match="aligned"):
        trim_to_weeks(series, 4)


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
    with pytest.raises(VectorizeError, match="tower t7"):
        normalize(BinnedSeries("t7", 0, raw))


# Finite byte counts whose mean, std or z-scores leave float64: an infinite
# std, a z-score that overflows, and a std that underflows to 0.
@pytest.mark.parametrize("raw", [[1e308, 1.7e308, 0.0], [1.7e308, 0.0, 0.0], [0.0, 5e-324]])
def test_normalize_rejects_series_it_cannot_scale(raw):
    with pytest.raises(VectorizeError, match="tower t7: z-score is not finite"):
        normalize(BinnedSeries("t7", 0, np.array(raw)))


def test_write_vectors_csv_rejects_vectors_of_different_lengths(tmp_path):
    vectors = [TrafficVector("a", np.zeros(2)), TrafficVector("b", np.zeros(3))]
    with pytest.raises(VectorizeError, match="tower b holds 3 values, but tower a holds 2"):
        write_vectors_csv(tmp_path / "v.csv", vectors)
    assert not (tmp_path / "v.csv").exists()


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
        (BINARY_RECORD.replace(b"ab\x00", b"ab\x07"), "v.bin record 1: degenerate flag is 7, not 0 or 1"),
        (BINARY_RECORD + b"\x00", "v.bin: bytes after the last of 1 records"),
        (BINARY_RECORD[:-8] + bytes(6) + b"\xf8\x7f", "v.bin record 1: v0 is NaN"),
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
