import ast
import csv
import dataclasses
import io
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from npyfiles import HUGE_HEADERS, MALFORMED_ARRAYS, npy, npy_header

from cellmine import ingest
from cellmine.ingest import (
    BinnedSeries,
    BinResult,
    IngestError,
    SessionLog,
    TowerRecord,
    bin_traffic,
    deduplicate,
    parse_sessions,
    parse_towers,
    read_binned,
    write_binned,
)

HEADER = "user_id,tower_id,start_epoch_s,end_epoch_s,bytes"


def registry(*tower_ids):
    return {t: TowerRecord(t, 0.0, 0.0) for t in tower_ids}


def brute_force_bin(sessions, origin, days):
    """Per-second expansion oracle: each second of a session carries
    bytes/duration; zero-duration sessions land whole on their start second."""
    n_slots = days * 144
    window_end = origin + days * 86400
    out = {}
    for s in sessions:
        slots = out.setdefault(s.tower_id, np.zeros(n_slots))
        if s.end == s.start:
            if origin <= s.start < window_end:
                slots[(s.start - origin) // 600] += s.bytes
            continue
        per_second = s.bytes / (s.end - s.start)
        seconds = np.arange(max(s.start, origin), min(s.end, window_end))
        if seconds.size:
            np.add.at(slots, (seconds - origin) // 600, per_second)
    return out


def test_parse_sessions_direct_mapping():
    lines = [HEADER, "u1,t1,1000,1600,500"]
    sessions, rejects = parse_sessions(lines)
    assert sessions == [SessionLog("u1", "t1", 1000, 1600, 500)]
    assert rejects == []


def test_parse_sessions_rejects_end_before_start():
    lines = [HEADER, "u1,t1,1600,1000,500"]
    sessions, rejects = parse_sessions(lines)
    assert sessions == []
    assert len(rejects) == 1
    assert rejects[0].line_no == 2
    assert "end < start" in rejects[0].reason


def test_parse_sessions_empty_stream():
    sessions, rejects = parse_sessions([])
    assert sessions == [] and rejects == []


def test_parse_sessions_requires_header():
    with pytest.raises(IngestError):
        parse_sessions(["u1,t1,1000,1600,500"])


def test_parse_sessions_preserves_row_order():
    lines = [HEADER, "u2,t9,5,10,1", "u1,t1,0,1,2"]
    sessions, _ = parse_sessions(lines)
    assert [s.user_id for s in sessions] == ["u2", "u1"]


def test_parse_sessions_shares_one_str_per_tower_id():
    rows = [f"u{i},{' ' * (i % 2)}tower{i % 3},0,1,1" for i in range(30)]
    sessions, _ = parse_sessions([HEADER, *rows])
    assert {s.tower_id for s in sessions} == {"tower0", "tower1", "tower2"}
    assert len({id(s.tower_id) for s in sessions}) == 3


def test_parse_towers_registry():
    reg = parse_towers(["tower_id,lat,lon", "t1,31.2,121.5", "t2,-10,0"])
    assert set(reg) == {"t1", "t2"}
    assert reg["t1"].lat == 31.2


def test_parse_towers_rejects_duplicate_and_range():
    with pytest.raises(IngestError, match="towers line 3: tower t1 is repeated"):
        parse_towers(["tower_id,lat,lon", "t1,0,0", "t1,1,1"])
    with pytest.raises(IngestError):
        parse_towers(["tower_id,lat,lon", "t1,95,0"])
    with pytest.raises(IngestError, match="^towers line 2: empty tower_id$"):
        parse_towers(["tower_id,lat,lon", " ,0,0"])


def test_deduplicate_identical_rows_collapse():
    a = SessionLog("u", "t", 0, 60, 100)
    assert deduplicate([a, a]) == [a]


def test_deduplicate_conflict_keeps_larger_bytes():
    a = SessionLog("u", "t", 0, 60, 100)
    b = SessionLog("u", "t", 0, 60, 200)
    assert deduplicate([a, b]) == [b]
    assert deduplicate([b, a]) == [b]


def test_deduplicate_disjoint_reordered():
    a = SessionLog("u", "t2", 50, 60, 1)
    b = SessionLog("u", "t1", 0, 10, 2)
    assert deduplicate([a, b]) == [b, a]


def test_deduplicate_idempotent():
    rng = np.random.default_rng(7)
    logs = [
        SessionLog(
            f"u{rng.integers(3)}",
            f"t{rng.integers(3)}",
            int(rng.integers(100)),
            int(rng.integers(100, 200)),
            int(rng.integers(50)),
        )
        for _ in range(200)
    ]
    once = deduplicate(logs)
    assert deduplicate(once) == once


def test_bin_traffic_proportional_split():
    # 600 bytes over [0, 900): 2/3 of the duration in slot 0, 1/3 in slot 1.
    logs = [SessionLog("u", "t", 0, 900, 600)]
    result = bin_traffic(logs, origin=0, days=1, registry=registry("t"))
    slots = result.series["t"].slot_bytes
    assert slots[0] == pytest.approx(400.0)
    assert slots[1] == pytest.approx(200.0)
    assert slots[2:].sum() == 0.0


def test_bin_traffic_outside_window():
    logs = [SessionLog("u", "t", -7200, -3600, 999)]
    result = bin_traffic(logs, origin=0, days=1, registry=registry("t"))
    assert result.series["t"].slot_bytes.sum() == 0.0
    assert result.out_of_window_bytes == pytest.approx(999.0)


def test_bin_traffic_zero_duration():
    logs = [SessionLog("u", "t", 3 * 600 + 5, 3 * 600 + 5, 50)]
    result = bin_traffic(logs, origin=0, days=1, registry=registry("t"))
    assert result.series["t"].slot_bytes[3] == 50.0


def test_bin_traffic_unknown_tower_counted():
    registry = parse_towers(["tower_id,lat,lon", "t1,0,0"])
    logs = [SessionLog("u", "t1", 0, 600, 10), SessionLog("u", "ghost", 0, 600, 10)]
    result = bin_traffic(logs, origin=0, days=1, registry=registry)
    assert result.unknown_towers == 1
    assert "ghost" not in result.series
    assert result.series["t1"].slot_bytes[0] == 10.0


def test_bin_traffic_registry_towers_present_when_silent():
    registry = parse_towers(["tower_id,lat,lon", "t1,0,0", "t2,1,1"])
    result = bin_traffic([], origin=0, days=1, registry=registry)
    assert set(result.series) == {"t1", "t2"}
    assert result.series["t2"].slot_bytes.sum() == 0.0


def test_bin_conservation_against_per_second_oracle():
    rng = np.random.default_rng(42)
    origin = 1_000_000_000 - (1_000_000_000 % 600)
    days = 2
    window_end = origin + days * 86400
    logs = []
    for _ in range(300):
        start = int(rng.integers(origin - 3600, window_end + 3600))
        dur = int(rng.integers(0, 7200))
        logs.append(
            SessionLog(
                f"u{rng.integers(20)}",
                f"t{rng.integers(5)}",
                start,
                start + dur,
                int(rng.integers(0, 10_000)),
            )
        )
    result = bin_traffic(logs, origin, days, registry(*(f"t{i}" for i in range(5))))
    oracle = brute_force_bin(logs, origin, days)
    assert set(result.series) == set(oracle)
    for tower_id, series in result.series.items():
        np.testing.assert_allclose(series.slot_bytes, oracle[tower_id], rtol=1e-9, atol=1e-9)
    # conservation: binned + dropped == total
    total = sum(s.bytes for s in logs)
    binned = sum(s.slot_bytes.sum() for s in result.series.values())
    assert binned + result.out_of_window_bytes == pytest.approx(total, rel=1e-9)


def test_bin_traffic_memory_is_bounded_by_the_chunk_budget():
    # 500 sessions of about 30 days cover 2.16M (session, slot) pairs; all of
    # them in memory at once took 115 MB
    rng = np.random.default_rng(5)
    days = 30
    starts = rng.integers(0, 600, 500)
    ends = starts + days * 86400 - rng.integers(1, 600, 500)
    logs = [SessionLog("u", "t", int(a), int(b), int(n))
            for a, b, n in zip(starts, ends, rng.integers(0, 10**9, 500))]
    tracemalloc.start()
    try:
        result = bin_traffic(logs, 0, days, registry("t"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    binned = result.series["t"].slot_bytes.sum() + result.out_of_window_bytes
    assert binned == pytest.approx(sum(s.bytes for s in logs))


def test_bin_determinism():
    logs = [SessionLog("u", "t", i * 37, i * 37 + 1000, i) for i in range(100)]
    a = bin_traffic(logs, 0, 1, registry("t"))
    b = bin_traffic(logs, 0, 1, registry("t"))
    assert np.array_equal(a.series["t"].slot_bytes, b.series["t"].slot_bytes)


def test_binned_round_trip(tmp_path):
    logs = [SessionLog("u", "t1", 0, 900, 600), SessionLog("u", "t2", 0, 0, 5)]
    result = bin_traffic(logs, 0, 1, registry("t1", "t2"))
    series, manifest = read_binned(*write_binned(tmp_path, result, origin=0, days=1))
    assert manifest["slot_seconds"] == 600
    np.testing.assert_array_equal(series["t1"].slot_bytes, result.series["t1"].slot_bytes)
    np.testing.assert_array_equal(series["t2"].slot_bytes, result.series["t2"].slot_bytes)


def test_binned_round_trip_of_no_towers(tmp_path):
    series, manifest = read_binned(*write_binned(tmp_path, bin_traffic([], 0, 2, {}), 0, 2))
    assert series == {} and manifest["towers"] == [] and manifest["days"] == 2


def _one_slot(slot, value):
    slots = np.ones((1, 144))
    slots[0, slot] = value
    return slots


@pytest.mark.parametrize(
    "content, message",
    [
        *MALFORMED_ARRAYS,
        pytest.param(npy(_one_slot(7, np.nan)),
                     r"tower t1 slot 7 holds nan, not a number in \[0, inf\)$", id="nan"),
        pytest.param(npy(_one_slot(7, np.inf)),
                     r"tower t1 slot 7 holds inf, not a number in \[0, inf\)$", id="inf"),
        pytest.param(npy(_one_slot(143, -np.inf)),
                     r"tower t1 slot 143 holds -inf, not a number in \[0, inf\)$", id="minus_inf"),
        pytest.param(npy(_one_slot(0, -7.5)),
                     r"tower t1 slot 0 holds -7.5, not a number in \[0, inf\)$", id="negative"),
    ],
)
def test_read_binned_rejects_malformed_array(tmp_path, content, message):
    paths = write_binned(tmp_path, bin_traffic([], 0, 1, registry("t1")), origin=0, days=1)
    if content is None:
        paths[0].unlink()
    else:
        paths[0].write_bytes(content)
    with pytest.raises(IngestError, match=f"^{re.escape(str(paths[0]))}: {message}"):
        read_binned(*paths)


@pytest.mark.parametrize("shape, message", HUGE_HEADERS)
def test_read_binned_rejects_a_header_claiming_more_than_the_file_holds(tmp_path, shape, message):
    paths = write_binned(tmp_path, bin_traffic([], 0, 1, registry("t1")), origin=0, days=1)
    paths[0].write_bytes(npy_header(shape))
    tracemalloc.start()
    try:
        with pytest.raises(IngestError, match=f"^{re.escape(str(paths[0]))}: {message}$"):
            read_binned(*paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# --- reference oracles: the per-session loops the array passes replaced -----


def loop_deduplicate(logs):
    """Dict oracle: keep the largest byte count per (user, tower, start, end),
    sorted by (tower_id, start, user_id, end, bytes)."""
    best = {}
    for log in logs:
        key = (log.user_id, log.tower_id, log.start, log.end)
        prev = best.get(key)
        if prev is None or log.bytes > prev:
            best[key] = log.bytes
    out = [
        SessionLog(user, tower, start, end, nbytes)
        for (user, tower, start, end), nbytes in best.items()
    ]
    out.sort(key=lambda s: (s.tower_id, s.start, s.user_id, s.end, s.bytes))
    return out


def loop_bin_traffic(logs, origin, days, registry):
    """Per-session loop oracle with Python-int arithmetic; each slot adds its
    sessions' shares in input order."""
    n_slots = days * 144
    window_end = origin + days * 86400
    series = {tower_id: np.zeros(n_slots) for tower_id in registry}
    unknown = 0
    dropped = 0.0
    for log in logs:
        if log.tower_id not in registry:
            unknown += 1
            continue
        slots = series[log.tower_id]
        if log.end == log.start:
            if origin <= log.start < window_end:
                slots[(log.start - origin) // 600] += log.bytes
            else:
                dropped += log.bytes
            continue
        duration = log.end - log.start
        lo = max(log.start, origin)
        hi = min(log.end, window_end)
        if hi <= lo:
            dropped += log.bytes
            continue
        first = (lo - origin) // 600
        last = (hi - 1 - origin) // 600
        for slot in range(first, last + 1):
            slot_start = origin + slot * 600
            overlap = min(log.end, slot_start + 600) - max(log.start, slot_start)
            slots[slot] += log.bytes * overlap / duration
        dropped += log.bytes * ((lo - log.start) + (log.end - hi)) / duration
    return dict(sorted(series.items())), unknown, dropped


# --- property tests against the oracles ---------------------------------------


@st.composite
def session_cases(draw):
    """Sessions around a window with zero-duration sessions, sessions that
    straddle either window edge or lie outside it, exact and conflicting
    duplicates, and a registry that lists every tower with a session or
    leaves some out, so that their sessions are unknown. In one draw
    mode every session shares one (tower_id, start), so user ids alone order
    them; its ids include "a" and "a\\x00" and ids outside ASCII."""
    origin = draw(st.integers(-(10**6), 2 * 10**9))
    days = draw(st.integers(1, 2))
    window_end = origin + days * 86400
    ids = st.text(min_size=1, max_size=3)
    users = draw(st.lists(ids, min_size=1, max_size=4, unique=True))
    towers = draw(st.lists(ids, min_size=1, max_size=4, unique=True))
    edges = [origin - 601, origin - 1, origin, origin + 599, window_end - 1, window_end]
    one_group = draw(st.integers(0, 3)) == 0
    if one_group:
        users = ["a", "a\x00", "b", "\xe9", "\u65e5\u672c", "\U0001f600", *draw(st.lists(ids, max_size=4))]
        towers = towers[:1]
        edges = [draw(st.sampled_from(edges))]
    logs = []
    for _ in range(draw(st.integers(0, 30))):
        if logs and draw(st.integers(0, 3)) == 0:
            prev = logs[draw(st.integers(0, len(logs) - 1))]
            nbytes = draw(st.one_of(st.just(prev.bytes), st.integers(0, 10**9)))
            logs.append(SessionLog(prev.user_id, prev.tower_id, prev.start, prev.end, nbytes))
            continue
        start = edges[0] if one_group else draw(
            st.one_of(st.sampled_from(edges), st.integers(origin - 7200, window_end + 7200))
        )
        duration = draw(
            st.one_of(st.just(0), st.integers(1, 1800), st.integers(1800, days * 86400 + 7200))
        )
        logs.append(
            SessionLog(
                draw(st.sampled_from(users)),
                draw(st.sampled_from(towers)),
                start,
                start + duration,
                draw(st.integers(0, 10**9)),
            )
        )
    listed = towers if draw(st.booleans()) else draw(st.lists(st.sampled_from(towers), unique=True))
    return logs, origin, days, registry(*listed, "silent")


# Four sessions over the edge of slots 0 and 1, two to a chunk: a chunk's
# shares summed apart and then added to the slot round differently.
EDGE_SESSIONS = [SessionLog("u", "t", 599, end, nbytes) for end, nbytes in
                 [(704, 813270239), (989, 912755577), (901, 606635775), (1181, 729496560)]]


@given(session_cases(), st.integers(1, 7))
@example((EDGE_SESSIONS, 0, 1, registry("t")), 4)
def test_bin_traffic_property_equals_loop_oracle(case, budget):
    """A budget of 1 to 7 (session, slot) pairs puts every draw of more
    than a few pairs in several chunks."""
    logs, origin, days, registry = case
    with mock.patch.object(ingest, "BIN_PAIRS", budget):
        result = bin_traffic(logs, origin, days, registry)
    series, unknown, dropped = loop_bin_traffic(logs, origin, days, registry)
    assert list(result.series) == list(series)
    for tower_id, slots in series.items():
        assert np.array_equal(result.series[tower_id].slot_bytes, slots)
    assert result.unknown_towers == unknown
    assert result.out_of_window_bytes == dropped


# The per-second oracle costs one array element per session second.
@settings(max_examples=40)
@given(session_cases())
def test_bin_traffic_property_per_second_oracle_and_conservation(case):
    logs, origin, days, registry = case
    known = [s for s in logs if s.tower_id in registry]
    result = bin_traffic(logs, origin, days, registry)
    oracle = brute_force_bin(known, origin, days)
    for tower_id, series in result.series.items():
        expected = oracle.get(tower_id, np.zeros(days * 144))
        np.testing.assert_allclose(series.slot_bytes, expected, rtol=1e-9, atol=1e-6)
    binned = sum(s.slot_bytes.sum() for s in result.series.values())
    total = sum(s.bytes for s in known)
    assert binned + result.out_of_window_bytes == pytest.approx(total, rel=1e-9, abs=1e-6)


@given(session_cases(), st.randoms())
def test_deduplicate_property_equals_dict_oracle(case, rnd):
    logs = case[0]
    expected = loop_deduplicate(logs)
    inputs = set(map(id, logs))
    shuffled = list(logs)
    rnd.shuffle(shuffled)
    for order in (logs, shuffled):
        result = deduplicate(order)
        assert result == expected
        # The oracle builds new objects, so == cannot tell them from the inputs.
        assert all(id(s) in inputs for s in result)


# --- the rule of a valid session -----------------------------------------------

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
MAX_BYTES = INT64_MAX // 600


def _int64_fault(start, end, nbytes):
    """Oracle: why a session does not fit the int64 arithmetic of the array
    passes, or None."""
    if not (INT64_MIN <= start <= INT64_MAX and INT64_MIN <= end <= INT64_MAX):
        return "timestamp outside the int64 range"
    if end < start:
        return "end < start"
    if end - start > INT64_MAX:
        return "end - start overflows int64"
    if nbytes < 0:
        return "negative bytes"
    if nbytes > MAX_BYTES:
        return "bytes * 600 overflows int64"
    return None


def _reject_reason(start, end, nbytes):
    """The oracle's fault as a reject reason: a row is named for ``end <
    start`` or negative bytes before any int64 limit, as parse_sessions
    always has. The two orders differ only on a session with two faults."""
    if _int64_fault(start, end, nbytes) is None:
        return None
    if end < start:
        return "end < start"
    if nbytes < 0:
        return "negative bytes"
    return _int64_fault(start, end, nbytes)


def near(*edges):
    """Integers at and around ``edges``, and anywhere."""
    around = st.sampled_from(edges).flatmap(lambda v: st.integers(v - 2, v + 2))
    return around | st.integers(-(2**65), 2**65)


TIMES = near(INT64_MIN, 0, INT64_MAX)


@settings(max_examples=500)
@given(TIMES, st.none() | TIMES, near(0, MAX_BYTES))
@example(0, 0, MAX_BYTES)
@example(0, 0, MAX_BYTES + 1)
@example(INT64_MIN, -1, 0)
@example(INT64_MIN, 0, 0)
@example(INT64_MIN - 1, None, 0)
@example(0, INT64_MAX + 1, 0)
@example(INT64_MIN, INT64_MAX, -1)
def test_session_log_rule_equals_int64_oracle(start, end, nbytes):
    """end None draws end == start."""
    end = start if end is None else end
    reason = _reject_reason(start, end, nbytes)
    if reason is None:
        SessionLog("u", "t", start, end, nbytes)
    else:
        with pytest.raises(IngestError) as info:
            SessionLog("u", "t", start, end, nbytes)
        assert str(info.value) == reason
    sessions, rejects = parse_sessions([HEADER, f"u,t,{start},{end},{nbytes}"])
    expected = [] if reason is None else [(2, reason)]
    assert [(r.line_no, r.reason) for r in rejects] == expected
    assert len(sessions) == (reason is None)


@pytest.mark.parametrize(
    "row, reason",
    [
        (f"u1,t1,0,10,{10**30}", "bytes * 600 overflows int64"),
        (f"u1,t1,0,10,{MAX_BYTES + 1}", "bytes * 600 overflows int64"),
        (f"u1,t1,{-(2**63)},{INT64_MAX},5", "end - start overflows int64"),
        (f"u1,t1,{-(2**64)},0,5", "timestamp outside the int64 range"),
        (f"u1,t1,0,{2**63},5", "timestamp outside the int64 range"),
    ],
)
def test_parse_sessions_rejects_int64_overflow(row, reason):
    sessions, rejects = parse_sessions([HEADER, "u0,t0,0,1,1", row])
    assert len(sessions) == 1
    assert [(r.line_no, r.reason) for r in rejects] == [(3, reason)]


def test_parse_sessions_accepts_int64_limits():
    row = f"u1,t1,{-(2**62)},{2**62 - 1},{MAX_BYTES}"
    sessions, rejects = parse_sessions([HEADER, row])
    assert rejects == []
    assert sessions == [SessionLog("u1", "t1", -(2**62), 2**62 - 1, MAX_BYTES)]


@pytest.mark.parametrize(
    "fields, reason",
    [
        ((0, 10, 10**30), "bytes * 600 overflows int64"),
        ((0, 10, -MAX_BYTES - 1), "negative bytes"),
        ((-(2**63), INT64_MAX, 5), "end - start overflows int64"),
        ((INT64_MAX, -(2**63), 5), "end < start"),
        ((2**64, 2**64, 5), "timestamp outside the int64 range"),
        ((0, 10, -1), "negative bytes"),
        ((10, 0, 5), "end < start"),
    ],
)
def test_session_log_rejects_int64_overflow(fields, reason):
    with pytest.raises(IngestError, match=f"^{re.escape(reason)}$"):
        SessionLog("u", "t9", *fields)
    good = SessionLog("u", "t9", 0, 10, 5)
    start, end, nbytes = fields
    with pytest.raises(IngestError, match=f"^{re.escape(reason)}$"):
        dataclasses.replace(good, start=start, end=end, bytes=nbytes)


@pytest.mark.parametrize("ids", [("", "t"), ("u", ""), ("", "")])
def test_session_log_rejects_empty_id(ids):
    with pytest.raises(IngestError, match="empty user_id or tower_id"):
        SessionLog(*ids, 0, 10, 5)


def _oracle_parse(text):
    """Per-row oracle: each row of a sessions.csv text through the
    validating ``SessionLog(...)``; rejects as (line_no, line, reason)."""
    reader = csv.reader(io.StringIO(text))
    next(reader)
    sessions, rejects = [], []
    for row in reader:
        if not row:
            continue
        try:
            if len(row) != 5:
                raise IngestError(f"expected 5 fields, got {len(row)}")
            user_id, tower_id = row[0].strip(), row[1].strip()
            try:
                numbers = [int(field) for field in row[2:]]
            except ValueError:
                SessionLog(user_id, tower_id, 0, 0, 0)  # an empty id is named first
                raise IngestError("non-integer timestamp or byte count") from None
            sessions.append(SessionLog(user_id, tower_id, *numbers))
        except IngestError as exc:
            rejects.append((reader.line_num, ",".join(row), str(exc)))
    return sessions, rejects


ROW_IDS = st.sampled_from(["", " ", "u", "t1", " t1 ", "a,b", ' "q", ', "x\ny"])
NON_INTEGERS = st.sampled_from(["", " ", "1.5", "1e3", "x", "-", "0x10", "١.0"])


@st.composite
def session_rows(draw):
    """A row of 4 to 6 fields, or a blank one: ids that are empty, blank or
    need quoting, and numbers at and around the int64 limits and the byte
    bound, or not integers at all."""
    width = draw(st.sampled_from([5] * 6 + [4, 6, 0]))
    start = draw(TIMES)
    end = draw(st.integers(0, 2).map(lambda d: start + d) | TIMES)
    numbers = [str(n) for n in (start, end, draw(near(0, MAX_BYTES)), draw(TIMES))]
    if draw(st.integers(0, 3)) == 0:
        numbers[draw(st.integers(0, 3))] = draw(NON_INTEGERS)
    return [draw(ROW_IDS), draw(ROW_IDS), *numbers][:width]


@settings(max_examples=150)
@given(st.lists(session_rows(), max_size=6))
def test_parse_sessions_equals_the_session_log_oracle(rows):
    out = io.StringIO()
    csv.writer(out).writerows([HEADER.split(","), *rows])
    sessions, rejects = parse_sessions(io.StringIO(out.getvalue()))
    expected_sessions, expected_rejects = _oracle_parse(out.getvalue())
    assert sessions == expected_sessions
    assert [(r.line_no, r.line, r.reason) for r in rejects] == expected_rejects


def test_a_parsed_session_is_a_session_log():
    (session,), _ = parse_sessions([HEADER, "u1, t1 ,1000,1600,500"])
    assert type(session) is SessionLog
    values = [getattr(session, field.name) for field in dataclasses.fields(SessionLog)]
    assert list(map(type, values)) == [str, str, int, int, int]
    assert session == SessionLog("u1", "t1", 1000, 1600, 500)
    assert hash(session) == hash(SessionLog("u1", "t1", 1000, 1600, 500))
    with pytest.raises(dataclasses.FrozenInstanceError):
        session.bytes = 1
    with pytest.raises(IngestError, match="^negative bytes$"):
        dataclasses.replace(session, bytes=-1)


def _slot_fills(node, function=None):
    """(innermost enclosing function, name) for every ``x.__new__``,
    ``x.__set__`` or ``x.__setattr__`` under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Attribute) and child.attr in ("__new__", "__set__", "__setattr__"):
            yield function, child.attr
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from _slot_fills(child, inner)


def test_only_parse_sessions_fills_session_slots_unchecked():
    """A session built by ``object.__new__`` and its slots' ``__set__`` skips
    the rule ``SessionLog`` applies, so only ``parse_sessions``, which has
    just applied that rule to the row, may build one so. The one other slot
    fill is the frozen ``TrafficVector`` setting its own values, once checked."""
    found = {(path.stem, function, name)
             for path in sorted(Path(ingest.__file__).parent.glob("*.py"))
             for function, name in _slot_fills(ast.parse(path.read_text(encoding="utf-8")))}
    assert found == {("ingest", "parse_sessions", "__new__"), ("ingest", "parse_sessions", "__set__"),
                     ("vectorize", "__post_init__", "__setattr__")}


@pytest.mark.parametrize(
    "manifest, message",
    [
        ('{"origin_epoch_s": 0, "days": 1}', "binned_manifest.json: KeyError: 'towers'"),
        ('{"origin_epoch_s": 0, "days": 1, "towers": "t1"}',
         "binned_manifest.json: TypeError: towers is not a list of strings"),
        ('{"origin_epoch_s": null, "days": 1, "towers": []}', "binned_manifest.json: TypeError"),
        ('{"origin_epoch_s": 1.7, "slot_seconds": 600, "days": 1, "towers": []}',
         "binned_manifest.json: TypeError: origin_epoch_s is 1.7, not an integer"),
        ('{"origin_epoch_s": true, "slot_seconds": 600, "days": 1, "towers": []}',
         "binned_manifest.json: TypeError: origin_epoch_s is True, not an integer"),
        ('{"origin_epoch_s": "0", "slot_seconds": 600, "days": 1, "towers": []}',
         "binned_manifest.json: TypeError: origin_epoch_s is '0', not an integer"),
        ("{", "binned_manifest.json: JSONDecodeError"),
        ('{"origin_epoch_s": 0, "slot_seconds": 300, "days": 1, "towers": []}',
         "binned_manifest.json: ValueError: slot_seconds is 300, not 600"),
        ('{"origin_epoch_s": 0, "slot_seconds": 600, "days": 1.7, "towers": []}',
         "binned_manifest.json: ValueError: days is 1.7, not a positive integer"),
        ('{"origin_epoch_s": 0, "slot_seconds": 600, "days": true, "towers": []}',
         "binned_manifest.json: ValueError: days is True, not a positive integer"),
        ('{"origin_epoch_s": 0, "slot_seconds": 600, "days": 0, "towers": []}',
         "binned_manifest.json: ValueError: days is 0, not a positive integer"),
        ('{"origin_epoch_s": 0, "slot_seconds": 600, "days": 1, "towers": ["t1", "t2", "t1"]}',
         "binned_manifest.json: ValueError: tower t1 is repeated"),
        ('{"origin_epoch_s": 0, "slot_seconds": 600, "days": 1, "tz_offset_minutes": 0,'
         ' "towers": []}',
         "binned_manifest.json: ValueError: tz_offset_minutes is 0, not 480"),
        pytest.param("[" * 200000, "binned_manifest.json: RecursionError", id="deep_nesting"),
    ],
)
def test_read_binned_rejects_malformed_manifest(tmp_path, manifest, message):
    paths = write_binned(tmp_path, bin_traffic([], 0, 1, registry("t1")), origin=0, days=1)
    paths[1].write_text(manifest)
    with pytest.raises(IngestError, match=message):
        read_binned(*paths)


@pytest.mark.parametrize("row, reason", [
    ("u1,t1,0,10", "expected 5 fields, got 4"),
    ("u1,t1,0,10,5,6", "expected 5 fields, got 6"),
    ("u1,t1,0,1.5,5", "non-integer timestamp or byte count"),
    ("u1,t1,0,10,x", "non-integer timestamp or byte count"),
])
def test_parse_sessions_rejects_malformed_row(row, reason):
    sessions, rejects = parse_sessions([HEADER, "u0,t0,0,1,1", row])
    assert len(sessions) == 1
    assert [(r.line_no, r.reason) for r in rejects] == [(3, reason)]


@pytest.mark.parametrize("days", [0, -1])
def test_bin_traffic_rejects_days_below_one(days):
    with pytest.raises(IngestError, match=f"^days must be positive, got {days}$"):
        bin_traffic([SessionLog("u", "t1", 0, 900, 600)], 0, days, registry("t1"))


@pytest.mark.parametrize("days", [0, -1])
def test_write_binned_rejects_days_below_one(tmp_path, days):
    # read_binned would reject its manifest
    with pytest.raises(IngestError, match=f"^days must be positive, got {days}$"):
        write_binned(tmp_path, BinResult({}, 0, 0.0), origin=0, days=days)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("row", [",t1,0,10,5", "u1, ,x,10,5", " ,t1,0,10,-1"])
def test_parse_sessions_names_an_empty_id_first(row):
    sessions, rejects = parse_sessions([HEADER, row])
    assert sessions == []
    assert [(r.line_no, r.reason) for r in rejects] == [(2, "empty user_id or tower_id")]


def test_parse_sessions_counts_physical_lines():
    # the quoted user id spans lines 2-3, so the bad session sits on line 4
    text = f'{HEADER}\n"u\n1",t1,0,10,5\nu2,t1,9,1,5\n'
    sessions, rejects = parse_sessions(io.StringIO(text))
    assert [s.user_id for s in sessions] == ["u\n1"]
    assert [(r.line_no, r.reason) for r in rejects] == [(4, "end < start")]


def test_parse_towers_counts_physical_lines():
    text = 'tower_id,lat,lon\n"t\n1",0,0\nt2,95,0\n'
    with pytest.raises(IngestError, match="towers line 4: coordinate out of range"):
        parse_towers(io.StringIO(text))


@pytest.mark.parametrize("slot_bytes", [np.zeros((1008, 2)), np.zeros((1, 144)), np.float64(7.0)],
                         ids=["2d", "one_row", "0d"])
def test_a_binned_series_is_1_d(slot_bytes):
    # a (1008, 2) series once passed trim_to_weeks and vectorize_all, and
    # write_binned raised a bare ValueError from its reshape
    shape = re.escape(str(np.shape(slot_bytes)))
    with pytest.raises(IngestError, match=f"^tower t1: series of shape {shape}$"):
        BinnedSeries("t1", 0, slot_bytes)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, -7.5, -5e-324])
def test_write_binned_rejects_impossible_byte_count(tmp_path, value):
    result = bin_traffic([SessionLog("u", "t1", 0, 900, 600)], 0, 1, registry("t1"))
    result.series["t1"].slot_bytes[7] = value
    with pytest.raises(IngestError, match=f"tower t1 slot 7 holds {value}, not a number"):
        write_binned(tmp_path, result, origin=0, days=1)
    assert not (tmp_path / "binned.npy").exists()


@pytest.mark.parametrize(
    "series_days, origin, days, message",
    [
        # written as is, it would read back 600 s late and padded with zeros
        (1, 600, 3, "tower t1: series of 144 slots from 0, not of 432 slots from origin 600$"),
        # written as is, its slot 144 would fall outside the manifest's one day
        (2, 0, 1, "tower t1: series of 288 slots from 0, not of 144 slots from origin 0$"),
    ],
)
def test_write_binned_rejects_a_series_off_its_origin_or_days(
    tmp_path, series_days, origin, days, message
):
    logs = [SessionLog("u", "t1", 0, 900, 600), SessionLog("u", "t1", 86400, 87300, 600)]
    result = bin_traffic(logs, 0, series_days, registry("t1"))
    paths = write_binned(tmp_path, bin_traffic([], 0, 1, registry("t0")), origin=0, days=1)
    before = [p.read_bytes() for p in paths]
    with pytest.raises(IngestError, match=message):
        write_binned(tmp_path, result, origin=origin, days=days)
    assert [p.read_bytes() for p in paths] == before


@pytest.mark.parametrize("exists, reason", [
    (True, "[Errno 20] Not a directory"), (False, "[Errno 2] No such file or directory"),
])
def test_write_binned_into_no_directory_fails_with_ingest_error(tmp_path, exists, reason):
    # a file where the directory should be, or no directory at all
    directory = tmp_path / "out"
    if exists:
        directory.write_bytes(b"old")
    result = bin_traffic([SessionLog("u", "t1", 0, 900, 600)], 0, 1, registry("t1"))
    with pytest.raises(IngestError) as info:
        write_binned(directory, result, origin=0, days=1)
    assert str(info.value) == f"{directory / 'binned.npy'}: {reason}"
    assert [p.name for p in tmp_path.iterdir()] == (["out"] if exists else [])
    assert not exists or directory.read_bytes() == b"old"


@pytest.mark.parametrize("origin", [-(2**40) * 600, 2**40 * 600, -62135596800 - 86400])
def test_write_binned_rejects_origin_outside_iso_dates(tmp_path, origin):
    result = bin_traffic([SessionLog("u", "t1", 0, 900, 600)], 0, 1, registry("t1"))
    with pytest.raises(IngestError, match=f"origin {origin} is not a date"):
        write_binned(tmp_path, result, origin=origin, days=1)


def test_write_binned_holds_one_row_at_a_time(tmp_path):
    # 64 towers of 4 weeks: the matrix is 64 rows of 32,256 bytes each
    row_bytes = 28 * 144 * 8
    result = BinResult({f"t{i:02d}": BinnedSeries(f"t{i:02d}", 0, np.full(28 * 144, float(i)))
                        for i in range(64)}, 0, 0.0)
    tracemalloc.start()
    try:
        paths = write_binned(tmp_path, result, origin=0, days=28)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * row_bytes
    series, _ = read_binned(*paths)
    assert all(np.array_equal(series[t].slot_bytes, result.series[t].slot_bytes) for t in series)
