import dataclasses
import io
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cellmine.ingest import (
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


def test_parse_towers_registry():
    reg = parse_towers(["tower_id,lat,lon", "t1,31.2,121.5", "t2,-10,0"])
    assert set(reg) == {"t1", "t2"}
    assert reg["t1"].lat == 31.2


def test_parse_towers_rejects_duplicate_and_range():
    with pytest.raises(IngestError):
        parse_towers(["tower_id,lat,lon", "t1,0,0", "t1,1,1"])
    with pytest.raises(IngestError):
        parse_towers(["tower_id,lat,lon", "t1,95,0"])


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


def test_bin_determinism():
    logs = [SessionLog("u", "t", i * 37, i * 37 + 1000, i) for i in range(100)]
    a = bin_traffic(logs, 0, 1, registry("t"))
    b = bin_traffic(logs, 0, 1, registry("t"))
    assert np.array_equal(a.series["t"].slot_bytes, b.series["t"].slot_bytes)


def test_binned_round_trip(tmp_path):
    logs = [SessionLog("u", "t1", 0, 900, 600), SessionLog("u", "t2", 0, 0, 5)]
    result = bin_traffic(logs, 0, 1, registry("t1", "t2"))
    csv_path, manifest_path = write_binned(tmp_path, result, origin=0, days=1)
    series, manifest = read_binned(csv_path, manifest_path)
    assert manifest["slot_seconds"] == 600
    np.testing.assert_array_equal(series["t1"].slot_bytes, result.series["t1"].slot_bytes)
    np.testing.assert_array_equal(series["t2"].slot_bytes, result.series["t2"].slot_bytes)


def _binned_files(tmp_path, rows):
    result = bin_traffic([SessionLog("u", "t1", 0, 900, 600)], 0, 1, registry("t1"))
    csv_path, manifest_path = write_binned(tmp_path, result, origin=0, days=1)
    with open(csv_path, "a") as f:
        f.writelines(row + "\n" for row in rows)
    return csv_path, manifest_path


def test_read_binned_rejects_wrong_field_count(tmp_path):
    paths = _binned_files(tmp_path, ["t1,5"])
    with pytest.raises(IngestError, match="line 4: expected 3 fields, got 2"):
        read_binned(*paths)


def test_read_binned_rejects_tower_missing_from_manifest(tmp_path):
    paths = _binned_files(tmp_path, ["ghost,5,1.0"])
    with pytest.raises(IngestError, match="line 4: tower ghost is not in the manifest"):
        read_binned(*paths)


@pytest.mark.parametrize("slot", [144, -1])
def test_read_binned_rejects_slot_outside_window(tmp_path, slot):
    paths = _binned_files(tmp_path, [f"t1,{slot},1.0"])
    with pytest.raises(IngestError, match=f"line 4: slot {slot} outside 0..143"):
        read_binned(*paths)


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


@given(session_cases())
def test_bin_traffic_property_equals_loop_oracle(case):
    logs, origin, days, registry = case
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


@pytest.mark.parametrize(
    "binned, manifest, message",
    [
        ("", None, "binned.csv: bad binned header: no header row"),
        ("tower_id,slot,bytes\n", None, "binned.csv line 1: bad binned header"),
        (None, '{"origin_epoch_s": 0, "days": 1}', "binned_manifest.json: KeyError: 'towers'"),
        (None, '{"origin_epoch_s": 0, "days": 1, "towers": "t1"}',
         "binned_manifest.json: TypeError: towers is not a list of strings"),
        (None, '{"origin_epoch_s": null, "days": 1, "towers": []}', "binned_manifest.json: TypeError"),
        (None, '{"origin_epoch_s": 1.7, "slot_seconds": 600, "days": 1, "towers": []}',
         "binned_manifest.json: TypeError: origin_epoch_s is 1.7, not an integer"),
        (None, '{"origin_epoch_s": true, "slot_seconds": 600, "days": 1, "towers": []}',
         "binned_manifest.json: TypeError: origin_epoch_s is True, not an integer"),
        (None, '{"origin_epoch_s": "0", "slot_seconds": 600, "days": 1, "towers": []}',
         "binned_manifest.json: TypeError: origin_epoch_s is '0', not an integer"),
        (None, "{", "binned_manifest.json: JSONDecodeError"),
        (None, '{"origin_epoch_s": 0, "slot_seconds": 300, "days": 1, "towers": []}',
         "binned_manifest.json: ValueError: slot_seconds is 300, not 600"),
        (None, '{"origin_epoch_s": 0, "slot_seconds": 600, "days": 1.7, "towers": []}',
         "binned_manifest.json: ValueError: days is 1.7, not a positive integer"),
        (None, '{"origin_epoch_s": 0, "slot_seconds": 600, "days": true, "towers": []}',
         "binned_manifest.json: ValueError: days is True, not a positive integer"),
        (None, '{"origin_epoch_s": 0, "slot_seconds": 600, "days": 0, "towers": []}',
         "binned_manifest.json: ValueError: days is 0, not a positive integer"),
        ("tower_id,slot_index,bytes\nt1,5,nan\n", None, "binned.csv line 2: bytes nan is not a number"),
        ("tower_id,slot_index,bytes\nt1,5,1.0\nt1,6,-NaN\n", None,
         "binned.csv line 3: bytes -NaN is not a number"),
        ("tower_id,slot_index,bytes\nt1,5,1.0\nt1,5,2.0\n", None,
         "binned.csv line 3: tower t1 slot 5 already holds 1.0"),
        ("tower_id,slot_index,bytes\nt1,5,inf\n", None,
         r"binned.csv line 2: bytes inf is not a number in \[0, inf\)"),
        ("tower_id,slot_index,bytes\nt1,5,1.0\nt1,6,-inf\n", None,
         r"binned.csv line 3: bytes -inf is not a number in \[0, inf\)"),
        ("tower_id,slot_index,bytes\nt1,5,-7.5\n", None,
         r"binned.csv line 2: bytes -7.5 is not a number in \[0, inf\)"),
    ],
)
def test_read_binned_rejects_malformed_file(tmp_path, binned, manifest, message):
    csv_path, manifest_path = _binned_files(tmp_path, [])
    if binned is not None:
        csv_path.write_text(binned)
    if manifest is not None:
        manifest_path.write_text(manifest)
    with pytest.raises(IngestError, match=message):
        read_binned(csv_path, manifest_path)


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


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, -7.5, -5e-324])
def test_write_binned_rejects_impossible_byte_count(tmp_path, value):
    result = bin_traffic([SessionLog("u", "t1", 0, 900, 600)], 0, 1, registry("t1"))
    result.series["t1"].slot_bytes[7] = value
    with pytest.raises(IngestError, match=f"tower t1 slot 7 holds {value}, not a number"):
        write_binned(tmp_path, result, origin=0, days=1)
    assert not (tmp_path / "binned.csv").exists()


@pytest.mark.parametrize("origin", [-(2**40) * 600, 2**40 * 600, -62135596800 - 86400])
def test_write_binned_rejects_origin_outside_iso_dates(tmp_path, origin):
    result = bin_traffic([SessionLog("u", "t1", 0, 900, 600)], 0, 1, registry("t1"))
    with pytest.raises(IngestError, match=f"origin {origin} is not a date"):
        write_binned(tmp_path, result, origin=origin, days=1)
