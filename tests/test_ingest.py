import numpy as np
import pytest

from cellmine.ingest import (
    BinResult,
    IngestError,
    SessionLog,
    bin_traffic,
    deduplicate,
    parse_sessions,
    parse_towers,
    read_binned,
    write_binned,
)

HEADER = "user_id,tower_id,start_epoch_s,end_epoch_s,bytes"


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


def test_parse_sessions_strict_aborts():
    lines = [HEADER, "u1,t1,x,1000,500"]
    with pytest.raises(IngestError):
        parse_sessions(lines, strict=True)


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
    result = bin_traffic(logs, origin=0, days=1)
    slots = result.series["t"].slot_bytes
    assert slots[0] == pytest.approx(400.0)
    assert slots[1] == pytest.approx(200.0)
    assert slots[2:].sum() == 0.0


def test_bin_traffic_outside_window():
    logs = [SessionLog("u", "t", -7200, -3600, 999)]
    result = bin_traffic(logs, origin=0, days=1, registry=None)
    assert "t" not in result.series or result.series["t"].slot_bytes.sum() == 0.0
    assert result.out_of_window_bytes == pytest.approx(999.0)


def test_bin_traffic_zero_duration():
    logs = [SessionLog("u", "t", 3 * 600 + 5, 3 * 600 + 5, 50)]
    result = bin_traffic(logs, origin=0, days=1)
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
    result = bin_traffic(logs, origin, days)
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
    a = bin_traffic(logs, 0, 1)
    b = bin_traffic(logs, 0, 1)
    assert np.array_equal(a.series["t"].slot_bytes, b.series["t"].slot_bytes)


def test_binned_round_trip(tmp_path):
    logs = [SessionLog("u", "t1", 0, 900, 600), SessionLog("u", "t2", 0, 0, 5)]
    result = bin_traffic(logs, 0, 1)
    csv_path, manifest_path = write_binned(tmp_path, result, origin=0, days=1)
    series, manifest = read_binned(csv_path, manifest_path)
    assert manifest["slot_seconds"] == 600
    np.testing.assert_array_equal(series["t1"].slot_bytes, result.series["t1"].slot_bytes)
    np.testing.assert_array_equal(series["t2"].slot_bytes, result.series["t2"].slot_bytes)


def _binned_files(tmp_path, rows):
    result = bin_traffic([SessionLog("u", "t1", 0, 900, 600)], 0, 1)
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
