import io
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cellmine.ingest import TowerRecord
from cellmine.poi import (
    EARTH_RADIUS_M,
    POI_TYPES,
    PoiError,
    PoiRecord,
    cluster_poi_table,
    count_poi,
    haversine_m,
    ntfidf,
    parse_pois,
)

METERS_PER_DEG_LAT = math.pi * 6_371_008.8 / 180.0


def hand_haversine(lat1, lon1, lat2, lon2):
    """Independent spherical-law-of-cosines computation."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dl = math.radians(lon2 - lon1)
    cos_d = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dl)
    return 6_371_008.8 * math.acos(min(1.0, max(-1.0, cos_d)))


def poi(poi_id, type_, lat, lon):
    return PoiRecord(poi_id, type_, lat, lon)


def test_haversine_matches_independent_formula():
    cases = [
        (31.2, 121.4, 31.21, 121.41),
        (0.0, 0.0, 0.0, 1.0),
        (45.0, -30.0, 45.1, -30.2),
    ]
    for lat1, lon1, lat2, lon2 in cases:
        got = float(haversine_m(lat1, lon1, lat2, lon2))
        assert got == pytest.approx(hand_haversine(lat1, lon1, lat2, lon2), rel=1e-9)


def test_count_poi_identical_coordinates_counted():
    towers = [TowerRecord("t1", 31.2, 121.4)]
    counts = count_poi(towers, [poi("p1", "office", 31.2, 121.4)])
    assert counts["t1"][POI_TYPES.index("office")] == 1


def test_count_poi_250m_north_not_counted():
    lat, lon = 31.2, 121.4
    north = lat + 250.0 / METERS_PER_DEG_LAT
    assert float(haversine_m(lat, lon, north, lon)) == pytest.approx(250.0, rel=1e-6)
    counts = count_poi([TowerRecord("t1", lat, lon)], [poi("p1", "resident", north, lon)], 200.0)
    assert counts["t1"].sum() == 0


def test_count_poi_empty_registry_all_zero():
    counts = count_poi([TowerRecord("t1", 0, 0)], [])
    assert counts["t1"].tolist() == [0, 0, 0, 0]


def test_count_poi_radius_monotone():
    rng = np.random.default_rng(31)
    towers = [TowerRecord("t1", 31.2, 121.4)]
    pois = [
        poi(f"p{i}", POI_TYPES[int(rng.integers(4))],
            31.2 + rng.uniform(-0.005, 0.005), 121.4 + rng.uniform(-0.005, 0.005))
        for i in range(80)
    ]
    prev = np.zeros(4, dtype=int)
    for radius in (50, 100, 200, 400, 800):
        counts = count_poi(towers, pois, radius)["t1"]
        assert np.all(counts >= prev)
        prev = counts


def test_grid_index_matches_brute_force():
    rng = np.random.default_rng(32)
    towers = [
        TowerRecord(f"t{i}", 31.0 + rng.uniform(0, 0.1), 121.0 + rng.uniform(0, 0.1))
        for i in range(20)
    ]
    pois = [
        poi(f"p{i}", POI_TYPES[int(rng.integers(4))],
            31.0 + rng.uniform(0, 0.1), 121.0 + rng.uniform(0, 0.1))
        for i in range(300)
    ]
    # Across longitude +-180, near and at both poles, and at the widest
    # longitude a 500 m circle reaches from latitude 89.99.
    towers += [
        TowerRecord("e0", 12.5, 179.9995),
        TowerRecord("w0", -33.0, -179.9993),
        TowerRecord("n0", 89.9995, 12.0),
        TowerRecord("n1", 90.0, 0.0),
        TowerRecord("n2", 89.99, 0.0),
        TowerRecord("s0", -89.9992, -150.0),
        TowerRecord("s1", -90.0, 180.0),
    ]
    pois += [
        poi("e1", "office", 12.5, -179.9996),
        poi("e2", "resident", 12.5021, 180.0),
        poi("e3", "transport", 12.4995, -180.0),
        poi("w1", "entertain", -33.0011, 179.9991),
        poi("w2", "office", -32.9986, -179.9984),
        poi("n3", "resident", 89.9991, 170.0),
        poi("n4", "office", 89.9998, -95.0),
        poi("n5", "transport", 90.0, 33.0),
        poi("n6", "entertain", 89.991063, 26.66421),
        poi("s2", "resident", -89.9995, 30.0),
        poi("s3", "office", -90.0, -180.0),
        poi("s4", "transport", -89.9961, 100.0),
    ]
    for radius in (500.0, 1e6, 2e7):
        counts = count_poi(towers, pois, radius)
        for t in towers:
            brute = np.zeros(4, dtype=int)
            for p in pois:
                if hand_haversine(t.lat, t.lon, p.lat, p.lon) <= radius:
                    brute[POI_TYPES.index(p.type)] += 1
            assert counts[t.tower_id].tolist() == brute.tolist()


SPECIAL_LATS = [90.0, -90.0, 89.9999999, -89.9999, 0.0]
SPECIAL_LONS = [180.0, -180.0, 179.9999999, -179.9999, 0.0]


@st.composite
def poi_cases(draw):
    """Towers anywhere, a third of their coordinates at or near a pole, +-180
    or 0, POIs anywhere or from 1e-7 to 10 degrees off a tower, and radii:
    1e-3 m to past half the circumference, and the exact haversine distances
    from towers to POIs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def coordinate(special, bound):
        return float(rng.choice(special)) if rng.random() < 1 / 3 else rng.uniform(-bound, bound)

    towers = [
        TowerRecord(f"t{i}", coordinate(SPECIAL_LATS, 90.0), coordinate(SPECIAL_LONS, 180.0))
        for i in range(draw(st.integers(1, 4)))
    ]
    pois = []
    for i in range(draw(st.integers(1, 12))):
        t, scale = towers[rng.integers(len(towers))], 10.0 ** rng.integers(-7, 2)
        if rng.random() < 0.5:
            lat, lon = coordinate(SPECIAL_LATS, 90.0), coordinate(SPECIAL_LONS, 180.0)
        else:
            lat = min(90.0, max(-90.0, t.lat + scale * rng.uniform(-1.0, 1.0)))
            lon = (t.lon + scale * rng.uniform(-1.0, 1.0) + 180.0) % 360.0 - 180.0
        pois.append(PoiRecord(f"p{i}", POI_TYPES[rng.integers(4)], lat, lon))
    half = math.pi * EARTH_RADIUS_M
    radii = [1e-3, half, 1.5 * half] + list(10.0 ** rng.uniform(-3.0, 7.5, size=2))
    for t in towers:
        radii += [float(haversine_m(t.lat, t.lon, p.lat, p.lon)) for p in pois[:4]]
    return towers, pois, [r for r in radii if r > 0.0]


@given(poi_cases())
def test_count_poi_property_equals_brute_force(case):
    towers, pois, radii = case
    lats, lons = np.array([p.lat for p in pois]), np.array([p.lon for p in pois])
    types = np.array([POI_TYPES.index(p.type) for p in pois])
    for radius in radii:
        counts = count_poi(towers, pois, radius)
        for t in towers:
            within = types[haversine_m(t.lat, t.lon, lats, lons) <= radius]
            assert counts[t.tower_id].tolist() == np.bincount(within, minlength=4).tolist()


def test_parse_pois_validates():
    lines = ["poi_id,type,lat,lon", "p1,office,31.2,121.4"]
    assert parse_pois(lines)[0].type == "office"
    with pytest.raises(PoiError, match="unknown type"):
        parse_pois(["poi_id,type,lat,lon", "p1,school,31.2,121.4"])


def test_cluster_poi_table_identity_pattern():
    # one tower per cluster, counts on the diagonal -> diagonal dominance
    counts = {
        "t1": np.array([9, 0, 0, 0]),
        "t2": np.array([0, 9, 0, 0]),
        "t3": np.array([0, 0, 9, 0]),
        "t4": np.array([0, 0, 0, 9]),
    }
    assignments = {"t1": 1, "t2": 2, "t3": 3, "t4": 4}
    table = cluster_poi_table(counts, assignments)
    assert table.undefined_types == []
    for idx, cluster in enumerate(table.clusters):
        assert table.row_max[cluster] == POI_TYPES[idx]
        assert table.col_max[POI_TYPES[idx]] == cluster
        assert table.matrix[idx, idx] == pytest.approx(1.0)


def test_cluster_poi_table_flags_zero_range():
    counts = {"t1": np.array([3, 0, 1, 0]), "t2": np.array([3, 0, 2, 0])}
    table = cluster_poi_table(counts, {"t1": 1, "t2": 1})
    assert "resident" in table.undefined_types
    assert "transport" in table.undefined_types
    assert np.isnan(table.matrix[0, 0])
    assert table.matrix[0, POI_TYPES.index("office")] == pytest.approx(0.5)


def test_ntfidf_hand_case():
    # M=4 towers, M_i=2 see the type, POI count 3 -> ln 2 * ln 4
    counts = {
        "t1": np.array([3, 0, 0, 0]),
        "t2": np.array([1, 0, 0, 0]),
        "t3": np.array([0, 0, 0, 0]),
        "t4": np.array([0, 0, 0, 0]),
    }
    profiles = ntfidf(counts)
    expected = math.log(2) * math.log(4)
    assert profiles["t1"].tfidf[0] == pytest.approx(expected, abs=1e-12)


def test_ntfidf_zero_count_zero_score():
    counts = {"t1": np.array([0, 2, 0, 0]), "t2": np.array([1, 0, 0, 0])}
    profiles = ntfidf(counts)
    assert profiles["t1"].tfidf[0] == 0.0


def test_ntfidf_rows_sum_to_one_and_nonnegative():
    rng = np.random.default_rng(33)
    counts = {f"t{i}": rng.integers(0, 10, size=4) for i in range(30)}
    profiles = ntfidf(counts)
    for p in profiles.values():
        if p.ntfidf is not None:
            assert p.ntfidf.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(p.ntfidf >= 0)


def test_ntfidf_all_zero_tower_flagged():
    counts = {"t1": np.array([0, 0, 0, 0]), "t2": np.array([1, 1, 0, 0])}
    profiles = ntfidf(counts)
    assert profiles["t1"].ntfidf is None
    assert profiles["t2"].ntfidf is not None


def test_ntfidf_monotone_in_own_count():
    # raising one type's count (others fixed, registry stats fixed by adding
    # a fresh tower) never lowers that type's NTF-IDF
    base = {
        "a": np.array([2, 1, 1, 0]),
        "b": np.array([0, 3, 1, 1]),
        "c": np.array([1, 0, 2, 1]),
    }
    prev = -1.0
    for count in range(0, 8):
        counts = dict(base)
        counts["probe"] = np.array([count, 1, 1, 1])
        profile = ntfidf(counts)["probe"]
        value = profile.ntfidf[0]
        assert value >= prev - 1e-12
        prev = value


def test_parse_pois_counts_physical_lines():
    text = 'poi_id,type,lat,lon\n"p\n1",office,0,0\np2,office,0,x\n'
    with pytest.raises(PoiError, match="pois line 4: non-numeric coordinate"):
        parse_pois(io.StringIO(text))


def test_parse_pois_rejects_empty_poi_id():
    with pytest.raises(PoiError, match="pois line 2: empty poi_id"):
        parse_pois(["poi_id,type,lat,lon", " ,office,31.2,121.4"])
