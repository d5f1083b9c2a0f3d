"""Tabular I/O: the exact bytes of every writer and the write -> read round trips.

The golden texts pin each writer's output, including the cells where the CSV
conventions matter: ``None`` and NaN as empty cells, ``-0.0``, and floats that
need all 17 significant digits. The properties write drawn values with each
public writer and require its reader to give them back bit for bit.
"""

import ast
import codecs
import csv
import io
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import cellmine
from cellmine.cluster import (
    ASSIGNMENTS_HEADER,
    ClusterError,
    ClusterModel,
    DbiTracePoint,
    read_assignments,
    write_assignments,
    write_centroids,
    write_dbi_trace,
    write_distance_cdf,
)
from cellmine.common import csv_cell, read_csv, write_json
from cellmine.decompose import (
    MIXTURES_HEADER,
    DecomposeError,
    FeaturePoint,
    FeatureSpace,
    MixtureCoefficients,
    PolygonModel,
    read_mixtures,
    read_vertices,
    write_mixtures,
    write_vertices,
)
from cellmine.ingest import (
    SESSIONS_HEADER,
    TOWERS_HEADER,
    BinnedSeries,
    BinResult,
    IngestError,
    parse_sessions,
    parse_towers,
    read_binned,
    write_binned,
)
from cellmine.poi import (
    POIS_HEADER,
    PoiClusterTable,
    PoiError,
    PoiProfile,
    parse_pois,
    write_poi_cluster_table,
    write_poi_profiles,
)
from cellmine.spectrum import (
    FEATURES_HEADER,
    SpectralFeature,
    SpectrumError,
    read_spectral_features,
    write_spectral_features,
)
from cellmine.timefeat import TimefeatError, TimeFeatures, write_time_features
from cellmine.vectorize import (
    TrafficVector,
    VectorizeError,
    read_vectors,
    write_vectors_binary,
    write_vectors_csv,
)

# 0.1 + 0.2: its shortest round-trip repr needs 17 significant digits
F17 = 0.30000000000000004
NAN = float("nan")


def _model(assignments=None, centroids=np.zeros((1, 1)), sizes=(1,)):
    return ClusterModel(assignments or {}, centroids, list(sizes), len(sizes))


def test_write_assignments_golden(tmp_path):
    path = write_assignments(tmp_path / "a.csv", _model({"b": 2, "x,y": 1, "a": 1}))
    assert path.read_text() == 'tower_id,cluster\na,1\nb,2\n"x,y",1\n'


def test_write_centroids_golden(tmp_path):
    model = _model(centroids=np.array([[F17, -0.0], [1e-300, 2.5]]), sizes=(3, 1))
    path = write_centroids(tmp_path / "c.csv", model)
    assert path.read_text() == (
        "cluster,size,v0,v1\n1,3,0.30000000000000004,-0.0\n2,1,1e-300,2.5\n"
    )


def test_write_dbi_trace_golden(tmp_path):
    trace = [DbiTracePoint(2, F17, 1.25), DbiTracePoint(3, -0.0, 0.1)]
    path = write_dbi_trace(tmp_path / "d.csv", trace)
    assert path.read_text() == "R,cut_height,dbi\n2,0.30000000000000004,1.25\n3,-0.0,0.1\n"


def test_write_distance_cdf_golden(tmp_path):
    cdf = {2: np.array([0.0, F17]), 1: np.array([-0.0])}
    path = write_distance_cdf(tmp_path / "d.csv", cdf)
    assert path.read_text() == (
        "cluster,rank,distance\n1,1,-0.0\n2,1,0.0\n2,2,0.30000000000000004\n"
    )


def test_write_time_features_golden(tmp_path):
    features = [
        TimeFeatures("c1", None, F17, -0.0, None, 2.0, 1.0, 2.0, [0, 6], [], [143], [72]),
        TimeFeatures("t,2", 1.5, 1e-300, 5e-324, 3.0, 0.0, 0.0, None, [], [1], [], []),
    ]
    path = write_time_features(tmp_path / "t.csv", features)
    assert path.read_text() == (
        "source_id,weekday_weekend_ratio,weekday_peak,weekday_valley,"
        "weekday_peak_valley_ratio,weekend_peak,weekend_valley,weekend_peak_valley_ratio,"
        "weekday_peak_times,weekday_valley_times,weekend_peak_times,weekend_valley_times\n"
        "c1,,0.30000000000000004,-0.0,,2.0,1.0,2.0,00:00 01:00,,23:50,12:00\n"
        '"t,2",1.5,1e-300,5e-324,3.0,0.0,0.0,,,00:10,,\n'
    )


def test_write_poi_profiles_golden(tmp_path):
    profiles = {
        "t1": PoiProfile(
            "t1", np.array([1, 0, 2, 0]), np.array([F17, 0.0, -0.0, 1.5]),
            np.array([0.25, 0.0, 0.0, 0.75]),
        ),
        "t0": PoiProfile("t0", np.zeros(4, dtype=int), np.zeros(4), None),
    }
    path = write_poi_profiles(tmp_path / "p.csv", profiles)
    assert path.read_text() == (
        "tower_id,count_resident,count_transport,count_office,count_entertain,"
        "tfidf_resident,tfidf_transport,tfidf_office,tfidf_entertain,"
        "ntfidf_resident,ntfidf_transport,ntfidf_office,ntfidf_entertain,ntfidf_defined\n"
        "t0,0,0,0,0,0.0,0.0,0.0,0.0,,,,,0\n"
        "t1,1,0,2,0,0.30000000000000004,0.0,-0.0,1.5,0.25,0.0,0.0,0.75,1\n"
    )


def test_write_poi_cluster_table_golden(tmp_path):
    table = PoiClusterTable(
        [1, 2, 3],
        np.array([[0.5, NAN, -0.0, F17], [1.0, NAN, 0.0, 0.0], [NAN, NAN, NAN, NAN]]),
        {1: "resident", 2: "resident"},
        {"resident": 2, "office": 1, "entertain": 1},
    )
    path = write_poi_cluster_table(tmp_path / "p.csv", table)
    assert path.read_text() == (
        "cluster,resident,transport,office,entertain,row_max\n"
        "1,0.5,,-0.0,0.30000000000000004,resident\n"
        "2,1.0,,0.0,0.0,resident\n"
        "3,,,,,\n"
        "col_max,2,,1,1,\n"
    )


def test_write_binned_golden(tmp_path):
    slots = {"a": {0: F17, 5: 5e-324, 6: -0.0}, "x,y": {143: 1e308}, 'say "hi"': {1: 2.5},
             "a\rb": {2: 1.0}, "塔-é": {3: 7.0}, "": {4: 0.5}, "z": {}}
    series = {}
    for tower, values in slots.items():
        series[tower] = BinnedSeries(tower, 0, np.zeros(144))
        for slot, value in values.items():
            series[tower].slot_bytes[slot] = value
    npy_path, manifest_path = write_binned(tmp_path, BinResult(series, 3, F17), 0, 1)
    # a version 1.0 .npy header, padded to 128 bytes, then the rows in tower
    # order as little-endian float64, -0.0 and the all-zero tower z among them
    header = b"\x93NUMPY\x01\x00v\x00{'descr': '<f8', 'fortran_order': False, 'shape': (7, 144), }"
    rows = [series[t].slot_bytes for t in ["", "a", "a\rb", 'say "hi"', "x,y", "z", "塔-é"]]
    assert npy_path.read_bytes() == header.ljust(127) + b"\n" + np.array(rows).astype("<f8").tobytes()
    assert manifest_path.read_bytes() == (
        b'{\n  "days": 1,\n  "origin_epoch_s": 0,\n'
        b'  "origin_iso": "1970-01-01T08:00:00+08:00",\n'
        b'  "out_of_window_bytes": 0.30000000000000004,\n  "slot_seconds": 600,\n'
        b'  "towers": [\n    "",\n    "a",\n    "a\\rb",\n    "say \\"hi\\"",\n'
        b'    "x,y",\n    "z",\n    "\\u5854-\\u00e9"\n  ],\n'
        b'  "tz_offset_minutes": 480,\n  "unknown_tower_sessions": 3\n}\n'
    )


def test_write_vectors_csv_golden(tmp_path):
    ids = ["a", "x,y", 'say "hi"', "a\rb", "塔-é"]
    values = [[5e-324, 1e308], [F17, -0.0], [-1.5, 2.0], [0.0, 1.0], [1.0, -1.0]]
    vectors = [TrafficVector(t, np.array(v)) for t, v in zip(ids, values)]
    vectors.append(TrafficVector("", np.zeros(2), True))
    path = write_vectors_csv(tmp_path / "v.csv", vectors)
    assert path.read_bytes() == (
        "tower_id,degenerate,v0,v1\n"
        ",1,0.0,0.0\n"
        "a,0,5e-324,1e+308\n"
        '"a\rb",0,0.0,1.0\n'
        '"say ""hi""",0,-1.5,2.0\n'
        '"x,y",0,0.30000000000000004,-0.0\n'
        "塔-é,0,1.0,-1.0\n"
    ).encode("utf-8")
    assert write_vectors_csv(tmp_path / "w.csv", []).read_bytes() == b"tower_id,degenerate\n"


def test_write_spectral_features_golden(tmp_path):
    features = [
        SpectralFeature("塔-é", 1e308, -0.0, 2.5, 0.5, 0.0, 3.0),
        SpectralFeature('say "hi"', F17, 5e-324, 1.0, -1.5, 2.0, 0.25),
        SpectralFeature("x,y", 0.0, 0.0, 1e-300, 3.141592653589793, 7.0, -0.0),
        # one int among the floats is still written as a float
        SpectralFeature("a", 1, 0.5, 2.0, 0.0, 4.0, -1.0),
    ]
    path = write_spectral_features(tmp_path / "f.csv", features)
    assert path.read_bytes() == (
        "tower_id,A4,P4,A28,P28,A56,P56\n"
        "a,1.0,0.5,2.0,0.0,4.0,-1.0\n"
        '"say ""hi""",0.30000000000000004,5e-324,1.0,-1.5,2.0,0.25\n'
        '"x,y",0.0,0.0,1e-300,3.141592653589793,7.0,-0.0\n'
        "塔-é,1e+308,-0.0,2.5,0.5,0.0,3.0\n"
    ).encode("utf-8")
    assert write_spectral_features(tmp_path / "g.csv", []).read_bytes() == b"tower_id,A4,P4,A28,P28,A56,P56\n"


def test_write_mixtures_golden(tmp_path):
    mixtures = [
        MixtureCoefficients("x,y", np.array([F17, 0.7, -0.0, 0.0]), 1e308),
        MixtureCoefficients("塔-é", np.array([0.25, 0.25, 0.25, 0.25]), -0.0),
        MixtureCoefficients("a", np.array([1.0, 0.0, 0.0, 0.0]), 5e-324),
        MixtureCoefficients('say "hi"', np.array([0.5, 0.5, 0.0, 0.0]), 0.125),
    ]
    path = write_mixtures(tmp_path / "m.csv", mixtures)
    assert path.read_bytes() == (
        "tower_id,x1,x2,x3,x4,residual\n"
        "a,1.0,0.0,0.0,0.0,5e-324\n"
        '"say ""hi""",0.5,0.5,0.0,0.0,0.125\n'
        '"x,y",0.30000000000000004,0.7,-0.0,0.0,1e+308\n'
        "塔-é,0.25,0.25,0.25,0.25,-0.0\n"
    ).encode("utf-8")
    assert write_mixtures(tmp_path / "n.csv", []).read_bytes() == b"tower_id,x1,x2,x3,x4,residual\n"


def test_write_vectors_binary_golden(tmp_path):
    ids = ["a", "x,y", "塔-é", "b\x00"]
    values = [[5e-324, 1e308], [F17, -0.0], [1.0, -1.0], [0.0, 0.0]]
    vectors = [TrafficVector(t, np.array(v), t == "b\x00") for t, v in zip(ids, values)]
    path = write_vectors_binary(tmp_path / "v.bin", vectors)
    # the .npy of write_binned, rows in tower order, and the manifest beside it
    header = b"\x93NUMPY\x01\x00v\x00{'descr': '<f8', 'fortran_order': False, 'shape': (4, 2), }"
    rows = [values[i] for i in (0, 3, 1, 2)]
    assert path.read_bytes() == header.ljust(127) + b"\n" + np.array(rows).astype("<f8").tobytes()
    assert (tmp_path / "v.bin.json").read_bytes() == (
        b'{\n  "degenerate": [\n    false,\n    true,\n    false,\n    false\n  ],\n'
        b'  "towers": [\n    "a",\n    "b\\u0000",\n    "x,y",\n    "\\u5854-\\u00e9"\n  ],\n'
        b'  "values": 2\n}\n'
    )
    assert write_vectors_binary(tmp_path / "w.bin", []).read_bytes() == (
        b"\x93NUMPY\x01\x00v\x00{'descr': '<f8', 'fortran_order': False, 'shape': (0, 0), }"
        .ljust(127) + b"\n"
    )


# --- write -> read round trips ----------------------------------------------

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1.7976931348623157e308, F17]
FLOATS = st.floats(allow_nan=False) | st.sampled_from(EDGE_FLOATS)
# a vector holds finite values only
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
IDS = st.text()
# write_binned rejects a slot that is not a finite, non-negative byte count,
# so the binned round trip draws slots from these, -0.0 among them.
BYTE_COUNTS = st.floats(min_value=0.0, allow_infinity=False) | st.sampled_from(
    [x for x in EDGE_FLOATS if x >= 0]
)


def same(a, b) -> bool:
    """Equal float64 arrays bit for bit, so -0.0 differs from 0.0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def round_trip(write, read, value, name="t.csv"):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        write(path, value)
        return read(path)


@st.composite
def binned_results(draw):
    days = draw(st.integers(1, 2))
    # origins from the year 1425 to 6325, inside the ISO dates the manifest records
    origin = draw(st.integers(-(2**34), 2**37))
    towers = draw(st.lists(IDS, unique=True, max_size=4))
    series = {}
    for tower in towers:
        slots = np.zeros(days * 144)
        for slot, value in draw(st.dictionaries(st.integers(0, days * 144 - 1), BYTE_COUNTS, max_size=5)).items():
            slots[slot] = value
        series[tower] = BinnedSeries(tower, origin, slots)
    result = BinResult(series, draw(st.integers(0, 2**40)), draw(FLOATS))
    return result, origin, days


@given(binned_results())
def test_binned_round_trip_property(case):
    result, origin, days = case
    with tempfile.TemporaryDirectory() as tmp:
        series, manifest = read_binned(*write_binned(tmp, result, origin, days))
    assert manifest["origin_epoch_s"] == origin and manifest["days"] == days
    assert manifest["unknown_tower_sessions"] == result.unknown_towers
    assert same(manifest["out_of_window_bytes"], result.out_of_window_bytes)
    assert manifest["towers"] == list(series) == sorted(result.series)
    for tower, s in series.items():
        assert s.tower_id == tower and s.origin == origin
        assert same(s.slot_bytes, result.series[tower].slot_bytes)


@st.composite
def vector_lists(draw, ids=IDS):
    n = draw(st.integers(0, 4))
    values = st.lists(FINITE, min_size=n, max_size=n).map(np.array)
    # a degenerate vector is all zeros
    zeros = st.lists(st.sampled_from([0.0, -0.0]), min_size=n, max_size=n).map(np.array)
    vector = st.builds(TrafficVector, ids, values) | st.builds(TrafficVector, ids, zeros, st.just(True))
    # A file names each tower once, so the readers reject a repeated id.
    return draw(st.lists(vector, max_size=4, unique_by=lambda v: v.tower_id))


def _assert_same_vectors(loaded, vectors):
    expected = sorted(vectors, key=lambda v: v.tower_id)
    assert [(v.tower_id, v.degenerate) for v in loaded] == [
        (v.tower_id, v.degenerate) for v in expected
    ]
    assert all(same(a.values, b.values) for a, b in zip(loaded, expected))


@given(vector_lists())
def test_vectors_csv_round_trip_property(vectors):
    _assert_same_vectors(round_trip(write_vectors_csv, read_vectors, vectors), vectors)


# The JSON manifest escapes any id, so the binary file also holds an id that
# ends in NUL and one with a lone surrogate, which UTF-8 cannot encode.
@given(vector_lists(IDS | st.sampled_from(["t\x00", "b\udc80"])))
@example([TrafficVector("t\x00", np.array([1.0])), TrafficVector("b\udc80", np.zeros(1), True)])
def test_vectors_binary_round_trip_property(vectors):
    _assert_same_vectors(round_trip(write_vectors_binary, read_vectors, vectors, "v.bin"), vectors)


@given(st.dictionaries(IDS, st.integers(min_value=1)))
def test_assignments_round_trip_property(assignments):
    model = _model(assignments)
    assert round_trip(write_assignments, read_assignments, model) == assignments


@st.composite
def spectral_features(draw):
    amplitude = st.floats(min_value=0.0) | st.sampled_from([x for x in EDGE_FLOATS if x >= 0])
    amps = draw(st.lists(amplitude, min_size=3, max_size=3))
    phases = draw(st.lists(FLOATS, min_size=3, max_size=3))
    values = [v for pair in zip(amps, phases) for v in pair]
    return SpectralFeature(draw(IDS), *values)


# A file names each tower once, so the readers reject a repeated id.
@given(st.lists(spectral_features(), max_size=4, unique_by=lambda f: f.tower_id))
def test_spectral_features_round_trip_property(features):
    loaded = round_trip(write_spectral_features, read_spectral_features, features)
    expected = sorted(features, key=lambda f: f.tower_id)
    assert [f.tower_id for f in loaded] == [f.tower_id for f in expected]
    assert all(same(a.as_array(), b.as_array()) for a, b in zip(loaded, expected))


mixtures = st.builds(
    MixtureCoefficients, IDS, st.lists(FLOATS, min_size=4, max_size=4).map(np.array), FLOATS
)


@given(st.lists(mixtures, max_size=4, unique_by=lambda m: m.tower_id))
def test_mixtures_round_trip_property(mixes):
    loaded = round_trip(write_mixtures, read_mixtures, mixes)
    expected = sorted(mixes, key=lambda m: m.tower_id)
    assert [m.tower_id for m in loaded] == [m.tower_id for m in expected]
    assert all(same(a.x, b.x) and same(a.residual, b.residual) for a, b in zip(loaded, expected))


@st.composite
def polygon_models(draw):
    # A model holds 4 finite vertices that span a simplex that is not flat, so
    # 3 dims or more: the drawn coordinates, with 8 times the largest of them
    # (at least 1) added to one axis per vertex after the first, which keeps
    # the edge matrix diagonally dominant. Coordinates stay below 1e50, far
    # from where the Gram matrix overflows. Its space has finite means and
    # positive finite stds.
    dims = draw(st.integers(3, 4))

    def arrays(values):
        return st.lists(values, min_size=dims, max_size=dims).map(np.array)

    means = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
    stds = st.floats(min_value=5e-324, allow_infinity=False) | st.sampled_from(
        [x for x in EDGE_FLOATS if x > 0]
    )
    coordinates = st.floats(-1e50, 1e50) | st.sampled_from([x for x in EDGE_FLOATS if abs(x) < 1e50])
    names = tuple(draw(st.lists(IDS, min_size=dims, max_size=dims)))
    coords = np.array(draw(st.lists(arrays(coordinates), min_size=4, max_size=4)))
    coords[1:, :3] += np.eye(3) * max(1.0, 8 * np.abs(coords).max())
    vertices = [FeaturePoint(draw(IDS), c) for c in coords]
    clusters = draw(st.lists(st.integers(), min_size=4, max_size=4))
    space = FeatureSpace(names, draw(arrays(means)), draw(arrays(stds)))
    return PolygonModel(vertices, clusters, space)


@given(polygon_models())
def test_vertices_round_trip_property(model):
    with np.errstate(all="ignore"):  # the raw coordinates may overflow
        loaded = round_trip(write_vertices, read_vertices, model, "v.json")
    assert loaded.space.names == model.space.names
    assert same(loaded.space.mean, model.space.mean) and same(loaded.space.std, model.space.std)
    assert loaded.vertex_clusters == model.vertex_clusters
    assert [v.tower_id for v in loaded.vertices] == [v.tower_id for v in model.vertices]
    assert all(same(a.f, b.f) for a, b in zip(loaded.vertices, model.vertices))


# --- one I/O layer ----------------------------------------------------------


@given(IDS, st.integers(), FLOATS)
def test_csv_cell_quotes_as_csv_writer_does(text, number, value):
    # csv.writer quotes a "\r" only when its rows end in "\r\n"
    out = io.StringIO()
    csv.writer(out, lineterminator="\r\n").writerow([text, number, value])
    assert csv_cell(text) + "," + str(number) + "," + repr(value) + "\r\n" == out.getvalue()

# (module, function) of the only calls allowed to each csv/json/npy entry point
ALLOWED_CALLS = {
    "csv.reader": {("common", "read_csv"), ("ingest", "parse_sessions")},
    "csv.writer": set(),
    "json.dump": {("common", "write_json")},
    "json.load": {("common", "read_json")},
    "np.load": {("common", "read_npy")},
    "np.save": set(),
}


def _attribute_calls(node, function=None):
    """(innermost enclosing function, "x.y") for every ``x.y(...)`` call under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) and isinstance(
            child.func.value, ast.Name
        ):
            yield function, f"{child.func.value.id}.{child.func.attr}"
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from _attribute_calls(child, inner)


def test_csv_and_json_calls_stay_in_the_io_helpers():
    found = {name: set() for name in ALLOWED_CALLS}
    for path in sorted(Path(cellmine.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            assert not (
                isinstance(node, ast.ImportFrom) and node.module in ("csv", "json")
            ), f"{path.name}: import the module, not names from it"
        for function, name in _attribute_calls(tree):
            if name in found:
                found[name].add((path.stem, function))
    assert found == ALLOWED_CALLS


def test_every_npy_call_refuses_pickles():
    # a pickle in a file runs code when it is loaded
    calls = []
    for path in sorted(Path(cellmine.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("load", "save") and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "np"):
                continue
            calls.append(f"{path.name}: np.{node.func.attr}")
            pickle = {kw.arg: kw.value for kw in node.keywords}.get("allow_pickle")
            assert isinstance(pickle, ast.Constant) and pickle.value is False, (
                f"{path.name} line {node.lineno}: np.{node.func.attr} without allow_pickle=False"
            )
    # the one reader of every staged matrix
    assert calls == ["common.py: np.load"]


def test_every_open_is_binary_or_utf8():
    opens = 0
    for path in sorted(Path(cellmine.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "open"):
                continue
            opens += 1
            args = {kw.arg: kw.value for kw in node.keywords}
            args.update(zip(["file", "mode"], node.args))
            mode, encoding = args.get("mode"), args.get("encoding")
            binary = isinstance(mode, ast.Constant) and "b" in mode.value
            utf8 = isinstance(encoding, ast.Constant) and encoding.value == "utf-8"
            assert binary or utf8, f"{path.name} line {node.lineno}: text open without UTF-8"
    assert opens


def _holding_objects(vec):
    """``vec`` with its values, checked when it was built, replaced by objects."""
    object.__setattr__(vec, "values", np.full(vec.n, object()))
    return vec


@pytest.mark.parametrize(
    "write",
    [
        lambda path: write_vectors_csv(path, [TrafficVector("a", np.zeros(3)),
                                              TrafficVector("b", np.ones(3), None)]),
        lambda path: write_vectors_binary(path, [TrafficVector("a", np.zeros(3)),
                                                 _holding_objects(TrafficVector("b", np.zeros(3)))]),
        lambda path: write_json(path, {"a": 1, "b": object()}, ValueError),
    ],
    ids=["vectors_csv", "vectors_binary", "json"],
)
def test_a_failed_write_keeps_the_old_file(tmp_path, write):
    # each write fails part way, after it has written a first record: a
    # degenerate flag of None has no int, and an object() no float and no JSON
    path = write_vectors_csv(tmp_path / "old", [TrafficVector("z", np.arange(3.0))])
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["old"]


@pytest.mark.parametrize(
    "write, error",
    [
        (lambda directory, tower: write_vectors_csv(
            directory / "v.csv", [TrafficVector("a", np.zeros(3)), TrafficVector(tower, np.ones(3))]),
         VectorizeError),
        (lambda directory, tower: write_assignments(directory / "a.csv", _model({"a": 1, tower: 2})),
         ClusterError),
        (lambda directory, tower: write_spectral_features(
            directory / "f.csv", [SpectralFeature(t, 1.0, 0.5, 1.0, 0.5, 1.0, 0.5) for t in ("a", tower)]),
         SpectrumError),
        (lambda directory, tower: write_mixtures(
            directory / "m.csv", [MixtureCoefficients(t, np.full(4, 0.25), 0.0) for t in ("a", tower)]),
         DecomposeError),
        (lambda directory, tower: write_time_features(
            directory / "t.csv",
            [TimeFeatures(t, 1.0, 2.0, 1.0, 2.0, 2.0, 1.0, 2.0, [0], [72], [0], [72]) for t in ("a", tower)]),
         TimefeatError),
        (lambda directory, tower: write_poi_profiles(
            directory / "p.csv",
            {t: PoiProfile(t, np.zeros(4, dtype=int), np.zeros(4), None) for t in ("a", tower)}),
         PoiError),
    ],
    ids=["vectors_csv", "assignments", "spectral_features", "mixtures", "time_features",
         "poi_profiles"],
)
def test_a_tower_id_utf8_cannot_encode_fails_with_the_module_error(tmp_path, write, error):
    write(tmp_path, "c")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    # a lone surrogate, which UTF-8 cannot encode; the message quotes the
    # text written up to it, here the row's first cell
    with pytest.raises(error, match=r": 'b\\udc80' is not UTF-8 \(surrogates not allowed\)$"):
        write(tmp_path, "b\udc80")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_a_tower_id_utf8_cannot_encode_round_trips_through_the_binned_manifest(tmp_path):
    # binned.npy holds no ids, and the manifest's JSON escapes the surrogate
    tower = "b\udc80"
    result = BinResult({t: BinnedSeries(t, 0, np.arange(144.0)) for t in ("a", tower)}, 0, 0.0)
    npy_path, manifest_path = write_binned(tmp_path, result, 0, 1)
    assert b'"b\\udc80"' in manifest_path.read_bytes()
    series, manifest = read_binned(npy_path, manifest_path)
    assert manifest["towers"] == list(series) == ["a", tower]
    assert same(series[tower].slot_bytes, np.arange(144.0))


def test_a_tower_id_utf8_cannot_encode_round_trips_through_the_vectors_manifest(tmp_path):
    # as in the binned manifest: the .npy holds no ids, and the JSON escapes the surrogate
    vectors = [TrafficVector("a", np.zeros(3), True), TrafficVector("b\udc80", np.arange(3.0))]
    path = write_vectors_binary(tmp_path / "v.bin", vectors)
    assert b'"b\\udc80"' in (tmp_path / "v.bin.json").read_bytes()
    loaded = read_vectors(path)
    assert [v.tower_id for v in loaded] == ["a", "b\udc80"]
    assert same(loaded[1].values, np.arange(3.0))


@pytest.mark.parametrize(
    "write, error",
    [
        (lambda path, ids: write_vectors_csv(path, [TrafficVector(t, np.zeros(3)) for t in ids]),
         VectorizeError),
        (lambda path, ids: write_vectors_binary(path, [TrafficVector(t, np.zeros(3)) for t in ids]),
         VectorizeError),
        (lambda path, ids: write_spectral_features(
            path, [SpectralFeature(t, 1.0, 0.5, 1.0, 0.5, 1.0, 0.5) for t in ids]),
         SpectrumError),
        (lambda path, ids: write_mixtures(
            path, [MixtureCoefficients(t, np.full(4, 0.25), 0.0) for t in ids]),
         DecomposeError),
    ],
    ids=["vectors_csv", "vectors_binary", "spectral_features", "mixtures"],
)
def test_a_repeated_tower_fails_with_the_module_error(tmp_path, write, error):
    # the readers reject a file that names a tower twice, so the writers do not write one
    # every file the writer wrote (the binary one writes a manifest beside it) stays as it was
    write(tmp_path / "out", ["a", "b"])
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(error, match="^tower b is repeated$"):
        write(tmp_path / "out", ["b", "a", "b"])
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


MISSING, IS_A_DIRECTORY = "[Errno 2] No such file or directory", "[Errno 21] Is a directory"
NOT_A_DIRECTORY = "[Errno 20] Not a directory"
BINNED = BinResult({"t1": BinnedSeries("t1", 0, np.ones(144))}, 0, 0.0)
UNIT_CORNER = PolygonModel([FeaturePoint(t, f) for t, f in zip("abcd", np.eye(4, 3, -1))],
                           [1, 2, 3, 4], FeatureSpace(("x", "y", "z"), np.zeros(3), np.ones(3)))


def _binned_without(directory, name):
    """``directory / name``, one of the two files ``write_binned`` writes, deleted."""
    write_binned(directory, BINNED, 0, 1)
    (directory / name).unlink()
    return directory / name


def _vectors_without_manifest(directory):
    """The manifest of a vectors.bin, deleted."""
    write_vectors_binary(directory / "vectors.bin", [TrafficVector("a", np.ones(3))])
    (directory / "vectors.bin.json").unlink()
    return directory / "vectors.bin.json"


def _directory(path):
    path.mkdir()
    return path


def _under_a_file(path):
    """``path``, whose parent is a file."""
    path.parent.write_bytes(b"")
    return path


@pytest.mark.parametrize(
    "place, act, error, reason",
    [
        (lambda d: _binned_without(d, "binned.npy"),
         lambda path: read_binned(path, path.with_name("binned_manifest.json")), IngestError, MISSING),
        (lambda d: _binned_without(d, "binned_manifest.json"),
         lambda path: read_binned(path.with_name("binned.npy"), path), IngestError, MISSING),
        (lambda d: d / "vertices.json", read_vertices, DecomposeError, MISSING),
        (lambda d: d / "assignments.csv", read_assignments, ClusterError, MISSING),
        (lambda d: d / "spectral.csv", read_spectral_features, SpectrumError, MISSING),
        (lambda d: d / "mixtures.csv", read_mixtures, DecomposeError, MISSING),
        (lambda d: d / "vectors.csv", read_vectors, VectorizeError, MISSING),
        (lambda d: _directory(d / "vectors.csv"), read_vectors, VectorizeError, IS_A_DIRECTORY),
        (_vectors_without_manifest, lambda path: read_vectors(path.with_name("vectors.bin")),
         VectorizeError, MISSING),
        (lambda d: d / "no" / "mixtures.csv", lambda path: write_mixtures(path, []),
         DecomposeError, MISSING),
        (lambda d: d / "no" / "vertices.json", lambda path: write_vertices(path, UNIT_CORNER),
         DecomposeError, MISSING),
        (lambda d: _under_a_file(d / "no" / "mixtures.csv"), lambda path: write_mixtures(path, []),
         DecomposeError, NOT_A_DIRECTORY),
        (lambda d: _directory(d / "vectors.bin"), lambda path: write_vectors_binary(path, []),
         VectorizeError, IS_A_DIRECTORY),
        (lambda d: _directory(d / "binned.npy"), lambda path: write_binned(path.parent, BINNED, 0, 1),
         IngestError, IS_A_DIRECTORY),
    ],
    ids=["read_binned_npy", "read_binned_manifest", "read_vertices", "read_assignments",
         "read_spectral_features", "read_mixtures", "read_vectors", "read_vectors_directory",
         "read_vectors_manifest", "write_csv", "write_json", "write_csv_under_a_file", "write_vectors_binary",
         "write_binned_directory"],
)
def test_a_file_error_fails_with_the_module_error_naming_the_path(tmp_path, place, act, error,
                                                                   reason):
    # a missing file or directory, or a directory where the file should be
    path = place(tmp_path)
    with pytest.raises(error) as info:
        act(path)
    assert str(info.value) == f"{path}: {reason}"
    assert not list(tmp_path.rglob(".*")), "a temporary file was left behind"


# --- encoding and header errors ---------------------------------------------

TOWER = "塔-é"


def _non_ascii_round_trips(directory):
    """Write and read back every CSV file that carries a tower id, and the
    binned manifest, with a non-ASCII id."""
    directory = Path(directory)
    series = {TOWER: BinnedSeries(TOWER, 0, np.arange(144.0))}
    npy_path, manifest_path = write_binned(directory, BinResult(series, 0, 0.0), 0, 1)
    assert b'"\\u5854-\\u00e9"' in manifest_path.read_bytes()
    binned, manifest = read_binned(npy_path, manifest_path)
    assert manifest["towers"] == [TOWER]
    assert np.array_equal(binned[TOWER].slot_bytes, series[TOWER].slot_bytes)
    vector = TrafficVector(TOWER, np.array([1.0, -1.0]), False)
    assert read_vectors(write_vectors_csv(directory / "v.csv", [vector]))[0].tower_id == TOWER
    assignments = write_assignments(directory / "a.csv", _model({TOWER: 3}))
    assert read_assignments(assignments) == {TOWER: 3}
    feature = SpectralFeature(TOWER, 1.0, 0.5, 1.0, 0.5, 1.0, 0.5)
    features = write_spectral_features(directory / "f.csv", [feature])
    assert read_spectral_features(features) == [feature]
    mixture = MixtureCoefficients(TOWER, np.full(4, 0.25), 0.0)
    assert read_mixtures(write_mixtures(directory / "m.csv", [mixture]))[0].tower_id == TOWER


def test_non_ascii_tower_id_round_trips(tmp_path):
    _non_ascii_round_trips(tmp_path)


def test_non_ascii_tower_id_round_trips_under_an_ascii_locale(tmp_path):
    # PYTHONUTF8=0 and PYTHONCOERCECLOCALE=0 keep Python from switching to
    # UTF-8 under the C locale, so the locale's encoding really is ASCII.
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cellmine.__file__).parents[1]), str(Path(__file__).parent)]
    )
    code = (
        f"import codecs, locale, sys, {Path(__file__).stem} as tests\n"
        "print(codecs.lookup(locale.getpreferredencoding(False)).name)\n"
        "tests._non_ascii_round_trips(sys.argv[1])\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["ascii"]


def test_header_error_names_the_first_differing_column(tmp_path):
    path = write_vectors_csv(tmp_path / "v.csv", [TrafficVector("a", np.zeros(4032), True)])
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace(",v7,", ",v7x,", 1), encoding="utf-8")
    with pytest.raises(VectorizeError) as info:
        read_vectors(path)
    assert str(info.value) == f"{path} line 1: bad vectors header, column 10 is 'v7x', expected 'v7'"


def test_header_error_gives_the_column_counts():
    message = r"^t\.csv line 2: bad test header, 2 columns, expected 3$"
    with pytest.raises(ValueError, match=message):
        list(read_csv(["\n", "a,b\n"], ["a", "b", "c"], ValueError, "t.csv", "test", tuple))


def _from_file(parse):
    """``parse``, which reads lines, as a reader of the file at a path."""
    def read(path):
        with open(path, encoding="utf-8", newline="") as f:
            return parse(f)
    return read


@pytest.mark.parametrize(
    "read, error, source, header",
    [
        (_from_file(parse_sessions), IngestError, "sessions", SESSIONS_HEADER),
        (_from_file(parse_towers), IngestError, "towers", TOWERS_HEADER),
        (_from_file(parse_pois), PoiError, "pois", POIS_HEADER),
        (read_assignments, ClusterError, None, ASSIGNMENTS_HEADER),
        (read_vectors, VectorizeError, None, ["tower_id", "degenerate", "v0"]),
        (read_spectral_features, SpectrumError, None, FEATURES_HEADER),
        (read_mixtures, DecomposeError, None, MIXTURES_HEADER),
    ],
    ids=["sessions", "towers", "pois", "assignments", "vectors", "spectral_features", "mixtures"],
)
@pytest.mark.parametrize(
    "row, reason",
    [
        (b"x" * 200_000 + b"\n", r" line 2: field larger than field limit \(131072\)$"),
        # the file is decoded ahead of its rows, so no line is named
        (b"t,\xff\n", r": 'utf-8' codec can't decode byte 0xff in position \d+: invalid start byte$"),
    ],
    ids=["long_field", "not_utf8"],
)
def test_a_row_csv_cannot_read_fails_with_the_module_error(tmp_path, read, error, source, header,
                                                           row, reason):
    path = tmp_path / "t.csv"
    path.write_bytes(",".join(header).encode("utf-8") + b"\n" + row)
    with pytest.raises(error, match="^" + re.escape(source or str(path)) + reason):
        read(path)
