"""Points-of-interest validation: radius counts, normalized cluster table,
and TF-IDF / NTF-IDF scores per tower.

Distances are great-circle (haversine) on a sphere of radius 6371.0088 km.
Counting takes its candidates from a KD-tree over the POIs' unit vectors, so
a city-sized registry stays O((towers + pois) log pois), and then keeps those
within the radius by the haversine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.spatial import KDTree

from .common import parse_lat_lon, read_csv, write_csv
from .ingest import TowerRecord

POI_TYPES = ("resident", "transport", "office", "entertain")

EARTH_RADIUS_M = 6_371_008.8
# added to each query's chord on the unit sphere, ~6 mm on the ground
CHORD_SLACK = 1e-9

POIS_HEADER = ["poi_id", "type", "lat", "lon"]
DEFAULT_RADIUS_M = 200.0


class PoiError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class PoiRecord:
    poi_id: str
    type: str
    lat: float
    lon: float


@dataclass(slots=True)
class PoiProfile:
    """Per-tower POI counts and their TF-IDF / NTF-IDF scores.

    ``ntfidf`` is None for towers with no POI of any type (all-zero TF-IDF
    cannot be normalized)."""

    tower_id: str
    counts: np.ndarray  # 4 ints in POI_TYPES order
    tfidf: np.ndarray
    ntfidf: np.ndarray | None


def haversine_m(lat1, lon1, lat2, lon2):
    """Great-circle distance in meters; accepts scalars or numpy arrays."""
    lat1, lon1, lat2, lon2 = (np.radians(np.asarray(x, dtype=float)) for x in (lat1, lon1, lat2, lon2))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    a = np.sin(dlat / 2) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2) ** 2
    return EARTH_RADIUS_M * 2 * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def _unit_vectors(lat, lon) -> np.ndarray:
    lat, lon = np.radians(lat), np.radians(lon)
    return np.stack([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)], axis=-1)


def _poi_row(fields: list[str]) -> PoiRecord:
    poi_id, poi_type, lat, lon = fields
    poi_id, poi_type = poi_id.strip(), poi_type.strip()
    if not poi_id:
        raise ValueError("empty poi_id")
    if poi_type not in POI_TYPES:
        raise ValueError(f"unknown type {poi_type!r} (expected one of {POI_TYPES})")
    return PoiRecord(poi_id, poi_type, *parse_lat_lon(lat, lon))


def parse_pois(lines: Iterable[str]) -> list[PoiRecord]:
    return list(read_csv(lines, POIS_HEADER, PoiError, "pois", "pois", _poi_row))


class PoiGrid:
    """POIs as unit vectors in a KD-tree, for radius queries. A circle of
    arc radius r is the ball of chord 2 sin(r / 2R) about its centre, which
    has no antimeridian or pole, and for r >= pi R holds the whole sphere."""

    def __init__(self, pois: Sequence[PoiRecord]):
        self.lats = np.array([p.lat for p in pois])
        self.lons = np.array([p.lon for p in pois])
        self.types = np.array([POI_TYPES.index(p.type) for p in pois], dtype=int)
        self.tree = KDTree(_unit_vectors(self.lats, self.lons))

    def candidates(self, lat: float, lon: float, radius_m: float) -> np.ndarray:
        """Sorted indices of the POIs in the ball of ``radius_m``: every POI
        the haversine puts within ``radius_m``, and perhaps a few more."""
        # The haversine keeps a POI when 2 asin(sqrt(a)) <= radius_m / R, and
        # a = sin^2(theta / 2) for the angle theta between the points, so the
        # POI's chord 2 sqrt(a) is at most `chord`, theta capped at pi where
        # the chord tops out at 2. That a and the unit vectors come from the
        # same radians by sines and cosines correct to a few ulp, so the chord
        # the tree measures is within ~1e-15 of 2 sqrt(a). CHORD_SLACK is ~1e6
        # times that, so the ball drops no POI the haversine keeps.
        chord = 2.0 * math.sin(min(radius_m / EARTH_RADIUS_M, math.pi) / 2.0)
        ball = self.tree.query_ball_point(_unit_vectors(lat, lon), chord + CHORD_SLACK, return_sorted=True)
        return np.array(ball, dtype=int)

    def count_within(self, lat: float, lon: float, radius_m: float) -> np.ndarray:
        idx = self.candidates(lat, lon, radius_m)
        d = haversine_m(lat, lon, self.lats[idx], self.lons[idx])
        return np.bincount(self.types[idx[d <= radius_m]], minlength=len(POI_TYPES))


def count_poi(
    towers: Mapping[str, TowerRecord] | Sequence[TowerRecord],
    pois: Sequence[PoiRecord],
    radius_m: float = DEFAULT_RADIUS_M,
) -> dict[str, np.ndarray]:
    """POIs of each type within ``radius_m`` of each tower (boundary inclusive)."""
    if radius_m <= 0:
        raise PoiError(f"radius must be positive, got {radius_m}")
    grid = PoiGrid(pois)
    return {
        t.tower_id: grid.count_within(t.lat, t.lon, radius_m)
        for t in sorted(towers.values() if isinstance(towers, Mapping) else towers,
                        key=lambda x: x.tower_id)
    }


@dataclass(slots=True)
class PoiClusterTable:
    """Cluster x type matrix of averaged min-max-normalized POI counts."""

    clusters: list[int]
    matrix: np.ndarray  # (len(clusters), 4); NaN where a type is undefined
    undefined_types: list[str]
    row_max: dict[int, str]  # cluster -> type name of the row maximum
    col_max: dict[str, int]  # type name -> cluster of the column maximum


def cluster_poi_table(
    counts: Mapping[str, np.ndarray], assignments: Mapping[str, int]
) -> PoiClusterTable:
    """Min-max normalize each type's counts across towers, then average per
    cluster. A type whose counts do not vary is flagged undefined (NaN column)."""
    towers = sorted(set(counts) & set(assignments))
    if not towers:
        raise PoiError("no towers shared between counts and assignments")
    raw = np.array([counts[t] for t in towers], dtype=float)
    labels = np.array([assignments[t] for t in towers])
    lo = raw.min(axis=0)
    hi = raw.max(axis=0)
    span = hi - lo
    undefined = [POI_TYPES[i] for i in range(len(POI_TYPES)) if span[i] == 0.0]
    normalized = (raw - lo) / np.where(span > 0.0, span, np.nan)
    clusters = sorted(set(labels.tolist()))
    matrix = np.vstack([normalized[labels == c].mean(axis=0) for c in clusters])
    row_max: dict[int, str] = {}
    for r, c in enumerate(clusters):
        row = matrix[r]
        if np.all(np.isnan(row)):
            continue
        row_max[c] = POI_TYPES[int(np.nanargmax(row))]
    col_max: dict[str, int] = {}
    for i, name in enumerate(POI_TYPES):
        col = matrix[:, i]
        if np.all(np.isnan(col)):
            continue
        col_max[name] = clusters[int(np.nanargmax(col))]
    return PoiClusterTable(clusters, matrix, undefined, row_max, col_max)


def ntfidf(counts: Mapping[str, np.ndarray]) -> dict[str, PoiProfile]:
    """TF-IDF with natural logarithms: IDF_i = ln(M / M_i) over the registry,
    TF-IDF_i = IDF_i * ln(1 + count_i), NTF-IDF normalizes the four scores to
    sum to 1 (undefined for all-zero towers)."""
    towers = sorted(counts)
    m_total = len(towers)
    if m_total < 1:
        raise PoiError("TF-IDF needs at least one tower")
    raw = np.array([counts[t] for t in towers], dtype=float)
    m_i = (raw > 0).sum(axis=0)
    idf = np.zeros(len(POI_TYPES))
    for i in range(len(POI_TYPES)):
        if m_i[i] > 0:
            idf[i] = math.log(m_total / m_i[i])
        else:
            # no tower sees this type, so every count is zero and the TF
            # factor annihilates the term regardless of IDF
            assert np.all(raw[:, i] == 0), "M_i = 0 with a positive count is impossible"
            idf[i] = 0.0
    out: dict[str, PoiProfile] = {}
    for row, tower_id in zip(raw, towers):
        tfidf = idf * np.log1p(row)
        total = float(tfidf.sum())
        nt = tfidf / total if total > 0.0 else None
        out[tower_id] = PoiProfile(tower_id, row.astype(int), tfidf, nt)
    return out


def _profile_row(tower_id: str, p: PoiProfile) -> list:
    if p.ntfidf is None:
        ntfidf = [None] * len(POI_TYPES) + [0]
    else:
        ntfidf = p.ntfidf.tolist() + [1]
    return [tower_id] + p.counts.tolist() + p.tfidf.tolist() + ntfidf


def write_poi_profiles(path: str | Path, profiles: Mapping[str, PoiProfile]) -> Path:
    """Counts and TF-IDF per tower; an undefined NTF-IDF is written as empty
    cells with ``ntfidf_defined`` 0."""
    header = ["tower_id"]
    for prefix in ("count", "tfidf", "ntfidf"):
        header += [f"{prefix}_{t}" for t in POI_TYPES]
    header.append("ntfidf_defined")
    rows = (_profile_row(t, profiles[t]) for t in sorted(profiles))
    return write_csv(path, header, rows)


def write_poi_cluster_table(path: str | Path, table: PoiClusterTable) -> Path:
    """The cluster x type matrix, NaN cells written empty, then a ``col_max`` row."""
    rows = [
        [cluster]
        + [None if math.isnan(v) else v for v in table.matrix[r].tolist()]
        + [table.row_max.get(cluster)]
        for r, cluster in enumerate(table.clusters)
    ]
    rows.append(["col_max"] + [table.col_max.get(t) for t in POI_TYPES] + [None])
    return write_csv(path, ["cluster"] + list(POI_TYPES) + ["row_max"], rows)
