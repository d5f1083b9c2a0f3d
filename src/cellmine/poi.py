"""Points-of-interest validation: radius counts, normalized cluster table,
and TF-IDF / NTF-IDF scores per tower.

Distances are great-circle (haversine) on a sphere of radius 6371.0088 km.
Counting uses a coarse lat/lon grid index so a city-sized registry stays
O(towers + pois).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .common import parse_lat_lon, read_csv, write_csv
from .ingest import TowerRecord

POI_TYPES = ("resident", "transport", "office", "entertain")

EARTH_RADIUS_M = 6_371_008.8
_METERS_PER_DEG_LAT = math.pi * EARTH_RADIUS_M / 180.0

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
    """Bucket POIs by ~0.01 degree cells for radius queries.

    Longitude cells wrap around the globe, so a query that crosses longitude
    +-180 finds the POIs on the other side, and one whose circle covers a pole
    takes every cell of its latitude bands, each once. A query whose box
    covers more cells than there are occupied buckets walks the buckets
    instead, so its cost stays bounded as the radius grows.
    """

    def __init__(self, pois: Sequence[PoiRecord], cell_deg: float = 0.01):
        self.cell_deg = cell_deg
        # A whole number of longitude cells spans the 360 degrees.
        self.lon_cells = round(360.0 / cell_deg)
        self.lon_deg = 360.0 / self.lon_cells
        self.pois = list(pois)
        self.lats = np.array([p.lat for p in self.pois])
        self.lons = np.array([p.lon for p in self.pois])
        self.types = np.array([POI_TYPES.index(p.type) for p in self.pois], dtype=int)
        self.buckets: dict[tuple[int, int], list[int]] = {}
        for idx, p in enumerate(self.pois):
            key = (math.floor(p.lat / cell_deg), math.floor(p.lon / self.lon_deg) % self.lon_cells)
            self.buckets.setdefault(key, []).append(idx)

    def candidates(self, lat: float, lon: float, radius_m: float) -> np.ndarray:
        dlat = radius_m / _METERS_PER_DEG_LAT
        lat_cells = range(
            math.floor(max(lat - dlat, -90.0) / self.cell_deg),
            math.floor(min(lat + dlat, 90.0) / self.cell_deg) + 1,
        )
        angle = radius_m / EARTH_RADIUS_M
        colatitude = math.pi / 2 - math.radians(abs(lat))
        if angle >= colatitude:
            # The circle covers a pole, so it reaches every longitude.
            lon_cells = range(self.lon_cells)
        else:
            # The widest longitude offset on a circle of this angular radius.
            dlon = math.degrees(math.asin(min(1.0, math.sin(angle) / math.sin(colatitude))))
            first = math.floor((lon - dlon) / self.lon_deg)
            last = math.floor((lon + dlon) / self.lon_deg)
            lon_cells = range(first, first + min(last - first + 1, self.lon_cells))
        hits: list[int] = []
        if len(lat_cells) * len(lon_cells) > len(self.buckets):
            for (i, j), bucket in self.buckets.items():
                if i in lat_cells and (j - lon_cells.start) % self.lon_cells < len(lon_cells):
                    hits.extend(bucket)
        else:
            for i in lat_cells:
                for j in lon_cells:
                    hits.extend(self.buckets.get((i, j % self.lon_cells), ()))
        return np.array(sorted(hits), dtype=int)

    def count_within(self, lat: float, lon: float, radius_m: float) -> np.ndarray:
        counts = np.zeros(len(POI_TYPES), dtype=int)
        idx = self.candidates(lat, lon, radius_m)
        if idx.size == 0:
            return counts
        d = haversine_m(lat, lon, self.lats[idx], self.lons[idx])
        within = idx[d <= radius_m]
        for t in self.types[within]:
            counts[t] += 1
        return counts


def count_poi(
    towers: Mapping[str, TowerRecord] | Sequence[TowerRecord],
    pois: Sequence[PoiRecord],
    radius_m: float = DEFAULT_RADIUS_M,
) -> dict[str, np.ndarray]:
    """POIs of each type within ``radius_m`` of each tower (boundary inclusive)."""
    if radius_m <= 0:
        raise PoiError(f"radius must be positive, got {radius_m}")
    if isinstance(towers, Mapping):
        tower_list = list(towers.values())
    else:
        tower_list = list(towers)
    grid = PoiGrid(pois)
    return {
        t.tower_id: grid.count_within(t.lat, t.lon, radius_m)
        for t in sorted(tower_list, key=lambda x: x.tower_id)
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
    normalized = np.full_like(raw, np.nan)
    for i in range(len(POI_TYPES)):
        if span[i] > 0.0:
            normalized[:, i] = (raw[:, i] - lo[i]) / span[i]
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
