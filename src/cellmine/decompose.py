"""Convex mixture decomposition in frequency-feature space.

Each tower is summarized by a standardized feature vector (day-bin
amplitude, day-bin phase, half-day amplitude). The four most
representative towers of the non-comprehensive clusters span a simplex, and
any tower's feature point is expressed as the convex combination of those
vertices that best approximates it: an exact 4-variable simplex-constrained
least-squares solve. Points inside the hull get their barycentric weights
with zero residual; points outside project onto the hull.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
from scipy.spatial.distance import cdist

from .common import read_csv, read_json, reject_nan, write_csv, write_json
from .spectrum import SpectralFeature

DEFAULT_FEATURE_NAMES = ("amp_day", "phase_day", "amp_half_day")
DEFAULT_DENSITY_RADIUS = 0.5
DEFAULT_MIN_DENSITY = 5
# select_representatives takes its distances in blocks of at most this many,
# ~8 MB of float64, so its working memory stays flat as the towers grow.
DISTANCE_BLOCK = 1 << 20

# a simplex flatter than this in standardized units is treated as degenerate
MIN_SIMPLEX_VOLUME = 1e-9

MIXTURES_HEADER = ["tower_id", "x1", "x2", "x3", "x4", "residual"]

# The supports of two or more of the four vertices, in solve_mixture's
# enumeration order, as (11, 4) 0/1 masks. For a support S the KKT system of
# min ||V x - f||^2 subject to sum(x) = 1 and x_i = 0 off S is
#   [2 V'V on S x S, 1 on S] [x     ]   [2 V'f on S]
#   [1 on S,         0     ] [lambda] = [1         ]
# with the row and column of each i off S reduced to x_i = 0. _KKT_FRAME holds
# the parts that do not depend on V: the border and the 1 that pins x_i.
_SUPPORTS = np.array(
    [[i in s for i in range(4)] for k in (2, 3, 4) for s in itertools.combinations(range(4), k)],
    dtype=float,
)
_KKT_PAIRS = _SUPPORTS[:, :, None] * _SUPPORTS[:, None, :]
_KKT_FRAME = np.zeros((len(_SUPPORTS), 5, 5))
_KKT_FRAME[:, :4, :4] = np.eye(4) * (1.0 - _SUPPORTS[:, None, :])
_KKT_FRAME[:, :4, 4] = _SUPPORTS
_KKT_FRAME[:, 4, :4] = _SUPPORTS


class DecomposeError(ValueError):
    pass


@dataclass(slots=True)
class FeatureSpace:
    """Per-dimension population standardization, recorded so it is invertible."""

    names: tuple[str, ...]
    mean: np.ndarray
    std: np.ndarray

    def transform(self, raw: np.ndarray) -> np.ndarray:
        return (raw - self.mean) / self.std

    def inverse(self, standardized: np.ndarray) -> np.ndarray:
        return standardized * self.std + self.mean


@dataclass(slots=True)
class FeaturePoint:
    tower_id: str
    f: np.ndarray  # standardized


@dataclass(slots=True)
class PolygonModel:
    """Simplex spanned by the four representative towers (one per
    non-comprehensive cluster, in ``vertex_clusters`` order). ``matrix``
    holds the vertices as columns. A model of other than 4 vertices, of
    vertices that are not ``len(space.names)`` finite values, of a space whose
    means are not that many finite values or whose stds are not that many
    positive finite values, or of a simplex whose volume is not above
    ``MIN_SIMPLEX_VOLUME`` raises ``DecomposeError``."""

    vertices: list[FeaturePoint]
    vertex_clusters: list[int]
    space: FeatureSpace
    matrix: np.ndarray = field(init=False, repr=False, compare=False)  # (dims, 4)

    def __post_init__(self):
        dims = len(self.space.names)
        if len(self.vertices) != 4 or any(
            np.shape(v.f) != (dims,) or not np.isfinite(v.f).all() for v in self.vertices
        ):
            raise DecomposeError(f"polygon model needs 4 vertices of {dims} finite values each")
        mean, std = self.space.mean, self.space.std
        if not (
            np.shape(mean) == np.shape(std) == (dims,)
            and np.isfinite(mean).all()
            and (np.isfinite(std) & (std > 0)).all()
        ):
            raise DecomposeError(
                f"polygon model needs {dims} finite means and {dims} positive finite stds,"
                f" not mean {np.asarray(mean).tolist()} and std {np.asarray(std).tolist()}"
            )
        self.matrix = np.stack([v.f for v in self.vertices], axis=1)
        if not simplex_volume(self.matrix.T) > MIN_SIMPLEX_VOLUME:  # NaN where it overflows
            raise DecomposeError("polygon model is degenerate: its vertices span a flat simplex")


@dataclass(slots=True)
class MixtureCoefficients:
    tower_id: str
    x: np.ndarray  # 4 convex weights
    residual: float


def build_feature_points(
    features: Sequence[SpectralFeature],
) -> tuple[list[FeaturePoint], FeatureSpace]:
    if len(features) < 2:
        raise DecomposeError("feature standardization needs at least 2 towers")
    names = DEFAULT_FEATURE_NAMES
    raw = np.array([[getattr(f, n) for n in names] for f in features], dtype=float)
    bad = np.argwhere(~np.isfinite(raw))
    if bad.size:
        i, j = bad[0]
        raise DecomposeError(f"tower {features[i].tower_id}: {names[j]} is {raw[i, j]}, not finite")
    mean = raw.mean(axis=0)
    std = raw.std(axis=0)
    flat = [names[i] for i in range(len(names)) if std[i] == 0.0]
    if flat:
        raise DecomposeError(f"feature dimensions with zero variance: {flat}")
    space = FeatureSpace(names, mean, std)
    points = [
        FeaturePoint(f.tower_id, space.transform(row)) for f, row in zip(features, raw)
    ]
    return points, space


def simplex_volume(vertices: Sequence[np.ndarray]) -> float:
    base = np.asarray(vertices[0], dtype=float)
    edges = np.stack([np.asarray(v, dtype=float) - base for v in vertices[1:]], axis=1)
    if edges.shape[0] != edges.shape[1]:
        # non-square (feature dims != vertices-1): use the Gram determinant
        gram = edges.T @ edges
        det = float(np.linalg.det(gram))
        return float(np.sqrt(max(det, 0.0))) / 6.0
    return abs(float(np.linalg.det(edges))) / 6.0


def select_representatives(
    points: Sequence[FeaturePoint],
    assignments: Mapping[str, int],
    vertex_clusters: Sequence[int],
    space: FeatureSpace,
    density_radius: float = DEFAULT_DENSITY_RADIUS,
    min_density: int = DEFAULT_MIN_DENSITY,
) -> PolygonModel:
    """Pick, per vertex cluster, the non-noise point farthest from every
    other cluster's points.

    A point passes the noise filter when at least ``min_density`` other
    towers lie within ``density_radius`` of it (standardized units). Among
    passing points the winner maximizes the minimum distance to points of
    other clusters; ties prefer the denser point, then the smaller tower id.
    """
    if len(vertex_clusters) != 4:
        raise DecomposeError(f"expected 4 vertex clusters, got {len(vertex_clusters)}")
    labeled = [p for p in points if p.tower_id in assignments]
    coords = np.stack([p.f for p in labeled])
    labels = np.array([assignments[p.tower_id] for p in labeled])
    ids = [p.tower_id for p in labeled]
    rank = dict(zip(sorted(set(ids)), itertools.count()))
    id_rank = np.array([rank[t] for t in ids])
    rows = max(1, DISTANCE_BLOCK // len(labeled))
    vertices: list[FeaturePoint] = []
    for cluster in vertex_clusters:
        member_idx = np.flatnonzero(labels == cluster)
        if member_idx.size == 0:
            raise DecomposeError(f"vertex cluster {cluster} has no towers")
        if member_idx.size == len(labeled):
            raise DecomposeError("representative selection needs other clusters")
        neighbors = np.empty(member_idx.size, dtype=np.int64)
        separation = np.empty(member_idx.size)
        for lo in range(0, member_idx.size, rows):
            d = cdist(coords[member_idx[lo : lo + rows]], coords)
            neighbors[lo : lo + rows] = np.count_nonzero(d <= density_radius, axis=1) - 1
            d[:, member_idx] = np.inf
            separation[lo : lo + rows] = d.min(axis=1)
        dense = np.flatnonzero(neighbors >= min_density)
        if dense.size == 0:
            raise DecomposeError(
                f"no tower in cluster {cluster} has >= {min_density} neighbors within "
                f"{density_radius}; lower min_density or raise density_radius"
            )
        # lexsort's last key is its first: separation, then density, then id.
        order = np.lexsort((id_rank[member_idx[dense]], -neighbors[dense], -separation[dense]))
        vertices.append(labeled[member_idx[dense[order[0]]]])
    return PolygonModel(vertices, list(vertex_clusters), space)


def solve_mixture(
    point: FeaturePoint | np.ndarray, model: PolygonModel
) -> MixtureCoefficients:
    """Global optimum of min ||F - V x||^2 over the probability simplex,
    by enumerating the 2^4 - 1 candidate support sets. Each support of two
    or more vertices is an equality-constrained least-squares problem, and
    all eleven KKT systems are solved in one batched call; a support's
    solution is a candidate unless a weight falls below -1e-10. The first
    candidate of least objective wins, in the order singletons, pairs,
    triples, all four (each in lexicographic order), and its weights are
    clipped at 0 and renormalized. There are no iterations, so interior
    points recover their barycentric weights with zero residual and
    exterior points get the Euclidean projection onto the hull. A point that
    is not one finite value per feature dimension raises ``DecomposeError``.
    """
    if isinstance(point, FeaturePoint):
        tower_id, f = point.tower_id, point.f
    else:
        tower_id, f = "", np.asarray(point, dtype=float)
    v_full = model.matrix
    if f.shape != v_full.shape[:1] or not np.isfinite(f).all():
        raise DecomposeError(
            f"tower {tower_id!r}: point {f.tolist()} is not {v_full.shape[0]} finite values"
        )
    kkt = _KKT_FRAME.copy()
    kkt[:, :4, :4] += (2.0 * (v_full.T @ v_full)) * _KKT_PAIRS
    rhs = np.ones((len(_SUPPORTS), 5, 1))
    rhs[:, :4, 0] = (2.0 * (v_full.T @ f)) * _SUPPORTS
    try:
        solved = np.linalg.solve(kkt, rhs)[:, :4, 0]
    except np.linalg.LinAlgError:
        raise DecomposeError("degenerate vertex subset in mixture solve") from None
    candidates = np.concatenate([np.eye(4), solved])
    resid = candidates @ v_full.T - f
    obj = np.where((candidates < -1e-10).any(axis=1), np.inf, np.sum(resid * resid, axis=1))
    x = np.clip(candidates[np.argmin(obj)], 0.0, None)
    x = x / x.sum()
    residual = float(np.linalg.norm(v_full @ x - f))
    return MixtureCoefficients(tower_id, x, residual)


def write_mixtures(path: str | Path, mixtures: Sequence[MixtureCoefficients]) -> Path:
    rows = (
        [m.tower_id] + m.x.tolist() + [m.residual]
        for m in sorted(mixtures, key=lambda x: x.tower_id)
    )
    return write_csv(path, MIXTURES_HEADER, rows)


def _mixture_row(fields: list[str]) -> MixtureCoefficients:
    vals = [float(v) for v in fields[1:]]
    reject_nan(vals, lambda i: MIXTURES_HEADER[1 + i])
    return MixtureCoefficients(fields[0], np.array(vals[:4]), vals[4])


def read_mixtures(path: str | Path) -> list[MixtureCoefficients]:
    with open(path, encoding="utf-8", newline="") as f:
        return list(read_csv(f, MIXTURES_HEADER, DecomposeError, path, "mixtures", _mixture_row))


def write_vertices(path: str | Path, model: PolygonModel) -> Path:
    payload = {
        "feature_names": list(model.space.names),
        "standardization": {
            "mean": [float(v) for v in model.space.mean],
            "std": [float(v) for v in model.space.std],
        },
        "vertices": [
            {
                "cluster": cluster,
                "tower_id": vertex.tower_id,
                "standardized": [float(v) for v in vertex.f],
                "raw": [float(v) for v in model.space.inverse(vertex.f)],
            }
            for cluster, vertex in zip(model.vertex_clusters, model.vertices)
        ],
    }
    return write_json(path, payload)


def _polygon_from_payload(payload: dict) -> PolygonModel:
    space = FeatureSpace(
        tuple(payload["feature_names"]),
        np.array(payload["standardization"]["mean"], dtype=float),
        np.array(payload["standardization"]["std"], dtype=float),
    )
    vertices = [
        FeaturePoint(v["tower_id"], np.array(v["standardized"], dtype=float))
        for v in payload["vertices"]
    ]
    clusters = [v["cluster"] for v in payload["vertices"]]
    return PolygonModel(vertices, clusters, space)


def read_vertices(path: str | Path) -> PolygonModel:
    return read_json(path, DecomposeError, _polygon_from_payload)
