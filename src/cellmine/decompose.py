"""Convex mixture decomposition in frequency-feature space.

Each tower is summarized by a standardized feature vector (by default
day-bin amplitude, day-bin phase, half-day amplitude). The four most
representative towers of the non-comprehensive clusters span a simplex, and
any tower's feature point is expressed as the convex combination of those
vertices that best approximates it: an exact 4-variable simplex-constrained
least-squares solve. Points inside the hull get their barycentric weights
with zero residual; points outside project onto the hull.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .common import read_csv, read_json, write_csv, write_json
from .spectrum import SpectralFeature, Spectrum, dft, reconstruct

DEFAULT_FEATURE_NAMES = ("amp_day", "phase_day", "amp_half_day")
DEFAULT_DENSITY_RADIUS = 0.5
DEFAULT_MIN_DENSITY = 5

# a simplex flatter than this in standardized units is treated as degenerate
MIN_SIMPLEX_VOLUME = 1e-9

MIXTURES_HEADER = ["tower_id", "x1", "x2", "x3", "x4", "residual"]


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
    non-comprehensive cluster, in ``vertex_clusters`` order)."""

    vertices: list[FeaturePoint]
    vertex_clusters: list[int]
    space: FeatureSpace

    @property
    def matrix(self) -> np.ndarray:
        return np.stack([v.f for v in self.vertices], axis=1)  # (dims, 4)


@dataclass(slots=True)
class MixtureCoefficients:
    tower_id: str
    x: np.ndarray  # 4 convex weights
    residual: float


def build_feature_points(
    features: Sequence[SpectralFeature],
    names: tuple[str, ...] = DEFAULT_FEATURE_NAMES,
) -> tuple[list[FeaturePoint], FeatureSpace]:
    if len(features) < 2:
        raise DecomposeError("feature standardization needs at least 2 towers")
    raw = np.array([[getattr(f, n) for n in names] for f in features], dtype=float)
    mean = raw.mean(axis=0)
    std = raw.std(axis=0)
    flat = [names[i] for i in range(len(names)) if std[i] == 0.0]
    if flat:
        raise DecomposeError(f"feature dimensions with zero variance: {flat}")
    space = FeatureSpace(tuple(names), mean, std)
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
    vertices: list[FeaturePoint] = []
    for cluster in vertex_clusters:
        member_idx = np.where(labels == cluster)[0]
        if member_idx.size == 0:
            raise DecomposeError(f"vertex cluster {cluster} has no towers")
        other_idx = np.where(labels != cluster)[0]
        if other_idx.size == 0:
            raise DecomposeError("representative selection needs other clusters")
        best = None
        for idx in member_idx:
            d_all = np.linalg.norm(coords - coords[idx], axis=1)
            neighbors = int(np.sum(d_all <= density_radius)) - 1  # exclude self
            if neighbors < min_density:
                continue
            separation = float(np.min(d_all[other_idx]))
            key = (-separation, -neighbors, labeled[idx].tower_id)
            if best is None or key < best[0]:
                best = (key, idx)
        if best is None:
            raise DecomposeError(
                f"no tower in cluster {cluster} has >= {min_density} neighbors within "
                f"{density_radius}; lower --min-density or raise --density-radius"
            )
        vertices.append(labeled[best[1]])
    model = PolygonModel(vertices, list(vertex_clusters), space)
    if simplex_volume([v.f for v in model.vertices]) <= MIN_SIMPLEX_VOLUME:
        raise DecomposeError("representative towers are affinely dependent (flat simplex)")
    return model


def _equality_constrained_ls(v_sub: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Minimize ||V x - f||^2 subject to sum(x) = 1 via the KKT system."""
    k = v_sub.shape[1]
    if k == 1:
        return np.ones(1)
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = 2.0 * (v_sub.T @ v_sub)
    kkt[:k, k] = 1.0
    kkt[k, :k] = 1.0
    rhs = np.concatenate([2.0 * (v_sub.T @ f), [1.0]])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        raise DecomposeError("degenerate vertex subset in mixture solve") from None
    return sol[:k]


def solve_mixture(
    point: FeaturePoint | np.ndarray, model: PolygonModel
) -> MixtureCoefficients:
    """Global optimum of min ||F - V x||^2 over the probability simplex,
    by enumerating the 2^4 - 1 candidate support sets; each subproblem is a
    tiny equality-constrained solve, so the result is exact (no iterations,
    no tolerances). Interior points recover their barycentric weights with
    zero residual; exterior points get the Euclidean projection onto the hull.
    """
    if isinstance(point, FeaturePoint):
        tower_id, f = point.tower_id, point.f
    else:
        tower_id, f = "", np.asarray(point, dtype=float)
    v_full = model.matrix
    if simplex_volume([v.f for v in model.vertices]) <= MIN_SIMPLEX_VOLUME:
        raise DecomposeError("polygon model is degenerate (affinely dependent vertices)")
    best_x = None
    best_obj = np.inf
    for size in range(1, 5):
        for support in itertools.combinations(range(4), size):
            x_sub = _equality_constrained_ls(v_full[:, support], f)
            if np.any(x_sub < -1e-10):
                continue
            x = np.zeros(4)
            x[list(support)] = x_sub
            obj = float(np.sum((v_full @ x - f) ** 2))
            if obj < best_obj or best_x is None:
                best_obj = obj
                best_x = x
    x = np.clip(best_x, 0.0, None)
    x = x / x.sum()
    residual = float(np.linalg.norm(v_full @ x - f))
    return MixtureCoefficients(tower_id, x, residual)


def render_components(
    coefficients: MixtureCoefficients,
    vertex_vectors: Sequence[np.ndarray],
    tower_scale: float,
    indices: tuple[int, int, int] | None = None,
) -> np.ndarray:
    """Time-domain mixture components: each vertex's normalized canonical
    pattern (its 7-bin reconstruction), weighted by its coefficient and
    rescaled by the target tower's raw standard deviation so the stack lives
    in the tower's units. Returns a (4, N) array."""
    if len(vertex_vectors) != 4:
        raise DecomposeError(f"expected 4 vertex vectors, got {len(vertex_vectors)}")
    comps = []
    for weight, vec in zip(coefficients.x, vertex_vectors):
        pattern = reconstruct(dft(np.asarray(vec, dtype=float)), indices)
        comps.append(weight * tower_scale * pattern)
    return np.stack(comps)


def write_mixtures(path: str | Path, mixtures: Sequence[MixtureCoefficients]) -> Path:
    rows = (
        [m.tower_id] + m.x.tolist() + [m.residual]
        for m in sorted(mixtures, key=lambda x: x.tower_id)
    )
    return write_csv(path, MIXTURES_HEADER, rows)


def _mixture_row(fields: list[str]) -> MixtureCoefficients:
    vals = [float(v) for v in fields[1:]]
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
