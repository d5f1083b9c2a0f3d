"""Convex mixture decomposition in frequency-feature space.

Each tower is summarized by a standardized feature vector (day-bin
amplitude, day-bin phase, half-day amplitude). The four most
representative towers of the non-comprehensive clusters span a simplex: in
each cluster, the tower of a dense neighbourhood farthest from every other
cluster, found with KD-trees. Any tower's feature point is expressed as the
convex combination of those vertices that best approximates it: an exact
4-variable simplex-constrained least-squares solve. Points inside the hull
get their barycentric weights with zero residual; points outside project
onto the hull.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
from scipy.spatial import KDTree

from .common import (
    read_json,
    read_table,
    reject_bad,
    sorted_by_tower,
    unit_scaled,
    write_csv,
    write_json,
)
from .spectrum import SpectralFeature

FEATURE_NAMES = ("amp_day", "phase_day", "amp_half_day")
# select_representatives' noise filter, in standardized units
DENSITY_RADIUS = 0.5
MIN_DENSITY = 5

# a simplex is flat when its edges, scaled by one power of two to a largest
# |coordinate| in [0.5, 1), span no more volume than this: a test of its shape
# that neither its size nor its place changes
MIN_SIMPLEX_VOLUME = 1e-9

MIXTURES_HEADER = ["tower_id", "x1", "x2", "x3", "x4", "residual"]

# The supports of two or more of the four vertices, in solve_mixture's
# enumeration order, as (11, 4) 0/1 masks. For a support S the KKT system of
# min ||V x - f||^2 subject to sum(x) = 1 and x_i = 0 off S is
#   [2 V'V on S x S, 1 on S] [x     ]   [2 V'f on S]
#   [1 on S,         0     ] [lambda] = [1         ]
# with the row and column of each i off S reduced to x_i = 0. _KKT_FRAME holds
# the parts that do not depend on V: the border and the 1 that pins x_i;
# PolygonModel adds its 2 V'V to them once.
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
    """Per-dimension population standardization, recorded so it is invertible;
    ``build_feature_points`` finds it on columns scaled by ``common.unit_scaled``.

    A valid space has one finite mean and one positive, finite std per name;
    any other raises ``DecomposeError``, naming the first bad dimension."""

    names: tuple[str, ...]
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean, std, dims = self.mean, self.std, len(self.names)
        if not np.shape(mean) == np.shape(std) == (dims,):
            raise DecomposeError(
                f"feature space of {dims} names needs {dims} means and {dims} stds,"
                f" not mean {np.asarray(mean).tolist()} and std {np.asarray(std).tolist()}"
            )
        bad = ~(np.isfinite(mean) & np.isfinite(std) & (std > 0))
        if bad.any():
            j = int(bad.argmax())
            raise DecomposeError(
                f"feature {self.names[j]}: mean {mean[j]} and std {std[j]} are not"
                " a finite mean and a positive finite std"
            )

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
    holds the vertices as columns, and ``kkt`` the KKT matrices of
    ``solve_mixture``'s eleven supports. ``space`` checks itself (see
    ``FeatureSpace``). A model of other than 4 vertices, of vertices that are
    not ``len(space.names)`` finite values, of vertices so large that their
    Gram matrix overflows, or of a flat simplex (see ``MIN_SIMPLEX_VOLUME``)
    raises ``DecomposeError``."""

    vertices: list[FeaturePoint]
    vertex_clusters: list[int]
    space: FeatureSpace
    matrix: np.ndarray = field(init=False, repr=False, compare=False)  # (dims, 4)
    kkt: np.ndarray = field(init=False, repr=False, compare=False)  # (11, 5, 5)

    def __post_init__(self):
        dims = len(self.space.names)
        if len(self.vertices) != 4 or any(
            np.shape(v.f) != (dims,) or not np.isfinite(v.f).all() for v in self.vertices
        ):
            raise DecomposeError(f"polygon model needs 4 vertices of {dims} finite values each")
        self.matrix = np.stack([v.f for v in self.vertices], axis=1)
        with np.errstate(all="ignore"):
            gram = 2.0 * (self.matrix.T @ self.matrix)  # doubled, as the KKT systems hold it
        if not np.isfinite(gram).all():
            raise DecomposeError(
                "polygon model's vertices are too large: their Gram matrix overflows"
            )
        self.kkt = _KKT_FRAME.copy()
        self.kkt[:, :4, :4] += gram * _KKT_PAIRS
        edges = self.matrix.T - self.matrix.T[0]  # the simplex moved to the origin
        scaled = unit_scaled(edges.ravel())[0].reshape(edges.shape)
        if not simplex_volume(scaled) > MIN_SIMPLEX_VOLUME:
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
    names = FEATURE_NAMES
    raw = np.array([[getattr(f, n) for n in names] for f in features], dtype=float)
    reject_bad(raw, np.isfinite(raw), DecomposeError,
               lambda i, j: f"tower {features[i].tower_id}: {names[j]}", "finite")
    scaled, e = unit_scaled(raw)
    # A column of one value is flat even when its mean rounds, which leaves
    # its std a little above 0; a flat dimension fails FeatureSpace's check
    # before it is divided by.
    mean = scaled.mean(axis=0)
    std = np.where(np.ptp(scaled, axis=0) > 0.0, scaled.std(axis=0), 0.0)
    space = FeatureSpace(names, np.ldexp(mean, e), np.ldexp(std, e))
    points = [FeaturePoint(f.tower_id, row) for f, row in zip(features, (scaled - mean) / std)]
    return points, space


def simplex_volume(vertices: Sequence[np.ndarray]) -> float:
    """Volume of the 3-simplex on four vertices: the product of the singular
    values of its edge matrix over 6, in any number of dimensions. Vertices of
    fewer than 3 coordinates span no volume."""
    base = np.asarray(vertices[0], dtype=float)
    edges = np.stack([np.asarray(v, dtype=float) - base for v in vertices[1:]], axis=1)
    singular = np.linalg.svd(edges, compute_uv=False)
    return float(np.prod(singular)) / 6.0 if singular.size == len(vertices) - 1 else 0.0


def select_representatives(
    points: Sequence[FeaturePoint],
    assignments: Mapping[str, int],
    vertex_clusters: Sequence[int],
    space: FeatureSpace,
) -> PolygonModel:
    """Pick, per vertex cluster, the non-noise point farthest from every
    other cluster's points.

    A point passes the noise filter when at least ``MIN_DENSITY`` other
    towers lie within ``DENSITY_RADIUS`` of it (standardized units). Among
    passing points the winner maximizes the minimum distance to points of
    other clusters; ties prefer the denser point, then the smaller tower id.
    A vertex cluster with no passing point raises ``DecomposeError``.

    Both searches run on ``scipy.spatial.KDTree``: the neighbour counts on
    one tree over every labelled point, each separation on a tree over the
    other clusters' points. The tree tests a neighbour by its squared
    distance against ``DENSITY_RADIUS**2``, so it can differ from a test of
    the distance itself only for a point within an ulp of the radius. On a
    half-unit grid every squared distance is exact, and the two agree.
    """
    if len(vertex_clusters) != 4:
        raise DecomposeError(f"expected 4 vertex clusters, got {len(vertex_clusters)}")
    labeled = [p for p in points if p.tower_id in assignments]
    coords = np.stack([p.f for p in labeled])
    labels = np.array([assignments[p.tower_id] for p in labeled])
    # an object array: a str array would drop an id's trailing NULs
    id_rank = np.unique(np.array([p.tower_id for p in labeled], dtype=object), return_inverse=True)[1]
    # every point lies within the radius of itself
    density = KDTree(coords).query_ball_point(coords, DENSITY_RADIUS, return_length=True) - 1
    vertices: list[FeaturePoint] = []
    for cluster in vertex_clusters:
        member_idx = np.flatnonzero(labels == cluster)
        if member_idx.size == 0:
            raise DecomposeError(f"vertex cluster {cluster} has no towers")
        if member_idx.size == len(labeled):
            raise DecomposeError("representative selection needs other clusters")
        neighbors = density[member_idx]
        separation = KDTree(coords[labels != cluster]).query(coords[member_idx])[0]
        dense = np.flatnonzero(neighbors >= MIN_DENSITY)
        if dense.size == 0:
            raise DecomposeError(
                f"no tower in cluster {cluster} has >= {MIN_DENSITY} neighbors within "
                f"{DENSITY_RADIUS}"
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
    is not one finite value per feature dimension, or one so far out that
    the winning squared distance is not finite, raises ``DecomposeError``.
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
    rhs = np.ones((len(_SUPPORTS), 5, 1))
    # A point far enough out overflows here; its objectives come out inf or
    # NaN, and the check on the winner below turns that into an error.
    with np.errstate(all="ignore"):
        rhs[:, :4, 0] = (2.0 * (v_full.T @ f)) * _SUPPORTS
        try:
            solved = np.linalg.solve(model.kkt, rhs)[:, :4, 0]
        except np.linalg.LinAlgError:
            raise DecomposeError("degenerate vertex subset in mixture solve") from None
        candidates = np.concatenate([np.eye(4), solved])
        resid = candidates @ v_full.T - f
        obj = np.where((candidates < -1e-10).any(axis=1), np.inf, np.sum(resid * resid, axis=1))
    best = int(np.argmin(obj))
    if not np.isfinite(obj[best]):
        raise DecomposeError(
            f"tower {tower_id!r}: point {f.tolist()} is too far out for its squared"
            " distance to the simplex to be finite"
        )
    x = np.clip(candidates[best], 0.0, None)
    x = x / x.sum()
    residual = float(np.linalg.norm(v_full @ x - f))
    return MixtureCoefficients(tower_id, x, residual)


def write_mixtures(path: str | Path, mixtures: Sequence[MixtureCoefficients]) -> Path:
    rows = (
        [m.tower_id] + m.x.tolist() + [m.residual]
        for m in sorted_by_tower(mixtures, DecomposeError)
    )
    return write_csv(path, MIXTURES_HEADER, rows, DecomposeError)


def read_mixtures(path: str | Path) -> list[MixtureCoefficients]:
    def mixture(fields: list[str]) -> MixtureCoefficients:
        vals = [float(v) for v in fields[1:]]
        reject_bad(vals, ~np.isnan(vals), ValueError, lambda i: MIXTURES_HEADER[1 + i], "a number")
        return MixtureCoefficients(fields[0], np.array(vals[:4]), vals[4])

    return read_table(path, MIXTURES_HEADER, DecomposeError, "mixtures", mixture)


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
    return write_json(path, payload, DecomposeError)


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
