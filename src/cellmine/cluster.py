"""Pattern discovery: bottom-up average-linkage clustering with a
Davies-Bouldin cut tuner.

The dendrogram is scipy's average linkage: the nearest-neighbour chain
(Muellner 2011) over the condensed n(n-1)/2 Euclidean distance matrix, O(n^2)
in time and memory. It is deterministic for a given input order, and
``fit_vectors`` fixes that order by tower id. Exact distance ties between
distinct clusters are broken as scipy breaks them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np
from scipy.cluster.hierarchy import linkage
from scipy.spatial.distance import pdist, squareform

from .common import read_csv, write_csv
from .vectorize import TrafficVector

ASSIGNMENTS_HEADER = ["tower_id", "cluster"]


class ClusterError(ValueError):
    pass


class Merge(NamedTuple):
    node_a: int
    node_b: int
    height: float
    size: int


@dataclass(slots=True)
class Dendrogram:
    """Merge history over ``n_leaves`` inputs.

    Leaves are numbered 0..n-1 in input order; merge i creates node
    n_leaves + i. Heights are non-decreasing (average linkage is monotone).
    """

    n_leaves: int
    merges: list[Merge]
    leaf_ids: list[str]

    def cut(self, r: int) -> np.ndarray:
        """Labels 1..r after performing the first n-r merges. Clusters are
        numbered by their smallest leaf index."""
        if not 1 <= r <= self.n_leaves:
            raise ClusterError(f"cannot cut {self.n_leaves} leaves into {r} clusters")
        parent = list(range(self.n_leaves + len(self.merges)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for idx in range(self.n_leaves - r):
            m = self.merges[idx]
            node = self.n_leaves + idx
            parent[find(m.node_a)] = node
            parent[find(m.node_b)] = node
        roots: dict[int, int] = {}
        labels = np.zeros(self.n_leaves, dtype=int)
        for leaf in range(self.n_leaves):
            root = find(leaf)
            if root not in roots:
                roots[root] = len(roots) + 1
            labels[leaf] = roots[root]
        return labels


@dataclass(slots=True)
class ClusterModel:
    """Result of cutting the dendrogram: assignments, centroids and the DBI
    achieved at the chosen cut."""

    assignments: dict[str, int]
    centroids: np.ndarray  # (r, n) rows indexed by cluster-1
    sizes: list[int]
    cut_threshold: float
    dbi: float
    r: int


class DbiTracePoint(NamedTuple):
    r: int
    cut_height: float
    dbi: float


def _check_vectors(vectors: Sequence[TrafficVector]) -> np.ndarray:
    if len(vectors) < 2:
        raise ClusterError(f"clustering needs at least 2 vectors, got {len(vectors)}")
    bad = [v.tower_id for v in vectors if v.degenerate]
    if bad:
        raise ClusterError(
            f"degenerate vectors must be excluded before clustering: {bad[:5]}"
        )
    n = vectors[0].n
    if any(v.n != n for v in vectors):
        raise ClusterError("vectors have mixed lengths")
    matrix = np.stack([v.values for v in vectors])
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise ClusterError(
            f"tower {vectors[int(np.argmin(finite))].tower_id}: vector holds non-finite values"
        )
    return matrix


def hac_average_linkage(vectors: Sequence[TrafficVector]) -> Dendrogram:
    """Exact average-linkage agglomeration under Euclidean distance.

    Identical vectors merge at height 0. Under exact distance ties between
    distinct clusters the tree follows scipy's tie order, so a permuted input
    can give a different tree; sorting the input, as ``fit_vectors`` does,
    makes the result independent of the caller's order.
    """
    matrix = _check_vectors(vectors)
    merges = [
        Merge(int(min(a, b)), int(max(a, b)), float(height), int(size))
        for a, b, height, size in linkage(pdist(matrix), method="average")
    ]
    return Dendrogram(matrix.shape[0], merges, [v.tower_id for v in vectors])


def davies_bouldin_from_labels(matrix: np.ndarray, labels: np.ndarray) -> float:
    """DBI: mean over clusters of the worst (S_i + S_j) / M_ij ratio, where
    S is the mean member-to-centroid distance and M the centroid distance."""
    cluster_ids = np.unique(labels)
    r = cluster_ids.size
    if r < 2:
        raise ClusterError(f"Davies-Bouldin index needs >= 2 clusters, got {r}")
    centroids = np.stack([matrix[labels == c].mean(axis=0) for c in cluster_ids])
    scatter = np.array(
        [
            np.linalg.norm(matrix[labels == c] - centroids[idx], axis=1).mean()
            for idx, c in enumerate(cluster_ids)
        ]
    )
    separation = squareform(pdist(centroids))
    np.fill_diagonal(separation, np.inf)
    coincident = np.argwhere(separation == 0.0)
    if coincident.size:
        i, j = coincident[0]
        raise ClusterError(
            f"coincident centroids for clusters {cluster_ids[i]} and "
            f"{cluster_ids[j]}: separation is zero"
        )
    ratios = (scatter[:, None] + scatter[None, :]) / separation
    return float(ratios.max(axis=1).mean())


def build_model(
    dendrogram: Dendrogram, vectors: Sequence[TrafficVector], r: int, cut_threshold: float
) -> ClusterModel:
    matrix = _check_vectors(vectors)
    labels = dendrogram.cut(r)
    centroids = np.stack([matrix[labels == c].mean(axis=0) for c in range(1, r + 1)])
    sizes = [int(np.sum(labels == c)) for c in range(1, r + 1)]
    dbi = davies_bouldin_from_labels(matrix, labels)
    assignments = {tower_id: int(lbl) for tower_id, lbl in zip(dendrogram.leaf_ids, labels)}
    return ClusterModel(assignments, centroids, sizes, cut_threshold, dbi, r)


def tune_cut(
    dendrogram: Dendrogram,
    vectors: Sequence[TrafficVector],
    r_min: int = 2,
    r_max: int = 15,
) -> tuple[ClusterModel, list[DbiTracePoint]]:
    """Evaluate the DBI at every cut producing r_min..r_max clusters and keep
    the minimizer (ties go to the smaller R). The cut threshold reported for
    R clusters is the height of the first merge NOT performed."""
    if dendrogram.n_leaves < 3:
        raise ClusterError("cut tuning needs a dendrogram over >= 3 leaves")
    matrix = _check_vectors(vectors)
    r_hi = min(r_max, dendrogram.n_leaves)
    if r_min < 2 or r_min > r_hi:
        raise ClusterError(f"invalid cluster range [{r_min}, {r_max}]")
    trace: list[DbiTracePoint] = []
    for r in range(r_min, r_hi + 1):
        labels = dendrogram.cut(r)
        height = dendrogram.merges[dendrogram.n_leaves - r].height
        trace.append(DbiTracePoint(r, height, davies_bouldin_from_labels(matrix, labels)))
    best = min(trace, key=lambda p: (p.dbi, p.r))
    model = build_model(dendrogram, vectors, best.r, best.cut_height)
    return model, trace


@dataclass(slots=True)
class DistanceCdf:
    """Per-cluster empirical distribution of member-to-centroid distance."""

    distances: dict[int, np.ndarray] = field(default_factory=dict)

    def quantile(self, cluster: int, q: float) -> float:
        d = self.distances[cluster]
        if not 0.0 <= q <= 1.0:
            raise ClusterError(f"quantile out of range: {q}")
        # inverted CDF: smallest value whose empirical CDF reaches q
        idx = max(0, int(np.ceil(q * d.size)) - 1)
        return float(d[idx])


def distance_cdf(model: ClusterModel, vectors: Sequence[TrafficVector]) -> DistanceCdf:
    matrix = _check_vectors(vectors)
    labels = np.array([model.assignments[v.tower_id] for v in vectors])
    cdf = DistanceCdf()
    for c in range(1, model.r + 1):
        members = matrix[labels == c]
        d = np.linalg.norm(members - model.centroids[c - 1], axis=1)
        cdf.distances[c] = np.sort(d)
    return cdf


def cluster_shares(model: ClusterModel) -> dict[int, float]:
    total = sum(model.sizes)
    return {c + 1: 100.0 * size / total for c, size in enumerate(model.sizes)}


def fit_vectors(
    vectors: Sequence[TrafficVector], r_min: int = 2, r_max: int = 15
) -> tuple[ClusterModel, list[DbiTracePoint], list[str]]:
    """Cluster non-degenerate vectors (sorted by tower id for determinism);
    returns the tuned model, the DBI trace, and excluded tower ids."""
    excluded = sorted(v.tower_id for v in vectors if v.degenerate)
    usable = sorted((v for v in vectors if not v.degenerate), key=lambda v: v.tower_id)
    dendrogram = hac_average_linkage(usable)
    model, trace = tune_cut(dendrogram, usable, r_min, r_max)
    return model, trace, excluded


def write_assignments(path: str | Path, model: ClusterModel) -> Path:
    return write_csv(path, ASSIGNMENTS_HEADER, sorted(model.assignments.items()))


def read_assignments(path: str | Path) -> dict[str, int]:
    with open(path, encoding="utf-8", newline="") as f:
        return dict(read_csv(f, ASSIGNMENTS_HEADER, ClusterError, path, "assignments",
                             lambda fields: (fields[0], int(fields[1]))))


def write_centroids(path: str | Path, model: ClusterModel) -> Path:
    header = ["cluster", "size"] + [f"v{i}" for i in range(model.centroids.shape[1])]
    rows = ([c + 1, model.sizes[c]] + model.centroids[c].tolist() for c in range(model.r))
    return write_csv(path, header, rows)


def write_dbi_trace(path: str | Path, trace: Sequence[DbiTracePoint]) -> Path:
    return write_csv(path, ["R", "cut_height", "dbi"], trace)


def write_distance_cdf(path: str | Path, cdf: DistanceCdf) -> Path:
    rows = (
        (cluster, rank, d)
        for cluster in sorted(cdf.distances)
        for rank, d in enumerate(cdf.distances[cluster].tolist(), start=1)
    )
    return write_csv(path, ["cluster", "rank", "distance"], rows)
