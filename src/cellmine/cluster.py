"""Pattern discovery: bottom-up average-linkage clustering with a
Davies-Bouldin cut tuner.

The dendrogram is scipy's average linkage: the nearest-neighbour chain
(Muellner 2011) over the condensed n(n-1)/2 Euclidean distance matrix, O(n^2)
in time and memory. It is deterministic for a given input order. Exact
distance ties between distinct clusters are broken as scipy breaks them.

The condensed matrix and the Davies-Bouldin distances come from one Gram
form, ||a - b||^2 = ||a||^2 + ||b||^2 - 2 a.b with BLAS dot products; pairs too
close for it are recomputed as direct differences (see ``REFINE_SHARE``). The
condensed matrix is filled a block of rows at a time, so no n x n matrix is
built.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np
from scipy.cluster.hierarchy import linkage
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .common import read_csv, reject_repeat, write_csv
from .vectorize import TrafficVector

ASSIGNMENTS_HEADER = ["tower_id", "cluster"]
# The Gram d^2 = S - 2 a.b, with S = ||a||^2 + ||b||^2, of rows of width w has
# a rounding error of about w * u * S (u = 2**-53), which relative to d^2 is
# w * u * S / d^2: unbounded as the pair closes in. Every pair with
# d^2 < REFINE_SHARE * S is recomputed as sum((a - b)^2), which cancels
# nothing, so identical rows are exactly 0.0 and every pair kept is within a
# relative w * u / REFINE_SHARE in d^2: 5e-10 at w = 4032 (a 4-week vector),
# half that in d. No distinct pair of the 700-tower benchmark city comes below
# 1e-3 * S (the least is 0.0093 * S), so there this recomputes only duplicates.
REFINE_SHARE = 1e-3
# rows of the condensed distance matrix per BLAS product
HAC_BLOCK_ROWS = 128
# matrix elements per direct-difference pass of the recomputed pairs
REFINE_ELEMENTS = 1 << 20


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
        k = self.n_leaves - r
        # the first k merges as edges: merge i joins its two nodes to node n_leaves + i
        ends = np.array([m[:2] for m in self.merges[:k]], dtype=np.intp).reshape(k, 2).T.ravel()
        joins = np.tile(np.arange(self.n_leaves, self.n_leaves + k), 2)
        graph = coo_matrix((np.ones(2 * k), (ends, joins)), shape=(self.n_leaves + k,) * 2)
        _, component = connected_components(graph, directed=False)
        _, smallest, label = np.unique(component[: self.n_leaves], return_index=True, return_inverse=True)
        return np.argsort(np.argsort(smallest))[label] + 1


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


def _leaf_matrix(dendrogram: Dendrogram, vectors: Sequence[TrafficVector]) -> np.ndarray:
    """``_check_vectors`` of vectors whose ids are the dendrogram's leaves, in order."""
    ids, leaves = [v.tower_id for v in vectors], dendrogram.leaf_ids
    if ids != leaves:
        i = next((i for i, (a, b) in enumerate(zip(ids, leaves)) if a != b), min(len(ids), len(leaves)))
        raise ClusterError(f"{len(ids)} vectors for {len(leaves)} leaves differ first at position {i}: "
                           f"tower {ids[i:i + 1]} for leaf {leaves[i:i + 1]}")
    return _check_vectors(vectors)


def _sq_norms(matrix: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", matrix, matrix)


def _sq_distances(
    a: np.ndarray, a_sq: np.ndarray, b: np.ndarray, b_sq: np.ndarray
) -> np.ndarray:
    """Squared Euclidean distances from every row of ``a`` to every row of
    ``b``, given their squared norms. Pairs too close for the Gram form are
    recomputed directly (see ``REFINE_SHARE``)."""
    scale = a_sq[:, None] + b_sq
    d2 = scale - 2.0 * (a @ b.T)
    rows, cols = np.nonzero(d2 < REFINE_SHARE * scale)
    step = max(1, REFINE_ELEMENTS // a.shape[1])
    for s in range(0, rows.size, step):
        i, j = rows[s : s + step], cols[s : s + step]
        diff = a[i] - b[j]
        d2[i, j] = np.einsum("ij,ij->i", diff, diff)
    return d2


def _condensed_distances(matrix: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows, in ``pdist``'s condensed order."""
    n = matrix.shape[0]
    sq_norms = _sq_norms(matrix)
    condensed = np.empty(n * (n - 1) // 2)
    filled = 0
    for s in range(0, n - 1, HAC_BLOCK_ROWS):
        e = min(s + HAC_BLOCK_ROWS, n - 1)
        # row i of the block against rows s+1.., of which it keeps those past i
        d2 = _sq_distances(matrix[s:e], sq_norms[s:e], matrix[s + 1 :], sq_norms[s + 1 :])
        upper = d2[np.arange(e - s)[:, None] <= np.arange(n - s - 1)]
        np.sqrt(upper, out=condensed[filled : filled + upper.size])
        filled += upper.size
    return condensed


def hac_average_linkage(vectors: Sequence[TrafficVector]) -> Dendrogram:
    """Exact average-linkage agglomeration under Euclidean distance.

    Identical vectors merge at height 0. Under exact distance ties between
    distinct clusters the tree follows scipy's tie order, so a permuted input
    can give a different tree; sorting the input, say by tower id, makes the
    result independent of the caller's order.
    """
    matrix = _check_vectors(vectors)
    merges = [
        Merge(int(min(a, b)), int(max(a, b)), float(height), int(size))
        for a, b, height, size in linkage(_condensed_distances(matrix), method="average")
    ]
    return Dendrogram(matrix.shape[0], merges, [v.tower_id for v in vectors])


def _dbi(matrix: np.ndarray, sq_norms: np.ndarray, labels: np.ndarray) -> float:
    """DBI of the rows of ``matrix``, whose squared norms are ``sq_norms``:
    the mean over clusters of the worst (S_i + S_j) / M_ij ratio, where S is
    the mean member-to-centroid distance and M the centroid distance."""
    cluster_ids, member_of, sizes = np.unique(
        labels, return_inverse=True, return_counts=True
    )
    r = cluster_ids.size
    if r < 2:
        raise ClusterError(f"Davies-Bouldin index needs >= 2 clusters, got {r}")
    one_hot = member_of == np.arange(r)[:, None]
    centroids = (one_hot @ matrix) / sizes[:, None]
    c_sq = _sq_norms(centroids)
    own = _sq_distances(matrix, sq_norms, centroids, c_sq)[np.arange(member_of.size), member_of]
    scatter = np.bincount(member_of, np.sqrt(own)) / sizes
    separation = np.sqrt(_sq_distances(centroids, c_sq, centroids, c_sq))
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
    matrix = _leaf_matrix(dendrogram, vectors)
    sq_norms = _sq_norms(matrix)
    r_hi = min(r_max, dendrogram.n_leaves)
    if r_min < 2 or r_min > r_hi:
        raise ClusterError(f"invalid cluster range [{r_min}, {r_max}]")
    trace: list[DbiTracePoint] = []
    for r in range(r_min, r_hi + 1):
        labels = dendrogram.cut(r)
        height = dendrogram.merges[dendrogram.n_leaves - r].height
        trace.append(DbiTracePoint(r, height, _dbi(matrix, sq_norms, labels)))
    best = min(trace, key=lambda p: (p.dbi, p.r))
    labels = dendrogram.cut(best.r)
    centroids = np.stack([matrix[labels == c].mean(axis=0) for c in range(1, best.r + 1)])
    sizes = [int(np.sum(labels == c)) for c in range(1, best.r + 1)]
    assignments = {tower_id: int(lbl) for tower_id, lbl in zip(dendrogram.leaf_ids, labels)}
    return ClusterModel(assignments, centroids, sizes, best.cut_height, best.dbi, best.r), trace


@dataclass(slots=True)
class DistanceCdf:
    """Per-cluster empirical distribution of member-to-centroid distance."""

    distances: dict[int, np.ndarray]


def distance_cdf(model: ClusterModel, vectors: Sequence[TrafficVector]) -> DistanceCdf:
    matrix = _check_vectors(vectors)
    try:
        labels = np.array([model.assignments[v.tower_id] for v in vectors])
    except KeyError as exc:
        raise ClusterError(f"tower {exc.args[0]!r} is not in the model") from None
    return DistanceCdf({
        c: np.sort(np.linalg.norm(matrix[labels == c] - model.centroids[c - 1], axis=1))
        for c in range(1, model.r + 1)
    })


def write_assignments(path: str | Path, model: ClusterModel) -> Path:
    return write_csv(path, ASSIGNMENTS_HEADER, sorted(model.assignments.items()))


def read_assignments(path: str | Path) -> dict[str, int]:
    seen: set[str] = set()

    def assignment(fields: list[str]) -> tuple[str, int]:
        reject_repeat(seen, fields[0])
        cluster = int(fields[1])
        if cluster < 1:
            raise ValueError(f"cluster {cluster} is below 1")
        return fields[0], cluster

    with open(path, encoding="utf-8", newline="") as f:
        return dict(read_csv(f, ASSIGNMENTS_HEADER, ClusterError, path, "assignments", assignment))


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
