"""Pattern discovery: bottom-up average-linkage clustering with a
Davies-Bouldin cut tuner.

The dendrogram is scipy's average linkage: the nearest-neighbour chain
(Muellner 2011) over the condensed n(n-1)/2 Euclidean distance matrix, O(n^2)
in time and memory. It is deterministic for a given input order. Exact
distance ties between distinct clusters are broken as scipy breaks them.

The condensed matrix and the Davies-Bouldin distances come from one Gram
form, ||a - b||^2 = ||a||^2 + ||b||^2 - 2 a.b with BLAS dot products; pairs too
close for it are recomputed as direct differences (see ``REFINE_SHARE``). The
condensed matrix is filled a block of ``HAC_BLOCK_ROWS`` rows at a time, so no
n x n matrix is built. The blocks run on one thread per CPU the process may use
(``os.sched_getaffinity``), the calling thread included, and never more threads
than blocks. Each block in flight holds about three 128 x n float64 arrays (32
MB at n = 10,000). A block's arithmetic does not depend on the thread that runs
it, so the matrix, and the dendrogram, are the same for any number of threads.

The cuts that ``tune_cut`` scores nest, so their DBIs come from one pass: the
finest cut's cluster sums and one product with the matrix give every cut's
centroids and member-centroid products (``_dbis``). That product sums fine
terms that may cancel, so its refine scale is ||x||^2 + m_c^2, with m_c the
mean norm of the fine centroids in the member's cluster, not ||x||^2 + ||c||^2.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np
from scipy.cluster.hierarchy import linkage

from .common import read_table, sorted_by_tower, write_csv
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
        # merge i, node n_leaves + i, is the parent of its two nodes; a node is at most k merges
        # below its root, so k.bit_length() doublings of the pointers reach it
        children = np.array([m[:2] for m in self.merges[:k]], dtype=np.intp).reshape(k, 2)
        root = np.arange(self.n_leaves + k)
        root[children] = np.arange(self.n_leaves, self.n_leaves + k)[:, None]
        for _ in range(k.bit_length()):
            root = root[root]
        _, smallest, label = np.unique(root[: self.n_leaves], return_index=True, return_inverse=True)
        return np.argsort(np.argsort(smallest))[label] + 1


@dataclass(slots=True)
class ClusterModel:
    """Result of cutting the dendrogram into ``r`` clusters: each tower's
    cluster (1..r), and each cluster's centroid and size. The chosen cut's
    height and DBI are its point in the trace that ``tune_cut`` returns."""

    assignments: dict[str, int]
    centroids: np.ndarray  # (r, n) rows indexed by cluster-1
    sizes: list[int]
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
    sorted_by_tower(vectors, ClusterError)
    n = vectors[0].n
    if any(v.n != n for v in vectors):
        raise ClusterError("vectors have mixed lengths")
    # finite: every TrafficVector checks its own values
    return np.stack([v.values for v in vectors])


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


def _direct_sq(a: np.ndarray, b: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``sum((a[rows] - b[cols]) ** 2)`` per pair, as direct differences,
    ``REFINE_ELEMENTS`` matrix elements at a time."""
    out = np.empty(rows.size)
    step = max(1, REFINE_ELEMENTS // a.shape[1])
    for s in range(0, rows.size, step):
        diff = a[rows[s : s + step]] - b[cols[s : s + step]]
        out[s : s + step] = np.einsum("ij,ij->i", diff, diff)
    return out


def _sq_distances(
    a: np.ndarray, a_sq: np.ndarray, b: np.ndarray, b_sq: np.ndarray
) -> np.ndarray:
    """Squared Euclidean distances from every row of ``a`` to every row of
    ``b``, given their squared norms. Pairs too close for the Gram form are
    recomputed directly (see ``REFINE_SHARE``)."""
    scale = a_sq[:, None] + b_sq
    d2 = scale - 2.0 * (a @ b.T)
    rows, cols = np.nonzero(d2 < REFINE_SHARE * scale)
    d2[rows, cols] = _direct_sq(a, b, rows, cols)
    return d2


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _condensed_distances(matrix: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows, in ``pdist``'s condensed order.

    The row blocks are dealt round-robin to one lane per usable CPU, at most
    one per block; the calling thread runs the first lane and a thread pool
    the rest. numpy releases the GIL in the product and the elementwise
    passes, so the lanes overlap. Each block writes its own slice of
    ``condensed``."""
    n = matrix.shape[0]
    sq_norms = _sq_norms(matrix)
    condensed = np.empty(n * (n - 1) // 2)

    def fill(starts: range) -> None:
        for s in starts:
            e = min(s + HAC_BLOCK_ROWS, n - 1)
            # row i of the block against rows s+1.., of which it keeps those past i
            d2 = _sq_distances(matrix[s:e], sq_norms[s:e], matrix[s + 1 :], sq_norms[s + 1 :])
            upper = d2[np.arange(e - s)[:, None] <= np.arange(n - s - 1)]
            first = s * n - s * (s + 1) // 2  # row s's offset in the condensed order
            np.sqrt(upper, out=condensed[first : first + upper.size])

    blocks = range(0, n - 1, HAC_BLOCK_ROWS)
    lanes = min(_usable_cpus(), len(blocks))
    # a pool starts its threads only as work is submitted, so one lane starts none
    with ThreadPoolExecutor(max(1, lanes - 1)) as pool:
        others = [pool.submit(fill, blocks[k::lanes]) for k in range(1, lanes)]
        fill(blocks[0::lanes])
        for lane in others:
            lane.result()
    return condensed


def hac_average_linkage(vectors: Sequence[TrafficVector]) -> Dendrogram:
    """Exact average-linkage agglomeration under Euclidean distance.

    Identical vectors merge at height 0. Under exact distance ties between
    distinct clusters the tree follows scipy's tie order, so a permuted input
    can give a different tree; sorting the input, say by tower id, makes the
    result independent of the caller's order.

    The condensed distance fill runs its blocks of ``HAC_BLOCK_ROWS`` rows on
    one thread per usable CPU, at most one per block: the calling thread and
    a pool of the rest, joined before ``linkage`` runs. Each block in flight
    holds about three 128 x n float64 arrays. The tree does not depend on the
    number of threads. ``linkage`` itself runs on the calling thread.
    """
    matrix = _check_vectors(vectors)
    condensed = _condensed_distances(matrix)
    # linkage copies the condensed array; the n x d stack is not needed by then
    del matrix
    merges = [
        Merge(int(min(a, b)), int(max(a, b)), float(height), int(size))
        for a, b, height, size in linkage(condensed, method="average")
    ]
    return Dendrogram(len(vectors), merges, [v.tower_id for v in vectors])


def _dbis(matrix: np.ndarray, cuts: Sequence[np.ndarray]) -> list[float]:
    """The DBI of each of ``cuts``, nested labellings of the rows of ``matrix``
    of which the last is the finest: the mean over clusters of the worst
    (S_i + S_j) / M_ij ratio, where S is the mean member-to-centroid distance
    and M the centroid distance.

    One pass serves every cut. The finest cut's cluster sums F and the one
    product G = matrix @ F.T give each cut's centroids, W @ F / sizes, and
    its member-centroid products, G @ W.T / sizes, where W maps the fine
    clusters onto the cut's. A product's rounding error scales with ||x|| m_c,
    m_c the size-weighted mean norm of cluster c's fine centroids, so every
    member with d^2 < REFINE_SHARE * (||x||^2 + m_c^2) is recomputed directly.
    """
    sq_norms = _sq_norms(matrix)
    _, first, fine_of, fine_sizes = np.unique(
        cuts[-1], return_index=True, return_inverse=True, return_counts=True
    )
    fine_sums = (fine_of == np.arange(fine_sizes.size)[:, None]) @ matrix
    gram = matrix @ fine_sums.T
    fine_norms = np.sqrt(_sq_norms(fine_sums))  # size times the fine centroid's norm
    rows = np.arange(matrix.shape[0])
    dbis = []
    for labels in cuts:
        cluster_ids, up = np.unique(labels[first], return_inverse=True)
        r = cluster_ids.size
        if r < 2:
            raise ClusterError(f"Davies-Bouldin index needs >= 2 clusters, got {r}")
        merge = (up == np.arange(r)[:, None]).astype(float)
        sizes = merge @ fine_sizes
        centroids = (merge @ fine_sums) / sizes[:, None]
        spread = (merge @ fine_norms) / sizes
        member_of = up[fine_of]
        c_sq = _sq_norms(centroids)
        own = sq_norms + c_sq[member_of] - 2.0 * (gram @ merge.T)[rows, member_of] / sizes[member_of]
        close = np.flatnonzero(own < REFINE_SHARE * (sq_norms + spread[member_of] ** 2))
        own[close] = _direct_sq(matrix, centroids, close, member_of[close])
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
        dbis.append(float(ratios.max(axis=1).mean()))
    return dbis


def tune_cut(
    dendrogram: Dendrogram,
    vectors: Sequence[TrafficVector],
    r_min: int = 2,
    r_max: int = 15,
) -> tuple[ClusterModel, list[DbiTracePoint]]:
    """Evaluate the DBI at every cut producing r_min..r_max clusters and keep
    the minimizer (ties go to the smaller R). Returns the model of that cut
    and the trace of every cut evaluated. The cut height reported for R
    clusters is the height of the first merge NOT performed. Every cut's DBI
    comes from one pass over the finest cut (``_dbis``); the winner's
    centroids are the means of its members."""
    if dendrogram.n_leaves < 3:
        raise ClusterError("cut tuning needs a dendrogram over >= 3 leaves")
    matrix = _leaf_matrix(dendrogram, vectors)
    r_hi = min(r_max, dendrogram.n_leaves)
    if r_min < 2 or r_min > r_hi:
        raise ClusterError(f"invalid cluster range [{r_min}, {r_max}]")
    cuts = {r: dendrogram.cut(r) for r in range(r_min, r_hi + 1)}
    trace = [
        DbiTracePoint(r, dendrogram.merges[dendrogram.n_leaves - r].height, dbi)
        for r, dbi in zip(cuts, _dbis(matrix, list(cuts.values())))
    ]
    best = min(trace, key=lambda p: (p.dbi, p.r))
    labels = cuts[best.r]
    centroids = np.stack([matrix[labels == c].mean(axis=0) for c in range(1, best.r + 1)])
    sizes = [int(np.sum(labels == c)) for c in range(1, best.r + 1)]
    assignments = {tower_id: int(lbl) for tower_id, lbl in zip(dendrogram.leaf_ids, labels)}
    return ClusterModel(assignments, centroids, sizes, best.r), trace


def distance_cdf(model: ClusterModel, vectors: Sequence[TrafficVector]) -> dict[int, np.ndarray]:
    """Per-cluster empirical distribution of member-to-centroid distance:
    each cluster's distances, sorted ascending."""
    matrix = _check_vectors(vectors)
    try:
        labels = np.array([model.assignments[v.tower_id] for v in vectors])
    except KeyError as exc:
        raise ClusterError(f"tower {exc.args[0]!r} is not in the model") from None
    return {
        c: np.sort(np.linalg.norm(matrix[labels == c] - model.centroids[c - 1], axis=1))
        for c in range(1, model.r + 1)
    }


def write_assignments(path: str | Path, model: ClusterModel) -> Path:
    return write_csv(path, ASSIGNMENTS_HEADER, sorted(model.assignments.items()), ClusterError)


def read_assignments(path: str | Path) -> dict[str, int]:
    def assignment(fields: list[str]) -> tuple[str, int]:
        cluster = int(fields[1])
        if cluster < 1:
            raise ValueError(f"cluster {cluster} is below 1")
        return fields[0], cluster

    return dict(read_table(path, ASSIGNMENTS_HEADER, ClusterError, "assignments", assignment))


def write_centroids(path: str | Path, model: ClusterModel) -> Path:
    header = ["cluster", "size"] + [f"v{i}" for i in range(model.centroids.shape[1])]
    rows = ([c + 1, model.sizes[c]] + model.centroids[c].tolist() for c in range(model.r))
    return write_csv(path, header, rows, ClusterError)


def write_dbi_trace(path: str | Path, trace: Sequence[DbiTracePoint]) -> Path:
    return write_csv(path, ["R", "cut_height", "dbi"], trace, ClusterError)


def write_distance_cdf(path: str | Path, cdf: Mapping[int, np.ndarray]) -> Path:
    rows = (
        (cluster, rank, d)
        for cluster in sorted(cdf)
        for rank, d in enumerate(cdf[cluster].tolist(), start=1)
    )
    return write_csv(path, ["cluster", "rank", "distance"], rows, ClusterError)
