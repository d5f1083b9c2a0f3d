import itertools
import os
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.cluster.hierarchy import linkage
from scipy.spatial.distance import pdist

from cellmine import cluster
from cellmine.cluster import (
    REFINE_SHARE,
    ClusterError,
    Dendrogram,
    Merge,
    distance_cdf,
    hac_average_linkage,
    read_assignments,
    tune_cut,
)
from cellmine.cluster import _condensed_distances, _dbis
from cellmine.vectorize import TrafficVector, VectorizeError


def vecs(points, prefix="t"):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 1 and len(points) > 1:
        pts = np.asarray(points, dtype=float).reshape(-1, 1)
    return [TrafficVector(f"{prefix}{i:03d}", row) for i, row in enumerate(pts)]


def naive_average_linkage(points):
    """Brute-force oracle: recompute every inter-cluster average-pairwise
    distance from scratch at every step, same tie rule as the implementation."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    clusters = {i: [i] for i in range(n)}  # node -> member leaves
    next_node = n
    merges = []
    while len(clusters) > 1:
        best = None
        for a, b in itertools.combinations(sorted(clusters), 2):
            d = np.mean(
                [np.linalg.norm(pts[x] - pts[y]) for x in clusters[a] for y in clusters[b]]
            )
            min_a, min_b = min(clusters[a]), min(clusters[b])
            key = (d, min(min_a, min_b), max(min_a, min_b))
            if best is None or key < best[0]:
                best = (key, a, b)
        (d, _, _), a, b = best
        merges.append((min(a, b), max(a, b), d, len(clusters[a]) + len(clusters[b])))
        clusters[next_node] = clusters.pop(a) + clusters.pop(b)
        next_node += 1
    return merges


def reference_dbi(matrix, labels):
    """Independent textbook reimplementation used as a duplicate oracle."""
    ids = sorted(set(labels))
    cents = {c: matrix[labels == c].mean(axis=0) for c in ids}
    s = {
        c: float(np.mean(np.linalg.norm(matrix[labels == c] - cents[c], axis=1)))
        for c in ids
    }
    worst = []
    for c in ids:
        worst.append(
            max(
                (s[c] + s[d]) / np.linalg.norm(cents[c] - cents[d])
                for d in ids
                if d != c
            )
        )
    return float(np.mean(worst))


def test_hac_hand_case_one_dimensional():
    # {0, 1, 10}: merge (0,1) at d=1, then with 10 at (10+9)/2 = 9.5
    dend = hac_average_linkage(vecs([[0.0], [1.0], [10.0]]))
    assert dend.merges[0].height == pytest.approx(1.0)
    assert dend.merges[0].node_a == 0 and dend.merges[0].node_b == 1
    assert dend.merges[1].height == pytest.approx(9.5)


def test_hac_identical_vectors_merge_at_zero():
    dend = hac_average_linkage(vecs([[1.0, 2.0], [1.0, 2.0], [5.0, 5.0]]))
    assert dend.merges[0].height == 0.0


def test_hac_requires_two_nondegenerate():
    with pytest.raises(ClusterError):
        hac_average_linkage(vecs([[1.0]]))
    with pytest.raises(ClusterError):
        hac_average_linkage(
            [TrafficVector("a", np.zeros(3), degenerate=True), TrafficVector("b", np.ones(3))]
        )


def test_hac_matches_naive_oracle_small_instances():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        pts = rng.uniform(-5, 5, size=(n, int(rng.integers(1, 4))))
        dend = hac_average_linkage(vecs(pts))
        oracle = naive_average_linkage(pts)
        assert len(dend.merges) == len(oracle)
        for got, want in zip(dend.merges, oracle):
            assert (got.node_a, got.node_b, got.size) == (want[0], want[1], want[3])
            assert got.height == pytest.approx(want[2], rel=1e-9, abs=1e-12)


def test_hac_heights_monotone():
    rng = np.random.default_rng(12)
    for _ in range(10):
        pts = rng.normal(size=(int(rng.integers(3, 30)), 4))
        dend = hac_average_linkage(vecs(pts))
        heights = [m.height for m in dend.merges]
        assert all(b >= a - 1e-12 for a, b in zip(heights, heights[1:]))


def test_hac_permutation_invariance():
    rng = np.random.default_rng(13)
    pts = rng.normal(size=(12, 3))
    base = hac_average_linkage(vecs(pts))
    base_partition = {
        frozenset(np.array(base.leaf_ids)[base.cut(3) == c]) for c in (1, 2, 3)
    }
    perm = rng.permutation(12)
    shuffled = [TrafficVector(f"t{i:03d}", pts[i]) for i in perm]
    other = hac_average_linkage(shuffled)
    other_partition = {
        frozenset(np.array(other.leaf_ids)[other.cut(3) == c]) for c in (1, 2, 3)
    }
    assert base_partition == other_partition


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_hac_rejects_non_finite_vector(bad):
    # A vector checks its own values, so a non-finite one never reaches HAC.
    pts = np.zeros((3, 2))
    pts[1] = [1.0, 2.0]
    pts[2] = [bad, 0.0]
    with pytest.raises(VectorizeError, match=f"^tower t002: v0 holds {bad}, not a finite value$"):
        vecs(pts)


def leaf_sets(n, merges):
    """Clusters formed by a merge list, as frozensets of leaf indices."""
    members = {i: frozenset([i]) for i in range(n)}
    for node, (a, b) in enumerate(merges, start=n):
        members[node] = members[a] | members[b]
    return {members[node] for node in range(n, n + len(merges))}


def partition(dend, r):
    labels = dend.cut(r)
    ids = np.array(dend.leaf_ids)
    return {frozenset(ids[labels == c]) for c in range(1, r + 1)}


@settings(deadline=None)
@given(
    n=st.integers(2, 10),
    dim=st.integers(1, 3),
    n_dup=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_hac_property_same_tree_as_oracle(n, dim, n_dup, seed):
    """Compares trees as leaf sets, not merge order: with duplicated rows the
    zero-height merges may come in another order than the oracle's."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-5, 5, size=(n, dim))
    k = min(n_dup, n - 1)
    pts[n - k :] = pts[rng.integers(0, n - k, size=k)]
    dend = hac_average_linkage(vecs(pts))
    oracle = naive_average_linkage(pts)
    assert leaf_sets(n, [m[:2] for m in dend.merges]) == leaf_sets(
        n, [m[:2] for m in oracle]
    )
    assert sorted(m.height for m in dend.merges) == pytest.approx(
        sorted(m[2] for m in oracle), rel=1e-9
    )
    if k == 0:
        perm = rng.permutation(n)
        other = hac_average_linkage([TrafficVector(f"t{i:03d}", pts[i]) for i in perm])
        for r in range(1, n + 1):
            assert partition(dend, r) == partition(other, r)


def union_find_cut(dend, r):
    """The union-find cut that Dendrogram.cut replaced, kept as its oracle."""
    parent = list(range(dend.n_leaves + len(dend.merges)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for idx in range(dend.n_leaves - r):
        m = dend.merges[idx]
        node = dend.n_leaves + idx
        parent[find(m.node_a)] = node
        parent[find(m.node_b)] = node
    roots = {}
    labels = np.zeros(dend.n_leaves, dtype=int)
    for leaf in range(dend.n_leaves):
        root = find(leaf)
        if root not in roots:
            roots[root] = len(roots) + 1
        labels[leaf] = roots[root]
    return labels


@given(
    n=st.integers(1, 40),
    dim=st.integers(1, 3),
    n_dup=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_cut_property_equals_union_find(n, dim, n_dup, seed):
    """Integer points with repeated rows, so some merges tie at height 0."""
    rng = np.random.default_rng(seed)
    pts = rng.integers(-3, 4, size=(n, dim)).astype(float)
    for _ in range(n_dup):
        pts[rng.integers(n)] = pts[rng.integers(n)]
    if n == 1:
        dend = Dendrogram(1, [], ["t000"])
    else:
        dend = hac_average_linkage(vecs(pts))
    for r in range(1, n + 1):
        np.testing.assert_array_equal(dend.cut(r), union_find_cut(dend, r))


def test_cut_of_a_deep_chain_equals_union_find():
    """A chain of 2,000 leaves, each merge adding one leaf, is 1,999 merges
    deep: far deeper than the property's dendrograms of at most 40 leaves."""
    n = 2000
    merges = [Merge(0, 1, 1.0, 2)]
    merges += [Merge(i, n + i - 2, float(i), i + 1) for i in range(2, n)]
    dend = Dendrogram(n, merges, [f"t{i:04d}" for i in range(n)])
    for r in (1, 2, 15, 1000, 2000):
        np.testing.assert_array_equal(dend.cut(r), union_find_cut(dend, r))


def dbi(matrix, labels):
    return _dbis(matrix, [labels])[0]


def test_dbi_hand_case():
    # 1-D clusters {0,2} and {10,12}: S=1 each, M=10, DBI = 0.2 exactly
    matrix = np.array([[0.0], [2.0], [10.0], [12.0]])
    labels = np.array([1, 1, 2, 2])
    assert dbi(matrix, labels) == 0.2


def test_dbi_singletons_zero():
    matrix = np.array([[0.0], [5.0]])
    labels = np.array([1, 2])
    assert dbi(matrix, labels) == 0.0


def test_dbi_errors():
    matrix = np.array([[0.0], [1.0]])
    with pytest.raises(ClusterError, match=">= 2"):
        dbi(matrix, np.array([1, 1]))
    coincident = np.array([[0.0], [2.0], [1.0], [1.0]])
    with pytest.raises(ClusterError, match="coincident"):
        dbi(coincident, np.array([1, 1, 2, 2]))


def test_dbi_matches_reference_reimplementation():
    rng = np.random.default_rng(14)
    for _ in range(20):
        matrix = rng.normal(size=(30, 5))
        labels = rng.integers(1, 4, size=30)
        if len(set(labels.tolist())) < 2:
            continue
        got = dbi(matrix, labels)
        assert got == pytest.approx(reference_dbi(matrix, labels), rel=1e-12)
    # singletons (3, 4) and clusters of identical members (5: three, 6: four)
    for _ in range(10):
        matrix = rng.normal(size=(17, 5))
        matrix[11:13] = matrix[10]
        matrix[14:17] = matrix[13]
        labels = np.array([1, 1, 1, 2, 2, 2, 2, 1, 3, 4, 5, 5, 5, 6, 6, 6, 6])
        got = dbi(matrix, labels)
        assert got == pytest.approx(reference_dbi(matrix, labels), rel=1e-12)


def _cloud(n, width, norm_exp, spread_exp, n_dup, n_near, seed):
    """Rows around a centre of norm 10**norm_exp, spread 10**spread_exp of it,
    with exact duplicates and near-duplicates 1e-7 apart in one coordinate."""
    rng = np.random.default_rng(seed)
    centre = rng.normal(size=width)
    centre *= 10.0**norm_exp / np.linalg.norm(centre)
    pts = centre + rng.normal(size=(n, width)) * 10.0 ** (norm_exp + spread_exp)
    for _ in range(n_dup):
        pts[rng.integers(n)] = pts[rng.integers(n)]
    for _ in range(n_near):
        i, j = rng.integers(n, size=2)
        pts[i] = pts[j]
        pts[i, rng.integers(width)] += 1e-7
    return pts


def _assert_within_refine_bound(got, want, width):
    # the relative error bound that REFINE_SHARE's derivation gives
    bound = (width + 3) * 2.0**-53 / REFINE_SHARE
    assert np.all(np.abs(got - want) <= bound * want)
    assert np.array_equal(got == 0.0, want == 0.0)


@given(
    n=st.integers(2, 12),
    width=st.integers(1, 300),
    norm_exp=st.integers(0, 6),
    spread_exp=st.integers(-6, 0),
    n_dup=st.integers(0, 3),
    n_near=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_condensed_distances_match_pdist(n, width, norm_exp, spread_exp, n_dup, n_near, seed):
    pts = _cloud(n, width, norm_exp, spread_exp, n_dup, n_near, seed)
    got, want = _condensed_distances(pts), pdist(pts)
    _assert_within_refine_bound(got, want, width)
    heights = np.sort(linkage(want, "average")[:, 2])
    if np.all(np.diff(heights) > 1e-6 * heights[-1]):  # tie-free
        np.testing.assert_array_equal(
            linkage(got, "average")[:, [0, 1, 3]], linkage(want, "average")[:, [0, 1, 3]]
        )


@settings(max_examples=40)
@given(
    n=st.integers(2, 30),
    width=st.integers(1, 40),
    block_rows=st.integers(1, 7),
    norm_exp=st.integers(0, 6),
    spread_exp=st.integers(-6, 0),
    n_dup=st.integers(0, 3),
    n_near=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_condensed_distances_are_the_same_on_any_number_of_cpus(
    n, width, block_rows, norm_exp, spread_exp, n_dup, n_near, seed
):
    """Blocks of 1-7 rows on 1-4 CPUs: every CPU count gives the same bytes,
    within pdist's bound, and leaves no thread behind; one CPU starts none."""
    pts = _cloud(n, width, norm_exp, spread_exp, n_dup, n_near, seed)
    blocks = len(range(0, n - 1, block_rows))
    results = []
    for cpus in range(1, 5):
        threads = threading.active_count()
        with mock.patch.object(cluster, "HAC_BLOCK_ROWS", block_rows), \
                mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus)), create=True), \
                mock.patch.object(threading.Thread, "start", autospec=True,
                                  side_effect=threading.Thread.start) as start:
            results.append(_condensed_distances(pts))
        assert threading.active_count() == threads
        # a pool thread that is idle again may take the next lane
        assert start.call_count <= min(cpus, blocks) - 1
    assert all(r.tobytes() == results[0].tobytes() for r in results)
    _assert_within_refine_bound(results[0], pdist(pts), width)


def test_tune_cut_two_blobs():
    rng = np.random.default_rng(15)
    blob_a = rng.normal(0, 0.2, size=(20, 2))
    blob_b = rng.normal(8, 0.2, size=(20, 2))
    vectors = vecs(np.vstack([blob_a, blob_b]))
    dend = hac_average_linkage(vectors)
    model, trace = tune_cut(dend, vectors, 2, 8)
    assert model.r == 2
    assert min(trace, key=lambda p: (p.dbi, p.r)).r == 2
    # the returned model is the cut at the minimum of the emitted trace
    labels = dend.cut(2)
    assert model.assignments == {v.tower_id: int(c) for v, c in zip(vectors, labels)}


def test_tune_cut_threshold_is_first_unperformed_merge():
    rng = np.random.default_rng(16)
    pts = rng.normal(size=(10, 2))
    vectors = vecs(pts)
    dend = hac_average_linkage(vectors)
    _, trace = tune_cut(dend, vectors, 2, 5)
    assert [p.r for p in trace] == [2, 3, 4, 5]
    assert all(p.cut_height == dend.merges[10 - p.r].height for p in trace)


def test_model_centroids_are_member_means():
    rng = np.random.default_rng(17)
    pts = rng.normal(size=(15, 3))
    vectors = vecs(pts)
    dend = hac_average_linkage(vectors)
    model = tune_cut(dend, vectors, 3, 3)[0]
    labels = dend.cut(3)
    for c in range(1, 4):
        np.testing.assert_allclose(
            model.centroids[c - 1], pts[labels == c].mean(axis=0), atol=1e-9
        )
    assert sum(model.sizes) == 15


def nested_dendrogram(units, first, rng):
    """A dendrogram over the leaves of ``units`` (lists of leaf indices): each
    unit's leaves merge at height 0, then the units ``first`` merge in order,
    then the rest at random, one merge per height 1, 2, ..."""
    n = sum(map(len, units))
    merges, size = [], {leaf: 1 for leaf in range(n)}

    def merge(a, b, height):
        node = n + len(merges)
        size[node] = size[a] + size[b]
        merges.append(Merge(min(a, b), max(a, b), float(height), size[node]))
        return node

    roots = []
    for unit in units:
        root = unit[0]
        for leaf in unit[1:]:
            root = merge(root, leaf, 0.0)
        roots.append(root)
    joined = roots[first[0]]
    for u in first[1:]:
        joined = merge(joined, roots[u], len(merges) + 1)
    active = [joined] + [root for u, root in enumerate(roots) if u not in first]
    while len(active) > 1:
        i, j = sorted(rng.choice(len(active), size=2, replace=False))
        b, a = active.pop(j), active.pop(i)
        active.append(merge(a, b, len(merges) + 1))
    return Dendrogram(n, merges, [f"t{i:03d}" for i in range(n)])


def well_separated(pts, labels):
    """Whether every two centroids are further apart than 1e-2 of the mean
    norms of their members, which bound how far rounding moves a centroid."""
    members = [pts[labels == c] for c in np.unique(labels)]
    centroids = np.array([m.mean(axis=0) for m in members])
    norms = np.array([np.linalg.norm(m, axis=1).mean() for m in members])
    gaps = np.linalg.norm(centroids[:, None] - centroids, axis=2) + np.diag(np.full(len(members), np.inf))
    return bool(np.all(gaps > 1e-2 * (norms[:, None] + norms)))


@settings(deadline=None)
@given(
    k=st.integers(3, 18),
    dim=st.integers(2, 4),
    reps=st.lists(st.integers(1, 3), min_size=18, max_size=18),
    spread=st.lists(st.sampled_from([0.0, 0.3]), min_size=18, max_size=18),
    a_exp=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_nested_dbi_matches_each_cut_recomputed(k, dim, reps, spread, a_exp, seed):
    """Units of 1-3 members, identical ones where the spread is 0, on a random
    dendrogram. Units 0, 1 and 2 sit at +a, near -a and within about 1e-3 of
    0, with ||a|| = 10 or 100, and merge first, in the order 0, 2, 1: the
    coarse cluster they make sums fine terms of norm ||a|| that cancel.
    Examples in which two centroids of a cut come closer than the rounding of
    their members allows are skipped (``well_separated``): there the DBI is
    ill-conditioned for any order of summation. The other units sit at least
    1 from 0 in each coordinate, so that few examples are skipped."""
    rng = np.random.default_rng(seed)
    centres = rng.uniform(-5, 5, size=(k, dim))
    centres += np.sign(centres)
    a = rng.normal(size=dim)
    centres[0] = a * 10.0**a_exp / np.linalg.norm(a)
    centres[1:3] = rng.normal(size=(2, dim)) * 1e-3
    centres[1] -= centres[0]
    spread = np.array(spread[:k])
    spread[2] *= 1e-3
    leaves = rng.permutation(sum(reps[:k]))
    units = np.split(leaves, np.cumsum(reps[: k - 1]))
    pts = np.empty((leaves.size, dim))
    for unit, centre, s in zip(units, centres, spread):
        pts[unit] = centre + s * rng.normal(size=(unit.size, dim))
    dend = nested_dendrogram([u.tolist() for u in units], [0, 2, 1], rng)
    vectors = [TrafficVector(t, row) for t, row in zip(dend.leaf_ids, pts)]
    r_hi = min(15, k)
    model, trace = tune_cut(dend, vectors, 2, r_hi)
    assume(all(well_separated(pts, dend.cut(r)) for r in range(2, r_hi + 1)))
    want = {r: reference_dbi(pts, dend.cut(r)) for r in range(2, r_hi + 1)}
    assert [p.r for p in trace] == list(want)
    for p in trace:
        assert p.dbi == pytest.approx(want[p.r], rel=1e-12)
        assert p.cut_height == dend.merges[dend.n_leaves - p.r].height
    first, second = sorted(want.values())[:2]
    assume(second - first > 1e-9 * second)  # no near-tie for the rounding to break
    best = min(want, key=lambda r: (want[r], r))
    labels = dend.cut(best)
    assert model.r == best
    assert model.assignments == dict(zip(dend.leaf_ids, labels.tolist()))
    assert model.sizes == np.bincount(labels)[1:].tolist()
    np.testing.assert_array_equal(
        model.centroids, [pts[labels == c].mean(axis=0) for c in range(1, best + 1)]
    )


def test_distance_cdf_cases():
    # all members at the centroid: a step at 0
    vectors = vecs([[1.0, 1.0], [1.0, 1.0], [9.0, 9.0]])
    dend = hac_average_linkage(vectors)
    model = tune_cut(dend, vectors, 2, 2)[0]
    cdf = distance_cdf(model, vectors)
    assert cdf[model.assignments["t000"]].tolist() == [0.0, 0.0]
    # singleton cluster: CDF over one value
    assert cdf[model.assignments["t002"]].tolist() == [0.0]


def test_cluster_api_rejects_vectors_that_are_not_the_leaves():
    vectors = vecs([[0.0], [0.1], [5.0], [5.2]])
    dend = hac_average_linkage(vectors)
    renamed = vectors[:3] + [TrafficVector("x", vectors[3].values)]
    cases = [
        (vectors[:3], r"3 vectors for 4 leaves differ first at position 3: tower \[\] for leaf \['t003'\]"),
        (vectors[::-1], r"4 vectors for 4 leaves differ first at position 0: tower \['t003'\] for leaf \['t000'\]"),
        (renamed, r"position 3: tower \['x'\] for leaf \['t003'\]"),
    ]
    for bad, message in cases:
        with pytest.raises(ClusterError, match=message):
            tune_cut(dend, bad, 2, 3)


def test_cluster_api_rejects_a_repeated_tower():
    vectors = vecs([[0.0], [0.1], [5.0]])
    repeated = [vectors[0], TrafficVector("t000", np.array([0.2])), vectors[2]]
    model = tune_cut(hac_average_linkage(vectors), vectors, 2, 2)[0]
    calls = [
        lambda: hac_average_linkage(repeated),
        lambda: tune_cut(Dendrogram(3, [], ["t000", "t000", "t002"]), repeated, 2, 2),
        lambda: distance_cdf(model, repeated),
    ]
    for call in calls:
        with pytest.raises(ClusterError, match="tower t000 is repeated"):
            call()


def test_distance_cdf_names_tower_not_in_model():
    vectors = vecs([[0.0], [0.1], [5.0]])
    model = tune_cut(hac_average_linkage(vectors), vectors, 2, 2)[0]
    with pytest.raises(ClusterError, match="tower 'x' is not in the model"):
        distance_cdf(model, vectors + [TrafficVector("x", np.array([1.0]))])


@pytest.mark.parametrize(
    "text, message",
    [
        ("tower_id,cluster\nt1\n", "a.csv line 2: expected 2 fields, got 1"),
        ("tower_id,cluster\nt1,1,2\n", "a.csv line 2: expected 2 fields, got 3"),
        ("tower_id,cluster\nt1,x\n", "a.csv line 2: invalid literal"),
        ("tower_id,cluster\na,1\nb,2\na,2\n", "a.csv line 4: tower a is repeated"),
        ("tower_id,cluster\na,1\nb,0\n", "a.csv line 3: cluster 0 is below 1"),
        ("tower_id,cluster\nc,-3\n", "a.csv line 2: cluster -3 is below 1"),
        ("", "bad assignments header"),
    ],
)
def test_read_assignments_rejects_malformed_row(tmp_path, text, message):
    path = tmp_path / "a.csv"
    path.write_text(text)
    with pytest.raises(ClusterError, match=message):
        read_assignments(path)


@pytest.mark.parametrize("call, message", [
    (lambda dend, vectors: dend.cut(0), r"^cannot cut 4 leaves into 0 clusters$"),
    (lambda dend, vectors: dend.cut(5), r"^cannot cut 4 leaves into 5 clusters$"),
    (lambda dend, vectors: hac_average_linkage(vectors[:3] + [TrafficVector("x", np.zeros(2))]),
     r"^vectors have mixed lengths$"),
    (lambda dend, vectors: tune_cut(hac_average_linkage(vectors[:2]), vectors[:2], 2, 2),
     r"^cut tuning needs a dendrogram over >= 3 leaves$"),
    (lambda dend, vectors: tune_cut(dend, vectors, 1, 3), r"^invalid cluster range \[1, 3\]$"),
    (lambda dend, vectors: tune_cut(dend, vectors, 5, 9), r"^invalid cluster range \[5, 9\]$"),
])
def test_cluster_api_rejects_bad_arguments(call, message):
    vectors = vecs([[0.0], [0.1], [5.0], [5.2]])
    with pytest.raises(ClusterError, match=message):
        call(hac_average_linkage(vectors), vectors)
