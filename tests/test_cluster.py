import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.cluster.hierarchy import linkage
from scipy.spatial.distance import pdist

from cellmine.cluster import (
    REFINE_SHARE,
    ClusterError,
    Dendrogram,
    distance_cdf,
    hac_average_linkage,
    read_assignments,
    tune_cut,
)
from cellmine.cluster import _condensed_distances, _dbi, _sq_norms
from cellmine.vectorize import TrafficVector


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
    pts = np.zeros((3, 2))
    pts[1] = [1.0, 2.0]
    pts[2] = [bad, 0.0]
    with pytest.raises(ClusterError, match="t002"):
        hac_average_linkage(vecs(pts))


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


def dbi(matrix, labels):
    return _dbi(matrix, _sq_norms(matrix), labels)


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
    """Rows around a centre of norm up to 1e6, spread from 1e-6 to 1 of it,
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
    got, want = _condensed_distances(pts), pdist(pts)
    # the relative error bound that REFINE_SHARE's derivation gives
    bound = (width + 3) * 2.0**-53 / REFINE_SHARE
    assert np.all(np.abs(got - want) <= bound * want)
    assert np.array_equal(got == 0.0, want == 0.0)
    heights = np.sort(linkage(want, "average")[:, 2])
    if np.all(np.diff(heights) > 1e-6 * heights[-1]):  # tie-free
        np.testing.assert_array_equal(
            linkage(got, "average")[:, [0, 1, 3]], linkage(want, "average")[:, [0, 1, 3]]
        )


def test_tune_cut_two_blobs():
    rng = np.random.default_rng(15)
    blob_a = rng.normal(0, 0.2, size=(20, 2))
    blob_b = rng.normal(8, 0.2, size=(20, 2))
    vectors = vecs(np.vstack([blob_a, blob_b]))
    dend = hac_average_linkage(vectors)
    model, trace = tune_cut(dend, vectors, 2, 8)
    assert model.r == 2
    assert min(trace, key=lambda p: (p.dbi, p.r)).r == 2
    # returned model attains the minimum of the emitted trace
    assert model.dbi == min(p.dbi for p in trace)


def test_tune_cut_threshold_is_first_unperformed_merge():
    rng = np.random.default_rng(16)
    pts = rng.normal(size=(10, 2))
    vectors = vecs(pts)
    dend = hac_average_linkage(vectors)
    model, trace = tune_cut(dend, vectors, 2, 5)
    point = next(p for p in trace if p.r == model.r)
    assert model.cut_threshold == point.cut_height
    assert model.cut_threshold == dend.merges[10 - model.r].height


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


def test_distance_cdf_cases():
    # all members at the centroid: a step at 0
    vectors = vecs([[1.0, 1.0], [1.0, 1.0], [9.0, 9.0]])
    dend = hac_average_linkage(vectors)
    model = tune_cut(dend, vectors, 2, 2)[0]
    cdf = distance_cdf(model, vectors)
    assert cdf.distances[model.assignments["t000"]].tolist() == [0.0, 0.0]
    # singleton cluster: CDF over one value
    assert cdf.distances[model.assignments["t002"]].tolist() == [0.0]


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
