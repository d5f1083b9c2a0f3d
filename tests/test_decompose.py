import dataclasses
import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, event, example, given
from hypothesis import strategies as st
from scaling import exponents, is_normal, same_bits

from cellmine.common import unit_scaled
from cellmine.decompose import (
    DENSITY_RADIUS,
    MIN_DENSITY,
    MIN_SIMPLEX_VOLUME,
    DecomposeError,
    FeaturePoint,
    FeatureSpace,
    MixtureCoefficients,
    PolygonModel,
    build_feature_points,
    read_mixtures,
    read_vertices,
    select_representatives,
    simplex_volume,
    solve_mixture,
    write_mixtures,
    write_vertices,
)
from cellmine.spectrum import SpectralFeature


def make_model(vertices, clusters=(1, 2, 3, 4)):
    space = FeatureSpace(("a", "b", "c"), np.zeros(3), np.ones(3))
    pts = [FeaturePoint(f"v{i}", np.asarray(v, dtype=float)) for i, v in enumerate(vertices)]
    return PolygonModel(pts, list(clusters), space)


def grid_search_simplex(v_matrix, f, fine=1000, coarse=100):
    """Independent oracle: exhaustive search over the barycentric grid.

    Two stages, both exhaustive over their grid: a full scan at step
    1/coarse, then a full scan at step 1/fine inside a window of +-5 coarse
    steps around the stage-1 winner. By convexity the fine-grid optimum lies
    within cond(edges) * sqrt(3) * (1/coarse) of the stage-1 winner, which the
    window covers for the well-conditioned simplices used in these tests
    (see random_simplex).
    """
    def scan(lo, hi, denom):
        axes = [np.arange(lo[d], hi[d] + 1) for d in range(3)]
        i, j, k = np.meshgrid(*axes, indexing="ij")
        i, j, k = i.ravel(), j.ravel(), k.ravel()
        remainder = denom - i - j - k
        mask = remainder >= 0
        x = np.stack([i[mask], j[mask], k[mask], remainder[mask]], axis=1) / denom
        resid = x @ v_matrix.T - f
        obj = np.sum(resid * resid, axis=1)
        best = int(np.argmin(obj))
        return x[best], float(obj[best])

    x0, _ = scan(np.zeros(3, dtype=int), np.full(3, coarse, dtype=int), coarse)
    scale = fine // coarse
    center = np.round(x0[:3] * fine).astype(int)
    lo = np.clip(center - 5 * scale, 0, fine)
    hi = np.clip(center + 5 * scale, 0, fine)
    x, obj = scan(lo, hi, fine)
    return x, np.sqrt(obj)


def full_grid_search(v_matrix, f, denom):
    """Single-stage exhaustive scan, used to validate the two-stage oracle."""
    axes = [np.arange(0, denom + 1)] * 3
    i, j, k = np.meshgrid(*axes, indexing="ij")
    i, j, k = i.ravel(), j.ravel(), k.ravel()
    remainder = denom - i - j - k
    mask = remainder >= 0
    x = np.stack([i[mask], j[mask], k[mask], remainder[mask]], axis=1) / denom
    resid = x @ v_matrix.T - f
    obj = np.sum(resid * resid, axis=1)
    best = int(np.argmin(obj))
    return x[best], float(np.sqrt(obj[best]))


def loop_solve_mixture(v, f):
    """Oracle: the support enumeration as a loop, one KKT solve per support
    of two or more vertices. Returns the clipped, renormalized weights of the
    first candidate of least objective."""
    best_x, best_obj = None, np.inf
    for size in range(1, 5):
        for support in itertools.combinations(range(4), size):
            k = len(support)
            v_sub = v[:, support]
            kkt = np.zeros((k + 1, k + 1))
            kkt[:k, :k] = 2.0 * (v_sub.T @ v_sub)
            kkt[:k, k] = 1.0
            kkt[k, :k] = 1.0
            rhs = np.concatenate([2.0 * (v_sub.T @ f), [1.0]])
            x_sub = np.linalg.solve(kkt, rhs)[:k] if k > 1 else np.ones(1)
            if np.any(x_sub < -1e-10):
                continue
            x = np.zeros(4)
            x[list(support)] = x_sub
            obj = float(np.sum((v @ x - f) ** 2))
            if obj < best_obj or best_x is None:
                best_obj, best_x = obj, x
    x = np.clip(best_x, 0.0, None)
    return x / x.sum()


def random_simplex(rng):
    """Random well-conditioned simplex: the grid oracle's two-stage window
    is only exhaustive-equivalent when the edge matrix is not too thin."""
    while True:
        vertices = rng.uniform(-2, 2, size=(4, 3))
        edges = (vertices[1:] - vertices[0]).T
        s = np.linalg.svd(edges, compute_uv=False)
        if s.min() >= 0.6 and s.max() / s.min() <= 2.2:
            assert simplex_volume(list(vertices)) > 1e-9
            return vertices


def test_two_stage_oracle_matches_full_enumeration():
    rng = np.random.default_rng(40)
    for _ in range(3):
        vertices = random_simplex(rng)
        v = vertices.T
        f = rng.uniform(-2, 2, size=3)
        x_two, r_two = grid_search_simplex(v, f, fine=100, coarse=20)
        x_full, r_full = full_grid_search(v, f, denom=100)
        assert r_two == pytest.approx(r_full, abs=1e-12)
        np.testing.assert_allclose(x_two, x_full, atol=1e-12)


def test_vertex_input_returns_one_hot():
    rng = np.random.default_rng(41)
    model = make_model(random_simplex(rng))
    for i in range(4):
        res = solve_mixture(model.vertices[i], model)
        expected = np.zeros(4)
        expected[i] = 1.0
        np.testing.assert_array_equal(res.x, expected)
        assert res.residual == 0.0


def test_interior_midpoint():
    rng = np.random.default_rng(42)
    model = make_model(random_simplex(rng))
    v = model.matrix
    f = 0.5 * v[:, 0] + 0.5 * v[:, 1]
    res = solve_mixture(f, model)
    np.testing.assert_allclose(res.x, [0.5, 0.5, 0.0, 0.0], atol=1e-6)
    assert res.residual < 1e-8


def test_interior_points_match_grid_oracle():
    rng = np.random.default_rng(43)
    for _ in range(25):
        vertices = random_simplex(rng)
        model = make_model(vertices)
        # plant weights on the 1e-3 grid so the fine grid contains the optimum
        raw = rng.integers(0, 1000, size=4).astype(float)
        if raw.sum() == 0:
            raw[0] = 1000
        counts = np.floor(1000 * raw / raw.sum()).astype(int)
        counts[3] = 1000 - counts[:3].sum()
        x_true = counts / 1000.0
        f = model.matrix @ x_true
        res = solve_mixture(f, model)
        x_oracle, _ = grid_search_simplex(model.matrix, f)
        np.testing.assert_allclose(res.x, x_oracle, atol=1e-6)
        assert res.residual < 1e-8


def test_exterior_points_match_oracle_projection_residual():
    rng = np.random.default_rng(44)
    for _ in range(15):
        model = make_model(random_simplex(rng))
        f = rng.uniform(-4, 4, size=3)
        res = solve_mixture(f, model)
        _, oracle_residual = grid_search_simplex(model.matrix, f)
        assert res.residual <= oracle_residual + 1e-12
        assert abs(res.residual - oracle_residual) < 1e-3


def test_kkt_conditions_at_solution():
    rng = np.random.default_rng(45)
    for _ in range(20):
        model = make_model(random_simplex(rng))
        f = rng.uniform(-3, 3, size=3)
        res = solve_mixture(f, model)
        v = model.matrix
        g = 2.0 * v.T @ (v @ res.x - f)
        support = res.x > 1e-10
        lam = -float(np.mean(g[support]))
        # stationarity on the support, dual feasibility off it
        assert np.max(np.abs(g[support] + lam)) < 1e-8
        if np.any(~support):
            assert np.min(g[~support] + lam) > -1e-8


@st.composite
def simplex_cases(draw):
    """Vertices (dims, 4) in 3 to 6 dimensions and a point inside or outside
    their hull. The edges from the first vertex are orthonormal directions
    scaled by singular values in [0.8, 2], so the simplex stays well
    conditioned."""
    dims = draw(st.integers(3, 6))

    def floats(n, lo=-1.0, hi=1.0):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))

    directions, _ = np.linalg.qr(floats(3 * dims).reshape(dims, 3))
    edges = directions * floats(3, 0.8, 2.0)
    vertices = 2.0 * floats(dims)[:, None] + np.hstack([np.zeros((dims, 1)), edges])
    weights = floats(4, 0.0, 1.0)
    weights = weights / weights.sum() if weights.sum() > 0 else np.full(4, 0.25)
    outside = 3.0 * floats(dims) if draw(st.booleans()) else np.zeros(dims)
    return vertices, vertices @ weights + outside


@given(simplex_cases())
# a weight of 2e-8 that moves the objective by less than 1e-15
@example((np.hstack([np.zeros((3, 1)), np.eye(3)]), np.array([0.0, 1.0 - 2e-8, 2e-8])))
def test_simplex_weights_property(case):
    v, f = case
    dims = v.shape[0]
    space = FeatureSpace(tuple(f"f{i}" for i in range(dims)), np.zeros(dims), np.ones(dims))
    model = PolygonModel([FeaturePoint(f"v{i}", v[:, i]) for i in range(4)], [1, 2, 3, 4], space)
    res = solve_mixture(f, model)
    assert np.all(res.x >= 0)
    assert abs(res.x.sum() - 1.0) <= 1e-12
    assert math.isclose(res.residual, np.linalg.norm(v @ res.x - f), rel_tol=1e-12)
    # the KKT conditions of test_kkt_conditions_at_solution
    g = 2.0 * v.T @ (v @ res.x - f)
    support = res.x > 1e-10
    lam = -float(np.mean(g[support]))
    assert np.max(np.abs(g[support] + lam)) < 1e-8
    if np.any(~support):
        assert np.min(g[~support] + lam) > -1e-8
    # The support enumeration as a loop picks the same support and weights.
    # Where a support and its superset tie to rounding, either may win with
    # a weight of ~1e-16, so the support is read at the threshold above.
    oracle = loop_solve_mixture(v, f)
    np.testing.assert_array_equal(support, oracle > 1e-10)
    np.testing.assert_allclose(res.x, oracle, rtol=0, atol=1e-12)


def test_solution_invariant_to_vertex_reordering():
    rng = np.random.default_rng(46)
    model = make_model(random_simplex(rng))
    f = rng.uniform(-2, 2, size=3)
    base = solve_mixture(f, model)
    perm = rng.permutation(4)
    permuted = make_model([model.vertices[i].f for i in perm])
    res = solve_mixture(f, permuted)
    np.testing.assert_allclose(res.x[np.argsort(perm)], base.x, atol=1e-6)


def test_idempotent_on_projection():
    rng = np.random.default_rng(47)
    model = make_model(random_simplex(rng))
    f = rng.uniform(-4, 4, size=3)
    first = solve_mixture(f, model)
    f_r = model.matrix @ first.x
    second = solve_mixture(f_r, model)
    np.testing.assert_allclose(second.x, first.x, atol=1e-8)
    assert second.residual < 1e-8


def test_degenerate_model_rejected():
    flat = [
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.5, 0.5, 0.0],
    ]
    with pytest.raises(DecomposeError, match="degenerate"):
        solve_mixture(np.array([0.2, 0.2, 0.5]), make_model(flat))


@pytest.mark.parametrize("s", [1e-3, 1.0, 1e4, 1e8])
def test_model_flatness_depends_on_neither_size_nor_place(s):
    # three of the vertices 0, d*s, 2.3*d*s and w*s are collinear
    d, w = np.array([0.3, 0.7, 0.11]), np.array([0.2, -0.5, 1.0])
    with pytest.raises(DecomposeError, match="flat simplex"):
        make_model([np.zeros(3), d * s, 2.3 * d * s, w * s])
    corners = np.vstack([np.zeros(3), np.eye(3)])
    for shift in (0.0, 1e6):
        make_model(corners * s + shift)


def test_simplex_volume_in_any_dimension():
    # a unit-corner simplex raised into 4 or 6 dims keeps its 1/6; four points
    # of a plane, in 2 dims or 3, span none
    corners = np.vstack([np.zeros(3), np.eye(3)])
    for dims in (3, 4, 6):
        embedded = np.hstack([corners, np.ones((4, dims - 3))])
        assert simplex_volume(list(embedded)) == pytest.approx(1 / 6, rel=1e-12)
    assert simplex_volume(list(corners[:, :2])) == 0.0
    assert simplex_volume([np.zeros(3), np.eye(3)[0], np.eye(3)[1], [1.0, 1.0, 0.0]]) < 1e-15
    space = FeatureSpace(("a", "b"), np.zeros(2), np.ones(2))
    corners = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    square = [FeaturePoint(f"v{i}", np.array(v)) for i, v in enumerate(corners)]
    with pytest.raises(DecomposeError, match="flat simplex"):
        PolygonModel(square, [1, 2, 3, 4], space)


BAD_SHAPE = "needs 4 vertices of 3 finite values each"


@pytest.mark.parametrize(
    "vertices, message",
    [
        ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], BAD_SHAPE),
        ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]], BAD_SHAPE),
        ([[0.0, 0.0, 0.0], [1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], BAD_SHAPE),
        ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0, 0.0]], BAD_SHAPE),
        # each vertex checks its own coordinates
        ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, math.nan]],
         "^tower 'v3': coordinate 2 holds nan, not a finite value$"),
        ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, math.inf, 1.0]],
         "^tower 'v3': coordinate 1 holds inf, not a finite value$"),
        # finite, but the KKT solve's Gram matrix overflows
        ([[0.0, 0.0, 0.0], [1e200, 0.0, 0.0], [0.0, 1e200, 0.0], [0.0, 0.0, 1e200]],
         "vertices are too large: their Gram matrix overflows"),
    ],
    ids=[f"vertices{i}" for i in range(7)],
)
def test_polygon_model_rejects_bad_vertices(vertices, message):
    with pytest.raises(DecomposeError, match=message):
        make_model(vertices, clusters=range(len(vertices)))


@pytest.mark.parametrize("point", [[0.2, 0.2], [0.2, 0.2, 0.2, 0.2], [[0.2, 0.2, 0.2]],
                                   [0.2, math.nan, 0.2], [0.2, 0.2, -math.inf]])
def test_solve_mixture_rejects_bad_point(point):
    model = make_model(random_simplex(np.random.default_rng(51)))
    with pytest.raises(DecomposeError, match="is not 3 finite values"):
        solve_mixture(np.array(point), model)


@pytest.mark.parametrize("point", [[1e200, 2e200, -1e200], [1e308, 0.0, 0.0]])
def test_solve_mixture_rejects_a_point_too_far_out(point):
    # finite, but its squared distance to the unit-corner simplex overflows
    model = make_model(np.vstack([np.zeros(3), np.eye(3)]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DecomposeError, match="tower 'far': .* too far out"):
            solve_mixture(FeaturePoint("far", np.array(point)), model)


def test_build_feature_points_standardizes():
    feats = [
        SpectralFeature(f"t{i}", 1.0, 0.1, float(i), 0.2 * i, 2.0 + i, 0.0)
        for i in range(6)
    ]
    points, space = build_feature_points(feats)
    coords = np.stack([p.f for p in points])
    np.testing.assert_allclose(coords.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(coords.std(axis=0), 1.0, atol=1e-12)
    np.testing.assert_allclose(space.inverse(points[3].f), [3.0, 0.6, 5.0], atol=1e-12)


@pytest.mark.parametrize("towers", [0, 1])
def test_build_feature_points_needs_two_towers(towers):
    feats = [SpectralFeature(f"t{i}", 1.0, 0.1, 1.0, 0.2, 2.0, 0.0) for i in range(towers)]
    with pytest.raises(DecomposeError, match="^feature standardization needs at least 2 towers$"):
        build_feature_points(feats)


def test_build_feature_points_rejects_flat_dimension():
    feats = [SpectralFeature(f"t{i}", 1, 0, 1.0, 0.5, 2, 0) for i in range(4)]
    with pytest.raises(DecomposeError, match="feature amp_day: mean 1.0 and std 0.0 are not"):
        build_feature_points(feats)


@pytest.mark.parametrize("bad", [math.inf, -math.inf])
def test_build_feature_points_rejects_non_finite_feature(bad):
    feats = [SpectralFeature(f"t{i}", 1.0, 0.1, float(i), 0.2 * i, 2.0 + i, 0.0) for i in range(6)]
    feats[3] = SpectralFeature("t3", 1.0, 0.1, 3.0, bad, 5.0, 0.0)
    with pytest.raises(DecomposeError, match=f"tower t3: phase_day holds {bad}, not finite"):
        build_feature_points(feats)


def test_build_feature_points_rejects_flat_dimension_whose_sum_overflows():
    feats = [SpectralFeature(f"t{i}", 1.0, 0.1, 1e308, 0.2 * i, 2.0 + i, 0.0) for i in range(6)]
    with pytest.raises(DecomposeError, match=r"^feature amp_day: mean 1e\+308 and std 0\.0 are not"):
        build_feature_points(feats)


@pytest.mark.parametrize("value", [0.1, 1.7e308])
def test_build_feature_points_rejects_flat_dimension_whose_mean_rounds(value):
    # six copies of the value have a mean that rounds, and a std of about 1e-17 of it
    feats = [SpectralFeature(f"t{i}", 1.0, 0.1, value, 0.2 * i, 2.0 + i, 0.0) for i in range(6)]
    with pytest.raises(DecomposeError, match=r"^feature amp_day: mean \S+ and std 0\.0 are not"):
        build_feature_points(feats)


@pytest.mark.parametrize("huge", [1e308, 1.7e308])
def test_build_feature_points_of_huge_features(huge):
    # huge / 5 * i standardizes as i does, though its sum and its std overflow
    feats = [SpectralFeature(f"t{i}", 1.0, 0.1, huge / 5 * i, 0.2 * i, 2.0 + i, 0.0) for i in range(6)]
    points, space = build_feature_points(feats)
    want, _ = build_feature_points([
        SpectralFeature(f"t{i}", 1.0, 0.1, float(i), 0.2 * i, 2.0 + i, 0.0) for i in range(6)
    ])
    np.testing.assert_allclose([p.f for p in points], [p.f for p in want], rtol=1e-15, atol=1e-15)
    np.testing.assert_allclose(space.mean[0], huge / 2, rtol=1e-15)
    np.testing.assert_allclose(space.std[0], huge / 5 * math.sqrt(35 / 12), rtol=1e-15)


@st.composite
def scaled_features(draw):
    """Seeded features of 2 to 40 towers in [1, 2) times 2**e, and a k in
    [-1000, 1000] (see ``scaling.exponents``)."""
    e, k = draw(exponents())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.ldexp(rng.uniform(1.0, 2.0, size=(draw(st.integers(2, 40)), 3)), e), k


@given(scaled_features())
@example((np.ldexp(np.arange(1.0, 13.0).reshape(4, 3), 1018), -1000))
@example((np.ldexp(np.arange(1.0, 13.0).reshape(4, 3), -1000), 1000))
def test_build_feature_points_is_exactly_scale_invariant(case):
    raw, k = case
    scaled = np.ldexp(raw, k)
    assume(is_normal(raw) and is_normal(scaled))

    def build(rows):
        return build_feature_points([SpectralFeature(f"t{i}", 1.0, 0.0, a, p, h, 0.0)
                                     for i, (a, p, h) in enumerate(rows)])

    points, space = build(raw)
    scaled_points, scaled_space = build(scaled)
    assert all(same_bits(a.f, b.f) for a, b in zip(scaled_points, points))
    assert same_bits(scaled_space.mean, np.ldexp(space.mean, k))
    assert same_bits(scaled_space.std, np.ldexp(space.std, k))


def _blob_points(rng, centers, per_cluster=30, spread=0.15):
    points, assignments = [], {}
    for cluster, center in enumerate(centers, start=1):
        for i in range(per_cluster):
            tid = f"c{cluster}_{i:03d}"
            points.append(FeaturePoint(tid, center + rng.normal(0, spread, size=3)))
            assignments[tid] = cluster
    return points, assignments


def test_select_representatives_far_side_oracle():
    rng = np.random.default_rng(48)
    centers = np.array(
        [[3.0, 0, 0], [-3.0, 0, 0], [0, 3.0, 0], [0, 0, 3.0]]
    )
    points, assignments = _blob_points(rng, centers)
    space = FeatureSpace(("a", "b", "c"), np.zeros(3), np.ones(3))
    model = select_representatives(points, assignments, [1, 2, 3, 4], space)
    # independent brute force with the same rule
    for slot, cluster in enumerate([1, 2, 3, 4]):
        best = None
        for p in points:
            if assignments[p.tower_id] != cluster:
                continue
            neighbors = sum(
                1
                for q in points
                if q.tower_id != p.tower_id and np.linalg.norm(q.f - p.f) <= DENSITY_RADIUS
            )
            if neighbors < MIN_DENSITY:
                continue
            sep = min(
                np.linalg.norm(q.f - p.f)
                for q in points
                if assignments[q.tower_id] != cluster
            )
            key = (-sep, -neighbors, p.tower_id)
            if best is None or key < best[0]:
                best = (key, p.tower_id)
        assert model.vertices[slot].tower_id == best[1]


def neighbour_counts(points):
    """How many other points lie within DENSITY_RADIUS of each point."""
    return [
        sum(1 for q in points if q is not p and np.linalg.norm(q.f - p.f) <= DENSITY_RADIUS)
        for p in points
    ]


def brute_force_representative(points, assignments, cluster):
    """The rule of test_select_representatives_far_side_oracle: the dense
    member of largest separation, then most neighbours, then smallest id."""
    best = None
    for p, neighbors in zip(points, neighbour_counts(points)):
        if assignments[p.tower_id] != cluster or neighbors < MIN_DENSITY:
            continue
        sep = min(
            np.linalg.norm(q.f - p.f) for q in points if assignments[q.tower_id] != cluster
        )
        key = (-sep, -neighbors, p.tower_id)
        if best is None or key < best[0]:
            best = (key, p)
    return None if best is None else best[1]


def is_flat(vertices):
    """PolygonModel's flatness test: the edges from the first vertex, scaled
    by one power of two, span no more volume than MIN_SIMPLEX_VOLUME."""
    edges = np.array(vertices) - vertices[0]
    scaled = unit_scaled(edges.ravel())[0].reshape(edges.shape)
    return simplex_volume(list(scaled)) <= MIN_SIMPLEX_VOLUME


@st.composite
def representative_cases(draw):
    """Points on a half-unit grid, drawn in blobs of 2 x 2 x 2 grid points
    with duplicates among them, in clusters 1 to 4 and a fifth cluster that
    is no vertex. Every distance is 0.5 * sqrt(k) for an integer k, so it is
    exact: a neighbour lies exactly at DENSITY_RADIUS, separations tie, and
    dense blobs give neighbour counts on both sides of MIN_DENSITY. The ids
    are numbers, or differ only in how many NULs end them."""
    grid = st.lists(st.integers(-4, 4), min_size=3, max_size=3)
    centers = draw(st.lists(grid, min_size=2, max_size=4))
    offset = st.lists(st.integers(0, 1), min_size=3, max_size=3)
    size = draw(st.integers(4, 60))
    cells = draw(st.lists(st.tuples(st.sampled_from(centers), offset), min_size=size, max_size=size))
    nuls = draw(st.booleans())
    ids = ["t" + "\0" * i if nuls else str(i) for i in draw(st.permutations(range(size)))]
    labels = [1, 2, 3, 4] + draw(
        st.lists(st.integers(1, 5), min_size=size - 4, max_size=size - 4)
    )
    points = [FeaturePoint(t, 0.5 * np.add(c, o, dtype=float)) for t, (c, o) in zip(ids, cells)]
    return points, dict(zip(ids, labels))


@given(representative_cases())
def test_select_representatives_property_equals_brute_force(case):
    points, assignments = case
    counts = neighbour_counts(points)
    for k in (MIN_DENSITY - 1, MIN_DENSITY):
        if k in counts:
            event(f"a point with exactly {k} neighbours")
    space = FeatureSpace(("a", "b", "c"), np.zeros(3), np.ones(3))
    expected = [brute_force_representative(points, assignments, c) for c in (1, 2, 3, 4)]

    def pick():
        return select_representatives(points, assignments, [1, 2, 3, 4], space)

    if None in expected:
        event("a vertex cluster with no dense point")
        with pytest.raises(DecomposeError, match=f">= {MIN_DENSITY} neighbors within"):
            pick()
    elif is_flat([p.f for p in expected]):
        event("a flat simplex")
        with pytest.raises(DecomposeError, match="flat simplex"):
            pick()
    else:
        event("four vertices")
        assert [v.tower_id for v in pick().vertices] == [p.tower_id for p in expected]


def test_select_representatives_rejects_outlier():
    rng = np.random.default_rng(49)
    centers = np.array([[2.0, 0, 0], [-2.0, 0, 0], [0, 2.0, 0], [0, 0, 2.0]])
    points, assignments = _blob_points(rng, centers, per_cluster=20, spread=0.1)
    outlier = FeaturePoint("c1_outlier", np.array([50.0, 0.0, 0.0]))
    points.append(outlier)
    assignments["c1_outlier"] = 1
    space = FeatureSpace(("a", "b", "c"), np.zeros(3), np.ones(3))
    model = select_representatives(points, assignments, [1, 2, 3, 4], space)
    assert model.vertices[0].tower_id != "c1_outlier"


@pytest.mark.parametrize("f, message", [
    ([math.nan, 0.0, 0.0], "^tower 'c1_007': coordinate 0 holds nan, not a finite value$"),
    ([0.0, 0.0, -math.inf], "^tower 'c1_007': coordinate 2 holds -inf, not a finite value$"),
    ([[0.0, 0.0, 0.0]], r"^tower 'c1_007': point of shape \(1, 3\)$"),
    ([0.0, 0.0], "^tower 'c1_007': point holds 2, not 3 coordinates$"),
])
def test_select_representatives_names_a_point_that_is_not_finite(f, message):
    # a nan coordinate once reached KDTree, and a point of 2 coordinates
    # np.stack, and each raised a bare ValueError
    rng = np.random.default_rng(49)
    centers = np.array([[2.0, 0, 0], [-2.0, 0, 0], [0, 2.0, 0], [0, 0, 2.0]])
    points, assignments = _blob_points(rng, centers, per_cluster=10, spread=0.1)
    space = FeatureSpace(("a", "b", "c"), np.zeros(3), np.ones(3))
    with pytest.raises(DecomposeError, match=message):
        points[7] = FeaturePoint(points[7].tower_id, f)
        select_representatives(points, assignments, [1, 2, 3, 4], space)


def test_a_point_cannot_change_once_checked():
    # Its coordinates are a read-only float64 view; the caller's own array stays writable.
    f = np.arange(3)
    point = FeaturePoint("p", f)
    assert point.f.dtype == np.float64 and f.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        point.f[0] = math.nan
    with pytest.raises(dataclasses.FrozenInstanceError):
        point.f = np.full(3, math.nan)


def test_select_representatives_density_error_names_the_cluster():
    points = [FeaturePoint(f"p{i}", np.array([float(i), 0, 0])) for i in range(8)]
    assignments = {f"p{i}": (i % 4) + 1 for i in range(8)}
    space = FeatureSpace(("a", "b", "c"), np.zeros(3), np.ones(3))
    with pytest.raises(DecomposeError, match="^no tower in cluster 1 has >= 5 neighbors within 0.5$"):
        select_representatives(points, assignments, [1, 2, 3, 4], space)


@pytest.mark.parametrize("vertex_clusters, relabel, message", [
    ([1, 2, 3], {}, "^expected 4 vertex clusters, got 3$"),
    ([1, 2, 3, 4, 5], {}, "^expected 4 vertex clusters, got 5$"),
    ([1, 2, 3, 9], {}, "^vertex cluster 9 has no towers$"),
    ([1, 2, 3, 4], {2: 1, 3: 1, 4: 1}, "^representative selection needs other clusters$"),
])
def test_select_representatives_rejects_bad_vertex_clusters(vertex_clusters, relabel, message):
    rng = np.random.default_rng(49)
    centers = np.array([[2.0, 0, 0], [-2.0, 0, 0], [0, 2.0, 0], [0, 0, 2.0]])
    points, assignments = _blob_points(rng, centers, per_cluster=20, spread=0.1)
    assignments = {t: relabel.get(c, c) for t, c in assignments.items()}
    space = FeatureSpace(("a", "b", "c"), np.zeros(3), np.ones(3))
    with pytest.raises(DecomposeError, match=message):
        select_representatives(points, assignments, vertex_clusters, space)


@pytest.mark.parametrize("keep_points, keep_assignments", [(False, True), (True, False)])
def test_select_representatives_needs_a_labelled_point(keep_points, keep_assignments):
    # numpy's bare "need at least one array to stack" once escaped here
    centers = np.array([[2.0, 0, 0], [-2.0, 0, 0], [0, 2.0, 0], [0, 0, 2.0]])
    points, assignments = _blob_points(np.random.default_rng(49), centers, per_cluster=20, spread=0.1)
    space = FeatureSpace(("a", "b", "c"), np.zeros(3), np.ones(3))
    with pytest.raises(DecomposeError, match="^representative selection needs points with a cluster"):
        select_representatives(points if keep_points else [], assignments if keep_assignments else {},
                               [1, 2, 3, 4], space)


def test_mixture_and_vertices_io(tmp_path):
    rng = np.random.default_rng(50)
    model = make_model(random_simplex(rng))
    mix = solve_mixture(rng.uniform(-1, 1, size=3), model)
    mix = MixtureCoefficients("towerX", mix.x, mix.residual)
    mpath = write_mixtures(tmp_path / "m.csv", [mix])
    loaded = read_mixtures(mpath)[0]
    np.testing.assert_allclose(loaded.x, mix.x, rtol=0, atol=0)
    vpath = write_vertices(tmp_path / "v.json", model)
    loaded_model = read_vertices(vpath)
    assert [v.tower_id for v in loaded_model.vertices] == [
        v.tower_id for v in model.vertices
    ]
    np.testing.assert_allclose(loaded_model.matrix, model.matrix)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "m.csv: bad mixtures header: no header row"),
        ("tower_id,x1,x2,x3,x4,residual\nt1,1,0\n", "m.csv line 2: expected 6 fields, got 3"),
        ("tower_id,x1,x2,x3,x4,residual\nt1,1,0,0,0,0,9\n", "m.csv line 2: expected 6 fields, got 7"),
        ("tower_id,x1,x2,x3,x4,residual\nt1,1,0,0,0,x\n", "m.csv line 2: could not convert"),
        ("tower_id,x1,x2,x3,x4,residual\nt1,1,0,0,0,0\nt2,1,nan,0,0,0\n", "m.csv line 3: x2 holds nan, not a number"),
        ("tower_id,x1,x2,x3,x4,residual\nt1,1,0,0,0,NaN\n", "m.csv line 2: residual holds nan, not a number"),
        ("tower_id,x1,x2,x3,x4,residual\na,1,0,0,0,0\na,0,1,0,0,0\n", "m.csv line 3: tower a is repeated"),
    ],
)
def test_read_mixtures_rejects_malformed_file(tmp_path, text, message):
    path = tmp_path / "m.csv"
    path.write_text(text)
    with pytest.raises(DecomposeError, match=message):
        read_mixtures(path)


SIMPLEX = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]


def _vertices_json(standardized, mean=(0, 0, 0), std=(1, 1, 1)):
    return json.dumps({
        "feature_names": ["a", "b", "c"],
        "standardization": {"mean": list(mean), "std": list(std)},
        "vertices": [
            {"cluster": i, "tower_id": f"v{i}", "standardized": f} for i, f in enumerate(standardized)
        ],
    })


@pytest.mark.parametrize(
    "text, message",
    [
        ("{}", "v.json: KeyError: 'feature_names'"),
        ("[1]", "v.json: TypeError"),
        ('{"feature_names": [], "standardization": {"mean": "x", "std": []}}', "v.json: ValueError"),
        ("{", "v.json: JSONDecodeError"),
        pytest.param("[" * 200000, "v.json: RecursionError", id="deep_nesting"),
        (_vertices_json([[0, 0, 0], [1, 0, 0], [0, 1, 0]]), "v.json: DecomposeError: .* needs 4 vertices"),
        (_vertices_json([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, math.nan]]), "v.json: DecomposeError: .* finite"),
        (_vertices_json([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]), "v.json: DecomposeError: .* flat simplex"),
        (_vertices_json([[0, 0, 0], [1e200, 0, 0], [0, 1e200, 0], [0, 0, 1e200]]),
         "v.json: DecomposeError: .* vertices are too large"),
        (_vertices_json(SIMPLEX, mean=(0, math.nan, 0)),
         r"v.json: DecomposeError: feature b: mean holds nan, not a finite mean$"),
        (_vertices_json(SIMPLEX, mean=(0, 0)), r"v.json: DecomposeError: .* not mean \[0.0, 0.0\] and"),
        (_vertices_json(SIMPLEX, std=(1, math.nan, 1)),
         r"v.json: DecomposeError: feature b: std holds nan, not a finite std$"),
        (_vertices_json(SIMPLEX, std=(1, 0, 1)), r"v.json: DecomposeError: feature b: mean 0.0 and std 0.0"),
        (_vertices_json(SIMPLEX, std=(1, 1, 1, 1)), r"v.json: DecomposeError: .* and std \[1.0, 1.0, 1.0, 1.0\]"),
    ],
)
def test_read_vertices_rejects_malformed_file(tmp_path, text, message):
    path = tmp_path / "v.json"
    path.write_text(text)
    with pytest.raises(DecomposeError, match=message):
        read_vertices(path)
