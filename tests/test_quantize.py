import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disq.dataio import FeatureSequence
from disq.quantize import (
    OPENSMILE_CATEGORIES,
    CategoryTable,
    Codebook,
    FeatureCategory,
    TokenSequence,
    _column_sq_dist,
    _kmeanspp_init,
    _lloyd_update,
    _rescore,
    assign,
    kmeans_fit,
    nearest_centroids,
    quantize_opensmile,
    reconstruct,
    reconstruction_mse,
    rvq_decode,
    rvq_encode,
    rvq_fit,
)


# --- independent oracles -------------------------------------------------------


def brute_force_assign(x, centroids):
    """Scalar-loop nearest neighbor using the direct (x-c)^2 formula."""
    out = []
    for row in x:
        best, best_d = 0, float(((row - centroids[0]) ** 2).sum())
        for j in range(1, len(centroids)):
            d = float(((row - centroids[j]) ** 2).sum())
            if d < best_d:
                best, best_d = j, d
        out.append(best)
    return np.array(out)


def best_1d_two_partition(values):
    """Exhaustive optimal 2-clustering of sorted 1-D points (optimum is contiguous)."""
    v = np.sort(np.asarray(values, dtype=float))
    best_mse, best_centroids = np.inf, None
    for cut in range(1, len(v)):
        left, right = v[:cut], v[cut:]
        sse = ((left - left.mean()) ** 2).sum() + ((right - right.mean()) ** 2).sum()
        mse = sse / len(v)
        if mse < best_mse:
            best_mse, best_centroids = mse, (left.mean(), right.mean())
    return best_mse, best_centroids


def reference_kmeanspp_init(x, k, rng):
    """k-means++ seeding with row-wise distance sums, draw for draw as in kmeans_fit."""
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]))
    chosen = np.zeros(n, dtype=bool)
    first = int(rng.integers(n))
    centroids[0] = x[first]
    chosen[first] = True
    d2 = ((x - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = float(d2.sum())
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            candidates = np.flatnonzero(~chosen)
            pool = candidates if candidates.size else np.arange(n)
            idx = int(pool[rng.integers(pool.size)])
        centroids[j] = x[idx]
        chosen[idx] = True
        d2 = np.minimum(d2, ((x - centroids[j]) ** 2).sum(axis=1))
    return centroids


def reference_lloyd_update(x, centroids, assign_idx, d2, k):
    """Mean update with a row-wise scatter-add, then farthest-point reseeding."""
    counts = np.bincount(assign_idx, minlength=k)
    sums = np.zeros_like(centroids)
    np.add.at(sums, assign_idx, x)
    new = centroids.copy()
    occupied = counts > 0
    new[occupied] = sums[occupied] / counts[occupied, None]
    empty = np.flatnonzero(~occupied)
    if empty.size:
        d2 = d2.copy()
        for j in empty:
            far = int(np.argmax(d2))
            new[j] = x[far]
            d2[far] = -1.0
    return new, bool(empty.size)


def brute_force_nearest(x, centroids):
    """Per-row direct (x-c)^2 distances; argmin keeps the lowest index on ties."""
    d2 = np.empty(len(x))
    idx = np.empty(len(x), dtype=np.int64)
    for i, row in enumerate(x):
        dist = ((row - centroids) ** 2).sum(axis=1)
        idx[i] = np.argmin(dist)
        d2[i] = dist[idx[i]]
    return d2, idx


# --- quantizer kernels against the reference implementations -------------------

KERNEL_SHAPES = [(60, 1, 5), (200, 3, 16), (500, 6, 32), (400, 14, 64), (300, 32, 40)]


@pytest.mark.parametrize("n,d,k", KERNEL_SHAPES)
def test_kmeanspp_init_matches_reference_bitwise(n, d, k):
    for seed in range(4):
        x = np.random.default_rng(seed).standard_normal((n, d)) * (1.0 + seed)
        got = _kmeanspp_init(x, k, np.random.default_rng(seed))
        want = reference_kmeanspp_init(x, k, np.random.default_rng(seed))
        assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "x,k",
    [
        (np.full((10, 3), 2.5), 4),  # all points coincide: uniform fallback from j=1
        # alternating duplicate rows: fallback after two draws
        (np.tile([[0.0, 0.0], [1.0, 1.0]], (6, 1)), 5),
    ],
)
def test_kmeanspp_init_degenerate_fallback_matches_reference(x, k):
    for seed in range(6):
        rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _kmeanspp_init(x, k, rng_got)
        want = reference_kmeanspp_init(x, k, rng_want)
        assert np.array_equal(got, want)
        # both consumed the same draws
        assert rng_got.integers(1 << 30) == rng_want.integers(1 << 30)


def _bound_stress_cases():
    """Data on which the expansion |x|^2 - 2 x.c + |c|^2 is far from the exact distance."""
    rng = np.random.default_rng(71)
    base = rng.standard_normal(6)
    bumps = rng.integers(0, 2, size=(80, 6)).astype(bool)
    cases = {
        # the expansion cancels 1e8-sized terms down to 1e-6-sized distances
        "common_offset": (1e4 + 1e-3 * rng.standard_normal((300, 8)), 40),
        "tiny_scale": (1e-150 * rng.standard_normal((200, 6)), 30),
        # |x|^2 overflows, so the bound is NaN and every point is rescored
        "overflowing_norms": (1e160 + 1e150 * rng.standard_normal((100, 4)), 20),
        # squares below 2^-1022: each product may lose up to half a subnormal step
        "subnormal_grid": (1e-162 * rng.integers(-3, 4, size=(400, 3)), 30),
        "mixed_row_scales": (rng.standard_normal((200, 5)) * 10.0 ** rng.uniform(-100, 100, (200, 1)), 30),
        # 64 distinct rows, one ulp apart per coordinate: the uniform fallback runs too
        "one_ulp_apart": (np.where(bumps, np.nextafter(base, np.inf), base), 24),
        "d_is_1": (rng.standard_normal((100, 1)), 30),
        "k_is_n": (rng.standard_normal((25, 3)), 25),
    }
    # float32 seeding bound: drawn after the cases above, which keep their data
    unit_rows = rng.standard_normal((4, 5))
    row_scales = np.where(rng.random((200, 1)) < 0.5, 1e-60, 1.0)
    return cases | {
        # row scales 1e-60 against 1: the small rows' scaled coordinates underflow float32 to 0
        "float32_underflow_rows": (row_scales * rng.standard_normal((200, 6)), 30),
        # points 1e-30 across beside unit-scale rows: their scaled d2 lies below float32's range
        "d2_below_float32_range": (np.vstack([unit_rows, 1e-30 * rng.standard_normal((200, 5))]), 30),
        # ... and near 1e-45, float32's subnormal steps, where only the bound's eta covers underflow
        "d2_at_float32_subnormals": (
            np.vstack([unit_rows, 10.0 ** rng.uniform(-23, -22, (200, 1)) * rng.standard_normal((200, 5))]),
            30,
        ),
        "float32_near_ties": (_near_tie_rows(rng), 30),
    }


def _near_tie_rows(rng):
    """Two far anchors and points on their bisector, moved off it by 0 to a few float32 ulps.

    Once both anchors are centres, a point's distances to them differ by 4 times its offset,
    about the resolution of the float32 bound at this scale.
    """
    rows = rng.standard_normal((200, 4))
    rows[:, 0] = rng.integers(-1, 2, 200) * np.ldexp(1.0, rng.integers(-30, -18, 200))
    anchors = np.zeros((2, 4))
    anchors[:, 0] = (-3.0, 3.0)
    return np.vstack([anchors, rows])


@pytest.mark.parametrize("case", sorted(_bound_stress_cases()))
def test_kmeanspp_init_bound_stress_matches_reference(case):
    x, k = _bound_stress_cases()[case]
    for seed in range(6):
        rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _kmeanspp_init(x, k, rng_got)
        want = reference_kmeanspp_init(x, k, rng_want)
        assert np.array_equal(got, want)
        assert rng_got.integers(1 << 30) == rng_want.integers(1 << 30)


def test_column_sq_dist_is_the_same_for_any_column_count():
    rng = np.random.default_rng(73)
    xt = np.ascontiguousarray(rng.standard_normal((32, 50)) * 10.0 ** rng.uniform(-3, 3, (32, 1)))
    c = rng.standard_normal(32)
    full = _column_sq_dist(xt, c)
    for cols in ([7], [0, 49], list(range(1, 50, 3))):
        assert np.array_equal(_column_sq_dist(np.take(xt, cols, axis=1), c), full[cols])


def test_kmeanspp_init_rescores_few_points(tiny_dataset, monkeypatch):
    """Only points the bound cannot rule out get an exact distance after the first centre."""
    x = np.concatenate([u.layers[3].frames for u in tiny_dataset.utterances["train"]])
    n, k = len(x), 64
    columns = []

    def counting(xt, c):
        columns.append(xt.shape[1])
        return _column_sq_dist(xt, c)

    monkeypatch.setattr("disq.quantize._column_sq_dist", counting)
    got = _kmeanspp_init(x, k, np.random.default_rng(0))
    assert np.array_equal(got, reference_kmeanspp_init(x, k, np.random.default_rng(0)))
    assert columns[0] == n  # the first centre scores every point
    assert sum(columns[1:]) < 0.25 * n * (k - 1)


@pytest.mark.parametrize("n,d,k", KERNEL_SHAPES)
def test_lloyd_update_matches_scatter_add_bitwise(n, d, k):
    for seed in range(4):
        rng = np.random.default_rng(100 + seed)
        x = rng.standard_normal((n, d)) * 3.0
        centroids = rng.standard_normal((k, d))
        # leave some clusters empty so the reseeding path runs too
        assign_idx = rng.integers(k // 2 if seed % 2 else k, size=n)
        d2 = rng.random(n)
        got = _lloyd_update(x, centroids, assign_idx, d2, k)
        want = reference_lloyd_update(x, centroids, assign_idx, d2, k)
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]


def test_nearest_centroids_matches_brute_force_across_chunks():
    # k=4000 puts 1000 rows in a chunk, so 2500 rows take three chunks
    rng = np.random.default_rng(53)
    # 343 grid points for 4000 rows: many duplicated centroids
    centroids = rng.integers(-3, 4, size=(4000, 3)).astype(float)
    centroids[1:40] = centroids[0]
    # half-integer frames are equidistant from several grid points: exact ties
    x = rng.integers(-8, 9, size=(2500, 3)) / 2.0
    x[::7] = centroids[rng.integers(4000, size=len(x[::7]))]  # frames sitting on centroids
    d2, idx = nearest_centroids(x, centroids)
    want_d2, want_idx = brute_force_nearest(x, centroids)
    assert np.array_equal(idx, want_idx)
    assert np.array_equal(d2, want_d2)
    assert np.all(d2[::7] == 0.0)
    first_of_value = {}
    for j, row in enumerate(map(tuple, centroids)):
        first_of_value.setdefault(row, j)
    assert all(idx[i] == first_of_value[tuple(x[i])] for i in range(0, len(x), 7))
    # tied distances really occur, and every tie went to the lowest index
    n_ties = 0
    for row, i in zip(x, idx):
        dist = ((row - centroids) ** 2).sum(axis=1)
        tied = np.flatnonzero(dist == dist[i])
        n_ties += len(np.unique(centroids[tied], axis=0)) > 1
        assert i == tied[0]
    assert n_ties > 100


def test_nearest_centroids_matches_brute_force_random_chunked():
    rng = np.random.default_rng(59)
    centroids = rng.standard_normal((4000, 6))
    x = rng.standard_normal((2500, 6))
    d2, idx = nearest_centroids(x, centroids)
    want_d2, want_idx = brute_force_nearest(x, centroids)
    assert np.array_equal(idx, want_idx)
    assert d2 == pytest.approx(want_d2, rel=1e-12)


def _assignment_stress_cases():
    """(x, centroids) on which a float32 score alone cannot rank the centroids."""
    rng = np.random.default_rng(61)
    grid = np.array([[i, j] for i in range(-2, 3) for j in range(-2, 3)], dtype=float)
    dup = rng.standard_normal((10, 5))
    dup = dup[[3, 0, 7, 3, 1, 0, 9, 7, 2, 4, 5, 6, 8]]  # rows 3, 0 and 7 come twice
    dup_x = np.vstack([rng.standard_normal((150, 5)), dup[rng.integers(len(dup), size=50)]])
    # centroids at -a and +a, each also one ulp out and in; rows a few
    # quarter-ulps of a from 0, so the best two distances tie or differ by
    # an ulp or two of themselves
    a = 1.5
    ulp_c = np.array([[-a], [a], [np.nextafter(a, 2.0)], [-np.nextafter(a, 2.0)], [np.nextafter(a, 0.0)]])
    ulp_c = np.vstack([ulp_c, [[-np.nextafter(a, 0.0)]]])
    ulp_x = rng.integers(-8, 9, size=(200, 1)) * (np.spacing(a) / 4)
    c8 = rng.standard_normal((16, 8))
    return {
        "equidistant": (rng.integers(-6, 7, size=(400, 2)) / 2.0, grid),
        "duplicated_centroids": (dup_x, dup),
        "one_ulp_apart": (ulp_x, ulp_c),
        "scale_1e-150": (1e-150 * rng.standard_normal((300, 6)), 1e-150 * rng.standard_normal((20, 6))),
        # direct distances are subnormal or 0, so rounding decides the ties
        "scale_1e-170": (1e-170 * rng.standard_normal((300, 6)), 1e-170 * rng.standard_normal((20, 6))),
        "scale_1e150": (1e150 * rng.standard_normal((300, 6)), 1e150 * rng.standard_normal((20, 6))),
        "offset_1e4": (1e4 + 1e-3 * rng.standard_normal((300, 8)), 1e4 + 1e-3 * c8),
        # |c|^2 overflows while every direct distance is finite, about 1e302
        "offset_1e154": (1e154 * (1 + 1e-3 * rng.standard_normal((300, 8))), 1e154 * (1 + 1e-3 * c8)),
        # most direct distances overflow; rows whose every distance does tie at index 0
        "overflowing_distances": (1e154 * rng.standard_normal((300, 8)), 1e154 * c8),
        # x alone would scale the centroids past the float32 range
        "small_x_large_c": (1e-20 * rng.standard_normal((200, 4)), 1e20 * rng.standard_normal((30, 4))),
        # the centroids' x.c terms differ by about an ulp of |x|^2
        "large_x_small_c": (1e3 * rng.standard_normal((200, 4)), 1e-13 * rng.standard_normal((30, 4))),
        # one large row sets the scale; the scores of the rest are float32 subnormals
        "subnormal_scores": (
            np.vstack([np.ones((1, 4)), 1e-22 * rng.standard_normal((300, 4))]),
            1e-22 * rng.standard_normal((20, 4)),
        ),
        "k_is_1": (rng.standard_normal((50, 3)), rng.standard_normal((1, 3))),
        "d_is_1": (rng.integers(-20, 21, size=(300, 1)) / 2.0, rng.integers(-10, 11, size=(15, 1)).astype(float)),
        # 4_000_000 // 5000 = 800 rows per chunk, fewer than the K centroids
        "k_above_chunk": (rng.standard_normal((1200, 1)), rng.standard_normal((5000, 1))),
    }


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("case", sorted(_assignment_stress_cases()))
def test_nearest_centroids_stress_matches_brute_force(case):
    x, centroids = _assignment_stress_cases()[case]
    d2, idx = nearest_centroids(x, centroids)
    want_d2, want_idx = brute_force_nearest(x, centroids)
    assert np.array_equal(idx, want_idx)
    diff = x - centroids[idx]
    assert np.array_equal(d2, np.einsum("nd,nd->n", diff, diff))
    assert d2 == pytest.approx(want_d2, rel=1e-12)
    cb = Codebook(centroids, "s", len(centroids), 0, 0.0, 1)
    assert np.array_equal(assign(cb, FeatureSequence(x)).indices, want_idx)


def test_nearest_centroids_near_ties_are_real():
    """The stress data above does put rows on exact and one-ulp ties."""
    cases = _assignment_stress_cases()

    def best_two(case):
        x, centroids = cases[case]
        return np.sort([((row - centroids) ** 2).sum(axis=1) for row in x], axis=1)[:, :2]

    assert np.sum(np.diff(best_two("equidistant"), axis=1) == 0) > 20
    ulp = best_two("one_ulp_apart")
    assert np.sum(ulp[:, 1] == ulp[:, 0]) > 20
    assert np.sum(ulp[:, 1] == np.nextafter(ulp[:, 0], np.inf)) > 20


def test_kmeans_fit_follows_brute_force_at_overflowing_norms():
    # |c|^2 is about 1e309: an expansion of the distance would score NaN
    rng = np.random.default_rng(67)
    x = 1e154 * (1 + 1e-3 * rng.standard_normal((300, 8)))
    cb = kmeans_fit(x, 16, seed=0, max_iters=4)
    centroids = reference_kmeanspp_init(x, 16, np.random.default_rng(0))
    for _ in range(cb.iterations_run - 1):
        d2, idx = brute_force_nearest(x, centroids)
        centroids, _ = reference_lloyd_update(x, centroids, idx, d2, 16)
    assert cb.iterations_run > 1
    assert np.array_equal(cb.centroids, centroids)


def test_nearest_centroids_rescores_few_rows(tiny_dataset, monkeypatch):
    """The float32 pass decides almost every row; few reach the direct rescoring."""
    x = np.concatenate([u.layers[3].frames for u in tiny_dataset.utterances["train"]])
    scored, rescored = [], []

    def scoring(x, centroids, rows=None):
        scored.append(len(x))
        return nearest_centroids(x, centroids, rows)

    def rescoring(x, centroids, cand):
        rescored.append(len(x))
        return _rescore(x, centroids, cand)

    monkeypatch.setattr("disq.quantize.nearest_centroids", scoring)
    monkeypatch.setattr("disq.quantize._rescore", rescoring)
    cb = kmeans_fit(x, 64, seed=0)
    assert len(scored) == cb.iterations_run
    assert sum(rescored) < 0.01 * sum(scored)
    assert np.array_equal(nearest_centroids(x, cb.centroids)[1], brute_force_nearest(x, cb.centroids)[1])


# --- kmeans_fit -----------------------------------------------------------------


def test_two_point_clusters():
    x = np.vstack([np.zeros((10, 2)), np.full((10, 2), 10.0)])
    cb = kmeans_fit(x, 2, seed=0)
    assert cb.final_distortion == 0.0
    rows = sorted(map(tuple, cb.centroids))
    assert rows == [(0.0, 0.0), (10.0, 10.0)]


def test_k_equals_n_distinct_points():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((12, 3))
    cb = kmeans_fit(x, 12, seed=5)
    assert cb.final_distortion == 0.0
    assert np.array_equal(np.sort(cb.centroids, axis=0), np.sort(x, axis=0))


def test_1d_two_clusters_match_partition_oracle():
    x = np.arange(10.0).reshape(-1, 1)
    oracle_mse, oracle_centroids = best_1d_two_partition(x.ravel())
    assert oracle_mse == pytest.approx(2.0)  # clusters {0..4}, {5..9}
    assert sorted(oracle_centroids) == [2.0, 7.0]
    # single-run Lloyd never beats the exhaustive optimum
    for seed in range(10):
        assert kmeans_fit(x, 2, seed=seed).final_distortion >= oracle_mse - 1e-12
    # and attains it (this instance also has 2.25-valued local optima; these
    # seeds converge to the global one)
    for seed in (5, 7):
        cb = kmeans_fit(x, 2, seed=seed)
        assert cb.final_distortion == oracle_mse
        assert sorted(cb.centroids.ravel()) == [2.0, 7.0]


def test_kmeans_preconditions():
    x = np.zeros((3, 2))
    with pytest.raises(ValueError):
        kmeans_fit(x, 4, seed=0)  # N < K
    with pytest.raises(ValueError):
        kmeans_fit(x, 0, seed=0)
    with pytest.raises(ValueError):
        kmeans_fit(np.array([[np.nan, 0.0]]), 1, seed=0)


def test_lloyd_distortion_history_non_increasing():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((400, 6))
    cb = kmeans_fit(x, 12, seed=1)
    h = np.array(cb.distortion_history)
    assert len(h) == cb.iterations_run
    assert np.all(np.diff(h) <= 1e-9 * np.maximum(1.0, h[:-1]))
    assert cb.final_distortion == h[-1]


def test_distortion_decreases_with_k():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((600, 8))
    d = [kmeans_fit(x, k, seed=0).final_distortion for k in (4, 8, 16)]
    assert d[0] > d[1] > d[2]


def test_kmeans_bitwise_deterministic():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((200, 5))
    a = kmeans_fit(x, 8, seed=3)
    b = kmeans_fit(x, 8, seed=3)
    assert np.array_equal(a.centroids, b.centroids)
    assert a.distortion_history == b.distortion_history


def test_no_duplicate_centroids_on_generic_data():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((300, 4))
    cb = kmeans_fit(x, 24, seed=2)
    assert len(np.unique(cb.centroids, axis=0)) == cb.k


def test_degenerate_data_keeps_k_rows():
    # only two distinct points but k=3: duplicates are unavoidable, fit still completes
    x = np.vstack([np.zeros((25, 2)), np.ones((25, 2))])
    cb = kmeans_fit(x, 3, seed=0)
    assert cb.centroids.shape == (3, 2)
    assert cb.final_distortion == 0.0


# --- assign / reconstruct -------------------------------------------------------


def test_assign_frame_at_centroid():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((50, 4))
    cb = kmeans_fit(x, 8, seed=0)
    tokens = assign(cb, FeatureSequence(cb.centroids[3][None, :]))
    assert tokens.indices.tolist() == [3]


def test_assign_tie_breaks_to_lowest_index():
    cb = kmeans_fit(np.array([[0.0, 0.0]] * 3 + [[2.0, 0.0]] * 3), 2, seed=0)
    # sort so centroid order is known, then rebuild an explicit codebook
    order = np.argsort(cb.centroids[:, 0])
    cb.centroids = cb.centroids[order]
    tokens = assign(cb, FeatureSequence(np.array([[1.0, 0.0]])))
    assert tokens.indices.tolist() == [0]


def test_assign_matches_brute_force_random():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((50, 8))
    cb = kmeans_fit(rng.standard_normal((80, 8)), 16, seed=0)
    tokens = assign(cb, FeatureSequence(x))
    assert np.array_equal(tokens.indices, brute_force_assign(x, cb.centroids))


def test_reconstruct_lookup_and_fixed_point():
    centroids = np.array([[1.0, 1.0], [2.0, 2.0]])
    cb = kmeans_fit(np.repeat(centroids, 5, axis=0), 2, seed=0)
    order = np.argsort(cb.centroids[:, 0])
    cb.centroids = cb.centroids[order]
    recon = reconstruct(cb, TokenSequence(np.array([0, 0, 1]), "s", 2))
    assert np.array_equal(recon.frames, [[1, 1], [1, 1], [2, 2]])
    # assign-then-reconstruct of centroid-valued frames is the identity
    seq = FeatureSequence(cb.centroids[[1, 0, 1]])
    assert np.array_equal(reconstruct(cb, assign(cb, seq)).frames, seq.frames)
    with pytest.raises(ValueError):
        reconstruct(cb, TokenSequence(np.array([4]), "s", 5))


def test_reconstruction_error_matches_oracle_distances():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((40, 6))
    cb = kmeans_fit(rng.standard_normal((60, 6)), 10, seed=1)
    recon = reconstruct(cb, assign(cb, FeatureSequence(x))).frames
    per_frame = ((x - recon) ** 2).sum(axis=1)
    oracle = np.array([min(((row - c) ** 2).sum() for c in cb.centroids) for row in x])
    assert per_frame == pytest.approx(oracle, rel=1e-12)
    # and no single-centroid reconstruction beats it
    mse = reconstruction_mse(x, recon)
    for c in cb.centroids:
        assert mse <= reconstruction_mse(x, np.tile(c, (len(x), 1))) + 1e-12


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(5, 60),
    d=st.integers(1, 6),
    k=st.integers(1, 12),
    seed=st.integers(0, 10_000),
)
def test_assign_matches_brute_force_property(n, d, k, seed):
    rng = np.random.default_rng(seed)
    k = min(k, n)
    cb = kmeans_fit(rng.standard_normal((n, d)), k, seed=seed)
    x = rng.standard_normal((20, d))
    tokens = assign(cb, FeatureSequence(x))
    assert np.array_equal(tokens.indices, brute_force_assign(x, cb.centroids))


def test_assign_dim_mismatch():
    cb = kmeans_fit(np.zeros((4, 3)), 1, seed=0)
    with pytest.raises(ValueError):
        assign(cb, FeatureSequence(np.zeros((2, 2))))


# --- residual quantizer ---------------------------------------------------------


def test_rvq_single_stage_reduces_to_kmeans():
    rng = np.random.default_rng(23)
    x = rng.standard_normal((100, 4))
    rvq = rvq_fit(x, n_stages=1, k_per_stage=8, seed=5)
    cb = kmeans_fit(x, 8, seed=5)
    assert np.array_equal(rvq.stages[0].centroids, cb.centroids)


def test_rvq_on_centroid_exact_data():
    support = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [4.0, 4.0]])
    x = np.repeat(support, 10, axis=0)
    rvq = rvq_fit(x, n_stages=3, k_per_stage=4, seed=0)
    assert rvq.residual_energies[0] == pytest.approx(0.0, abs=1e-24)
    # later stages see an all-zero residual and collapse to (near-)zero centroids
    assert np.abs(rvq.stages[1].centroids).max() == pytest.approx(0.0, abs=1e-12)
    tokens = rvq_encode(rvq, FeatureSequence(support))
    decoded = rvq_decode(rvq, tokens)
    assert decoded.frames == pytest.approx(support, abs=1e-12)


def test_rvq_two_stages_beat_single_stage():
    rng = np.random.default_rng(29)
    centers = rng.standard_normal((4, 8)) * 4.0
    x = centers[rng.integers(4, size=500)] + rng.standard_normal((500, 8))
    two = rvq_fit(x, n_stages=2, k_per_stage=4, seed=1)
    one = kmeans_fit(x, 4, seed=1)
    tokens = rvq_encode(two, FeatureSequence(x))
    mse_two = reconstruction_mse(x, rvq_decode(two, tokens).frames)
    assert mse_two <= one.final_distortion + 1e-12


def test_rvq_decode_stage_counts():
    rng = np.random.default_rng(31)
    x = rng.standard_normal((300, 6))
    rvq = rvq_fit(x, n_stages=4, k_per_stage=8, seed=2)
    tokens = rvq_encode(rvq, FeatureSequence(x))
    zero = rvq_decode(rvq, tokens, n_stages_used=0)
    assert np.array_equal(zero.frames, np.zeros((300, 6)))
    mses = [
        reconstruction_mse(x, rvq_decode(rvq, tokens, n_stages_used=s).frames) for s in (1, 2, 4)
    ]
    assert mses[0] >= mses[1] >= mses[2]
    assert rvq.residual_energies == sorted(rvq.residual_energies, reverse=True)
    with pytest.raises(ValueError):
        rvq_decode(rvq, tokens, n_stages_used=5)


def test_rvq_decode_rejects_a_negative_stage_count():
    x = np.random.default_rng(41).standard_normal((50, 3))
    rvq = rvq_fit(x, n_stages=2, k_per_stage=4, seed=0)
    tokens = rvq_encode(rvq, FeatureSequence(x))
    with pytest.raises(ValueError, match=r"n_stages_used=-1 is not in 0\.\.2"):
        rvq_decode(rvq, tokens, n_stages_used=-1)


def test_rvq_energy_matches_decode_mse():
    rng = np.random.default_rng(37)
    x = rng.standard_normal((200, 5))
    rvq = rvq_fit(x, n_stages=3, k_per_stage=6, seed=3)
    tokens = rvq_encode(rvq, FeatureSequence(x))
    for s in (1, 2, 3):
        mse = reconstruction_mse(x, rvq_decode(rvq, tokens, n_stages_used=s).frames)
        assert mse == pytest.approx(rvq.residual_energies[s - 1], rel=1e-12)


def reference_rvq_fit(x, n_stages, k_per_stage, seed, stream_id="rvq"):
    """Stage-wise residual fit that re-assigns each stage's residual with nearest_centroids."""
    residual = x.copy()
    stages, energies = [], []
    for s in range(n_stages):
        cb = kmeans_fit(residual, k_per_stage, seed + s, stream_id=f"{stream_id}:stage{s}")
        _, idx = nearest_centroids(residual, cb.centroids)
        residual -= cb.centroids[idx]
        stages.append(cb)
        energies.append(float(np.einsum("nd,nd->n", residual, residual).mean()))
    return stages, energies


@pytest.mark.parametrize("n,d,stages,k", [(200, 5, 3, 6), (300, 8, 2, 40), (64, 2, 4, 16)])
def test_rvq_fit_matches_stagewise_reassignment_bitwise(n, d, stages, k):
    x = np.random.default_rng(n + d).standard_normal((n, d)) * 10.0 ** (np.arange(d) - d // 2)
    rvq = rvq_fit(x, stages, k, seed=5)
    want, energies = reference_rvq_fit(x, stages, k, seed=5)
    assert rvq.residual_energies == energies
    for got, ref in zip(rvq.stages, want, strict=True):
        assert got.centroids.tobytes() == ref.centroids.tobytes()
        assert (got.stream_id, got.iterations_run, got.distortion_history) == (
            ref.stream_id, ref.iterations_run, ref.distortion_history,
        )


@pytest.mark.parametrize("max_iters", [1, 3, 100])
def test_kmeans_fit_assignment_is_assign_on_its_rows(max_iters):
    """The fit's last Lloyd pass gives each row the token `assign` gives it under the returned book."""
    rng = np.random.default_rng(max_iters)
    x = np.vstack([rng.standard_normal((300, 6)), np.repeat(rng.standard_normal((3, 6)), 20, axis=0)])
    got = np.full(len(x), -1)
    cb = kmeans_fit(x, 24, 0, max_iters, assignment=got)
    assert np.array_equal(got, assign(cb, FeatureSequence(x)).indices)
    assert np.array_equal(got, brute_force_nearest(x, cb.centroids)[1])
    assert cb.centroids.tobytes() == kmeans_fit(x, 24, 0, max_iters).centroids.tobytes()


# --- paralinguistic categories ----------------------------------------------------


def test_category_table_layout():
    cats = OPENSMILE_CATEGORIES.categories
    assert [c.name for c in cats] == [
        "prosody",
        "spectral",
        "mfcc",
        "voice_quality",
        "formants",
        "auditory_bands",
        "additional",
    ]
    assert [c.dim for c in cats] == [6, 14, 14, 5, 6, 26, 3]
    assert [c.k for c in cats] == [32, 64, 64, 32, 32, 128, 16]
    assert sum(c.dim for c in cats) == 74
    # per-category sizes as listed sum to 368 (their published total row is off)
    assert sum(c.k for c in cats) == 368
    slices = dict((c.name, s) for c, s in OPENSMILE_CATEGORIES.slices())
    assert slices["prosody"] == slice(0, 6)
    assert slices["spectral"] == slice(6, 20)
    assert slices["mfcc"] == slice(20, 34)
    assert slices["voice_quality"] == slice(34, 39)
    assert slices["formants"] == slice(39, 45)
    assert slices["auditory_bands"] == slice(45, 71)
    assert slices["additional"] == slice(71, 74)


def test_category_table_dim_validation():
    with pytest.raises(ValueError):
        CategoryTable((FeatureCategory("a", 70, 8), FeatureCategory("b", 3, 8)))


@pytest.fixture(scope="module")
def osm_books():
    rng = np.random.default_rng(43)
    frames = rng.standard_normal((300, 74))
    books = {
        c.name: kmeans_fit(frames[:, cols], c.k, seed=0, stream_id=f"osm:{c.name}")
        for c, cols in OPENSMILE_CATEGORIES.slices()
    }
    return frames, books


def test_quantize_opensmile_roundtrip_mse(osm_books):
    _, books = osm_books
    rng = np.random.default_rng(47)
    h = FeatureSequence(rng.standard_normal((25, 74)), stream_id="osm")
    tokens = quantize_opensmile(h, books)
    assert list(tokens) == list(OPENSMILE_CATEGORIES.names())
    assert all(isinstance(seq, TokenSequence) and len(seq) == 25 for seq in tokens.values())
    # frames as prepare_items builds them: float32(C)[idx], category blocks side by side
    recon = np.concatenate([books[n].centroids.astype(np.float32)[seq.indices] for n, seq in tokens.items()], axis=1)
    assert recon.shape == (25, 74)
    total = reconstruction_mse(h.frames, recon)
    per_cat = sum(reconstruction_mse(h.frames[:, cols], recon[:, cols]) for _, cols in OPENSMILE_CATEGORIES.slices())
    assert total == pytest.approx(per_cat, rel=1e-12)


def test_quantize_opensmile_centroid_block_identity(osm_books):
    _, books = osm_books
    frames = np.zeros((3, 74))
    for name, cols in ((c.name, s) for c, s in OPENSMILE_CATEGORIES.slices()):
        frames[:, cols] = books[name].centroids[2]
    tokens = quantize_opensmile(FeatureSequence(frames), books)
    assert all(seq.indices.tolist() == [2, 2, 2] for seq in tokens.values())


def test_quantize_opensmile_errors(osm_books):
    _, books = osm_books
    with pytest.raises(ValueError):
        quantize_opensmile(FeatureSequence(np.zeros((2, 73))), books)
    bad = dict(books)
    bad["prosody"] = kmeans_fit(np.random.default_rng(0).standard_normal((40, 6)), 8, seed=0)
    with pytest.raises(ValueError):
        quantize_opensmile(FeatureSequence(np.zeros((2, 74))), bad)
