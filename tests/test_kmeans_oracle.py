"""Oracle equivalence: K-means over distinct cells matches per-point Lloyd.

`_reference_seed_centroids` and `_reference_lloyd` are the per-point
K-means++ seeding and Lloyd iterations that `kmeans_fit` used before it
moved its distance work to distinct points. The current fit must return
bit-identical results and consume the rng identically.
"""

import numpy as np
import pytest

from conftest import build_full_coverage_memory
from subgoal_hrl.discovery import KMeansResult, _distinct_rows, _lloyd, kmeans_fit


def _reference_seed_centroids(
    points: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """K-means++ seeding: spread initial centroids by squared distance."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=float)
    centroids[0] = points[int(rng.integers(n))]
    closest_sq = ((points - centroids[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = closest_sq.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=closest_sq / total))
        centroids[i] = points[idx]
        closest_sq = np.minimum(
            closest_sq, ((points - centroids[i]) ** 2).sum(axis=1)
        )
    return centroids


def _reference_lloyd(
    points: np.ndarray, centroids: np.ndarray, max_iter: int, tol: float
) -> KMeansResult:
    n, k = points.shape[0], centroids.shape[0]
    row_idx = np.arange(n)
    history: list[float] = []
    prev = float("inf")
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assign = d2.argmin(axis=1)
        assigned_d2 = d2[row_idx, assign]
        distortion = float(assigned_d2.sum())
        # Lloyd's guarantee: alternating assignment/update never increases
        # the distortion (empty-cluster repair moves a centroid no point
        # was assigned to, so it cannot increase any point's minimum).
        assert distortion <= prev + 1e-9 + 1e-12 * abs(prev), (
            f"distortion increased: {prev} -> {distortion}"
        )
        history.append(distortion)
        prev = distortion

        sums = np.zeros_like(centroids)
        np.add.at(sums, assign, points)
        counts = np.bincount(assign, minlength=k)
        new_centroids = centroids.copy()
        nonempty = counts > 0
        new_centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        if not nonempty.all():
            # Repair: the point farthest from its centroid becomes the
            # new centroid; take the next-farthest for further repairs.
            farthest = assigned_d2.copy()
            for cid in np.flatnonzero(~nonempty):
                j = int(farthest.argmax())
                new_centroids[cid] = points[j]
                farthest[j] = -1.0
        shift = float(np.abs(new_centroids - centroids).max())
        centroids = new_centroids
        if shift < tol:
            break
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    assign = d2.argmin(axis=1)
    distortion = float(d2[row_idx, assign].sum())
    assert distortion <= prev + 1e-9 + 1e-12 * abs(prev)
    history.append(distortion)
    return KMeansResult(
        centroids=centroids,
        assignments=assign,
        distortion=distortion,
        n_iter=n_iter,
        distortion_history=tuple(history),
    )


def _reference_kmeans_fit(points, k, rng, max_iter=100, tol=1e-6, n_init=10):
    pts = np.asarray(points, dtype=float)
    best = None
    for _ in range(n_init):
        result = _reference_lloyd(
            pts, _reference_seed_centroids(pts, k, rng), max_iter, tol
        )
        if best is None or result.distortion < best.distortion:
            best = result
    return best


def _assert_identical(got: KMeansResult, want: KMeansResult) -> None:
    assert got.centroids.tobytes() == want.centroids.tobytes()
    assert np.array_equal(got.assignments, want.assignments)
    assert got.distortion == want.distortion
    assert got.n_iter == want.n_iter
    assert got.distortion_history == want.distortion_history


def _assert_fits_match(points, k, seed, **kwargs) -> None:
    rng_new = np.random.default_rng(seed)
    rng_ref = np.random.default_rng(seed)
    _assert_identical(
        kmeans_fit(points, k, rng_new, **kwargs),
        _reference_kmeans_fit(points, k, rng_ref, **kwargs),
    )
    # Both consumed the stream identically.
    assert rng_new.random() == rng_ref.random()


@pytest.mark.parametrize("n,dim,k", [(7, 2, 3), (200, 2, 4), (500, 3, 6)])
def test_matches_reference_on_random_floats(n, dim, k):
    for seed in range(3):
        points = np.random.default_rng(100 + seed).normal(size=(n, dim))
        _assert_fits_match(points, k, seed)


def test_matches_reference_with_signed_zeros():
    # -0.0 and 0.0 collapse into one distinct row; every value the fit
    # returns must still come from the per-point data.
    points = np.array(
        [[0.0, 1.0], [-0.0, 1.0], [-0.0, -0.0], [3.0, 0.0], [3.0, -0.0],
         [0.0, 0.0], [5.0, 5.0], [5.0, 5.0]]
    )
    for seed in range(5):
        _assert_fits_match(points, 3, seed)
        # No Lloyd step: the fit returns the seeds themselves.
        _assert_fits_match(points, 3, seed, max_iter=0)


@pytest.mark.parametrize("n,k", [(50, 2), (3000, 4), (20_000, 8)])
def test_matches_reference_on_duplicated_integer_grid(n, k):
    for seed in range(3):
        points = np.random.default_rng(seed).integers(0, 6, size=(n, 2))
        _assert_fits_match(points, k, seed)


def test_matches_reference_on_full_coverage_memory():
    memory = build_full_coverage_memory()
    points = np.array([(t.s_next.x, t.s_next.y) for t in memory], dtype=float)
    for k in (1, 4, 7):
        _assert_fits_match(points, k, seed=k)


def test_matches_reference_with_few_distinct_cells():
    # Fewer distinct cells than clusters: seeding falls back to uniform
    # draws once every cell is covered.
    points = np.repeat(np.array([[1.0, 1.0], [4.0, 2.0]]), 30, axis=0)
    for seed in range(3):
        _assert_fits_match(points, 4, seed, max_iter=5)


def test_empty_cluster_repair_matches_reference():
    rng = np.random.default_rng(7)
    points = rng.integers(0, 10, size=(400, 2)).astype(float)
    cells, inverse = _distinct_rows(points)
    # Two identical starting centroids: the second one is left empty on
    # the first assignment and must be repaired.
    init = np.array([[4.0, 4.0], [4.0, 4.0], [0.0, 9.0]])
    got = _lloyd(points, cells, inverse, init.copy(), 100, 1e-6)
    want = _reference_lloyd(points, init.copy(), 100, 1e-6)
    _assert_identical(got, want)
    assert got.n_iter > 1


def test_distinct_rows_matches_numpy_unique():
    points = np.random.default_rng(3).integers(0, 4, size=(300, 3)).astype(float)
    cells, inverse = _distinct_rows(points)
    want_cells, want_inverse = np.unique(points, axis=0, return_inverse=True)
    assert np.array_equal(cells, want_cells)
    assert np.array_equal(inverse, want_inverse.reshape(-1))
    assert np.array_equal(cells[inverse], points)
