"""Oracle equivalence: weighted K-means matches per-point Lloyd.

`_reference_seed_centroids` and `_reference_lloyd` are the per-point
K-means++ seeding and Lloyd iterations that `kmeans_fit` used before it
took one weight per row. Without weights the fit must return bit-identical
results and consume the rng identically. With weights it must match the
reference on `np.repeat(rows, w, axis=0)`: the same centroids, iteration
count, rng draws and expanded assignments, and a distortion equal up to
the rounding of a per-row sum.
"""

import numpy as np
import pytest

from conftest import build_full_coverage_memory
from subgoal_hrl.discovery import KMeansResult, _lloyd, _sq_dist, kmeans_fit
from subgoal_hrl.rooms_env import FourRoomsEnv


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
    env = FourRoomsEnv()
    memory = build_full_coverage_memory(env)
    points = np.array([env.index.states[t.s_next].cell for t in memory], dtype=float)
    for k in (1, 4, 7):
        _assert_fits_match(points, k, seed=k)


def test_matches_reference_with_few_distinct_cells():
    # Fewer distinct cells than clusters: seeding falls back to uniform
    # draws once every cell is covered.
    points = np.repeat(np.array([[1.0, 1.0], [4.0, 2.0]]), 30, axis=0)
    for seed in range(3):
        _assert_fits_match(points, 4, seed, max_iter=5)


def _assert_matches_expanded(got, want, w) -> None:
    assert got.centroids.tobytes() == want.centroids.tobytes()
    assert np.array_equal(np.repeat(got.assignments, w), want.assignments)
    assert got.n_iter == want.n_iter
    assert got.distortion == pytest.approx(want.distortion, rel=1e-12, abs=0)
    assert got.distortion_history == pytest.approx(
        want.distortion_history, rel=1e-12, abs=0
    )


def test_empty_cluster_repair_matches_reference():
    # Weights >= 2 and three identical starting centroids: the second and
    # third are left empty on the first assignment, and the farthest row
    # repairs both before it leaves the search.
    rng = np.random.default_rng(7)
    rows = np.unique(rng.integers(0, 10, size=(60, 2)), axis=0).astype(float)
    rng.shuffle(rows)
    w = rng.integers(2, 6, size=len(rows))
    init = np.array([[4.0, 4.0], [4.0, 4.0], [4.0, 4.0], [0.0, 9.0]])
    got = _lloyd(rows, w, init[None], 100, 1e-6)[0]
    want = _reference_lloyd(np.repeat(rows, w, axis=0), init.copy(), 100, 1e-6)
    _assert_matches_expanded(got, want, w)
    assert got.n_iter > 1
    # After the first update one row holds both repaired centroids.
    first = _lloyd(rows, w, init[None], 1, 1e-6)[0].centroids
    assert first[1].tobytes() == first[2].tobytes()
    assert (first[1] != init[1]).any()


@pytest.mark.parametrize("side,k", [(3, 2), (6, 4), (12, 7)])
def test_weighted_fit_matches_fit_on_expanded_points(side, k):
    for seed in range(20):
        grid = np.random.default_rng(seed)
        rows = np.unique(
            grid.integers(0, side, size=(3 * side, 2)), axis=0
        ).astype(float)
        grid.shuffle(rows)
        w = grid.integers(1, 40, size=len(rows))
        rng_new = np.random.default_rng(seed)
        rng_ref = np.random.default_rng(seed)
        got = kmeans_fit(rows, k, rng_new, weights=w)
        want = _reference_kmeans_fit(np.repeat(rows, w, axis=0), k, rng_ref)
        _assert_matches_expanded(got, want, w)
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("dim", range(1, 8))
def test_coordinate_sums_equal_numpy_sums_bit_for_bit(dim):
    # Below 8 terms numpy's pairwise sum adds in order, so summing the
    # squared differences column by column rounds the same way. Magnitudes
    # spread over 16 decades make any regrouping show in the last bit.
    g = np.random.default_rng(dim)

    def draw(*shape):
        return g.normal(size=shape) * 10.0 ** g.integers(-8, 9, size=shape)

    points, centroids = draw(300, dim), draw(5, 4, dim)
    # Lloyd's shape: every row against every centroid of every restart.
    got = _sq_dist(points[:, None, :], centroids[:, None])
    want = ((points[:, None, :] - centroids[:, None]) ** 2).sum(axis=-1)
    assert got.shape == (5, 300, 4)
    assert got.tobytes() == want.tobytes()
    # The seeding's shape: every row against one centroid.
    got = _sq_dist(points, centroids[0, 0])
    assert got.tobytes() == ((points - centroids[0, 0]) ** 2).sum(axis=1).tobytes()


def test_batched_restarts_match_the_reference_restart_by_restart():
    # Three cells and k = 4: every seeding repeats a cell, so every restart
    # repairs an empty cluster on its first update, and the restarts
    # converge after one or two iterations, leaving the batch at different
    # times; the second-iteration ones repair again while they are a subset.
    points = np.repeat(
        np.array([[0.0, 0.0], [5.0, 1.0], [2.0, 7.0]]), [3, 1, 4], axis=0
    )
    assert len(np.unique(points, axis=0)) < 4
    rng = np.random.default_rng(0)
    seeds = [_reference_seed_centroids(points, 4, rng) for _ in range(10)]
    want = [_reference_lloyd(points, s.copy(), 100, 1e-6) for s in seeds]
    assert len({r.n_iter for r in want}) > 1
    got = _lloyd(points, np.ones(len(points), dtype=np.int64), np.stack(seeds), 100, 1e-6)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        _assert_identical(g, w)

    rng_new = np.random.default_rng(0)
    rng_ref = np.random.default_rng(0)
    _assert_identical(
        kmeans_fit(points, 4, rng_new), _reference_kmeans_fit(points, 4, rng_ref)
    )
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


def test_batched_repair_after_a_restart_has_left_matches_the_reference():
    # Restart 0 starts at a converged fit and leaves after one iteration.
    # Restart 1 is the repair case above: its first update puts two repaired
    # centroids on one row, so its second update repairs again, now as the
    # first of the live restarts, with non-zero distances to choose from.
    rng = np.random.default_rng(7)
    rows = np.unique(rng.integers(0, 10, size=(60, 2)), axis=0).astype(float)
    rng.shuffle(rows)
    w = rng.integers(2, 6, size=len(rows))
    expanded = np.repeat(rows, w, axis=0)
    spread = rows[rng.choice(len(rows), 4, replace=False)]
    seeds = np.stack([
        _reference_lloyd(expanded, spread.copy(), 100, 1e-6).centroids,
        np.array([[4.0, 4.0], [4.0, 4.0], [4.0, 4.0], [0.0, 9.0]]),
        spread,
    ])
    got = _lloyd(rows, w, seeds, 100, 1e-6)
    for result, seed in zip(got, seeds):
        _assert_matches_expanded(
            result, _reference_lloyd(expanded, seed.copy(), 100, 1e-6), w
        )
    assert got[0].n_iter == 1 < got[1].n_iter


def test_seeding_refuses_a_non_finite_distance_total_before_its_draw():
    # The squared distances overflow to inf, so p = mass / total holds NaN:
    # rng.choice refuses it before drawing, and so must the seeding. (The
    # overflow warnings are silenced, as errors they would end both first.)
    points = np.array([[-1e200, 0.0], [1e200, 0.0], [0.0, 0.0]])
    for seed in range(3):
        rng_new = np.random.default_rng(seed)
        rng_ref = np.random.default_rng(seed)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="squared distances sum to inf"):
                kmeans_fit(points, 2, rng_new)
            with pytest.raises(ValueError, match="(?i)probabilities"):
                _reference_kmeans_fit(points, 2, rng_ref)
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state
        # Only the first centroid's draw was made.
        rng_one = np.random.default_rng(seed)
        rng_one.integers(3)
        assert rng_new.bit_generator.state == rng_one.bit_generator.state
