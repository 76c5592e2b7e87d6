"""`kmeans_fit` pinned to its restart-batched form before the per-fit
constants.

`_prior_seed_centroids` and `_prior_lloyd` are the weighted seeding and
batched Lloyd iterations as they were before the weight cumsum, the
weighted bincount columns and the restart bin offsets were built once per
fit, and before the masked centroid update became one `np.divide`. Each
element saw the same float operations then, so the fit must return the
same bytes: centroids, assignments, distortion and its history, iteration
count and the rng's final state. The per-point oracle
(`tests/test_kmeans_oracle.py`) matches a weighted distortion only up to
rounding; this one is exact.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_full_coverage_memory
from subgoal_hrl.discovery import KMeansResult, kmeans_fit
from subgoal_hrl.rooms_env import FourRoomsEnv


def _prior_sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return sum((a[..., c] - b[..., c]) ** 2 for c in range(a.shape[-1]))


def _prior_seed_centroids(
    points: np.ndarray, weights: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    ends = np.cumsum(weights)
    centroids = np.empty((k, points.shape[1]), dtype=float)
    centroids[0] = points[ends.searchsorted(rng.integers(ends[-1]), side="right")]
    closest_sq = _prior_sq_dist(points, centroids[0])
    for i in range(1, k):
        mass = weights * closest_sq
        total = mass.sum()
        if total <= 0.0:
            idx = ends.searchsorted(rng.integers(ends[-1]), side="right")
        elif not math.isfinite(total):
            raise ValueError(f"squared distances sum to {total}")
        else:
            cdf = (mass / total).cumsum()
            cdf /= cdf[-1]
            idx = cdf.searchsorted(rng.random(), side="right")
        centroids[i] = points[idx]
        closest_sq = np.minimum(closest_sq, _prior_sq_dist(points, centroids[i]))
    return centroids


def _prior_lloyd(
    points: np.ndarray, weights: np.ndarray, seeds: np.ndarray, max_iter: int,
    tol: float,
) -> list[KMeansResult]:
    runs, k = seeds.shape[:2]
    centroids = seeds.copy()
    history: list[list[float]] = [[] for _ in range(runs)]
    n_iter = np.zeros(runs, dtype=int)
    live = np.arange(runs)

    def assign(restarts):
        d2 = _prior_sq_dist(points[:, None, :], centroids[restarts, None])
        ids = d2.argmin(axis=2)
        nearest = np.take_along_axis(d2, ids[..., None], axis=2)[..., 0]
        distortions = (weights * nearest).sum(axis=1).tolist()
        for r, distortion in zip(restarts.tolist(), distortions):
            prev = history[r][-1] if history[r] else float("inf")
            # The program's `assert`, raised by hand: pytest rewrites an
            # assert in a test module and appends its own lines to the
            # message, which the outcome comparison reads.
            if not distortion <= prev + 1e-9 + 1e-12 * abs(prev):
                raise AssertionError(f"distortion increased: {prev} -> {distortion}")
            history[r].append(distortion)
        return ids, nearest, distortions

    for it in range(1, max_iter + 1):
        if not live.size:
            break
        ids, nearest, _ = assign(live)
        bins = (ids + np.arange(live.size)[:, None] * k).ravel()
        acc = np.stack([
            np.bincount(bins, np.tile(weights * col, live.size), live.size * k)
            for col in (*points.T, 1)
        ], axis=1).reshape(live.size, k, -1)
        sums, counts = acc[..., :-1], acc[..., -1]
        old = centroids[live]
        new = old.copy()
        nonempty = counts > 0
        new[nonempty] = sums[nonempty] / counts[nonempty, None]
        for i in np.flatnonzero(~nonempty.all(axis=1)).tolist():
            farthest = nearest[i].copy()
            left = weights.copy()
            for cid in np.flatnonzero(~nonempty[i]):
                j = int(farthest.argmax())
                new[i, cid] = points[j]
                left[j] -= 1
                if left[j] == 0:
                    farthest[j] = -1.0
        centroids[live] = new
        n_iter[live] = it
        live = live[np.abs(new - old).max(axis=(1, 2)) >= tol]
    ids, _, distortions = assign(np.arange(runs))
    return [
        KMeansResult(centroids[r], ids[r], distortions[r], int(n_iter[r]),
                     tuple(history[r]))
        for r in range(runs)
    ]


def _prior_kmeans_fit(points, k, rng, max_iter=100, tol=1e-6, n_init=10, *, weights):
    pts = np.asarray(points, dtype=float)
    w = np.asarray(weights)
    seeds = np.stack([_prior_seed_centroids(pts, w, k, rng) for _ in range(n_init)])
    return min(_prior_lloyd(pts, w, seeds, max_iter, tol), key=lambda r: r.distortion)


def _outcome(fit, points, k, seed, weights, **kwargs):
    """A fit's every byte, or its error, and the rng's state after it."""
    rng = np.random.default_rng(seed)
    try:
        r = fit(points, k, rng, weights=weights, **kwargs)
        got = (
            r.centroids.tobytes(), r.assignments.tobytes(),
            np.float64(r.distortion).tobytes(), r.n_iter,
            np.array(r.distortion_history).tobytes(),
        )
    except (AssertionError, ValueError) as exc:
        got = (type(exc), str(exc))
    return got, rng.bit_generator.state


def _assert_same_fit(points, k, seed, weights, **kwargs):
    want, state = _outcome(_prior_kmeans_fit, points, k, seed, weights, **kwargs)
    # A distortion that overflowed tripped the prior form's assert; the fit
    # now refuses it with the seeding's error. Every other outcome is kept.
    if want[0] is AssertionError:
        new = want[1].partition(" -> ")[2]
        if not math.isfinite(float(new)):
            want = (ValueError, f"squared distances sum to {new}")
    assert _outcome(kmeans_fit, points, k, seed, weights, **kwargs) == (want, state)


@pytest.mark.parametrize("k", range(1, 9))
def test_fit_on_the_full_coverage_histogram_matches_the_prior_form(k):
    # discover's input: the distinct arrival cells in first-seen order,
    # weighted by their counts.
    env = FourRoomsEnv()
    arrivals = [t.s_next for t in build_full_coverage_memory(env)]
    order = list(dict.fromkeys(arrivals))
    coords = np.array([env.index.states[s].cell for s in order], dtype=float)
    weights = np.bincount(arrivals)[order]
    for seed in range(3):
        _assert_same_fit(coords, k, seed, weights)


def test_fit_that_trips_the_distortion_assert_matches_the_prior_form():
    # One row near 1e199: the update's weighted mean misses it by an ulp,
    # whose square overflows. The prior form raised its AssertionError; the
    # fit refuses the overflow as the seeding does, after the same draws.
    points = np.random.default_rng(0).normal(size=(1, 2)) * 1e200
    with np.errstate(over="ignore", invalid="ignore"):
        want = _outcome(_prior_kmeans_fit, points, 1, 0, np.array([3]),
                        n_init=1, max_iter=1, tol=0.0)
        assert want[0] == (AssertionError, "distortion increased: 0.0 -> inf")
        got = _outcome(kmeans_fit, points, 1, 0, np.array([3]),
                       n_init=1, max_iter=1, tol=0.0)
        assert got == ((ValueError, "squared distances sum to inf"), want[1])
        _assert_same_fit(points, 1, 0, np.array([3]), n_init=1, max_iter=1, tol=0.0)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 40),
    dim=st.integers(1, 3),
    k=st.integers(1, 6),
    grid=st.booleans(),
    scale=st.sampled_from([1.0, 1e-300, 1e200]),
    n_init=st.integers(1, 10),
    max_iter=st.sampled_from([0, 1, 2, 100]),
    tol=st.sampled_from([0.0, 1e-6, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_on_random_weighted_rows_matches_the_prior_form(
    data, n, dim, k, grid, scale, n_init, max_iter, tol, seed
):
    # Integer grids repeat rows and leave clusters empty (the repair path);
    # normal draws give distinct rows; 1e200 overflows the squared
    # distances, which the seeding refuses.
    g = np.random.default_rng(seed)
    if grid:
        points = g.integers(-3, 4, size=(n, dim)).astype(float)
    else:
        points = g.normal(size=(n, dim))
    points *= scale
    weights = np.array(data.draw(
        st.lists(st.integers(1, 50), min_size=n, max_size=n), label="weights"
    ))
    if weights.sum() < k:
        weights[0] += k
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        _assert_same_fit(points, k, seed, weights, n_init=n_init,
                         max_iter=max_iter, tol=tol)
