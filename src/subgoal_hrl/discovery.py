"""Unsupervised subgoal discovery over experience memory.

Candidate subgoals come from two analyses of the recent experience
memory: K-means cluster centroids over arrival coordinates (spatial
regions worth reaching) and reward outliers (states whose transition
reward deviates strongly from the memory's reward distribution).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Sequence

import numpy as np

from .memory import Transition, is_finite_number
from .rooms_env import GridState, RoomsLayout, StateIndex

_EPS = 1e-12


class InsufficientMemoryError(ValueError):
    """Memory too small or too degenerate to run discovery on."""


@dataclass(frozen=True)
class Centroid:
    """A cluster-centroid subgoal; attained by nearest-centroid membership."""

    x: float
    y: float


@dataclass(frozen=True)
class AnomalySubgoal:
    """An outlier-state subgoal; attained by exact state match."""

    state: GridState
    score: float


@dataclass(frozen=True)
class SubgoalSet:
    """Current subgoal inventory: K centroids followed by anomaly states.

    A subgoal's id is its position: centroids 0..k-1, then anomalies
    k..size-1.
    """

    centroids: tuple[Centroid, ...]
    anomalies: tuple[AnomalySubgoal, ...]
    theta_anom: float | None = None
    source_size: int | None = None

    def __post_init__(self) -> None:
        if len(set(self.centroids)) != len(self.centroids):
            raise ValueError("centroids must be pairwise distinct")
        if len({a.state for a in self.anomalies}) != len(self.anomalies):
            raise ValueError("anomaly states must be unique")

    @property
    def k(self) -> int:
        return len(self.centroids)

    @property
    def size(self) -> int:
        return len(self.centroids) + len(self.anomalies)

    def subgoal(self, goal_id: int) -> Centroid | AnomalySubgoal:
        if 0 <= goal_id < self.k:
            return self.centroids[goal_id]
        if self.k <= goal_id < self.size:
            return self.anomalies[goal_id - self.k]
        raise ValueError(f"unknown subgoal id {goal_id}")

    def is_anomaly(self, goal_id: int) -> bool:
        return self.k <= goal_id < self.size

    def nearest_centroid_id(self, x: float, y: float) -> int:
        """Id of the Euclidean-nearest centroid; ties go to the lowest id."""
        if not self.centroids:
            raise ValueError("subgoal set has no centroids")
        best_id = 0
        best_d = float("inf")
        for i, c in enumerate(self.centroids):
            d = (c.x - x) ** 2 + (c.y - y) ** 2
            if d < best_d:
                best_d = d
                best_id = i
        return best_id

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "size": self.size,
            "theta_anom": self.theta_anom,
            "source_memory_size": self.source_size,
            "centroids": [
                {"id": i, "x": c.x, "y": c.y} for i, c in enumerate(self.centroids)
            ],
            "anomalies": [
                {
                    "id": i,
                    "x": a.state.x,
                    "y": a.state.y,
                    "has_key": a.state.has_key,
                    "score": a.score,
                }
                for i, a in enumerate(self.anomalies, start=self.k)
            ],
        }

    @classmethod
    def from_json_dict(cls, d: dict, layout: RoomsLayout) -> "SubgoalSet":
        """Inverse of `to_json_dict`; ValueError unless every id is its
        position, centroid x/y are finite numbers inside `layout`'s grid
        (K-means places them among playable cells), anomaly x/y are JSON
        integers naming a playable cell of `layout`, has_key a JSON boolean
        and scores finite numbers, k and size count the subgoals,
        theta_anom is null or a finite number > 0 and source_memory_size
        null or an integer >= 0.

        Discovery writes only z-scores above theta_anom, and a z-score over
        n values is at most sqrt(n - 1) (Samuelson 1968). So a score must
        be above theta_anom (above 0 when it is null) and, when
        source_memory_size is given, at most its square root."""
        centroids = []
        for c in d["centroids"]:
            i, x, y = c["id"], c["x"], c["y"]
            if not (type(i) is int and i == len(centroids)
                    and is_finite_number(x) and is_finite_number(y)
                    and 0 <= x < layout.width and 0 <= y < layout.height):
                raise ValueError(
                    f"need id {len(centroids)} and finite x and y on the "
                    f"{layout.width}x{layout.height} grid for centroid {c}"
                )
            centroids.append(Centroid(float(x), float(y)))
        anomalies = []
        for a in d["anomalies"]:
            i, x, y, has_key = a["id"], a["x"], a["y"], a["has_key"]
            score = a["score"]
            if not (
                type(i) is type(x) is type(y) is int and (x, y) in layout.playable
                and i == len(centroids) + len(anomalies)
                and type(has_key) is bool and is_finite_number(score)
            ):
                raise ValueError(
                    f"need id {len(centroids) + len(anomalies)}, integers x and y "
                    "naming a playable cell, true/false for has_key and a "
                    f"finite score for anomaly {a}"
                )
            anomalies.append(AnomalySubgoal(GridState(x, y, has_key), float(score)))
        k, size = d["k"], d["size"]
        theta, source = d.get("theta_anom"), d.get("source_memory_size")
        if not (
            type(k) is type(size) is int and k == len(centroids)
            and size == k + len(anomalies)
            and (theta is None or (is_finite_number(theta) and theta > 0))
            and (source is None or (type(source) is int and source >= 0))
        ):
            raise ValueError(
                f"need k ({k!r}) and size ({size!r}) to count the subgoals, "
                f"theta_anom ({theta!r}) null or finite and > 0, and "
                f"source_memory_size ({source!r}) null or an integer >= 0"
            )
        for a in anomalies:
            # score * score <= source is score <= sqrt(source) for a score
            # > 0, and it never turns a huge source into a float.
            if not (a.score > (theta or 0.0)
                    and (source is None or a.score * a.score <= source)):
                raise ValueError(
                    f"anomaly score {a.score!r} must be above theta_anom "
                    f"({theta!r}; 0 when null) and at most the square root "
                    f"of source_memory_size ({source!r})"
                )
        return cls(
            centroids=tuple(centroids),
            anomalies=tuple(anomalies),
            theta_anom=theta,
            source_size=source,
        )


@dataclass(frozen=True)
class KMeansResult:
    """Fitted centroids with assignments and the distortion trace."""

    centroids: np.ndarray
    assignments: np.ndarray
    distortion: float
    n_iter: int
    distortion_history: tuple[float, ...] = field(default=())


def _sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances over the last axis, summed per coordinate in column
    order: bit-equal to `((a - b) ** 2).sum(axis=-1)` up to 7 columns, since
    numpy's pairwise sum regroups terms only from 8 on."""
    d = (a[..., 0] - b[..., 0]) ** 2
    for c in range(1, a.shape[-1]):
        d += (a[..., c] - b[..., c]) ** 2
    return d


def _seed_centroids(
    points: np.ndarray, weights: np.ndarray, ends: np.ndarray, k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """K-means++ seeding: spread initial centroids by weighted squared
    distance, drawing row i with probability w_i * d_i^2 / total. `weights`
    are the row counts as floats and `ends` their cumulative sum as ints:
    unit j of the rows laid end to end (row i repeated w_i times) is in row
    ends.searchsorted(j, side="right")."""
    centroids = np.empty((k, points.shape[1]), dtype=float)
    centroids[0] = points[ends.searchsorted(rng.integers(ends[-1]), side="right")]
    closest_sq = _sq_dist(points, centroids[0])
    for i in range(1, k):
        mass = weights * closest_sq
        total = mass.sum()
        if total <= 0.0:
            idx = ends.searchsorted(rng.integers(ends[-1]), side="right")
        elif not math.isfinite(total):
            raise ValueError(f"squared distances sum to {total}")
        else:
            # rng.choice(n, p=mass / total) without its argument checks.
            mass /= total
            cdf = mass.cumsum()
            cdf /= cdf[-1]
            idx = cdf.searchsorted(rng.random(), side="right")
        centroids[i] = points[idx]
        np.minimum(closest_sq, _sq_dist(points, centroids[i]), out=closest_sq)
    return centroids


def _lloyd(
    points: np.ndarray, weights: np.ndarray, seeds: np.ndarray, max_iter: int,
    tol: float,
) -> list[KMeansResult]:
    """Lloyd iterations over `points`, row i standing for `weights[i]`
    copies of itself, from each of the stacked `seeds` (restarts, k, dim).

    The live restarts iterate together; one leaves once its shift is below
    `tol`. Each result is the one a restart run alone gives."""
    runs, k = seeds.shape[:2]
    n, cols = points.shape[0], points.shape[1] + 1
    centroids = seeds.copy()
    history: list[list[float]] = [[] for _ in range(runs)]
    n_iter = np.zeros(runs, dtype=int)
    live = np.arange(runs)
    cells = np.arange(runs * n).reshape(runs, n) * k
    weighted = weights.astype(float)
    # One bincount per update sums every column, and the counts, of every
    # live restart: entry (r, c, i) adds column c of row i, times its
    # weight, to bin (r * k + j) * cols + c, j the row's centroid in the
    # r-th live restart. Each bin adds its entries in row order, as one
    # bincount per column does. Fewer live restarts read a prefix.
    entries = np.tile(np.vstack([weighted * points.T, weighted]), (runs, 1)).ravel()
    offsets = np.arange(runs)[:, None, None] * k * cols + np.arange(cols)[:, None]

    def assign(restarts: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
        """Nearest-centroid ids and squared distances per restart and row."""
        d2 = _sq_dist(points[:, None, :], centroids[restarts, None])
        ids = d2.argmin(axis=2)
        # d2[r, i, ids[r, i]]; `min(axis=2)` is several times slower.
        nearest = d2.ravel()[cells[: restarts.size] + ids]
        # `(w * d).sum(axis=1)`, not `d @ w`: with unit weights each row is
        # numpy's pairwise sum of the per-point distances.
        distortions = (weighted * nearest).sum(axis=1).tolist()
        for r, distortion in zip(restarts.tolist(), distortions):
            # Lloyd's guarantee: alternating assignment/update never
            # increases the distortion (empty-cluster repair moves a
            # centroid no point was assigned to, so it cannot increase any
            # point's minimum).
            prev = history[r][-1] if history[r] else float("inf")
            if not (math.isfinite(distortion) or distortion <= prev):
                raise ValueError(f"squared distances sum to {distortion}")
            assert distortion <= prev + 1e-9 + 1e-12 * abs(prev), (
                f"distortion increased: {prev} -> {distortion}"
            )
            history[r].append(distortion)
        return ids, nearest, distortions

    for it in range(1, max_iter + 1):
        if not (m := live.size):
            break
        ids, nearest, _ = assign(live)
        bins = (ids[:, None, :] * cols + offsets[:m]).ravel()
        acc = np.bincount(bins, entries[: bins.size], m * k * cols).reshape(m, k, cols)
        counts = acc[..., -1]
        nonempty = counts > 0
        old = centroids[live]
        new = np.divide(acc[..., :-1], counts[..., None], out=old.copy(),
                        where=nonempty[..., None])
        for i in np.flatnonzero(~nonempty.all(axis=1)).tolist():
            # Repair: the point farthest from its centroid becomes the new
            # centroid; take the next-farthest for further repairs. A row
            # leaves the search once each of its copies is taken.
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


def kmeans_fit(
    points: Sequence[Sequence[float]] | np.ndarray,
    k: int,
    rng: np.random.Generator,
    max_iter: int = 100,
    tol: float = 1e-6,
    n_init: int = 10,
    *,
    weights: Sequence[int] | np.ndarray | None = None,
) -> KMeansResult:
    """Lloyd's algorithm with K-means++ seeding and restarts.

    Runs `n_init` independent seedings and keeps the fit with the lowest
    distortion. Deterministic given the rng state.

    `weights` gives each row of `points` a positive integer count (one
    each when None), so a memory that repeats a few states is clustered
    over its histogram of distinct states. A weighted fit is the fit on
    `np.repeat(points, weights, axis=0)` up to the rounding of sums taken
    per row: on integer coordinates it makes the same rng draws and
    returns the same centroids and iteration count, with one assignment
    per row. Unit weights give exactly the unweighted fit.

    Raises:
        ValueError: on k < 1, weights that are not one integer >= 1 per
            row, or a total weight below k; before any rng draw.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] == 0:
        raise ValueError("points must be a 2-D array with at least one column")
    if k < 1:
        raise ValueError("k must be >= 1")
    if weights is None:
        w = np.ones(pts.shape[0], dtype=np.int64)
    else:
        w = np.asarray(weights)
        if w.shape != pts.shape[:1] or not np.issubdtype(w.dtype, np.integer):
            raise ValueError("weights must be one integer per row of points")
        if (w < 1).any():
            raise ValueError("weights must be >= 1")
    total = int(w.sum())
    if total < k:
        raise ValueError(f"need at least {k} points, got {total}")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    if n_init < 1:
        raise ValueError("n_init must be >= 1")
    # Lloyd draws nothing, so every seeding can come first.
    wf, ends = w.astype(float), np.cumsum(w)
    seeds = np.stack([_seed_centroids(pts, wf, ends, k, rng) for _ in range(n_init)])
    results = _lloyd(pts, w, seeds, max_iter, tol)
    # The first restart with the lowest distortion.
    return min(results, key=lambda r: r.distortion)


def anomaly_scores(transitions: Sequence[Transition]) -> np.ndarray:
    """Reward z-score per transition.

    All-equal rewards (zero spread) score 0 everywhere, so a rewardless
    memory produces no anomalies. Raises ValueError when the rewards' mean
    or standard deviation overflows a float.
    """
    if len(transitions) < 2:
        raise ValueError("need at least 2 transitions to score anomalies")
    rewards = np.fromiter(map(itemgetter(2), transitions), float, len(transitions))
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = rewards.mean(), float(rewards.std())
    if not (math.isfinite(mean) and math.isfinite(std)):
        raise ValueError(
            f"rewards spread too far to score anomalies: mean {mean}, std {std}"
        )
    if std == 0.0:
        return np.zeros(len(transitions))
    return np.abs(rewards - mean) / (std + _EPS)


def discover(
    transitions: Sequence[Transition],
    k: int,
    theta_anom: float,
    rng: np.random.Generator,
    *,
    min_samples: int = 2,
    index: StateIndex,
) -> SubgoalSet:
    """Build a subgoal set from an experience-memory snapshot.

    Clusters arrival coordinates into `k` centroids and flags reward
    outliers above `theta_anom` as exact-state subgoals, deduplicated by
    (x, y, has_key). K-means runs on the histogram of distinct arrival
    states in first-seen order, each weighted by its arrival count: up to
    rounding, the fit on the arrivals grouped by state in that order.
    States are ids of `index`.

    Raises:
        ValueError: when `theta_anom` is not a finite number > 0, or an
            arrival id is not an id of `index`.
        InsufficientMemoryError: too few transitions, or too few distinct
            arrival cells to place `k` distinct centroids.
    """
    if not (math.isfinite(theta_anom) and theta_anom > 0):
        raise ValueError(f"theta_anom must be finite and > 0, got {theta_anom!r}")
    required, n = max(k, min_samples, 2), len(transitions)
    if n < required:
        raise InsufficientMemoryError(f"need at least {required} transitions, got {n}")
    # Distinct arrivals in first-seen order, checked before the array cast
    # (which would truncate a float id and overflow past int64), each
    # weighted by its count.
    arrival_ids = list(map(itemgetter(3), transitions))
    order = list(dict.fromkeys(arrival_ids))
    for sid in order:
        if not 0 <= sid < index.size:
            raise ValueError(f"arrival id {sid} is not in the state index")
    arrivals = np.fromiter(arrival_ids, np.intp, n)
    coords = np.array([index.states[sid].cell for sid in order], dtype=float)
    fit = kmeans_fit(coords, k, rng, weights=np.bincount(arrivals)[order])
    positions = [tuple(c) for c in fit.centroids]
    if len(set(positions)) != k:
        raise InsufficientMemoryError(
            "memory spans too few distinct states for k distinct centroids"
        )
    centroids = tuple(Centroid(float(x), float(y)) for x, y in positions)

    # Each flagged state keeps its highest score, in first-flagged order.
    scores = anomaly_scores(transitions)
    hit = scores > theta_anom
    flagged: dict[GridState, float] = {}
    for sid, score in zip(arrivals[hit].tolist(), scores[hit].tolist()):
        state = index.states[sid]
        flagged[state] = max(flagged.get(state, 0.0), score)
    return SubgoalSet(
        centroids=centroids,
        anomalies=tuple(AnomalySubgoal(s, score) for s, score in flagged.items()),
        theta_anom=theta_anom,
        source_size=n,
    )


def merge(old: SubgoalSet, new: SubgoalSet) -> SubgoalSet:
    """Fold a fresh discovery into the existing subgoal set.

    Ids, the subgoals' positions, are append-only: existing centroid i
    becomes the new centroid matched to it (greedy one-to-one by ascending
    distance), existing anomalies keep their places, and new anomaly
    states are appended after them. Value tables carry over by growing new
    columns.

    Raises:
        ValueError: when both sets are non-empty with different K.
    """
    if old.size == 0:
        return new
    if old.k != new.k:
        raise ValueError(f"cluster count mismatch: {old.k} != {new.k}")

    pairs = sorted(
        ((oc.x - nc.x) ** 2 + (oc.y - nc.y) ** 2, i, j)
        for i, oc in enumerate(old.centroids)
        for j, nc in enumerate(new.centroids)
    )
    matched: dict[int, Centroid] = {}
    taken: set[int] = set()
    for _, i, j in pairs:
        if i not in matched and j not in taken:
            matched[i] = new.centroids[j]
            taken.add(j)

    # The new set's states are unique, so only the old ones can repeat.
    known = {a.state for a in old.anomalies}
    return SubgoalSet(
        centroids=tuple(matched[i] for i in range(old.k)),
        anomalies=old.anomalies
        + tuple(a for a in new.anomalies if a.state not in known),
        theta_anom=new.theta_anom,
        source_size=new.source_size,
    )
