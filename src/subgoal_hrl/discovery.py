"""Unsupervised subgoal discovery over experience memory.

Candidate subgoals come from two analyses of the recent experience
memory: K-means cluster centroids over arrival coordinates (spatial
regions worth reaching) and reward outliers (states whose transition
reward deviates strongly from the memory's reward distribution).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .memory import Transition
from .rooms_env import GridState

DEFAULT_ANOMALY_THRESHOLD = 3.0
_EPS = 1e-12


class InsufficientMemoryError(ValueError):
    """Memory too small or too degenerate to run discovery on."""


@dataclass(frozen=True)
class Centroid:
    """A cluster-centroid subgoal; attained by nearest-centroid membership."""

    id: int
    x: float
    y: float


@dataclass(frozen=True)
class AnomalySubgoal:
    """An outlier-state subgoal; attained by exact state match."""

    id: int
    state: GridState
    score: float


@dataclass(frozen=True)
class SubgoalSet:
    """Current subgoal inventory: K centroids followed by anomaly states.

    Ids are dense integers 0..size-1 with anomalies after centroids.
    """

    centroids: tuple[Centroid, ...]
    anomalies: tuple[AnomalySubgoal, ...]
    theta_anom: float | None = None
    source_size: int | None = None

    def __post_init__(self) -> None:
        for i, c in enumerate(self.centroids):
            if c.id != i:
                raise ValueError("centroid ids must be dense from 0")
        k = len(self.centroids)
        for j, a in enumerate(self.anomalies):
            if a.id != k + j:
                raise ValueError("anomaly ids must follow centroid ids densely")
        positions = {(c.x, c.y) for c in self.centroids}
        if len(positions) != k:
            raise ValueError("centroids must be pairwise distinct")
        states = {a.state for a in self.anomalies}
        if len(states) != len(self.anomalies):
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
        for c in self.centroids:
            d = (c.x - x) ** 2 + (c.y - y) ** 2
            if d < best_d:
                best_d = d
                best_id = c.id
        return best_id

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "size": self.size,
            "theta_anom": self.theta_anom,
            "source_memory_size": self.source_size,
            "centroids": [
                {"id": c.id, "x": c.x, "y": c.y} for c in self.centroids
            ],
            "anomalies": [
                {
                    "id": a.id,
                    "x": a.state.x,
                    "y": a.state.y,
                    "has_key": a.state.has_key,
                    "score": a.score,
                }
                for a in self.anomalies
            ],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SubgoalSet":
        """Inverse of `to_json_dict`; ValueError unless every id is a JSON
        integer, centroid x/y and anomaly scores are finite numbers,
        anomaly x/y are JSON integers >= 0 and has_key a JSON boolean."""
        centroids = []
        for c in d["centroids"]:
            i, x, y = c["id"], c["x"], c["y"]
            if not (type(i) is int and _finite(x) and _finite(y)):
                raise ValueError(
                    f"need an integer id and finite x and y for centroid {c}"
                )
            centroids.append(Centroid(i, float(x), float(y)))
        anomalies = []
        for a in d["anomalies"]:
            i, x, y, has_key = a["id"], a["x"], a["y"], a["has_key"]
            score = a["score"]
            if not (
                type(i) is type(x) is type(y) is int and x >= 0 and y >= 0
                and type(has_key) is bool and _finite(score)
            ):
                raise ValueError(
                    "need an integer id, integers >= 0 for x and y, true/false "
                    f"for has_key and a finite score for anomaly {a}"
                )
            anomalies.append(
                AnomalySubgoal(i, GridState(x, y, has_key), float(score))
            )
        return cls(
            centroids=tuple(centroids),
            anomalies=tuple(anomalies),
            theta_anom=d.get("theta_anom"),
            source_size=d.get("source_memory_size"),
        )


def _finite(v) -> bool:
    """Whether `v` is a finite JSON number (an int or a float, not a bool)."""
    return (type(v) is float or type(v) is int) and math.isfinite(v)


@dataclass(frozen=True)
class KMeansResult:
    """Fitted centroids with assignments and the distortion trace."""

    centroids: np.ndarray
    assignments: np.ndarray
    distortion: float
    n_iter: int
    distortion_history: tuple[float, ...] = field(default=())


def _distinct_rows(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows `cells` and `inverse` with `points == cells[inverse]`.

    A lexsort over the columns: several times faster than
    `np.unique(..., axis=0)`, which sorts a structured view of the rows.
    """
    order = np.lexsort(points.T[::-1])
    ordered = points[order]
    starts = np.empty(len(points), dtype=bool)
    starts[0] = True
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(points), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return ordered[starts], inverse


def _seed_centroids(
    points: np.ndarray,
    cells: np.ndarray,
    inverse: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """K-means++ seeding: spread initial centroids by squared distance.

    Distances are computed per distinct cell; the draw reads them back per
    point, so it sees the same probability vector as a per-point seeding.
    """
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=float)
    centroids[0] = points[int(rng.integers(n))]
    closest_sq = ((cells - centroids[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        per_point = closest_sq[inverse]
        total = per_point.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=per_point / total))
        centroids[i] = points[idx]
        closest_sq = np.minimum(
            closest_sq, ((cells - centroids[i]) ** 2).sum(axis=1)
        )
    return centroids


def _assign(
    cells: np.ndarray, inverse: np.ndarray, centroids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-point nearest-centroid ids and squared distances, computed once
    per distinct cell."""
    d2 = ((cells[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    assign = d2.argmin(axis=1)
    nearest = d2[np.arange(cells.shape[0]), assign]
    return assign[inverse], nearest[inverse]


def _lloyd(
    points: np.ndarray,
    cells: np.ndarray,
    inverse: np.ndarray,
    centroids: np.ndarray,
    max_iter: int,
    tol: float,
) -> KMeansResult:
    """Lloyd iterations over `points`, whose distinct rows are `cells`
    (`points == cells[inverse]`)."""
    k = centroids.shape[0]
    history: list[float] = []
    prev = float("inf")
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        assign, assigned_d2 = _assign(cells, inverse, centroids)
        distortion = float(assigned_d2.sum())
        # Lloyd's guarantee: alternating assignment/update never increases
        # the distortion (empty-cluster repair moves a centroid no point
        # was assigned to, so it cannot increase any point's minimum).
        assert distortion <= prev + 1e-9 + 1e-12 * abs(prev), (
            f"distortion increased: {prev} -> {distortion}"
        )
        history.append(distortion)
        prev = distortion

        # bincount adds the points in order, so the sums are bit-equal to
        # a sequential per-point accumulation.
        sums = np.column_stack(
            [np.bincount(assign, weights=col, minlength=k) for col in points.T]
        )
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
    assign, assigned_d2 = _assign(cells, inverse, centroids)
    distortion = float(assigned_d2.sum())
    assert distortion <= prev + 1e-9 + 1e-12 * abs(prev)
    history.append(distortion)
    return KMeansResult(
        centroids=centroids,
        assignments=assign,
        distortion=distortion,
        n_iter=n_iter,
        distortion_history=tuple(history),
    )


def kmeans_fit(
    points: Sequence[Sequence[float]] | np.ndarray,
    k: int,
    rng: np.random.Generator,
    max_iter: int = 100,
    tol: float = 1e-6,
    n_init: int = 10,
) -> KMeansResult:
    """Lloyd's algorithm with K-means++ seeding and restarts.

    Runs `n_init` independent seedings and keeps the fit with the lowest
    distortion. Deterministic given the rng state.

    Distances and nearest-centroid searches run once per distinct point
    (arrival coordinates take at most one value per playable cell), while
    every order-sensitive step (the seeding draw, coordinate sums,
    distortion sums, empty-cluster repair) still reads per-point arrays.
    Results and rng consumption are therefore bit-identical to running
    every step per point.

    Raises:
        ValueError: on k < 1 or fewer points than clusters.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D array")
    if k < 1:
        raise ValueError("k must be >= 1")
    if pts.shape[0] < k:
        raise ValueError(f"need at least {k} points, got {pts.shape[0]}")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    if n_init < 1:
        raise ValueError("n_init must be >= 1")
    cells, inverse = _distinct_rows(pts)
    best: KMeansResult | None = None
    for _ in range(n_init):
        seeds = _seed_centroids(pts, cells, inverse, k, rng)
        result = _lloyd(pts, cells, inverse, seeds, max_iter, tol)
        if best is None or result.distortion < best.distortion:
            best = result
    return best


def anomaly_scores(transitions: Sequence[Transition]) -> np.ndarray:
    """Reward z-score per transition.

    All-equal rewards (zero spread) score 0 everywhere, so a rewardless
    memory produces no anomalies.
    """
    if len(transitions) < 2:
        raise ValueError("need at least 2 transitions to score anomalies")
    rewards = np.array([t.r for t in transitions], dtype=float)
    std = float(rewards.std())
    if std == 0.0:
        return np.zeros(len(transitions))
    return np.abs(rewards - rewards.mean()) / (std + _EPS)


def discover(
    transitions: Sequence[Transition],
    k: int,
    theta_anom: float = DEFAULT_ANOMALY_THRESHOLD,
    rng: np.random.Generator | None = None,
    *,
    min_samples: int = 2,
    max_iter: int = 100,
    tol: float = 1e-6,
    n_init: int = 10,
) -> SubgoalSet:
    """Build a subgoal set from an experience-memory snapshot.

    Clusters arrival coordinates into `k` centroids and flags reward
    outliers above `theta_anom` as exact-state subgoals, deduplicated by
    (x, y, has_key).

    Raises:
        ValueError: when `theta_anom` is not a finite number > 0.
        InsufficientMemoryError: too few transitions, or too few distinct
            arrival cells to place `k` distinct centroids.
    """
    if not (math.isfinite(theta_anom) and theta_anom > 0):
        raise ValueError(f"theta_anom must be finite and > 0, got {theta_anom!r}")
    if rng is None:
        rng = np.random.default_rng()
    required = max(k, min_samples, 2)
    if len(transitions) < required:
        raise InsufficientMemoryError(
            f"need at least {required} transitions, got {len(transitions)}"
        )
    points = np.array(
        [(t.s_next.x, t.s_next.y) for t in transitions], dtype=float
    )
    fit = kmeans_fit(points, k, rng, max_iter=max_iter, tol=tol, n_init=n_init)
    positions = [tuple(c) for c in fit.centroids]
    if len(set(positions)) != k:
        raise InsufficientMemoryError(
            "memory spans too few distinct states for k distinct centroids"
        )
    centroids = tuple(
        Centroid(i, float(x), float(y)) for i, (x, y) in enumerate(positions)
    )

    scores = anomaly_scores(transitions)
    flagged: dict[GridState, float] = {}
    order: list[GridState] = []
    for t, score in zip(transitions, scores):
        if score > theta_anom:
            state = t.s_next
            if state not in flagged:
                order.append(state)
                flagged[state] = float(score)
            else:
                flagged[state] = max(flagged[state], float(score))
    anomalies = tuple(
        AnomalySubgoal(k + j, state, flagged[state])
        for j, state in enumerate(order)
    )
    return SubgoalSet(
        centroids=centroids,
        anomalies=anomalies,
        theta_anom=theta_anom,
        source_size=len(transitions),
    )


def merge(old: SubgoalSet, new: SubgoalSet) -> SubgoalSet:
    """Fold a fresh discovery into the existing subgoal set.

    Ids are append-only: each existing centroid id takes the position of
    its nearest new centroid (greedy one-to-one by ascending distance),
    existing anomalies keep theirs, and new anomaly states are appended
    with the next ids. Value tables carry over by growing new columns.

    Raises:
        ValueError: when both sets are non-empty with different K.
    """
    if old.size == 0:
        return new
    if old.k != new.k:
        raise ValueError(f"cluster count mismatch: {old.k} != {new.k}")

    pairs = sorted(
        (
            (oc.x - nc.x) ** 2 + (oc.y - nc.y) ** 2,
            oc.id,
            nc.id,
        )
        for oc in old.centroids
        for nc in new.centroids
    )
    position_of: dict[int, Centroid] = {}
    taken_new: set[int] = set()
    for _, old_id, new_id in pairs:
        if old_id in position_of or new_id in taken_new:
            continue
        position_of[old_id] = new.centroids[new_id]
        taken_new.add(new_id)
    centroids = tuple(
        Centroid(i, position_of[i].x, position_of[i].y) for i in range(old.k)
    )

    anomalies = list(old.anomalies)
    known = {a.state for a in old.anomalies}
    next_id = old.size
    for a in new.anomalies:
        if a.state in known:
            continue
        anomalies.append(AnomalySubgoal(next_id, a.state, a.score))
        known.add(a.state)
        next_id += 1

    return SubgoalSet(
        centroids=centroids,
        anomalies=tuple(anomalies),
        theta_anom=new.theta_anom,
        source_size=new.source_size,
    )
