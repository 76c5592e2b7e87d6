"""Discovery contracts: clustering, anomaly scoring, merging."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from conftest import build_full_coverage_memory, id_coded
from subgoal_hrl.discovery import (
    AnomalySubgoal,
    Centroid,
    InsufficientMemoryError,
    SubgoalSet,
    anomaly_scores,
    discover,
    kmeans_fit,
    merge,
)
from subgoal_hrl.memory import Transition
from subgoal_hrl.rooms_env import Action, GridState, RoomsLayout, StateIndex


_INDEX = StateIndex(RoomsLayout.default())


def _arrivals(cells, reward=0.0, key=False, terminal=False):
    """Minimal id-coded transitions whose s' carries the given cells."""
    out = []
    for x, y in cells:
        s = GridState(x, y, key)
        out.append(Transition(s, Action.EAST, reward, GridState(x, y, key), terminal))
    return id_coded(out, _INDEX)


# -- kmeans_fit ----------------------------------------------------------


def test_kmeans_single_cluster_is_mean(rng):
    res = kmeans_fit([(1.0, 1.0), (3.0, 3.0)], 1, rng)
    assert np.allclose(res.centroids, [[2.0, 2.0]])


def test_kmeans_fixed_point_zero_distortion(rng):
    pts = [(1.0, 1.0), (5.0, 9.0), (11.0, 2.0)]
    res = kmeans_fit(pts, 3, rng)
    assert res.distortion == pytest.approx(0.0, abs=1e-12)
    assert {tuple(c) for c in res.centroids} == set(pts)


def test_kmeans_rejects_bad_inputs(rng):
    with pytest.raises(ValueError):
        kmeans_fit([(1.0, 1.0)], 2, rng)
    with pytest.raises(ValueError):
        kmeans_fit([(1.0, 1.0)], 0, rng)


_ROWS = [(1.0, 1.0), (4.0, 2.0), (0.0, 5.0)]


@pytest.mark.parametrize(
    "weights,k,message",
    [
        ([[1, 2, 3]], 2, "one integer per row"),
        ([1, 2], 2, "one integer per row"),
        ([1, 2, 3, 4], 2, "one integer per row"),
        ([1.0, 2.0, 3.0], 2, "one integer per row"),
        ([True, True, True], 2, "one integer per row"),
        (["1", "2", "3"], 2, "one integer per row"),
        ([1, 0, 3], 2, "weights must be >= 1"),
        ([1, -2, 3], 2, "weights must be >= 1"),
        ([1, 1, 1], 4, "need at least 4 points, got 3"),
    ],
    ids=["2-d", "short", "long", "float", "bool", "text", "zero", "negative",
         "total-below-k"],
)
def test_kmeans_rejects_bad_weights_before_any_draw(weights, k, message):
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        kmeans_fit(_ROWS, k, rng, weights=np.array(weights))
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("weights", [None, [1, 2, 3, 1, 1]])
def test_kmeans_rejects_points_with_no_column_before_any_draw(weights):
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="at least one column"):
        kmeans_fit(np.zeros((5, 0)), 2, rng, weights=weights)
    assert rng.bit_generator.state == before


def test_kmeans_deterministic_under_seed():
    pts = np.random.default_rng(5).uniform(0, 12, size=(200, 2))
    a = kmeans_fit(pts, 4, np.random.default_rng(11))
    b = kmeans_fit(pts, 4, np.random.default_rng(11))
    assert np.array_equal(a.centroids, b.centroids)
    assert np.array_equal(a.assignments, b.assignments)


def test_kmeans_distortion_history_non_increasing(rng):
    for _ in range(100):
        n = int(rng.integers(5, 40))
        k = int(rng.integers(1, min(6, n + 1)))
        pts = rng.uniform(0, 12, size=(n, 2))
        res = kmeans_fit(pts, k, rng, n_init=1)
        hist = res.distortion_history
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))


def test_kmeans_reaches_global_optimum_on_small_instance(rng):
    # Brute-force oracle: enumerate every 2-partition of 6 points.
    pts = np.array(
        [(1.0, 1.0), (1.2, 0.8), (0.9, 1.1), (8.0, 8.0), (8.3, 7.9), (7.8, 8.2)]
    )
    best = float("inf")
    for mask in range(1, 2**6 - 1):
        groups = [[], []]
        for i in range(6):
            groups[(mask >> i) & 1].append(pts[i])
        distortion = 0.0
        for grp in groups:
            arr = np.array(grp)
            distortion += float(((arr - arr.mean(axis=0)) ** 2).sum())
        best = min(best, distortion)
    res = kmeans_fit(pts, 2, rng)
    assert res.distortion == pytest.approx(best, abs=1e-9)


def test_kmeans_four_rooms_centroids_land_in_each_room(rng, env):
    memory = build_full_coverage_memory(env)
    pts = [env.index.states[t.s_next].cell for t in memory]
    res = kmeans_fit(pts, 4, rng)
    rooms = set()
    for cx, cy in res.centroids:
        room = env.layout.room_of((round(cx), round(cy)))
        assert not room.startswith("doorway")
        rooms.add(room)
    assert rooms == {"NW", "NE", "SW", "SE"}


# -- anomaly scores --------------------------------------------------------


def test_anomaly_scores_all_zero_rewards(rng):
    scores = anomaly_scores(_arrivals([(1, 1)] * 10))
    assert np.all(scores == 0.0)


def test_anomaly_scores_single_outlier():
    transitions = _arrivals([(1, 1)] * 999) + _arrivals([(10, 2)], reward=10.0)
    scores = anomaly_scores(transitions)
    # Direct arithmetic oracle for the z-score of the lone +10.
    rewards = [0.0] * 999 + [10.0]
    mean = sum(rewards) / len(rewards)
    var = sum((r - mean) ** 2 for r in rewards) / len(rewards)
    expected = abs(10.0 - mean) / math.sqrt(var)
    assert scores[-1] == pytest.approx(expected, rel=1e-9)
    assert round(expected, 1) == 31.6
    assert scores[-1] > 3.0
    assert np.all(scores[:-1] < 3.0)


def test_anomaly_scores_key_and_box_top_two(env):
    # Scripted episode: straight to the key, then to the box, then padding.
    layout = env.layout
    transitions = []
    start = sid = env.start_id
    # (1,1) -> door (6,3) -> key (10,2), then down through (9,6) and
    # (6,9) doorways to the box (2,10).
    plan = [Action.EAST] * 4 + [Action.SOUTH] * 2 + [Action.EAST] * 5 + [Action.NORTH]
    plan += [Action.WEST] + [Action.SOUTH] * 7 + [Action.WEST] * 7 + [Action.SOUTH]
    for a in plan:
        t = env.step(sid, a)
        transitions.append(t)
        sid = t.s_next
        if t.terminal:
            break
    assert any(t.r == 10.0 for t in transitions)
    assert any(t.r == 40.0 for t in transitions)
    # Zero-reward padding: bounce between two start-room cells.
    sid = start
    for i in range(500):
        t = env.step(sid, Action.EAST if i % 2 == 0 else Action.WEST)
        transitions.append(t)
        sid = t.s_next
    scores = anomaly_scores(transitions)
    top2 = np.argsort(scores)[-2:]
    top_states = {env.index.states[transitions[i].s_next] for i in top2}
    assert top_states == {
        GridState(*layout.key_cell, True),
        GridState(*layout.box_cell, True),
    }


def test_anomaly_scores_need_two_transitions():
    with pytest.raises(ValueError):
        anomaly_scores(_arrivals([(1, 1)]))


# -- discover --------------------------------------------------------------


def test_discover_full_memory_k4(full_coverage_memory, rng, layout):
    subgoals = discover(full_coverage_memory, 4, 3.0, rng, index=_INDEX)
    assert subgoals.size == 6
    assert subgoals.k == 4
    anomaly_states = {a.state for a in subgoals.anomalies}
    assert anomaly_states == {
        GridState(*layout.key_cell, True),
        GridState(*layout.box_cell, True),
    }


@pytest.mark.parametrize("k", [6, 8])
def test_discover_more_clusters_same_anomalies(full_coverage_memory, rng, k):
    subgoals = discover(full_coverage_memory, k, 3.0, rng, index=_INDEX)
    assert subgoals.k == k
    assert subgoals.size == k + 2
    assert len(subgoals.anomalies) == 2


def test_discover_zero_rewards_no_anomalies(rng):
    transitions = _arrivals([(x, 1) for x in range(1, 6)] * 4)
    subgoals = discover(transitions, 1, 3.0, rng, index=_INDEX)
    assert subgoals.k == 1
    assert subgoals.anomalies == ()


def test_discover_flags_a_large_negative_reward_outlier(rng):
    # `discover --memory` takes any finite reward, so an outlier may lie far
    # below the mean; its score is its distance from the mean in stds.
    transitions = _arrivals([(x, 1) for x in range(1, 6)] * 20)
    transitions += _arrivals([(10, 2)], reward=-50.0)
    scores = anomaly_scores(transitions)
    assert scores[-1] > 3.0 and (scores[:-1] < 3.0).all()
    subgoals = discover(transitions, 2, 3.0, rng, index=_INDEX)
    assert subgoals.anomalies == (
        AnomalySubgoal(GridState(10, 2, False), float(scores[-1])),
    )


def test_discover_keeps_a_state_s_highest_score(rng):
    # The state is flagged twice, its higher score first.
    transitions = _arrivals([(10, 2)], reward=40.0)
    transitions += _arrivals([(x, 1) for x in range(1, 6)] * 40)
    transitions += _arrivals([(10, 2)], reward=20.0)
    scores = anomaly_scores(transitions)
    assert scores[0] > scores[-1] > 3.0
    subgoals = discover(transitions, 2, 3.0, rng, index=_INDEX)
    assert subgoals.anomalies == (
        AnomalySubgoal(GridState(10, 2, False), float(scores[0])),
    )


def test_discover_insufficient_memory(rng):
    with pytest.raises(InsufficientMemoryError):
        discover(_arrivals([(1, 1)]), 4, 3.0, rng, index=_INDEX)
    with pytest.raises(InsufficientMemoryError):
        discover(
            _arrivals([(1, 1), (2, 1)]), 1, 3.0, rng, min_samples=10, index=_INDEX
        )


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_discover_rejects_bad_theta_anom(full_coverage_memory, rng, theta):
    with pytest.raises(ValueError, match="theta_anom"):
        discover(full_coverage_memory, 4, theta, rng, index=_INDEX)


def test_discover_degenerate_memory_rejected(rng):
    # 8 transitions but a single distinct arrival cell: no 2 distinct centroids.
    with pytest.raises(InsufficientMemoryError):
        discover(_arrivals([(1, 1)] * 8), 2, 3.0, rng, index=_INDEX)


def test_discover_ids_dense_and_anomalies_from_memory(full_coverage_memory, rng):
    subgoals = discover(full_coverage_memory, 5, 3.0, rng, index=_INDEX)
    blob = subgoals.to_json_dict()
    assert [c["id"] for c in blob["centroids"]] == [0, 1, 2, 3, 4]
    assert [a["id"] for a in blob["anomalies"]] == [5, 6]
    arrivals = {_INDEX.states[t.s_next] for t in full_coverage_memory}
    assert all(a.state in arrivals for a in subgoals.anomalies)


def test_discover_deterministic_under_seed(full_coverage_memory):
    a = discover(full_coverage_memory, 4, 3.0, np.random.default_rng(2), index=_INDEX)
    b = discover(full_coverage_memory, 4, 3.0, np.random.default_rng(2), index=_INDEX)
    assert a == b


@pytest.mark.parametrize("bad", [-1, -_INDEX.size, _INDEX.size, 10**6, 2**70])
def test_discover_rejects_arrival_ids_off_the_index(bad):
    # A negative id would wrap through list indexing, a past-the-end one
    # would end in a bare IndexError, and one past int64 does not fit the
    # arrivals array.
    memory = [Transition(0, 0, 0.0, sid, False) for sid in range(_INDEX.size)]
    memory[5] = memory[5]._replace(s_next=bad)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=rf"arrival id {bad} "):
        discover(memory, 4, 3.0, rng, index=_INDEX)
    assert rng.bit_generator.state == before  # checked before any draw


@pytest.mark.parametrize("bad", [3.5, "3"])
def test_discover_rejects_arrival_ids_that_are_not_integers(bad):
    # The ids are read into an integer array only after the check, which
    # would otherwise truncate 3.5 to 3 and parse "3".
    memory = [Transition(0, 0, 0.0, sid, False) for sid in range(_INDEX.size)]
    memory[5] = memory[5]._replace(s_next=bad)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(TypeError):
        discover(memory, 4, 3.0, rng, index=_INDEX)
    assert rng.bit_generator.state == before


# -- merge -----------------------------------------------------------------


def _rooms_subgoal_set(offsets=(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)):
    centers = [(3.0, 3.0), (9.0, 3.0), (3.0, 9.0), (9.0, 9.0)]
    centroids = tuple(
        Centroid(x + offsets[2 * i], y + offsets[2 * i + 1])
        for i, (x, y) in enumerate(centers)
    )
    anomalies = (
        AnomalySubgoal(GridState(10, 2, True), 5.0),
        AnomalySubgoal(GridState(2, 10, True), 20.0),
    )
    return SubgoalSet(centroids=centroids, anomalies=anomalies)


def test_merge_identity():
    old = _rooms_subgoal_set()
    assert merge(old, old) == old


def test_merge_empty_old_gives_fresh_ids():
    new = _rooms_subgoal_set()
    assert merge(SubgoalSet((), ()), new) == new


def test_merge_k_mismatch_rejected(rng):
    old = _rooms_subgoal_set()
    new = SubgoalSet((Centroid(3.0, 3.0),), ())
    with pytest.raises(ValueError):
        merge(old, new)


def test_merge_appends_new_anomalies_with_fresh_ids():
    old = _rooms_subgoal_set()
    extra = AnomalySubgoal(GridState(6, 3, False), 4.0)
    new = SubgoalSet(
        centroids=old.centroids,
        anomalies=(old.anomalies[0], old.anomalies[1], extra),
    )
    merged = merge(old, new)
    assert merged.size == 7
    assert merged.anomalies[-1].state == GridState(6, 3, False)
    assert merged.subgoal(6) == extra


def test_merge_keeps_old_anomalies_missing_from_new():
    old = _rooms_subgoal_set()
    new = SubgoalSet(centroids=old.centroids, anomalies=())
    merged = merge(old, new)
    assert merged.anomalies == old.anomalies


def test_merge_takes_the_fresh_threshold_and_memory_size():
    old = dataclasses.replace(_rooms_subgoal_set(), theta_anom=3.0, source_size=100)
    new = dataclasses.replace(old, theta_anom=4.5, source_size=250)
    merged = merge(old, new)
    assert (merged.theta_anom, merged.source_size) == (4.5, 250)


def test_merge_perturbed_centroids_preserve_room_identity(layout):
    # Exhaustive perturbation grid: every centroid shifted by each combo.
    old = _rooms_subgoal_set()
    shifts = (-0.4, 0.4)
    for combo in itertools.product(shifts, repeat=4):
        offsets = []
        for dx in combo:
            offsets += [dx, -dx]
        new = _rooms_subgoal_set(tuple(offsets))
        merged = merge(old, new)
        for old_c, new_c in zip(old.centroids, merged.centroids):
            old_room = layout.room_of((round(old_c.x), round(old_c.y)))
            new_room = layout.room_of((round(new_c.x), round(new_c.y)))
            assert old_room == new_room


# -- SubgoalSet ---------------------------------------------------------------


def test_subgoal_set_validation():
    with pytest.raises(ValueError, match="pairwise distinct"):
        SubgoalSet((Centroid(3.0, 3.0), Centroid(3.0, 3.0)), ())
    with pytest.raises(ValueError, match="unique"):
        SubgoalSet((), (AnomalySubgoal(GridState(1, 1), 4.0),) * 2)


def test_subgoal_set_nearest_centroid_ties_to_lowest_id():
    s = _rooms_subgoal_set()
    # (6, 3) is equidistant to NW (id 0) and NE (id 1) centers.
    assert s.nearest_centroid_id(6, 3) == 0
    assert s.nearest_centroid_id(9.0, 9.0) == 3


def test_subgoal_set_json_round_trip(full_coverage_memory, rng, layout):
    subgoals = discover(full_coverage_memory, 4, 3.0, rng, index=_INDEX)
    again = SubgoalSet.from_json_dict(subgoals.to_json_dict(), layout)
    assert again == subgoals
    blob = subgoals.to_json_dict()
    assert blob["k"] == 4
    assert blob["size"] == 6
    assert blob["theta_anom"] == 3.0
    assert blob["source_memory_size"] == len(full_coverage_memory)


_SUBGOALS_JSON = {
    "k": 1,
    "size": 2,
    "theta_anom": 3.0,
    "source_memory_size": 100,
    "centroids": [{"id": 0, "x": 2.5, "y": 3}],
    "anomalies": [
        {"id": 1, "x": 10, "y": 2, "has_key": True, "score": 7.5},
    ],
}


def test_subgoal_set_from_json_dict_accepts_integer_numbers(layout):
    subgoals = SubgoalSet.from_json_dict(_SUBGOALS_JSON, layout)
    assert subgoals.centroids == (Centroid(2.5, 3.0),)
    assert subgoals.anomalies == (AnomalySubgoal(GridState(10, 2, True), 7.5),)
    assert type(subgoals.centroids[0].y) is float


@pytest.mark.parametrize(
    "part,edit",
    [
        ("centroids", {"id": "0"}),
        ("centroids", {"id": 0.0}),
        ("centroids", {"id": False}),
        ("centroids", {"x": "2.5"}),
        ("centroids", {"y": math.nan}),
        ("centroids", {"x": math.inf}),
        ("centroids", {"y": True}),
        ("anomalies", {"has_key": "false"}),
        ("anomalies", {"has_key": 0}),
        ("anomalies", {"x": 10.0}),
        ("anomalies", {"y": -2}),
        ("anomalies", {"x": True}),
        ("anomalies", {"score": "7.5"}),
        ("anomalies", {"score": -math.inf}),
        ("anomalies", {"score": -7.5}),
        ("anomalies", {"score": 0.0}),
        ("anomalies", {"score": 3.0}),
        ("anomalies", {"score": 1e308}),
        ("anomalies", {"id": "1"}),
        ("centroids", {"id": 1}),
        ("anomalies", {"id": 0}),
        ("anomalies", {"id": 2}),
        ("centroids", {"x": 13.0}),
        ("centroids", {"y": -0.5}),
        ("anomalies", {"x": 0, "y": 0}),
        ("anomalies", {"x": 10**6}),
    ],
    ids=[
        "string-centroid-id", "float-centroid-id", "boolean-centroid-id",
        "string-centroid-x", "nan-centroid-y", "inf-centroid-x",
        "boolean-centroid-y", "string-has-key", "integer-has-key",
        "float-anomaly-x", "negative-anomaly-y", "boolean-anomaly-x",
        "string-score", "infinite-score", "negative-score", "zero-score",
        "score-at-theta", "score-above-sqrt-source", "string-anomaly-id",
        "centroid-id-skips-0", "anomaly-id-repeats-centroid-id", "anomaly-id-skips",
        "centroid-x-at-width", "negative-centroid-y", "anomaly-on-a-wall",
        "anomaly-off-the-grid",
    ],
)
def test_subgoal_set_from_json_dict_rejects_mistyped_fields(part, edit, layout):
    blob = {**_SUBGOALS_JSON, part: [{**_SUBGOALS_JSON[part][0], **edit}]}
    with pytest.raises(ValueError):
        SubgoalSet.from_json_dict(blob, layout)


@pytest.mark.parametrize(
    "edit",
    [
        {"k": 2}, {"k": "1"}, {"k": True}, {"size": 1}, {"size": 2.0},
        {"theta_anom": math.nan}, {"theta_anom": -3.0}, {"theta_anom": "3"},
        {"source_memory_size": -1}, {"source_memory_size": 10.5},
    ],
    ids=[
        "k-too-large", "string-k", "boolean-k", "size-too-small", "float-size",
        "nan-theta", "negative-theta", "string-theta", "negative-source",
        "float-source",
    ],
)
def test_subgoal_set_from_json_dict_rejects_bad_header_fields(edit, layout):
    with pytest.raises(ValueError, match="to count the subgoals"):
        SubgoalSet.from_json_dict({**_SUBGOALS_JSON, **edit}, layout)


@pytest.mark.parametrize(
    "edit,ok",
    [
        ({"score": 10.0}, True),
        ({"score": 10.000001}, False),
        ({"score": 1e150, "source_memory_size": 10**400}, True),
        ({"score": 1e308, "source_memory_size": None}, True),
        ({"score": 1e-300, "theta_anom": None}, True),
        ({"score": 0.0, "theta_anom": None}, False),
    ],
    ids=["sqrt-source", "above-sqrt-source", "huge-source", "null-source",
         "null-theta", "zero-with-null-theta"],
)
def test_subgoal_set_from_json_dict_bounds_anomaly_scores(edit, ok, layout):
    # A score lies in (theta_anom or 0, sqrt(source_memory_size)].
    header = {k: edit.pop(k) for k in ("theta_anom", "source_memory_size") if k in edit}
    anomaly = {**_SUBGOALS_JSON["anomalies"][0], **edit}
    blob = {**_SUBGOALS_JSON, **header, "anomalies": [anomaly]}
    if ok:
        subgoals = SubgoalSet.from_json_dict(blob, layout)
        assert subgoals.anomalies[0].score == edit["score"]
    else:
        with pytest.raises(ValueError, match="anomaly score"):
            SubgoalSet.from_json_dict(blob, layout)
