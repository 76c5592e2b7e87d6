"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-3 train full runs (5 seeds per mode) and take several
minutes; run with `-s` to watch the per-criterion lines appear.
"""

import math
import time

import numpy as np
import pytest

from conftest import build_full_coverage_memory
from subgoal_hrl.agent import (
    ControllerTable,
    FlatTable,
    StateIndex,
    epsilon_greedy_index,
    flat_q_update,
    update_controller,
)
from subgoal_hrl.discovery import discover, kmeans_fit
from subgoal_hrl.memory import (
    BoundedMemory,
    ControllerTransition,
    Transition,
    accumulate_return,
)
from subgoal_hrl.rooms_env import Action, FourRoomsEnv, GridState, RoomsLayout
from subgoal_hrl.trainer import RunConfig, metrics_to_csv, run

SEEDS = (0, 1, 2, 3, 4)
_criterion5_times: dict[str, float] = {}


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion} failed: {detail}"


def _final_100_mean(result) -> float:
    returns = [m.ep_return for m in result.metrics][-100:]
    return sum(returns) / len(returns)


@pytest.fixture(scope="module")
def unified_200k():
    return [
        run(RunConfig(mode="unified_hrl", seed=seed, total_steps=200_000))
        for seed in SEEDS
    ]


@pytest.fixture(scope="module")
def matched_100k():
    return {
        mode: [
            run(RunConfig(mode=mode, seed=seed, total_steps=100_000))
            for seed in SEEDS
        ]
        for mode in ("flat_q", "random_meta_hrl", "unified_hrl")
    }


@pytest.mark.slow
def test_criterion_1_coverage_endpoint(unified_200k):
    coverages = [r.final_coverage for r in unified_200k]
    full = sum(c == 1.0 for c in coverages)
    _report(
        "criterion 1 (coverage endpoint)",
        full >= 4,
        f"unified_hrl 200k steps: coverage per seed {coverages}, "
        f"{full}/5 reached 1.0 (need >= 4)",
    )


@pytest.mark.slow
def test_criterion_2_coverage_ordering(matched_100k):
    means = {
        mode: sum(r.final_coverage for r in results) / len(results)
        for mode, results in matched_100k.items()
    }
    ok = (
        means["flat_q"] < means["random_meta_hrl"] <= means["unified_hrl"]
        and means["random_meta_hrl"] - means["flat_q"] >= 0.10
    )
    _report(
        "criterion 2 (coverage ordering)",
        ok,
        "mean coverage at 100k steps: "
        f"flat_q={means['flat_q']:.3f} < "
        f"random_meta_hrl={means['random_meta_hrl']:.3f} <= "
        f"unified_hrl={means['unified_hrl']:.3f}, "
        f"margin={means['random_meta_hrl'] - means['flat_q']:.3f} (need >= 0.10)",
    )


@pytest.mark.slow
def test_criterion_3_return_separation(matched_100k):
    flat_means = [_final_100_mean(r) for r in matched_100k["flat_q"]]
    unified_means = [_final_100_mean(r) for r in matched_100k["unified_hrl"]]
    flat_votes = sum(m <= 15.0 for m in flat_means)
    unified_votes = sum(m >= 45.0 for m in unified_means)
    ok = flat_votes >= 3 and unified_votes >= 3
    _report(
        "criterion 3 (return separation)",
        ok,
        f"final-100-episode mean returns: flat_q={[round(m, 1) for m in flat_means]} "
        f"(<= 15 on {flat_votes}/5), "
        f"unified_hrl={[round(m, 1) for m in unified_means]} "
        f"(>= 45 on {unified_votes}/5)",
    )


def test_criterion_4_discovery_geometry():
    env = FourRoomsEnv()
    layout = env.layout
    memory = build_full_coverage_memory(env)
    subgoals = discover(memory, 4, 3.0, np.random.default_rng(0))
    centers = layout.room_interior_centers()
    rooms = []
    max_dist = 0.0
    for c in subgoals.centroids:
        room = layout.room_of((round(c.x), round(c.y)))
        rooms.append(room)
        cx, cy = centers[room]
        max_dist = max(max_dist, math.hypot(c.x - cx, c.y - cy))
    anomaly_states = {a.state for a in subgoals.anomalies}
    expected_anomalies = {
        GridState(*layout.key_cell, True),
        GridState(*layout.box_cell, True),
    }
    ok = (
        sorted(rooms) == ["NE", "NW", "SE", "SW"]
        and max_dist <= 1.5
        and anomaly_states == expected_anomalies
    )
    _report(
        "criterion 4 (discovery geometry)",
        ok,
        f"K=4 centroids in rooms {sorted(rooms)}, max distance from room "
        f"centers {max_dist:.3f} (limit 1.5); anomalies = "
        f"{sorted((s.x, s.y) for s in anomaly_states)} (key and box)",
    )


def _value_iteration(n_states, n_actions, step_fn, gamma, tol=1e-13):
    q = [[0.0] * n_actions for _ in range(n_states)]
    while True:
        delta = 0.0
        for s in range(n_states):
            for a in range(n_actions):
                s2, r, done = step_fn(s, a)
                target = r if done else r + gamma * max(q[s2])
                delta = max(delta, abs(target - q[s][a]))
                q[s][a] = target
        if delta < tol:
            return q


def test_criterion_5a_lloyd_distortion():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst_violation = 0.0
    for _ in range(1000):
        n = int(rng.integers(5, 40))
        k = int(rng.integers(1, min(7, n + 1)))
        pts = rng.uniform(0.0, 12.0, size=(n, 2))
        res = kmeans_fit(pts, k, rng, n_init=1)
        hist = res.distortion_history
        for a, b in zip(hist, hist[1:]):
            worst_violation = max(worst_violation, b - a)
    _criterion5_times["5a"] = time.perf_counter() - t0
    _report(
        "criterion 5a (Lloyd distortion monotone)",
        worst_violation <= 1e-9,
        f"1000 random point sets, worst distortion increase "
        f"{worst_violation:.3e} (tolerance 1e-9)",
    )


def test_criterion_5b_chain_mdp_oracles():
    t0 = time.perf_counter()
    layout = RoomsLayout.default()
    index = StateIndex(layout)
    gamma = 0.9
    cells = [GridState(1, 1), GridState(2, 1), GridState(3, 1)]
    worst = 0.0

    # 2-state chain, controller and flat: EAST from cell 0 ends with reward 1.
    def chain2(s, a):
        return (1, 1.0, True) if a == 0 else (0, 0.0, False)

    oracle2 = _value_iteration(1, 2, chain2, gamma)
    ctrl = ControllerTable(index, 1)
    c_batch = [
        ControllerTransition(cells[0], 0, Action.EAST, 1.0, cells[1], True),
        ControllerTransition(cells[0], 0, Action.WEST, 0.0, cells[0], False),
    ]
    flat = FlatTable(index)
    f_batch = [
        Transition(cells[0], Action.EAST, 1.0, cells[1], True),
        Transition(cells[0], Action.WEST, 0.0, cells[0], False),
    ]
    for _ in range(3000):
        update_controller(ctrl, c_batch, alpha=0.1, gamma=gamma)
        flat_q_update(flat, f_batch, alpha=0.1, gamma=gamma)
    for table_row in (
        ctrl.action_values(cells[0], 0),
        flat.action_values(cells[0]),
    ):
        worst = max(worst, abs(table_row[Action.EAST] - oracle2[0][0]))
        worst = max(worst, abs(table_row[Action.WEST] - oracle2[0][1]))

    # 3-state chain: two steps east to the terminal reward.
    def chain3(s, a):
        if s == 0:
            return (1, 0.0, False) if a == 0 else (0, 0.0, False)
        return (2, 1.0, True) if a == 0 else (0, 0.0, False)

    oracle3 = _value_iteration(2, 2, chain3, gamma)
    ctrl3 = ControllerTable(index, 1)
    c3 = [
        ControllerTransition(cells[0], 0, Action.EAST, 0.0, cells[1], False),
        ControllerTransition(cells[1], 0, Action.EAST, 1.0, cells[2], True),
        ControllerTransition(cells[0], 0, Action.WEST, 0.0, cells[0], False),
        ControllerTransition(cells[1], 0, Action.WEST, 0.0, cells[0], False),
    ]
    flat3 = FlatTable(index)
    f3 = [
        Transition(cells[0], Action.EAST, 0.0, cells[1], False),
        Transition(cells[1], Action.EAST, 1.0, cells[2], True),
        Transition(cells[0], Action.WEST, 0.0, cells[0], False),
        Transition(cells[1], Action.WEST, 0.0, cells[0], False),
    ]
    for _ in range(3000):
        update_controller(ctrl3, c3, alpha=0.1, gamma=gamma)
        flat_q_update(flat3, f3, alpha=0.1, gamma=gamma)
    for s_i, cell in enumerate(cells[:2]):
        for a_i, action in enumerate((Action.EAST, Action.WEST)):
            worst = max(
                worst, abs(ctrl3.action_values(cell, 0)[action] - oracle3[s_i][a_i])
            )
            worst = max(
                worst, abs(flat3.action_values(cell)[action] - oracle3[s_i][a_i])
            )
    _criterion5_times["5b"] = time.perf_counter() - t0
    _report(
        "criterion 5b (chain MDP oracle)",
        worst < 1e-3,
        f"controller and flat Q vs value iteration on 2- and 3-state "
        f"chains: max abs error {worst:.2e} (limit 1e-3)",
    )


def test_criterion_5c_return_formula():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 40))
        rewards = rng.normal(scale=10.0, size=n).tolist()
        gamma = float(rng.uniform(0.05, 1.0))
        direct = sum(gamma**k * r for k, r in enumerate(rewards))
        worst = max(worst, abs(accumulate_return(rewards, gamma) - direct))
    _criterion5_times["5c"] = time.perf_counter() - t0
    _report(
        "criterion 5c (discounted return formula)",
        worst < 1e-9,
        f"200 random reward sequences vs direct summation: "
        f"max abs error {worst:.2e}",
    )


def test_criterion_5d_structural_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(21)
    failures = []

    # FIFO: contents equal the tail of the push history.
    for _ in range(50):
        cap = int(rng.integers(1, 10))
        n = int(rng.integers(1, 40))
        mem = BoundedMemory(cap)
        history = []
        for i in range(n):
            mem.push(i)
            history.append(i)
        if list(mem) != history[-cap:]:
            failures.append("fifo")
            break

    # Determinism under seed: identical metrics CSV for identical config.
    cfg = RunConfig(
        mode="unified_hrl", seed=5, total_steps=2500, warmup_steps=300,
        discovery_period=600, discovery_min_samples=20,
    )
    res_a, res_b = run(cfg), run(cfg)
    if metrics_to_csv(res_a.metrics) != metrics_to_csv(res_b.metrics):
        failures.append("determinism")

    # Coverage monotonicity within a run.
    covs = [m.coverage for m in res_a.metrics]
    if not all(b >= a for a, b in zip(covs, covs[1:])):
        failures.append("coverage-monotone")

    # Greedy argmax invariance under positive affine row scaling.
    row = [0.2, 1.4, 1.4, -3.0]
    scaled = [5.0 * v + 2.0 for v in row]
    for values in (row, scaled):
        counts = [0] * 4
        for _ in range(20_000):
            counts[epsilon_greedy_index(values, 0.0, rng)] += 1
        if counts[0] or counts[3] or abs(counts[1] / 20_000 - 0.5) > 0.02:
            failures.append("affine-invariance")
            break

    _criterion5_times["5d"] = time.perf_counter() - t0
    _report(
        "criterion 5d (structural properties)",
        not failures,
        "FIFO, seed determinism, coverage monotonicity, affine argmax "
        f"invariance all hold (failures: {failures or 'none'})",
    )


def test_criterion_5_total_runtime():
    total = sum(_criterion5_times.values())
    _report(
        "criterion 5 (oracle-suite runtime)",
        total < 30.0,
        f"suites {sorted(_criterion5_times)} ran in {total:.1f}s (limit 30s)",
    )
