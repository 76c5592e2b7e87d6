"""Training-loop contracts: scheduling, accounting, determinism, metrics."""

import dataclasses
import json
import math
import os
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

import subgoal_hrl
from conftest import grid_distance, pytest_report_header
from test_acceptance import run_pooled
from test_rooms_env import CUSTOM_GRID, _reference_step
from subgoal_hrl.agent import (
    INTRINSIC_REWARD, ControllerTable, FlatTable, MetaTable, epsilon_greedy_index,
    intrinsic_critic,
)
from subgoal_hrl.discovery import (
    AnomalySubgoal,
    Centroid,
    SubgoalSet,
    discover,
    kmeans_fit,
    merge,
)
from subgoal_hrl.memory import (
    BoundedMemory,
    Transition,
    accumulate_return,
    load_transitions_jsonl,
    save_transitions_jsonl,
    transition_to_dict,
)
from subgoal_hrl.rooms_env import (
    N_ACTIONS, Action, FourRoomsEnv, GridState, RoomsLayout,
)
from subgoal_hrl.trainer import (
    WARMUP_CHUNK,
    ConfigError,
    RunConfig,
    Runner,
    greedy_rollout,
    metrics_from_csv,
    metrics_to_csv,
    moving_average,
    run,
)


def small_config(mode="unified_hrl", **kwargs):
    base = dict(
        mode=mode,
        seed=3,
        total_steps=3000,
        warmup_steps=300,
        discovery_period=600,
        discovery_min_samples=20,
    )
    base.update(kwargs)
    return RunConfig(**base)


# -- config validation --------------------------------------------------------


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        RunConfig(mode="nope").validate()
    with pytest.raises(ConfigError):
        RunConfig(mode="flat_q", total_steps=100, warmup_steps=100).validate()
    with pytest.raises(ConfigError):
        RunConfig(mode="flat_q", warmup_steps=0).validate()
    with pytest.raises(ConfigError):
        RunConfig(mode="flat_q", subgoal_timeout=0).validate()
    with pytest.raises(ConfigError):
        RunConfig(mode="flat_q", alpha=0.0).validate()
    with pytest.raises(ConfigError):
        RunConfig(mode="flat_q", gamma=1.0001).validate()
    with pytest.raises(ConfigError):
        RunConfig(mode="flat_q", k=0).validate()
    RunConfig(mode="flat_q").validate()


@pytest.mark.parametrize(
    "field", ["theta_anom", "table_init", "alpha", "slip_prob", "flat_eps"]
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_floats(field, value):
    with pytest.raises(ConfigError, match=field):
        RunConfig(mode="unified_hrl", **{field: value}).validate()


def test_an_invalid_config_cannot_be_built():
    with pytest.raises(ConfigError, match="k must be in"):
        RunConfig(mode="flat_q", k=0)
    with pytest.raises(ConfigError, match="episode_cap"):
        dataclasses.replace(RunConfig(mode="flat_q"), episode_cap=0)


def test_run_rejects_invalid_config_before_stepping():
    with pytest.raises(ConfigError):
        run(RunConfig(mode="unified_hrl", total_steps=10, warmup_steps=10))


def test_configs_with_one_layout_text_share_one_layout():
    text = RoomsLayout.default().to_text()
    same = text[:-1] + "\n"  # an equal text in another string object
    a = RunConfig(mode="flat_q", layout_text=text)
    b = RunConfig(mode="unified_hrl", seed=4, layout_text=same)
    assert a.layout() is b.layout() is a.layout()
    assert a.layout() == RoomsLayout.default()


def test_meta_epsilon_linear_and_held_at_end():
    # Horizon: the first half of the run, 201 // 2 = 100 steps.
    runner = Runner(small_config(total_steps=201, warmup_steps=100))
    for steps, expected in ((0, 1.0), (37, 1.0 + (0.1 - 1.0) * (37 / 100)),
                            (100, 0.1), (10_000, 0.1)):
        runner.steps = steps
        assert runner._meta_epsilon() == expected
    runner.steps = 50
    assert runner._meta_epsilon() == pytest.approx(0.55)
    with pytest.raises(ConfigError, match="meta epsilon"):
        small_config(meta_eps_start=0.1, meta_eps_end=0.5).validate()


# -- smoothing -----------------------------------------------------------------


def test_moving_average():
    assert moving_average([3.0, 7.0, 5.0], 1) == [3.0, 7.0, 5.0]
    assert moving_average([4.0] * 5, 3) == [4.0] * 5
    assert moving_average([0.0, 10.0], 2) == [0.0, 5.0]
    assert moving_average([1.0, 2.0, 3.0, 4.0], 2) == [1.0, 1.5, 2.5, 3.5]
    with pytest.raises(ValueError):
        moving_average([1.0], 0)


# -- mode loops -----------------------------------------------------------------


def test_random_walk_step_accounting():
    cfg = RunConfig(mode="random_walk", seed=0, total_steps=10, warmup_steps=5)
    runner = Runner(cfg)
    result = runner.run()
    assert result.steps == 10
    assert result.warmup_steps_used == 10  # the whole run is warm-up
    assert len(result.memory) == 10
    assert len(runner.ctrl_memory) == 0
    assert len(runner.meta_memory) == 0
    assert result.controller is None
    assert result.meta is None
    assert result.flat is None
    assert result.subgoals is None


def test_same_seed_is_bit_identical():
    cfg = small_config(seed=7)
    csv_a = metrics_to_csv(run(cfg).metrics)
    csv_b = metrics_to_csv(run(cfg).metrics)
    assert csv_a == csv_b
    assert metrics_from_csv(csv_a) == metrics_from_csv(csv_b)


def test_metrics_records_round_trip_through_csv_and_are_immutable():
    records = run(small_config(seed=7)).metrics
    assert any(r.num_subgoals and r.success_rate for r in records)
    loaded = metrics_from_csv(metrics_to_csv(records))
    assert loaded == records
    assert repr(loaded) == repr(records)
    with pytest.raises(AttributeError):
        records[0].steps = 0


def test_different_seeds_differ():
    a = run(small_config(seed=1))
    b = run(small_config(seed=2))
    assert metrics_to_csv(a.metrics) != metrics_to_csv(b.metrics)


def test_discovery_event_schedule():
    # warmup 300, period 600 -> discoveries at 300, 900, 1500, 2100, 2700.
    result = run(small_config(seed=5))
    assert result.discovery_steps == (300, 900, 1500, 2100, 2700)


def test_discovery_failure_retries_next_period():
    # min_samples above the warmup memory size: the first discovery
    # attempt fails and is retried on the following periods.
    cfg = RunConfig(
        mode="unified_hrl", seed=2, total_steps=900, warmup_steps=300,
        discovery_period=150, discovery_min_samples=400,
    )
    result = run(cfg)
    assert result.discovery_steps[0] == 450  # 300 failed, 450 succeeded
    assert result.subgoals is not None


# -- warm-up action draws ------------------------------------------------------


def _actions(transitions):
    return [int(t.a) for t in transitions]


def test_random_walk_draws_the_per_step_stream_across_chunks():
    # 9000 steps are drawn in three blocks (4096, 4096, 808). Without slip
    # nothing else draws, so the actions and the generator state after the
    # walk equal those of one scalar draw per step.
    runner = Runner(RunConfig(mode="random_walk", seed=4, total_steps=9000,
                              memory_capacity=9000))
    result = runner.run()
    ref = default_rng(4)
    assert _actions(result.memory) == [int(ref.integers(4)) for _ in range(9000)]
    assert runner.rng.bit_generator.state == ref.bit_generator.state


def test_warmup_stretches_restart_after_failed_discoveries():
    # min_samples above the memory size: the discoveries at 300, 450 and
    # 600 fail, each starting a new stretch; the one at 750 succeeds.
    result = run(RunConfig(
        mode="unified_hrl", seed=6, total_steps=1500, warmup_steps=300,
        discovery_period=150, discovery_min_samples=700,
    ))
    assert result.discovery_steps[0] == result.warmup_steps_used == 750
    ref = default_rng(6)
    assert _actions(result.memory[:750]) == [int(ref.integers(4)) for _ in range(750)]


def test_slip_draws_follow_the_block_of_warmup_actions():
    # With slip the env draws too; its draws come after the block's.
    n, slip = 3000, 0.3
    runner = Runner(RunConfig(mode="random_walk", seed=8, total_steps=n,
                              warmup_steps=100, slip_prob=slip))
    result = runner.run()
    ref = default_rng(8)
    assert _actions(result.memory) == ref.integers(4, size=n).tolist()
    # The raw memory holds entries of the layout's shared move table, not
    # one object per step.
    raw = runner.memory.snapshot()
    table = {id(t) for t in RoomsLayout.default().moves}
    assert all(id(t) in table for t in raw)
    # Replaying each recorded step on an env that shares the reference
    # generator makes the same slip draws and returns the same entries.
    env = FourRoomsEnv(RoomsLayout.default(), slip_prob=slip, rng=ref)
    assert all(env.step(t.s, t.a) is t for t in raw)
    assert runner.rng.bit_generator.state == ref.bit_generator.state


class _StepwiseWarmupRunner(Runner):
    """The reference warm-up: one `_env_step` call per drawn action, as the
    walk ran before it became one loop over the move table."""

    def _warmup(self) -> None:
        end = self.cfg.total_steps
        if self._next_discovery is not None:
            end = min(end, self._next_discovery)
        cap = self.cfg.episode_cap
        while self.steps < end:
            n = min(end - self.steps, WARMUP_CHUNK)
            for action in self.rng.integers(N_ACTIONS, size=n).tolist():
                if self._env_step(action).terminal or self.steps - self.ep_start >= cap:
                    self._end_episode()
            self.warmup_steps_used += n


# The key beside the start and the box one step further: the walk reaches
# the terminal state every few dozen steps.
TINY_GRID = "#####\n#SK.#\n#.B.#\n#...#\n#####\n"
WARMUP_GRID = [
    # Three WARMUP_CHUNK blocks into a ring that wraps four times.
    dict(mode="random_walk", seed=4, total_steps=9000, memory_capacity=1900),
    dict(mode="random_walk", seed=5, total_steps=9000, episode_cap=37),
    dict(mode="random_walk", seed=6, total_steps=5000, warmup_steps=100,
         layout_text=TINY_GRID, episode_cap=23, memory_capacity=777),
    # The discovery at 300 finds too few samples, so a second stretch runs.
    dict(mode="unified_hrl", seed=2, total_steps=1500, warmup_steps=300,
         discovery_period=150, discovery_min_samples=400, episode_cap=50),
    # A discovery due on a step whose episode ends there (see below).
    dict(mode="unified_hrl", seed=0, total_steps=1200, warmup_steps=1000,
         discovery_period=1000, episode_cap=200),
    dict(mode="random_meta_hrl", seed=3, total_steps=2000, warmup_steps=400,
         layout_text=TINY_GRID, episode_cap=29, memory_capacity=350,
         discovery_min_samples=300),
]


@pytest.mark.parametrize("slip_prob", [0.0, 0.2])
@pytest.mark.parametrize("fields", WARMUP_GRID)
def test_warmup_loop_equals_the_stepwise_reference(fields, slip_prob):
    cfg = RunConfig(**fields, slip_prob=slip_prob)
    runner, reference = Runner(cfg), _StepwiseWarmupRunner(cfg)
    got, want = runner.run(), reference.run()
    assert len(got.memory) == len(want.memory)
    assert all(a is b for a, b in zip(got.memory, want.memory))
    for name in ("controller", "meta", "flat"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a and a._values) == (b and b._values)
    # Every other field, the metrics rows, `visited`, the subgoals,
    # `discovery_steps` and `warmup_steps_used` among them, compares by value.
    assert dataclasses.replace(
        got, memory=(), controller=None, meta=None, flat=None, elapsed_seconds=0.0
    ) == dataclasses.replace(
        want, memory=(), controller=None, meta=None, flat=None, elapsed_seconds=0.0
    )
    assert runner.rng.bit_generator.state == reference.rng.bit_generator.state


@pytest.mark.parametrize("slip_prob", [0.0, 0.2])
def test_warmup_pushes_once_per_step_and_never_steps_from_the_terminal(
    monkeypatch, slip_prob
):
    pushes = Counter()
    push = BoundedMemory.push

    def counting_push(self, item):
        pushes[id(self)] += 1
        push(self, item)

    monkeypatch.setattr(BoundedMemory, "push", counting_push)
    runner = Runner(RunConfig(mode="random_walk", seed=9, total_steps=6000,
                              layout_text=TINY_GRID, memory_capacity=6000,
                              slip_prob=slip_prob))
    result = runner.run()
    assert pushes == {id(runner.memory): 6000}
    terminal_id = runner.env.terminal_id
    assert sum(t.terminal for t in result.memory) > 10
    assert all(t.s != terminal_id for t in result.memory)
    # Each terminal step ends its episode; the next starts at the start.
    for t, after in zip(result.memory, result.memory[1:]):
        if t.terminal:
            assert after.s == runner.env.start_id


def test_discovery_due_at_an_episode_end_shows_in_that_row():
    # The episode cap ends the fifth episode on step 1000, the step the
    # first discovery falls due: the row records its subgoals.
    result = run(RunConfig(mode="unified_hrl", seed=0, total_steps=1200,
                           warmup_steps=1000, discovery_period=1000,
                           episode_cap=200))
    (row,) = [m for m in result.metrics if m.steps == 1000]
    assert row.num_subgoals == result.subgoals.size == 5


def test_warmup_random_walk_escapes_first_room(layout):
    # Simulation oracle: 5000 warmup steps reach at least one more room.
    for seed in range(5):
        cfg = RunConfig(
            mode="random_walk", seed=seed, total_steps=5000, warmup_steps=100
        )
        result = run(cfg)
        # 5000 steps never wrap the 50k memory: it holds every arrival.
        cells = {layout.index.states[t.s_next].cell for t in result.memory}
        rooms = {
            layout.room_of(c)
            for c in cells
            if not layout.room_of(c).startswith("doorway")
        }
        assert len(rooms) >= 2


def test_discovery_before_rewards_has_no_anomalies():
    cfg = small_config(seed=11, total_steps=400, warmup_steps=350,
                       discovery_period=600)
    result = run(cfg)
    # A 350-step random walk from the start almost never trips a reward;
    # verified for this seed: the discovered set is centroids only. The
    # discovery at step 350 saw only the warm-up part of the memory.
    assert all(t.r == 0.0 for t in result.memory[:cfg.warmup_steps])
    assert result.subgoals is not None
    assert result.subgoals.k == 4
    assert result.subgoals.anomalies == ()


def test_unified_invariants_small_run(layout):
    cfg = small_config(seed=13)
    runner = Runner(cfg)
    result = runner.run()
    # Coverage is monotone across episode rows.
    covs = [m.coverage for m in result.metrics]
    assert all(b >= a for a, b in zip(covs, covs[1:]))
    assert all(0.0 <= c <= 1.0 for c in covs)
    # No lost steps: warmup plus attempt durations equals total steps.
    assert result.warmup_steps_used + result.attempt_steps_total == result.steps
    assert result.steps == cfg.total_steps
    # Replayed against the raw memory: after the warm-up, each meta record
    # covers the next `duration` raw steps, in order, and its ids, end flag
    # and return are those of that chunk.
    raw = result.memory[result.warmup_steps_used:]
    start = 0
    for mt in runner.meta_memory:
        chunk = raw[start:start + mt.duration]
        start += mt.duration
        assert len(chunk) == mt.duration >= 1
        assert (mt.s0, mt.s_end, mt.terminal) == (
            chunk[0].s, chunk[-1].s_next, chunk[-1].terminal
        )
        assert mt.return_g == accumulate_return([t.r for t in chunk], cfg.gamma)
    assert start == len(raw)
    assert any(mt.return_g != 0.0 for mt in runner.meta_memory)
    # Every controller transition's goal id existed when recorded (ids
    # are stable across merges, so the final set bounds them all).
    assert result.subgoals is not None
    for ct in runner.ctrl_memory:
        assert 0 <= ct.goal_id < result.subgoals.size
        assert ct.r_intrinsic in (0.0, 1.0)
    # Returns never exceed the key+box total.
    assert all(m.ep_return <= 50.0 for m in result.metrics)


def test_controller_reward_follows_the_critic():
    # One discovery (the next falls past the budget), so every controller
    # transition was recorded under the final subgoal set.
    cfg = small_config(seed=0, total_steps=20_000, warmup_steps=5000,
                       discovery_period=20_000)
    runner = Runner(cfg)
    result = runner.run()
    assert result.discovery_steps == (5000,)
    subgoals, states = result.subgoals, runner.index.states
    assert any(subgoals.is_anomaly(g) for g in range(subgoals.size))
    seen = Counter()
    for ct in runner.ctrl_memory:
        attained = intrinsic_critic(states[ct.s_next], ct.goal_id, subgoals)
        terminal = ct.s_next == runner.env.terminal_id
        assert ct.r_intrinsic == (INTRINSIC_REWARD if attained else 0.0)
        assert ct.attained_or_terminal == (attained or terminal)
        seen[attained, terminal] += 1
    # Both rewards occur, and so does an episode end that attains nothing.
    assert seen[True, False] and seen[False, False] and seen[False, True]


def _record_discover_inputs(monkeypatch, runner):
    """List of (transitions, index, memory snapshot) per `discover` call."""
    given = []

    def recording_discover(transitions, *args, **kwargs):
        given.append((transitions, kwargs.get("index"), runner.memory.snapshot()))
        return discover(transitions, *args, **kwargs)

    monkeypatch.setattr("subgoal_hrl.trainer.discover", recording_discover)
    return given


@pytest.mark.parametrize(
    "slip_prob,capacity", [(0.0, 50_000), (0.3, 50_000), (0.0, 700)],
    ids=["0.0", "0.3", "wrapped"],
)
def test_decoded_memory_equals_a_per_item_decode(
    monkeypatch, tmp_path, slip_prob, capacity
):
    # The run's memory is the raw id snapshot; memory.jsonl decodes it item
    # by item and loads back to the same ids. Slip adds transitions whose
    # action is not the move taken, and a small ring wraps.
    runner = Runner(small_config(memory_capacity=capacity, slip_prob=slip_prob))
    given = _record_discover_inputs(monkeypatch, runner)
    result = runner.run()
    assert len(given) == len(range(300, 3000, 600))
    # Discovery reads the raw id snapshot too.
    for transitions, index, snapshot in given:
        assert index is runner.index
        assert transitions == snapshot
        assert all(type(t.s_next) is int for t in transitions)

    snapshot = runner.memory.snapshot()
    assert result.memory == snapshot
    path = tmp_path / "memory.jsonl"
    save_transitions_jsonl(path, result.memory, runner.index)
    assert path.read_text().splitlines() == [
        json.dumps(transition_to_dict(t, runner.index)) for t in snapshot
    ]
    loaded = load_transitions_jsonl(path, runner.index)
    assert len(loaded) == len(snapshot)
    for back, t in zip(loaded, snapshot):
        assert back == t and repr(back) == repr(t)
    shared: dict[Transition, Transition] = {}
    for t in result.memory:
        assert shared.setdefault(t, t) is t  # equal transitions are one object
    assert len(set(result.memory)) < len(result.memory)  # repeats exist


def test_discover_fits_the_arrivals_grouped_by_state(monkeypatch):
    # discover clusters the arrival histogram; its centroids and rng draws
    # equal an unweighted fit on the arrivals repeated per state, in
    # first-seen order.
    runner = Runner(small_config(memory_capacity=700))
    given = _record_discover_inputs(monkeypatch, runner)
    runner.run()
    assert given
    for raw, index, _ in given:
        counts = Counter(t.s_next for t in raw)
        states = [index.states[sid] for sid in counts]
        coords = np.array([(s.x, s.y) for s in states], dtype=float)
        rng_found, rng_fit = default_rng(7), default_rng(7)
        found = discover(raw, 4, 3.0, rng_found, index=index)
        fit = kmeans_fit(
            np.repeat(coords, list(counts.values()), axis=0), 4, rng_fit
        )
        assert [[c.x, c.y] for c in found.centroids] == fit.centroids.tolist()
        assert rng_found.bit_generator.state == rng_fit.bit_generator.state


def test_random_meta_never_trains_meta_table():
    cfg = small_config(mode="random_meta_hrl", seed=17)
    result = run(cfg)
    assert result.meta is not None
    assert all(v == 0.0 for _, _, v in result.meta.rows())
    # The controller does train.
    assert any(v != 0.0 for _, _, _, v in result.controller.rows())


def test_metrics_csv_shape():
    result = run(small_config(seed=19))
    text = metrics_to_csv(result.metrics)
    lines = text.strip().split("\n")
    assert lines[0] == "episode,steps,return,coverage,success_rate,num_subgoals"
    assert len(lines) == len(result.metrics) + 1
    first = result.metrics[0]
    assert first.episode == 0
    assert 0.0 <= first.coverage <= 1.0
    last = result.metrics[-1]
    assert last.steps == 3000
    # Steps are cumulative and strictly increasing across rows.
    steps = [m.steps for m in result.metrics]
    assert all(b > a for a, b in zip(steps, steps[1:]))


def _manual_runner(config, subgoals):
    """Runner with an injected subgoal set and fresh tables."""
    runner = Runner(config)
    runner.subgoals = subgoals
    runner.controller = ControllerTable(runner.index, subgoals.size)
    runner.meta = MetaTable(runner.index, subgoals.size)
    runner._next_discovery = None
    return runner


def _assert_attain_rows_match_the_critic(runner):
    subgoals = runner.subgoals
    assert len(runner._attains) == subgoals.size
    for g, row in enumerate(runner._attains):
        assert row == [
            intrinsic_critic(s, g, subgoals) for s in runner.index.states
        ]


def test_attain_rows_match_the_critic_after_discovery_and_merge():
    runner = Runner(small_config(seed=43))
    runner.run()
    assert len(runner.discovery_steps) >= 2  # a discovery, then merges
    _assert_attain_rows_match_the_critic(runner)

    # (4, 3) is equidistant from both centroids: the tie goes to id 0.
    tie = SubgoalSet(
        centroids=(Centroid(3.0, 3.0), Centroid(5.0, 3.0)),
        anomalies=(AnomalySubgoal(GridState(4, 3, True), 5.0),),
    )
    runner.subgoals = tie
    _assert_attain_rows_match_the_critic(runner)
    on_tie = runner.index.encode(GridState(4, 3))
    assert runner._attains[0][on_tie] and not runner._attains[1][on_tie]

    # After a merge the centroids move and (4, 3) is on a tie again.
    fresh = SubgoalSet(
        centroids=(Centroid(4.0, 4.0), Centroid(4.0, 2.0)),
        anomalies=(AnomalySubgoal(GridState(9, 9), 4.0),),
    )
    runner.subgoals = merge(tie, fresh)
    assert runner.subgoals.size == 4
    _assert_attain_rows_match_the_critic(runner)
    assert runner._attains[0][on_tie] and not runner._attains[1][on_tie]


def test_unattainable_subgoal_times_out(layout):
    # The box-with-key state is unreachable without the key; the attempt
    # must run exactly subgoal_timeout steps and count as a failure.
    cfg = small_config(seed=23, subgoal_timeout=50)
    subgoals = SubgoalSet(
        centroids=(), anomalies=(AnomalySubgoal(GridState(2, 10, True), 9.0),)
    )
    runner = _manual_runner(cfg, subgoals)
    attained, terminal, duration = runner._attempt(0)
    assert duration == 50
    assert not attained
    assert not terminal
    assert runner._goal_outcomes[0].count(True) == 0


def test_trained_controller_attains_key_from_adjacent_cell(layout):
    # Shortest-path oracle: (9,2) is one step from the key; a greedy
    # controller whose table points east attains it in exactly one step.
    assert grid_distance(layout, (9, 2), layout.key_cell) == 1
    cfg = small_config(seed=29, controller_eps_start=0.0, controller_eps_end=0.0)
    key_state = GridState(*layout.key_cell, True)
    subgoals = SubgoalSet(
        centroids=(), anomalies=(AnomalySubgoal(key_state, 9.0),)
    )
    runner = _manual_runner(cfg, subgoals)
    runner.sid = runner.index.encode(GridState(9, 2, False))
    runner.controller.action_values(GridState(9, 2, False), 0)[Action.EAST] = 1.0
    attained, terminal, duration = runner._attempt(0)
    assert attained
    assert duration == 1
    assert runner.index.states[runner.sid] == key_state


def test_own_region_subgoal_attains_on_first_step(layout):
    # Attainment is judged on s_next: pursuing the region the agent is
    # already in succeeds after one step that stays inside it.
    cfg = small_config(seed=31)
    subgoals = SubgoalSet(
        centroids=(Centroid(3.0, 3.0), Centroid(9.0, 9.0)), anomalies=()
    )
    runner = _manual_runner(cfg, subgoals)
    runner.sid = runner.index.encode(GridState(2, 2, False))
    attained, _, duration = runner._attempt(0)
    assert attained
    assert duration == 1


def test_subgoal_attempt_interrupted_by_episode_cap_is_failure(layout):
    cfg = small_config(seed=37, episode_cap=5, subgoal_timeout=50)
    subgoals = SubgoalSet(
        centroids=(), anomalies=(AnomalySubgoal(GridState(2, 10, True), 9.0),)
    )
    runner = _manual_runner(cfg, subgoals)
    attained, terminal, duration = runner._attempt(0)
    assert not attained and not terminal
    assert duration == 5  # stopped by the episode cap, not the timeout


def test_flat_mode_trains_flat_table_only():
    # Tiny custom layout with the key next to the start so the baseline
    # sees a reward within the budget.
    grid = "#####\n#SK.#\n#.B.#\n#...#\n#####\n"
    cfg = RunConfig(mode="flat_q", seed=41, total_steps=2000, warmup_steps=100,
                    layout_text=grid)
    result = run(cfg)
    assert result.flat is not None
    assert result.controller is None and result.meta is None
    assert result.subgoals is None
    assert any(v != 0.0 for _, _, v in result.flat.rows())


def _reference_rollout(config, *, controller=None, meta=None, subgoals=None,
                       flat=None, rng):
    """`greedy_rollout` as it ran on `GridState`s: each step encodes the
    state to read its table row, applies `_reference_step` and keeps the
    decoded next state."""
    layout = config.layout()
    index = layout.index
    state = GridState(*layout.start_cell)
    ep_return, steps, terminal = 0.0, 0, False
    subgoal_path = []
    if flat is not None:
        while not terminal and steps < config.episode_cap:
            row = flat._values[index.encode(state)]
            action = epsilon_greedy_index(row, 0.0, rng, tie_break="first")
            state, reward, terminal = _reference_step(layout, state, Action(action))
            ep_return += reward
            steps += 1
    else:
        while not terminal and steps < config.episode_cap:
            goal_id = epsilon_greedy_index(meta._values[index.encode(state)], 0.0, rng)
            t_in = 0
            while True:
                row = controller.action_values(state, goal_id)
                action = epsilon_greedy_index(row, 0.0, rng)
                state, reward, terminal = _reference_step(layout, state, Action(action))
                ep_return += reward
                steps += 1
                t_in += 1
                attained = intrinsic_critic(state, goal_id, subgoals)
                if (attained or terminal or t_in >= config.subgoal_timeout
                        or steps >= config.episode_cap):
                    break
            subgoal_path.append({
                "goal_id": goal_id,
                "kind": "anomaly" if subgoals.is_anomaly(goal_id) else "centroid",
                "attained": attained,
                "steps": t_in,
            })
    return {"return": ep_return, "steps": steps, "terminal": terminal,
            "subgoal_path": subgoal_path}


# A 3x3 room where a greedy policy over arbitrary values often takes the key.
_KEY_BESIDE_START = "#####\n#SK.#\n#.B.#\n#...#\n#####\n"


@st.composite
def _rollout_case(draw, hierarchical):
    """A config, tables whose values come from a set of at most three (so
    argmax ties, and their tie-break draws, are common) and, for a
    hierarchical case, a subgoal set with anomalies."""
    config = RunConfig(
        mode="unified_hrl" if hierarchical else "flat_q",
        layout_text=draw(st.sampled_from([None, CUSTOM_GRID, _KEY_BESIDE_START])),
        episode_cap=draw(st.integers(1, 150)),
        subgoal_timeout=draw(st.integers(1, 12)),
    )
    layout = config.layout()
    pool = draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0]),
                         min_size=1, max_size=3, unique=True))
    fill_rng = default_rng(draw(st.integers(0, 2**32 - 1)))

    def filled(table):
        table._values = fill_rng.choice(pool, size=table.shape).tolist()
        return table

    if not hierarchical:
        return config, {"flat": filled(FlatTable(layout.index))}
    # Half-cell coordinates put some cells at equal distance from two centroids.
    coords = st.tuples(st.integers(0, 2 * layout.width - 2),
                       st.integers(0, 2 * layout.height - 2))
    centroids = draw(st.lists(coords, min_size=1, max_size=4, unique=True))
    anomalies = draw(st.lists(st.sampled_from(layout.index.states),
                              max_size=3, unique=True))
    subgoals = SubgoalSet(
        centroids=tuple(Centroid(x / 2, y / 2) for x, y in centroids),
        anomalies=tuple(AnomalySubgoal(s, 5.0) for s in anomalies),
    )
    return config, {
        "subgoals": subgoals,
        "controller": filled(ControllerTable(layout.index, subgoals.size)),
        "meta": filled(MetaTable(layout.index, subgoals.size)),
    }


def _assert_rollouts_match_the_reference(case, seed, episodes):
    config, tables = case
    rng, ref_rng = default_rng(seed), default_rng(seed)
    got = [greedy_rollout(config, rng=rng, **tables) for _ in range(episodes)]
    want = [_reference_rollout(config, rng=ref_rng, **tables) for _ in range(episodes)]
    assert got == want
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(case=_rollout_case(hierarchical=False), seed=st.integers(0, 2**32 - 1),
       episodes=st.integers(1, 3))
def test_flat_greedy_rollout_equals_the_grid_state_reference(case, seed, episodes):
    _assert_rollouts_match_the_reference(case, seed, episodes)


@settings(max_examples=150, deadline=None)
@given(case=_rollout_case(hierarchical=True), seed=st.integers(0, 2**32 - 1),
       episodes=st.integers(1, 3))
def test_hierarchical_greedy_rollout_equals_the_grid_state_reference(
    case, seed, episodes
):
    _assert_rollouts_match_the_reference(case, seed, episodes)


@pytest.mark.slow
def test_unified_learns_at_desk_scale():
    # 20k steps is enough for full coverage on every seed here. Whether the
    # box is flagged within the budget depends on the trajectory, so it is
    # counted over eight seeds; 4 is what seeds 0-7 reached before K-means
    # ran on the arrival histogram.
    results = run_pooled([
        RunConfig(
            mode="unified_hrl", seed=seed, total_steps=20_000,
            warmup_steps=2000, discovery_period=5000,
        )
        for seed in range(8)
    ])
    for result in results:
        assert result.final_coverage == 1.0
        assert result.subgoals is not None and result.subgoals.size >= 5
    # The box state was found and flagged as an anomaly subgoal in at
    # least half of the runs.
    box = GridState(2, 10, True)
    flagged = sum(
        box in {a.state for a in result.subgoals.anomalies} for result in results
    )
    assert flagged >= 4


def test_readme_configuration_table_lists_every_field():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration reference", 1)[1].split("\n## ", 1)[0]
    keys = [
        line.split("`")[1] for line in section.splitlines() if line.startswith("| `")
    ]
    assert keys == list(RunConfig.field_names())


def test_report_header_names_a_shadowed_pythonpath_entry(tmp_path, monkeypatch):
    here = Path(subgoal_hrl.__file__).resolve().parent
    other = tmp_path / "other"
    (other / "subgoal_hrl").mkdir(parents=True)
    (other / "subgoal_hrl" / "__init__.py").write_text("")
    entries = [str(tmp_path / "missing"), str(here.parent), str(other), ""]
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(entries))
    lines = pytest_report_header()
    assert lines[0] == f"subgoal_hrl: {here}"
    assert len(lines) == 2 and f"entry {other} holds another" in lines[1]
    monkeypatch.delenv("PYTHONPATH")
    assert pytest_report_header() == lines[:1]
