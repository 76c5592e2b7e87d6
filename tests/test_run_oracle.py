"""A whole-run oracle for the training loop (differential testing, McKeeman
1998, "Differential Testing for Software").

`_reference_run` is the run written out as plain per-step Python on
`GridState`s: the move rule of `_reference_step`, dict-of-list value
tables, list rings sampled by `floor(u * size)` from scalar draws, one
scalar draw per warm-up action, and the package's own `discover` and
`merge` (which have their own oracles). It shares no bookkeeping with
`Runner`, so a Hypothesis property that compares the two over many
configs checks every run fact at once: the memories, the metrics rows,
the subgoal sets, the value tables, the step counters and the random
generator's final state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_rooms_env import _reference_step
from subgoal_hrl.discovery import InsufficientMemoryError, discover, merge
from subgoal_hrl.memory import Transition
from subgoal_hrl.rooms_env import N_ACTIONS, GridState
from subgoal_hrl.trainer import MODES, WARMUP_CHUNK, RunConfig, Runner

# Key two steps from the start and the box below it: a walk ends episodes
# at the terminal state every few dozen steps.
SMALL_GRID = (
    "#######\n"
    "#S.K#.#\n"
    "#.....#\n"
    "#..#B.#\n"
    "#######\n"
)


class _Ring:
    """Oldest-first list of at most `capacity` items."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.items = []

    def push(self, item):
        self.items.append(item)
        if len(self.items) > self.capacity:
            del self.items[0]

    def sample(self, n, rng):
        size = len(self.items)
        return [self.items[int(rng.random() * size)] for _ in range(n)]


def _eps_greedy(values, epsilon, rng, first=False):
    if rng.random() < epsilon:
        return int(rng.integers(len(values)))
    best = max(values)
    ties = [i for i, v in enumerate(values) if v == best]
    if first or len(ties) == 1:
        return ties[0]
    return ties[int(rng.integers(len(ties)))]


def _attains(state, goal_id, subgoals):
    if goal_id >= subgoals.k:
        return state == subgoals.anomalies[goal_id - subgoals.k].state
    dists = [(c.x - state.x) ** 2 + (c.y - state.y) ** 2 for c in subgoals.centroids]
    return dists.index(min(dists)) == goal_id


def _discounted(rewards, gamma):
    total, factor = 0.0, 1.0
    for r in rewards:
        total += factor * r
        factor *= gamma
    return total


class _ReferenceRun:
    """The state of a reference run; `run` steps it to the end."""

    def __init__(self, cfg: RunConfig) -> None:
        self.cfg = cfg
        self.rng = np.random.default_rng(cfg.seed)
        self.layout = layout = cfg.layout()
        self.states = [
            GridState(x, y, k) for x, y in sorted(layout.playable) for k in (False, True)
        ]
        self.start = self.state = GridState(*layout.start_cell, False)
        self.steps = self.ep_steps = 0
        self.ep_return = 0.0
        self.visited = {self.start.cell}
        self.metrics = []
        self.subgoals = self.controller = self.meta = self.flat = None
        self.warmup_steps_used = self.attempt_steps_total = 0
        self.discovery_steps = []
        hrl = cfg.mode in ("random_meta_hrl", "unified_hrl")
        self.next_discovery = cfg.warmup_steps if hrl else None
        self.memory = _Ring(cfg.memory_capacity)
        self.ctrl_memory = _Ring(cfg.controller_memory_capacity)
        self.meta_memory = _Ring(cfg.meta_memory_capacity)
        self.goal_outcomes: dict[int, list[bool]] = {}
        self.recent: list[bool] = []

    def rate(self, outcomes):
        outcomes = outcomes[-self.cfg.success_window:]
        return sum(outcomes) / len(outcomes) if outcomes else 0.0

    def td(self, row, col, target):
        row[col] += self.cfg.alpha * (target - row[col])

    def maybe_discover(self):
        cfg, index = self.cfg, self.layout.index
        self.next_discovery += cfg.discovery_period
        ids = [
            Transition(index.encode(s), a, r, index.encode(s_next), terminal)
            for s, a, r, s_next, terminal in self.memory.items
        ]
        try:
            fresh = discover(ids, cfg.k, cfg.theta_anom, self.rng,
                             min_samples=cfg.discovery_min_samples, index=index)
        except InsufficientMemoryError:
            return
        init = cfg.table_init
        if self.subgoals is None:
            self.subgoals = fresh
            self.controller = {
                (s, g): [init] * N_ACTIONS for s in self.states for g in range(fresh.size)
            }
            self.meta = {s: [init] * fresh.size for s in self.states}
        else:
            old = self.subgoals.size
            self.subgoals = merge(self.subgoals, fresh)
            for g in range(old, self.subgoals.size):
                for s in self.states:
                    self.controller[s, g] = [init] * N_ACTIONS
            for row in self.meta.values():
                row.extend([init] * (self.subgoals.size - old))
        self.discovery_steps.append(self.steps)

    def env_step(self, action):
        """(reward, terminal) of one step of the chosen `action`."""
        taken = action
        if self.cfg.slip_prob > 0.0 and self.rng.random() < self.cfg.slip_prob:
            taken = int(self.rng.integers(N_ACTIONS))
        s_next, reward, terminal = _reference_step(self.layout, self.state, taken)
        self.steps += 1
        self.ep_steps += 1
        self.ep_return += reward
        self.memory.push((self.state, action, reward, s_next, terminal))
        self.state = s_next
        self.visited.add(s_next.cell)
        if self.steps == self.next_discovery:
            self.maybe_discover()
        return reward, terminal

    def episode_over(self, terminal):
        return terminal or self.ep_steps >= self.cfg.episode_cap

    def end_episode(self):
        self.metrics.append((
            len(self.metrics), self.steps, self.ep_return,
            len(self.visited) / len(self.layout.playable), self.rate(self.recent),
            self.subgoals.size if self.subgoals else 0,
        ))
        self.state, self.ep_steps, self.ep_return = self.start, 0, 0.0

    def warmup(self):
        end = self.cfg.total_steps
        if self.next_discovery is not None:
            end = min(end, self.next_discovery)
        while self.steps < end:
            n = min(end - self.steps, WARMUP_CHUNK)
            # With slip the env's draws follow the chunk's action draws.
            for action in [int(self.rng.integers(N_ACTIONS)) for _ in range(n)]:
                if self.episode_over(self.env_step(action)[1]):
                    self.end_episode()
            self.warmup_steps_used += n

    def attempt(self, goal_id):
        cfg, table = self.cfg, self.controller
        s0 = self.state
        outcomes = self.goal_outcomes.setdefault(goal_id, [])
        epsilon = cfg.controller_eps_start - (
            cfg.controller_eps_start - cfg.controller_eps_end
        ) * self.rate(outcomes)
        rewards = []
        while True:
            s_prev = self.state
            action = _eps_greedy(table[s_prev, goal_id], epsilon, self.rng)
            reward, terminal = self.env_step(action)
            # A discovery inside the step may have replaced the set.
            attained = _attains(self.state, goal_id, self.subgoals)
            self.ctrl_memory.push((
                s_prev, goal_id, action, 1.0 if attained else 0.0, self.state,
                attained or terminal,
            ))
            for s, g, a, r, s_next, done in self.ctrl_memory.sample(
                cfg.batch_size, self.rng
            ):
                self.td(table[s, g], a, r if done else r + cfg.gamma * max(table[s_next, g]))
            rewards.append(reward)
            if (
                attained
                or self.episode_over(terminal)
                or len(rewards) >= cfg.subgoal_timeout
                or self.steps >= cfg.total_steps
            ):
                break
        self.attempt_steps_total += len(rewards)
        self.meta_memory.push((
            s0, goal_id, _discounted(rewards, cfg.gamma), self.state, len(rewards),
            terminal,
        ))
        outcomes.append(attained)
        self.recent.append(attained)
        return terminal

    def meta_epsilon(self):
        start, end = self.cfg.meta_eps_start, self.cfg.meta_eps_end
        horizon = max(1, self.cfg.total_steps // 2)
        if self.steps >= horizon:
            return end
        return start + (end - start) * (self.steps / horizon)

    def run(self):
        cfg, rng = self.cfg, self.rng
        if cfg.mode == "flat_q":
            self.flat = table = {s: [cfg.table_init] * N_ACTIONS for s in self.states}
            while self.steps < cfg.total_steps:
                action = _eps_greedy(table[self.state], cfg.flat_eps, rng, first=True)
                terminal = self.env_step(action)[1]
                for s, a, r, s_next, done in self.memory.sample(cfg.batch_size, rng):
                    self.td(table[s], a, r if done else r + cfg.gamma * max(table[s_next]))
                if self.episode_over(terminal):
                    self.end_episode()
        else:
            unified = cfg.mode == "unified_hrl"
            while self.steps < cfg.total_steps:
                if self.subgoals is None:
                    self.warmup()
                    continue
                if unified:
                    goal_id = _eps_greedy(self.meta[self.state], self.meta_epsilon(), rng)
                else:
                    goal_id = int(rng.integers(self.subgoals.size))
                terminal = self.attempt(goal_id)
                if unified:
                    table = self.meta
                    for s0, g, ret, s_end, duration, done in self.meta_memory.sample(
                        cfg.batch_size, rng
                    ):
                        target = ret if done else (
                            ret + cfg.gamma ** duration * max(table[s_end])
                        )
                        self.td(table[s0], g, target)
                if self.episode_over(terminal):
                    self.end_episode()
        if self.ep_steps > 0:
            self.end_episode()


def _reference_run(cfg: RunConfig) -> dict:
    """Every fact of a run of `cfg`, in `GridState`s and dict tables: what
    `RunResult` holds, the controller and meta memories, and the random
    generator's final state."""
    ref = _ReferenceRun(cfg)
    ref.run()
    facts = {name: getattr(ref, name) for name in (
        "steps", "metrics", "subgoals", "controller", "meta", "flat",
        "warmup_steps_used", "attempt_steps_total", "discovery_steps",
    )}
    facts.update(
        memory=ref.memory.items, ctrl_memory=ref.ctrl_memory.items,
        meta_memory=ref.meta_memory.items, rng_state=ref.rng.bit_generator.state,
    )
    return facts


def _observed_run(cfg: RunConfig) -> dict:
    """`Runner(cfg).run()` in the reference's terms."""
    runner = Runner(cfg)
    result = runner.run()
    states = runner.index.states

    def decoded(records, *positions):
        return [
            tuple(states[v] if i in positions else v for i, v in enumerate(record))
            for record in records
        ]

    controller = result.controller and {
        (state, g): actions
        for state, row in zip(states, result.controller._values)
        for g, actions in enumerate(row)
    }
    meta, flat = (table and dict(zip(states, table._values))
                  for table in (result.meta, result.flat))
    return dict(
        steps=result.steps,
        metrics=[tuple(m) for m in result.metrics],
        subgoals=result.subgoals,
        controller=controller,
        meta=meta,
        flat=flat,
        warmup_steps_used=result.warmup_steps_used,
        attempt_steps_total=result.attempt_steps_total,
        discovery_steps=list(result.discovery_steps),
        memory=decoded(result.memory, 0, 3),
        ctrl_memory=decoded(runner.ctrl_memory.snapshot(), 0, 4),
        meta_memory=decoded(runner.meta_memory.snapshot(), 0, 3),
        rng_state=runner.rng.bit_generator.state,
    )


def _assert_same_run(cfg: RunConfig) -> None:
    want = _reference_run(cfg)
    got = _observed_run(cfg)
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key


@st.composite
def configs(draw):
    """Run configs near every edge. Each list starts with a value under which
    discovery, merges and attempts happen, the value an example shrinks to."""
    layout_text = draw(st.sampled_from([None, SMALL_GRID]))
    playable = len(RunConfig(mode="flat_q", layout_text=layout_text).layout().playable)
    period = draw(st.sampled_from([250, 50, 10_000, 1]))
    # A discovery every step is slow: keep those runs short.
    total = draw(st.sampled_from([300, 50, 2] if period == 1 else [3000, 1200, 400, 2]))
    warmup = max(1, int(total * draw(st.sampled_from([0.3, 0.1, 0.6, 0.99]))))
    c_start = draw(st.sampled_from([1.0, 0.5]))
    m_start = draw(st.sampled_from([1.0, 0.3]))
    return RunConfig(
        mode=draw(st.sampled_from(["unified_hrl", "random_meta_hrl", "flat_q",
                                   "random_walk"])),
        seed=draw(st.integers(0, 2**32 - 1)),
        total_steps=total,
        warmup_steps=min(warmup, total - 1),
        k=draw(st.sampled_from([4, 1, 2, playable])),
        theta_anom=draw(st.sampled_from([3.0, 0.5])),
        discovery_period=period,
        subgoal_timeout=draw(st.sampled_from([50, 1, 2, 10**6])),
        episode_cap=draw(st.sampled_from([200, 37, 1, 2])),
        slip_prob=draw(st.sampled_from([0.0, 0.2])),
        memory_capacity=draw(st.sampled_from([50_000, 400, 17, 1])),
        controller_memory_capacity=draw(st.sampled_from([50_000, 23, 1])),
        meta_memory_capacity=draw(st.sampled_from([10_000, 5, 1])),
        gamma=draw(st.sampled_from([0.99, 1.0])),
        batch_size=draw(st.sampled_from([32, 1, 2])),
        table_init=draw(st.sampled_from([0.0, 1.0])),
        controller_eps_start=c_start,
        controller_eps_end=draw(st.sampled_from([0.1, 0.0, c_start])),
        success_window=draw(st.sampled_from([100, 1, 3])),
        meta_eps_start=m_start,
        meta_eps_end=draw(st.sampled_from([0.1, 0.0, m_start])),
        flat_eps=draw(st.sampled_from([0.4, 0.0, 1.0])),
        discovery_min_samples=draw(st.sampled_from([20, 2, 100])),
        layout_text=layout_text,
    )


@settings(max_examples=25, deadline=None)
@given(cfg=configs())
def test_run_equals_the_reference_run(cfg):
    _assert_same_run(cfg)


@pytest.mark.parametrize("layout_text", [None, SMALL_GRID], ids=["default", "small"])
def test_every_mode_equals_the_reference_run_with_merges_wraps_and_slip(layout_text):
    # Every fact in play: discoveries that merge, all three rings wrapped,
    # slip and table_init; on the small grid, terminal episodes too.
    for mode in MODES:
        _assert_same_run(RunConfig(
            mode=mode, seed=11, total_steps=2000, warmup_steps=400,
            discovery_period=500, discovery_min_samples=20, episode_cap=60,
            slip_prob=0.2, memory_capacity=700, controller_memory_capacity=300,
            meta_memory_capacity=40, table_init=0.5, success_window=7,
            layout_text=layout_text,
        ))
