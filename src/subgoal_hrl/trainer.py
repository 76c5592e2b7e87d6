"""Single-phase training loop tying environment, memories, discovery and
agents together, plus the baseline regimes used for comparison.

Modes:
    random_walk     uniform random actions; fills the experience memory only
                    (the HRL warm-up, run for the whole budget)
    flat_q          non-hierarchical Q-learning with replay
    random_meta_hrl discovered subgoals picked uniformly; controller learns
    unified_hrl     full loop: discovery, controller and meta-controller
                    all training together
"""

from __future__ import annotations

import math
import time
from collections import defaultdict, deque
from dataclasses import dataclass, fields
from typing import NamedTuple, Sequence

import numpy as np

from .agent import (
    INTRINSIC_REWARD,
    ControllerTable,
    FlatTable,
    MetaTable,
    epsilon_greedy_index,
    flat_q_update,
    intrinsic_critic,
    select_action,
    select_subgoal,
    update_controller,
    update_meta,
)
from .discovery import InsufficientMemoryError, SubgoalSet, discover, merge
from .memory import (
    MAX_CAPACITY,
    BoundedMemory,
    ControllerTransition,
    MetaTransition,
    Transition,
    accumulate_return,
    is_finite_number,
)
from .rooms_env import FourRoomsEnv, LayoutError, N_ACTIONS, RoomsLayout

MODES = ("random_walk", "flat_q", "random_meta_hrl", "unified_hrl")
# Most warm-up actions drawn in one call; it bounds the drawn list on long
# walks. Only without slip does any chunking give the same stream.
WARMUP_CHUNK = 4096
# Largest replay minibatch; each is drawn as one float array.
MAX_BATCH_SIZE = 2**16
# Longest episode, 315 times the default grid's 208 states; a greedy `eval`
# episode that never reaches the box runs until this cap.
MAX_EPISODE_CAP = 2**16

METRICS_HEADER = "episode,steps,return,coverage,success_rate,num_subgoals"


class ConfigError(ValueError):
    """Raised before any stepping when a run configuration is invalid."""


@dataclass(frozen=True)
class RunConfig:
    """Every knob of a training run, with desk-scale defaults; validated when built.

    Attributes:
        mode: One of MODES.
        seed: Root seed for the run's single random stream.
        total_steps: Environment steps to execute.
        k: Number of K-means centroids discovered.
        theta_anom: Reward z-score threshold for anomaly subgoals.
        warmup_steps: Random-walk steps before the first discovery.
        discovery_period: Steps between rediscoveries.
        subgoal_timeout: Max controller steps per subgoal attempt.
        episode_cap: Max environment steps per episode.
        slip_prob: Chance a chosen action is replaced by a random one.
        memory_capacity: Raw experience memory size (discovery input).
        controller_memory_capacity: Controller replay memory size.
        meta_memory_capacity: Meta-controller replay memory size.
        alpha: TD step size for all tables.
        gamma: Discount factor for all returns.
        batch_size: Replay minibatch size per update.
        table_init: Initial table value (0 default; optimistic if > 0).
        controller_eps_start / controller_eps_end: Per-subgoal exploration
            range; annealed by the subgoal's moving success rate.
        success_window: Attempts in the moving success-rate window.
        meta_eps_start / meta_eps_end: Meta exploration range, annealed
            linearly over the first half of training.
        flat_eps: Fixed exploration rate of the flat baseline.
        discovery_min_samples: Memory size required before discovery runs.
        layout_text: Optional custom grid (text format); default four-rooms.
    """

    mode: str
    seed: int = 0
    total_steps: int = 200_000
    k: int = 4
    theta_anom: float = 3.0
    warmup_steps: int = 5_000
    discovery_period: int = 10_000
    subgoal_timeout: int = 50
    episode_cap: int = 200
    slip_prob: float = 0.0
    memory_capacity: int = 50_000
    controller_memory_capacity: int = 50_000
    meta_memory_capacity: int = 10_000
    alpha: float = 0.1
    gamma: float = 0.99
    batch_size: int = 32
    table_init: float = 0.0
    controller_eps_start: float = 1.0
    controller_eps_end: float = 0.1
    success_window: int = 100
    meta_eps_start: float = 1.0
    meta_eps_end: float = 0.1
    flat_eps: float = 0.4
    discovery_min_samples: int = 100
    layout_text: str | None = None

    def __post_init__(self) -> None:
        self.validate()
        # YAML reads `theta_anom: 3` as an int; a float field holds a float
        # whatever its spelling, so both spellings write the same artifacts.
        for f in fields(self):
            if f.type == "float":
                object.__setattr__(self, f.name, float(getattr(self, f.name)))

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and type(value) is not int:
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "float" and not is_finite_number(value):
                raise ConfigError(f"{f.name} must be a finite number, got {value!r}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.layout_text is not None and type(self.layout_text) is not str:
            raise ConfigError("layout_text must be a string or null")
        try:
            layout = self.layout()
        except LayoutError as exc:
            raise ConfigError(f"layout_text: {exc}") from exc
        if not self.total_steps > self.warmup_steps > 0:
            raise ConfigError("need total_steps > warmup_steps > 0")
        if self.subgoal_timeout < 1:
            raise ConfigError("subgoal_timeout must be >= 1")
        if not 1 <= self.episode_cap <= MAX_EPISODE_CAP:
            raise ConfigError(f"episode_cap must be in [1, {MAX_EPISODE_CAP}]")
        # K-means places its centroids on distinct arrival cells.
        if not 1 <= self.k <= len(layout.playable):
            raise ConfigError(
                f"k must be in [1, {len(layout.playable)}], the layout's "
                "playable cell count"
            )
        if self.theta_anom <= 0:
            raise ConfigError("theta_anom must be > 0")
        if self.discovery_period < 1:
            raise ConfigError("discovery_period must be >= 1")
        if self.discovery_min_samples < 2:
            raise ConfigError("discovery_min_samples must be >= 2")
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError("alpha must be in (0, 1]")
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigError("gamma must be in (0, 1]")
        if not 1 <= self.batch_size <= MAX_BATCH_SIZE:
            raise ConfigError(f"batch_size must be in [1, {MAX_BATCH_SIZE}]")
        for name in ("memory_capacity", "controller_memory_capacity",
                     "meta_memory_capacity", "success_window"):
            if not 1 <= getattr(self, name) <= MAX_CAPACITY:
                raise ConfigError(f"{name} must be in [1, {MAX_CAPACITY}]")
        if not 0.0 <= self.controller_eps_end <= self.controller_eps_start <= 1.0:
            raise ConfigError("controller epsilon range out of order")
        if not 0.0 <= self.meta_eps_end <= self.meta_eps_start <= 1.0:
            raise ConfigError("meta epsilon range out of order")
        if not 0.0 <= self.flat_eps <= 1.0:
            raise ConfigError("flat_eps must be in [0, 1]")
        if not 0.0 <= self.slip_prob < 1.0:
            raise ConfigError("slip_prob must be in [0, 1)")

    def layout(self) -> RoomsLayout:
        if self.layout_text is None:
            return RoomsLayout.default()
        return RoomsLayout.from_text(self.layout_text)

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in fields(cls))


class MetricsRecord(NamedTuple):
    """Per-episode training metrics, one row of metrics.csv."""

    episode: int
    steps: int
    ep_return: float
    coverage: float
    success_rate: float
    num_subgoals: int

    def csv_row(self) -> str:
        return (
            f"{self.episode},{self.steps},{self.ep_return!r},"
            f"{self.coverage!r},{self.success_rate!r},{self.num_subgoals}"
        )


def metrics_to_csv(records: Sequence[MetricsRecord]) -> str:
    lines = [METRICS_HEADER]
    lines.extend(r.csv_row() for r in records)
    return "\n".join(lines) + "\n"


def metrics_from_csv(text: str) -> list[MetricsRecord]:
    """Parse metrics.csv. A row that no run writes raises ValueError
    naming its line."""
    rows = [(n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not rows or rows[0][1] != METRICS_HEADER:
        raise ValueError("unrecognized metrics CSV header")
    records = []
    last_steps = 0
    for number, ln in rows[1:]:
        try:
            ep, steps, ret, cov, sr, ng = ln.split(",")
            record = MetricsRecord(
                int(ep), int(steps), float(ret), float(cov), float(sr), int(ng)
            )
            _check_metrics_row(record, last_steps)
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from exc
        records.append(record)
        last_steps = record.steps
    return records


def _check_metrics_row(record: MetricsRecord, last_steps: int) -> None:
    # Every episode ends after at least one step, so steps strictly rise.
    if record.steps <= last_steps:
        raise ValueError(
            f"steps {record.steps} do not exceed the previous row's {last_steps}"
        )
    if not math.isfinite(record.ep_return):
        raise ValueError(f"return {record.ep_return!r} is not finite")
    if not 0.0 <= record.coverage <= 1.0:
        raise ValueError(f"coverage {record.coverage!r} is outside [0, 1]")
    if not 0.0 <= record.success_rate <= 1.0:
        raise ValueError(f"success rate {record.success_rate!r} is outside [0, 1]")
    if record.num_subgoals < 0:
        raise ValueError(f"num_subgoals {record.num_subgoals} is negative")


def moving_average(series: Sequence[float], window: int) -> list[float]:
    """Trailing mean over the last `window` points (fewer at the start)."""
    if window < 1:
        raise ValueError("window must be >= 1")
    out = []
    acc = 0.0
    for i, v in enumerate(series):
        acc += v
        if i >= window:
            acc -= series[i - window]
        out.append(acc / min(i + 1, window))
    return out


@dataclass
class RunResult:
    """Everything a finished run produced."""

    config: RunConfig
    metrics: list[MetricsRecord]
    subgoals: SubgoalSet | None
    controller: ControllerTable | None
    meta: MetaTable | None
    flat: FlatTable | None
    memory: tuple[Transition, ...]
    discovery_steps: tuple[int, ...]
    warmup_steps_used: int
    attempt_steps_total: int
    steps: int
    elapsed_seconds: float

    @property
    def final_coverage(self) -> float:
        return self.metrics[-1].coverage if self.metrics else 0.0


class Runner:
    """Executes one run. Internal machinery behind :func:`run`.

    The state `sid` and every memory hold ids of `env.index`, as does the
    `RunResult`'s memory.
    """

    def __init__(self, config: RunConfig) -> None:
        self.cfg = config
        self.rng = np.random.default_rng(config.seed)
        layout = config.layout()
        self.env = env = FourRoomsEnv(layout, slip_prob=config.slip_prob, rng=self.rng)
        self.index = env.index
        self.memory: BoundedMemory[Transition] = BoundedMemory(
            config.memory_capacity
        )
        self.ctrl_memory: BoundedMemory[ControllerTransition] = BoundedMemory(
            config.controller_memory_capacity
        )
        self.meta_memory: BoundedMemory[MetaTransition] = BoundedMemory(
            config.meta_memory_capacity
        )

        self.subgoals = None
        self.controller: ControllerTable | None = None
        self.meta: MetaTable | None = None
        self.flat: FlatTable | None = None

        self.metrics: list[MetricsRecord] = []
        self.steps = 0
        self.ep_start = 0  # steps when the current episode started
        self.ep_return = 0.0
        self.sid = env.start_id
        # One byte per cell (state id // 2), set once the cell is visited.
        self._visits = bytearray(len(self.index.cells))
        self._visits[self.sid >> 1] = 1

        self.warmup_steps_used = 0
        self.attempt_steps_total = 0
        self.discovery_steps: list[int] = []
        hrl = config.mode in ("random_meta_hrl", "unified_hrl")
        self._next_discovery: int | None = config.warmup_steps if hrl else None

        self._goal_outcomes: dict[int, deque[bool]] = defaultdict(
            lambda: deque(maxlen=config.success_window)
        )
        self._recent_attempts: deque[bool] = deque(maxlen=config.success_window)
        self._t0 = time.perf_counter()

    # -- shared plumbing ---------------------------------------------------

    @property
    def subgoals(self) -> SubgoalSet | None:
        return self._subgoals

    @subgoals.setter
    def subgoals(self, subgoals: SubgoalSet | None) -> None:
        # Attain rows: _attains[g][sid] says whether arriving in sid attains g.
        self._subgoals = subgoals
        self._attains = subgoals and [
            [intrinsic_critic(s, g, subgoals) for s in self.index.states]
            for g in range(subgoals.size)
        ]

    def _env_step(self, action: int) -> Transition:
        """One step: push its shared transition, mark the cell and run a
        discovery that falls due; returns the transition."""
        t = self.env.step(self.sid, action)
        self.steps += 1
        self.ep_return += t.r
        self.memory.push(t)
        self.sid = sid = t.s_next
        self._visits[sid >> 1] = 1
        # steps grows by one and the schedule moves only when it fires, so
        # equality is reached exactly once per scheduled discovery.
        if self.steps == self._next_discovery:
            self._maybe_discover()
        return t

    def _maybe_discover(self) -> None:
        self._next_discovery += self.cfg.discovery_period
        try:
            fresh = discover(
                self.memory.snapshot(),
                self.cfg.k,
                self.cfg.theta_anom,
                self.rng,
                min_samples=self.cfg.discovery_min_samples,
                index=self.index,
            )
        except InsufficientMemoryError:
            return
        if self.subgoals is None:
            self.subgoals = fresh
            self.controller = ControllerTable(
                self.index, fresh.size, init=self.cfg.table_init
            )
            self.meta = MetaTable(self.index, fresh.size, init=self.cfg.table_init)
        else:
            self.subgoals = merge(self.subgoals, fresh)
            self.controller.grow(self.subgoals.size)
            self.meta.grow(self.subgoals.size)
        self.discovery_steps.append(self.steps)

    def _episode_over(self, terminal: bool) -> bool:
        return terminal or self.steps - self.ep_start >= self.cfg.episode_cap

    def _end_episode(self) -> None:
        recent = self._recent_attempts
        self.metrics.append(
            MetricsRecord(
                episode=len(self.metrics),
                steps=self.steps,
                ep_return=self.ep_return,
                coverage=self._visits.count(1) / len(self._visits),
                success_rate=sum(recent) / len(recent) if recent else 0.0,
                num_subgoals=self.subgoals.size if self.subgoals else 0,
            )
        )
        self.sid = self.env.start_id
        self.ep_start = self.steps
        self.ep_return = 0.0

    def _goal_epsilon(self, goal_id: int) -> float:
        cfg = self.cfg
        outcomes = self._goal_outcomes[goal_id]
        rate = (sum(outcomes) / len(outcomes)) if outcomes else 0.0
        return cfg.controller_eps_start - (
            cfg.controller_eps_start - cfg.controller_eps_end
        ) * rate

    def _meta_epsilon(self) -> float:
        """Linear from meta_eps_start to meta_eps_end over the first half
        of the run, then held at meta_eps_end."""
        start, end = self.cfg.meta_eps_start, self.cfg.meta_eps_end
        horizon = max(1, self.cfg.total_steps // 2)
        if self.steps >= horizon:
            return end
        return start + (end - start) * (self.steps / horizon)

    # -- mode loops ----------------------------------------------------------

    def run(self) -> RunResult:
        mode = self.cfg.mode
        if mode == "flat_q":
            self._run_flat()
        else:
            # A random walk schedules no discovery, so it is all warm-up.
            self._run_hrl(unified=mode == "unified_hrl")
        if self.steps > self.ep_start:
            self._end_episode()
        return RunResult(
            config=self.cfg,
            metrics=self.metrics,
            subgoals=self.subgoals,
            controller=self.controller,
            meta=self.meta,
            flat=self.flat,
            memory=self.memory.snapshot(),
            discovery_steps=tuple(self.discovery_steps),
            warmup_steps_used=self.warmup_steps_used,
            attempt_steps_total=self.attempt_steps_total,
            steps=self.steps,
            elapsed_seconds=time.perf_counter() - self._t0,
        )

    def _run_flat(self) -> None:
        cfg = self.cfg
        self.flat = FlatTable(self.index, init=cfg.table_init)
        values = self.flat._values
        while self.steps < cfg.total_steps:
            # Classic argmax baseline: deterministic first-index tie
            # breaking, so untrained regions do not turn into a uniform
            # random walk.
            action = epsilon_greedy_index(
                values[self.sid], cfg.flat_eps, self.rng, tie_break="first"
            )
            terminal = self._env_step(action).terminal
            flat_q_update(
                self.flat,
                self.memory.sample(cfg.batch_size, self.rng),
                cfg.alpha,
                cfg.gamma,
            )
            if self._episode_over(terminal):
                self._end_episode()

    def _warmup(self) -> None:
        """Uniform random actions up to the next scheduled discovery, or to
        the end of the run when none is scheduled.

        The steps of `_env_step` in one loop: the counters live in locals
        and reach the runner before `_maybe_discover` or `_end_episode`
        reads them. Without slip a step reads the entry `env.step` would
        return straight from the move table; its checks cannot fire, as
        actions are drawn in range and a terminal step ends the episode.

        The discovery fires on the stretch's last step, before that step's
        episode ends, so no drawn action is left over. numpy's block draw
        gives the same values and generator state as one scalar draw per
        step; with slip, the env's draws follow the block's.
        """
        end = self.cfg.total_steps
        if self._next_discovery is not None:
            end = min(end, self._next_discovery)
        env, cap = self.env, self.cfg.episode_cap
        step, moves, slip = env.step, env.layout.moves, env.slip_prob > 0.0
        push, visits = self.memory.push, self._visits
        steps, sid, ep_start, ep_return = self.steps, self.sid, self.ep_start, self.ep_return
        while steps < end:
            n = min(end - steps, WARMUP_CHUNK)
            for action in self.rng.integers(N_ACTIONS, size=n).tolist():
                if slip:
                    t = step(sid, action)
                else:
                    t = moves[(sid * N_ACTIONS + action) * N_ACTIONS + action]
                steps += 1
                ep_return += t.r
                push(t)
                sid = t.s_next
                visits[sid >> 1] = 1
                if t.terminal or steps - ep_start >= cap:
                    self.steps, self.ep_return = steps, ep_return
                    if steps == self._next_discovery:
                        self._maybe_discover()
                    self._end_episode()
                    sid, ep_start, ep_return = self.sid, steps, 0.0
            self.warmup_steps_used += n
        self.steps, self.sid, self.ep_return = steps, sid, ep_return
        # Moved on when it fired at an episode end above.
        if steps == self._next_discovery:
            self._maybe_discover()

    def _attempt(self, goal_id: int) -> tuple[bool, bool, int]:
        """Pursue one subgoal until attained, episode end, or timeout.

        Returns (attained, terminal, duration).
        """
        cfg = self.cfg
        s0 = self.sid
        # Outcomes change only when an attempt ends, so epsilon holds within it.
        epsilon = self._goal_epsilon(goal_id)
        rewards: list[float] = []
        while True:
            s_prev = self.sid
            action = epsilon_greedy_index(
                self.controller._values[s_prev][goal_id], epsilon, self.rng
            )
            t = self._env_step(action)
            terminal = t.terminal
            # A rediscovery inside the step may have replaced the rows.
            attained = self._attains[goal_id][self.sid]
            self.ctrl_memory.push(
                ControllerTransition(
                    s_prev,
                    goal_id,
                    action,
                    INTRINSIC_REWARD if attained else 0.0,
                    self.sid,
                    attained or terminal,
                )
            )
            update_controller(
                self.controller,
                self.ctrl_memory.sample(cfg.batch_size, self.rng),
                cfg.alpha,
                cfg.gamma,
            )
            rewards.append(t.r)
            if (
                attained
                or self._episode_over(terminal)
                or len(rewards) >= cfg.subgoal_timeout
                or self.steps >= cfg.total_steps
            ):
                break
        duration = len(rewards)
        self.attempt_steps_total += duration
        return_g = accumulate_return(rewards, cfg.gamma)
        self.meta_memory.push(
            MetaTransition(s0, goal_id, return_g, self.sid, duration, terminal)
        )
        self._goal_outcomes[goal_id].append(attained)
        self._recent_attempts.append(attained)
        return attained, terminal, duration

    def _run_hrl(self, unified: bool) -> None:
        cfg = self.cfg
        while self.steps < cfg.total_steps:
            if self.subgoals is None:
                self._warmup()
                continue
            if unified:
                goal_id = epsilon_greedy_index(
                    self.meta._values[self.sid], self._meta_epsilon(), self.rng
                )
            else:
                goal_id = int(self.rng.integers(self.subgoals.size))
            _, terminal, _ = self._attempt(goal_id)
            if unified:
                update_meta(
                    self.meta,
                    self.meta_memory.sample(cfg.batch_size, self.rng),
                    cfg.alpha,
                    cfg.gamma,
                )
            if self._episode_over(terminal):
                self._end_episode()


def run(config: RunConfig) -> RunResult:
    """Execute a full training run; deterministic given config.seed."""
    return Runner(config).run()


def greedy_rollout(
    config: RunConfig,
    *,
    controller: ControllerTable | None = None,
    meta: MetaTable | None = None,
    subgoals: SubgoalSet | None = None,
    flat: FlatTable | None = None,
    rng: np.random.Generator,
) -> dict:
    """One greedy episode from saved tables; reports return and subgoal path.

    Steps run on state ids; a state is decoded only for the critic."""
    env = FourRoomsEnv(config.layout())
    states = env.index.states
    sid = env.start_id
    ep_return = 0.0
    steps = 0
    terminal = False
    subgoal_path: list[dict] = []

    if flat is not None:
        values = flat._values
        while not terminal and steps < config.episode_cap:
            action = epsilon_greedy_index(values[sid], 0.0, rng, tie_break="first")
            t = env.step(sid, action)
            ep_return += t.r
            terminal = t.terminal
            sid = t.s_next
            steps += 1
    else:
        if controller is None or meta is None or subgoals is None:
            raise ValueError("hierarchical rollout needs controller, meta and subgoals")
        while not terminal and steps < config.episode_cap:
            goal_id = select_subgoal(meta, sid, 0.0, rng)
            t_in = 0
            while True:
                t = env.step(sid, select_action(controller, sid, goal_id, 0.0, rng))
                ep_return += t.r
                terminal = t.terminal
                sid = t.s_next
                steps += 1
                t_in += 1
                attained = intrinsic_critic(states[sid], goal_id, subgoals)
                if (
                    attained
                    or terminal
                    or t_in >= config.subgoal_timeout
                    or steps >= config.episode_cap
                ):
                    break
            subgoal_path.append(
                {
                    "goal_id": goal_id,
                    "kind": "anomaly" if subgoals.is_anomaly(goal_id) else "centroid",
                    "attained": attained,
                    "steps": t_in,
                }
            )
    return {
        "return": ep_return,
        "steps": steps,
        "terminal": terminal,
        "subgoal_path": subgoal_path,
    }
