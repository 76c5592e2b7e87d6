"""Tabular controller and meta-controller: policies, critic, updates.

The controller learns action values q(s, g, a) from intrinsic rewards;
the meta-controller learns subgoal values Q(s, g) from discounted task
returns between subgoal selections. Both are exact tables over the
dense (x, y, has_key) state index. Loss minimization is realized as
per-sample tabular TD updates, the exact-table special case of
minimizing the squared TD error.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .discovery import AnomalySubgoal, SubgoalSet
from .memory import ControllerTransition, MetaTransition, Transition
from .rooms_env import Action, GridState, N_ACTIONS, RoomsLayout

INTRINSIC_REWARD = 1.0


@dataclass(frozen=True)
class EpsilonSchedule:
    """Linear exploration-rate decay, clamped at the floor.

    Attributes:
        start: Initial epsilon.
        end: Final epsilon after `horizon` steps.
        horizon: Steps over which epsilon anneals linearly.
    """

    start: float
    end: float
    horizon: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.end <= self.start <= 1.0:
            raise ValueError("need 0 <= end <= start <= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")

    def value(self, t: int) -> float:
        if t >= self.horizon:
            return self.end
        return self.start + (self.end - self.start) * (t / self.horizon)


class StateIndex:
    """Dense index over (x, y, has_key) for all playable cells."""

    def __init__(self, layout: RoomsLayout) -> None:
        self._cells = sorted(layout.playable)
        self._index: dict[tuple[int, int, bool], int] = {}
        for i, (x, y) in enumerate(self._cells):
            self._index[(x, y, False)] = 2 * i
            self._index[(x, y, True)] = 2 * i + 1
        self.size = 2 * len(self._cells)

    def encode(self, state: GridState) -> int:
        idx = self._index.get((state.x, state.y, state.has_key))
        if idx is None:
            raise ValueError(f"state {state} is not indexable (wall cell?)")
        return idx

    def decode(self, idx: int) -> GridState:
        if not 0 <= idx < self.size:
            raise ValueError(f"state index {idx} out of range")
        x, y = self._cells[idx // 2]
        return GridState(x, y, bool(idx % 2))


def _check_rates(alpha: float, gamma: float) -> None:
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must be in (0, 1]")


def _read_table_csv(
    path: str | Path, header: list[str], index: StateIndex
) -> list[tuple[tuple[int, ...], float]]:
    """(ids, value) rows of a table CSV written by `to_csv`.

    The ids are the integer columns (state first) and must be in range
    for `index`. Raises ValueError on a wrong header, no rows, or a
    malformed row.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found != header:
            raise ValueError(
                f"{path}: expected header {','.join(header)}, got {found}"
            )
        rows = list(reader)
    if not rows:
        raise ValueError(f"{path}: table has no rows")
    entries = []
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"{path}: malformed row {row}")
        ids = tuple(int(v) for v in row[:-1])
        if not 0 <= ids[0] < index.size or min(ids) < 0:
            raise ValueError(f"{path}: id out of range in row {row}")
        entries.append((ids, float(row[-1])))
    return entries


class ControllerTable:
    """q(state, subgoal, action) estimates in intrinsic-reward units."""

    def __init__(
        self,
        index: StateIndex,
        n_subgoals: int,
        n_actions: int = N_ACTIONS,
        init: float = 0.0,
    ) -> None:
        self.index = index
        self.n_subgoals = n_subgoals
        self.n_actions = n_actions
        self.init = init
        self._values = [
            [[init] * n_actions for _ in range(n_subgoals)]
            for _ in range(index.size)
        ]

    def action_values(self, state: GridState, goal_id: int) -> list[float]:
        """Live value row for (state, goal); mutations write through."""
        if not 0 <= goal_id < self.n_subgoals:
            raise ValueError(f"unknown subgoal id {goal_id}")
        return self._values[self.index.encode(state)][goal_id]

    def remapped(self, id_map: dict[int, int], n_subgoals: int) -> "ControllerTable":
        """Copy with columns rearranged per merged-id -> old-id map."""
        out = ControllerTable(self.index, n_subgoals, self.n_actions, self.init)
        for s in range(self.index.size):
            src, dst = self._values[s], out._values[s]
            for new_id, old_id in id_map.items():
                dst[new_id] = list(src[old_id])
        return out

    def rows(self):
        for s in range(self.index.size):
            for g in range(self.n_subgoals):
                for a in range(self.n_actions):
                    yield s, g, a, self._values[s][g][a]

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["state", "subgoal", "action", "value"])
            for s, g, a, v in self.rows():
                writer.writerow([s, g, a, repr(v)])

    @classmethod
    def from_csv(cls, path: str | Path, index: StateIndex) -> "ControllerTable":
        entries = _read_table_csv(
            path, ["state", "subgoal", "action", "value"], index
        )
        n_subgoals = max(g for (_, g, _), _ in entries) + 1
        n_actions = max(a for (_, _, a), _ in entries) + 1
        table = cls(index, n_subgoals, n_actions)
        for (s, g, a), v in entries:
            table._values[s][g][a] = v
        return table


class MetaTable:
    """Q(state, subgoal) estimates in task-reward units."""

    def __init__(self, index: StateIndex, n_subgoals: int, init: float = 0.0) -> None:
        self.index = index
        self.n_subgoals = n_subgoals
        self.init = init
        self._values = [[init] * n_subgoals for _ in range(index.size)]

    def goal_values(self, state: GridState) -> list[float]:
        return self._values[self.index.encode(state)]

    def remapped(self, id_map: dict[int, int], n_subgoals: int) -> "MetaTable":
        out = MetaTable(self.index, n_subgoals, self.init)
        for s in range(self.index.size):
            src, dst = self._values[s], out._values[s]
            for new_id, old_id in id_map.items():
                dst[new_id] = src[old_id]
        return out

    def rows(self):
        for s in range(self.index.size):
            for g in range(self.n_subgoals):
                yield s, g, self._values[s][g]

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["state", "subgoal", "value"])
            for s, g, v in self.rows():
                writer.writerow([s, g, repr(v)])

    @classmethod
    def from_csv(cls, path: str | Path, index: StateIndex) -> "MetaTable":
        entries = _read_table_csv(path, ["state", "subgoal", "value"], index)
        n_subgoals = max(g for (_, g), _ in entries) + 1
        table = cls(index, n_subgoals)
        for (s, g), v in entries:
            table._values[s][g] = v
        return table


class FlatTable:
    """Plain Q(state, action) table for the non-hierarchical baseline."""

    def __init__(
        self, index: StateIndex, n_actions: int = N_ACTIONS, init: float = 0.0
    ) -> None:
        self.index = index
        self.n_actions = n_actions
        self._values = [[init] * n_actions for _ in range(index.size)]

    def action_values(self, state: GridState) -> list[float]:
        return self._values[self.index.encode(state)]

    def rows(self):
        for s in range(self.index.size):
            for a in range(self.n_actions):
                yield s, a, self._values[s][a]

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["state", "action", "value"])
            for s, a, v in self.rows():
                writer.writerow([s, a, repr(v)])

    @classmethod
    def from_csv(cls, path: str | Path, index: StateIndex) -> "FlatTable":
        entries = _read_table_csv(path, ["state", "action", "value"], index)
        n_actions = max(a for (_, a), _ in entries) + 1
        table = cls(index, n_actions)
        for (s, a), v in entries:
            table._values[s][a] = v
        return table


def epsilon_greedy_index(
    values: Sequence[float],
    epsilon: float,
    rng: np.random.Generator,
    tie_break: str = "uniform",
) -> int:
    """Index of an epsilon-greedy pick over `values`.

    With probability epsilon the index is uniform; otherwise the argmax,
    with exact ties broken uniformly at random ("uniform") or by lowest
    index ("first").
    """
    n = len(values)
    if n == 0:
        raise ValueError("values must be non-empty")
    if rng.random() < epsilon:
        return int(rng.integers(n))
    if tie_break == "first":
        best, best_v = 0, values[0]
        for i in range(1, n):
            if values[i] > best_v:
                best, best_v = i, values[i]
        return best
    mx = max(values)
    ties = [i for i, v in enumerate(values) if v == mx]
    if len(ties) == 1:
        return ties[0]
    return ties[int(rng.integers(len(ties)))]


def select_subgoal(
    meta: MetaTable,
    state: GridState,
    epsilon: float,
    rng: np.random.Generator,
) -> int:
    """Epsilon-greedy subgoal id from the meta-controller's values."""
    if meta.n_subgoals == 0:
        raise ValueError("cannot select from an empty subgoal set")
    return epsilon_greedy_index(meta.goal_values(state), epsilon, rng)


def select_action(
    controller: ControllerTable,
    state: GridState,
    goal_id: int,
    epsilon: float,
    rng: np.random.Generator,
) -> Action:
    """Epsilon-greedy primitive action under the current subgoal."""
    return Action(
        epsilon_greedy_index(
            controller.action_values(state, goal_id), epsilon, rng
        )
    )


def intrinsic_critic(
    s_next: GridState, goal_id: int, subgoals: SubgoalSet
) -> tuple[bool, float]:
    """Whether `s_next` attains the subgoal, plus the intrinsic reward.

    Anomaly subgoals require an exact state match (key flag included);
    centroid subgoals are attained when the nearest centroid to the
    arrival cell is the pursued one. Pure function of its arguments.
    """
    sg = subgoals.subgoal(goal_id)
    if isinstance(sg, AnomalySubgoal):
        attained = s_next == sg.state
    else:
        attained = subgoals.nearest_centroid_id(s_next.x, s_next.y) == goal_id
    return attained, INTRINSIC_REWARD if attained else 0.0


def update_controller(
    controller: ControllerTable,
    batch: Sequence[ControllerTransition],
    alpha: float,
    gamma: float,
) -> None:
    """One TD step per item, in order, toward the intrinsic target."""
    _check_rates(alpha, gamma)
    for tr in batch:
        if tr.attained_or_terminal:
            target = tr.r_intrinsic
        else:
            target = tr.r_intrinsic + gamma * max(
                controller.action_values(tr.s_next, tr.goal_id)
            )
        row = controller.action_values(tr.s, tr.goal_id)
        a = int(tr.a)
        row[a] += alpha * (target - row[a])


def update_meta(
    meta: MetaTable,
    batch: Sequence[MetaTransition],
    alpha: float,
    gamma: float,
) -> None:
    """One TD step per item toward the discounted-return target.

    Non-terminal attempts bootstrap with gamma**duration, the discount
    accrued over the temporally extended subgoal attempt.
    """
    _check_rates(alpha, gamma)
    for tr in batch:
        if not 0 <= tr.goal_id < meta.n_subgoals:
            raise ValueError(f"unknown subgoal id {tr.goal_id}")
        if tr.terminal:
            target = tr.return_g
        else:
            target = tr.return_g + gamma ** tr.duration * max(
                meta.goal_values(tr.s_end)
            )
        row = meta.goal_values(tr.s0)
        g = tr.goal_id
        row[g] += alpha * (target - row[g])


def flat_q_update(
    table: FlatTable,
    batch: Sequence[Transition],
    alpha: float,
    gamma: float,
) -> None:
    """Standard one-step Q-learning update over raw transitions."""
    _check_rates(alpha, gamma)
    for tr in batch:
        if tr.terminal:
            target = tr.r
        else:
            target = tr.r + gamma * max(table.action_values(tr.s_next))
        row = table.action_values(tr.s)
        a = int(tr.a)
        row[a] += alpha * (target - row[a])
