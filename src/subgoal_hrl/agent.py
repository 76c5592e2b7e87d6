"""Tabular controller and meta-controller: policies, critic, updates.

The controller learns action values q(s, g, a) from intrinsic rewards;
the meta-controller learns subgoal values Q(s, g) from discounted task
returns between subgoal selections. Both are exact tables over the
dense (x, y, has_key) state index. Loss minimization is realized as
per-sample tabular TD updates, the exact-table special case of
minimizing the squared TD error. The updates index rows by state id,
trusting ids as the trainer's replays hold them; a batch of `GridState`
transitions is encoded, and so checked, once on entry.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .discovery import AnomalySubgoal, SubgoalSet
from .memory import ControllerTransition, MetaTransition, Transition
from .rooms_env import Action, GridState, N_ACTIONS, StateIndex

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


def _check_rates(alpha: float, gamma: float) -> None:
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must be in (0, 1]")


def _read_table_csv(
    path: str | Path, header: list[str], index: StateIndex
) -> np.ndarray:
    """Values of a table CSV from `to_csv`, shaped (states, *counts).

    The ids are the integer columns (state first) and must be in range
    for `index`; the rows may come in any order. The counts are those of
    the columns after the state (subgoals, actions), each one past its
    largest id. Raises ValueError naming `path` on a wrong header, no
    rows, a malformed row, a non-finite value, or a table that does not
    hold exactly one row per id combination.
    """
    with open(path, encoding="utf-8") as fh:
        found = fh.readline().rstrip("\n")
        if found != ",".join(header):
            raise ValueError(
                f"{path}: expected header {','.join(header)}, got {found!r}"
            )
        body = fh.read()
    if not body.strip():
        raise ValueError(f"{path}: table has no rows")
    dtype = [(name, np.int64) for name in header[:-1]]
    try:
        rows = np.loadtxt(
            io.StringIO(body), dtype=dtype + [(header[-1], np.float64)],
            delimiter=",", comments=None, ndmin=1,
        )
    except ValueError as exc:
        raise ValueError(f"{path}: malformed row: {exc}") from exc
    ids = [rows[name] for name, _ in dtype]
    values = rows[header[-1]]
    out_of_range = ids[0] >= index.size
    for col in ids:
        out_of_range |= col < 0
    for bad, what in ((out_of_range, "id out of range"),
                      (~np.isfinite(values), "non-finite value")):
        if bad.any():
            raise ValueError(f"{path}: {what} in row {rows[bad.argmax()]}")
    counts = tuple(int(col.max()) + 1 for col in ids[1:])
    shape = (index.size, *counts)
    expected = math.prod(shape)
    if len(rows) == expected:
        flat = np.ravel_multi_index(ids, shape)
        if (np.bincount(flat, minlength=expected) == 1).all():
            table = np.empty(expected)
            table[flat] = values
            return table.reshape(shape)
    raise ValueError(
        f"{path}: expected one row per id combination of "
        f"{index.size} states x {' x '.join(map(str, counts))}, "
        f"got {len(rows)} rows"
    )


class ControllerTable:
    """q(state, subgoal, action) estimates in intrinsic-reward units."""

    def __init__(
        self,
        index: StateIndex,
        n_subgoals: int,
        n_actions: int = N_ACTIONS,
        init: float = 0.0,
        values: list | None = None,
    ) -> None:
        self.index = index
        self.n_subgoals = n_subgoals
        self.n_actions = n_actions
        self.init = init
        self._values = values or [
            [[init] * n_actions for _ in range(n_subgoals)]
            for _ in range(index.size)
        ]

    def action_values(self, state: GridState, goal_id: int) -> list[float]:
        """Live value row for (state, goal); mutations write through."""
        if not 0 <= goal_id < self.n_subgoals:
            raise ValueError(f"unknown subgoal id {goal_id}")
        return self._values[self.index.encode(state)][goal_id]

    def grow(self, n_subgoals: int) -> None:
        """Append `init` columns up to `n_subgoals` ids; ids are never dropped."""
        if n_subgoals < self.n_subgoals:
            raise ValueError(f"cannot shrink to {n_subgoals} subgoals")
        for row in self._values:
            row.extend([self.init] * self.n_actions
                       for _ in range(n_subgoals - self.n_subgoals))
        self.n_subgoals = n_subgoals

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
        values = _read_table_csv(
            path, ["state", "subgoal", "action", "value"], index
        )
        return cls(index, *values.shape[1:], values=values.tolist())


class MetaTable:
    """Q(state, subgoal) estimates in task-reward units."""

    def __init__(
        self, index: StateIndex, n_subgoals: int, init: float = 0.0,
        values: list | None = None,
    ) -> None:
        self.index = index
        self.n_subgoals = n_subgoals
        self.init = init
        self._values = values or [[init] * n_subgoals for _ in range(index.size)]

    def goal_values(self, state: GridState) -> list[float]:
        return self._values[self.index.encode(state)]

    def grow(self, n_subgoals: int) -> None:
        """Append `init` columns up to `n_subgoals` ids; ids are never dropped."""
        if n_subgoals < self.n_subgoals:
            raise ValueError(f"cannot shrink to {n_subgoals} subgoals")
        for row in self._values:
            row.extend([self.init] * (n_subgoals - self.n_subgoals))
        self.n_subgoals = n_subgoals

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
        values = _read_table_csv(path, ["state", "subgoal", "value"], index)
        return cls(index, *values.shape[1:], values=values.tolist())


class FlatTable:
    """Plain Q(state, action) table for the non-hierarchical baseline."""

    def __init__(
        self, index: StateIndex, n_actions: int = N_ACTIONS, init: float = 0.0,
        values: list | None = None,
    ) -> None:
        self.index = index
        self.n_actions = n_actions
        self._values = values or [[init] * n_actions for _ in range(index.size)]

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
        values = _read_table_csv(path, ["state", "action", "value"], index)
        return cls(index, *values.shape[1:], values=values.tolist())


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
    if batch and type(batch[0].s) is not int:
        ids = controller.index.ids
        batch = [(ids[s], g, a, r, ids[s2], d) for s, g, a, r, s2, d in batch]
    values, n_subgoals = controller._values, controller.n_subgoals
    for s, g, a, r, s_next, done in batch:
        if not 0 <= g < n_subgoals:
            raise ValueError(f"unknown subgoal id {g}")
        if done:
            target = r
        else:
            target = r + gamma * max(values[s_next][g])
        row = values[s][g]
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
    if batch and type(batch[0].s0) is not int:
        ids = meta.index.ids
        batch = [replace(tr, s0=ids[tr.s0], s_end=ids[tr.s_end]) for tr in batch]
    values, n_subgoals = meta._values, meta.n_subgoals
    for tr in batch:
        g = tr.goal_id
        if not 0 <= g < n_subgoals:
            raise ValueError(f"unknown subgoal id {g}")
        if tr.terminal:
            target = tr.return_g
        else:
            target = tr.return_g + gamma ** tr.duration * max(values[tr.s_end])
        row = values[tr.s0]
        row[g] += alpha * (target - row[g])


def flat_q_update(
    table: FlatTable,
    batch: Sequence[Transition],
    alpha: float,
    gamma: float,
) -> None:
    """Standard one-step Q-learning update over raw transitions."""
    _check_rates(alpha, gamma)
    if batch and type(batch[0].s) is not int:
        ids = table.index.ids
        batch = [(ids[s], a, r, ids[s2], t) for s, a, r, s2, t in batch]
    values = table._values
    for s, a, r, s_next, terminal in batch:
        if terminal:
            target = r
        else:
            target = r + gamma * max(values[s_next])
        row = values[s]
        row[a] += alpha * (target - row[a])
