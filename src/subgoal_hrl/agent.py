"""Tabular controller and meta-controller: policies, critic, updates.

The controller learns action values q(s, g, a) from intrinsic rewards;
the meta-controller learns subgoal values Q(s, g) from discounted task
returns between subgoal selections. Both are exact tables over the
dense (x, y, has_key) state index. Loss minimization is realized as
per-sample tabular TD updates, the exact-table special case of
minimizing the squared TD error. The updates index rows by state id and
columns by action id; a negative id, which list indexing would wrap, or
an id past the end raises ValueError naming the transition. The
selectors refuse such a state or subgoal id the same way, naming the id.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from .discovery import AnomalySubgoal, SubgoalSet
from .memory import ControllerTransition, MetaTransition, Transition
from .rooms_env import GridState, N_ACTIONS, StateIndex

INTRINSIC_REWARD = 1.0


def _check_rates(alpha: float, gamma: float) -> None:
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must be in (0, 1]")


def _read_table_csv(
    path: str | Path, header: Sequence[str], shape: tuple[int, ...]
) -> np.ndarray:
    """Values of a table CSV from `to_csv`, shaped `shape`.

    The ids are the integer columns (state first), each in range for its
    dimension of `shape`; the rows may come in any order. Raises
    ValueError naming `path` on a wrong header, no rows, a malformed row,
    an id out of range, a non-finite value, or a table that does not hold
    exactly one row per id combination.
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
    out_of_range = np.zeros(len(rows), dtype=bool)
    for col, n in zip(ids, shape, strict=True):
        out_of_range |= (col < 0) | (col >= n)
    for bad, what in ((out_of_range, "id out of range"),
                      (~np.isfinite(values), "non-finite value")):
        if bad.any():
            raise ValueError(f"{path}: {what} in row {rows[bad.argmax()]}")
    expected = math.prod(shape)
    if len(rows) == expected:
        flat = np.ravel_multi_index(ids, shape)
        if (np.bincount(flat, minlength=expected) == 1).all():
            table = np.empty(expected)
            table[flat] = values
            return table.reshape(shape)
    combos = " x ".join(f"{n} {name}s" for n, (name, _) in zip(shape, dtype))
    raise ValueError(
        f"{path}: expected one row per id combination of {combos}, "
        f"got {len(rows)} rows"
    )


def _filled(shape: tuple[int, ...], init: float) -> list:
    """Nested lists of `shape` holding `init`; the innermost rows are made
    as `[init] * n` in one comprehension, with no call per row."""
    n, *inner = shape
    if len(inner) > 1:
        return [_filled(inner, init) for _ in range(n)]
    if inner:
        return [[init] * inner[0] for _ in range(n)]
    return [init] * n


class _ValueTable:
    """Exact values in nested lists indexed (state id, *column ids).

    `shape` is (states, *counts, *actions) and the only record of the
    table's dimensions; `actions` is the class's fixed action column. The
    subclasses name the columns in `header` and bind `to_csv`/`from_csv`
    in their own class bodies, because `perfbench/tracer.py` wraps each
    class's own codec methods.
    """

    header: tuple[str, ...]
    actions: tuple[int, ...] = ()

    def __init__(self, index: StateIndex, *counts: int, init: float) -> None:
        self.index = index
        self.init = init
        self.shape = (index.size, *counts, *self.actions)
        self._values = _filled(self.shape, init)

    def grow(self, n_subgoals: int) -> None:
        """Append `init` columns up to `n_subgoals` ids; ids are never dropped."""
        n_states, old, *inner = self.shape
        if n_subgoals < old:
            raise ValueError(f"cannot shrink to {n_subgoals} subgoals")
        for row in self._values:
            row.extend(_filled((n_subgoals - old, *inner), self.init))
        self.shape = (n_states, n_subgoals, *inner)

    def rows(self) -> list[tuple]:
        """(state id, *column ids, value) for every entry, in id order."""
        rows = [((s,), row) for s, row in enumerate(self._values)]
        for _ in self.shape[2:]:
            rows = [(ids + (c,), sub) for ids, row in rows for c, sub in enumerate(row)]
        return [ids + (c, v) for ids, row in rows for c, v in enumerate(row)]

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.header)
            writer.writerows(self.rows())  # csv writes a float as its repr

    @classmethod
    def from_csv(cls, path: str | Path, index: StateIndex, *counts: int) -> _ValueTable:
        """The table `to_csv` wrote; `counts` are the constructor's. Raises
        ValueError naming `path` unless the file holds exactly that shape."""
        values = _read_table_csv(path, cls.header, (index.size, *counts, *cls.actions))
        table = object.__new__(cls)
        table.index, table.init, table.shape = index, 0.0, values.shape
        table._values = values.tolist()
        return table


class ControllerTable(_ValueTable):
    """q(state, subgoal, action) estimates in intrinsic-reward units."""

    header = ("state", "subgoal", "action", "value")
    actions = (N_ACTIONS,)
    to_csv = _ValueTable.to_csv
    from_csv = vars(_ValueTable)["from_csv"]
    n_subgoals = property(lambda self: self.shape[1])

    def __init__(self, index: StateIndex, n_subgoals: int, init: float = 0.0) -> None:
        super().__init__(index, n_subgoals, init=init)

    def action_values(self, state: GridState, goal_id: int) -> list[float]:
        """Live value row for (state, goal); mutations write through."""
        if not 0 <= goal_id < self.n_subgoals:
            raise ValueError(f"unknown subgoal id {goal_id}")
        return self._values[self.index.encode(state)][goal_id]


class MetaTable(_ValueTable):
    """Q(state, subgoal) estimates in task-reward units."""

    header = ("state", "subgoal", "value")
    to_csv = _ValueTable.to_csv
    from_csv = vars(_ValueTable)["from_csv"]
    n_subgoals = property(lambda self: self.shape[1])

    def __init__(self, index: StateIndex, n_subgoals: int, init: float = 0.0) -> None:
        super().__init__(index, n_subgoals, init=init)


class FlatTable(_ValueTable):
    """Plain Q(state, action) table for the non-hierarchical baseline."""

    header = ("state", "action", "value")
    actions = (N_ACTIONS,)
    to_csv = _ValueTable.to_csv
    from_csv = vars(_ValueTable)["from_csv"]

    def __init__(self, index: StateIndex, init: float = 0.0) -> None:
        super().__init__(index, init=init)

    def action_values(self, state: GridState) -> list[float]:
        return self._values[self.index.encode(state)]


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
        return values.index(max(values))
    mx = max(values)
    ties = [i for i, v in enumerate(values) if v == mx]
    if len(ties) == 1:
        return ties[0]
    return ties[int(rng.integers(len(ties)))]


def _check_state_id(table: _ValueTable, sid: int) -> None:
    # List indexing would wrap a negative id to another state's row.
    if not 0 <= sid < table.shape[0]:
        raise ValueError(f"state id {sid} is outside [0, {table.shape[0]})")


def select_subgoal(
    meta: MetaTable,
    sid: int,
    epsilon: float,
    rng: np.random.Generator,
) -> int:
    """Epsilon-greedy subgoal id from the meta-controller's values in state
    id `sid`."""
    if meta.n_subgoals == 0:
        raise ValueError("cannot select from an empty subgoal set")
    _check_state_id(meta, sid)
    return epsilon_greedy_index(meta._values[sid], epsilon, rng)


def select_action(
    controller: ControllerTable,
    sid: int,
    goal_id: int,
    epsilon: float,
    rng: np.random.Generator,
) -> int:
    """Epsilon-greedy primitive action id in state id `sid` under subgoal
    `goal_id`."""
    _check_state_id(controller, sid)
    if not 0 <= goal_id < controller.n_subgoals:
        raise ValueError(f"unknown subgoal id {goal_id}")
    return epsilon_greedy_index(controller._values[sid][goal_id], epsilon, rng)


def intrinsic_critic(s_next: GridState, goal_id: int, subgoals: SubgoalSet) -> bool:
    """Whether arriving in `s_next` attains the subgoal `goal_id`.

    Anomaly subgoals require an exact state match (key flag included);
    centroid subgoals are attained when the nearest centroid to the
    arrival cell is the pursued one. Pure function of its arguments.
    """
    sg = subgoals.subgoal(goal_id)
    if isinstance(sg, AnomalySubgoal):
        return s_next == sg.state
    return subgoals.nearest_centroid_id(s_next.x, s_next.y) == goal_id


def update_controller(
    controller: ControllerTable,
    batch: Sequence[ControllerTransition],
    alpha: float,
    gamma: float,
) -> None:
    """One TD step per item, in order, toward the intrinsic target."""
    _check_rates(alpha, gamma)
    values, n_subgoals = controller._values, controller.n_subgoals
    try:
        for tr in batch:
            s, g, a, r, s_next, done = tr
            if not 0 <= g < n_subgoals:
                raise ValueError(f"unknown subgoal id {g}")
            if s < 0 or s_next < 0 or a < 0:
                raise ValueError(f"negative id in transition {tr}")
            if done:
                target = r
            else:
                target = r + gamma * max(values[s_next][g])
            row = values[s][g]
            row[a] += alpha * (target - row[a])
    except IndexError:
        raise ValueError(f"id out of range in transition {tr}") from None


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
    values, n_subgoals = meta._values, meta.n_subgoals
    try:
        for tr in batch:
            s0, g, ret, s_end, duration, terminal = tr
            if not 0 <= g < n_subgoals:
                raise ValueError(f"unknown subgoal id {g}")
            if s0 < 0 or s_end < 0:
                raise ValueError(f"negative id in transition {tr}")
            if terminal:
                target = ret
            else:
                target = ret + gamma ** duration * max(values[s_end])
            row = values[s0]
            row[g] += alpha * (target - row[g])
    except IndexError:
        raise ValueError(f"id out of range in transition {tr}") from None


def flat_q_update(
    table: FlatTable,
    batch: Sequence[Transition],
    alpha: float,
    gamma: float,
) -> None:
    """Standard one-step Q-learning update over raw transitions."""
    _check_rates(alpha, gamma)
    values = table._values
    try:
        for tr in batch:
            s, a, r, s_next, terminal = tr
            if s < 0 or s_next < 0 or a < 0:
                raise ValueError(f"negative id in transition {tr}")
            if terminal:
                target = r
            else:
                target = r + gamma * max(values[s_next])
            row = values[s]
            row[a] += alpha * (target - row[a])
    except IndexError:
        raise ValueError(f"id out of range in transition {tr}") from None
