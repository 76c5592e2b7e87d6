"""Bounded FIFO experience memories and discounted returns.

Three memories drive training: the raw environment memory feeding
subgoal discovery, the controller memory of intrinsic-reward
transitions, and the meta-controller memory of completed subgoal
attempts. The trainer fills them with state ids and int actions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Generic, Iterator, NamedTuple, Sequence, TypeVar

import numpy as np

from .rooms_env import Action, GridState, StateIndex

T = TypeVar("T")

_RETURN_CHECK_TOL = 1e-9


def accumulate_return(rewards: Sequence[float], gamma: float) -> float:
    """Discounted return sum_k gamma^k * rewards[k].

    Args:
        rewards: Non-empty reward sequence, first reward undiscounted.
        gamma: Discount factor in (0, 1].
    """
    if len(rewards) == 0:
        raise ValueError("rewards must be non-empty")
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must be in (0, 1]")
    total = 0.0
    factor = 1.0
    for r in rewards:
        total += factor * r
        factor *= gamma
    return total


class Transition(NamedTuple):
    """One raw environment step."""

    s: GridState | int
    a: Action | int
    r: float
    s_next: GridState | int
    terminal: bool


class ControllerTransition(NamedTuple):
    """One controller step taken while pursuing a subgoal.

    `attained_or_terminal` marks the end of the value bootstrap chain:
    either the subgoal was attained on this step or the environment
    episode ended.
    """

    s: GridState | int
    goal_id: int
    a: Action | int
    r_intrinsic: float
    s_next: GridState | int
    attained_or_terminal: bool


@dataclass(frozen=True)
class MetaTransition:
    """One completed subgoal attempt, as seen by the meta-controller.

    The per-step task rewards and the discount are kept alongside the
    return so consistency can be checked at construction and re-audited
    later.
    """

    s0: GridState | int
    goal_id: int
    return_g: float
    s_end: GridState | int
    duration: int
    rewards: tuple[float, ...]
    gamma: float
    terminal: bool

    def __post_init__(self) -> None:
        if self.duration < 1:
            raise ValueError("duration must be >= 1")
        if self.duration != len(self.rewards):
            raise ValueError("duration must equal the number of rewards")
        expected = accumulate_return(self.rewards, self.gamma)
        if not math.isclose(
            self.return_g, expected, rel_tol=0.0, abs_tol=_RETURN_CHECK_TOL
        ):
            raise ValueError(
                f"return {self.return_g} inconsistent with rewards "
                f"(expected {expected})"
            )

    @classmethod
    def from_rewards(
        cls,
        s0: GridState,
        goal_id: int,
        rewards: Sequence[float],
        gamma: float,
        s_end: GridState,
        terminal: bool,
    ) -> "MetaTransition":
        return cls(
            s0=s0,
            goal_id=goal_id,
            return_g=accumulate_return(rewards, gamma),
            s_end=s_end,
            duration=len(rewards),
            rewards=tuple(rewards),
            gamma=gamma,
            terminal=terminal,
        )


class BoundedMemory(Generic[T]):
    """Ring buffer with strictly oldest-first eviction."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._items: list[T] = []
        self._head = 0

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, i: int) -> T:
        if not 0 <= i < len(self._items):
            raise IndexError(i)
        return self._items[(self._head + i) % self.capacity]

    def __iter__(self) -> Iterator[T]:
        head = self._head
        return iter(self._items[head:] + self._items[:head])

    def push(self, item: T) -> None:
        if len(self._items) < self.capacity:
            self._items.append(item)
        else:
            self._items[self._head] = item
            self._head = (self._head + 1) % self.capacity

    def snapshot(self) -> tuple[T, ...]:
        """Immutable copy in insertion order, oldest first."""
        return tuple(self)

    def sample(self, n: int, rng: np.random.Generator) -> list[T]:
        """Draw n items uniformly with replacement."""
        size = len(self._items)
        if size == 0:
            raise ValueError("cannot sample from an empty memory")
        idx = (rng.integers(0, size, size=n) + self._head) % self.capacity
        items = self._items
        return [items[i] for i in idx.tolist()]


def transition_to_dict(t: Transition) -> dict:
    return {
        "x": t.s.x,
        "y": t.s.y,
        "has_key": t.s.has_key,
        "action": t.a.name,
        "reward": t.r,
        "x_next": t.s_next.x,
        "y_next": t.s_next.y,
        "has_key_next": t.s_next.has_key,
        "terminal": t.terminal,
    }


def transition_from_dict(d: dict) -> Transition:
    """Inverse of `transition_to_dict`; ValueError unless the flags are JSON
    booleans, the cell coordinates JSON integers >= 0 and the reward a
    finite number."""
    x, y, x_next, y_next = d["x"], d["y"], d["x_next"], d["y_next"]
    has_key, has_key_next, terminal = d["has_key"], d["has_key_next"], d["terminal"]
    r = d["reward"]
    if not (
        type(x) is type(y) is type(x_next) is type(y_next) is int
        and x >= 0 and y >= 0 and x_next >= 0 and y_next >= 0
        and type(has_key) is type(has_key_next) is type(terminal) is bool
        and (type(r) is float or type(r) is int) and math.isfinite(r)
    ):
        raise ValueError(
            "need true/false for has_key, has_key_next and terminal, integers "
            ">= 0 for x, y, x_next and y_next, and a finite reward"
        )
    return Transition(
        GridState(x, y, has_key), Action[d["action"]], float(r),
        GridState(x_next, y_next, has_key_next), terminal,
    )


def save_transitions_jsonl(path: str | Path, transitions: Sequence[Transition]) -> None:
    """Write one JSON object per line; round-trips bit-exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        for t in transitions:
            fh.write(json.dumps(transition_to_dict(t)) + "\n")


def load_transitions_jsonl(
    path: str | Path, index: StateIndex | None = None
) -> list[Transition]:
    """ValueError names the line of a bad transition or of a state off `index`."""
    transitions = []
    ids = index.ids if index is not None else None
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                t = transition_from_dict(json.loads(line))
                # One dict membership per state; `encode` runs only to
                # raise for a state off the index.
                if ids is not None and (t.s not in ids or t.s_next not in ids):
                    index.encode(t.s)
                    index.encode(t.s_next)
                transitions.append(t)
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"bad transition on line {line_no}: {exc}") from exc
    return transitions
