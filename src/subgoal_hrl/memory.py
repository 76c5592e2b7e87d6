"""Bounded FIFO experience memories and discounted returns.

Three memories drive training: the raw environment memory feeding
subgoal discovery, the controller memory of intrinsic-reward
transitions, and the meta-controller memory of completed subgoal
attempts. They hold state ids and int actions; the `memory.jsonl` codec
below is the one place that maps an id to its (x, y, has_key).
"""

from __future__ import annotations

import json
import sys
from itertools import islice
from pathlib import Path
from typing import Generic, Iterable, Iterator, NamedTuple, Sequence, TypeVar

import numpy as np

from .rooms_env import Action, StateIndex, Transition

T = TypeVar("T")

# Largest memory capacity. `sample` reads index floor(u * size), which stays
# below size for every double u < 1 while size < 2**52.
MAX_CAPACITY = 2**32
# Lines per write of `save_transitions_jsonl`; bounds the bytes held at once.
SAVE_BLOCK = 4096
# Action name -> id, for `transition_from_dict`.
_ACTION_IDS = {a.name: a.value for a in Action}


def is_finite_number(v) -> bool:
    """Whether `v` is an int or a float, not a bool, inside the finite float
    range; NaN, an infinity and an int too large for a float are not."""
    return (type(v) is float or type(v) is int) and abs(v) <= sys.float_info.max


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


class ControllerTransition(NamedTuple):
    """One controller step taken while pursuing a subgoal.

    `attained_or_terminal` marks the end of the value bootstrap chain:
    either the subgoal was attained on this step or the environment
    episode ended.
    """

    s: int
    goal_id: int
    a: int
    r_intrinsic: float
    s_next: int
    attained_or_terminal: bool


class MetaTransition(NamedTuple):
    """One completed subgoal attempt, as seen by the meta-controller: the
    SMDP transition (s0, g, discounted return, s_end) plus the attempt's
    step count, which discounts the bootstrap, and whether the episode
    ended. `return_g` is `accumulate_return` of the attempt's rewards.
    """

    s0: int
    goal_id: int
    return_g: float
    s_end: int
    duration: int
    terminal: bool


class BoundedMemory(Generic[T]):
    """Ring buffer with strictly oldest-first eviction."""

    def __init__(self, capacity: int) -> None:
        if not 1 <= capacity <= MAX_CAPACITY:
            raise ValueError(f"capacity must be in [1, {MAX_CAPACITY}]")
        self.capacity = capacity
        self._items: list[T] = []
        self._head = 0

    def __len__(self) -> int:
        return len(self._items)

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
        """Draw n items uniformly with replacement, i = floor(u * size) per u of
        one rng.random(n). Item i sits at list index i + head - size. While
        head is 0 (the ring has not wrapped) index i reads the same item, so
        the offset is added only after the ring has wrapped: each numpy
        operation with a Python-int operand costs about 1 us, a few percent
        of a flat_q step."""
        items = self._items
        if not (size := len(items)):
            raise ValueError("cannot sample from an empty memory")
        u = rng.random(n)
        u *= size
        idx = u.astype(np.intp)
        if head := self._head:
            idx += head - size
        return [items[i] for i in idx.tolist()]


def transition_to_dict(t: Transition, index: StateIndex) -> dict:
    """The JSON record of `t`, states from `index`; ValueError names a
    transition whose state ids are off `index`."""
    if not (0 <= t.s < index.size and 0 <= t.s_next < index.size):
        raise ValueError(f"{t} has a state id outside [0, {index.size})")
    s, s_next = index.states[t.s], index.states[t.s_next]
    return {
        "x": s.x,
        "y": s.y,
        "has_key": s.has_key,
        "action": Action(t.a).name,
        "reward": t.r,
        "x_next": s_next.x,
        "y_next": s_next.y,
        "has_key_next": s_next.has_key,
        "terminal": t.terminal,
    }


def transition_from_dict(d: dict, index: StateIndex) -> Transition:
    """Inverse of `transition_to_dict`; ValueError unless the flags are JSON
    booleans, the cell coordinates JSON integers naming states of `index`
    and the reward a finite number."""
    x, y, x_next, y_next = d["x"], d["y"], d["x_next"], d["y_next"]
    has_key, has_key_next, terminal = d["has_key"], d["has_key_next"], d["terminal"]
    r = d["reward"]
    if not (
        type(x) is type(y) is type(x_next) is type(y_next) is int
        and type(has_key) is type(has_key_next) is type(terminal) is bool
        and is_finite_number(r)
    ):
        raise ValueError(
            "need true/false for has_key, has_key_next and terminal, integers "
            "for x, y, x_next and y_next, and a finite reward"
        )
    # Plain tuples hash and compare like the `GridState` keys of `ids`.
    ids = index.ids
    return Transition(
        ids[x, y, has_key], _ACTION_IDS[d["action"]], float(r),
        ids[x_next, y_next, has_key_next], terminal,
    )


def save_transitions_jsonl(
    path: str | Path, transitions: Iterable[Transition], index: StateIndex
) -> None:
    """Write one JSON line per transition, states from `index`; round-trips
    bit-exactly.

    Each distinct transition object is rendered once, to bytes, and the
    file is written in blocks of SAVE_BLOCK lines joined over the objects'
    ids. The memo is keyed on identity, not value (-0.0 == 0.0 and True == 1
    render differently), and holds the object so that its id is not reused
    while the memo lives. A transition that cannot be rendered raises after
    the lines before it are written, as a line-by-line writer would.
    """
    lines: dict[int, bytes] = {}
    held: list[Transition] = []
    items = iter(transitions)
    with open(path, "wb") as fh:
        while block := list(islice(items, SAVE_BLOCK)):
            ids = list(map(id, block))
            # Render new objects in order of first use, so the first one
            # that fails is the first failing line.
            for key, t in dict(zip(ids, block)).items():
                if key in lines:
                    continue
                try:
                    line = json.dumps(transition_to_dict(t, index)) + "\n"
                except Exception:
                    fh.write(b"".join(map(lines.__getitem__, ids[: ids.index(key)])))
                    raise
                lines[key] = line.encode()
                held.append(t)
            fh.write(b"".join(map(lines.__getitem__, ids)))


class _ParsedLines(dict):
    """A `memory.jsonl` line to its `Transition`, parsed at its first
    lookup; a blank line maps to None."""

    def __init__(self, index: StateIndex) -> None:
        super().__init__()
        self.index = index

    def __missing__(self, line: str) -> Transition | None:
        t = transition_from_dict(json.loads(line), self.index) if line.strip() else None
        self[line] = t
        return t


def load_transitions_jsonl(path: str | Path, index: StateIndex) -> list[Transition]:
    """Transitions with states as ids of `index`; ValueError names the line
    of a bad transition or of a state off `index`.

    Each distinct line is parsed and checked once; a repeat reuses its
    `Transition`, so a bad line still fails at its first occurrence.
    """
    parsed = _ParsedLines(index)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            transitions = list(map(parsed.__getitem__, fh))
    except UnicodeDecodeError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        # Each line before the bad one is in the map, and the bad one is not.
        with open(path, "r", encoding="utf-8") as fh:
            line_no = next(i for i, line in enumerate(fh, 1) if line not in parsed)
        raise ValueError(f"bad transition on line {line_no}: {exc}") from exc
    return list(filter(None, transitions)) if None in parsed.values() else transitions
