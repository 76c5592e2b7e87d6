"""Shared fixtures and oracles for the test suite."""

import os
from collections import deque
from pathlib import Path

import numpy as np
import pytest

import subgoal_hrl
from subgoal_hrl.memory import Transition
from subgoal_hrl.rooms_env import (
    ACTION_DELTAS, FourRoomsEnv, GridState, RoomsLayout, StateIndex,
)


def pytest_report_header() -> list[str]:
    """Where `subgoal_hrl` was imported from. `pyproject.toml` puts this
    checkout's `src/` ahead of `PYTHONPATH`, so a `PYTHONPATH` entry that
    holds another `subgoal_hrl` is not the code under test; name it."""
    here = Path(subgoal_hrl.__file__).resolve().parent
    lines = [f"subgoal_hrl: {here}"]
    for entry in filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep)):
        try:
            other = Path(entry, "subgoal_hrl").resolve()
            shadowed = other != here and (other / "__init__.py").is_file()
        except OSError:  # a header never ends the session
            continue
        if shadowed:
            lines.append(
                f"subgoal_hrl: PYTHONPATH entry {entry} holds another subgoal_hrl "
                "and is shadowed; to test that tree, run its own tests in it"
            )
    return lines


@pytest.fixture
def layout() -> RoomsLayout:
    return RoomsLayout.default()


@pytest.fixture
def env(layout) -> FourRoomsEnv:
    return FourRoomsEnv(layout)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def grid_distance(layout: RoomsLayout, src: tuple[int, int], dst: tuple[int, int]) -> int:
    """BFS shortest-path length between playable cells."""
    if src == dst:
        return 0
    seen = {src}
    frontier = deque([(src, 0)])
    while frontier:
        (x, y), d = frontier.popleft()
        for dx, dy in ACTION_DELTAS.values():
            nxt = (x + dx, y + dy)
            if nxt == dst:
                return d + 1
            if nxt in layout.playable and nxt not in seen:
                seen.add(nxt)
                frontier.append((nxt, d + 1))
    raise ValueError(f"{dst} unreachable from {src}")


def arrival_source(layout: RoomsLayout, cell: tuple[int, int]):
    """A playable neighbor (never the key cell) plus the action entering `cell`."""
    for action, (dx, dy) in ACTION_DELTAS.items():
        src = (cell[0] - dx, cell[1] - dy)
        if src in layout.playable and src != layout.key_cell:
            return src, action
    raise ValueError(f"no playable neighbor for {cell}")


def id_coded(batch, index: StateIndex) -> list:
    """Hand-built transitions with every `GridState` field replaced by its
    id of `index`, the one state form the memories and updates take."""
    out = []
    for tr in batch:
        ids = {
            name: index.encode(value)
            for name, value in tr._asdict().items()
            if isinstance(value, GridState)
        }
        out.append(tr._replace(**ids))
    return out


def build_full_coverage_memory(
    env: FourRoomsEnv | None = None, arrivals_per_cell: int = 5
) -> list[Transition]:
    """Id-coded transitions arriving at every playable cell, built by real
    env moves.

    Visitation is near-uniform (arrivals_per_cell arrivals per cell). The
    key-cell arrivals each pay +10; exactly one box arrival carries the
    key and pays +40 terminally, so the memory holds both reward
    anomalies and >= 95% zero-reward transitions.
    """
    env = env or FourRoomsEnv()
    layout, index = env.layout, env.index
    transitions = []
    for cell in sorted(layout.playable):
        src, action = arrival_source(layout, cell)
        for i in range(arrivals_per_cell):
            has_key = cell == layout.box_cell and i == arrivals_per_cell - 1
            sid = index.encode(GridState(src[0], src[1], has_key))
            t = env.step(sid, action)
            assert (t.s, t.a) == (sid, action)
            assert index.states[t.s_next].cell == cell
            transitions.append(t)
    return transitions


@pytest.fixture
def full_coverage_memory(env) -> list[Transition]:
    return build_full_coverage_memory(env)
