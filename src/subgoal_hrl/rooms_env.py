"""Four-rooms gridworld with a key and a locked box.

Coordinates are (x, y) cell indices with (0, 0) in the top-left corner:
x grows eastward, y grows southward. The default layout is a 13x13 grid
split into four 5x5 rooms by internal walls along x=6 and y=6, connected
through four doorway cells. Entering the key cell without the key pays
+10 and sets the key flag; entering the box cell while carrying the key
pays +40 and ends the episode.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import IntEnum
from functools import cache, cached_property, lru_cache
from typing import NamedTuple

import numpy as np

KEY_REWARD = 10.0
BOX_REWARD = 40.0
# Most rows, and most cells per row, of a layout text. Memory and set-up
# time grow with the cell count; see README for why this value.
MAX_LAYOUT_SIDE = 64


class Action(IntEnum):
    """The four movement directions."""

    NORTH = 0
    SOUTH = 1
    EAST = 2
    WEST = 3


ACTION_DELTAS: dict[Action, tuple[int, int]] = {
    Action.NORTH: (0, -1),
    Action.SOUTH: (0, 1),
    Action.EAST: (1, 0),
    Action.WEST: (-1, 0),
}

N_ACTIONS = len(Action)


class GridState(NamedTuple):
    """Agent position plus the key-possession flag.

    A tuple, so it hashes like `(x, y, has_key)` and is its own key in
    the dense state index.
    """

    x: int
    y: int
    has_key: bool = False

    @property
    def cell(self) -> tuple[int, int]:
        return (self.x, self.y)


class Transition(NamedTuple):
    """One raw environment step."""

    s: int
    a: int
    r: float
    s_next: int
    terminal: bool


class LayoutError(ValueError):
    """Raised for malformed or unreachable layouts."""


@dataclass(frozen=True)
class RoomsLayout:
    """Static grid geometry: walls, key cell, box cell, start cell.

    Attributes:
        width: Grid width in cells, walls included.
        height: Grid height in cells, walls included.
        walls: Set of (x, y) wall cells. The outer border must be wall.
        key_cell: Cell holding the key.
        box_cell: Cell holding the locked box.
        start_cell: Episode start cell.
    """

    width: int
    height: int
    walls: frozenset[tuple[int, int]]
    key_cell: tuple[int, int]
    box_cell: tuple[int, int]
    start_cell: tuple[int, int]

    def __post_init__(self) -> None:
        for x in range(self.width):
            if (x, 0) not in self.walls or (x, self.height - 1) not in self.walls:
                raise LayoutError("outer border must be wall")
        for y in range(self.height):
            if (0, y) not in self.walls or (self.width - 1, y) not in self.walls:
                raise LayoutError("outer border must be wall")
        for name, cell in (
            ("key", self.key_cell),
            ("box", self.box_cell),
            ("start", self.start_cell),
        ):
            in_bounds = 0 <= cell[0] < self.width and 0 <= cell[1] < self.height
            if cell in self.walls or not in_bounds:
                raise LayoutError(f"{name} cell {cell} is not playable")
        if len({self.key_cell, self.box_cell, self.start_cell}) != 3:
            raise LayoutError("key, box and start cells must be distinct")
        if self._reachable_from_start() != self.playable:
            raise LayoutError("not every playable cell is reachable from start")

    @classmethod
    @cache
    def default(cls) -> "RoomsLayout":
        """The canonical 13x13 four-rooms grid with 104 playable cells, built
        once: `RunConfig.validate` reads it for every config."""
        width = height = 13
        doorways = {(6, 3), (6, 9), (3, 6), (9, 6)}
        walls = set()
        for x in range(width):
            for y in range(height):
                border = x in (0, width - 1) or y in (0, height - 1)
                internal = (x == 6 or y == 6) and (x, y) not in doorways
                if border or internal:
                    walls.add((x, y))
        return cls(
            width=width,
            height=height,
            walls=frozenset(walls),
            key_cell=(10, 2),
            box_cell=(2, 10),
            start_cell=(1, 1),
        )

    @cached_property
    def playable(self) -> frozenset[tuple[int, int]]:
        """All non-wall cells."""
        return frozenset(
            (x, y)
            for x in range(self.width)
            for y in range(self.height)
            if (x, y) not in self.walls
        )

    @cached_property
    def index(self) -> StateIndex:
        """The layout's one dense state index."""
        return StateIndex(self)

    @cached_property
    def moves(self) -> list[Transition]:
        """The move rule: entry `(sid * N_ACTIONS + taken) * N_ACTIONS + chosen`
        is the `Transition` of taking `taken` in state id `sid` when `chosen`
        was chosen (slip makes them differ). Equal entries are one object,
        shared by every env and run on this layout; nothing may write them."""
        index, shared, moves = self.index, {}, []
        for sid, (x, y, has_key) in enumerate(index.states):
            for dx, dy in ACTION_DELTAS.values():
                cell = (x + dx, y + dy)
                if cell in self.walls:
                    cell = (x, y)
                takes_key = cell == self.key_cell and not has_key
                done = cell == self.box_cell and has_key
                reward = BOX_REWARD if done else KEY_REWARD if takes_key else 0.0
                s_next = index.ids[(*cell, has_key or takes_key)]
                for chosen in range(N_ACTIONS):
                    t = Transition(sid, chosen, reward, s_next, done)
                    moves.append(shared.setdefault(t, t))
        return moves

    def _reachable_from_start(self) -> frozenset[tuple[int, int]]:
        seen = {self.start_cell}
        frontier = deque([self.start_cell])
        while frontier:
            x, y = frontier.popleft()
            for dx, dy in ACTION_DELTAS.values():
                nxt = (x + dx, y + dy)
                if nxt in self.playable and nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return frozenset(seen)

    @cached_property
    def _splits(self) -> tuple[int, int] | None:
        """Interior wall column/row that partition the grid into rooms.

        Detected as the unique interior column (and row) where at least
        half of the interior cells are wall. None when the layout does
        not have the classic single-split structure.
        """
        interior = self.height - 2
        cols = [
            x
            for x in range(1, self.width - 1)
            if sum((x, y) in self.walls for y in range(1, self.height - 1))
            > interior // 2
        ]
        rows = [
            y
            for y in range(1, self.height - 1)
            if sum((x, y) in self.walls for x in range(1, self.width - 1))
            > (self.width - 2) // 2
        ]
        if len(cols) == 1 and len(rows) == 1:
            return cols[0], rows[0]
        return None

    def room_of(self, cell: tuple[int, int]) -> str:
        """Room id (NW/NE/SW/SE) or doorway id for a playable cell."""
        if cell not in self.playable:
            raise ValueError(f"cell {cell} is not playable")
        if self._splits is None:
            raise LayoutError("layout has no four-room partition")
        sx, sy = self._splits
        x, y = cell
        if x == sx:
            return f"doorway-west-east-{'north' if y < sy else 'south'}"
        if y == sy:
            return f"doorway-north-south-{'west' if x < sx else 'east'}"
        return ("N" if y < sy else "S") + ("W" if x < sx else "E")

    def room_interior_centers(self) -> dict[str, tuple[float, float]]:
        """Exact geometric center of each room interior."""
        if self._splits is None:
            raise LayoutError("layout has no four-room partition")
        centers: dict[str, list[tuple[int, int]]] = {}
        for cell in self.playable:
            room = self.room_of(cell)
            if not room.startswith("doorway"):
                centers.setdefault(room, []).append(cell)
        return {
            room: (
                sum(c[0] for c in cells) / len(cells),
                sum(c[1] for c in cells) / len(cells),
            )
            for room, cells in centers.items()
        }

    def to_text(self) -> str:
        """Serialize to a plain-text grid (# wall, . floor, K/B/S markers)."""
        rows = []
        for y in range(self.height):
            chars = []
            for x in range(self.width):
                if (x, y) in self.walls:
                    chars.append("#")
                elif (x, y) == self.key_cell:
                    chars.append("K")
                elif (x, y) == self.box_cell:
                    chars.append("B")
                elif (x, y) == self.start_cell:
                    chars.append("S")
                else:
                    chars.append(".")
            rows.append("".join(chars))
        return "\n".join(rows) + "\n"

    @classmethod
    @lru_cache(maxsize=16)
    def from_text(cls, text: str) -> "RoomsLayout":
        """Parse a plain-text grid produced by :meth:`to_text`; cached like
        `default`, so every reader of one text shares one layout."""
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise LayoutError("empty layout text")
        width = len(lines[0])
        if len(lines) > MAX_LAYOUT_SIDE or width > MAX_LAYOUT_SIDE:
            raise LayoutError(
                f"layout is {width}x{len(lines)} cells; each side must be at "
                f"most {MAX_LAYOUT_SIDE}"
            )
        if any(len(line) != width for line in lines):
            raise LayoutError("layout rows must have equal length")
        walls = set()
        markers: dict[str, tuple[int, int]] = {}
        for y, line in enumerate(lines):
            for x, ch in enumerate(line):
                if ch == "#":
                    walls.add((x, y))
                elif ch in "KBS":
                    if ch in markers:
                        raise LayoutError(f"duplicate marker {ch!r}")
                    markers[ch] = (x, y)
                elif ch != ".":
                    raise LayoutError(f"unknown cell character {ch!r}")
        missing = {"K", "B", "S"} - markers.keys()
        if missing:
            raise LayoutError(f"missing markers: {sorted(missing)}")
        return cls(
            width=width,
            height=len(lines),
            walls=frozenset(walls),
            key_cell=markers["K"],
            box_cell=markers["B"],
            start_cell=markers["S"],
        )


class _StateIds(dict):
    """State -> dense id; a state off the index raises ValueError, which
    shows a plain (x, y, has_key) tuple as its `GridState`."""

    def __missing__(self, state):
        if type(state) is tuple and len(state) == 3:
            state = GridState(*state)
        raise ValueError(f"state {state} is not indexable (wall cell?)")


class StateIndex:
    """Dense ids over (x, y, has_key) for all playable cells.

    `states[i]` is the state of id i; `ids` maps a state to its id and,
    like `encode`, raises ValueError for a state off the index.
    """

    def __init__(self, layout: RoomsLayout) -> None:
        self.cells = sorted(layout.playable)
        self.states = [GridState(x, y, k) for x, y in self.cells for k in (False, True)]
        self.ids = _StateIds((s, i) for i, s in enumerate(self.states))
        self.size = len(self.states)

    def encode(self, state: GridState) -> int:
        return self.ids[state]


class FourRoomsEnv:
    """Deterministic four-rooms environment over its layout's `moves`, on
    state ids only: episodes start at `start_id` and end at `terminal_id`.

    `step` maps a state id and an action to the layout's shared
    `Transition`; it is the one transition function. Steps are a pure
    function of (state id, action) when `slip_prob` is 0 (the default);
    with slip enabled the chosen action is replaced by a uniformly random
    one with probability `slip_prob`, drawn from `rng`.
    """

    def __init__(
        self,
        layout: RoomsLayout | None = None,
        slip_prob: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        if not 0.0 <= slip_prob < 1.0:
            raise ValueError("slip_prob must be in [0, 1)")
        if slip_prob > 0.0 and rng is None:
            raise ValueError("slip_prob > 0 requires an rng")
        self.layout = layout = layout if layout is not None else RoomsLayout.default()
        self.slip_prob = slip_prob
        self._rng = rng
        self.index = layout.index
        self._moves = layout.moves
        self._size = self.index.size
        self.start_id = self.index.ids[(*layout.start_cell, False)]
        self.terminal_id = self.index.ids[(*layout.box_cell, True)]

    def step(self, sid: int, action: int) -> Transition:
        """The shared `Transition` of choosing `action` in state id `sid`;
        with slip the action taken may differ from it. ValueError from the
        terminal state, for a state id outside [0, index.size) or for an
        action outside [0, N_ACTIONS)."""
        if sid == self.terminal_id:
            raise ValueError("cannot step from a terminal state")
        # An id or action out of range would index another state's entries.
        if not 0 <= sid < self._size:
            raise ValueError(f"state id must be in [0, {self._size}), got {sid!r}")
        if not 0 <= action < N_ACTIONS:
            raise ValueError(f"action must be in [0, {N_ACTIONS}), got {action!r}")
        taken = action
        if self.slip_prob > 0.0 and self._rng.random() < self.slip_prob:
            taken = int(self._rng.integers(N_ACTIONS))
        return self._moves[(sid * N_ACTIONS + taken) * N_ACTIONS + action]

