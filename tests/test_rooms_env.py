"""Environment contract tests: geometry, rewards, determinism."""

import dataclasses

import numpy as np
import pytest

from subgoal_hrl.rooms_env import (
    ACTION_DELTAS,
    Action,
    FourRoomsEnv,
    GridState,
    LayoutError,
    RoomsLayout,
    Transition,
)
from subgoal_hrl.trainer import RunConfig, run


def test_reset_returns_fixed_start(env):
    assert env.index.states[env.start_id] == GridState(*env.layout.start_cell, False)
    assert env.index.states[env.start_id] == GridState(1, 1, has_key=False)


def step_states(env, state, action):
    """`env.step` from `state`, as (next state, reward, terminal)."""
    t = env.step(env.index.encode(state), action)
    assert (t.s, t.a) == (env.index.encode(state), action)
    return env.index.states[t.s_next], t.r, t.terminal


def test_reset_clears_key_after_episode(env):
    s_next, _, _ = step_states(env, GridState(9, 2, has_key=False), Action.EAST)
    assert s_next.has_key
    assert env.index.states[env.start_id].has_key is False


def test_free_space_move(env):
    sid = env.index.encode(GridState(1, 1))
    assert env.step(sid, Action.EAST) == Transition(
        sid, Action.EAST, 0.0, env.index.encode(GridState(2, 1)), False
    )


def test_wall_blocks_and_agent_stays(env):
    assert step_states(env, GridState(1, 1), Action.NORTH) == (
        GridState(1, 1), 0.0, False
    )


def test_key_pickup_rewards_10(env):
    assert step_states(env, GridState(9, 2, has_key=False), Action.EAST) == (
        GridState(10, 2, has_key=True), 10.0, False
    )


def test_key_cell_no_reward_when_carrying(env):
    s_next, reward, _ = step_states(env, GridState(9, 2, has_key=True), Action.EAST)
    assert reward == 0.0
    assert s_next.has_key


def test_box_with_key_terminates_with_40(env):
    assert step_states(env, GridState(2, 9, has_key=True), Action.SOUTH) == (
        GridState(2, 10, has_key=True), 40.0, True
    )


def test_box_without_key_is_inert(env):
    assert step_states(env, GridState(2, 9, has_key=False), Action.SOUTH) == (
        GridState(2, 10, has_key=False), 0.0, False
    )


def test_step_from_terminal_state_rejected(env):
    assert env.index.states[env.terminal_id] == GridState(2, 10, has_key=True)
    with pytest.raises(ValueError, match="terminal"):
        env.step(env.terminal_id, Action.NORTH)


def test_step_from_wall_rejected(env):
    # A wall cell has no state id, so no step can start from it.
    with pytest.raises(ValueError, match="not indexable"):
        step_states(env, GridState(0, 0), Action.SOUTH)


def test_playable_cell_count_is_104(env, layout):
    # Independent recount: 169 cells minus border (48) minus the two
    # interior wall lines (11 + 11 - 1 shared, minus 4 doorways).
    expected = 13 * 13 - 48 - (11 + 11 - 1 - 4)
    assert expected == 104
    assert len(env.layout.playable) == 104
    assert len(layout.playable) == 4 * 25 + 4


def test_wall_and_doorway_membership(env):
    assert (0, 0) not in env.layout.playable
    assert (6, 3) in env.layout.playable
    assert (6, 6) not in env.layout.playable


def test_room_of_rooms_and_doorways(env):
    assert env.layout.room_of((2, 2)) == "NW"
    assert env.layout.room_of((9, 9)) == "SE"
    assert env.layout.room_of((10, 2)) == "NE"
    assert env.layout.room_of((2, 10)) == "SW"
    assert env.layout.room_of((6, 3)) == "doorway-west-east-north"
    assert env.layout.room_of((6, 9)) == "doorway-west-east-south"
    assert env.layout.room_of((3, 6)) == "doorway-north-south-west"
    assert env.layout.room_of((9, 6)) == "doorway-north-south-east"


def test_room_of_rejects_walls(env):
    with pytest.raises(ValueError):
        env.layout.room_of((6, 6))


def test_room_interior_centers(layout):
    assert layout.room_interior_centers() == {
        "NW": (3.0, 3.0),
        "NE": (9.0, 3.0),
        "SW": (3.0, 9.0),
        "SE": (9.0, 9.0),
    }


def test_step_deterministic_and_contained(env, layout):
    # Exhaustive: every (state, action) pair, both key flags.
    for cell in layout.playable:
        for has_key in (False, True):
            s = GridState(cell[0], cell[1], has_key)
            if env.index.encode(s) == env.terminal_id:
                continue
            for a in Action:
                out1 = step_states(env, s, a)
                assert step_states(env, s, a) == out1
                s_next = out1[0]
                assert s_next.cell in layout.playable
                assert abs(s_next.x - s.x) + abs(s_next.y - s.y) <= 1
                assert s_next.has_key >= s.has_key


def test_episode_reward_structure(env, rng):
    # Random episodes: total <= 50, +10 at most once, +40 only at the end.
    for _ in range(50):
        sid = env.start_id
        rewards = []
        for _ in range(300):
            t = env.step(sid, int(rng.integers(4)))
            rewards.append(t.r)
            sid = t.s_next
            if t.terminal:
                break
        assert sum(rewards) <= 50.0
        assert rewards.count(10.0) <= 1
        for i, r in enumerate(rewards):
            if r == 40.0:
                assert i == len(rewards) - 1


def test_all_cells_reachable_from_start(layout):
    # BFS from start covers all 104 playable cells.
    assert layout._reachable_from_start() == layout.playable


def test_layout_text_round_trip(layout):
    text = layout.to_text()
    parsed = RoomsLayout.from_text(text)
    assert parsed == layout
    assert text.count("#") == 48 + 17
    assert text.count("K") == 1 and text.count("B") == 1 and text.count("S") == 1


def test_layout_text_rejects_garbage():
    with pytest.raises(LayoutError):
        RoomsLayout.from_text("###\n#S#\n###\n")  # no key/box
    with pytest.raises(LayoutError):
        RoomsLayout.from_text("")


@pytest.mark.parametrize("name", ["key", "box"])
@pytest.mark.parametrize("cell", [(-1, 5), (5, -1), (13, 5), (5, 13)])
def test_layout_refuses_a_cell_just_off_the_grid(layout, name, cell):
    # No wall lies off the 13x13 grid, so only the bounds refuse these cells.
    with pytest.raises(LayoutError, match=f"{name} cell .* is not playable"):
        dataclasses.replace(layout, **{f"{name}_cell": cell})


def test_layout_rejects_unreachable_cells():
    grid = (
        "#######\n"
        "#S..#K#\n"
        "#B..###\n"
        "#######\n"
    )
    with pytest.raises(LayoutError):
        RoomsLayout.from_text(grid)


def test_slip_stays_in_bounds_and_is_seeded(layout):
    rng = np.random.default_rng(3)
    env = FourRoomsEnv(layout, slip_prob=0.5, rng=rng)
    start = env.start_id
    sid = start
    trace1 = []
    for _ in range(200):
        t = env.step(sid, Action.EAST)
        assert env.index.states[t.s_next].cell in layout.playable
        assert t.a == Action.EAST
        trace1.append(t)
        sid = t.s_next if not t.terminal else start
    env2 = FourRoomsEnv(layout, slip_prob=0.5, rng=np.random.default_rng(3))
    sid = start
    trace2 = []
    for _ in range(200):
        t = env2.step(sid, Action.EAST)
        trace2.append(t)
        sid = t.s_next if not t.terminal else start
    assert trace1 == trace2


def test_slip_requires_rng(layout):
    with pytest.raises(ValueError):
        FourRoomsEnv(layout, slip_prob=0.2)


def test_grid_state_is_the_tuple_of_its_fields():
    # Same repr and hash as the field tuple, so set and dict iteration
    # orders over states do not depend on the state type.
    s = GridState(3, 4, True)
    assert repr(s) == "GridState(x=3, y=4, has_key=True)"
    assert hash(s) == hash((3, 4, True))
    assert GridState(1, 1) == (1, 1, False)
    assert s.cell == (3, 4)


def _reference_step(layout, state, action):
    """The move rule written out per step on `GridState`s, as it was before
    being compiled to tables: (next state, reward, terminal)."""
    dx, dy = ACTION_DELTAS[action]
    target = (state.x + dx, state.y + dy)
    if target in layout.walls:
        target = state.cell
    has_key, reward = state.has_key, 0.0
    if target == layout.key_cell and not has_key:
        has_key, reward = True, 10.0
    terminal = target == layout.box_cell and has_key
    if terminal:
        reward = 40.0
    return GridState(*target, has_key), reward, terminal


CUSTOM_GRID = (
    "#########\n"
    "#S......#\n"
    "#...K.#.#\n"
    "#B......#\n"
    "#########\n"
)


@pytest.mark.parametrize(
    "grid", [RoomsLayout.default(), RoomsLayout.from_text(CUSTOM_GRID)],
    ids=["default", "custom"],
)
def test_compiled_tables_match_the_reference_move_rule(grid):
    env = FourRoomsEnv(grid)
    states = env.index.states
    assert states[env.terminal_id] == GridState(*grid.box_cell, True)
    for sid, state in enumerate(states):
        if sid == env.terminal_id:
            continue
        for a in Action:
            t = env.step(sid, a)
            assert (t.s, t.a) == (sid, a)
            got = (states[t.s_next], t.r, t.terminal)
            assert got == _reference_step(grid, state, a), (state, a)


@pytest.mark.parametrize("text", [None, CUSTOM_GRID], ids=["default", "custom"])
def test_layout_owns_one_index_and_one_shared_move_table(text):
    grid = RoomsLayout.default() if text is None else RoomsLayout.from_text(text)
    index, moves = grid.index, grid.moves
    assert FourRoomsEnv(grid).index is index
    assert grid.moves is moves
    # Entry (sid * 4 + taken) * 4 + chosen is the reference step of `taken`,
    # recorded under the chosen action.
    assert len(moves) == 16 * index.size
    for sid, state in enumerate(index.states):
        for taken in Action:
            next_state, reward, terminal = _reference_step(grid, state, taken)
            s_next = index.encode(next_state)
            for chosen in Action:
                assert moves[(sid * 4 + taken) * 4 + chosen] == Transition(
                    sid, chosen, reward, s_next, terminal
                ), (state, taken, chosen)
    # Equal entries are one object.
    first: dict[Transition, Transition] = {}
    assert all(first.setdefault(t, t) is t for t in moves)
    assert len(first) < len(moves)
    # Runs on the layout push its entries, with and without slip.
    table = {id(t) for t in moves}
    for seed, slip in ((0, 0.0), (1, 0.3)):
        result = run(RunConfig(
            mode="random_walk", seed=seed, total_steps=2000, warmup_steps=100,
            slip_prob=slip, layout_text=text,
        ))
        assert len(result.memory) == 2000
        assert all(id(t) in table for t in result.memory)


def test_rejected_steps_draw_no_slip(layout):
    rng = np.random.default_rng(5)
    env = FourRoomsEnv(layout, slip_prob=0.5, rng=rng)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="terminal"):
        env.step(env.terminal_id, Action.NORTH)
    # step reads its table by action id, so an id out of range must not
    # reach another state's entries.
    with pytest.raises(ValueError, match="action must be in"):
        env.step(env.index.encode(GridState(1, 1)), 4)
    with pytest.raises(ValueError, match="action must be in"):
        env.step(0, 4)
    with pytest.raises(ValueError, match="action must be in"):
        env.step(5, -1)
    # A cell off the playable grid has no state id to step from.
    for cell in ((0, 0), (20, 1)):
        with pytest.raises(ValueError, match="not indexable"):
            env.index.encode(GridState(*cell))
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("sid", [-1, -208, 208, 1000])
def test_step_refuses_a_state_id_off_the_index(sid):
    # A negative id would read another state's entries through a wrapped
    # list index, and one past the end would raise a bare IndexError.
    rng = np.random.default_rng(5)
    env = FourRoomsEnv(slip_prob=0.5, rng=rng)
    assert env.index.size == 208
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=rf"^state id must be in \[0, 208\), got {sid}$"):
        env.step(sid, Action.NORTH)
    assert rng.bit_generator.state == before
