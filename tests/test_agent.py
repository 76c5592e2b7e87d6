"""Agent contracts: epsilon-greedy policies, critic, TD updates.

Learning tests compare trained tables against independent
value-iteration oracles on tiny chain MDPs and a small semi-MDP
abstraction of the rooms task.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import grid_distance, id_coded
from subgoal_hrl.agent import (
    ControllerTable,
    FlatTable,
    MetaTable,
    StateIndex,
    epsilon_greedy_index,
    flat_q_update,
    intrinsic_critic,
    select_action,
    select_subgoal,
    update_controller,
    update_meta,
)
from subgoal_hrl.discovery import AnomalySubgoal, Centroid, SubgoalSet
from subgoal_hrl.memory import (
    ControllerTransition,
    MetaTransition,
    Transition,
    accumulate_return,
)
from subgoal_hrl.rooms_env import Action, GridState, RoomsLayout


def rooms_subgoals():
    centroids = tuple(
        Centroid(x, y) for x, y in [(3.0, 3.0), (9.0, 3.0), (3.0, 9.0), (9.0, 9.0)]
    )
    anomalies = (
        AnomalySubgoal(GridState(10, 2, True), 5.0),
        AnomalySubgoal(GridState(2, 10, True), 20.0),
    )
    return SubgoalSet(centroids=centroids, anomalies=anomalies)


def goal_values(meta: MetaTable, state: GridState) -> list[float]:
    """The meta-controller's live value row for `state`."""
    return meta._values[meta.index.encode(state)]


# -- selection ---------------------------------------------------------------


def test_greedy_picks_argmax(rng, layout):
    index = StateIndex(layout)
    meta = MetaTable(index, 3)
    s = GridState(1, 1)
    sid = index.encode(s)
    goal_values(meta, s)[:] = [1.0, 2.0, 0.5]
    assert select_subgoal(meta, sid, 0.0, rng) == 1
    ctrl = ControllerTable(index, 1)
    ctrl.action_values(s, 0)[:] = [0.0, 0.0, 1.0, 0.0]
    action = select_action(ctrl, sid, 0, 0.0, rng)
    assert action == Action.EAST and type(action) is int


@pytest.mark.parametrize("n_arms", [3, 4])
def test_uniform_exploration_frequencies(rng, n_arms):
    values = [1.0, 2.0, 0.5, -1.0][:n_arms]
    counts = [0] * n_arms
    for _ in range(30_000):
        counts[epsilon_greedy_index(values, 1.0, rng)] += 1
    for c in counts:
        assert abs(c / 30_000 - 1 / n_arms) < 0.02


def test_uniform_tie_breaking_on_equal_values(rng):
    counts = [0, 0, 0, 0]
    for _ in range(40_000):
        counts[epsilon_greedy_index([0.5] * 4, 0.0, rng)] += 1
    for c in counts:
        assert abs(c / 40_000 - 0.25) < 0.02


def test_half_epsilon_argmax_frequency(rng):
    # P(argmax) = (1 - eps) + eps / n = 0.5 + 0.5 / 4 = 0.625.
    hits = 0
    n = 40_000
    for _ in range(n):
        hits += epsilon_greedy_index([0.0, 0.0, 1.0, 0.0], 0.5, rng) == 2
    assert abs(hits / n - 0.625) < 0.015


def test_greedy_invariant_under_positive_affine_scaling(rng):
    row = [0.3, 1.7, 1.7, -0.2]
    scaled = [4.2 * v + 11.0 for v in row]
    counts_raw = [0] * 4
    counts_scaled = [0] * 4
    for _ in range(20_000):
        counts_raw[epsilon_greedy_index(row, 0.0, rng)] += 1
        counts_scaled[epsilon_greedy_index(scaled, 0.0, rng)] += 1
    assert counts_raw[0] == counts_raw[3] == 0
    assert counts_scaled[0] == counts_scaled[3] == 0
    for counts in (counts_raw, counts_scaled):
        assert abs(counts[1] / 20_000 - 0.5) < 0.02


def test_first_index_tie_breaking():
    rng = np.random.default_rng(0)
    picks = {
        epsilon_greedy_index([0.0, 0.0, 0.0], 0.0, rng, tie_break="first")
        for _ in range(100)
    }
    assert picks == {0}


def test_select_subgoal_rejects_empty(rng, layout):
    meta = MetaTable(StateIndex(layout), 0)
    with pytest.raises(ValueError):
        select_subgoal(meta, layout.index.encode(GridState(1, 1)), 0.0, rng)


@pytest.mark.parametrize("sid", [-1, -208, 208, 1000])
def test_selectors_reject_a_state_id_off_the_index(rng, layout, sid):
    # List indexing would wrap a negative id to another state's row.
    index = StateIndex(layout)
    meta, ctrl = MetaTable(index, 2), ControllerTable(index, 2)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"state id {sid} is outside"):
        select_subgoal(meta, sid, 0.0, rng)
    with pytest.raises(ValueError, match=f"state id {sid} is outside"):
        select_action(ctrl, sid, 0, 0.0, rng)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("goal_id", [-1, -2, 2, 7])
def test_select_action_rejects_an_unknown_goal_id(rng, layout, goal_id):
    # A negative id would wrap to the last subgoal's column.
    ctrl = ControllerTable(StateIndex(layout), 2)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"unknown subgoal id {goal_id}"):
        select_action(ctrl, 0, goal_id, 0.0, rng)
    assert rng.bit_generator.state == before


# -- intrinsic critic -------------------------------------------------------


def test_critic_anomaly_exact_match():
    subgoals = rooms_subgoals()
    assert intrinsic_critic(GridState(10, 2, True), 4, subgoals) is True
    assert intrinsic_critic(GridState(10, 2, False), 4, subgoals) is False
    assert intrinsic_critic(GridState(9, 2, True), 4, subgoals) is False


def test_critic_centroid_zero_distance():
    subgoals = rooms_subgoals()
    assert intrinsic_critic(GridState(3, 3), 0, subgoals) is True


def test_critic_centroid_regions_exhaustive(layout):
    # Oracle: nearest room center over all 104 cells; a cell in the NW
    # room never attains the SE centroid and vice versa.
    subgoals = rooms_subgoals()
    centers = [(3.0, 3.0), (9.0, 3.0), (3.0, 9.0), (9.0, 9.0)]
    for cell in layout.playable:
        dists = [
            (c[0] - cell[0]) ** 2 + (c[1] - cell[1]) ** 2 for c in centers
        ]
        expected = dists.index(min(dists))
        for g in range(4):
            attained = intrinsic_critic(GridState(*cell), g, subgoals)
            assert attained == (g == expected)
        room = layout.room_of(cell)
        if room == "NW":
            assert not intrinsic_critic(GridState(*cell), 3, subgoals)
        if room == "SE":
            assert not intrinsic_critic(GridState(*cell), 0, subgoals)


def test_critic_is_pure():
    subgoals = rooms_subgoals()
    results = {intrinsic_critic(GridState(5, 5), 0, subgoals) for _ in range(10)}
    assert len(results) == 1


# -- tabular updates ---------------------------------------------------------


def test_controller_update_attained_arithmetic(layout):
    index = StateIndex(layout)
    ctrl = ControllerTable(index, 1)
    tr = ControllerTransition(
        GridState(1, 1), 0, Action.EAST, 1.0, GridState(2, 1), True
    )
    update_controller(ctrl, id_coded([tr], index), alpha=0.1, gamma=0.99)
    assert ctrl.action_values(GridState(1, 1), 0)[Action.EAST] == pytest.approx(0.1)


def test_controller_update_bootstrap_arithmetic(layout):
    index = StateIndex(layout)
    ctrl = ControllerTable(index, 1)
    ctrl.action_values(GridState(2, 1), 0)[:] = [0.0, 0.5, 0.0, 0.0]
    tr = ControllerTransition(
        GridState(1, 1), 0, Action.EAST, 0.0, GridState(2, 1), False
    )
    update_controller(ctrl, id_coded([tr], index), alpha=0.1, gamma=0.99)
    assert ctrl.action_values(GridState(1, 1), 0)[Action.EAST] == pytest.approx(0.0495)


def test_controller_update_rejects_unknown_goal(layout):
    ctrl = ControllerTable(StateIndex(layout), 2)
    tr = ControllerTransition(
        GridState(1, 1), 7, Action.EAST, 0.0, GridState(2, 1), False
    )
    with pytest.raises(ValueError):
        update_controller(ctrl, id_coded([tr], ctrl.index), alpha=0.1, gamma=0.99)


@pytest.mark.parametrize("where", ["s", "s_next", "a"])
def test_updates_reject_wall_states(layout, where):
    # A negative id, which list indexing would wrap to the last row or
    # column, and an id past the end, which would raise a bare IndexError.
    index = StateIndex(layout)
    ids = (index.encode(GridState(1, 1)), index.encode(GridState(2, 1)))
    past_end = len(Action) if where == "a" else index.size
    cases = [(-1, "negative id in transition", ids), (past_end, "id out of range", ids)]
    for bad, message, (s, s_next) in cases:
        a = Action.EAST
        if where == "s":
            s = bad
        elif where == "s_next":
            s_next = bad
        else:
            a = bad
        ctrl, meta, flat = ControllerTable(index, 1), MetaTable(index, 1), FlatTable(index)
        with pytest.raises(ValueError, match=message):
            update_controller(
                ctrl,
                [ControllerTransition(s, 0, a, 1.0, s_next, False)],
                alpha=0.1, gamma=0.99,
            )
        if where != "a":
            with pytest.raises(ValueError, match=message):
                update_meta(
                    meta,
                    [MetaTransition(s, 0, 1.0, s_next, 1, False)],
                    alpha=0.1, gamma=0.99,
                )
        with pytest.raises(ValueError, match=message):
            flat_q_update(
                flat,
                [Transition(s, a, 1.0, s_next, False)],
                alpha=0.1, gamma=0.99,
            )
        assert all(v == 0.0 for table in (ctrl, meta, flat) for *_, v in table.rows())


@pytest.mark.parametrize("done", [False, True])
def test_updates_reject_negative_goal_ids(layout, done):
    # List indexing would wrap -1 to the last subgoal's column.
    index = StateIndex(layout)
    ctrl = ControllerTable(index, 2)
    meta = MetaTable(index, 2)
    s, s_next = GridState(1, 1), GridState(2, 1)
    ctrl_batch, meta_batch = (id_coded([tr], index) for tr in (
        ControllerTransition(s, -1, Action.EAST, 1.0, s_next, done),
        MetaTransition(s, -1, 1.0, s_next, 1, done),
    ))
    with pytest.raises(ValueError, match="unknown subgoal id -1"):
        update_controller(ctrl, ctrl_batch, alpha=0.1, gamma=0.99)
    with pytest.raises(ValueError, match="unknown subgoal id -1"):
        update_meta(meta, meta_batch, alpha=0.1, gamma=0.99)
    assert ctrl.action_values(s, 1) == [0.0] * 4
    assert goal_values(meta, s) == [0.0, 0.0]


def value_iteration(n_states, n_actions, step_fn, gamma, tol=1e-13):
    """Q* for a deterministic MDP given step_fn(s, a) -> (s', r, done)."""
    q = [[0.0] * n_actions for _ in range(n_states)]
    while True:
        delta = 0.0
        for s in range(n_states):
            for a in range(n_actions):
                s2, r, done = step_fn(s, a)
                target = r if done else r + gamma * max(q[s2])
                delta = max(delta, abs(target - q[s][a]))
                q[s][a] = target
        if delta < tol:
            return q


def test_controller_converges_on_corridor(layout):
    # 3-cell corridor (1,1)-(2,1)-(3,1); reaching (3,1) attains the goal.
    index = StateIndex(layout)
    cells = [GridState(1, 1), GridState(2, 1), GridState(3, 1)]
    gamma = 0.99
    batch = [
        ControllerTransition(cells[0], 0, Action.EAST, 0.0, cells[1], False),
        ControllerTransition(cells[1], 0, Action.EAST, 1.0, cells[2], True),
        ControllerTransition(cells[1], 0, Action.WEST, 0.0, cells[0], False),
        ControllerTransition(cells[0], 0, Action.WEST, 0.0, cells[0], False),
    ]
    batch = id_coded(batch, index)
    ctrl = ControllerTable(index, 1)
    for _ in range(3000):
        update_controller(ctrl, batch, alpha=0.1, gamma=gamma)

    def step_fn(s, a):  # states 0, 1; EAST=0, WEST=1
        if s == 0:
            return (1, 0.0, False) if a == 0 else (0, 0.0, False)
        return (0, 1.0, True) if a == 0 else (0, 0.0, False)

    oracle = value_iteration(2, 2, step_fn, gamma)
    assert oracle[1][0] == pytest.approx(1.0)
    assert oracle[0][0] == pytest.approx(gamma)
    got = [
        ctrl.action_values(cells[0], 0)[Action.EAST],
        ctrl.action_values(cells[1], 0)[Action.EAST],
        ctrl.action_values(cells[0], 0)[Action.WEST],
        ctrl.action_values(cells[1], 0)[Action.WEST],
    ]
    want = [oracle[0][0], oracle[1][0], oracle[0][1], oracle[1][1]]
    # Per-cell optimal value is gamma^(distance - 1).
    assert want[1] == pytest.approx(gamma ** 0)
    assert want[0] == pytest.approx(gamma ** 1)
    for g, w in zip(got, want):
        assert abs(g - w) < 1e-3


def test_meta_update_terminal_arithmetic(layout):
    meta = MetaTable(StateIndex(layout), 2)
    tr = MetaTransition(
        GridState(1, 1), 1, accumulate_return([0.0, 0.0, 10.0], 0.99),
        GridState(2, 10, True), 3, True,
    )
    update_meta(meta, id_coded([tr], meta.index), alpha=0.1, gamma=0.99)
    assert goal_values(meta, GridState(1, 1))[1] == pytest.approx(0.9801)


def test_meta_update_bootstrap_arithmetic(layout):
    meta = MetaTable(StateIndex(layout), 2)
    s_end = GridState(5, 5)
    goal_values(meta, s_end)[:] = [2.0, 0.0]
    tr = MetaTransition(GridState(1, 1), 0, 0.0, s_end, 5, False)
    update_meta(meta, id_coded([tr], meta.index), alpha=0.1, gamma=0.99)
    expected = 0.1 * (0.99 ** 5 * 2.0)
    assert expected == pytest.approx(0.19020, abs=5e-6)
    assert goal_values(meta, GridState(1, 1))[0] == pytest.approx(expected)


def test_meta_update_rejects_unknown_goal(layout):
    meta = MetaTable(StateIndex(layout), 1)
    tr = MetaTransition(GridState(1, 1), 3, 0.0, GridState(2, 1), 1, False)
    with pytest.raises(ValueError):
        update_meta(meta, id_coded([tr], meta.index), alpha=0.1, gamma=0.99)


def test_meta_converges_on_key_box_chain(layout):
    """Semi-MDP oracle: 6 subgoals, the key->box chain is the only
    productive structure; centroid options are modeled as in-place
    wandering for their travel time.
    """
    index = StateIndex(layout)
    gamma = 0.99
    timeout = 50
    centers = [(3, 3), (9, 3), (3, 9), (9, 9)]
    key_cell, box_cell = layout.key_cell, layout.box_cell
    start = GridState(1, 1, False)
    key_state = GridState(*key_cell, True)
    states = [start, key_state] + [GridState(x, y, False) for x, y in centers]

    def option(p: GridState, g: int):
        """(duration, rewards, s_end, terminal) of option g from state p."""
        if g < 4:  # centroid: wander for the travel time, end where it began
            dur = max(1, grid_distance(layout, p.cell, centers[g]))
            return dur, [0.0] * dur, p, False
        if g == 4:  # key anomaly
            if p.has_key:
                return 1, [0.0], p, False
            d = grid_distance(layout, p.cell, key_cell)
            return d, [0.0] * (d - 1) + [10.0], key_state, False
        if p.has_key:  # box anomaly with the key: terminal +40
            d = grid_distance(layout, p.cell, box_cell)
            return d, [0.0] * (d - 1) + [40.0], GridState(*box_cell, True), True
        return timeout, [0.0] * timeout, p, False  # box without key: time out

    transitions = []
    for p in states:
        for g in range(6):
            dur, rewards, s_end, terminal = option(p, g)
            transitions.append(MetaTransition(
                p, g, accumulate_return(rewards, gamma), s_end, dur, terminal
            ))

    transitions = id_coded(transitions, index)
    meta = MetaTable(index, 6)
    for _ in range(4000):
        update_meta(meta, transitions, alpha=0.2, gamma=gamma)

    # Independent semi-MDP value iteration over the same abstraction.
    oracle = {s: [0.0] * 6 for s in states}
    for _ in range(8000):
        new = {}
        for p in states:
            row = []
            for g in range(6):
                dur, rewards, s_end, terminal = option(p, g)
                ret = sum(gamma**i * r for i, r in enumerate(rewards))
                row.append(ret if terminal else ret + gamma**dur * max(oracle[s_end]))
            new[p] = row
        if all(
            abs(a - b) < 1e-13 for s in states for a, b in zip(new[s], oracle[s])
        ):
            oracle = new
            break
        oracle = new

    for p in states:
        got = goal_values(meta, p)
        for g in range(6):
            assert abs(got[g] - oracle[p][g]) < 1e-3
    assert max(range(6), key=lambda g: goal_values(meta, start)[g]) == 4
    assert max(range(6), key=lambda g: goal_values(meta, key_state)[g]) == 5


def test_flat_update_terminal_arithmetic(layout):
    flat = FlatTable(StateIndex(layout))
    tr = Transition(GridState(2, 9, True), Action.SOUTH, 40.0,
                    GridState(2, 10, True), True)
    flat_q_update(flat, id_coded([tr], flat.index), alpha=0.1, gamma=0.99)
    assert flat.action_values(GridState(2, 9, True))[Action.SOUTH] == pytest.approx(4.0)


def test_flat_zero_alpha_is_identity(layout, rng):
    flat = FlatTable(StateIndex(layout))
    before = [list(row) for row in flat._values]
    batch = [
        Transition(GridState(1, 1), Action(int(rng.integers(4))),
                   float(rng.choice([0.0, 10.0])), GridState(2, 1), False)
        for _ in range(20)
    ]
    flat_q_update(flat, id_coded(batch, flat.index), alpha=0.0, gamma=0.99)
    assert flat._values == before


def test_flat_converges_on_two_state_chain(layout):
    # States (1,1) and terminal-ish (2,1): EAST pays 1 and ends.
    index = StateIndex(layout)
    gamma = 0.9
    s0, s1 = GridState(1, 1), GridState(2, 1)
    batch = [
        Transition(s0, Action.EAST, 1.0, s1, True),
        Transition(s0, Action.WEST, 0.0, s0, False),
    ]
    batch = id_coded(batch, index)
    flat = FlatTable(index)
    for _ in range(3000):
        flat_q_update(flat, batch, alpha=0.1, gamma=gamma)

    def step_fn(s, a):
        return (1, 1.0, True) if a == 0 else (0, 0.0, False)

    oracle = value_iteration(1, 2, lambda s, a: step_fn(s, a), gamma)
    assert oracle[0][0] == pytest.approx(1.0)
    assert oracle[0][1] == pytest.approx(gamma)
    assert abs(flat.action_values(s0)[Action.EAST] - oracle[0][0]) < 1e-3
    assert abs(flat.action_values(s0)[Action.WEST] - oracle[0][1]) < 1e-3


def test_update_moves_monotonically_without_overshoot(layout):
    # Repeated fixed batch: the entry approaches the fixed target from
    # below and never crosses it, even with an in-batch duplicate.
    index = StateIndex(layout)
    ctrl = ControllerTable(index, 1)
    tr = ControllerTransition(
        GridState(1, 1), 0, Action.EAST, 1.0, GridState(2, 1), True
    )
    batch = id_coded([tr, tr], index)
    prev = 0.0
    for _ in range(200):
        gap = 1.0 - prev
        update_controller(ctrl, batch, alpha=0.7, gamma=0.99)
        value = ctrl.action_values(GridState(1, 1), 0)[Action.EAST]
        assert value >= prev
        assert value <= 1.0 + 1e-12
        assert value - prev <= gap + 1e-12
        prev = value
    assert prev == pytest.approx(1.0)


def test_tables_stay_finite_under_update_storm(layout, rng):
    index = StateIndex(layout)
    ctrl = ControllerTable(index, 3)
    cells = sorted(layout.playable)
    for _ in range(2000):
        c1 = cells[int(rng.integers(len(cells)))]
        c2 = cells[int(rng.integers(len(cells)))]
        tr = ControllerTransition(
            GridState(*c1, bool(rng.integers(2))),
            int(rng.integers(3)),
            Action(int(rng.integers(4))),
            float(rng.choice([0.0, 1.0])),
            GridState(*c2, bool(rng.integers(2))),
            bool(rng.integers(2)),
        )
        update_controller(ctrl, id_coded([tr], index), alpha=1.0, gamma=1.0)
    assert all(
        math.isfinite(v) for _, _, _, v in ctrl.rows()
    )


def test_update_rate_validation(layout):
    ctrl = ControllerTable(StateIndex(layout), 1)
    tr = ControllerTransition(
        GridState(1, 1), 0, Action.EAST, 1.0, GridState(2, 1), True
    )
    batch = id_coded([tr], ctrl.index)
    with pytest.raises(ValueError):
        update_controller(ctrl, batch, alpha=1.5, gamma=0.99)
    with pytest.raises(ValueError):
        update_controller(ctrl, batch, alpha=0.1, gamma=0.0)


# -- table plumbing -----------------------------------------------------------


def test_table_classes_bind_their_own_csv_codec(layout):
    # perfbench/tracer.py wraps to_csv and from_csv as found in each table
    # class's own __dict__, and builds FlatTable(index).
    for cls in (ControllerTable, MetaTable, FlatTable):
        assert callable(cls.__dict__["to_csv"])
        assert isinstance(cls.__dict__["from_csv"], classmethod)
    assert FlatTable(StateIndex(layout)).shape == (208, 4)


@pytest.mark.parametrize(
    "cls,counts",
    [(ControllerTable, ()), (ControllerTable, (1, 2)), (MetaTable, ()),
     (FlatTable, (3,))],
    ids=["controller-none", "controller-two", "meta-none", "flat-one"],
)
def test_a_table_refuses_counts_its_columns_do_not_fit(layout, cls, counts):
    # One constructor serves every table; its header fixes the arity, and
    # `init` is keyword-only, so FlatTable(index, 3) cannot set it.
    with pytest.raises(TypeError, match="do not fit the shape"):
        cls(StateIndex(layout), *counts)


def test_state_index_round_trip(layout):
    index = StateIndex(layout)
    assert index.size == 208
    seen = set()
    for cell in layout.playable:
        for key in (False, True):
            idx = index.encode(GridState(*cell, key))
            assert index.states[idx] == GridState(*cell, key)
            seen.add(idx)
    assert seen == set(range(208))
    with pytest.raises(ValueError):
        index.encode(GridState(0, 0))


def test_table_grow_keeps_columns_and_appends_init(layout):
    index = StateIndex(layout)
    ctrl = ControllerTable(index, 2, init=0.5)
    s = GridState(1, 1)
    ctrl.action_values(s, 0)[:] = [1.0, 2.0, 3.0, 4.0]
    ctrl.action_values(s, 1)[:] = [5.0, 6.0, 7.0, 8.0]
    ctrl.grow(4)
    assert ctrl.n_subgoals == 4
    assert ctrl.action_values(s, 0) == [1.0, 2.0, 3.0, 4.0]
    assert ctrl.action_values(s, 1) == [5.0, 6.0, 7.0, 8.0]
    assert ctrl.action_values(s, 2) == ctrl.action_values(s, 3) == [0.5] * 4
    ctrl.action_values(s, 2)[0] = 9.0  # new columns are distinct lists
    assert ctrl.action_values(s, 3) == [0.5] * 4
    meta = MetaTable(index, 2, init=-1.0)
    goal_values(meta, s)[:] = [3.5, 2.0]
    meta.grow(2)
    assert goal_values(meta, s) == [3.5, 2.0]
    meta.grow(3)
    assert meta.n_subgoals == 3
    assert goal_values(meta, s) == [3.5, 2.0, -1.0]
    assert all(len(row) == 3 for row in meta._values)
    with pytest.raises(ValueError):
        meta.grow(2)
    with pytest.raises(ValueError):
        ctrl.grow(3)
    empty = ControllerTable(index, 0, init=0.5)
    empty.grow(1)
    assert empty.shape == (208, 1, 4)
    assert empty.action_values(s, 0) == [0.5] * 4


def _reprs(values):
    """`repr` of every value of a nested table: -0.0 and the last bit count."""
    if isinstance(values, list):
        return [_reprs(v) for v in values]
    assert type(values) is float
    return repr(values)


def test_table_csv_round_trip(tmp_path, layout, rng):
    index = StateIndex(layout)
    ctrl = ControllerTable(index, 2)
    meta = MetaTable(index, 2)
    flat = FlatTable(index)
    s = GridState(4, 7, True)
    ctrl.action_values(s, 1)[2] = 0.123456789
    goal_values(meta, s)[0] = -7.25
    goal_values(meta, s)[1] = -0.0
    flat.action_values(s)[3] = 39.9999
    flat.action_values(s)[0] = 5e-324
    flat.action_values(s)[1] = 0.1 + 0.2
    ctrl.to_csv(tmp_path / "c.csv")
    meta.to_csv(tmp_path / "m.csv")
    flat.to_csv(tmp_path / "f.csv")
    ctrl2 = ControllerTable.from_csv(tmp_path / "c.csv", index, 2)
    meta2 = MetaTable.from_csv(tmp_path / "m.csv", index, 2)
    flat2 = FlatTable.from_csv(tmp_path / "f.csv", index)
    for before, after in ((ctrl, ctrl2), (meta, meta2), (flat, flat2)):
        assert _reprs(after._values) == _reprs(before._values)


_values = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=25, deadline=None)
@given(
    n_subgoals=st.integers(1, 3),
    init=_values,
    # Each step: how many subgoals to add, then (state, goal, action, value)
    # writes; goal indices are taken modulo the grown subgoal count.
    steps=st.lists(
        st.tuples(
            st.integers(0, 2),
            st.lists(
                st.tuples(st.integers(0, 207), st.integers(0, 9),
                          st.integers(0, 3), _values),
                max_size=4,
            ),
        ),
        max_size=3,
    ),
)
def test_grown_tables_round_trip_through_csv(
    tmp_path_factory, n_subgoals, init, steps
):
    index = StateIndex(RoomsLayout.default())
    ctrl = ControllerTable(index, n_subgoals, init=init)
    meta = MetaTable(index, n_subgoals, init=init)
    for extra, writes in steps:
        ctrl.grow(ctrl.n_subgoals + extra)
        meta.grow(meta.n_subgoals + extra)
        for s, g, a, v in writes:
            g %= ctrl.n_subgoals
            ctrl._values[s][g][a] = v
            meta._values[s][g] = -v
    out = tmp_path_factory.mktemp("tables")
    ctrl.to_csv(out / "c.csv")
    meta.to_csv(out / "m.csv")
    ctrl2 = ControllerTable.from_csv(out / "c.csv", index, ctrl.n_subgoals)
    meta2 = MetaTable.from_csv(out / "m.csv", index, meta.n_subgoals)
    assert ctrl2.n_subgoals == meta2.n_subgoals == ctrl.n_subgoals
    assert _reprs(ctrl2._values) == _reprs(ctrl._values)
    assert _reprs(meta2._values) == _reprs(meta._values)


@pytest.mark.parametrize(
    "text",
    [
        "garbage\n",
        "state,subgoal,action\n0,0,1\n",
        "state,subgoal,value\n",
        "state,subgoal,value\n0,zero,1.5\n",
        "state,subgoal,value\n0,0\n",
        "state,subgoal,value\n9999,0,1.5\n",
        "state,subgoal,value\n0,-1,1.5\n",
        "state,subgoal,value\n0,0,nan\n",
        "state,subgoal,value\n0,0,inf\n",
        "state,subgoal,value\n0,0,-inf\n",
    ],
    ids=[
        "garbage", "no-value-column", "no-rows", "non-integer-id",
        "short-row", "state-out-of-range", "negative-subgoal",
        "nan-value", "inf-value", "negative-inf-value",
    ],
)
def test_table_from_csv_rejects_malformed_files(tmp_path, layout, text):
    index = StateIndex(layout)
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ValueError):
        MetaTable.from_csv(path, index, 1)


@pytest.mark.parametrize(
    "edit",
    ["first-4-rows", "drop-one-row", "duplicate-row", "drop-state"],
)
def test_table_from_csv_rejects_incomplete_tables(tmp_path, layout, edit):
    index = StateIndex(layout)
    ControllerTable(index, 2).to_csv(tmp_path / "full.csv")
    header, *rows = (tmp_path / "full.csv").read_text().splitlines()
    if edit == "first-4-rows":
        rows = rows[:4]
    elif edit == "drop-one-row":
        rows = rows[:5] + rows[6:]
    elif edit == "duplicate-row":
        rows = rows[:5] + [rows[4]] + rows[6:]
    else:
        rows = [r for r in rows if r.split(",")[0] != "17"]
    path = tmp_path / "t.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    with pytest.raises(ValueError, match="one row per id combination"):
        ControllerTable.from_csv(path, index, 2)


def test_table_from_csv_rejects_another_tables_header(tmp_path, layout):
    index = StateIndex(layout)
    FlatTable(index).to_csv(tmp_path / "f.csv")
    with pytest.raises(ValueError, match="header"):
        ControllerTable.from_csv(tmp_path / "f.csv", index, 1)
    with pytest.raises(ValueError, match="header"):
        MetaTable.from_csv(tmp_path / "f.csv", index, 1)


def test_table_from_csv_loads_rows_in_any_order(tmp_path, layout, rng):
    index = StateIndex(layout)
    ctrl = ControllerTable(index, 3)
    for row in ctrl._values:
        for values in row:
            values[:] = rng.normal(size=len(values)).tolist()
    ctrl.to_csv(tmp_path / "c.csv")
    header, *rows = (tmp_path / "c.csv").read_text().splitlines()
    rng.shuffle(rows)
    (tmp_path / "shuffled.csv").write_text("\n".join([header] + rows) + "\n")
    loaded = ControllerTable.from_csv(tmp_path / "shuffled.csv", index, 3)
    assert loaded.n_subgoals == 3
    assert _reprs(loaded._values) == _reprs(ctrl._values)


@pytest.mark.parametrize(
    "column,needle", [(0, "id out of range"), (1, "id out of range")]
)
def test_table_from_csv_rejects_largest_int64_id(tmp_path, layout, column, needle):
    index = StateIndex(layout)
    MetaTable(index, 1).to_csv(tmp_path / "m.csv")
    header, first, *rows = (tmp_path / "m.csv").read_text().splitlines()
    ids = first.split(",")
    ids[column] = str(2**63 - 1)
    path = tmp_path / "t.csv"
    path.write_text("\n".join([header, ",".join(ids)] + rows) + "\n")
    with pytest.raises(ValueError, match=needle):
        MetaTable.from_csv(path, index, 1)


def test_table_from_csv_reports_blank_body_as_no_rows(tmp_path, layout):
    path = tmp_path / "t.csv"
    path.write_text("state,subgoal,value\n\n  \n\n")
    with pytest.raises(ValueError, match="no rows"):
        MetaTable.from_csv(path, StateIndex(layout), 1)


def test_table_from_csv_names_the_file_on_a_malformed_row(tmp_path, layout):
    path = tmp_path / "t.csv"
    path.write_text("state,action,value\n0,0,1.5\n0,1\n")
    with pytest.raises(ValueError, match="t.csv: malformed row"):
        FlatTable.from_csv(path, StateIndex(layout))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_table_from_csv_rejects_non_finite_values(tmp_path, layout, value):
    index = StateIndex(layout)
    FlatTable(index).to_csv(tmp_path / "f.csv")
    header, *rows = (tmp_path / "f.csv").read_text().splitlines()
    rows[100] = ",".join(rows[100].split(",")[:-1] + [value])
    path = tmp_path / "t.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    with pytest.raises(ValueError, match="t.csv: non-finite value"):
        FlatTable.from_csv(path, index)

