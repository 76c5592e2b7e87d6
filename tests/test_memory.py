"""Memory contracts: FIFO eviction, sampling, returns, serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgoal_hrl.memory import (
    BoundedMemory,
    MetaTransition,
    Transition,
    accumulate_return,
    load_transitions_jsonl,
    save_transitions_jsonl,
    transition_from_dict,
    transition_to_dict,
)
from subgoal_hrl.rooms_env import Action, GridState, StateIndex


def test_fifo_eviction_keeps_newest():
    m = BoundedMemory(2)
    for item in "abc":
        m.push(item)
    assert list(m) == ["b", "c"]


def test_push_below_capacity_preserves_order():
    m = BoundedMemory(10)
    m.push("a")
    assert len(m) == 1
    for item in "bcde":
        m.push(item)
    assert list(m) == list("abcde")


def test_fifo_matches_last_capacity_pushes(rng):
    # Property: contents always equal the tail of the push history.
    for trial in range(25):
        cap = int(rng.integers(1, 12))
        n = int(rng.integers(1, 60))
        m = BoundedMemory(cap)
        history = []
        for i in range(n):
            m.push(i)
            history.append(i)
        assert list(m) == history[-cap:]
        assert m.snapshot() == tuple(history[-cap:])


def test_sample_single_item_repeats():
    m = BoundedMemory(5)
    m.push("only")
    rng = np.random.default_rng(0)
    assert m.sample(3, rng) == ["only"] * 3


def test_sample_reproducible_under_seed():
    m = BoundedMemory(100)
    for i in range(40):
        m.push(i)
    a = m.sample(64, np.random.default_rng(7))
    b = m.sample(64, np.random.default_rng(7))
    assert a == b


@pytest.mark.parametrize("cap,pushes", [(7, 7), (7, 10), (7, 13), (7, 30), (5, 3)])
def test_sample_matches_indexing_oracle(cap, pushes):
    # Oracle: sampling reads the items that indexing in insertion order
    # reads, with the same draws, wherever the ring head sits.
    m = BoundedMemory(cap)
    for i in range(pushes):
        m.push(i)
    got = m.sample(200, np.random.default_rng(3))
    oracle_rng = np.random.default_rng(3)
    assert got == [m[i] for i in oracle_rng.integers(0, len(m), size=200)]


def test_sample_uniform_frequencies():
    m = BoundedMemory(4)
    for i in range(4):
        m.push(i)
    rng = np.random.default_rng(99)
    draws = m.sample(100_000, rng)
    for i in range(4):
        freq = draws.count(i) / 100_000
        assert abs(freq - 0.25) < 0.01


def test_sample_never_fabricates(rng):
    m = BoundedMemory(7)
    for i in range(20):
        m.push(i)
        got = m.sample(10, rng)
        assert set(got) <= set(m)


def test_sample_empty_rejected(rng):
    with pytest.raises(ValueError):
        BoundedMemory(3).sample(1, rng)


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        BoundedMemory(0)


def test_return_examples():
    assert math.isclose(accumulate_return([0, 0, 10], 0.99), 9.801)
    assert accumulate_return([5], 0.42) == 5
    assert accumulate_return([1, 1, 1, 1], 1.0) == 4


def test_return_matches_direct_summation(rng):
    for _ in range(50):
        n = int(rng.integers(1, 30))
        rewards = rng.normal(size=n).tolist()
        gamma = float(rng.uniform(0.1, 1.0))
        direct = sum(gamma**k * r for k, r in enumerate(rewards))
        assert math.isclose(accumulate_return(rewards, gamma), direct, abs_tol=1e-12)


def test_return_recursion_and_linearity(rng):
    for _ in range(30):
        n = int(rng.integers(2, 20))
        r = rng.normal(size=n).tolist()
        gamma = float(rng.uniform(0.2, 1.0))
        lhs = accumulate_return(r, gamma)
        rhs = r[0] + gamma * accumulate_return(r[1:], gamma)
        assert math.isclose(lhs, rhs, abs_tol=1e-12)
        scaled = accumulate_return([2.5 * x for x in r], gamma)
        assert math.isclose(scaled, 2.5 * lhs, abs_tol=1e-9)


def test_return_input_validation():
    with pytest.raises(ValueError):
        accumulate_return([], 0.9)
    with pytest.raises(ValueError):
        accumulate_return([1.0], 0.0)
    with pytest.raises(ValueError):
        accumulate_return([1.0], 1.5)


def _state(x, y, key=False):
    return GridState(x, y, key)


def test_meta_transition_checks_return_consistency():
    s0, s1 = _state(1, 1), _state(2, 1)
    good = MetaTransition.from_rewards(s0, 0, [0.0, 10.0], 0.99, s1, False)
    assert math.isclose(good.return_g, 9.9)
    assert good.duration == 2
    with pytest.raises(ValueError):
        MetaTransition(
            s0=s0, goal_id=0, return_g=5.0, s_end=s1, duration=2,
            rewards=(0.0, 10.0), gamma=0.99, terminal=False,
        )
    with pytest.raises(ValueError):
        MetaTransition(
            s0=s0, goal_id=0, return_g=0.0, s_end=s1, duration=0,
            rewards=(), gamma=0.99, terminal=False,
        )


def _random_transitions(rng, n=60):
    out = []
    for _ in range(n):
        s = _state(int(rng.integers(1, 12)), int(rng.integers(1, 12)),
                   bool(rng.integers(2)))
        s2 = _state(int(rng.integers(1, 12)), int(rng.integers(1, 12)),
                    bool(rng.integers(2)))
        out.append(
            Transition(
                s=s,
                a=Action(int(rng.integers(4))),
                r=float(rng.choice([0.0, 0.0, 10.0, 40.0])),
                s_next=s2,
                terminal=bool(rng.integers(2)),
            )
        )
    return out


def test_jsonl_round_trip_is_exact(tmp_path, rng):
    transitions = _random_transitions(rng)
    path = tmp_path / "memory.jsonl"
    save_transitions_jsonl(path, transitions)
    assert load_transitions_jsonl(path) == transitions
    # Save -> load -> save is byte-identical.
    again = tmp_path / "again.jsonl"
    save_transitions_jsonl(again, load_transitions_jsonl(path))
    assert again.read_bytes() == path.read_bytes()


def test_jsonl_schema_fields(tmp_path):
    t = Transition(_state(9, 2), Action.EAST, 10.0, _state(10, 2, True), False)
    path = tmp_path / "one.jsonl"
    save_transitions_jsonl(path, [t])
    record = json.loads(path.read_text())
    assert record == {
        "x": 9, "y": 2, "has_key": False, "action": "EAST", "reward": 10.0,
        "x_next": 10, "y_next": 2, "has_key_next": True, "terminal": False,
    }


def test_jsonl_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"x": 1}\n')
    with pytest.raises(ValueError):
        load_transitions_jsonl(path)


def test_jsonl_index_check_names_the_first_off_grid_line(tmp_path, layout):
    good = Transition(GridState(1, 1), Action.EAST, 0.0, GridState(2, 1), False)
    off_grid = good._replace(s_next=GridState(500, 3))
    path = tmp_path / "memory.jsonl"
    save_transitions_jsonl(path, [good] * 4 + [off_grid, good, off_grid])
    with pytest.raises(ValueError, match=r"line 5: state .*500.* not indexable"):
        load_transitions_jsonl(path, StateIndex(layout))
    assert load_transitions_jsonl(path) == [good] * 4 + [off_grid, good, off_grid]


_states = st.builds(
    GridState, st.integers(min_value=0), st.integers(min_value=0), st.booleans()
)


@settings(max_examples=200, deadline=None)
@given(
    st.builds(
        Transition,
        _states,
        st.sampled_from(Action),
        st.floats(allow_nan=False, allow_infinity=False),
        _states,
        st.booleans(),
    )
)
def test_transition_dict_json_round_trip(t):
    back = transition_from_dict(json.loads(json.dumps(transition_to_dict(t))))
    assert back == t
    assert repr(back.r) == repr(t.r)  # -0.0 stays -0.0
