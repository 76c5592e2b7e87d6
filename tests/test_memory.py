"""Memory contracts: FIFO eviction, sampling, returns, serialization."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from subgoal_hrl import RunConfig, run
from subgoal_hrl.memory import (
    MAX_CAPACITY,
    SAVE_BLOCK,
    BoundedMemory,
    Transition,
    accumulate_return,
    load_transitions_jsonl,
    save_transitions_jsonl,
    transition_from_dict,
    transition_to_dict,
)
from conftest import id_coded
from subgoal_hrl.rooms_env import Action, GridState, RoomsLayout, StateIndex

_INDEX = StateIndex(RoomsLayout.default())
# One open 11x11 room: every cell with both coordinates in 1..11 is a state.
_OPEN_INDEX = StateIndex(RoomsLayout.from_text(
    "#" * 13 + "\n" + "#S" + "." * 9 + "K#\n" + ("#" + "." * 11 + "#\n") * 9
    + "#B" + "." * 10 + "#\n" + "#" * 13 + "\n"
))


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
    ring = m.snapshot()
    assert got == [ring[i] for i in (oracle_rng.random(200) * len(m)).astype(int)]


class _RecordingGenerator:
    """Forwards each method call to a seeded Generator and records it."""

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)
        self.calls: list[tuple] = []

    def __getattr__(self, name: str):
        method = getattr(self._rng, name)

        def record(*args, **kwargs):
            self.calls.append((name, args, kwargs))
            return method(*args, **kwargs)

        return record


@pytest.mark.parametrize("n", [1, 32])
@pytest.mark.parametrize("cap,pushes", [(7, 3), (7, 7), (7, 10), (7, 14)])
def test_sample_draws_once_per_minibatch(cap, pushes, n):
    # Every replay shares this sampler, so its draws fix the run's stream:
    # one rng.random(n) per minibatch, whatever the ring's fill or head.
    m, _, _ = _filled(cap, pushes)
    rng = _RecordingGenerator(5)
    m.sample(n, rng)
    assert rng.calls == [("random", (n,), {})]


@settings(max_examples=200, deadline=None)
@given(
    cap=st.integers(1, 9),
    pushes=st.integers(0, 30),
    n=st.sampled_from([1, 2, 32]),
    seed=st.integers(0, 2**32 - 1),
)
def test_sample_equals_floor_oracle_on_any_ring(cap, pushes, n, seed):
    # Filling, exactly full and wrapped rings: the sample is the items at
    # floor(u * size), oldest first, of a twin generator's draws, and both
    # generators end in the same state. An empty ring draws nothing.
    m, _, _ = _filled(cap, pushes)
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    if pushes:
        got = m.sample(n, rng)
        ring = m.snapshot()
        assert got == [ring[math.floor(u * len(m))] for u in twin.random(n)]
    else:
        with pytest.raises(ValueError):
            m.sample(n, rng)
    assert rng.bit_generator.state == twin.bit_generator.state


class _ConstantDraw:
    """Generator stub whose `random(n)` returns n copies of one u."""

    def __init__(self, u: float) -> None:
        self.u = u

    def random(self, n: int) -> np.ndarray:
        return np.full(n, self.u)


class _IndexItems:
    """Stands in for a ring's item list of `size` slots without holding them:
    slot j (list indexing, so negative j counts from the end) holds j."""

    def __init__(self, size: int) -> None:
        self.size = size

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, j: int) -> int:
        if not -self.size <= j < self.size:
            raise IndexError(j)
        return j % self.size


def _filled(cap: int, pushes: int):
    """Ring of capacity cap after pushes pushes; its newest and oldest items."""
    m = BoundedMemory(cap)
    for i in range(pushes):
        m.push(i)
    return m, pushes - 1, max(0, pushes - cap)


def _at_bound(size: int, head: int):
    """Ring of the largest capacity holding size slots, head at head."""
    m = BoundedMemory(MAX_CAPACITY)
    m._items, m._head = _IndexItems(size), head
    return m, (head - 1) % size, head


# Filling, full and wrapped rings (the head stays 0 until a ring is full),
# small and at the capacity bound, where floor(u * size) must stay < size.
EDGE_RINGS = [
    (_filled, 7, 3), (_filled, 7, 7), (_filled, 7, 10), (_filled, 7, 13),
    (_filled, 7, 20), (_at_bound, MAX_CAPACITY - 1, 0),
    (_at_bound, MAX_CAPACITY, 0), (_at_bound, MAX_CAPACITY, 1),
    (_at_bound, MAX_CAPACITY, MAX_CAPACITY // 3),
    (_at_bound, MAX_CAPACITY, MAX_CAPACITY - 1),
]


@pytest.mark.parametrize("build,a,b", EDGE_RINGS)
def test_sample_last_double_below_one_reads_newest(build, a, b):
    m, newest, _ = build(a, b)
    assert m.sample(3, _ConstantDraw(np.nextafter(1.0, 0.0))) == [newest] * 3


@pytest.mark.parametrize("build,a,b", EDGE_RINGS)
def test_sample_zero_reads_oldest(build, a, b):
    m, _, oldest = build(a, b)
    assert m.sample(3, _ConstantDraw(0.0)) == [oldest] * 3


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
    transitions = id_coded(_random_transitions(rng), _OPEN_INDEX)
    path = tmp_path / "memory.jsonl"
    save_transitions_jsonl(path, transitions, _OPEN_INDEX)
    assert load_transitions_jsonl(path, _OPEN_INDEX) == transitions
    # Save -> load -> save is byte-identical.
    again = tmp_path / "again.jsonl"
    save_transitions_jsonl(
        again, load_transitions_jsonl(path, _OPEN_INDEX), _OPEN_INDEX
    )
    assert again.read_bytes() == path.read_bytes()


def test_jsonl_schema_fields(tmp_path):
    t = Transition(_state(9, 2), Action.EAST, 10.0, _state(10, 2, True), False)
    path = tmp_path / "one.jsonl"
    save_transitions_jsonl(path, id_coded([t], _INDEX), _INDEX)
    record = json.loads(path.read_text())
    assert record == {
        "x": 9, "y": 2, "has_key": False, "action": "EAST", "reward": 10.0,
        "x_next": 10, "y_next": 2, "has_key_next": True, "terminal": False,
    }


def test_jsonl_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"x": 1}\n')
    with pytest.raises(ValueError):
        load_transitions_jsonl(path, _INDEX)


def test_jsonl_index_check_names_the_first_off_grid_line(tmp_path, layout):
    good = Transition(GridState(1, 1), Action.EAST, 0.0, GridState(2, 1), False)
    good_line = json.dumps(transition_to_dict(id_coded([good], _INDEX)[0], _INDEX))
    off_grid = json.dumps(dict(json.loads(good_line), x_next=500, y_next=3))
    path = tmp_path / "memory.jsonl"
    path.write_text("\n".join([good_line] * 4 + [off_grid, good_line, off_grid]) + "\n")
    with pytest.raises(ValueError, match=r"line 5: state .*500.* not indexable"):
        load_transitions_jsonl(path, StateIndex(layout))


_ids = st.integers(0, _INDEX.size - 1)


@settings(max_examples=200, deadline=None)
@given(
    st.builds(
        Transition,
        _ids,
        st.sampled_from(Action),
        st.floats(allow_nan=False, allow_infinity=False),
        _ids,
        st.booleans(),
    )
)
def test_transition_dict_json_round_trip(t):
    back = transition_from_dict(
        json.loads(json.dumps(transition_to_dict(t, _INDEX))), _INDEX
    )
    assert back == t
    assert repr(back.r) == repr(t.r)  # -0.0 stays -0.0


def _grid_state_transition_from_dict(d: dict, index: StateIndex) -> Transition:
    """`transition_from_dict` as it was when it built a `GridState` per
    state and an `Action` member per line."""
    x, y, x_next, y_next = d["x"], d["y"], d["x_next"], d["y_next"]
    has_key, has_key_next, terminal = d["has_key"], d["has_key_next"], d["terminal"]
    r = d["reward"]
    if not (
        type(x) is type(y) is type(x_next) is type(y_next) is int
        and type(has_key) is type(has_key_next) is type(terminal) is bool
        and (type(r) is float or type(r) is int) and abs(r) <= 1.7976931348623157e308
    ):
        raise ValueError(
            "need true/false for has_key, has_key_next and terminal, integers "
            "for x, y, x_next and y_next, and a finite reward"
        )
    ids = index.ids
    return Transition(
        ids[GridState(x, y, has_key)], Action[d["action"]].value, float(r),
        ids[GridState(x_next, y_next, has_key_next)], terminal,
    )


def _decoded(decode, d):
    try:
        t = decode(d, _INDEX)
    except Exception as exc:  # any type; both decoders must raise the same
        return type(exc), str(exc)
    return t, repr(t), [type(v) for v in t]


_LAYOUT = RoomsLayout.default()
_CELL_FIELDS = {"cell": ("x", "y"), "cell_next": ("x_next", "y_next")}
# One edit of one field of a good line, each a refusal or an edge of one.
_edits = st.one_of(
    st.tuples(st.sampled_from(sorted(_CELL_FIELDS)),
              st.sampled_from(sorted(_LAYOUT.walls) + [(13, 1), (1, 13), (-1, 1),
                                                        (10, 10), (500, 3)])),
    st.tuples(st.just("action"), st.sampled_from(
        ["north", "UP", "", "Action.NORTH", 0, 2.0, None, True, ["NORTH"], {}]
    )),
    st.tuples(st.sampled_from(["has_key", "has_key_next", "terminal"]),
              st.sampled_from([0, 1, None, "true", 1.0])),
    st.tuples(st.sampled_from(["x", "y", "x_next", "y_next"]),
              st.sampled_from([True, False, 1.0, "1", None])),
    st.tuples(st.just("reward"), st.sampled_from(
        [math.inf, -math.inf, math.nan, 10**400, -(10**400), True, "0", None,
         1.7976931348623157e308, -0.0, 7]
    )),
    st.tuples(st.just("missing"), st.sampled_from(
        ["x", "y", "has_key", "action", "reward", "x_next", "y_next",
         "has_key_next", "terminal"]
    )),
)


@settings(max_examples=300, deadline=None)
@given(
    t=st.builds(Transition, _ids, st.sampled_from(Action),
                st.floats(allow_nan=False, allow_infinity=False), _ids, st.booleans()),
    edit=st.one_of(st.none(), _edits),
)
def test_transition_from_dict_equals_the_grid_state_decode(t, edit):
    d = transition_to_dict(t, _INDEX)
    if edit is not None:
        field, value = edit
        if field == "missing":
            del d[value]
        elif field in _CELL_FIELDS:
            d.update(zip(_CELL_FIELDS[field], value))
        else:
            d[field] = value
    assert _decoded(transition_from_dict, d) == _decoded(
        _grid_state_transition_from_dict, d
    )


def _save_per_line(path, transitions, index):
    """The codec's reference: one render and one write per transition."""
    with open(path, "w", encoding="utf-8") as fh:
        for t in transitions:
            fh.write(json.dumps(transition_to_dict(t, index)) + "\n")


def _outcome(save, path, transitions):
    try:
        save(path, transitions, _INDEX)
        error = None
    except Exception as exc:  # any type; both writers must raise the same
        error = type(exc)
    return error, path.read_bytes()


# Values that compare equal but render differently (-0.0/0.0, 1/True/1.0,
# 0/False), equal state ids (1/True) and action ids (2/Action.EAST), plus
# a None state, which cannot be rendered and both writers must refuse alike.
_flags = st.sampled_from([False, True, 0, 1])
_render_states = st.one_of(st.sampled_from([0, 1, 2, True]), st.just(None))
_render_transitions = st.builds(
    Transition,
    _render_states,
    st.one_of(st.sampled_from(Action), st.just(2)),
    st.sampled_from([0.0, -0.0, 0, 1, 1.0, True, 10.0, 1e-300]),
    _render_states,
    _flags,
)
# How a picked transition enters the list: as the pooled object itself, as
# an equal copy, or as an equal twin that renders differently.
_twins = {
    "same": lambda t: t,
    "copy": lambda t: Transition(*t),
    "negated reward": lambda t: t._replace(r=-t.r),
    "int terminal": lambda t: t._replace(terminal=int(t.terminal)),
}


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    pool=st.lists(_render_transitions, min_size=1, max_size=6),
    picks=st.lists(st.tuples(st.integers(0, 5), st.sampled_from(sorted(_twins))),
                   max_size=30),
)
def test_jsonl_save_matches_the_per_line_render(tmp_path, pool, picks):
    transitions = [_twins[twin](pool[i % len(pool)]) for i, twin in picks]
    assert _outcome(save_transitions_jsonl, tmp_path / "memo.jsonl", transitions) == (
        _outcome(_save_per_line, tmp_path / "ref.jsonl", transitions)
    )


def _walk_memory():
    """A random walk's raw memory, more than two save blocks long."""
    memory = run(RunConfig(mode="random_walk", seed=0, total_steps=10_000)).memory
    assert len(memory) > 2 * SAVE_BLOCK
    return list(memory)


def test_jsonl_save_matches_the_per_line_render_across_blocks(tmp_path):
    memory = _walk_memory()
    got = _outcome(save_transitions_jsonl, tmp_path / "memo.jsonl", memory)
    assert got == _outcome(_save_per_line, tmp_path / "ref.jsonl", memory)
    assert got[0] is None and got[1].count(b"\n") == len(memory)


@pytest.mark.parametrize("at", [SAVE_BLOCK, SAVE_BLOCK + 1234, 2 * SAVE_BLOCK + 7])
@pytest.mark.parametrize("bad", [None, -1], ids=["unrenderable", "negative"])
def test_jsonl_save_failure_past_a_block_leaves_the_per_line_prefix(
    tmp_path, at, bad
):
    memory = _walk_memory()
    # The bad transition, then one seen before it, one never seen and one
    # that fails with another error.
    other = -1 if bad is None else None
    memory[at:at] = [
        Transition(bad, 0, 0.0, 0, False), memory[at - 1],
        Transition(1, 0, 0.0, 0, False), Transition(other, 0, 0.0, 0, False),
    ]
    got = _outcome(save_transitions_jsonl, tmp_path / "memo.jsonl", memory)
    assert got == _outcome(_save_per_line, tmp_path / "ref.jsonl", memory)
    assert got[0] is not None and got[1].count(b"\n") == at


@pytest.mark.parametrize("field", ["s", "s_next"])
@pytest.mark.parametrize("bad", [-1, _INDEX.size])
def test_jsonl_save_refuses_state_ids_off_the_index(tmp_path, field, bad):
    good = Transition(0, 0, 0.0, 1, False)
    t = good._replace(**{field: bad})
    with pytest.raises(ValueError, match=rf"^{re.escape(repr(t))} has a state id outside"):
        transition_to_dict(t, _INDEX)
    path = tmp_path / "memory.jsonl"
    with pytest.raises(ValueError):
        save_transitions_jsonl(path, [good, t], _INDEX)
    assert path.read_text() == json.dumps(transition_to_dict(good, _INDEX)) + "\n"


# Ids of (1, 1) and (1, 2), each with and without the key.
_small_states = st.integers(0, 3)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    pool=st.lists(
        st.builds(Transition, _small_states, st.sampled_from(Action),
                  st.sampled_from([0.0, 10.0]), _small_states, st.booleans()),
        min_size=1, max_size=5,
    ),
    picks=st.lists(
        st.tuples(st.integers(0, 4), st.sampled_from(
            ["plain", "indented", "negated", "blank", "whitespace", "crlf"]
        )),
        max_size=30,
    ),
    newline_at_end=st.booleans(),
)
def test_jsonl_load_matches_the_per_line_parse(tmp_path, pool, picks, newline_at_end):
    # Repeats, blank and whitespace-only lines, equal transitions written as
    # different raw lines, lines that differ only in the sign of the reward
    # (0.0 == -0.0), "\r\n" line endings, and a last line with no newline.
    lines = []
    for i, variant in picks:
        t = pool[i % len(pool)]
        if variant in ("blank", "whitespace"):
            lines.append("\n" if variant == "blank" else " \t \n")
            continue
        if variant == "negated":
            t = t._replace(r=-t.r)
        indent = " " if variant == "indented" else ""
        end = "\r\n" if variant == "crlf" else "\n"
        lines.append(indent + json.dumps(transition_to_dict(t, _INDEX)) + end)
    if lines and not newline_at_end:
        lines[-1] = lines[-1].rstrip("\r\n")
    path = tmp_path / "memory.jsonl"
    path.write_bytes("".join(lines).encode())
    expected = [
        transition_from_dict(json.loads(line), _INDEX) for line in lines if line.strip()
    ]
    loaded = load_transitions_jsonl(path, _INDEX)
    assert loaded == expected
    assert [repr(t) for t in loaded] == [repr(t) for t in expected]


def test_jsonl_repeated_bad_line_names_its_first_line(tmp_path):
    good = json.dumps(transition_to_dict(id_coded(
        [Transition(GridState(1, 1), Action.EAST, 0.0, GridState(2, 1), False)], _INDEX
    )[0], _INDEX))
    bad = good.replace('"terminal": false', '"terminal": 0')
    path = tmp_path / "memory.jsonl"
    path.write_text("\n".join([good, good, bad, good, bad, bad]) + "\n")
    with pytest.raises(ValueError, match=r"^bad transition on line 3: need true/false"):
        load_transitions_jsonl(path, _INDEX)


_GOOD_LINE = json.dumps(transition_to_dict(Transition(0, 1, 0.0, 1, False), _INDEX))
# Good lines, repeated as drawn: two transitions, a blank and a
# whitespace-only line, and one written with "\r\n".
_GOOD_LINES = [
    _GOOD_LINE + "\n",
    json.dumps(transition_to_dict(Transition(1, 2, 10.0, 0, True), _INDEX)) + "\n",
    "\n",
    " \t \n",
    _GOOD_LINE + "\r\n",
]
# One bad line per error the parse can raise.
_BAD_LINES = [
    "garbage\n",  # not JSON
    "[1, 2]\n",  # not an object
    '{"x": 1}\n',  # a missing field
    _GOOD_LINE.replace('"terminal": false', '"terminal": 0') + "\n",  # a bad type
    json.dumps(dict(json.loads(_GOOD_LINE), x_next=500)) + "\n",  # off the index
]


def _first_bad_line_no(lines: list[str]) -> int | None:
    """The line number a per-line loader names, or None for a good file."""
    for line_no, line in enumerate(lines, start=1):
        if line.strip():
            try:
                transition_from_dict(json.loads(line), _INDEX)
            except (KeyError, TypeError, ValueError):
                return line_no
    return None


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    good=st.lists(st.sampled_from(_GOOD_LINES), max_size=30),
    bad=st.lists(
        st.tuples(st.integers(0, 30), st.sampled_from(_BAD_LINES)), min_size=1, max_size=3
    ),
)
def test_jsonl_load_names_the_line_a_per_line_loader_names(tmp_path, good, bad):
    # Bad lines at drawn positions after and among repeats: the map-based
    # loader re-reads the file for the line number, and must name the same
    # first bad line as the per-line loop.
    lines = list(good)
    for at, line in bad:
        lines.insert(min(at, len(lines)), line)
    path = tmp_path / "memory.jsonl"
    path.write_bytes("".join(lines).encode())
    line_no = _first_bad_line_no(lines)
    assert line_no is not None
    with pytest.raises(ValueError, match=rf"^bad transition on line {line_no}: "):
        load_transitions_jsonl(path, _INDEX)
