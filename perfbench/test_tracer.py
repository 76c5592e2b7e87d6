"""Tests of the benchmark's tracer: self-time arithmetic and installation.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from types import ModuleType

import subgoal_hrl
from subgoal_hrl import agent, cli, trainer  # noqa: F401  (cli: its bindings are checked)

import rep
from tracer import BOUNDARIES, MARK, Tracer, layer_metrics, leftover_wrappers


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def test_self_time_subtracts_wrapped_children():
    clock = FakeClock()
    tr = Tracer(boundaries=(), clock=clock)
    leaf = tr.wrap("leaf", lambda: clock.advance(2.0))

    def mid_body():
        clock.advance(1.0)
        leaf()
        clock.advance(0.5)
        leaf()

    mid = tr.wrap("mid", mid_body)

    def top_body():
        clock.advance(3.0)
        mid()
        leaf()

    tr.wrap("top", top_body)()
    assert tr.stats["leaf"] == [3, 6.0, 6.0]
    assert tr.stats["mid"] == [1, 5.5, 1.5]
    assert tr.stats["top"] == [1, 10.5, 3.0]
    assert dict(tr.edges) == {
        (None, "top"): [1, 10.5],
        ("top", "mid"): [1, 5.5],
        ("top", "leaf"): [1, 2.0],
        ("mid", "leaf"): [2, 4.0],
    }


def test_raising_call_is_recorded_and_leaves_the_stack_clean():
    clock = FakeClock()
    tr = Tracer(boundaries=(), clock=clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("boom")

    inner = tr.wrap("inner", boom)

    def outer_body():
        try:
            inner()
        except ValueError:
            clock.advance(0.5)

    tr.wrap("outer", outer_body)()
    assert tr.stats["inner"] == [1, 1.0, 1.0]
    assert tr.stats["outer"] == [1, 1.5, 0.5]
    assert tr._stack == []


def _bindings() -> dict:
    """Every (owner, attribute) the tracer may rebind, with its value now."""
    modules = [m for m in vars(subgoal_hrl).values() if isinstance(m, ModuleType)]
    out = {}
    for _, module, owner, attr in BOUNDARIES:
        mod = getattr(subgoal_hrl, module)
        if owner:
            cls = getattr(mod, owner)
            out[(cls, attr)] = cls.__dict__[attr]
            continue
        fn = getattr(mod, attr)
        for m in [subgoal_hrl, *modules]:
            for name, value in vars(m).items():
                if value is fn:
                    out[(m, name)] = value
    return out


def test_wrappers_reach_names_bound_by_callers_and_are_removed():
    before = _bindings()
    config = subgoal_hrl.RunConfig(mode="unified_hrl", seed=0, total_steps=1500,
                                   warmup_steps=400, discovery_period=400)
    with Tracer() as tr:
        # trainer imports update_controller by name; its binding is wrapped too.
        assert hasattr(trainer.update_controller, MARK)
        assert trainer.update_controller is agent.update_controller
        assert hasattr(subgoal_hrl.run, MARK)
        result = subgoal_hrl.run(config)
    layers = layer_metrics(tr, timed_s=1.0)
    assert layers["agent.update_controller.calls"] > 0
    assert layers["discovery.discover.calls"] >= len(result.discovery_steps) > 0
    assert layers["trainer.run.calls"] == 1
    assert 0 < layers["trainer.self_s"] < layers["trainer.run.s"]

    assert leftover_wrappers() == []
    for (owner, attr), value in before.items():
        now = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert now is value, (owner, attr)


def test_call_through_a_reference_taken_before_install_is_reported_missing():
    captured = agent.flat_q_update  # a caller that bound the name early
    table = agent.FlatTable(agent.StateIndex(subgoal_hrl.RoomsLayout.default()))
    with Tracer() as tr:
        captured(table, [], 0.1, 0.9)
    layers = layer_metrics(tr, timed_s=1.0)
    assert layers["agent.flat_q_update.calls"] == 0
    assert "agent.flat_q_update" in rep.missing_boundaries(layers, "flat_q")
