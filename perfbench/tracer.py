"""Outside-in tracing of subgoal_hrl's layer boundaries.

The tracer wraps public functions and methods of the six modules from the
benchmark's own files; no program file changes. A wrapper records, per
boundary, the number of calls, the total time and the self time: the
call's duration minus the time covered by wrapped calls nested inside it.
It also sums calls and time per (parent, child) boundary pair, so the
trace shows which boundary caused which, and how much time each caller
spent in each callee.

Wrappers go on every name a caller resolves, not only on the defining
module: ``trainer`` and ``cli`` import functions by name
(``from .agent import update_controller``), so a wrapper on
``agent.update_controller`` alone would record nothing. ``install`` scans
every loaded ``subgoal_hrl`` module for names bound to the original object
and rebinds them all; ``uninstall`` restores each one.

Per-sample helpers (``StateIndex.encode``, table ``action_values`` and
``goal_values``, ``SubgoalSet.nearest_centroid_id``) are deliberately not
wrapped: they run millions of times per run, and counting them would
multiply the tracing overhead and distort the shares of the layers that
call them.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from importlib import import_module
from typing import Callable

PACKAGE = "subgoal_hrl"
MARK = "__perfbench_boundary__"

# (boundary name, module, class or None for a module function, attribute)
BOUNDARIES: tuple[tuple[str, str, str | None, str], ...] = (
    ("rooms_env.step", "rooms_env", "FourRoomsEnv", "step"),
    ("memory.push", "memory", "BoundedMemory", "push"),
    ("memory.sample", "memory", "BoundedMemory", "sample"),
    ("memory.snapshot", "memory", "BoundedMemory", "snapshot"),
    ("memory.save_jsonl", "memory", None, "save_transitions_jsonl"),
    ("memory.load_jsonl", "memory", None, "load_transitions_jsonl"),
    ("agent.update_controller", "agent", None, "update_controller"),
    ("agent.update_meta", "agent", None, "update_meta"),
    ("agent.flat_q_update", "agent", None, "flat_q_update"),
    ("agent.select_action", "agent", None, "select_action"),
    ("agent.select_subgoal", "agent", None, "select_subgoal"),
    ("agent.epsilon_greedy_index", "agent", None, "epsilon_greedy_index"),
    ("agent.intrinsic_critic", "agent", None, "intrinsic_critic"),
    ("agent.table_to_csv", "agent", "ControllerTable", "to_csv"),
    ("agent.table_to_csv", "agent", "MetaTable", "to_csv"),
    ("agent.table_to_csv", "agent", "FlatTable", "to_csv"),
    ("agent.table_from_csv", "agent", "ControllerTable", "from_csv"),
    ("agent.table_from_csv", "agent", "MetaTable", "from_csv"),
    ("agent.table_from_csv", "agent", "FlatTable", "from_csv"),
    ("discovery.discover", "discovery", None, "discover"),
    ("discovery.kmeans_fit", "discovery", None, "kmeans_fit"),
    ("discovery.anomaly_scores", "discovery", None, "anomaly_scores"),
    ("discovery.merge", "discovery", None, "merge"),
    ("trainer.run", "trainer", None, "run"),
    ("cli.greedy_rollout", "trainer", None, "greedy_rollout"),
    ("cli.write_run_artifacts", "cli", None, "write_run_artifacts"),
    ("cli.main", "cli", None, "main"),
)


class Tracer:
    """Per-boundary call counts, total and self times, and extra counters.

    Use as a context manager, or call ``install`` and ``uninstall``.
    ``stats[name]`` is ``[calls, total_s, self_s]``; ``counters`` holds
    work counts taken from arguments and results (bytes written, points
    clustered, attempts); ``edges[(parent, child)]`` is ``[calls, total_s]``
    of the child's calls made inside the parent, with ``None`` as the parent
    of an outermost call.
    """

    def __init__(
        self,
        boundaries=BOUNDARIES,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.boundaries = boundaries
        self.clock = clock
        self.stats: dict[str, list] = {}
        self.edges: dict[tuple[str | None, str], list] = defaultdict(lambda: [0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """Return `fn` wrapped as boundary `name`.

        `after(args, kwargs, result)` runs once the call has returned, outside
        the timed interval of this boundary.
        """
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        edges = self.edges
        clock = self.clock

        def wrapper(*args, **kwargs):
            frame = [0.0, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[0]
                if stack:
                    parent = stack[-1]
                    parent[0] += dur
                    edge = edges[(parent[1], name)]
                else:
                    edge = edges[(None, name)]
                edge[0] += 1
                edge[1] += dur
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(wrapper, MARK, name)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        hooks = self._hooks()
        for _, module, _, _ in self.boundaries:
            import_module(f"{PACKAGE}.{module}")
        modules = _package_modules()
        for name, module, owner, attr in self.boundaries:
            mod = sys.modules[f"{PACKAGE}.{module}"]
            after = hooks.get(name)
            if owner is None:
                original = getattr(mod, attr)
                wrapper = self.wrap(name, original, after)
                for m in modules:
                    for bound_name, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, bound_name, wrapper)
            else:
                cls = getattr(mod, owner)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._patch(cls, attr, classmethod(self.wrap(name, raw.__func__, after)))
                else:
                    self._patch(cls, attr, self.wrap(name, raw, after))

    def _patch(self, owner: object, attr: str, value: object) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- counters taken from arguments and results -------------------------

    def _hooks(self) -> dict[str, Callable]:
        counters = self.counters

        def on_push(args, kwargs, result):
            # One MetaTransition per subgoal attempt; an attained attempt
            # ends with the one ControllerTransition that earns the reward.
            kind = type(args[1]).__name__
            if kind == "MetaTransition":
                counters["attempts"] += 1
            elif kind == "ControllerTransition" and args[1].r_intrinsic > 0:
                counters["attained"] += 1

        def on_save(args, kwargs, result):
            counters["memory.save_jsonl.bytes"] += os.path.getsize(args[0])

        def on_kmeans(args, kwargs, result):
            counters["discovery.kmeans_fit.points"] += len(args[0])

        def on_discover(args, kwargs, result):
            counters["discovery.accepted"] += 1

        def on_run(args, kwargs, result):
            counters["trainer.final_coverage"] = result.final_coverage

        def on_write(args, kwargs, result):
            run_dir = args[1]
            names = list(result["artifacts"].values()) + ["manifest.json"]
            counters["cli.artifact_bytes"] += sum(
                os.path.getsize(run_dir / n) for n in names
            )

        return {
            "memory.push": on_push,
            "memory.save_jsonl": on_save,
            "discovery.kmeans_fit": on_kmeans,
            "discovery.discover": on_discover,
            "trainer.run": on_run,
            "cli.write_run_artifacts": on_write,
        }


def _package_modules() -> list:
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def leftover_wrappers() -> list[str]:
    """Names in the package that still hold a tracer wrapper."""
    found = []
    for m in _package_modules():
        for name, value in vars(m).items():
            candidates = [value]
            if isinstance(value, type):
                candidates = [
                    getattr(v, "__func__", v) for v in vars(value).values()
                ]
            if any(hasattr(c, MARK) for c in candidates):
                found.append(f"{m.__name__}.{name}")
    return found


def layer_metrics(tracer: Tracer, timed_s: float) -> dict[str, float]:
    """Flatten a finished trace into the benchmark's per-layer metric names.

    `timed_s` is the wall time the trace covered; a boundary's ``share`` is
    its self time over it.
    """
    out: dict[str, float] = {}
    for name, (calls, total, self_s) in tracer.stats.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.total_s"] = total
        out[f"{name}.self_s"] = self_s
        out[f"{name}.share"] = self_s / timed_s
    c = tracer.counters
    out["trainer.run.s"] = out["trainer.run.total_s"]
    out["trainer.self_s"] = out["trainer.run.self_s"]
    attempts = c["attempts"]
    out["trainer.attempts"] = attempts
    out["trainer.attempt_success_ratio"] = c["attained"] / attempts if attempts else 0.0
    out["trainer.final_coverage"] = c["trainer.final_coverage"]
    out["memory.save_jsonl.bytes"] = c["memory.save_jsonl.bytes"]
    out["discovery.kmeans_fit.points"] = c["discovery.kmeans_fit.points"]
    discovers = out["discovery.discover.calls"]
    out["discovery.accept_ratio"] = (
        c["discovery.accepted"] / discovers if discovers else 0.0
    )
    out["cli.artifact_bytes"] = c["cli.artifact_bytes"]
    return out
