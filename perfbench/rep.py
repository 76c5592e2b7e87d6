"""One repetition of a benchmark workload, in a fresh process.

Started by ``run.py`` with the package on ``PYTHONPATH``. Prints one JSON
object as its last line of standard output: set-up time, peak RSS, the
end-to-end timings, the correctness checks it made and, when traced, the
per-layer trace. Every repetition of a workload with the same seed does
identical work.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import subgoal_hrl
from subgoal_hrl import cli

import tracer as tracing

WORKLOADS = ("unified_hrl", "flat_q", "cli_pipeline")
# Training runs of unified_hrl and flat_q (and their random_walk companion):
# five rediscoveries in unified_hrl, at steps 1k, 3k, 5k, 7k and 9k, yet
# short enough for a run to hold a dozen repetitions on a noisy 2-core box.
TRAIN = {"total_steps": 10_000, "warmup_steps": 1_000, "discovery_period": 2_000}
CLI_STEPS = 50_000  # cli_pipeline's random walk fills the 50k raw memory
K = 4
CMD_REPEATS = 15  # eval and compare take milliseconds; report the median call
# Reported timings are those of a machine on which the reference loops take
# these times (see run.py). The python loop tracks pure-Python code; discover
# spends about half its time in numpy, so it is scaled by both loops.
REF_NOMINAL_S = {"python": 0.007, "numpy": 0.005}
REF_SAMPLES = 2  # reference timings just before and just after each timed step
# The timed step each end-to-end metric comes from, and the loops that
# measure the machine's speed for it.
PHASE_OF = {
    "setup_s": ("setup", ("python",)),
    "env_steps_per_s": ("train", ("python",)),
    "train_cmd_s": ("train", ("python",)),
    "discover_cmd_s": ("discover", ("python", "numpy")),
    "eval_cmd_s": ("eval", ("python",)),
    "compare_cmd_s": ("compare", ("python",)),
}
# The short unified_hrl run that gives cli_pipeline's eval its tables.
PREP_STEPS = 4_000
PREP_UNIFIED = ["--steps", str(PREP_STEPS), "--warmup-steps", "500",
                "--discovery-period", "1000"]

# Boundaries that must record calls on a traced workload; a rebinding in the
# program that hides one from the tracer shows up as a failed check.
EXPECTED_CALLS = {
    "unified_hrl": (
        "rooms_env.step", "memory.push", "memory.sample", "memory.snapshot",
        "memory.save_jsonl", "memory.load_jsonl", "agent.update_controller",
        "agent.update_meta", "agent.select_action", "agent.select_subgoal",
        "agent.epsilon_greedy_index", "agent.intrinsic_critic",
        "agent.table_to_csv", "agent.table_from_csv", "discovery.discover",
        "discovery.kmeans_fit", "discovery.anomaly_scores", "discovery.merge",
        "trainer.run", "cli.greedy_rollout", "cli.write_run_artifacts", "cli.main",
    ),
    "flat_q": (
        "rooms_env.step", "memory.push", "memory.sample", "memory.snapshot",
        "memory.save_jsonl", "memory.load_jsonl", "agent.flat_q_update",
        "agent.epsilon_greedy_index", "agent.table_to_csv",
        "agent.table_from_csv", "discovery.discover", "discovery.kmeans_fit",
        "discovery.anomaly_scores", "trainer.run", "cli.greedy_rollout",
        "cli.write_run_artifacts", "cli.main",
    ),
    "cli_pipeline": (
        "rooms_env.step", "memory.push", "memory.snapshot", "memory.save_jsonl",
        "memory.load_jsonl", "agent.select_action", "agent.select_subgoal",
        "agent.epsilon_greedy_index", "agent.intrinsic_critic",
        "agent.table_from_csv", "discovery.discover", "discovery.kmeans_fit",
        "discovery.anomaly_scores", "trainer.run", "cli.greedy_rollout",
        "cli.write_run_artifacts", "cli.main",
    ),
}


_REF_POINTS = np.random.default_rng(0).random((4_000, 2))
_REF_CENTERS = _REF_POINTS[:4].copy()


def _python_loop() -> None:
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(40_000):
        table[i & 255] = acc
        acc = table.get((i * 7) & 255, 0.0) * 0.5 + 1.0


def _numpy_loop() -> None:
    for _ in range(6):
        d2 = ((_REF_POINTS[:, None, :] - _REF_CENTERS[None, :, :]) ** 2).sum(axis=2)
        d2.argmin(axis=1)


def reference_s(n: int) -> dict[str, list[float]]:
    """Times of fixed loops that measure the machine's speed right now.

    They touch nothing of the package, so a change to the program cannot
    move them.
    """
    times: dict[str, list[float]] = {"python": [], "numpy": []}
    for _ in range(n):
        for kind, loop in (("python", _python_loop), ("numpy", _numpy_loop)):
            t0 = time.perf_counter()
            loop()
            times[kind].append(time.perf_counter() - t0)
    return times


def slowdown(samples: list[dict[str, list[float]]], kinds=("python", "numpy")) -> dict:
    """Median reference time over nominal, per loop kind."""
    return {k: statistics.median(t for s in samples for t in s[k]) / REF_NOMINAL_S[k]
            for k in kinds}


def metric_slowdown(by_step: dict[str, dict[str, float]]) -> dict[str, float]:
    """Per end-to-end metric: the geometric mean slowdown of its loops."""
    out = {}
    for metric, (step, kinds) in PHASE_OF.items():
        out[metric] = math.prod(by_step[step][k] for k in kinds) ** (1 / len(kinds))
    return out


class Rep:
    """State of one repetition: work directory, timings, checks, tracer."""

    def __init__(self, seed: int, work: Path, tracer) -> None:
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.out = work / "runs"
        self.checks: list[tuple[str, bool]] = []
        self.timed_s = 0.0
        self.slowdown: dict[str, dict[str, float]] = {}  # step -> loop kind -> factor

    def check(self, name: str, ok: bool) -> bool:
        self.checks.append((name, bool(ok)))
        return ok

    @contextlib.contextmanager
    def timed_phase(self, step: str):
        """Trace (when tracing) only the calls a user waits on.

        The reference loops run just before and just after, so the speed they
        measure is the machine's speed during the step.
        """
        before = reference_s(REF_SAMPLES)
        t0 = time.perf_counter()
        if self.tracer is None:
            yield
        else:
            with self.tracer:
                yield
        self.timed_s += time.perf_counter() - t0
        self.slowdown[step] = slowdown([before, reference_s(REF_SAMPLES)])

    def cli(self, name: str, argv: list[str]) -> tuple[float, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            t0 = time.perf_counter()
            rc = cli.main(argv)
            dt = time.perf_counter() - t0
        self.check(f"{name} returns 0", rc == 0)
        return dt, buf.getvalue()

    # -- workload steps ----------------------------------------------------

    def train_in_process(self, mode: str) -> tuple[Path, float, float]:
        """run() then write_run_artifacts(): what `train` does, minus parsing."""
        config = subgoal_hrl.RunConfig(mode=mode, seed=self.seed, **TRAIN)
        run_dir = self.out / cli.run_dir_name(config)
        with self.timed_phase("train"):
            t0 = time.perf_counter()
            result = subgoal_hrl.run(config)
            run_s = time.perf_counter() - t0
            cli.write_run_artifacts(result, run_dir)
            train_s = time.perf_counter() - t0
        return run_dir, run_s, train_s

    def prep_in_process(self, mode: str) -> Path:
        config = subgoal_hrl.RunConfig(mode=mode, seed=self.seed, **TRAIN)
        run_dir = self.out / cli.run_dir_name(config)
        cli.write_run_artifacts(subgoal_hrl.run(config), run_dir)
        return run_dir

    def discover(self, memory: Path) -> float:
        out = self.work / "subgoals.json"
        with self.timed_phase("discover"):
            dt, _ = self.cli("discover", [
                "discover", "--memory", str(memory), "--k", str(K),
                "--seed", str(self.seed), "--out", str(out),
            ])
        if self.check("discover writes its subgoals", out.is_file()):
            self.check("discover writes k centroids",
                       len(json.loads(out.read_text())["centroids"]) == K)
        return dt

    def eval(self, run_dir: Path) -> float:
        times = []
        with self.timed_phase("eval"):
            for _ in range(CMD_REPEATS):
                dt, text = self.cli("eval", ["eval", "--run", str(run_dir),
                                             "--seed", str(self.seed)])
                times.append(dt)
        try:
            mean_return = json.loads(text)["mean_return"]
        except (ValueError, KeyError):
            mean_return = float("nan")
        self.check("eval mean_return is finite", math.isfinite(mean_return))
        return statistics.median(times)

    def compare(self) -> float:
        """`compare --root` over every run this repetition wrote."""
        out = self.work / "comparison"
        times = []
        with self.timed_phase("compare"):
            for _ in range(CMD_REPEATS):
                dt, _ = self.cli("compare", ["compare", "--root", str(self.out),
                                             "--out-dir", str(out)])
                times.append(dt)
        modes = sorted({json.loads(p.read_text())["mode"]
                        for p in self.out.glob("*/manifest.json")})
        header = ["step"] + [f"{m}_{s}" for m in modes for s in ("mean", "std")]
        for name in ("coverage.csv", "return.csv"):
            path = out / name
            ok = path.is_file() and path.read_text().splitlines()[0].split(",") == header
            self.check(f"compare writes {name} with a column pair per mode", ok)
        return statistics.median(times)

    # -- checks on a finished run directory --------------------------------

    def check_run_dir(self, run_dir: Path, mode: str, steps: int) -> None:
        manifest_path = run_dir / "manifest.json"
        if not self.check(f"{mode}: manifest exists", manifest_path.is_file()):
            return
        manifest = json.loads(manifest_path.read_text())
        final = manifest["final"]
        self.check(f"{mode}: steps == total_steps", final["steps"] == steps)
        self.check(f"{mode}: metrics non-empty", final["episodes"] > 0)
        self.check(f"{mode}: coverage in (0, 1]", 0.0 < final["coverage"] <= 1.0)
        artifacts = manifest["artifacts"].values()
        self.check(f"{mode}: every listed artifact exists",
                   all((run_dir / a).is_file() for a in artifacts))
        for name in artifacts:
            if name.endswith("_q.csv"):
                with open(run_dir / name, newline="") as fh:
                    finite = all(math.isfinite(float(row["value"]))
                                 for row in csv.DictReader(fh))
                self.check(f"{mode}: {name} values finite", finite)
        if mode == "unified_hrl":
            self.check(f"{mode}: at least k subgoals", final["num_subgoals"] >= K)
            self.check(f"{mode}: discovery_steps non-empty",
                       len(final["discovery_steps"]) > 0)
        else:
            self.check(f"{mode}: no subgoals", final["num_subgoals"] == 0
                       and "subgoals" not in manifest["artifacts"])


def run_training_workload(rep: Rep, mode: str) -> dict:
    run_dir, run_s, train_s = rep.train_in_process(mode)
    companion = rep.prep_in_process("random_walk")
    result = {
        "env_steps_per_s": TRAIN["total_steps"] / run_s,
        "train_cmd_s": train_s,
        "discover_cmd_s": rep.discover(run_dir / "memory.jsonl"),
        "eval_cmd_s": rep.eval(run_dir),
        "compare_cmd_s": rep.compare(),
    }
    rep.check_run_dir(run_dir, mode, TRAIN["total_steps"])
    rep.check_run_dir(companion, "random_walk", TRAIN["total_steps"])
    return result


def run_cli_pipeline(rep: Rep) -> dict:
    common = ["--seed", str(rep.seed), "--out", str(rep.out)]
    with rep.timed_phase("train"):
        train_s, _ = rep.cli("train", ["train", "--mode", "random_walk",
                                       "--steps", str(CLI_STEPS), *common])
    walk = rep.out / f"random_walk_seed{rep.seed}"
    discover_s = rep.discover(walk / "memory.jsonl")
    rep.cli("train (preparation)", ["train", "--mode", "unified_hrl", *PREP_UNIFIED, *common])
    unified = rep.out / f"unified_hrl_seed{rep.seed}"
    result = {
        "env_steps_per_s": CLI_STEPS / train_s,
        "train_cmd_s": train_s,
        "discover_cmd_s": discover_s,
        "eval_cmd_s": rep.eval(unified),
        "compare_cmd_s": rep.compare(),
    }
    rep.check_run_dir(walk, "random_walk", CLI_STEPS)
    rep.check_run_dir(unified, "unified_hrl", PREP_STEPS)
    return result


def missing_boundaries(layers: dict, workload: str) -> list[str]:
    """Boundaries the workload runs that the trace saw no call of."""
    return [b for b in EXPECTED_CALLS[workload] if not layers.get(f"{b}.calls")]


def metrics_digest(runs: Path) -> str:
    """SHA-256 over every run's metrics.csv: same seed, same bytes."""
    h = hashlib.sha256()
    for path in sorted(runs.glob("*/metrics.csv")):
        h.update(path.name.encode() + path.parent.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spawned-at", dest="spawned_at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--setup-only", dest="setup_only", action="store_true",
                        help="exit once set-up is done (a set-up time probe)")
    args = parser.parse_args(argv)

    # Set-up, timed from the parent's spawn: interpreter start, the imports
    # above, and what a user's process does before its first timed call.
    if args.workload == "cli_pipeline":
        config = subgoal_hrl.RunConfig(mode="random_walk", seed=args.seed,
                                       total_steps=CLI_STEPS)
    else:
        config = subgoal_hrl.RunConfig(mode=args.workload, seed=args.seed, **TRAIN)
    config.validate()
    subgoal_hrl.StateIndex(config.layout())
    if args.workload == "cli_pipeline":
        cli.build_parser()
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        factor = slowdown([reference_s(2 * REF_SAMPLES)])["python"]
        print(json.dumps({"setup_s": setup_s, "slowdown": {"setup_s": factor}}))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    rep = Rep(args.seed, args.work, tracer)
    rep.slowdown["setup"] = slowdown([reference_s(2 * REF_SAMPLES)])
    if args.workload == "cli_pipeline":
        result = run_cli_pipeline(rep)
    else:
        result = run_training_workload(rep, args.workload)
    result["setup_s"] = setup_s
    result["slowdown"] = metric_slowdown(rep.slowdown)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["metrics_sha256"] = metrics_digest(rep.out)
    result["timed_s"] = rep.timed_s
    if tracer is not None:
        rep.check("tracer wrappers removed", not tracing.leftover_wrappers())
        layers = tracing.layer_metrics(tracer, rep.timed_s)
        missing = missing_boundaries(layers, args.workload)
        for name in EXPECTED_CALLS[args.workload]:
            rep.check(f"boundary {name} records calls", name not in missing)
        result["layers"] = layers
        result["edges"] = [[p, c, n, t] for (p, c), (n, t) in sorted(
            tracer.edges.items(), key=lambda e: (e[0][0] or "", e[0][1]))]
    result["checks"] = rep.checks
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
