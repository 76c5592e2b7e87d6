"""Command-line front end: train runs, offline discovery, run comparison,
and greedy evaluation of saved tables.

Artifacts land in one directory per run. A run directory is complete
once manifest.json exists; the manifest lists every artifact file and
the fully resolved configuration, so `train --config manifest.json`
reproduces the run exactly.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import statistics
import sys
from pathlib import Path

import numpy as np

from .agent import ControllerTable, FlatTable, MetaTable
from .discovery import SubgoalSet, discover
from .memory import load_transitions_jsonl, save_transitions_jsonl
from .rooms_env import RoomsLayout
from .trainer import (
    MODES,
    MetricsRecord,
    RunConfig,
    RunResult,
    greedy_rollout,
    metrics_from_csv,
    metrics_to_csv,
    moving_average,
    run,
)

OUT_ROOT_ENV = "SUBGOAL_HRL_OUT"
DEFAULT_OUT_ROOT = "runs"
MAX_MEMORY_FILE_BYTES = 256 * 1024 * 1024
MANIFEST_NAME = "manifest.json"


class CliError(Exception):
    """User-facing CLI failure; message printed to stderr, exit code 1."""


def _out_root(args) -> Path:
    if args.out:
        return Path(args.out)
    return Path(os.environ.get(OUT_ROOT_ENV, DEFAULT_OUT_ROOT))


def _load_config_file(path: str) -> dict:
    import yaml  # imported here: no other command needs it

    try:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = yaml.safe_load(fh)
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"cannot read config file: {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise CliError(f"cannot parse config file: {exc}") from exc
    if loaded is None:
        return {}
    if not isinstance(loaded, dict):
        raise CliError("config file must contain a mapping")
    # A run manifest doubles as a config file.
    if "config" in loaded and isinstance(loaded["config"], dict):
        return loaded["config"]
    return loaded


def _build_configs(args) -> list[RunConfig]:
    fields = set(RunConfig.field_names())
    file_values: dict = {}
    experiments: list[dict] = []
    if args.config:
        raw = _load_config_file(args.config)
        experiments = raw.pop("experiments", []) or []
        unknown = set(raw) - fields
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown, key=str)}")
        file_values = raw

    flag_overrides = {
        name: value for name, value in vars(args).items()
        if name in fields and value is not None
    }

    base = dict(file_values)
    base.update(flag_overrides)
    if experiments and not flag_overrides.get("mode"):
        if not isinstance(experiments, list):
            raise CliError("'experiments' must be a list")
        if "seed" in flag_overrides:
            raise CliError("--seed cannot override the seeds of a config's "
                           "experiments list; pass --mode too for one run")
        for key in ("mode", "seed"):
            if key in file_values:
                raise CliError(f"config key {key!r} cannot override the {key}s "
                               "of its experiments list; remove one of them")
        configs = []
        run_dirs: set[str] = set()
        for entry in experiments:
            if not isinstance(entry, dict) or set(entry) != {"mode", "seeds"}:
                raise CliError(
                    f"each experiment sets exactly 'mode' and 'seeds', got {entry!r}"
                )
            seeds = entry["seeds"]
            if not isinstance(seeds, list) or not seeds or any(
                isinstance(seed, bool) or not isinstance(seed, int)
                for seed in seeds
            ):
                raise CliError(f"experiment {entry['mode']!r} seeds must be a "
                               f"non-empty list of integers, got {seeds!r}")
            for seed in seeds:
                values = dict(base)
                values["mode"] = entry["mode"]
                values["seed"] = seed
                cfg = _make_config(values)
                name = run_dir_name(cfg)
                if name in run_dirs:
                    raise CliError(
                        f"experiments list mode {cfg.mode!r} with seed "
                        f"{cfg.seed} twice; both would write {name}"
                    )
                run_dirs.add(name)
                configs.append(cfg)
        return configs
    if "mode" not in base:
        raise CliError("no mode given: pass --mode or a config with experiments")
    return [_make_config(base)]


def _make_config(values: dict, source: Path | None = None) -> RunConfig:
    """Build a RunConfig (which validates itself); `source` names its file."""
    try:
        return RunConfig(**values)
    except (TypeError, ValueError) as exc:
        where = f"{source}: " if source else ""
        raise CliError(f"invalid configuration: {where}{exc}") from exc


def run_dir_name(config: RunConfig) -> str:
    return f"{config.mode}_seed{config.seed}"


def write_run_artifacts(result: RunResult, run_dir: Path) -> dict:
    """Write all artifacts; the manifest goes last and marks completion.

    An old manifest is removed first and the new one is renamed into
    place, so a write that fails part-way leaves no manifest behind.
    """
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / MANIFEST_NAME).unlink(missing_ok=True)
    artifacts: dict[str, str] = {}

    (run_dir / "metrics.csv").write_text(metrics_to_csv(result.metrics))
    artifacts["metrics"] = "metrics.csv"

    index = result.config.layout().index
    save_transitions_jsonl(run_dir / "memory.jsonl", result.memory, index)
    artifacts["memory"] = "memory.jsonl"

    if result.subgoals is not None:
        (run_dir / "subgoals.json").write_text(
            json.dumps(result.subgoals.to_json_dict(), indent=2, sort_keys=True)
        )
        artifacts["subgoals"] = "subgoals.json"
    for key, table, name in (
        ("controller_table", result.controller, "controller_q.csv"),
        ("meta_table", result.meta, "meta_q.csv"),
        ("flat_table", result.flat, "flat_q.csv"),
    ):
        if table is not None:
            table.to_csv(run_dir / name)
            artifacts[key] = name

    manifest = {
        "schema": 1,
        "status": "complete",
        "mode": result.config.mode,
        "seed": result.config.seed,
        "config": {
            name: getattr(result.config, name)
            for name in RunConfig.field_names()
        },
        "artifacts": artifacts,
        "final": {
            "steps": result.steps,
            "episodes": len(result.metrics),
            "coverage": result.final_coverage,
            "num_subgoals": result.subgoals.size if result.subgoals else 0,
            "discovery_steps": list(result.discovery_steps),
        },
    }
    tmp = run_dir / (MANIFEST_NAME + ".tmp")
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    os.replace(tmp, run_dir / MANIFEST_NAME)
    return manifest


def read_run(run_dir: Path) -> tuple[RunConfig, dict[str, Path]]:
    """The validated config of a completed run and the path of each artifact
    its manifest lists, by key. Every error names the manifest."""
    path = run_dir / MANIFEST_NAME
    try:
        manifest = json.loads(path.read_text())
        config = _make_config(manifest["config"], path)
        mode, names = manifest["mode"], dict(manifest["artifacts"])
        # A name with a directory part would reach outside the run.
        for name in names.values():
            if os.path.basename(name) != name or name in ("", ".", ".."):
                raise ValueError(f"artifact name {name!r} is not a plain file name")
    except FileNotFoundError:
        raise CliError(f"{run_dir} is not a completed run (no {MANIFEST_NAME})") from None
    except (OSError, ValueError, KeyError, TypeError) as exc:
        shown = exc if isinstance(exc, UnicodeDecodeError) else repr(exc)
        raise CliError(f"cannot load run artifacts from {path}: {shown}") from exc
    if mode not in MODES:
        raise CliError(f"{path}: mode {mode!r} is not one of {MODES}")
    if mode != config.mode:
        raise CliError(f"{path}: mode {mode!r} differs from its config's mode "
                       f"{config.mode!r}")
    return config, {key: run_dir / name for key, name in names.items()}


def cmd_train(args) -> int:
    configs = _build_configs(args)
    out_root = _out_root(args)
    run_dirs = [out_root / run_dir_name(config) for config in configs]
    # A bad output location fails here, before any training step.
    try:
        for run_dir in run_dirs:
            run_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create run directory: {exc}") from exc
    for config, run_dir in zip(configs, run_dirs):
        result = run(config)
        try:
            write_run_artifacts(result, run_dir)
        except OSError as exc:
            (run_dir / (MANIFEST_NAME + ".tmp")).unlink(missing_ok=True)
            raise CliError(f"cannot write run artifacts to {run_dir}: {exc}") from exc
        last_return = result.metrics[-1].ep_return if result.metrics else 0.0
        print(
            f"{config.mode} seed={config.seed}: steps={result.steps} "
            f"episodes={len(result.metrics)} coverage={result.final_coverage:.4f} "
            f"last_return={last_return:.1f} -> {run_dir}"
        )
    return 0


def cmd_discover(args) -> int:
    _require_at_least(0, args, "seed")
    _require_at_least(2, args, "min_samples")
    _require_at_least(1, args, "max_bytes")
    if not 0 < args.theta_anom < float("inf"):
        raise CliError(f"theta_anom must be finite and > 0, got {args.theta_anom!r}")
    path = Path(args.memory)
    if not path.exists():
        raise CliError(f"memory file not found: {path}")
    if path.stat().st_size > args.max_bytes:
        raise CliError(
            f"memory file exceeds {args.max_bytes} bytes; refusing to load"
        )
    layout = RoomsLayout.default()
    if (path.parent / MANIFEST_NAME).exists():
        layout = read_run(path.parent)[0].layout()
    # RunConfig.validate's bound, checked before the memory is read.
    if not 1 <= args.k <= len(layout.playable):
        raise CliError(
            f"--k must be in [1, {len(layout.playable)}], the layout's "
            f"playable cell count, got {args.k}"
        )
    try:
        transitions = load_transitions_jsonl(path, layout.index)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CliError(f"cannot load memory: {exc}") from exc
    if not transitions:
        raise CliError("memory file contains no transitions")
    rng = np.random.default_rng(args.seed)
    try:
        subgoals = discover(
            transitions, args.k, args.theta_anom, rng,
            min_samples=args.min_samples, index=layout.index,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    out = Path(args.out)
    _write_files({out: json.dumps(subgoals.to_json_dict(), indent=2, sort_keys=True)})
    print(
        f"discovered {subgoals.size} subgoals "
        f"({subgoals.k} centroids, {len(subgoals.anomalies)} anomalies) -> {out}"
    )
    return 0


def _require_at_least(minimum: int, args, *names: str) -> None:
    for name in names:
        value = getattr(args, name)
        if value < minimum:
            raise CliError(
                f"--{name.replace('_', '-')} must be >= {minimum}, got {value}"
            )


def _write_files(files: dict[Path, str]) -> None:
    """Write each text file, creating its directory first."""
    try:
        for path, text in files.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _load_run_dirs(args) -> list[tuple[Path, RunConfig, dict[str, Path]]]:
    dirs: list[Path] = []
    if args.runs:
        dirs = [Path(d) for d in args.runs]
    elif args.root:
        dirs = sorted(
            p.parent for p in Path(args.root).glob(f"*/{MANIFEST_NAME}")
        )
    # Each run counts once in a mode's mean, however its path is spelled:
    # a run is known by its manifest file's identity.
    seen: set[tuple[int, int]] = set()
    runs = []
    for d in dirs:
        runs.append((d, *read_run(d)))
        st = (d / MANIFEST_NAME).stat()
        if (st.st_dev, st.st_ino) in seen:
            raise CliError(f"{d} is listed more than once")
        seen.add((st.st_dev, st.st_ino))
    if len(runs) < 2:
        raise CliError("comparison needs at least 2 completed run directories")
    return runs


def _sample_at(steps: list[int], values: list[float], grid: list[int]) -> list[float]:
    """Previous-value resampling onto the grid (first value carried back)."""
    out = []
    j = -1
    for t in grid:
        while j + 1 < len(steps) and steps[j + 1] <= t:
            j += 1
        out.append(values[max(j, 0)])
    return out


def cmd_compare(args) -> int:
    _require_at_least(1, args, "grid_step", "window")
    by_mode: dict[str, list[list[MetricsRecord]]] = {}
    first_of_mode: dict[str, tuple[Path, RunConfig]] = {}
    final_steps = []
    for d, config, artifacts in _load_run_dirs(args):
        mode, path = config.mode, d / MANIFEST_NAME
        try:
            path = artifacts["metrics"]
            records = metrics_from_csv(path.read_text())
        except (OSError, ValueError, KeyError, TypeError) as exc:
            shown = exc if isinstance(exc, UnicodeDecodeError) else repr(exc)
            raise CliError(f"cannot load {path}: {shown}") from exc
        if not records:
            raise CliError(f"{path} has no metrics rows")
        # Rows rise in steps, so the last row bounds the run's curve.
        if records[-1].steps > config.total_steps:
            raise CliError(f"{path}: steps {records[-1].steps} exceed the run's "
                           f"total_steps {config.total_steps}")
        # Runs of one mode are averaged, so they may differ in seed alone.
        first_dir, first = first_of_mode.setdefault(mode, (d, config))
        differ = [name for name in RunConfig.field_names() if name != "seed"
                  and getattr(first, name) != getattr(config, name)]
        if differ:
            raise CliError(
                f"{first_dir} and {d} are {mode} runs whose configs differ in "
                f"{', '.join(differ)}; compare averages only runs that differ "
                f"in seed"
            )
        by_mode.setdefault(mode, []).append(records)
        final_steps.append(records[-1].steps)

    grid_step = args.grid_step
    end = min(final_steps)
    if end < grid_step:
        raise CliError("runs are too short for the requested grid step")
    grid = list(range(grid_step, end + 1, grid_step))

    modes = sorted(by_mode)
    cov_series: dict[str, list[list[float]]] = {m: [] for m in modes}
    ret_series: dict[str, list[list[float]]] = {m: [] for m in modes}
    for mode in modes:
        for records in by_mode[mode]:
            steps = [r.steps for r in records]
            cov_series[mode].append(
                _sample_at(steps, [r.coverage for r in records], grid)
            )
            smoothed = moving_average([r.ep_return for r in records], args.window)
            ret_series[mode].append(_sample_at(steps, smoothed, grid))

    out_dir = Path(args.out_dir)
    files: dict[Path, str] = {}
    for name, series in (("coverage.csv", cov_series), ("return.csv", ret_series)):
        header = ["step"]
        for mode in modes:
            header += [f"{mode}_mean", f"{mode}_std"]
        lines = [",".join(header)]
        for i, t in enumerate(grid):
            row = [str(t)]
            for mode in modes:
                column = [s[i] for s in series[mode]]
                mean = statistics.fmean(column)
                std = statistics.pstdev(column) if len(column) > 1 else 0.0
                row += [repr(mean), repr(std)]
            lines.append(",".join(row))
        files[out_dir / name] = "\n".join(lines) + "\n"
    _write_files(files)
    print(f"wrote {out_dir / 'coverage.csv'} and {out_dir / 'return.csv'}")
    return 0


def cmd_eval(args) -> int:
    _require_at_least(1, args, "episodes")
    _require_at_least(0, args, "seed")
    run_dir = Path(args.run)
    config, artifacts = read_run(run_dir)
    if config.mode == "random_walk":
        raise CliError("random_walk runs have no tables to evaluate")
    layout = config.layout()
    index = layout.index
    try:
        if config.mode == "flat_q":
            flat = FlatTable.from_csv(artifacts["flat_table"], index)
            kwargs = {"flat": flat}
        else:
            if "subgoals" not in artifacts:
                raise CliError("run finished without a discovered subgoal set")
            subgoals = SubgoalSet.from_json_dict(
                json.loads(artifacts["subgoals"].read_text()), layout
            )
            kwargs = {
                "subgoals": subgoals,
                "controller": ControllerTable.from_csv(
                    artifacts["controller_table"], index, subgoals.size
                ),
                "meta": MetaTable.from_csv(
                    artifacts["meta_table"], index, subgoals.size
                ),
            }
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CliError(f"cannot load run artifacts from {run_dir}: {exc}") from exc
    rng = np.random.default_rng(args.seed)

    episodes = []
    for _ in range(args.episodes):
        episodes.append(greedy_rollout(config, rng=rng, **kwargs))
    report = {
        "mode": config.mode,
        "seed": config.seed,
        "episodes": episodes,
        "mean_return": statistics.fmean(e["return"] for e in episodes),
    }
    print(json.dumps(report, indent=2))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: each `add_argument` makes
    a help formatter, and parsing never changes the parser."""
    parser = argparse.ArgumentParser(
        prog="subgoal-hrl",
        description=(
            "Hierarchical Q-learning with unsupervised subgoal discovery "
            "on a four-rooms key/lock gridworld."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one or more training runs")
    p_train.add_argument("--mode", choices=MODES)
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--steps", dest="total_steps", type=int)
    p_train.add_argument("--k", type=int)
    p_train.add_argument("--theta-anom", dest="theta_anom", type=float)
    p_train.add_argument("--warmup-steps", dest="warmup_steps", type=int)
    p_train.add_argument("--discovery-period", dest="discovery_period", type=int)
    p_train.add_argument("--subgoal-timeout", dest="subgoal_timeout", type=int)
    p_train.add_argument("--episode-cap", dest="episode_cap", type=int)
    p_train.add_argument("--alpha", type=float)
    p_train.add_argument("--gamma", type=float)
    p_train.add_argument("--batch-size", dest="batch_size", type=int)
    p_train.add_argument("--slip-prob", dest="slip_prob", type=float)
    p_train.add_argument("--config", help="YAML config or a run manifest.json")
    p_train.add_argument("--out", help=f"output root (default ${OUT_ROOT_ENV} or ./{DEFAULT_OUT_ROOT})")
    p_train.set_defaults(func=cmd_train)

    p_disc = sub.add_parser("discover", help="offline subgoal discovery on a memory snapshot")
    p_disc.add_argument("--memory", required=True, help="transitions JSONL file")
    p_disc.add_argument("--k", type=int, default=4)
    p_disc.add_argument("--theta-anom", dest="theta_anom", type=float, default=3.0)
    p_disc.add_argument("--seed", type=int, default=0)
    p_disc.add_argument("--min-samples", dest="min_samples", type=int, default=2)
    p_disc.add_argument("--max-bytes", dest="max_bytes", type=int,
                        default=MAX_MEMORY_FILE_BYTES)
    p_disc.add_argument("--out", default="subgoals.json")
    p_disc.set_defaults(func=cmd_discover)

    p_cmp = sub.add_parser("compare", help="merge metrics across runs per mode")
    p_runs = p_cmp.add_mutually_exclusive_group()
    p_runs.add_argument("--runs", nargs="*", help="run directories")
    p_runs.add_argument("--root", help="scan this directory for completed runs")
    p_cmp.add_argument("--grid-step", dest="grid_step", type=int, default=1000)
    p_cmp.add_argument("--window", type=int, default=100,
                       help="episodes in the return moving average")
    p_cmp.add_argument("--out-dir", dest="out_dir", default="comparison")
    p_cmp.set_defaults(func=cmd_compare)

    p_eval = sub.add_parser("eval", help="greedy rollout from saved tables")
    p_eval.add_argument("--run", required=True, help="completed run directory")
    p_eval.add_argument("--episodes", type=int, default=1)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
