"""CLI contracts: artifacts, precedence, determinism, comparison."""

import argparse
import contextlib
import io
import json
import math
import shutil
import signal
import string
import tempfile
from dataclasses import fields
from itertools import accumulate
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import build_full_coverage_memory
from subgoal_hrl.cli import _build_configs, _sample_at, build_parser, main
from subgoal_hrl.memory import MAX_CAPACITY, save_transitions_jsonl
from subgoal_hrl.rooms_env import MAX_LAYOUT_SIDE, RoomsLayout
from subgoal_hrl.trainer import (
    MAX_BATCH_SIZE,
    MAX_EPISODE_CAP,
    MODES,
    MetricsRecord,
    RunConfig,
    metrics_from_csv,
    metrics_to_csv,
)


def train_args(tmp_path, mode="unified_hrl", seed=3, **extra):
    args = [
        "train",
        "--mode", mode,
        "--seed", str(seed),
        "--steps", "1500",
        "--warmup-steps", "200",
        "--discovery-period", "500",
        "--out", str(tmp_path),
    ]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


def test_train_writes_artifacts_and_manifest(tmp_path, capsys):
    assert main(train_args(tmp_path)) == 0
    run_dir = tmp_path / "unified_hrl_seed3"
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    assert manifest["mode"] == "unified_hrl"
    # Every declared artifact exists and parses.
    for name in manifest["artifacts"].values():
        path = run_dir / name
        assert path.exists()
        if name.endswith(".json"):
            json.loads(path.read_text())
        elif name == "metrics.csv":
            assert metrics_from_csv(path.read_text())
    assert "subgoals" in manifest["artifacts"]
    assert "controller_table" in manifest["artifacts"]
    out = capsys.readouterr().out
    assert "unified_hrl seed=3" in out


def test_out_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("SUBGOAL_HRL_OUT", str(tmp_path / "envroot"))
    args = train_args(tmp_path, mode="random_walk", seed=0)
    del args[args.index("--out"):]  # no --out flag: env var decides
    assert main(args) == 0
    assert (tmp_path / "envroot" / "random_walk_seed0" / "manifest.json").exists()


def test_train_missing_mode_fails(tmp_path, capsys):
    assert main(["train", "--out", str(tmp_path)]) == 1
    assert "mode" in capsys.readouterr().err


def test_train_missing_subcommand_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_train_invalid_config_rejected(tmp_path, capsys):
    args = train_args(tmp_path)
    args[args.index("--steps") + 1] = "100"  # steps <= warmup
    assert main(args) == 1
    assert "error" in capsys.readouterr().err


def test_flag_overrides_config_file(tmp_path):
    config = {
        "mode": "random_walk",
        "seed": 9,
        "total_steps": 700,
        "warmup_steps": 100,
    }
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(config))
    assert main([
        "train", "--config", str(cfg_path), "--steps", "900",
        "--out", str(tmp_path),
    ]) == 0
    manifest = json.loads(
        (tmp_path / "random_walk_seed9" / "manifest.json").read_text()
    )
    assert manifest["config"]["total_steps"] == 900  # flag wins
    assert manifest["config"]["warmup_steps"] == 100  # file value kept


def test_every_train_flag_overrides_its_config_field(tmp_path):
    parser = build_parser()
    [subparsers] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        a.dest: a.option_strings[0]
        for a in subparsers.choices["train"]._actions
        if a.dest not in ("help", "config", "out")
    }
    file_values = {
        "mode": "random_walk", "seed": 1, "total_steps": 5000, "k": 3,
        "theta_anom": 2.0, "warmup_steps": 400, "discovery_period": 900,
        "subgoal_timeout": 30, "episode_cap": 150, "alpha": 0.2, "gamma": 0.9,
        "batch_size": 16, "slip_prob": 0.05,
    }
    flag_values = {
        "mode": "flat_q", "seed": 7, "total_steps": 6000, "k": 5,
        "theta_anom": 2.5, "warmup_steps": 500, "discovery_period": 1100,
        "subgoal_timeout": 40, "episode_cap": 170, "alpha": 0.3, "gamma": 0.95,
        "batch_size": 8, "slip_prob": 0.1,
    }
    assert flags.keys() == flag_values.keys()
    assert flags.keys() <= set(RunConfig.field_names())
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(file_values))
    argv = ["train", "--config", str(cfg_path)]

    def built(argv):
        [config] = _build_configs(parser.parse_args(argv))
        return {name: getattr(config, name) for name in flags}

    assert built(argv) == file_values
    for dest, flag in flags.items():
        argv += [flag, str(flag_values[dest])]
    assert built(argv) == flag_values


def test_config_experiments_matrix(tmp_path):
    config = {
        "total_steps": 600,
        "warmup_steps": 50,
        "experiments": [
            {"mode": "random_walk", "seeds": [0, 1]},
        ],
    }
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump(config))
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "random_walk_seed0" / "manifest.json").exists()
    assert (tmp_path / "random_walk_seed1" / "manifest.json").exists()


def test_seed_flag_with_experiments_list_is_refused(tmp_path, capsys):
    # The list names every seed, so a --seed flag cannot override it; with
    # --mode the list is unused and the flag names the one run.
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump({
        "total_steps": 600,
        "warmup_steps": 50,
        "experiments": [{"mode": "random_walk", "seeds": [0, 1]}],
    }))
    argv = ["train", "--config", str(cfg_path), "--out", str(tmp_path)]
    assert main(argv + ["--seed", "9"]) == 1
    _assert_cli_error(capsys, "--seed", "experiments list")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.yaml"]
    assert main(argv + ["--seed", "9", "--mode", "flat_q"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.yaml", "flat_q_seed9"]


@pytest.mark.parametrize("key,value", [("seed", 9), ("mode", "flat_q")])
def test_config_key_beside_experiments_list_is_refused(tmp_path, capsys, key, value):
    # The list names every run's mode and seed; a top-level key that would be
    # dropped is refused, like the --seed flag.
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump({
        key: value,
        "total_steps": 600,
        "warmup_steps": 50,
        "experiments": [{"mode": "random_walk", "seeds": [0]}],
    }))
    out = tmp_path / "runs"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
    _assert_cli_error(capsys, f"config key '{key}'", "experiments list")
    assert not out.exists()


@pytest.mark.parametrize(
    "text,needle",
    [
        ("mode: random_walk\nbogus: 1\n", "['bogus']"),
        ("1: 2\nfoo: 3\nmode: flat_q\n", "[1, 'foo']"),
    ],
    ids=["string-key", "mixed-type-keys"],
)
def test_unknown_config_key_rejected(tmp_path, capsys, text, needle):
    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text(text)
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    _assert_cli_error(capsys, f"unknown config keys: {needle}")


@pytest.mark.parametrize(
    "text,needle",
    [
        (None, "cannot read config file"),
        ("mode: [flat_q\n", "cannot parse config file"),
        ("", "no mode given"),
        ("- mode: flat_q\n", "config file must contain a mapping"),
        ("total_steps: 600\nexperiments: {mode: flat_q}\n",
         "'experiments' must be a list"),
    ],
    ids=["unreadable", "unparsable", "empty", "not-a-mapping",
         "experiments-not-a-list"],
)
def test_train_refuses_unusable_config_files(tmp_path, capsys, text, needle):
    cfg_path = tmp_path / "c.yaml"
    if text is None:
        cfg_path.mkdir()  # a directory cannot be read as a file
    else:
        cfg_path.write_text(text)
    out = tmp_path / "runs"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
    _assert_cli_error(capsys, needle)
    assert not out.exists()


def test_out_root_config_key_rejected(tmp_path, capsys):
    # The output root comes from --out, $SUBGOAL_HRL_OUT or ./runs only.
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text(yaml.safe_dump({
        "mode": "random_walk", "total_steps": 600, "warmup_steps": 50,
        "out_root": str(tmp_path / "elsewhere"),
    }))
    out = tmp_path / "runs"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
    _assert_cli_error(capsys, "out_root")
    assert not (tmp_path / "elsewhere").exists()
    assert not out.exists()


def test_train_reproduces_from_manifest(tmp_path):
    assert main(train_args(tmp_path / "a")) == 0
    manifest_path = tmp_path / "a" / "unified_hrl_seed3" / "manifest.json"
    assert main([
        "train", "--config", str(manifest_path), "--out", str(tmp_path / "b"),
    ]) == 0
    metrics_a = (tmp_path / "a" / "unified_hrl_seed3" / "metrics.csv").read_bytes()
    metrics_b = (tmp_path / "b" / "unified_hrl_seed3" / "metrics.csv").read_bytes()
    assert metrics_a == metrics_b


def test_discover_on_full_coverage_memory(tmp_path, env, capsys):
    memory_path = tmp_path / "memory.jsonl"
    save_transitions_jsonl(memory_path, build_full_coverage_memory(env), env.index)
    out_path = tmp_path / "subgoals.json"
    assert main([
        "discover", "--memory", str(memory_path), "--k", "4",
        "--seed", "0", "--out", str(out_path),
    ]) == 0
    blob = json.loads(out_path.read_text())
    assert blob["size"] == 6
    assert blob["k"] == 4
    assert len(blob["anomalies"]) == 2

    out8 = tmp_path / "subgoals8.json"
    assert main([
        "discover", "--memory", str(memory_path), "--k", "8",
        "--seed", "0", "--out", str(out8),
    ]) == 0
    assert json.loads(out8.read_text())["size"] == 10


def test_discover_empty_memory_fails(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["discover", "--memory", str(empty)]) == 1
    assert "no transitions" in capsys.readouterr().err


def test_discover_missing_and_oversized_memory(tmp_path, env, capsys):
    assert main(["discover", "--memory", str(tmp_path / "nope.jsonl")]) == 1
    memory_path = tmp_path / "memory.jsonl"
    save_transitions_jsonl(memory_path, build_full_coverage_memory(env), env.index)
    assert main([
        "discover", "--memory", str(memory_path), "--max-bytes", "10",
    ]) == 1
    assert "exceeds" in capsys.readouterr().err


def test_discover_refuses_a_memory_one_byte_over_max_bytes(tmp_path, env, capsys):
    memory_path = tmp_path / "memory.jsonl"
    save_transitions_jsonl(memory_path, build_full_coverage_memory(env), env.index)
    size = memory_path.stat().st_size
    argv = ["discover", "--memory", str(memory_path), "--out", str(tmp_path / "s.json")]
    assert main(argv + ["--max-bytes", str(size - 1)]) == 1
    _assert_cli_error(capsys, f"exceeds {size - 1} bytes")
    assert main(argv + ["--max-bytes", str(size)]) == 0


def test_discover_requires_memory_flag():
    with pytest.raises(SystemExit) as exc:
        main(["discover"])
    assert exc.value.code == 2


def test_one_parser_serves_every_call_in_a_process(trained_runs, tmp_path, env, capsys):
    assert build_parser() is build_parser()
    # An option given in one call does not carry over into the next.
    run_dir = str(trained_runs / "flat_q_seed1")
    assert main(["eval", "--run", run_dir, "--episodes", "3"]) == 0
    assert len(json.loads(capsys.readouterr().out)["episodes"]) == 3
    assert main(["eval", "--run", run_dir]) == 0
    assert len(json.loads(capsys.readouterr().out)["episodes"]) == 1

    memory_path = tmp_path / "memory.jsonl"
    save_transitions_jsonl(memory_path, build_full_coverage_memory(env), env.index)
    for extra, k in ((["--k", "5"], 5), ([], 4)):
        out_path = tmp_path / f"subgoals{k}.json"
        assert main(["discover", "--memory", str(memory_path),
                     "--out", str(out_path), *extra]) == 0
        assert json.loads(out_path.read_text())["k"] == k

    # A call that argparse refuses leaves the parser usable.
    with pytest.raises(SystemExit):
        main(["eval", "--run", run_dir, "--episodes", "many"])
    capsys.readouterr()
    assert main(["eval", "--run", run_dir]) == 0
    assert len(json.loads(capsys.readouterr().out)["episodes"]) == 1


def test_compare_merges_runs(tmp_path, capsys):
    for seed in (0, 1):
        assert main(train_args(tmp_path, mode="random_walk", seed=seed)) == 0
    assert main(train_args(tmp_path, mode="flat_q", seed=0)) == 0
    cmp_dir = tmp_path / "cmp"
    assert main([
        "compare", "--root", str(tmp_path), "--grid-step", "300",
        "--out-dir", str(cmp_dir),
    ]) == 0
    coverage_csv = (cmp_dir / "coverage.csv").read_text()
    return_csv = (cmp_dir / "return.csv").read_text()
    header = coverage_csv.splitlines()[0]
    assert header == (
        "step,flat_q_mean,flat_q_std,random_walk_mean,random_walk_std"
    )
    assert return_csv.splitlines()[0] == header
    steps = [int(line.split(",")[0]) for line in coverage_csv.splitlines()[1:]]
    assert steps == list(range(300, 1501, 300))

    # Byte-identical on re-run.
    cmp2 = tmp_path / "cmp2"
    assert main([
        "compare", "--root", str(tmp_path), "--grid-step", "300",
        "--out-dir", str(cmp2),
    ]) == 0
    assert (cmp2 / "coverage.csv").read_bytes() == coverage_csv.encode()


def test_compare_duplicate_runs_zero_std(tmp_path):
    assert main(train_args(tmp_path / "x", mode="random_walk", seed=5)) == 0
    assert main(train_args(tmp_path / "y", mode="random_walk", seed=5)) == 0
    cmp_dir = tmp_path / "cmp"
    assert main([
        "compare",
        "--runs", str(tmp_path / "x" / "random_walk_seed5"),
        str(tmp_path / "y" / "random_walk_seed5"),
        "--grid-step", "500", "--out-dir", str(cmp_dir),
    ]) == 0
    for line in (cmp_dir / "coverage.csv").read_text().splitlines()[1:]:
        assert line.split(",")[2] == "0.0"


def _last_row_at(steps, values, t):
    """The value of the last row at or before step `t`; the first row's
    value before any row."""
    before = [v for s, v in zip(steps, values) if s <= t]
    return before[-1] if before else values[0]


@settings(max_examples=100, deadline=None)
@given(
    gaps=st.lists(st.integers(1, 5), min_size=1, max_size=12),
    grid=st.lists(st.integers(0, 70), max_size=20).map(sorted),
)
@example(gaps=[2, 3], grid=[1, 2, 4, 5, 6])
def test_compare_samples_the_last_row_at_or_before_each_grid_step(gaps, grid):
    # A grid step equal to a row's steps reads that row, not the one before.
    steps = list(accumulate(gaps))
    values = [float(i) for i in range(len(steps))]
    assert _sample_at(steps, values, grid) == [
        _last_row_at(steps, values, t) for t in grid
    ]


def test_compare_needs_two_runs(tmp_path, capsys):
    assert main(train_args(tmp_path, mode="random_walk", seed=0)) == 0
    assert main([
        "compare", "--runs", str(tmp_path / "random_walk_seed0"),
        "--out-dir", str(tmp_path / "cmp"),
    ]) == 1
    assert "at least 2" in capsys.readouterr().err


def test_eval_reports_greedy_rollout(tmp_path, capsys):
    assert main(train_args(tmp_path, seed=1)) == 0
    capsys.readouterr()
    assert main([
        "eval", "--run", str(tmp_path / "unified_hrl_seed1"), "--episodes", "2",
    ]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mode"] == "unified_hrl"
    assert len(report["episodes"]) == 2
    episode = report["episodes"][0]
    assert {"return", "steps", "terminal", "subgoal_path"} <= set(episode)
    assert isinstance(episode["subgoal_path"], list)


def test_eval_flat_run(tmp_path, capsys):
    assert main(train_args(tmp_path, mode="flat_q", seed=2)) == 0
    capsys.readouterr()
    assert main(["eval", "--run", str(tmp_path / "flat_q_seed2")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["episodes"][0]["subgoal_path"] == []


def test_eval_random_walk_rejected(tmp_path, capsys):
    assert main(train_args(tmp_path, mode="random_walk", seed=0)) == 0
    assert main(["eval", "--run", str(tmp_path / "random_walk_seed0")]) == 1
    assert "no tables" in capsys.readouterr().err


def test_eval_missing_run_rejected(tmp_path, capsys):
    assert main(["eval", "--run", str(tmp_path / "missing")]) == 1
    assert "manifest" in capsys.readouterr().err.lower()


def _assert_cli_error(capsys, *needles):
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    for needle in needles:
        assert needle in err


@pytest.mark.parametrize("theta", ["nan", "inf", "-1", "0"])
def test_discover_rejects_bad_theta_anom(tmp_path, env, capsys, theta):
    memory_path = tmp_path / "memory.jsonl"
    save_transitions_jsonl(memory_path, build_full_coverage_memory(env), env.index)
    out_path = tmp_path / "subgoals.json"
    assert main([
        "discover", "--memory", str(memory_path), f"--theta-anom={theta}",
        "--out", str(out_path),
    ]) == 1
    _assert_cli_error(capsys, "theta_anom")
    assert not out_path.exists()
    # The flag is refused before the memory is read: a memory that would
    # fail to load gets the flag's error, not the load's.
    bad_memory = tmp_path / "bad.jsonl"
    bad_memory.write_text("garbage\n")
    assert main([
        "discover", "--memory", str(bad_memory), f"--theta-anom={theta}",
        "--out", str(out_path),
    ]) == 1
    _assert_cli_error(capsys, "theta_anom must be finite and > 0")
    assert not out_path.exists()


@pytest.mark.parametrize("max_bytes", ["0", "-1"])
def test_discover_rejects_max_bytes_below_one(tmp_path, capsys, max_bytes):
    # Checked with the other flags, before the memory is read: this memory
    # would fail to load.
    bad_memory = tmp_path / "bad.jsonl"
    bad_memory.write_text("garbage\n")
    out_path = tmp_path / "subgoals.json"
    assert main([
        "discover", "--memory", str(bad_memory), "--max-bytes", max_bytes,
        "--out", str(out_path),
    ]) == 1
    _assert_cli_error(capsys, f"--max-bytes must be >= 1, got {max_bytes}")
    assert not out_path.exists()


def test_discover_reports_invalid_utf8_in_memory(tmp_path, env, capsys):
    memory_path = tmp_path / "memory.jsonl"
    save_transitions_jsonl(memory_path, build_full_coverage_memory(env), env.index)
    lines = memory_path.read_bytes().splitlines(keepends=True)
    lines[2] = lines[2].replace(b'"action"', b'"act\xffion"')
    memory_path.write_bytes(b"".join(lines))
    out_path = tmp_path / "subgoals.json"
    assert main(["discover", "--memory", str(memory_path), "--out", str(out_path)]) == 1
    _assert_cli_error(capsys, "error: cannot load memory:", "utf-8")
    assert not out_path.exists()


@pytest.mark.parametrize("theta", ["nan", "inf"])
def test_train_rejects_non_finite_theta_anom(tmp_path, capsys, theta):
    assert main(train_args(tmp_path, theta_anom=theta)) == 1
    _assert_cli_error(capsys, "theta_anom")
    assert not (tmp_path / "unified_hrl_seed3").exists()


@pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
def test_train_rejects_non_finite_table_init(tmp_path, capsys, value):
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(f"mode: flat_q\ntotal_steps: 600\ntable_init: {value}\n")
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    _assert_cli_error(capsys, "table_init")


def test_experiment_seed_must_be_integer(tmp_path, capsys):
    cfg_path = tmp_path / "exp.yaml"
    # An empty list would train nothing and still exit 0.
    for seeds, needle in (("[abc]", "abc"),
                          ("[]", "'random_walk' seeds must be a non-empty list")):
        cfg_path.write_text(
            "total_steps: 600\nwarmup_steps: 50\n"
            f"experiments:\n  - mode: random_walk\n    seeds: {seeds}\n"
        )
        out = tmp_path / "runs"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
        _assert_cli_error(capsys, needle)
        assert not out.exists()


def test_experiment_unknown_key_rejected(tmp_path, capsys):
    config = {
        "total_steps": 600,
        "warmup_steps": 50,
        "experiments": [{"mode": "random_walk", "seeds": [0], "k": 3}],
    }
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump(config))
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    _assert_cli_error(capsys, "'k'")
    assert not (tmp_path / "random_walk_seed0").exists()


@pytest.fixture(scope="module")
def trained_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("runs")
    for mode in ("unified_hrl", "flat_q"):
        assert main(train_args(root, mode=mode, seed=1)) == 0
    return root


@pytest.mark.parametrize("episodes", ["0", "-2"])
def test_eval_rejects_episode_counts_below_one(trained_runs, capsys, episodes):
    run_dir = trained_runs / "flat_q_seed1"
    assert main(["eval", "--run", str(run_dir), "--episodes", episodes]) == 1
    _assert_cli_error(capsys, f"--episodes must be >= 1, got {episodes}")


@pytest.mark.parametrize("flag", ["--grid-step", "--window"])
@pytest.mark.parametrize("value", ["0", "-100"])
def test_compare_rejects_grid_step_and_window_below_one(
    trained_runs, tmp_path, capsys, flag, value
):
    out_dir = tmp_path / "cmp"
    assert main([
        "compare", "--root", str(trained_runs), flag, value, "--out-dir", str(out_dir),
    ]) == 1
    _assert_cli_error(capsys, f"{flag} must be >= 1, got {value}")
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "name",
    ["config.yaml", "manifest.json", "metrics.csv", "controller_q.csv", "meta_q.csv",
     "subgoals.json"],
)
def test_a_file_that_is_not_utf8_is_refused_in_one_short_line(
    trained_runs, tmp_path, capsys, name
):
    root = tmp_path / "runs"
    shutil.copytree(trained_runs, root)
    run_dir = root / "unified_hrl_seed1"
    # A run manifest doubles as a config file.
    path = tmp_path / name if name == "config.yaml" else run_dir / name
    data = (run_dir / "manifest.json" if name == "config.yaml" else path).read_bytes()
    path.write_bytes(data[:5] + b"\xff" + data[5:])
    if name == "config.yaml":
        argv = ["train", "--config", str(path), "--out", str(tmp_path / "out")]
    elif name == "metrics.csv":
        argv = ["compare", "--root", str(root), "--out-dir", str(tmp_path / "cmp")]
    else:
        argv = ["eval", "--run", str(run_dir)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    # The decode error shows by its message, not by a repr holding the file.
    assert "can't decode byte 0xff in position 5" in err
    assert len(err) < 300, err
    # Every refusal names the file, eval's tables and subgoal set included.
    assert str(path) in err


@pytest.mark.parametrize("command", ["discover --memory", "eval --run"])
def test_negative_seed_rejected_before_any_file_is_read(tmp_path, capsys, command):
    # The named file does not exist: the seed check must come first.
    argv = command.split() + [str(tmp_path / "nope"), "--seed", "-1"]
    assert main(argv) == 1
    _assert_cli_error(capsys, "--seed must be >= 0, got -1")


@pytest.mark.parametrize("min_samples", ["-5", "0", "1"])
def test_discover_rejects_min_samples_below_two(tmp_path, env, capsys, min_samples):
    memory_path = tmp_path / "memory.jsonl"
    save_transitions_jsonl(memory_path, build_full_coverage_memory(env), env.index)
    out_path = tmp_path / "subgoals.json"
    assert main([
        "discover", "--memory", str(memory_path), "--min-samples", min_samples,
        "--out", str(out_path),
    ]) == 1
    _assert_cli_error(capsys, f"--min-samples must be >= 2, got {min_samples}")
    assert not out_path.exists()


def test_discover_out_under_a_regular_file_is_an_error(tmp_path, env, capsys):
    memory_path = tmp_path / "memory.jsonl"
    save_transitions_jsonl(memory_path, build_full_coverage_memory(env), env.index)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert main([
        "discover", "--memory", str(memory_path), "--out", str(blocker / "s.json"),
    ]) == 1
    _assert_cli_error(capsys, "cannot write", "s.json")


def test_compare_out_dir_under_a_regular_file_is_an_error(trained_runs, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert main([
        "compare", "--root", str(trained_runs), "--out-dir", str(blocker / "cmp"),
    ]) == 1
    _assert_cli_error(capsys, "cannot write", "cmp")
    assert blocker.read_text() == ""


def _corrupt_run(trained_runs, tmp_path, run_name, artifact, text):
    run_dir = tmp_path / run_name
    shutil.copytree(trained_runs / run_name, run_dir)
    (run_dir / artifact).write_text(text)
    return run_dir


@pytest.mark.parametrize(
    "run_name,artifact",
    [
        ("flat_q_seed1", "flat_q.csv"),
        ("unified_hrl_seed1", "controller_q.csv"),
        ("unified_hrl_seed1", "meta_q.csv"),
    ],
)
def test_eval_rejects_garbage_table(trained_runs, tmp_path, capsys, run_name, artifact):
    run_dir = _corrupt_run(trained_runs, tmp_path, run_name, artifact, "garbage\n")
    capsys.readouterr()
    assert main(["eval", "--run", str(run_dir)]) == 1
    _assert_cli_error(capsys, "header")


@pytest.mark.parametrize(
    "text",
    ["state,action,value\n", "state,action\n0,1\n", "state,action,value\n0,1\n"],
    ids=["no-rows", "no-value-column", "short-row"],
)
def test_eval_rejects_table_without_rows_or_values(trained_runs, tmp_path, capsys, text):
    run_dir = _corrupt_run(trained_runs, tmp_path, "flat_q_seed1", "flat_q.csv", text)
    capsys.readouterr()
    assert main(["eval", "--run", str(run_dir)]) == 1
    _assert_cli_error(capsys, "flat_q.csv")


def test_eval_rejects_truncated_subgoals(trained_runs, tmp_path, capsys):
    text = (trained_runs / "unified_hrl_seed1" / "subgoals.json").read_text()
    run_dir = _corrupt_run(
        trained_runs, tmp_path, "unified_hrl_seed1", "subgoals.json",
        text[: len(text) // 2],
    )
    capsys.readouterr()
    assert main(["eval", "--run", str(run_dir)]) == 1
    _assert_cli_error(capsys, "cannot load run artifacts")


def test_eval_rejects_table_narrower_than_subgoal_set(trained_runs, tmp_path, capsys):
    lines = (trained_runs / "unified_hrl_seed1" / "meta_q.csv").read_text().splitlines()
    kept = [lines[0]] + [ln for ln in lines[1:] if ln.split(",")[1] == "0"]
    run_dir = _corrupt_run(
        trained_runs, tmp_path, "unified_hrl_seed1", "meta_q.csv",
        "\n".join(kept) + "\n",
    )
    capsys.readouterr()
    assert main(["eval", "--run", str(run_dir)]) == 1
    size = json.loads((run_dir / "subgoals.json").read_text())["size"]
    _assert_cli_error(capsys, "meta_q.csv", f"208 states x {size} subgoals, got 208 rows")


def test_int_spelled_float_fields_write_the_same_run(tmp_path):
    # YAML reads `theta_anom: 3` as an int. Every float field is spelled
    # both ways, and both runs must write the same bytes, manifest included.
    ints = {"alpha": 1, "gamma": 1, "theta_anom": 3, "slip_prob": 0,
            "table_init": 1, "controller_eps_start": 1, "controller_eps_end": 0,
            "meta_eps_start": 1, "meta_eps_end": 0, "flat_eps": 0}
    assert set(ints) == {f.name for f in fields(RunConfig) if f.type == "float"}
    runs = {}
    floats = {name: float(value) for name, value in ints.items()}
    for spelling, values in (("int", ints), ("float", floats)):
        config = tmp_path / f"{spelling}.yaml"
        config.write_text(yaml.safe_dump({
            "mode": "unified_hrl", "seed": 1, "total_steps": 1500,
            "warmup_steps": 200, "discovery_period": 500, **values,
        }))
        out = tmp_path / spelling
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        runs[spelling] = {
            p.name: p.read_bytes() for p in (out / "unified_hrl_seed1").iterdir()
        }
    assert "subgoals.json" in runs["int"] and "controller_q.csv" in runs["int"]
    assert runs["int"] == runs["float"]


def test_experiments_reject_repeated_mode_and_seed(tmp_path, capsys):
    config = {
        "total_steps": 600,
        "warmup_steps": 50,
        "experiments": [
            {"mode": "random_walk", "seeds": [0, 1]},
            {"mode": "flat_q", "seeds": [1]},
            {"mode": "random_walk", "seeds": [1]},
        ],
    }
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump(config))
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    _assert_cli_error(capsys, "'random_walk'", "seed 1 twice")
    assert not (tmp_path / "random_walk_seed0").exists()


@pytest.mark.parametrize("mode", [["flat_q"], {"a": 1}], ids=["list", "mapping"])
def test_experiment_mode_must_be_a_mode_name(tmp_path, capsys, mode):
    config = {
        "total_steps": 600,
        "warmup_steps": 50,
        "experiments": [{"mode": mode, "seeds": [0]}],
    }
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump(config))
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    _assert_cli_error(capsys, "invalid configuration", "mode must be one of")


def _drop_action_rows(text, action_column):
    lines = text.splitlines()
    kept = [lines[0]] + [
        ln for ln in lines[1:] if ln.split(",")[action_column] != "3"
    ]
    return "\n".join(kept) + "\n"


@pytest.mark.parametrize(
    "run_name,artifact,action_column",
    [
        ("flat_q_seed1", "flat_q.csv", 1),
        ("unified_hrl_seed1", "controller_q.csv", 2),
    ],
)
def test_eval_rejects_table_without_an_action(
    trained_runs, tmp_path, capsys, run_name, artifact, action_column
):
    text = (trained_runs / run_name / artifact).read_text()
    run_dir = _corrupt_run(
        trained_runs, tmp_path, run_name, artifact,
        _drop_action_rows(text, action_column),
    )
    capsys.readouterr()
    assert main(["eval", "--run", str(run_dir)]) == 1
    _assert_cli_error(capsys, artifact, "one row per id combination", " x 4 actions")


def test_eval_rejects_table_missing_states(trained_runs, tmp_path, capsys):
    lines = (trained_runs / "flat_q_seed1" / "flat_q.csv").read_text().splitlines()
    run_dir = _corrupt_run(
        trained_runs, tmp_path, "flat_q_seed1", "flat_q.csv",
        "\n".join(lines[:5]) + "\n",
    )
    capsys.readouterr()
    assert main(["eval", "--run", str(run_dir)]) == 1
    _assert_cli_error(capsys, "flat_q.csv", "one row per id combination")


def _corrupt_compare(trained_runs, tmp_path, capsys, artifact, edit):
    run_dir = tmp_path / "runs" / "flat_q_seed1"
    shutil.copytree(trained_runs / "flat_q_seed1", run_dir)
    shutil.copytree(trained_runs / "unified_hrl_seed1", tmp_path / "runs" / "u")
    path = run_dir / artifact
    path.write_text(edit(path.read_text()))
    capsys.readouterr()
    return main([
        "compare", "--root", str(tmp_path / "runs"), "--grid-step", "300",
        "--out-dir", str(tmp_path / "cmp"),
    ])


def _drop_mode(text):
    manifest = json.loads(text)
    del manifest["mode"]
    return json.dumps(manifest)


def _list_mode(text):
    manifest = json.loads(text)
    manifest["mode"] = ["flat_q"]
    return json.dumps(manifest)


def _set_metrics_cell(row, column, value):
    """Edit that sets one cell of metrics.csv (row 1 is the first
    episode's); a value of None copies the cell from the row above."""
    def edit(text):
        lines = text.splitlines()
        cells = lines[row].split(",")
        cells[column] = lines[row - 1].split(",")[column] if value is None else value
        lines[row] = ",".join(cells)
        return "\n".join(lines) + "\n"
    return edit


@pytest.mark.parametrize(
    "artifact,edit,needle",
    [
        ("metrics.csv", lambda text: "garbage\n", "metrics CSV header"),
        ("metrics.csv", lambda text: text + "7,1500,0.0\n", "unpack"),
        ("manifest.json", lambda text: text[: len(text) // 2], "JSONDecodeError"),
        ("manifest.json", _drop_mode, "KeyError('mode')"),
        ("manifest.json", _list_mode, "is not one of"),
        ("metrics.csv", lambda text: text.splitlines()[0] + "\n", "no metrics rows"),
        ("metrics.csv", _set_metrics_cell(1, 3, "nan"),
         "line 2: coverage nan is outside [0, 1]"),
        ("metrics.csv", _set_metrics_cell(2, 3, "1.5"),
         "line 3: coverage 1.5 is outside [0, 1]"),
        ("metrics.csv", _set_metrics_cell(1, 2, "inf"), "line 2: return inf is not finite"),
        ("metrics.csv", _set_metrics_cell(2, 2, "-nan"), "line 3: return nan is not finite"),
        ("metrics.csv", _set_metrics_cell(1, 4, "-0.25"),
         "line 2: success rate -0.25 is outside [0, 1]"),
        ("metrics.csv", _set_metrics_cell(1, 5, "-1"), "line 2: num_subgoals -1 is negative"),
        ("metrics.csv", _set_metrics_cell(1, 1, "-5"),
         "line 2: steps -5 do not exceed the previous row's 0"),
        ("metrics.csv", _set_metrics_cell(1, 1, "0"), "line 2: steps 0 do not exceed"),
        ("metrics.csv", _set_metrics_cell(2, 1, None), "line 3: steps"),
        ("metrics.csv", _set_metrics_cell(-1, 1, "40000"),
         "steps 40000 exceed the run's total_steps 1500"),
    ],
    ids=["garbage-metrics", "short-metrics-row", "truncated-manifest",
         "manifest-without-mode", "manifest-with-unknown-mode",
         "header-only-metrics", "nan-coverage", "coverage-above-one",
         "inf-return", "nan-return", "negative-success-rate",
         "negative-subgoal-count", "negative-steps", "zero-steps",
         "repeated-steps", "steps-beyond-the-run"],
)
def test_compare_rejects_malformed_runs(
    trained_runs, tmp_path, capsys, artifact, edit, needle
):
    assert _corrupt_compare(trained_runs, tmp_path, capsys, artifact, edit) == 1
    _assert_cli_error(capsys, f"flat_q_seed1/{artifact}", needle)
    assert not (tmp_path / "cmp").exists()


@pytest.mark.parametrize(
    "argv,needle",
    [
        # The directory that holds the runs has no manifest of its own.
        (lambda root: ["--runs", str(root / "flat_q_seed1"), str(root)],
         "is not a completed run"),
        (lambda root: ["--root", str(root), "--grid-step", "1501"],
         "too short for the requested grid step"),
    ],
    ids=["run-without-manifest", "grid-step-beyond-the-runs"],
)
def test_compare_refuses_runs_it_cannot_align(trained_runs, tmp_path, capsys, argv, needle):
    out_dir = tmp_path / "cmp"
    assert main(["compare", *argv(trained_runs), "--out-dir", str(out_dir)]) == 1
    _assert_cli_error(capsys, needle)
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "runs,named",
    [
        (["flat_q_seed1", "flat_q_seed1"], "flat_q_seed1"),
        (["unified_hrl_seed1", "flat_q_seed1", "unified_hrl_seed1"],
         "unified_hrl_seed1"),
        (["flat_q_seed1", "./flat_q_seed1/"], "flat_q_seed1"),
        (["{root}/flat_q_seed1", "./flat_q_seed1/"], "flat_q_seed1"),
        (["flat_q_seed1", "{tmp}/link"], "link"),
    ],
    ids=["twice", "a-b-a", "trailing-slash", "absolute-and-relative", "symlink"],
)
def test_compare_refuses_a_run_listed_twice(
    trained_runs, tmp_path, capsys, monkeypatch, runs, named
):
    (tmp_path / "link").symlink_to(trained_runs / "flat_q_seed1")
    monkeypatch.chdir(trained_runs)
    out_dir = tmp_path / "cmp"
    runs = [r.format(root=trained_runs, tmp=tmp_path) for r in runs]
    argv = ["compare", "--runs", *runs, "--out-dir", str(out_dir)]
    assert main(argv) == 1
    _assert_cli_error(capsys, named, "listed more than once")
    assert not out_dir.exists()


def test_compare_takes_runs_or_root_not_both(trained_runs, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--runs", str(trained_runs / "flat_q_seed1"),
              str(trained_runs / "unified_hrl_seed1"), "--root", str(trained_runs),
              "--out-dir", str(tmp_path / "cmp")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "not allowed with argument" in err
    assert "Traceback" not in err
    assert not (tmp_path / "cmp").exists()


def _drop_subgoals(manifest):
    del manifest["artifacts"]["subgoals"]


@pytest.mark.parametrize(
    "edit,needle",
    [
        (lambda m: m["config"].update(episode_cap=2**70),
         f"episode_cap must be in [1, {MAX_EPISODE_CAP}]"),
        (_drop_subgoals, "run finished without a discovered subgoal set"),
    ],
    ids=["huge-episode-cap", "no-subgoal-set"],
)
def test_eval_rejects_malformed_manifests(trained_runs, tmp_path, capsys, edit, needle):
    manifest = json.loads((trained_runs / "unified_hrl_seed1" / "manifest.json").read_text())
    edit(manifest)
    run_dir = _corrupt_run(
        trained_runs, tmp_path, "unified_hrl_seed1", "manifest.json", json.dumps(manifest)
    )
    capsys.readouterr()
    assert main(["eval", "--run", str(run_dir)]) == 1
    _assert_cli_error(capsys, needle)


# Too large for a float: math.isfinite and float() raise OverflowError on it.
_HUGE_INT = int("9" * 400)
_GOOD_LINE = {
    "x": 9, "y": 2, "has_key": False, "action": "EAST", "reward": 10.0,
    "x_next": 10, "y_next": 2, "has_key_next": True, "terminal": False,
}


@pytest.mark.parametrize(
    "edit",
    [
        {"has_key": "false"},
        {"has_key_next": 0},
        {"terminal": "no"},
        {"x_next": 500, "y_next": -3},
        {"x": True},
        {"y": 2.0},
        {"reward": "1.0"},
        {"reward": float("nan")},
        {"reward": False},
        {"has_key": "false", "terminal": "no", "x_next": 500, "y_next": -3},
        {"reward": _HUGE_INT},
    ],
    ids=["string-flag", "integer-flag", "string-terminal", "negative-cell",
         "boolean-cell", "float-cell", "string-reward", "nan-reward",
         "boolean-reward", "all-at-once", "huge-int-reward"],
)
def test_discover_rejects_mistyped_memory_lines(tmp_path, capsys, edit):
    path = tmp_path / "memory.jsonl"
    lines = [_GOOD_LINE, {**_GOOD_LINE, **edit}] + [_GOOD_LINE] * 3
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    out = tmp_path / "subgoals.json"
    assert main(["discover", "--memory", str(path), "--k", "1",
                 "--out", str(out)]) == 1
    _assert_cli_error(capsys, "bad transition on line 2")
    assert not out.exists()


@pytest.mark.parametrize(
    "cell", [(500, 3), (0, 0), (6, 6)], ids=["off-grid", "border", "inner-wall"]
)
@pytest.mark.parametrize("where", ["x", "x_next"])
def test_discover_rejects_cells_that_are_not_playable(tmp_path, capsys, cell, where):
    path = tmp_path / "memory.jsonl"
    bad = {**_GOOD_LINE, where: cell[0], where.replace("x", "y"): cell[1]}
    lines = [_GOOD_LINE, _GOOD_LINE, bad, _GOOD_LINE]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    out = tmp_path / "subgoals.json"
    assert main(["discover", "--memory", str(path), "--k", "1",
                 "--out", str(out)]) == 1
    _assert_cli_error(capsys, "bad transition on line 3", "not indexable")
    assert not out.exists()


_SMALL_GRID = "#########\n#S......#\n#...K...#\n#B......#\n#########\n"


def test_discover_checks_cells_against_the_run_layout(tmp_path, capsys):
    # (6, 2) is wall in the default layout and floor in _SMALL_GRID; (10, 10)
    # is the other way round.
    cfg = tmp_path / "config.yaml"
    cfg.write_text(yaml.safe_dump({"mode": "random_walk", "seed": 0,
                                   "total_steps": 300, "warmup_steps": 10,
                                   "layout_text": _SMALL_GRID}))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    run_dir = tmp_path / "random_walk_seed0"
    memory = (run_dir / "memory.jsonl").read_text()
    n_lines = memory.count("\n")
    on_run_floor = {**_GOOD_LINE, "x": 5, "y": 2, "x_next": 6, "y_next": 2,
                    "has_key_next": False, "reward": 0.0}
    on_default_floor = {**on_run_floor, "x_next": 10, "y_next": 10}
    out = tmp_path / "subgoals.json"
    argv = ["discover", "--memory", str(run_dir / "memory.jsonl"), "--k", "2",
            "--out", str(out)]

    (run_dir / "memory.jsonl").write_text(memory + json.dumps(on_run_floor) + "\n")
    assert main(argv) == 0
    (run_dir / "memory.jsonl").write_text(memory + json.dumps(on_default_floor) + "\n")
    out.unlink()
    capsys.readouterr()
    assert main(argv) == 1
    _assert_cli_error(capsys, f"bad transition on line {n_lines + 1}", "x=10, y=10")
    assert not out.exists()

    # Without the manifest, the default layout applies.
    (run_dir / "manifest.json").unlink()
    for line, code in ((on_default_floor, 0), (on_run_floor, 1)):
        (run_dir / "memory.jsonl").write_text(
            json.dumps(_GOOD_LINE) + "\n" + json.dumps(line) + "\n"
        )
        assert main(argv) == code
    _assert_cli_error(capsys, "bad transition on line 2", "x=6, y=2")


def test_eval_parses_a_custom_layout_once(tmp_path, capsys):
    cfg = tmp_path / "config.yaml"
    cfg.write_text(yaml.safe_dump({"mode": "flat_q", "seed": 0,
                                   "total_steps": 300, "warmup_steps": 10,
                                   "layout_text": _SMALL_GRID}))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    RoomsLayout.from_text.cache_clear()
    assert main(["eval", "--run", str(tmp_path / "flat_q_seed0"), "--episodes", "3"]) == 0
    # validate, cmd_eval and each episode's rollout read the layout.
    assert RoomsLayout.from_text.cache_info()[:2] == (4, 1)  # (hits, misses)


@pytest.mark.parametrize("layout_text", [None, _SMALL_GRID], ids=["default", "run"])
def test_discover_bounds_k_by_the_layout_before_reading_memory(
    tmp_path, capsys, layout_text
):
    # The memory is not even JSON: the k bound is checked before it is read.
    path = tmp_path / "memory.jsonl"
    path.write_text("not a transition\n")
    if layout_text is not None:
        config = {**BASE_CONFIG, "layout_text": layout_text}
        artifacts = {"metrics": "metrics.csv", "memory": "memory.jsonl",
                     "flat_table": "flat_q.csv"}
        (tmp_path / "manifest.json").write_text(json.dumps(
            {"config": config, "mode": config["mode"], "artifacts": artifacts}
        ))
    playable = len(RunConfig(mode="flat_q", layout_text=layout_text).layout().playable)
    out = tmp_path / "subgoals.json"
    assert main(["discover", "--memory", str(path), "--k", str(playable + 1),
                 "--out", str(out)]) == 1
    _assert_cli_error(capsys, f"--k must be in [1, {playable}]")
    assert not out.exists()


def _open_layout(width, height):
    """An open rectangle inside a wall border, with S, K and B in corners."""
    rows = [["#"] * width] + [
        ["#"] + ["."] * (width - 2) + ["#"] for _ in range(height - 2)
    ] + [["#"] * width]
    rows[1][1], rows[1][-2], rows[-2][1] = "S", "K", "B"
    return "".join("".join(row) + "\n" for row in rows)


@pytest.mark.parametrize("width,height", [
    (MAX_LAYOUT_SIDE + 1, 13), (13, MAX_LAYOUT_SIDE + 1),
])
def test_train_refuses_a_layout_beyond_the_side_bound(
    tmp_path, capsys, monkeypatch, width, height
):
    def fail(config):
        raise AssertionError("training started")

    RunConfig(mode="flat_q", layout_text=_open_layout(MAX_LAYOUT_SIDE, 13)).validate()
    monkeypatch.setattr("subgoal_hrl.cli.run", fail)
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text(
        yaml.safe_dump({**BASE_CONFIG, "layout_text": _open_layout(width, height)})
    )
    out = tmp_path / "runs"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
    _assert_cli_error(capsys, f"each side must be at most {MAX_LAYOUT_SIDE}")
    assert not out.exists()


def test_discover_rejects_a_memory_line_that_is_not_an_object(tmp_path, capsys):
    path = tmp_path / "memory.jsonl"
    path.write_text(json.dumps(_GOOD_LINE) + "\n[1, 2]\n")
    assert main(["discover", "--memory", str(path), "--k", "1"]) == 1
    _assert_cli_error(capsys, "bad transition on line 2")


@pytest.mark.parametrize("reward,code", [(1e154, 0), (1e200, 1)])
def test_discover_refuses_rewards_whose_spread_overflows(
    tmp_path, capsys, reward, code
):
    # Past ~1.34e154 from the mean a squared deviation overflows, and every
    # z-score would come out 0: the outlier would be dropped without a word.
    assert main(["train", "--mode", "random_walk", "--steps", "3000",
                 "--warmup-steps", "100", "--out", str(tmp_path)]) == 0
    path = tmp_path / "random_walk_seed0" / "memory.jsonl"
    lines = path.read_text().splitlines()
    outlier = json.loads(lines[1000])
    lines[1000] = json.dumps({**outlier, "reward": reward})
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "s.json"
    capsys.readouterr()
    assert main(["discover", "--memory", str(path), "--out", str(out)]) == code
    if code:
        _assert_cli_error(capsys, "rewards spread too far")
        assert not out.exists()
    else:
        (anomaly,) = json.loads(out.read_text())["anomalies"]
        assert (anomaly["x"], anomaly["y"]) == (outlier["x_next"], outlier["y_next"])
        assert anomaly["score"] == pytest.approx(math.sqrt(2999))


def test_failed_retrain_leaves_no_manifest(tmp_path, capsys, monkeypatch):
    assert main(train_args(tmp_path, mode="flat_q", seed=0)) == 0
    run_dir = tmp_path / "flat_q_seed0"
    assert (run_dir / "manifest.json").exists()

    def fail(*args):
        raise OSError("disk full")

    monkeypatch.setattr("subgoal_hrl.cli.save_transitions_jsonl", fail)
    args = train_args(tmp_path, mode="flat_q", seed=0)
    args[args.index("--steps") + 1] = "3000"
    capsys.readouterr()
    assert main(args) == 1
    _assert_cli_error(capsys, "cannot write run artifacts", "disk full")
    assert not (run_dir / "manifest.json").exists()
    assert not (run_dir / "manifest.json.tmp").exists()
    assert main(["eval", "--run", str(run_dir)]) == 1
    _assert_cli_error(capsys, "no manifest.json")


def test_failed_manifest_write_leaves_no_manifest(tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise OSError("disk full")

    monkeypatch.setattr("subgoal_hrl.cli.os.replace", fail)
    assert main(train_args(tmp_path, mode="random_walk", seed=0)) == 1
    _assert_cli_error(capsys, "cannot write run artifacts", "disk full")
    run_dir = tmp_path / "random_walk_seed0"
    assert (run_dir / "metrics.csv").exists()
    assert not (run_dir / "manifest.json").exists()
    assert not (run_dir / "manifest.json.tmp").exists()


def test_compare_rejects_same_mode_runs_with_different_configs(tmp_path, capsys):
    assert main(train_args(tmp_path, mode="flat_q", seed=0)) == 0
    assert main(train_args(tmp_path, mode="flat_q", seed=1, alpha=0.5)) == 0
    assert main(train_args(tmp_path, mode="random_walk", seed=0)) == 0
    capsys.readouterr()
    assert main([
        "compare", "--root", str(tmp_path), "--grid-step", "300",
        "--out-dir", str(tmp_path / "cmp"),
    ]) == 1
    _assert_cli_error(
        capsys,
        str(tmp_path / "flat_q_seed0"), str(tmp_path / "flat_q_seed1"), "alpha",
    )
    assert not (tmp_path / "cmp").exists()


def test_manifest_with_use_dissimilarity_is_refused(tmp_path, capsys):
    assert main(train_args(tmp_path, mode="flat_q", seed=0)) == 0
    manifest_path = tmp_path / "flat_q_seed0" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["config"]["use_dissimilarity"] = False
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["eval", "--run", str(manifest_path.parent)]) == 1
    _assert_cli_error(capsys, "use_dissimilarity")
    assert main(["train", "--config", str(manifest_path),
                 "--out", str(tmp_path / "again")]) == 1
    _assert_cli_error(capsys, "use_dissimilarity")
    assert not (tmp_path / "again").exists()


def _copy_flat_runs(trained_runs, tmp_path, edit):
    """Two copies of the flat_q run under tmp_path/runs, each manifest
    passed through `edit`."""
    for name in ("a", "b"):
        run_dir = tmp_path / "runs" / name
        shutil.copytree(trained_runs / "flat_q_seed1", run_dir)
        path = run_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
    return tmp_path / "runs"


# The commands that read a run directory, each pointed at the runs that
# _copy_flat_runs writes under `root`; discover reads run a's manifest as
# its memory's sibling.
_READERS = {
    "compare": lambda root, out: ["compare", "--root", str(root), "--grid-step", "300",
                                  "--out-dir", str(out / "cmp")],
    "eval": lambda root, out: ["eval", "--run", str(root / "a")],
    "discover": lambda root, out: ["discover", "--memory", str(root / "a" / "memory.jsonl"),
                                   "--out", str(out / "subgoals.json")],
}


def _assert_each_reader_refuses(root, tmp_path, capsys, *needles):
    capsys.readouterr()
    for command, argv in _READERS.items():
        assert main(argv(root, tmp_path)) == 1, command
        _assert_cli_error(capsys, str(root / "a" / "manifest.json"), *needles)
    assert not (tmp_path / "cmp").exists()
    assert not (tmp_path / "subgoals.json").exists()


@pytest.mark.parametrize(
    "config,needle",
    [
        ({"x": 1}, "'x'"),
        ({"mode": "flat_q", "alpha": 7}, "alpha must be in (0, 1]"),
        ({"mode": "flat_q", "use_dissimilarity": False}, "use_dissimilarity"),
    ],
    ids=["unknown-key-only", "alpha-out-of-range", "use-dissimilarity"],
)
def test_compare_refuses_runs_whose_configs_are_invalid(
    trained_runs, tmp_path, capsys, config, needle
):
    # Both runs carry the same invalid config, so they would average.
    root = _copy_flat_runs(trained_runs, tmp_path, lambda m: m.update(config=config))
    _assert_each_reader_refuses(root, tmp_path, capsys,
                                "error: invalid configuration:", needle)


def test_compare_refuses_a_mode_its_config_does_not_hold(trained_runs, tmp_path, capsys):
    def edit(manifest):
        manifest["config"]["mode"] = "random_walk"

    root = _copy_flat_runs(trained_runs, tmp_path, edit)
    _assert_each_reader_refuses(
        root, tmp_path, capsys, "mode 'flat_q' differs from its config's mode 'random_walk'"
    )


@pytest.mark.parametrize("key", ["config", "mode", "artifacts"])
def test_every_reader_refuses_a_manifest_without_a_key(trained_runs, tmp_path, capsys, key):
    # discover blames the manifest, not the memory beside it.
    root = _copy_flat_runs(trained_runs, tmp_path, lambda m: m.pop(key))
    _assert_each_reader_refuses(root, tmp_path, capsys,
                                "cannot load run artifacts", f"KeyError('{key}')")


@pytest.mark.parametrize(
    "name", [lambda runs: str(runs / "flat_q_seed1" / "flat_q.csv"),
             lambda runs: "../flat_q_seed1/flat_q.csv",
             lambda runs: "",  # the run directory itself
             lambda runs: ".."],  # the run's parent directory
    ids=["absolute", "parent-dir", "empty", "dot-dot"],
)
def test_eval_refuses_artifact_names_outside_the_run(trained_runs, tmp_path, capsys, name):
    # Each name points at a valid table, which eval must still not open.
    flat_table = name(trained_runs)
    run_dir = tmp_path / "copy"
    shutil.copytree(trained_runs / "flat_q_seed1", run_dir)
    shutil.copytree(trained_runs / "flat_q_seed1", tmp_path / "flat_q_seed1")
    manifest = json.loads((run_dir / "manifest.json").read_text())
    manifest["artifacts"]["flat_table"] = flat_table
    (run_dir / "manifest.json").write_text(json.dumps(manifest))
    (run_dir / "flat_q.csv").unlink()
    capsys.readouterr()
    assert main(["eval", "--run", str(run_dir)]) == 1
    _assert_cli_error(capsys, "cannot load run artifacts", repr(flat_table),
                      "is not a plain file name")


@pytest.mark.parametrize("key", ["flat_table", "controller_table", "meta_table"])
def test_eval_names_the_manifest_when_it_lists_no_table(trained_runs, tmp_path, capsys, key):
    name = "flat_q_seed1" if key == "flat_table" else "unified_hrl_seed1"
    run_dir = tmp_path / name
    shutil.copytree(trained_runs / name, run_dir)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    del manifest["artifacts"][key]
    (run_dir / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["eval", "--run", str(run_dir)]) == 1
    _assert_cli_error(
        capsys, f"cannot load run artifacts from {run_dir / 'manifest.json'}: '{key}'"
    )


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_eval_rejects_non_finite_table_values(trained_runs, tmp_path, capsys, value):
    header, first, *rows = (
        (trained_runs / "unified_hrl_seed1" / "meta_q.csv").read_text().splitlines()
    )
    first = ",".join(first.split(",")[:-1] + [value])
    run_dir = _corrupt_run(
        trained_runs, tmp_path, "unified_hrl_seed1", "meta_q.csv",
        "\n".join([header, first] + rows) + "\n",
    )
    capsys.readouterr()
    assert main(["eval", "--run", str(run_dir)]) == 1
    _assert_cli_error(capsys, "meta_q.csv", "non-finite value")


def test_train_rejects_an_output_root_under_a_file(tmp_path, capsys, monkeypatch):
    (tmp_path / "afile").write_text("not a directory\n")

    def fail(config):
        raise AssertionError("training started")

    monkeypatch.setattr("subgoal_hrl.cli.run", fail)
    args = train_args(tmp_path, mode="random_walk", seed=0)
    args[args.index("--out") + 1] = str(tmp_path / "afile" / "runs")
    assert main(args) == 1
    _assert_cli_error(capsys, "cannot create run directory", "afile")


@pytest.mark.parametrize(
    "part,edit,needle",
    [
        ("anomalies", {"has_key": "false"}, "for has_key"),
        ("centroids", {"x": "2.5"}, "finite x and y"),
        ("centroids", {"x": _HUGE_INT}, "finite x and y"),
    ],
    ids=["string-has-key", "string-centroid-x", "huge-int-centroid-x"],
)
def test_eval_rejects_mistyped_subgoals(
    trained_runs, tmp_path, capsys, part, edit, needle
):
    path = trained_runs / "unified_hrl_seed1" / "subgoals.json"
    blob = json.loads(path.read_text())
    blob[part][0].update(edit)
    run_dir = _corrupt_run(
        trained_runs, tmp_path, "unified_hrl_seed1", "subgoals.json",
        json.dumps(blob),
    )
    capsys.readouterr()
    assert main(["eval", "--run", str(run_dir)]) == 1
    _assert_cli_error(capsys, "cannot load run artifacts", needle)


def _swap_centroid_ids(blob):
    first, second = blob["centroids"][:2]
    first["id"], second["id"] = second["id"], first["id"]


def _skip_an_id(blob):
    blob["centroids"][-1]["id"] += 1


def _reuse_a_centroid_id(blob):
    blob["anomalies"][0]["id"] = 0


@pytest.mark.parametrize(
    "edit", [_swap_centroid_ids, _skip_an_id, _reuse_a_centroid_id],
    ids=["swapped-centroid-ids", "skipped-id", "anomaly-reuses-centroid-id"],
)
def test_eval_rejects_subgoal_ids_off_their_positions(
    trained_runs, tmp_path, capsys, edit
):
    # A subgoal id is its position in the set, and the tables are indexed by it.
    path = trained_runs / "unified_hrl_seed1" / "subgoals.json"
    blob = json.loads(path.read_text())
    edit(blob)
    run_dir = _corrupt_run(
        trained_runs, tmp_path, "unified_hrl_seed1", "subgoals.json",
        json.dumps(blob),
    )
    capsys.readouterr()
    assert main(["eval", "--run", str(run_dir)]) == 1
    _assert_cli_error(capsys, "cannot load run artifacts", "need id ")


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("value", [1e308, -1e308, -0.5, 13.0])
def test_eval_rejects_centroids_off_the_grid(
    trained_runs, tmp_path, capsys, axis, value
):
    # The default layout is 13 cells wide and 13 high.
    path = trained_runs / "unified_hrl_seed1" / "subgoals.json"
    blob = json.loads(path.read_text())
    blob["centroids"][-1][axis] = value
    run_dir = _corrupt_run(
        trained_runs, tmp_path, "unified_hrl_seed1", "subgoals.json",
        json.dumps(blob),
    )
    capsys.readouterr()
    assert main(["eval", "--run", str(run_dir)]) == 1
    _assert_cli_error(capsys, "cannot load run artifacts", "on the 13x13 grid")


@pytest.mark.parametrize(
    "cell", [{"x": 10**6}, {"x": 0, "y": 0}, {"x": 6, "y": 0}],
    ids=["off-the-grid", "corner-wall", "top-wall"],
)
def test_eval_rejects_anomalies_off_the_playable_cells(
    trained_runs, tmp_path, capsys, cell
):
    path = trained_runs / "unified_hrl_seed1" / "subgoals.json"
    blob = json.loads(path.read_text())
    assert blob["anomalies"]  # the run found reward outliers
    blob["anomalies"][-1].update(cell)
    run_dir = _corrupt_run(
        trained_runs, tmp_path, "unified_hrl_seed1", "subgoals.json",
        json.dumps(blob),
    )
    capsys.readouterr()
    assert main(["eval", "--run", str(run_dir)]) == 1
    _assert_cli_error(capsys, "cannot load run artifacts", "naming a playable cell")


# A tiny valid flat_q run; each property example replaces one of its fields.
BASE_CONFIG = {"mode": "flat_q", "total_steps": 600, "warmup_steps": 50}
_PLAYABLE = len(RoomsLayout.default().playable)  # k's bound in BASE_CONFIG
_BELOW_ONE = st.integers(max_value=0)
_BEYOND_CAPACITY = _BELOW_ONE | st.integers(min_value=MAX_CAPACITY + 1)
_ABOVE_ONE = st.floats(min_value=1.0, exclude_min=True)
_OUTSIDE_UNIT = st.floats(max_value=0.0, exclude_max=True) | _ABOVE_ONE
_NOT_A_RATE = st.floats(max_value=0.0) | _ABOVE_ONE  # alpha, gamma: (0, 1]
_NOT_AN_EPS_START = st.floats(max_value=0.1, exclude_max=True) | _ABOVE_ONE  # end is 0.1
# Right-typed values that validation must refuse, given BASE_CONFIG.
OUT_OF_RANGE = {
    "mode": st.text(string.printable).filter(lambda m: m not in MODES),
    "seed": st.integers(max_value=-1),
    "total_steps": st.integers(max_value=BASE_CONFIG["warmup_steps"]),
    "k": _BELOW_ONE | st.integers(min_value=_PLAYABLE + 1),
    "theta_anom": st.floats(max_value=0.0),
    "warmup_steps": _BELOW_ONE | st.integers(min_value=BASE_CONFIG["total_steps"]),
    "discovery_period": _BELOW_ONE,
    "subgoal_timeout": _BELOW_ONE,
    "episode_cap": _BELOW_ONE | st.integers(min_value=MAX_EPISODE_CAP + 1),
    "slip_prob": st.floats(max_value=0.0, exclude_max=True) | st.floats(min_value=1.0),
    "memory_capacity": _BEYOND_CAPACITY,
    "controller_memory_capacity": _BEYOND_CAPACITY,
    "meta_memory_capacity": _BEYOND_CAPACITY,
    "alpha": _NOT_A_RATE,
    "gamma": _NOT_A_RATE,
    "batch_size": _BELOW_ONE | st.integers(min_value=MAX_BATCH_SIZE + 1),
    "table_init": st.nothing(),
    "controller_eps_start": _NOT_AN_EPS_START,
    "controller_eps_end": _OUTSIDE_UNIT,
    "success_window": _BEYOND_CAPACITY,
    "meta_eps_start": _NOT_AN_EPS_START,
    "meta_eps_end": _OUTSIDE_UNIT,
    "flat_eps": _OUTSIDE_UNIT,
    "discovery_min_samples": st.integers(max_value=1),
    # Never parses: no key marker.
    "layout_text": st.text("#.BS \n"),
}
# Values of the wrong type for each annotated field type.
_OTHER = st.none() | st.booleans() | st.text(string.printable) | st.lists(
    st.integers(), max_size=2
)
_NOT_TEXT = st.integers() | st.floats() | st.booleans() | st.lists(st.text(), max_size=2)
MISTYPED = {
    "int": _OTHER | st.floats(),
    "float": _OTHER | st.sampled_from([math.nan, math.inf, -math.inf, _HUGE_INT]),
    "str": _NOT_TEXT,
    "str | None": _NOT_TEXT,
}


def _bad_value(field):
    return st.tuples(st.just(field.name), OUT_OF_RANGE[field.name] | MISTYPED[field.type])


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(fields(RunConfig)).flatmap(_bad_value))
@example(case=("layout_text", 5))
@example(case=("seed", -1))
@example(case=("seed", "x"))
@example(case=("k", True))
@example(case=("batch_size", 2.5))
@example(case=("memory_capacity", 100.5))
@example(case=("total_steps", 600.5))
@example(case=("episode_cap", 1.5))
@example(case=("total_steps", 600.0))
@example(case=("alpha", _HUGE_INT))
def test_train_refuses_any_bad_config_value_before_any_step(case):
    # train reads the value from a config file; eval, discover and compare
    # read it from a run manifest, beside a memory that discover would accept
    # and a metrics row that compare would.
    name, value = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, out = Path(tmp) / "c.yaml", Path(tmp) / "runs"
        cfg_path.write_text(yaml.safe_dump({**BASE_CONFIG, name: value}))
        manifest = {"config": {**BASE_CONFIG, name: value}, "mode": "flat_q",
                    "artifacts": {"metrics": "metrics.csv", "memory": "memory.jsonl"}}
        run_dirs = [Path(tmp) / "run", Path(tmp) / "run2"]
        for run_dir in run_dirs:
            run_dir.mkdir()
            (run_dir / "manifest.json").write_text(json.dumps(manifest))
            (run_dir / "memory.jsonl").write_text((json.dumps(_GOOD_LINE) + "\n") * 2)
            (run_dir / "metrics.csv").write_text(
                metrics_to_csv([MetricsRecord(1, 50, 0.0, 0.5, 0.0, 0)])
            )
        run_dir = run_dirs[0]
        files = sorted(Path(tmp).rglob("*"))
        for argv in (
            ["train", "--config", str(cfg_path), "--out", str(out)],
            ["eval", "--run", str(run_dir)],
            ["discover", "--memory", str(run_dir / "memory.jsonl"), "--k", "1",
             "--out", str(run_dir / "subgoals.json")],
            ["compare", "--runs", *map(str, run_dirs), "--grid-step", "50",
             "--out-dir", str(Path(tmp) / "cmp")],
        ):
            err, stdout = io.StringIO(), io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(stdout):
                assert main(argv) == 1
            assert err.getvalue().startswith("error: invalid configuration:")
            assert "Traceback" not in err.getvalue()
            assert stdout.getvalue() == ""
            assert sorted(Path(tmp).rglob("*")) == files
        assert not out.exists()


@pytest.mark.parametrize("name,value", [
    ("batch_size", 2**70),
    ("batch_size", 10**9),  # a replay draw would ask numpy for 8 GB
    ("batch_size", MAX_BATCH_SIZE + 1),
    ("memory_capacity", 2**70),
    ("controller_memory_capacity", 2**70),
    ("meta_memory_capacity", MAX_CAPACITY + 1),
    ("success_window", 2**70),
    ("episode_cap", 2**70),
    ("episode_cap", MAX_EPISODE_CAP + 1),
    ("k", _PLAYABLE + 1),
])
def test_train_refuses_oversized_ints_before_training(
    tmp_path, capsys, monkeypatch, name, value
):
    def fail(config):
        raise AssertionError("training started")

    monkeypatch.setattr("subgoal_hrl.cli.run", fail)
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text(yaml.safe_dump({**BASE_CONFIG, name: value}))
    out = tmp_path / "runs"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
    _assert_cli_error(capsys, f"{name} must be in [1, ")
    assert not out.exists()


def _json_paths(value, path=()):
    """The key path of every value inside a parsed JSON document, depth first."""
    children = (
        value.items() if isinstance(value, dict)
        else enumerate(value) if isinstance(value, list) else ()
    )
    for key, child in children:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


# Replacements for one JSON value; a "delete" edit removes it instead.
_VALUE_EDITS = {
    "swap-null": lambda v: None,
    "swap-bool": lambda v: True,
    "swap-text": lambda v: "1",
    "swap-list": lambda v: [v],
    "swap-object": lambda v: {"x": v},
    "swap-int": lambda v: 1,
    "swap-float": lambda v: 2.5,
    "huge-int": lambda v: 2**70,
    "huge-float": lambda v: 1e308,
    "400-digit-int": lambda v: _HUGE_INT,
    "nan": lambda v: math.nan,
    "negative": lambda v: -v if type(v) in (int, float) and v else -1,
}
_EDITS = ["delete", *_VALUE_EDITS]


@pytest.fixture(scope="module")
def fuzzed_run(trained_runs, tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("fuzz") / "unified_hrl_seed1"
    shutil.copytree(trained_runs / "unified_hrl_seed1", run_dir)
    text = (run_dir / "subgoals.json").read_text()
    assert json.loads(text)["anomalies"]  # so edits reach anomaly entries too
    return run_dir, text


@st.composite
def _mutated(draw, text, suffix):
    """`text` with one value edited or deleted, cut short, or with one line
    repeated. A ".json" document is edited as JSON, a ".jsonl" file in one
    of its lines, and a ".csv" file cell by cell. Half of a manifest's
    value edits pick a `config` field first: spread over every path, a
    given field would get a given edit in about 1 of 4700 examples."""
    if draw(st.booleans()):
        if suffix == ".csv":
            rows = [line.split(",") for line in text.splitlines()]
            parent = draw(st.sampled_from(rows))
            key = draw(st.integers(0, len(parent) - 1))
        else:
            lines = text.splitlines() if suffix == ".jsonl" else [text]
            i = draw(st.integers(0, len(lines) - 1))
            blob = parent = json.loads(lines[i])
            if isinstance(blob.get("config"), dict) and draw(st.booleans()):
                path = ["config"]
                key = draw(st.sampled_from(sorted(blob["config"])))
            else:
                *path, key = draw(st.sampled_from(list(_json_paths(blob))))
            for step in path:
                parent = parent[step]
        edit = draw(st.sampled_from(_EDITS))
        if edit == "delete":
            del parent[key]
        elif suffix != ".csv":
            parent[key] = _VALUE_EDITS[edit](parent[key])
        else:
            try:
                value = _VALUE_EDITS[edit](json.loads(parent[key]))
            except ValueError:  # a header cell
                value = _VALUE_EDITS[edit](parent[key])
            parent[key] = value if type(value) is str else json.dumps(value)
        if suffix == ".csv":
            return "".join(",".join(row) + "\n" for row in rows)
        if suffix == ".jsonl":
            lines[i] = json.dumps(blob)
            return "".join(line + "\n" for line in lines)
        return json.dumps(blob, indent=2, sort_keys=True)
    if draw(st.booleans()):
        return text[: draw(st.integers(0, len(text) - 1))]
    lines = text.splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1))
    return "".join(lines[: i + 1] + lines[i:])


class _NoExit(Exception):
    """Raised by the alarm of `_assert_exits_cleanly`."""


def _raise_no_exit(signum, frame):
    raise _NoExit(f"no exit within {EXIT_SECONDS} s")


# A mutated file must not make a command run for ever, as an unbounded
# `episode_cap` makes `eval`; each command here takes milliseconds.
EXIT_SECONDS = 10


def _assert_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _raise_no_exit)
    signal.setitimer(signal.ITIMER_REAL, EXIT_SECONDS)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 0 or (code == 1 and err.getvalue().startswith("error:")), (
        code, err.getvalue()
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_eval_on_any_mutated_subgoals_exits_cleanly(fuzzed_run, data):
    run_dir, text = fuzzed_run
    (run_dir / "subgoals.json").write_text(data.draw(_mutated(text, ".json")))
    _assert_exits_cleanly(["eval", "--run", str(run_dir), "--episodes", "1"])


@pytest.fixture(scope="module")
def fuzzed_root(trained_runs, tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz-root")
    for name in ("unified_hrl_seed1", "flat_q_seed1"):
        shutil.copytree(trained_runs / name, root / name)
    return root


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(["controller_q.csv", "meta_q.csv", "metrics.csv",
                          "manifest.json"]),
    data=st.data(),
)
def test_eval_and_compare_on_any_mutated_run_file_exit_cleanly(fuzzed_root, name, data):
    # One file per example, so compare's step grid stays bounded by the
    # unmutated flat_q run.
    path = fuzzed_root / "unified_hrl_seed1" / name
    text = path.read_text()
    path.write_text(data.draw(_mutated(text, path.suffix)))
    try:
        if name != "metrics.csv":
            _assert_exits_cleanly(["eval", "--run", str(path.parent)])
        if name in ("metrics.csv", "manifest.json"):
            _assert_exits_cleanly([
                "compare", "--root", str(fuzzed_root),
                "--out-dir", str(fuzzed_root / "cmp"),
            ])
    finally:
        path.write_text(text)


# One example per (field, edit) pair, so every pair runs; Hypothesis stops
# once it has drawn them all.
@settings(max_examples=len(fields(RunConfig)) * len(_EDITS), deadline=None)
@given(field=st.sampled_from(RunConfig.field_names()), edit=st.sampled_from(_EDITS))
def test_eval_on_any_edited_manifest_config_field_exits_cleanly(fuzzed_root, field, edit):
    path = fuzzed_root / "unified_hrl_seed1" / "manifest.json"
    text = path.read_text()
    blob = json.loads(text)
    if edit == "delete":
        del blob["config"][field]
    else:
        blob["config"][field] = _VALUE_EDITS[edit](blob["config"][field])
    path.write_text(json.dumps(blob))
    try:
        _assert_exits_cleanly(["eval", "--run", str(path.parent)])
    finally:
        path.write_text(text)


class _TrainingStarted(Exception):
    """Raised by the stub of `cli.run`: the config passed every check."""


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(["manifest.json", "memory.jsonl"]), data=st.data())
def test_train_and_discover_on_any_mutated_run_file_exit_cleanly(fuzzed_root, name, data):
    path = fuzzed_root / "unified_hrl_seed1" / name
    text = path.read_text()
    path.write_text(data.draw(_mutated(text, path.suffix)))
    try:
        with tempfile.TemporaryDirectory() as tmp:
            if name == "memory.jsonl":
                _assert_exits_cleanly([
                    "discover", "--memory", str(path), "--out", str(Path(tmp) / "s.json"),
                ])
            else:
                # A valid config, say total_steps 2**70, would train for ever:
                # stop where training would start.
                with mock.patch("subgoal_hrl.cli.run", side_effect=_TrainingStarted), \
                        contextlib.suppress(_TrainingStarted):
                    _assert_exits_cleanly(["train", "--config", str(path), "--out", tmp])
                assert not list(Path(tmp).rglob("manifest.json"))
    finally:
        path.write_text(text)
