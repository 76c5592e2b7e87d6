"""Mutation gauge: how many hand-written faults the fast suite catches.

Run by hand from the repository root (pytest does not collect this file):

    python tests/mutants.py [--commit REV] [--out MUTANTS.json]
                            [--baseline OLD.json]

The commit is exported with `git archive` into a scratch directory. The
unmutated export must pass the selection first. Then each mutant below is
applied to the export on its own, the selection is run, and the file is
restored. A mutant is a list of edits; each edit replaces an exact string
that must occur once in its file at the time it is applied. A mutant whose
string is missing or repeated is "not applicable": the code it mutates is
gone or has changed. The selection stops at its first failure, and
Hypothesis runs with a fixed seed and no example database, so the outcome
does not depend on the order of the mutants or on earlier runs.

An equivalent mutant (no input tells it apart from the program) is run and
reported, with the argument for its equivalence, but not counted. With
`--baseline`, a mutant killed there that survives here is a regression; the
script lists each one and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SELECTION = [
    "-m", "pytest", "-x", "-q", "-m", "not slow", "-p", "no:cacheprovider",
    "-rfE", "--hypothesis-seed=0", "tests",
]
TIMEOUT_S = 600

T, D, M, C, A = (
    "src/subgoal_hrl/trainer.py", "src/subgoal_hrl/discovery.py",
    "src/subgoal_hrl/memory.py", "src/subgoal_hrl/cli.py",
    "src/subgoal_hrl/rooms_env.py",
)
ORACLE, TRIAL = "whole-run oracle mutant", "trial mutant"

# (id, origin, file, [(old, new), ...], argument of equivalence or None)
MUTANTS: list[tuple[str, str, str, list[tuple[str, str]], str | None]] = [
    # The training loop, killed by the whole-run oracle when it landed.
    ("controller-push-after-update", ORACLE, T, [(
        "            self.ctrl_memory.push(\n"
        "                ControllerTransition(\n"
        "                    s_prev,\n"
        "                    goal_id,\n"
        "                    action,\n"
        "                    INTRINSIC_REWARD if attained else 0.0,\n"
        "                    self.sid,\n"
        "                    attained or terminal,\n"
        "                )\n"
        "            )\n"
        "            update_controller(\n"
        "                self.controller,\n"
        "                self.ctrl_memory.sample(cfg.batch_size, self.rng),\n"
        "                cfg.alpha,\n"
        "                cfg.gamma,\n"
        "            )\n",
        "            if self.ctrl_memory:\n"
        "                update_controller(\n"
        "                    self.controller,\n"
        "                    self.ctrl_memory.sample(cfg.batch_size, self.rng),\n"
        "                    cfg.alpha,\n"
        "                    cfg.gamma,\n"
        "                )\n"
        "            self.ctrl_memory.push(\n"
        "                ControllerTransition(\n"
        "                    s_prev,\n"
        "                    goal_id,\n"
        "                    action,\n"
        "                    INTRINSIC_REWARD if attained else 0.0,\n"
        "                    self.sid,\n"
        "                    attained or terminal,\n"
        "                )\n"
        "            )\n",
    )], None),
    ("attempt-times-out-late", ORACLE, T, [(
        "len(rewards) >= cfg.subgoal_timeout", "len(rewards) > cfg.subgoal_timeout",
    )], None),
    ("meta-epsilon-over-whole-run", ORACLE, T, [(
        "horizon = max(1, self.cfg.total_steps // 2)",
        "horizon = max(1, self.cfg.total_steps)",
    )], None),
    ("visits-per-state-id", ORACLE, T, [
        ("bytearray(len(self.index.cells))", "bytearray(self.index.size)"),
        ("self._visits[self.sid >> 1] = 1", "self._visits[self.sid] = 1"),
        ("self._visits[sid >> 1] = 1", "self._visits[sid] = 1"),
        (" visits[sid >> 1] = 1", " visits[sid] = 1"),
    ], None),
    ("episode-start-one-step-late", ORACLE, T, [
        ("self.ep_start = self.steps\n", "self.ep_start = self.steps + 1\n"),
        ("sid, ep_start, ep_return = self.sid, steps, 0.0",
         "sid, ep_start, ep_return = self.sid, steps + 1, 0.0"),
    ], None),
    # Outside the training loop, first tried on scratch copies.
    ("metrics-accept-repeated-step", TRIAL, T, [(
        "if record.steps <= last_steps:", "if record.steps < last_steps:",
    )], None),
    ("compare-takes-next-row-on-tie", TRIAL, C, [(
        "steps[j + 1] <= t:", "steps[j + 1] < t:",
    )], None),
    # The same fault in `_sample_at`'s stdlib search.
    ("compare-takes-next-row-on-tie-bisect", TRIAL, C, [(
        "bisect_right(steps, t)", "bisect_left(steps, t)",
    )], None),
    ("anomaly-scores-without-abs", TRIAL, D, [(
        "return np.abs(rewards - mean) / (std + _EPS)",
        "return (rewards - mean) / (std + _EPS)",
    )], None),
    ("discover-keeps-last-score", TRIAL, D, [(
        "flagged[state] = max(flagged.get(state, 0.0), score)",
        "flagged[state] = score",
    )], None),
    ("merge-keeps-old-theta-anom", TRIAL, D, [(
        "theta_anom=new.theta_anom,", "theta_anom=old.theta_anom,",
    )], None),
    ("ring-index-accepts-len", TRIAL, M, [(
        "if not 0 <= i < len(self._items):", "if not 0 <= i <= len(self._items):",
    )], None),
    ("read-run-allows-dot-dot", TRIAL, C, [(
        'name in ("", ".", "..")', 'name in ("", ".")',
    )], None),
    # discovery.py, one or more per public function.
    ("subgoal-set-allows-equal-centroids", "discovery.SubgoalSet", D, [(
        "if len(set(self.centroids)) != len(self.centroids):",
        "if len(set(self.centroids)) > len(self.centroids):",
    )], None),
    ("subgoal-lookup-off-by-one", "discovery.SubgoalSet.subgoal", D, [(
        "if 0 <= goal_id < self.k:", "if 0 <= goal_id <= self.k:",
    )], None),
    ("is-anomaly-skips-first", "discovery.SubgoalSet.is_anomaly", D, [(
        "return self.k <= goal_id < self.size", "return self.k < goal_id < self.size",
    )], None),
    ("nearest-centroid-ties-to-last", "discovery.SubgoalSet.nearest_centroid_id", D, [(
        "if d < best_d:", "if d <= best_d:",
    )], None),
    ("json-anomaly-ids-from-zero", "discovery.SubgoalSet.to_json_dict", D, [(
        "enumerate(self.anomalies, start=self.k)", "enumerate(self.anomalies)",
    )], None),
    ("json-score-bound-unsquared", "discovery.SubgoalSet.from_json_dict", D, [(
        "a.score * a.score <= source", "a.score <= source",
    )], None),
    ("kmeans-keeps-first-restart", "discovery.kmeans_fit", D, [(
        "return min(results, key=lambda r: r.distortion)", "return results[0]",
    )], None),
    ("discover-ignores-min-samples", "discovery.discover", D, [(
        "max(k, min_samples, 2)", "max(k, 2)",
    )], None),
    ("merge-matching-not-one-to-one", "discovery.merge", D, [(
        "if i not in matched and j not in taken:", "if i not in matched:",
    )], None),
    # memory.py, one per public function.
    ("finite-number-accepts-bool", "memory.is_finite_number", M, [(
        "(type(v) is float or type(v) is int)", "isinstance(v, (float, int))",
    )], None),
    ("return-discount-not-compounded", "memory.accumulate_return", M, [(
        "factor *= gamma", "factor = gamma",
    )], None),
    ("memory-accepts-capacity-zero", "memory.BoundedMemory", M, [(
        "if not 1 <= capacity <= MAX_CAPACITY:", "if not 0 <= capacity <= MAX_CAPACITY:",
    )], None),
    ("ring-grows-past-capacity", "memory.BoundedMemory.push", M, [(
        "if len(self._items) < self.capacity:", "if len(self._items) <= self.capacity:",
    )], None),
    ("ring-iterates-from-slot-zero", "memory.BoundedMemory.snapshot", M, [(
        "return iter(self._items[head:] + self._items[:head])",
        "return iter(self._items[:head] + self._items[head:])",
    )], None),
    ("sample-never-draws-newest", "memory.BoundedMemory.sample", M, [(
        "u *= size", "u *= size - 1",
    )], None),
    ("sample-offsets-unwrapped-ring", "memory.BoundedMemory.sample", M, [(
        "        if head := self._head:\n            idx += head - size\n",
        "        idx += self._head - size\n",
    )], "While the ring has not wrapped, head is 0 and every drawn index i is "
        "in [0, size), where list index i - size reads the same item as i; "
        "the draws are the same rng.random(n). So every sample is the same "
        "list; only the cost of one numpy operation differs."),
    ("jsonl-writes-state-key-flag", "memory.transition_to_dict", M, [(
        '"has_key_next": s_next.has_key,', '"has_key_next": s.has_key,',
    )], None),
    ("jsonl-accepts-any-reward", "memory.transition_from_dict", M, [(
        "and is_finite_number(r)\n", "and r is not None\n",
    )], None),
    ("jsonl-save-drops-lines-before-failure", "memory.save_transitions_jsonl", M, [(
        "ids[: ids.index(key)]", "ids[:0]",
    )], None),
    ("jsonl-load-counts-lines-from-zero", "memory.load_transitions_jsonl", M, [(
        "enumerate(fh, 1)", "enumerate(fh)",
    )], None),
    # cli.py's readers.
    ("config-reader-ignores-manifest", "cli._load_config_file", C, [(
        'return loaded["config"]', "return loaded",
    )], None),
    ("read-run-allows-directory-part", "cli.read_run", C, [(
        "os.path.basename(name) != name", "os.path.isabs(name)",
    )], None),
    ("compare-accepts-one-run", "cli._load_run_dirs", C, [(
        "if len(runs) < 2:", "if len(runs) < 1:",
    )], None),
    ("compare-bounds-first-row", "cli.cmd_compare", C, [(
        "if records[-1].steps > config.total_steps:",
        "if records[0].steps > config.total_steps:",
    )], None),
    ("eval-reads-random-walk-tables", "cli.cmd_eval", C, [(
        'if config.mode == "random_walk":', 'if config.mode == "random-walk":',
    )], None),
    ("discover-reads-past-max-bytes", "cli.cmd_discover", C, [(
        "if path.stat().st_size > args.max_bytes:",
        "if path.stat().st_size > 2 * args.max_bytes:",
    )], None),
    # Code that single-use helpers held before they were inlined.
    ("layout-cell-bound-inclusive", "rooms_env.RoomsLayout", A, [(
        "0 <= cell[1] < self.height", "0 <= cell[1] <= self.height",
    )], None),
    ("random-meta-picks-centroids-only", "trainer.Runner._run_hrl", T, [(
        "int(self.rng.integers(self.subgoals.size))",
        "int(self.rng.integers(self.subgoals.k))",
    )], None),
    ("out-root-ignores-environment", "cli.cmd_train", C, [(
        "os.environ.get(OUT_ROOT_ENV, DEFAULT_OUT_ROOT)", "DEFAULT_OUT_ROOT",
    )], None),
]


def _apply(text: str, edits: list[tuple[str, str]]) -> str | None:
    """`text` with every edit applied in order; None if an old string does
    not occur exactly once."""
    for old, new in edits:
        if text.count(old) != 1:
            return None
        text = text.replace(old, new)
    return text


def _run_selection(work: Path) -> tuple[bool, str | None, float]:
    """(passed, first failing test, wall seconds) of the selection in `work`."""
    shutil.rmtree(work / ".hypothesis", ignore_errors=True)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # no stale bytecode between mutants
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, *SELECTION], cwd=work, env=env,
            capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return False, f"timeout after {TIMEOUT_S} s", time.perf_counter() - t0
    wall = time.perf_counter() - t0
    if proc.returncode == 0:
        return True, None, wall
    found = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    return False, found.group(1) if found else f"pytest exit {proc.returncode}", wall


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", default="HEAD")
    parser.add_argument("--out", default="MUTANTS.json")
    parser.add_argument("--baseline", help="an earlier MUTANTS.json to compare with")
    args = parser.parse_args(argv)
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{args.commit}^{{commit}}"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        work = Path(tmp)
        archive = subprocess.run(["git", "archive", commit], capture_output=True,
                                 check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(work)], input=archive, check=True)
        passed, failure, control_wall = _run_selection(work)
        if not passed:
            print(f"the unmutated export fails: {failure}", file=sys.stderr)
            return 2
        print(f"unmutated: passed in {control_wall:.1f} s", flush=True)
        results = []
        for mutant_id, origin, file, edits, equivalent in MUTANTS:
            path = work / file
            original = path.read_text()
            mutated = _apply(original, edits)
            record = {"id": mutant_id, "origin": origin, "file": file}
            if mutated is None:
                record.update(status="not applicable", first_failure=None, wall_s=0.0)
            else:
                path.write_text(mutated)
                try:
                    passed, failure, wall = _run_selection(work)
                finally:
                    path.write_text(original)
                record.update(status="survived" if passed else "killed",
                              first_failure=failure, wall_s=round(wall, 1))
            if equivalent:
                record.update(outcome=record["status"], status="equivalent",
                              argument=equivalent)
            results.append(record)
            print(f"{record['status']:>14}  {mutant_id}  {record['first_failure'] or ''}",
                  flush=True)
    counts = {s: sum(r["status"] == s for r in results)
              for s in ("killed", "survived", "not applicable", "equivalent")}
    report = {
        "commit": commit,
        "selection": "python " + " ".join(SELECTION),
        "unmutated_wall_s": round(control_wall, 1),
        "counts": counts,
        "mutants": results,
    }
    regressions = []
    if args.baseline:
        baseline = json.loads(Path(args.baseline).read_text())
        before = {r["id"]: r["status"] for r in baseline["mutants"]}
        regressions = [r["id"] for r in results
                       if before.get(r["id"]) == "killed" and r["status"] == "survived"]
        report["baseline"] = {"commit": baseline["commit"],
                              "killed_there_surviving_here": regressions}
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(counts), f"-> {args.out}")
    if regressions:
        print(f"killed at the baseline, surviving here: {regressions}", file=sys.stderr)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
