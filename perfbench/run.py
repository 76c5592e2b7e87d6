"""Benchmark of subgoal_hrl: training throughput and CLI latency, measured
from outside the package.

    python3 perfbench/run.py --workload unified_hrl --seed 0 --seconds 40 --trace 0

Run from anywhere; the repository root is the parent of this directory.
Each repetition of the workload runs in a fresh process (``rep.py``), one at
a time, with numpy/BLAS pinned to one thread, until the next one would
overrun ``--seconds``. Set-up time is also probed in extra fresh processes
that stop once set-up is done. ``--trace 0`` reports the end-to-end metrics
of ``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics. ``--workload all`` runs the
three workloads in turn.

Human-readable tables go to standard output first: every metric with its
unit, median, quartiles and sample count, the trace per boundary, and the
machine. The last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (medians). The full record, raw samples
included, goes to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("unified_hrl", "flat_q", "cli_pipeline")
SETUP_PROBES = 7
# Training seeds a run draws from its workload seed. Repetitions cycle
# through them, so a run's medians do not hang on one seed's particular work
# (its subgoal count, K-means iterations, rollout lengths), and repetitions
# of one training seed still repeat identical work.
SEEDS_PER_RUN = 8
RUN_LIMIT_S = 170  # a run must end within 180 s, whatever --seconds says
# This box's speed switches between regimes some 1.6x apart over minutes
# (shared host cores), and a 40 s run lands in one of them. Each repetition
# therefore also times fixed reference loops around every timed step
# (rep.reference_s) and reports, per metric, its slowdown: reference time
# over rep.REF_NOMINAL_S. Reported timings are divided by it, rates
# multiplied; the raw figures are printed beside them and kept in the record.
UNSCALED = {"peak_rss_mb"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def git_sha() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def machine_info() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "subgoal_hrl").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


def spawn(workload: str, seed: int, trace: bool, work: Path, env: dict,
          limit: float, setup_only: bool = False) -> tuple[dict | None, str]:
    """Run one fresh process; return its result (None on failure) and stderr."""
    work.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)), "--work", str(work)]
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.monotonic()
    cmd += ["--spawned-at", repr(spawned_at)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, limit - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        return None, f"timed out after {exc.timeout:.0f} s"
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        return None, proc.stderr[-2000:]
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr
    except (ValueError, IndexError):
        return None, "no result line\n" + proc.stderr[-2000:]


def scale(raw: float, slowdown: float, better: str) -> float:
    """A timing (or a rate, when higher is better) at the nominal speed."""
    return raw / slowdown if better == "lower" else raw * slowdown


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 spec: dict) -> dict:
    """Measure one workload; return its record (samples, summaries, counts)."""
    env = child_env()
    start = time.monotonic()
    deadline = start + seconds
    limit = start + RUN_LIMIT_S
    attempted = failed = 0
    failures: list[str] = []

    def fail(what: str) -> None:
        nonlocal failed
        failed += 1
        failures.append(what)
        print(f"perfbench: {workload}: {what}", file=sys.stderr)

    train_seeds = [seed * SEEDS_PER_RUN + j for j in range(SEEDS_PER_RUN)]
    setup: list[tuple[float, float]] = []  # (setup_s, slowdown) per process
    if not trace:
        for i in range(SETUP_PROBES):
            attempted += 1
            res, err = spawn(workload, train_seeds[i % SEEDS_PER_RUN], False,
                             WORK / f"probe{i}", env, limit, True)
            if res is None:
                fail(f"set-up probe {i} failed: {err}")
            else:
                setup.append((res["setup_s"], res["slowdown"]["setup_s"]))

    reps: list[dict] = []
    first_digest: dict[int, str] = {}
    longest = 0.0
    min_reps = 2 if trace else 1
    i = 0
    while True:
        # Traced runs pair an untraced and a traced repetition per seed.
        traced = trace and i % 2 == 1
        train_seed = train_seeds[(i // 2 if trace else i) % SEEDS_PER_RUN]
        t0 = time.monotonic()
        attempted += 1
        res, err = spawn(workload, train_seed, traced, WORK / f"rep{i}", env, limit)
        longest = max(longest, time.monotonic() - t0)
        i += 1
        if res is None:
            fail(f"repetition {i} failed: {err}")
        else:
            res["traced"] = traced
            for name, ok in res["checks"]:
                attempted += 1
                if not ok:
                    fail(f"repetition {i}: check failed: {name}")
            if train_seed not in first_digest:
                first_digest[train_seed] = res["metrics_sha256"]
            else:
                attempted += 1
                if res["metrics_sha256"] != first_digest[train_seed]:
                    fail(f"repetition {i}: metrics.csv differs from an earlier "
                         f"repetition with training seed {train_seed}")
            reps.append(res)
        now = time.monotonic()
        if now + longest > limit or (i >= min_reps and now + longest > deadline):
            break

    untraced = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    if not untraced or (trace and not traced_reps):
        raise SystemExit(f"perfbench: {workload}: no successful repetition")
    setup += [(r["setup_s"], r["slowdown"]["setup_s"]) for r in untraced]
    raw: dict[str, list[float]] = {
        "slowdown": [r["slowdown"]["train_cmd_s"] for r in untraced]}
    samples: dict[str, list[float]] = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        pairs = setup if name == "setup_s" else [
            (r[name], r["slowdown"].get(name, 1.0)) for r in untraced]
        raw[name] = [v for v, _ in pairs]
        samples[name] = raw[name] if name in UNSCALED else [
            scale(v, f, m["better"]) for v, f in pairs]
    layers: dict[str, list[float]] = {}
    if trace:
        for name in traced_reps[0]["layers"]:
            layers[name] = [r["layers"][name] for r in traced_reps]
        traced_rate = [scale(r["env_steps_per_s"], r["slowdown"]["env_steps_per_s"], "higher")
                       for r in traced_reps]
        layers["trace.overhead_ratio"] = [
            statistics.median(samples["env_steps_per_s"]) / statistics.median(traced_rate)]
        layers["timed_s"] = [r["timed_s"] for r in traced_reps]
    return {
        "workload": workload,
        "seed": seed,
        "training_seeds": train_seeds,
        "seconds": seconds,
        "trace": trace,
        "repetitions": len(reps),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "end_to_end": {k: summarize(v) for k, v in samples.items()},
        "raw": {k: summarize(v) for k, v in raw.items()},
        "layers": {k: summarize(v) for k, v in layers.items()},
        "edges": traced_reps[-1]["edges"] if trace else [],
        "samples": samples,
        "raw_samples": raw,
        "layer_samples": layers,
    }


def print_report(record: dict, spec: dict, machine: dict) -> None:
    print(f"== perfbench {record['workload']}  seed={record['seed']}  "
          f"trace={int(record['trace'])}  repetitions={record['repetitions']}")
    print("   machine: " + "  ".join(f"{k}={v}" for k, v in machine.items()))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    rows = list(record["end_to_end"].items())
    layers = record["layers"]
    boundaries = sorted({k[: -len(".share")] for k in layers if k.endswith(".share")})
    rows += [(k, s) for k, s in sorted(layers.items())
             if k.rsplit(".", 1)[0] not in boundaries]
    print("   timings scaled to the nominal machine speed; median slowdown during train: "
          f"{record['raw']['slowdown']['median']:.3f}")
    print(f"   {'metric':<30} {'unit':<8} {'median':>13} {'q1':>13} {'q3':>13} {'n':>3} "
          f"{'raw median':>13}")
    for name, s in rows:
        raw = record["raw"].get(name) if name in record["end_to_end"] else None
        print(f"   {name:<30} {units.get(name, 's'):<8} {s['median']:>13.6g} "
              f"{s['q1']:>13.6g} {s['q3']:>13.6g} {s['n']:>3} "
              + (f"{raw['median']:>13.6g}" if raw else ""))
    rate = record["failed"] / record["attempted"]
    print(f"   {'error_rate':<30} {'ratio':<8} {rate:>13.6g}   "
          f"({record['failed']} failed / {record['attempted']} attempted)")
    if boundaries:
        print(f"   per boundary (medians of {layers['timed_s']['n']} traced repetitions; "
              f"share = self time / {layers['timed_s']['median']:.3f} s waited on):")
        print(f"   {'boundary':<30} {'calls':>10} {'total_s':>10} {'self_s':>10} {'share':>7}")
        for b in boundaries:
            calls, total, self_s, share = (
                layers[f"{b}.{k}"]["median"] for k in ("calls", "total_s", "self_s", "share"))
            print(f"   {b:<30} {calls:>10.0f} {total:>10.4f} {self_s:>10.4f} {share:>7.1%}")
        print("   calls made inside another boundary (last traced repetition):")
        for parent, child, calls, total in record["edges"]:
            print(f"   {parent or '-':<30} -> {child:<30} {calls:>8} {total:>10.4f} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that subprocess.run kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "subgoal_hrl" / "__init__.py").is_file():
        print(f"perfbench: no subgoal_hrl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    machine = machine_info()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    section = "layers" if args.trace else "end_to_end"
    attempted = failed = 0
    metrics = {}
    for w in workloads:
        record = run_workload(w, args.seed, args.seconds, bool(args.trace), spec)
        record["machine"] = machine
        print_report(record, spec, machine)
        results = WORK / "results"
        results.mkdir(parents=True, exist_ok=True)
        name = f"{w}-seed{args.seed}-trace{args.trace}.json"
        (results / name).write_text(json.dumps(record, indent=1))
        attempted += record["attempted"]
        failed += record["failed"]
        prefix = "" if len(workloads) == 1 else f"{w}/"
        for m in wanted:
            metrics[prefix + m["name"]] = {
                "value": record[section][m["name"]]["median"], "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
