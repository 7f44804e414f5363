"""heightzero benchmark: four CLI-path workloads, gated by output digests.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without --workload it runs all four workloads (see workloads.py and
BENCHMARK.json for what each one stresses). Every task's output JSON is
checked against the sha256 recorded in digests.json; a mismatch, an
unexpected exit code or an exception fails the task, prints an `error:` line
and makes the command exit 1. Odd-p findings (exit 2) are recorded as such
and are not failures.

With --trace 0 a run measures passes of the workload, each in a fresh
interpreter, for about --seconds (always at least one round of COPIES passes
run at once), plus SETUP_ROUNDS rounds of interpreter starts, and reports:

  wall_s       median over passes of the summed task time of one pass
  tasks_per_s  tasks of one pass / wall_s
  task_p50_ms  median task time (each task's median over passes)
  task_p90_ms  90th percentile of the same task times
  setup_s      median time from process spawn to ready: interpreter start,
               imports and building the task list
  peak_rss_mb  median peak RSS of a pass

With --trace 1 it runs one untraced and one traced pass at once and reports
the per-layer metrics of tracing.py, the traced wall time and the tracing
overhead (traced minus untraced wall).

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. --record runs one pass of every workload and rewrites digests.json;
use it only when an output is meant to change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import ROOT, SRC, WORKLOADS  # noqa: E402

DIGESTS = HERE / "digests.json"
# every pass runs as COPIES identical workers at once, one per core: twice the
# samples in the same wall time
COPIES = 2
SETUP_ROUNDS = 5
# a run must end within 180 s; a pass that would need longer is killed
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark itself could not run (not a failed task)."""


def spawn(workload, seed, *variants):
    """Start one worker per entry of `variants` (a list of extra flags each),
    all at once, and return their reports in the same order."""
    procs = []
    try:
        for flags in variants:
            cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed)]
            cmd += [repr(time.perf_counter()), *flags]
            procs.append(subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True))
        deadline = time.monotonic() + WORKER_TIMEOUT_S
        reports = []
        for proc in procs:
            try:
                out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0))
            except subprocess.TimeoutExpired:
                raise BenchError(f"{workload} pass exceeded {WORKER_TIMEOUT_S} s") from None
            if proc.returncode != 0 or not out.strip():
                raise BenchError(f"{workload} worker exited with code {proc.returncode}")
            reports.append(json.loads(out.strip().splitlines()[-1]))
        return reports
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def combined_digest(records):
    """Order-independent digest of a task set: sha256 of its sorted
    `id exit digest` lines."""
    lines = sorted(f"{r['id']} {r['exit']} {r['digest']}\n" for r in records)
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def check(workload, records, expected):
    """Failure messages for the tasks of one pass."""
    errors = []
    for r in records:
        want = expected.get(r["id"])
        if r["exit"] is None:
            errors.append(f"{r['id']}: raised {r['error']}")
        elif want is None:
            errors.append(f"{r['id']}: no recorded digest")
        elif [r["exit"], r["digest"]] != want:
            errors.append(
                f"{r['id']}: exit {r['exit']} digest {r['digest']}, "
                f"recorded exit {want[0]} digest {want[1]}"
            )
    return [f"{workload} {e}" for e in errors]


def task_times(passes):
    """Each task's median time over the passes, in ms."""
    by_id = {}
    for records in passes:
        for r in records:
            by_id.setdefault(r["id"], []).append(r["s"] * 1e3)
    return [statistics.median(v) for v in by_id.values()]


def pass_wall(records):
    return sum(r["s"] for r in records)


def measure(workload, seed, seconds, limit):
    """End-to-end metrics: passes for about `seconds`, plus setup probes."""
    flags = ["--limit", str(limit)] if limit else []
    setups = [
        report["setup_s"]
        for _ in range(SETUP_ROUNDS)
        for report in spawn(workload, seed, *[["--setup-only", *flags]] * COPIES)
    ]
    passes, rss = [], []
    start = time.monotonic()
    rounds = 0
    while True:
        for report in spawn(workload, seed, *[flags] * COPIES):
            setups.append(report["setup_s"])
            passes.append(report["tasks"])
            rss.append(report["peak_rss_mb"])
        rounds += 1
        elapsed = time.monotonic() - start
        if elapsed + elapsed / rounds > seconds:
            break
    wall = statistics.median(pass_wall(p) for p in passes)
    times = task_times(passes)
    metrics = {
        "wall_s": (wall, "s"),
        "tasks_per_s": (len(passes[0]) / wall, "1/s"),
        "task_p50_ms": (statistics.median(times), "ms"),
        "task_p90_ms": (statistics.quantiles(times, n=10)[8] if len(times) > 1 else times[0], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    raw = statistics.median(sum(r["raw_s"] for r in p) for p in passes)
    info = (
        f"{len(passes)} pass(es) of {len(passes[0])} tasks, {len(setups)} setups, "
        f"raw wall {raw:.3f} s"
    )
    return passes, metrics, info


def trace(workload, seed, limit):
    """Per-layer metrics: an untraced and a traced pass, run at once."""
    flags = ["--limit", str(limit)] if limit else []
    plain, traced = spawn(workload, seed, flags, ["--trace", *flags])
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    traced_wall = pass_wall(traced["tasks"])
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - pass_wall(plain["tasks"]), "s")
    info = f"1 untraced and 1 traced pass of {len(traced['tasks'])} tasks"
    return [plain["tasks"], traced["tasks"]], metrics, info


def record():
    digests = {}
    for workload in WORKLOADS:
        (report,) = spawn(workload, 0, [])
        bad = [r["id"] for r in report["tasks"] if r["exit"] is None]
        if bad:
            raise BenchError(f"{workload}: tasks raised, nothing recorded: {bad}")
        digests[workload] = {
            "combined": combined_digest(report["tasks"]),
            "tasks": {r["id"]: [r["exit"], r["digest"]] for r in report["tasks"]},
        }
        print(f"{workload}: {len(report['tasks'])} tasks, {digests[workload]['combined']}")
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def run(workloads, seed, seconds, traced, limit):
    if not DIGESTS.exists():
        raise BenchError(f"no recorded digests at {DIGESTS}")
    recorded = json.loads(DIGESTS.read_text())
    attempted = failed = 0
    correct = True
    metrics = {}
    for workload in workloads:
        if traced:
            passes, values, info = trace(workload, seed, limit)
        else:
            passes, values, info = measure(workload, seed, seconds, limit)
        expected = recorded[workload]
        errors = [e for records in passes for e in check(workload, records, expected["tasks"])]
        attempted += sum(len(p) for p in passes)
        failed += len(errors)
        digest = combined_digest(passes[0])
        if limit is None and digest != expected["combined"]:
            errors.append(f"{workload} combined digest {digest} != {expected['combined']}")
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        correct = correct and not errors
        print(f"{workload}: {info}, seed {seed}, digest {digest}")
        prefix = f"{workload}." if len(workloads) > 1 else ""
        for name, (value, unit) in values.items():
            print(f"  {name} = {value:.6g} {unit}")
            metrics[prefix + name] = {"value": value, "unit": unit}
    print(f"error_rate = {failed / attempted:.4g} ({failed} of {attempted} tasks failed)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=int, default=None,
                    help="run only the first N groups or fields of each workload")
    ap.add_argument("--record", action="store_true", help="rewrite digests.json")
    args = ap.parse_args(argv)
    try:
        if not (SRC / "heightzero").is_dir():
            raise BenchError(f"no heightzero sources under {SRC}")
        if args.record:
            record()
            return 0
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        return run(workloads, args.seed, args.seconds, args.trace == 1, args.limit)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
