"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED SPAWNED [--limit N] [--trace] [--setup-only]

Each pass runs in its own process so the per-process caches of heightzero
(`blocks._cached_gf`, `chartab._unit_dlog`, ...) start cold, as they do for
every CLI call. Tasks go through `heightzero.cli.main` with `--out FILE`; the
digest of a task is the sha256 of the JSON it wrote, re-serialized with
sorted keys. SPAWNED is the parent's `time.perf_counter()` just before it
started this process (the same system-wide monotonic clock on Linux), so set-up
time covers interpreter start, imports and building the task list.

The last line of stdout is a JSON object: set-up time, per-task times, exit
codes and digests, peak RSS and, with --trace, the per-layer metrics. Times
are reference seconds (see speed.py); `raw_s` keeps the raw task times.
"""

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from speed import SpeedProbe  # noqa: E402
from workloads import ROOT, SRC, tasks  # noqa: E402

OUT = ROOT / "perfbench" / "out"


def digest(path):
    with open(path) as fh:
        obj = json.load(fh)
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_task(cli, task, work):
    argv = list(task.argv) + ["--out", str(work / task.out)]
    if task.file is not None:
        argv += ["--file", str(work / task.file)]
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # a failed task must not stop the pass
        return {"id": task.id, "t": (t0, time.perf_counter()), "exit": None,
                "digest": None, "error": f"{type(exc).__name__}: {exc}"}
    result = {"id": task.id, "t": (t0, time.perf_counter()), "exit": code, "digest": None}
    out = work / task.out
    if out.exists():
        result["digest"] = digest(out)
        if task.out == "out.json":
            out.unlink()
    return result


def main(argv=None):
    probe = SpeedProbe()
    probe.start()
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("spawned", type=float)
    ap.add_argument("--limit", type=int, default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    from heightzero import cli

    todo = tasks(args.workload, args.seed, args.limit)
    ready = time.perf_counter()
    tracer = None
    results = []
    if not args.setup_only:
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as tmp:
            for i, task in enumerate(todo):
                if tracer is not None:
                    tracer.task = i
                results.append(run_task(cli, task, Path(tmp)))
    probe.stop()

    for r in results:
        t0, t1 = r.pop("t")
        r["s"] = probe.seconds(t0, t1)
        r["raw_s"] = t1 - t0
    report = {
        "setup_s": probe.seconds(args.spawned, ready),
        "tasks": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        report["layers"] = tracer.metrics(probe.seconds)
        tracer.write(OUT / f"spans-{args.workload}.tsv.gz")
    print(json.dumps(report))


if __name__ == "__main__":
    main()
