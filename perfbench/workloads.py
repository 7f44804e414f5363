"""The benchmark's four workloads, as lists of CLI tasks.

A task is one group or one field through one `heightzero` subcommand path.
Every workload is built from the packaged default corpus, so the inputs are
fixed; the seed only fixes the order in which the tasks run.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS = SRC / "heightzero" / "data" / "default_corpus.txt"

WORKLOADS = ("sweep_p2", "sweep_p7", "ingest_roundtrip", "realize_cross_check")

# corpus groups without a metacyclic presentation: `table` takes the Dixon route
NON_METACYCLIC = ("dihedral", "semidihedral", "quaternion", "sym", "alt", "sl2")


class Task(NamedTuple):
    """One CLI call. `out` names the JSON file it writes in the work
    directory; `file`, when set, names the table JSON it ingests."""

    id: str
    argv: tuple
    out: str = "out.json"
    file: str | None = None


def corpus():
    lines = CORPUS.read_text().splitlines()
    return [ln.strip() for ln in lines if ln.strip() and not ln.strip().startswith("#")]


def _sweep(p):
    return [
        [Task(f"verify-a:{p}:{spec}", ("verify-a", "--p", str(p), "--group", spec))]
        for spec in corpus()
    ]


def _ingest_chain(spec):
    table = spec.replace(":", "_") + ".json"
    checks = [("a", "2"), ("sigma", "2"), ("blocks", "3")]
    return [Task(f"table:{spec}", ("table", "--group", spec), out=table)] + [
        Task(f"ingest-{check}:{p}:{spec}", ("ingest", "--p", p, "--check", check), file=table)
        for check, p in checks
    ]


def _realize():
    units = []
    for spec in corpus():
        if spec.startswith("meta:"):
            _, n, gens = spec.split(":")
            field = f"fix:{n}:{gens}"
            argv = ("realize", "--field", field, "--p", "2", "--cross-check")
            units.append([Task(f"realize:2:{field}", argv)])
    return units


def units(workload):
    """The workload's tasks in corpus order, grouped into units: a unit's
    tasks run back to back in the order given (a table before its ingests)."""
    if workload == "sweep_p2":
        return _sweep(2)
    if workload == "sweep_p7":
        return _sweep(7)
    if workload == "ingest_roundtrip":
        return [_ingest_chain(s) for s in corpus() if s.split(":")[0] in NON_METACYCLIC]
    if workload == "realize_cross_check":
        return _realize()
    raise ValueError(f"unknown workload {workload!r}")


def tasks(workload, seed, limit=None):
    """Task list of one pass: the first `limit` units (all when None) in an
    order fixed by `seed`. Within an ingest unit the table comes first and the
    seed orders the three checks."""
    rng = random.Random(seed)
    chosen = units(workload)[:limit]
    rng.shuffle(chosen)
    out = []
    for unit in chosen:
        head, rest = unit[:1], unit[1:]
        rng.shuffle(rest)
        out.extend(head + rest)
    return out
