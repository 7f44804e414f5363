"""Quick test of the benchmark: a small slice of every workload.

    python3 -m pytest perfbench -q

Checks that the slice's digests match the recorded ones, that every metric
named in BENCHMARK.json is printed with its unit, that two seeds give the same
digest set in different orders, and that a digest mismatch fails the command.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import ROOT, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LIMIT = "3"


def bench(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--limit", LIMIT, "--seconds", "0", *args],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600,
    )
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_slice_is_correct_and_reports_every_metric(trace, section):
    proc, result = bench("--trace", trace, "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for workload in WORKLOADS:
        for metric in SPEC[section]:
            got = result["metrics"][f"{workload}.{metric['name']}"]
            assert got["unit"] == metric["unit"]
            assert isinstance(got["value"], (int, float))


def test_two_seeds_give_the_same_digest_set():
    reports = [run.spawn("ingest_roundtrip", seed, ["--limit", LIMIT])[0] for seed in (1, 2)]
    orders = [[r["id"] for r in rep["tasks"]] for rep in reports]
    assert orders[0] != orders[1]
    assert sorted(orders[0]) == sorted(orders[1])
    assert run.combined_digest(reports[0]["tasks"]) == run.combined_digest(reports[1]["tasks"])


def test_digest_mismatch_fails_the_command(tmp_path, monkeypatch, capsys):
    recorded = json.loads(run.DIGESTS.read_text())
    first = run.spawn("sweep_p2", 0, ["--limit", "1"])[0]["tasks"][0]["id"]
    exit_code, digest = recorded["sweep_p2"]["tasks"][first]
    recorded["sweep_p2"]["tasks"][first] = [exit_code, "0" * len(digest)]
    tampered = tmp_path / "digests.json"
    tampered.write_text(json.dumps(recorded))
    monkeypatch.setattr(run, "DIGESTS", tampered)
    assert run.main(["--workload", "sweep_p2", "--limit", "1", "--seconds", "0"]) == 1
    out, err = capsys.readouterr()
    assert f"error: sweep_p2 {first}" in err
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False
