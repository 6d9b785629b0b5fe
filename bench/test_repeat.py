"""The benchmark's own test: two traced runs on one seed report identical
counts and identical output digests.

    python3 -m pytest -q bench/test_repeat.py

Each workload is run twice with ``--trace 1 --seconds 0`` (one untraced and
one traced pass).  Every ``*.calls``, ``*.max_*`` and count ``*_ratio``
metric must repeat exactly; ``trace.overhead_ratio`` is a ratio of times and
is the one ratio left out.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
WORKLOADS = ("count-small", "count-large", "structure", "cli")


def traced_run(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    digests = (HERE / "out" / f"digests-{workload}-{SEED}.json").read_text()
    return result, digests


def exact(name):
    return (name.endswith(".calls") or "max_" in name
            or (name.endswith("_ratio") and name != "trace.overhead_ratio"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, first_digests = traced_run(workload)
    second, second_digests = traced_run(workload)
    counts = {k: v["value"] for k, v in first["metrics"].items() if exact(k)}
    assert counts, "no exact metrics reported"
    assert counts == {k: v["value"] for k, v in second["metrics"].items()
                      if exact(k)}
    assert first_digests == second_digests
    assert (first["attempted"], first["failed"]) == \
        (second["attempted"], second["failed"])
