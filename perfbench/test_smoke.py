"""Smoke test of the benchmark itself, at the reduced "smoke" size.

    python3 -m pytest -q perfbench/test_smoke.py

Proves three things: every metric named in BENCHMARK.json is emitted
for every workload, a tampered reference fails every solve, and a
traced run reports the same counts as an untraced one.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, *extra):
    """Run the benchmark at smoke size; return (exit code, record, result)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    assert len(lines) >= 2, proc.stderr
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs():
    return {(w, t): bench(w, t) for w in WORKLOADS for t in (0, 1)}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(runs, workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, _, result = runs[workload, trace]
        assert code == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        for m in SPEC[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert all(v["value"] > 0 for v in runs[workload, 0][2]["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_equal_untraced(runs, workload):
    _, plain, _ = runs[workload, 0]
    _, traced, result = runs[workload, 1]
    assert traced["meters"] == plain["meters"]
    layer = {k: v["value"] for k, v in result["metrics"].items()}
    meters = plain["meters"]
    assert layer["oracles.rounds"] == meters["rounds"]
    assert layer["oracles.rows_charged"] == meters["f_queries"]
    assert layer["multilinear.F_queries"] == meters["F_queries"]
    iterations = layer["continuous.iterations"] + layer["discrete.iterations"]
    assert iterations == meters["iterations"]


def test_tampered_reference_fails_every_solve():
    refs = json.loads((HERE / "references.json").read_text())
    for row in refs["smoke"]["cont-exact"]:
        row[0] += 1                     # one more round than pinned
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    tampered = out / "tampered-references.json"
    tampered.write_text(json.dumps(refs))
    code, record, result = bench("cont-exact", 0, "--references", str(tampered))
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert record["failures"]["reference rounds"] == result["attempted"]
