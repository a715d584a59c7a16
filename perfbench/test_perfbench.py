"""Smoke test of the benchmark harness at tiny sizes.

Checks that every metric named in BENCHMARK.json is emitted with its unit,
for every workload and both trace settings, and that a failing invocation
is counted in `failed` and `fail_rate` instead of aborting the run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import harness

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in named
    }


def test_failing_invocations_count_toward_fail_rate(tmp_path):
    cli = harness.import_stagwave()
    good = harness.invocations("lowdim-sweep", seed=7, tiny=True)[-1]
    usage_error = harness.Invocation(("maxwell", "--materials", "no-such-material"))
    crash = harness.Invocation(("maxwell", "--grid", "1", "--steps", "1"))
    result = harness.mode_trace(cli, [good, usage_error, crash], 7, tmp_path,
                                seconds=0.0, kernel_seconds=0.0)
    assert result["correct"] is False
    assert result["failed"] > 0 and 3 * result["failed"] == 2 * result["attempted"]
    assert result["metrics"]["fail_rate"]["value"] == pytest.approx(2 / 3)
