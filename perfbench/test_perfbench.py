"""The benchmark's own test: a smallest-size run of every workload reports
every metric of BENCHMARK.json with its unit, and the correctness gate
aborts on a wrong expected verdict.

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def smallest_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smallest"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        run.PER_LAYER_UNITS


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smallest_run_reports_every_metric(workload, trace, key):
    result = smallest_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    for metric in SPEC[key]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float | int)
    assert len(result["metrics"]) == len(SPEC[key])
    if trace == 0:
        for metric in SPEC["end_to_end"]:
            assert result["metrics"][metric["name"]]["value"] > 0


def _wrong(check):
    """The same check expecting the opposite definite verdict."""
    (outcome,) = check.expected
    other = workloads.NEQ if outcome == workloads.EQ else workloads.EQ
    return dataclasses.replace(check, expected=frozenset([other]))


@pytest.mark.parametrize("flavor", ["fc", "cn", "il"])
def test_gate_fires_on_wrong_expected_verdict(flavor):
    nb, work, _, _ = run.setup("refute", 1, True, run.SpeedMeter())
    fig1 = next(i for i in work.instances if i.iid == "fig1")
    checks = tuple(_wrong(c) if c.flavor == flavor else c for c in fig1.checks)
    work.instances[work.instances.index(fig1)] = dataclasses.replace(
        fig1, checks=checks)
    with pytest.raises(run.GateError, match=f"fig1/{flavor}: verdict"):
        run.Runner(nb, work, run.SpeedMeter()).run_pass()


def test_gate_fires_on_triple_count_above_baseline():
    nb, work, _, _ = run.setup("witness", 1, True, run.SpeedMeter())
    buf2 = next(i for i in work.instances if i.iid == "buf2")
    checks = tuple(dataclasses.replace(c, triples=c.triples - 1)
                   if c.triples else c for c in buf2.checks)
    work.instances[work.instances.index(buf2)] = dataclasses.replace(
        buf2, checks=checks)
    with pytest.raises(run.GateError, match="triples"):
        run.Runner(nb, work, run.SpeedMeter()).run_pass()


def test_gate_fires_on_the_command_line(monkeypatch):
    """A failed gate makes the command exit 1 without a result line."""
    monkeypatch.setitem(workloads.FC_TRIPLES, "buf2", 19)
    assert run.main(["--workload", "witness", "--seed", "1", "--seconds", "1",
                     "--smallest"]) == 1


def test_deadline_interrupts_a_hanging_call():
    def spin():
        while True:
            pass

    run.Runner(None, None, None)  # installs the alarm handler
    result, secs, err = run.timed_call(0.2, spin)
    assert result is None and err.startswith("overran") and secs < 5
