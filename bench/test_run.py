"""Tests for the benchmark's output check and its agreement with BENCHMARK.json."""

from __future__ import annotations

import json
from pathlib import Path

import run


def _child(report, exit_code: int = 0) -> run.Child:
    output = b"" if report is None else json.dumps(report).encode()
    return run.Child(wall_s=1.0, rss_mb=10.0, exit_code=exit_code,
                     output=output, timed_out=False)


def _report(workload: run.Workload, passed: bool = True) -> dict:
    certs = [{"name": name, "passed": True, "notes": []}
             for name in workload.certificates]
    certs[-1]["passed"] = passed
    return {"certificates": certs, "passed": passed}


def test_output_check_accepts_a_passing_report_and_rejects_the_rest():
    workload = run.WORKLOADS["span-d4"]
    good = _child(_report(workload))
    assert run.check_report(workload, good, None)[0] is None
    assert run.check_report(workload, good, good.output)[0] is None
    assert run.check_report(workload, good, b"other")[0] is not None
    assert run.check_report(workload, _child(_report(workload), 1), None)[0]
    assert run.check_report(workload, _child(_report(workload, False)), None)[0]
    assert run.check_report(workload, _child(None), None)[0]
    assert run.check_report(workload, _child([1]), None)[0]
    wrong = _report(run.WORKLOADS["switch-d3"])
    assert run.check_report(workload, _child(wrong), None)[0]
    timed_out = _child(_report(workload))
    timed_out.timed_out = True
    assert run.check_report(workload, timed_out, None)[0]


def test_report_counts_parse_probe_notes():
    report = {"certificates": [
        {"name": "probe_switch_d2",
         "notes": ["starts=3", "iterations=[72, 71, 70]", "distances=[1e-7]"]},
        {"name": "probe_cp_family_d2",
         "notes": ["iterations=[5000, 243]",
                   "witness_distance=0.2486 polish_iterations=168000"]},
        {"name": "switch_uniqueness_d2", "notes": ["iterations=[9]"]},
    ]}
    assert run.report_counts(report) == {
        "probe.iterations.switch": 213,
        "probe.iterations.cp_family": 5243,
        "probe.polish_iterations": 168000,
    }


def test_benchmark_json_matches_the_runner():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.per_layer_metric_units()
