#!/usr/bin/env python3
"""switchcert benchmark: real CLI invocations, each in a fresh child process.

Usage (from the repository root):

    python3 bench/run.py --workload switch-d3 --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20

One run of a workload first times ``import switchcert.cli`` in fresh
interpreters (``setup_s``), then runs the workload's CLI command again and
again, one child at a time (a closed loop with one client), until
``--seconds`` have passed; every child gets at least one run.  The seed is
passed to the CLI as ``--seed``.  Every child must exit 0 with a report that
passes, lists exactly the workload's certificates, and is byte-identical to
the other children's reports; a child that fails any of this counts all its
certificates as failed and is left out of the timing medians.

With ``--trace 0`` the children run ``python -m switchcert.cli`` and the
last line of standard output is a JSON object with the end-to-end metrics.
With ``--trace 1`` they run ``bench/traced_cli.py``, which wraps the public
functions of every switchcert module, and the metrics are the per-layer ones.
``--workload all`` runs every workload untraced and then traced, prints each
metric, and writes the tracing overhead per workload.  Results, spans and the
machine facts are written under ``bench/out/``.  BLAS runs on one thread in
every child.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

BLAS_THREADS = "1"
SETUP_REPEATS = 6  # timed imports before the workload and again after it
RUN_LIMIT_S = 170.0  # every run must end well within 180 s
CHILD_ENV = {
    "PYTHONPATH": str(SRC),
    "OPENBLAS_NUM_THREADS": BLAS_THREADS,
    "OMP_NUM_THREADS": BLAS_THREADS,
    "MKL_NUM_THREADS": BLAS_THREADS,
}


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]
    certificates: tuple[str, ...]


# Why each workload exists, and what is left out on purpose, is recorded in
# BENCHMARK.json and bench/README.md.
WORKLOADS = {w.name: w for w in (
    Workload("switch-d3", ("switch-verify", "--dim", "3"),
             ("switch_unitary_action_d3", "span_lemmas_d3", "switch_diagonal_d3",
              "switch_offdiagonal_d3", "switch_uniqueness_d3")),
    Workload("span-d4", ("span-verify", "--dim", "4"),
             ("span_lemmas_d4", "span_dimension_d4", "group_combinatorics_d4")),
    Workload("probe-d2", ("probe", "--dim", "2"),
             ("probe_identity_d2", "probe_switch_d2", "probe_cp_family_d2")),
)}

PROBE_KINDS = ("identity", "switch", "cp_family")
TRACED_FUNCTIONS = (
    "switch.apply_two_slot", "switch.build_switch_choi",
    "span.phase_average", "span.unitary_span_basis",
    "span.membership_residual", "span.estimate_span_dimension",
    "probe.psd_project", "probe.affine_project",
    "probe.build_constraint_system", "probe.constraint_residual",
    "probe.alternating_projection_probe",
    "uniqueness.diagonal_certificate", "uniqueness.offdiagonal_certificate",
    "channels.haar_random_unitary", "channels.unitary_choi", "cli.render_json",
)
SPLIT_BY_KIND = ("probe.psd_project", "probe.affine_project")


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for fn in TRACED_FUNCTIONS:
        names = [fn] + ([f"{fn}.{k}" for k in PROBE_KINDS]
                        if fn in SPLIT_BY_KIND else [])
        for name in names:
            units[f"{name}.calls"] = "count"
            units[f"{name}.s"] = "s"
            units[f"{name}.self_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    for kind in PROBE_KINDS:
        units[f"probe.iterations.{kind}"] = "count"
    units["probe.polish_iterations"] = "count"
    units["switch.build_switch_choi.bytes_computed"] = "B"
    units["probe.build_constraint_system.in_projector_bytes_computed"] = "B"
    units["trace.wall_s"] = "s"
    units["trace.spans"] = "count"
    return units


END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "certs_passed_frac": "frac"}


# --- children -------------------------------------------------------------------


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    exit_code: int
    output: bytes
    timed_out: bool


def run_child(cmd, stdout_path: Path | None, timeout: float) -> Child:
    """Spawn ``cmd`` and time it from spawn to exit; rusage comes from wait4."""
    env = dict(os.environ, **CHILD_ENV)
    killed = threading.Event()
    with open(stdout_path or os.devnull, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fh, stdin=subprocess.DEVNULL,
                                env=env, cwd=ROOT)

        def kill():
            killed.set()
            os.kill(proc.pid, signal.SIGKILL)

        watchdog = threading.Timer(max(timeout, 0.1), kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    output = stdout_path.read_bytes() if stdout_path else b""
    return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode, output,
                 killed.is_set())


def measure_setup(deadline: float, warm_up: bool) -> list[float]:
    """Seconds for a fresh interpreter to import switchcert.cli.

    The warm-up import is untimed; it writes the bytecode caches, which
    users have.
    """
    cmd = [sys.executable, "-c", "import switchcert.cli"]
    times = []
    for i in range(SETUP_REPEATS + warm_up):
        child = run_child(cmd, None, deadline - time.monotonic())
        if child.exit_code != 0:
            raise SystemExit(f"error: cannot import switchcert.cli from {SRC} "
                             f"(exit code {child.exit_code})")
        if i or not warm_up:
            times.append(child.wall_s)
    return times


# Asks the loaded OpenBLAS for its thread count; null where that is not possible.
FACTS_SCRIPT = r"""
import ctypes, json, numpy as np
try:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
except (TypeError, KeyError):
    blas = {}
threads = None
try:
    with open("/proc/self/maps") as fh:
        libs = sorted({l.split()[-1] for l in fh if "openblas" in l.lower() and ".so" in l})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_"):
            if hasattr(lib, sym):
                threads = getattr(lib, sym)()
except OSError:
    pass
print(json.dumps({"numpy": np.__version__, "blas_name": blas.get("name"),
                  "blas_version": blas.get("version"), "blas_threads": threads}))
"""


def machine_facts() -> dict:
    env = dict(os.environ, **CHILD_ENV)
    numpy_facts = json.loads(subprocess.run(
        [sys.executable, "-c", FACTS_SCRIPT], env=env, capture_output=True,
        check=True, timeout=60, text=True).stdout)
    ram_kb = None
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            ram_kb = int(fh.readline().split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return {"nproc": os.cpu_count(),
            "ram_gb": round(ram_kb / 2**20, 2) if ram_kb else None,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "blas_threads_env": BLAS_THREADS, **numpy_facts}


# --- output check -----------------------------------------------------------------


def check_report(workload: Workload, child: Child, reference: bytes | None):
    """Return (problem or None, report dict or None) for one child."""
    if child.timed_out:
        return "timed out", None
    if child.exit_code != 0:
        return f"exit code {child.exit_code}", None
    try:
        report = json.loads(child.output)
    except (ValueError, UnicodeDecodeError):
        return "report is not JSON", None
    if not isinstance(report, dict):
        return "report is not a JSON object", None
    names = tuple(c.get("name") for c in report.get("certificates", ()))
    if names != workload.certificates:
        return f"certificates {names} != {workload.certificates}", report
    if report.get("passed") is not True or not all(
            c.get("passed") is True for c in report["certificates"]):
        return "a certificate failed", report
    if reference is not None and child.output != reference:
        return "report differs from the first child's", report
    return None, report


def report_counts(report: dict) -> dict[str, int]:
    """Probe iterations per kind and polish iterations, parsed from the notes."""
    counts = {}
    for cert in report["certificates"]:
        match = re.fullmatch(r"probe_(\w+)_d\d+", cert["name"])
        for note in cert["notes"]:
            its = re.fullmatch(r"iterations=\[([\d, ]*)\]", note)
            if match and its:
                counts[f"probe.iterations.{match.group(1)}"] = sum(
                    int(v) for v in its.group(1).split(","))
            polish = re.search(r"polish_iterations=(\d+)", note)
            if polish:
                counts["probe.polish_iterations"] = int(polish.group(1))
    return counts


# --- one run --------------------------------------------------------------------


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 started: float) -> dict:
    deadline = started + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    setup = measure_setup(deadline, warm_up=True)
    tag = f"{workload.name}-trace{int(trace)}"  # overwritten by the next run
    cli_args = [*workload.args, "--seed", str(seed), "--no-timestamp",
                "--format", "json"]
    children, problems, reports = [], [], []
    reference = None
    loop_start = time.monotonic()
    while not children or time.monotonic() - loop_start < seconds:
        last = children[-1].wall_s if children else 0.0
        if children and time.monotonic() + 1.5 * last > deadline:
            break
        prefix = OUT / f"{tag}-child{len(children)}"
        if trace:
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(prefix),
                   "--", *cli_args]
        else:
            cmd = [sys.executable, "-m", "switchcert.cli", *cli_args]
        child = run_child(cmd, Path(f"{prefix}.report.json"),
                          deadline - time.monotonic())
        problem, report = check_report(workload, child, reference)
        if problem is None and reference is None:
            reference = child.output
        children.append(child)
        problems.append(problem)
        reports.append(report)
    # Set-up is sampled on both sides of the workload, so that its median
    # spans the run rather than one moment of a machine whose speed drifts.
    setup += measure_setup(deadline, warm_up=False)

    good = [i for i, p in enumerate(problems) if p is None]
    attempted = len(workload.certificates) * len(children)
    failed = len(workload.certificates) * (len(children) - len(good))
    result = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "command": ["switchcert", *cli_args],
        "setup_s_samples": setup,
        "children": [{"wall_s": c.wall_s, "peak_rss_mb": c.rss_mb,
                      "exit_code": c.exit_code, "problem": p}
                     for c, p in zip(children, problems)],
        "wall_samples": len(good), "attempted": attempted, "failed": failed,
        "counts": report_counts(reports[good[0]]) if good else {},
    }
    # Timing medians leave failed children out unless every child failed.
    timed = good or range(len(children))
    walls = [children[i].wall_s for i in timed]
    if not trace:
        result["metrics"] = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(children[i].rss_mb for i in timed),
            "certs_passed_frac": (attempted - failed) / attempted,
        }
    else:
        summaries = []
        for i in good:
            path = OUT / f"{tag}-child{i}.summary.json"
            summaries.append(json.loads(path.read_text(encoding="utf-8")))
        result["metrics"] = traced_metrics(summaries, result["counts"], walls)
        if summaries:
            result["functions"] = summaries[0]["functions"]
    return result


def traced_metrics(summaries: list[dict], counts: dict, walls: list[float]) -> dict:
    """Median over the traced children of each per-layer metric (0 if never called)."""
    def value(summary: dict, name: str) -> float:
        if name in counts:
            return counts[name]
        if name in summary["observed"]:
            return summary["observed"][name]
        if name == "trace.spans":
            return sum(m["calls"] for m in summary["modules"].values())
        base, stat = name.rsplit(".", 1)
        entry = summary["functions"].get(base) or summary["modules"].get(base)
        return entry.get(stat, 0) if entry else 0

    metrics = {}
    for name in per_layer_metric_units():
        if name == "trace.wall_s":
            metrics[name] = statistics.median(walls)
        else:
            metrics[name] = statistics.median(
                [value(s, name) for s in summaries] or [0])
    return metrics


def emit(result: dict, units: dict) -> dict:
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                        for name, unit in units.items()}}


def describe(result: dict, units: dict) -> None:
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"children={len(result['children'])} timed={result['wall_samples']} "
          f"certs attempted={result['attempted']} failed={result['failed']}")
    for child in result["children"]:
        if child["problem"]:
            print(f"#   failed child: {child['problem']}")
    if not result["trace"]:
        for name, unit in units.items():
            print(f"#   {name} = {result['metrics'][name]:.6g} {unit}")
    for name, value in sorted(result["counts"].items()):
        print(f"#   {name} = {value} count (from the report notes)")


def print_facts(facts: dict) -> None:
    print("# machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))


def run_all(seed: int, seconds: float) -> int:
    facts = machine_facts()
    summary = {"seed": seed, "seconds": seconds, "machine": facts, "workloads": {}}
    print_facts(facts)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS.values():
        plain = run_workload(workload, seed, seconds, False, time.monotonic())
        describe(plain, END_TO_END_UNITS)
        traced = run_workload(workload, seed, seconds, True, time.monotonic())
        overhead = traced["metrics"]["trace.wall_s"] / plain["metrics"]["wall_s"] - 1
        print(f"#   tracing overhead = {100 * overhead:.1f} % "
              f"(traced {traced['metrics']['trace.wall_s']:.3f} s)")
        summary["workloads"][workload.name] = {
            "untraced": plain, "traced": traced,
            "trace_overhead_frac": overhead}
        for result in (plain, traced):
            correct &= result["failed"] == 0
            attempted += result["attempted"]
            failed += result["failed"]
        for name, unit in END_TO_END_UNITS.items():
            metrics[f"{workload.name}.{name}"] = {
                "value": plain["metrics"][name], "unit": unit}
        metrics[f"{workload.name}.trace_overhead_frac"] = {
            "value": overhead, "unit": "frac"}
    path = OUT / f"summary-seed{seed}.json"
    path.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"# per-layer metrics and tracing overhead written to "
          f"{path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "switchcert" / "cli.py").is_file():
        print(f"error: no switchcert sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    workload = WORKLOADS[args.workload]
    result = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                          started)
    result["machine"] = machine_facts()
    units = per_layer_metric_units() if args.trace else END_TO_END_UNITS
    print_facts(result["machine"])
    describe(result, units)
    path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(emit(result, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
