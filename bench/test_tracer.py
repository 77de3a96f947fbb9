"""Tests for the benchmark's tracer.  Run with: python3 -m pytest bench"""

from __future__ import annotations

import inspect
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracer  # noqa: E402
import traced_cli  # noqa: E402
from switchcert import cli, probe, switch  # noqa: E402


@pytest.fixture
def installed():
    trace = tracer.Tracer()
    replaced = tracer.install(trace, traced_cli.LABELS, traced_cli.OBSERVERS)
    try:
        yield trace
    finally:
        tracer.uninstall(replaced)


def test_self_time_of_nested_calls():
    ticks = iter([0, 10, 30, 40, 70, 100])
    trace = tracer.Tracer(clock=lambda: next(ticks))
    inner = trace.wrap("m.inner", lambda: None)

    def body():
        inner()
        inner()

    trace.wrap("m.outer", body)()
    summary = trace.summarize()
    outer = summary["functions"]["m.outer"]
    assert (outer["calls"], outer["s"], outer["self_s"]) == (1, 100e-9, 50e-9)
    assert summary["functions"]["m.inner"] == {"calls": 2, "s": 50e-9,
                                               "self_s": 50e-9}
    assert summary["modules"]["m"] == {"calls": 3, "self_s": 100e-9}
    parents = [span.parent for span in trace.spans]
    assert parents == [-1, 0, 0]


def test_recursion_counts_inclusive_time_once_and_labels_inherit():
    ticks = iter([0, 5, 15, 20, 30, 40])
    trace = tracer.Tracer(clock=lambda: next(ticks))

    def rec(kind, depth):
        if depth:
            rec(kind, depth - 1)
        else:
            leaf()

    leaf = trace.wrap("m.leaf", lambda: None)
    rec = trace.wrap("m.rec", rec, label=lambda kind, depth: kind)
    rec("a", 1)
    functions = trace.summarize()["functions"]
    assert functions["m.rec"] == {"calls": 2, "s": 40e-9, "self_s": 35e-9}
    assert functions["m.leaf.a"]["calls"] == 1
    assert [span.label for span in trace.spans] == ["a", "a", "a"]


def test_install_rebinds_every_alias(installed):
    assert probe.build_switch_choi is switch.build_switch_choi
    assert probe.build_switch_choi.__wrapped__ is not None
    for name in ("alternating_projection_probe", "build_constraint_system",
                 "haar_random_unitary", "make_report", "verify_span_lemmas"):
        assert hasattr(getattr(cli, name), "__wrapped__"), name
    layer_modules = {f"switchcert.{layer}" for layer in tracer.LAYERS}
    checked = 0
    for mod_name, module in sys.modules.items():
        if mod_name == "switchcert" or mod_name.startswith("switchcert."):
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ in layer_modules
                        and not obj.__name__.startswith("_")):
                    assert hasattr(obj, "__wrapped__"), f"{mod_name}.{attr}"
                    checked += 1
    assert checked > 100


def test_uninstall_restores_originals():
    original = probe.psd_project
    replaced = tracer.install(tracer.Tracer())
    assert probe.psd_project is not original
    tracer.uninstall(replaced)
    assert probe.psd_project is original


def test_wrapped_functions_return_identical_results():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    plain = probe.psd_project(g)
    system = probe.build_constraint_system("identity", 2, seed=1)
    plain_affine = probe.affine_project(system, g)
    trace = tracer.Tracer()
    replaced = tracer.install(trace)
    try:
        assert np.array_equal(probe.psd_project(g), plain)
        assert np.array_equal(probe.affine_project(system, g), plain_affine)
    finally:
        tracer.uninstall(replaced)
    assert trace.summarize()["functions"]["probe.psd_project"]["calls"] == 1


def test_traced_report_is_byte_identical(tmp_path, capsys):
    args = ["identity-verify", "--dim", "2", "--seed", "4", "--no-timestamp",
            "--format", "json"]
    assert cli.main(args) == 0
    plain = capsys.readouterr().out
    prefix = str(tmp_path / "run")
    assert traced_cli.main([prefix, "--", *args]) == 0
    assert capsys.readouterr().out == plain
    assert not hasattr(cli.main, "__wrapped__")
    summary = json.loads(Path(prefix + ".summary.json").read_text())
    assert summary["functions"]["cli.render_json"]["calls"] == 1
    spans = json.loads(Path(prefix + ".spans.json").read_text())
    assert len(spans["spans"]) == sum(
        m["calls"] for m in summary["modules"].values())


def test_observers_record_computed_bytes(installed):
    switch.build_switch_choi(2)
    system = probe.build_constraint_system("identity", 2, seed=0)
    summary = installed.summarize()
    assert summary["observed"]["switch.build_switch_choi.bytes_computed"] \
        == 256 * 256 * 16
    assert summary["observed"][
        "probe.build_constraint_system.in_projector_bytes_computed"] \
        == system.in_projector.nbytes
    assert "probe.build_constraint_system.identity" in summary["functions"]


def test_dump_writes_every_span():
    trace = tracer.Tracer()
    trace.wrap("m.f", lambda x: x + 1, observe=lambda r: {"value": r})(1)
    fh = io.StringIO()
    trace.dump(fh)
    data = json.loads(fh.getvalue())
    assert data["names"] == ["m.f"]
    assert len(data["spans"]) == 1 and data["spans"][0][:2] == [0, -1]
    assert trace.summarize()["observed"] == {"m.f.value": 2}
