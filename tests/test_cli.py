import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from switchcert import cli, probe
from switchcert.report import CertificateReport, Check
from switchcert.span import span_dimension_formula
from switchcert.switch import ACTION_TOL

SRC = str(Path(cli.__file__).resolve().parents[1])


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def stub_identity_runner(monkeypatch, runner):
    """Make identity-verify run ``runner`` on the d it supports."""
    dims = cli.SUBCOMMANDS["identity-verify"][1]
    monkeypatch.setitem(cli.SUBCOMMANDS, "identity-verify", (runner, dims))


def test_identity_verify_json(capsys):
    code, out = run_cli(["identity-verify", "--dim", "2", "--seed", "7",
                         "--format", "json", "--no-timestamp"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["subcommand"] == "identity-verify"
    assert report["passed"] is True
    assert report["config"]["dim"] == 2 and report["config"]["seed"] == 7
    assert "timestamp" not in report
    names = [c["name"] for c in report["certificates"]]
    assert names == ["identity_uniqueness_d2"]
    assert all(c["runtime_ms"] == 0.0 for c in report["certificates"])


def test_json_reports_are_byte_identical(capsys):
    args = ["span-verify", "--dim", "2", "--seed", "3", "--format", "json",
            "--no-timestamp"]
    _, first = run_cli(args, capsys)
    _, second = run_cli(args, capsys)
    assert first == second
    assert first.endswith("\n")


def test_text_format_mentions_pass(capsys):
    code, out = run_cli(["counterexamples", "--format", "text",
                         "--no-timestamp"], capsys)
    assert code == 0
    assert "[PASS] equal_on_unitaries_circuits" in out
    assert "[PASS] cp_family_nonuniqueness" in out
    assert out.strip().endswith("overall: PASS")


def test_timestamp_present_by_default(capsys):
    code, out = run_cli(["identity-verify", "--format", "json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert "timestamp" in report


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out = run_cli(["identity-verify", "--format", "json",
                         "--no-timestamp", "--out", str(path)], capsys)
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["passed"] is True


def test_usage_errors_exit_2(capsys, tmp_path):
    # argparse's own errors too, the removed tolerance flags among them,
    # print one line, write no stdout and leave no --out file
    report = tmp_path / "report.json"
    for args in (["identity-verify", "--format", "yaml"],
                 ["not-a-subcommand"],
                 [],
                 ["identity-verify", "--dim", "x"],
                 ["identity-verify", "--tol-psd", "1e-6", "--out", str(report)],
                 ["corollary-verify", "--tol-cert", "1e-9", "--out", str(report)],
                 ["identity-verify", "--dim", "1"],
                 ["span-verify", "--dim", "0"],
                 ["span-verify", "--seed", "-1"],
                 ["counterexamples", "--seed", "-1"],
                 ["switch-verify", "--dim", "5"],
                 ["span-verify", "--dim", "7"],
                 ["probe", "--dim", "5"],
                 ["identity-verify", "--dim", "10"],
                 ["corollary-verify", "--dim", "17"],
                 ["counterexamples", "--dim", "3"],
                 ["counterexamples", "--dim", "7"],
                 ["span-verify", "--dim", "2", "--samples", "5"],
                 ["all", "--dim", "2", "--samples", "10"],
                 ["span-verify", "--dim", "6", "--samples", "1000000"],
                 ["span-verify", "--dim", "2", "--samples", str(2 ** 21 + 1)],
                 ["all", "--dim", "4", "--samples", str(2 ** 17 + 1)],
                 ["probe", "--probe-starts", "0"],
                 ["probe", "--probe-starts", "1001"],
                 ["probe", "--dim", "2", "--probe-starts", "1000000000"],
                 ["identity-verify", "--out", str(tmp_path / "missing" / "x.json")],
                 ["identity-verify", "--out", str(tmp_path)]):
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            cli.main(args)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("switchcert: error: ")
        assert captured.err.count("\n") == 1
    assert not report.exists()


def test_flags_agree_across_parser_readme_and_config(capsys):
    # every subcommand's options, README's "Common flags:" list and a
    # report's config keys (the destinations less out and no_timestamp)
    # name the same flags
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.findall(r"`(--[a-z-]+)", re.search(r"Common flags:(.*?)\.\n", readme, re.S)[1])
    subcommands = next(a for a in cli.build_parser()._actions if a.dest == "subcommand")
    for name, parser in subcommands.choices.items():
        actions = [a for a in parser._actions if a.dest != "help"]
        assert [a.option_strings[0] for a in actions] == listed, name
    _, out = run_cli(["identity-verify", "--format", "json", "--no-timestamp"], capsys)
    assert set(json.loads(out)["config"]) == \
        {a.dest for a in actions} - {"out", "no_timestamp"}


def test_report_tolerances_are_the_module_constants(capsys):
    # no flag moves a bound: the Haar action bounds are switch.ACTION_TOL
    # and the probe's feasibility bounds probe.FEAS_TOL
    _, out = run_cli(["all", "--dim", "2", "--probe-starts", "1", "--format", "json",
                      "--no-timestamp"], capsys)
    tolerance = {}
    for cert in json.loads(out)["certificates"]:
        for key, tol in cert["tolerance"].items():
            tolerance.setdefault(key, set()).add(tol)
    assert tolerance["max_frobenius_distance"] == {ACTION_TOL}
    assert tolerance["max_haar_distance"] == {ACTION_TOL}
    for key in ("final_constraint_residual", "final_negative_eigenvalue",
                "witness_constraint_residual", "witness_negative_eigenvalue"):
        assert tolerance[key] == {probe.FEAS_TOL}, key
    # the probe docstring's reading of the two start checks needs this
    assert probe.FEAS_TOL >= probe.TOL


def test_each_subcommand_accepts_exactly_its_supported_dims(capsys):
    # the table states the envelope: each subcommand runs at d = min..max
    # and exits 2, with one stderr line and no work, just outside it
    assert {name: (dims.start, dims[-1]) for name, (_, dims) in cli.SUBCOMMANDS.items()} == {
        "switch-verify": (2, 4), "identity-verify": (2, 9), "corollary-verify": (2, 16),
        "span-verify": (2, 6), "counterexamples": (2, 2), "probe": (2, 4), "all": (2, 4)}
    parser = cli.build_parser()
    for name, (_, dims) in cli.SUBCOMMANDS.items():
        for d in (dims.start, dims[-1]):
            cli._validate(parser.parse_args([name, "--dim", str(d)]))
        for d in (dims.start - 1, dims[-1] + 1):
            capsys.readouterr()
            with pytest.raises(SystemExit) as err:
                cli.main([name, "--dim", str(d)])
            assert err.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"switchcert: error: {name} supports --dim 2 ")
            assert captured.err.count("\n") == 1


def test_sample_and_start_caps_are_inclusive():
    # the largest real sample matrix allowed holds 2^25 float64 entries,
    # and the estimate needs one sample more than the span dimension
    for d in (2, 4, 6):
        cap = 2 ** 25 // d ** 4
        for samples in (span_dimension_formula(d) + 1, cap):
            cli._validate(cli.build_parser().parse_args(
                ["span-verify", "--dim", str(d), "--samples", str(samples)]))
    cli._validate(cli.build_parser().parse_args(["probe", "--probe-starts", "1000"]))
    # the cap binds only the subcommands that draw the samples
    cli._validate(cli.build_parser().parse_args(
        ["identity-verify", "--dim", "6", "--samples", "1000000"]))


def test_span_verify_d3_reports_are_byte_identical(capsys):
    args = ["span-verify", "--dim", "3", "--no-timestamp", "--format", "json"]
    code, first = run_cli(args, capsys)
    assert code == 0
    assert run_cli(args, capsys) == (0, first)


@pytest.mark.parametrize("args", [["probe", "--dim", "2", "--seed", "5"],
                                  ["corollary-verify", "--dim", "12"]],
                         ids=["probe", "corollary-verify"])
def test_reports_do_not_depend_on_the_blas_thread_count(args):
    # BLAS splits a large dot product by its thread count; every norm and
    # inner product is an einsum sum on one thread (``linalg``), and the
    # corollary's replace-channel deviation moved with the count before
    def report(threads):
        env = {**os.environ, "PYTHONPATH": SRC,
               **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                "MKL_NUM_THREADS"), str(threads))}
        out = subprocess.run([sys.executable, "-m", "switchcert.cli", *args,
                              "--no-timestamp", "--format", "json"],
                             capture_output=True, timeout=120, env=env)
        assert out.returncode == 0, out.stderr
        return out.stdout

    assert report(1) == report(2)


def test_internal_error_exits_3_with_one_line(capsys, monkeypatch):
    def broken(cfg):
        raise RuntimeError("boom\nsecond line")

    stub_identity_runner(monkeypatch, broken)
    with pytest.raises(SystemExit) as err:
        cli.main(["identity-verify", "--format", "json", "--no-timestamp"])
    assert err.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "switchcert: error: internal error: RuntimeError: boom second line\n"


def _raising_runner(cfg):
    raise RuntimeError("boom")


def test_internal_error_leaves_no_out_file(tmp_path, capsys, monkeypatch):
    stub_identity_runner(monkeypatch, _raising_runner)
    path = tmp_path / "report.json"
    with pytest.raises(SystemExit) as err:
        cli.main(["identity-verify", "--out", str(path)])
    assert err.value.code == 3
    assert capsys.readouterr().err.count("\n") == 1
    assert not path.exists()
    assert list(tmp_path.iterdir()) == []


def test_interrupted_run_leaves_no_out_file(tmp_path, monkeypatch):
    def interrupted(cfg):
        raise KeyboardInterrupt

    stub_identity_runner(monkeypatch, interrupted)
    path = tmp_path / "report.json"
    with pytest.raises(KeyboardInterrupt):
        cli.main(["identity-verify", "--out", str(path)])
    assert not path.exists()


def test_internal_error_leaves_an_existing_out_file_untouched(tmp_path, capsys,
                                                             monkeypatch):
    stub_identity_runner(monkeypatch, _raising_runner)
    path = tmp_path / "report.json"
    path.write_text("an earlier report\n")
    stamp = path.stat().st_mtime_ns
    with pytest.raises(SystemExit) as err:
        cli.main(["identity-verify", "--out", str(path)])
    assert err.value.code == 3
    assert path.read_text() == "an earlier report\n"
    assert path.stat().st_mtime_ns == stamp


def test_unwritable_out_exits_2_before_any_work(tmp_path, capsys, monkeypatch):
    calls = []
    stub_identity_runner(monkeypatch, calls.append)
    for path in (tmp_path / "missing" / "x.json", tmp_path):
        with pytest.raises(SystemExit) as err:
            cli.main(["identity-verify", "--out", str(path)])
        assert err.value.code == 2
        err_text = capsys.readouterr().err
        assert err_text.startswith("switchcert: error: cannot write --out")
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def test_out_file_replaces_a_longer_existing_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text("x" * 100_000)
    code, _ = run_cli(["identity-verify", "--format", "json", "--no-timestamp",
                       "--out", str(path)], capsys)
    assert code == 0
    assert json.loads(path.read_text())["passed"] is True


def test_out_device_is_written_without_truncation(capsys):
    # a device such as /dev/null cannot be truncated; the report still goes there
    code = cli.main(["identity-verify", "--format", "json", "--no-timestamp",
                     "--out", os.devnull])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "" and captured.err == ""


def test_exit_code_1_on_failed_certificate(capsys, monkeypatch):
    failed = CertificateReport(
        name="stub", passed=False,
        checks=(Check("x", 1.0, 0.0, 0.0, False),),
        runtime_ms=0.0)
    stub_identity_runner(monkeypatch, lambda cfg: [failed])
    code, out = run_cli(["identity-verify", "--format", "json",
                         "--no-timestamp"], capsys)
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_probe_cp_family_runs_the_starts_asked_for(capsys):
    # the C_p probe runs no starts: its witness polishes from the first
    # draw of the seed's stream, the same whatever n is, so the whole
    # certificate is the same for any --probe-starts
    certs = {}
    for starts in (2, 10):
        code, out = run_cli(["probe", "--dim", "2", "--seed", "5", "--probe-starts",
                             str(starts), "--format", "json", "--no-timestamp"], capsys)
        assert code == 0
        cert = next(c for c in json.loads(out)["certificates"]
                    if c["name"] == "probe_cp_family_d2")
        assert cert["passed"]
        certs[starts] = json.dumps(cert, sort_keys=True)
    assert certs[2] == certs[10]


def test_switch_verify_forwards_seed_and_starts_to_the_probe(capsys, monkeypatch):
    seen = []

    def stub(sys_, starts, seed):
        seen.append((sys_.kind, starts, seed))
        return CertificateReport(name="probe_switch_d2", passed=True, checks=(),
                                 runtime_ms=0.0)

    monkeypatch.setattr(cli, "alternating_projection_probe", stub)
    code, _ = run_cli(["switch-verify", "--dim", "2", "--seed", "3", "--probe-starts", "4",
                       "--format", "json", "--no-timestamp"], capsys)
    assert code == 0 and seen == [("switch", 4, 3)]


@pytest.mark.parametrize("d", [3, 4])
def test_switch_verify_aggregate_skips_the_probe_above_d2(d, capsys):
    code, out = run_cli(["switch-verify", "--dim", str(d), "--format", "json",
                         "--no-timestamp"], capsys)
    certs = json.loads(out)["certificates"]
    assert code == 0 and all(c["passed"] for c in certs)
    assert [c["name"] for c in certs] == [
        f"switch_unitary_action_d{d}", f"span_lemmas_d{d}", f"switch_diagonal_d{d}",
        f"switch_offdiagonal_d{d}", f"switch_uniqueness_d{d}"]
    assert certs[-1]["notes"] == ["probe skipped: the switch probe supports d = 2 only"]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_probe_lists_the_kinds_whose_range_holds_dim(d, capsys):
    # probe runs the identity, switch and cp_family kinds whose row of
    # probe.KINDS holds --dim: all three at d = 2, the identity alone above
    code, out = run_cli(["probe", "--dim", str(d), "--probe-starts", "1", "--format", "json",
                         "--no-timestamp"], capsys)
    want = [f"probe_{kind}_d{d}" for kind in ("identity", "switch", "cp_family")
            if d in probe.KINDS[kind][1]]
    assert len(want) == (3 if d == 2 else 1)
    assert code == 0 and [c["name"] for c in json.loads(out)["certificates"]] == want


def test_widening_the_switch_row_runs_its_probe_in_switch_verify(capsys, monkeypatch):
    # the switch probe's envelope is one cell of probe.KINDS: widened to
    # d = 3 there, switch-verify --dim 3 runs and lists the probe, and the
    # aggregate checks it with no skip note
    builder, _ = probe.KINDS["switch"]
    monkeypatch.setitem(probe.KINDS, "switch", (builder, range(2, 4)))
    code, out = run_cli(["switch-verify", "--dim", "3", "--probe-starts", "1",
                         "--format", "json", "--no-timestamp"], capsys)
    certs = json.loads(out)["certificates"]
    assert code == 0 and all(c["passed"] for c in certs)
    assert [c["name"] for c in certs][-2:] == ["probe_switch_d3", "switch_uniqueness_d3"]
    assert "probe_switch_d3" in certs[-1]["measured"] and certs[-1]["notes"] == []


def test_all_makes_and_lists_each_certificate_once(capsys, monkeypatch):
    # the switch group reuses the span group's lemma report, and the probe
    # group leaves out the switch probe the switch group made
    calls = []
    for name in ("verify_span_lemmas", "alternating_projection_probe"):
        def counted(*args, _f=getattr(cli, name), _name=name, **kwargs):
            calls.append(_name)
            return _f(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    code, out = run_cli(["all", "--dim", "2", "--probe-starts", "2", "--format", "json",
                         "--no-timestamp"], capsys)
    assert code == 0
    assert sorted(calls) == ["alternating_projection_probe"] * 3 + ["verify_span_lemmas"]
    names = [c["name"] for c in json.loads(out)["certificates"]]
    assert len(names) == len(set(names))
    assert names[:9] == [
        "span_lemmas_d2", "span_dimension_d2", "group_combinatorics_d2",
        "identity_uniqueness_d2", "switch_unitary_action_d2", "switch_diagonal_d2",
        "switch_offdiagonal_d2", "probe_switch_d2", "switch_uniqueness_d2"]
    assert names[-2:] == ["probe_identity_d2", "probe_cp_family_d2"]
    aggregate = json.loads(out)["certificates"][8]
    assert list(aggregate["measured"]) == [
        "switch_unitary_action_d2", "span_lemmas_d2", "switch_diagonal_d2",
        "switch_offdiagonal_d2", "probe_switch_d2"]


def test_switch_verify_does_not_import_numpy_ma():
    # numpy.ma takes 15-20 ms to import, and no certificate uses it
    code = ("import os, sys; from switchcert import cli; "
            "cli.main(['switch-verify', '--dim', '3', '--out', os.devnull]); "
            "print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, env={**os.environ, "PYTHONPATH": SRC})
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\n"


@pytest.mark.parametrize("args", [["all", "--dim", "2"], ["probe", "--dim", "2"]],
                         ids=["all", "probe"])
def test_runs_load_neither_numpy_random_nor_openssl(args):
    # every sample is drawn from ``channels.SampleStream``, on the standard
    # library's random: numpy.random's extension modules, and secrets ->
    # hashlib -> OpenSSL's _hashlib behind them, add about 6 MB to a run
    code = ("import os, sys; from switchcert import cli; "
            "code = cli.main(sys.argv[1:] + ['--out', os.devnull]); "
            "print(code, [m for m in ('numpy.random', 'secrets', '_hashlib') "
            "if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                         text=True, timeout=120, env={**os.environ, "PYTHONPATH": SRC})
    assert out.returncode == 0, out.stderr
    assert out.stdout == "0 []\n"


def test_float_serialization_17_digits():
    text = cli._fmt({"x": 0.1, "y": 1.0, "n": 3, "b": True, "s": "q", "z": None,
                     "l": [1.5e-300]})
    assert "0.10000000000000001" in text
    assert json.loads(text)["x"] == 0.1


def test_non_finite_floats_are_json_strings():
    text = cli.render_json({"m": {"a": float("nan"), "b": float("inf"),
                                  "c": float("-inf")}, "passed": False})
    assert json.loads(text)["m"] == {"a": "NaN", "b": "Infinity", "c": "-Infinity"}


def test_finite_float_bytes_unchanged():
    report = {"measured": {"x": 0.1, "y": 1e-300, "z": -2.5, "w": 4.0,
                           "v": 1 / 3}, "passed": True}
    assert cli.render_json(report) == (
        '{"measured": {"x": 0.10000000000000001, "y": 1e-300, '
        '"z": -2.5, "w": 4, "v": 0.33333333333333331}, "passed": true}\n')
