import json

import pytest

from switchcert import cli
from switchcert.report import CertificateReport, Check


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


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
    with pytest.raises(SystemExit) as err:
        cli.main(["identity-verify", "--format", "yaml"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        cli.main(["not-a-subcommand"])
    assert err.value.code == 2
    for args in (["identity-verify", "--dim", "1"],
                 ["identity-verify", "--tol-psd", "-1"],
                 ["switch-verify", "--dim", "5"],
                 ["span-verify", "--dim", "7"],
                 ["probe", "--dim", "5"],
                 ["identity-verify", "--dim", "10"],
                 ["corollary-verify", "--dim", "17"],
                 ["span-verify", "--dim", "2", "--samples", "5"],
                 ["all", "--dim", "2", "--samples", "10"],
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


def test_span_verify_d3_reports_are_byte_identical(capsys):
    args = ["span-verify", "--dim", "3", "--no-timestamp", "--format", "json"]
    code, first = run_cli(args, capsys)
    assert code == 0
    assert run_cli(args, capsys) == (0, first)


def test_internal_error_exits_3_with_one_line(capsys, monkeypatch):
    def broken(cfg):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setitem(cli._RUNNERS, "identity-verify", broken)
    with pytest.raises(SystemExit) as err:
        cli.main(["identity-verify", "--format", "json", "--no-timestamp"])
    assert err.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "switchcert: error: internal error: RuntimeError: boom second line\n"


def _raising_runner(cfg):
    raise RuntimeError("boom")


def test_internal_error_leaves_no_out_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(cli._RUNNERS, "identity-verify", _raising_runner)
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

    monkeypatch.setitem(cli._RUNNERS, "identity-verify", interrupted)
    path = tmp_path / "report.json"
    with pytest.raises(KeyboardInterrupt):
        cli.main(["identity-verify", "--out", str(path)])
    assert not path.exists()


def test_internal_error_leaves_an_existing_out_file_untouched(tmp_path, capsys,
                                                             monkeypatch):
    monkeypatch.setitem(cli._RUNNERS, "identity-verify", _raising_runner)
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
    monkeypatch.setitem(cli._RUNNERS, "identity-verify", calls.append)
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


def test_exit_code_1_on_failed_certificate(capsys, monkeypatch):
    failed = CertificateReport(
        name="stub", passed=False,
        checks=(Check("x", 1.0, 0.0, 0.0, False),),
        runtime_ms=0.0)
    monkeypatch.setitem(cli._RUNNERS, "identity-verify", lambda cfg: [failed])
    code, out = run_cli(["identity-verify", "--format", "json",
                         "--no-timestamp"], capsys)
    assert code == 1
    assert json.loads(out)["passed"] is False


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
