"""Command-line verification harness with deterministic text/JSON reports."""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import math
import os
import stat
import sys

from . import __version__
from .channels import haar_random_unitary
from .probe import alternating_projection_probe, build_constraint_system
from .report import CertificateReport, Timer, check_exact_int, check_true, make_report
from .span import (
    estimate_span_dimension,
    span_dimension_formula,
    verify_group_combinatorics,
    verify_span_lemmas,
)
from .switch import verify_unitary_action
from .uniqueness import (
    certify_identity_uniqueness,
    cp_family_certificate,
    diagonal_certificate,
    fig_circuits_certificate,
    offdiagonal_certificate,
    verify_corollary,
)

SUBCOMMANDS = ("switch-verify", "identity-verify", "corollary-verify",
               "span-verify", "counterexamples", "probe", "all")


def _span_dimension_certificate(d: int, samples: int | None, seed: int) -> CertificateReport:
    timer = Timer()
    n = samples if samples is not None else 3 * span_dimension_formula(d) + 30
    est = estimate_span_dimension(d, n, seed=seed)
    checks = [check_exact_int("estimated_span_dimension", est,
                              span_dimension_formula(d))]
    return make_report(f"span_dimension_d{d}", checks, timer,
                       notes=(f"samples={n}",))


def _run_span(cfg) -> list[CertificateReport]:
    return [
        verify_span_lemmas(cfg.dim, seed=cfg.seed),
        _span_dimension_certificate(cfg.dim, cfg.samples, cfg.seed),
        verify_group_combinatorics(cfg.dim),
    ]


def _run_switch(cfg) -> list[CertificateReport]:
    """All switch certificates and their aggregate.  The probe runs at d = 2
    only, the envelope ``build_constraint_system`` enforces."""
    timer, d = Timer(), cfg.dim
    parts = [verify_unitary_action(d, seed=cfg.seed, tol=cfg.tol_cert),
             verify_span_lemmas(d, seed=cfg.seed),
             diagonal_certificate(d),
             offdiagonal_certificate(d)]
    notes = ()
    if d == 2:
        parts.append(alternating_projection_probe(
            build_constraint_system("switch", d), starts=cfg.probe_starts,
            seed=cfg.seed, feas_tol=cfg.tol_psd))
    else:
        notes = ("probe skipped: the switch probe supports d = 2 only",)
    checks = [check_true(part.name, part.passed) for part in parts]
    return parts + [make_report(f"switch_uniqueness_d{d}", checks, timer, notes=notes)]


def _run_identity(cfg) -> list[CertificateReport]:
    return [certify_identity_uniqueness(cfg.dim, seed=cfg.seed)]


def _run_corollaries(cfg) -> list[CertificateReport]:
    certs = [verify_corollary("transpose", cfg.dim, seed=cfg.seed, tol=cfg.tol_cert)]
    a = haar_random_unitary(cfg.dim, cfg.seed + 101)
    b = haar_random_unitary(cfg.dim, cfg.seed + 202)
    certs.append(verify_corollary("sandwich", cfg.dim, seed=cfg.seed,
                                  a=a, b=b, tol=cfg.tol_cert))
    if cfg.dim == 2:
        certs.append(verify_corollary("conjugate_qubit", 2, seed=cfg.seed,
                                      tol=cfg.tol_cert))
    return certs


def _run_counterexamples(cfg) -> list[CertificateReport]:
    return [
        fig_circuits_certificate(seed=cfg.seed),
        cp_family_certificate(seed=cfg.seed),
    ]


def _run_probe(cfg) -> list[CertificateReport]:
    kinds = ("identity", "switch", "cp_family") if cfg.dim == 2 else ("identity",)
    return [alternating_projection_probe(
        build_constraint_system(kind, cfg.dim), starts=cfg.probe_starts,
        seed=cfg.seed, feas_tol=cfg.tol_psd) for kind in kinds]


_RUNNERS = {
    "switch-verify": _run_switch,
    "identity-verify": _run_identity,
    "corollary-verify": _run_corollaries,
    "span-verify": _run_span,
    "counterexamples": _run_counterexamples,
    "probe": _run_probe,
}


def _run_all(cfg) -> list[CertificateReport]:
    certs = []
    for name in ("span-verify", "identity-verify", "switch-verify",
                 "corollary-verify", "counterexamples", "probe"):
        certs.extend(_RUNNERS[name](cfg))
    return certs


_RUNNERS["all"] = _run_all


# --- deterministic serialization -------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        # JSON has no NaN or infinity literals, so those are written as strings
        if math.isnan(value):
            return '"NaN"'
        if math.isinf(value):
            return '"Infinity"' if value > 0 else '"-Infinity"'
        return format(value, ".17g")
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    if isinstance(value, dict):
        items = (f"{json.dumps(str(k))}: {_fmt(v)}" for k, v in value.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def render_json(report: dict) -> str:
    return _fmt(report) + "\n"


def render_text(report: dict) -> str:
    lines = [f"switchcert {report['version']} :: {report['subcommand']}"]
    cfg = report["config"]
    lines.append("config: " + ", ".join(f"{k}={v}" for k, v in cfg.items()))
    if "timestamp" in report:
        lines.append(f"timestamp: {report['timestamp']}")
    for cert in report["certificates"]:
        status = "PASS" if cert["passed"] else "FAIL"
        lines.append(f"[{status}] {cert['name']}  ({cert['runtime_ms']:.1f} ms)")
        for key, measured in cert["measured"].items():
            target = cert["target"][key]
            tol = cert["tolerance"][key]
            lines.append(f"    {key}: measured={measured!r} target={target!r} "
                         f"tol={tol!r}")
        for note in cert["notes"]:
            lines.append(f"    note: {note}")
    overall = "PASS" if report["passed"] else "FAIL"
    lines.append(f"overall: {overall}")
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="switchcert",
        description="Numerical certificates for quantum-switch and one-slot "
                    "supermap constructions.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} certificate group")
        p.add_argument("--dim", type=int, default=2, help="slot dimension d >= 2")
        p.add_argument("--seed", type=int, default=0, help="base RNG seed")
        p.add_argument("--tol-psd", type=float, default=1e-6, dest="tol_psd",
                       help="PSD feasibility tolerance for the projection probe")
        p.add_argument("--tol-cert", type=float, default=1e-9, dest="tol_cert",
                       help="distance tolerance for the Haar-sample certificates")
        p.add_argument("--samples", type=int, default=None,
                       help="sample count for span-dimension estimation")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", type=str, default=None,
                       help="write the report to this path instead of stdout")
        p.add_argument("--no-timestamp", action="store_true", dest="no_timestamp",
                       help="suppress timestamp and runtimes for reproducible diffs")
        p.add_argument("--probe-starts", type=int, default=10, dest="probe_starts",
                       help="perturbed starts of each uniqueness probe; the "
                            "cp_family probe has none")
    return parser


def _error_exit(message: str, code: int = 2):
    """Report an unsupported request (or, with code 3, an internal error) with
    one line on stderr and exit with ``code``."""
    line = " ".join(message.splitlines())
    sys.stderr.write(f"switchcert: error: {line}\n")
    raise SystemExit(code)


def _validate(cfg) -> None:
    """Reject an unsupported configuration before any work."""
    min_samples = span_dimension_formula(cfg.dim) + 1
    for bad, message in (
            (cfg.dim < 2, "--dim must be at least 2"),
            (cfg.subcommand in ("switch-verify", "all") and cfg.dim > 4,
             f"{cfg.subcommand} supports --dim 2 to 4"),
            (cfg.subcommand == "span-verify" and cfg.dim > 6,
             "span-verify supports --dim 2 to 6"),
            (cfg.subcommand == "probe" and cfg.dim > 4,
             "probe supports --dim 2 to 4"),
            (cfg.subcommand == "identity-verify" and cfg.dim > 9,
             "identity-verify supports --dim 2 to 9"),
            (cfg.subcommand == "corollary-verify" and cfg.dim > 16,
             "corollary-verify supports --dim 2 to 16"),
            (cfg.subcommand in ("span-verify", "all") and cfg.samples is not None
             and cfg.samples < min_samples,
             f"--samples must be at least {min_samples} at --dim {cfg.dim}"),
            (not (0 < cfg.tol_psd < math.inf and 0 < cfg.tol_cert < math.inf),
             "tolerances must be positive and finite"),
            (cfg.seed < 0, "--seed must be non-negative"),
            (cfg.probe_starts < 1, "--probe-starts must be at least 1")):
        if bad:
            _error_exit(message)


def run(cfg) -> tuple[int, dict]:
    certificates = _RUNNERS[cfg.subcommand](cfg)
    include_runtime = not cfg.no_timestamp
    report = {
        "version": __version__,
        "subcommand": cfg.subcommand,
        "config": {
            "dim": cfg.dim,
            "seed": cfg.seed,
            "tol_psd": cfg.tol_psd,
            "tol_cert": cfg.tol_cert,
            "samples": cfg.samples,
            "probe_starts": cfg.probe_starts,
            "format": cfg.format,
        },
    }
    if not cfg.no_timestamp:
        report["timestamp"] = datetime.datetime.now(
            datetime.timezone.utc).isoformat()
    report["certificates"] = [c.to_dict(include_runtime=include_runtime)
                              for c in certificates]
    report["passed"] = all(c.passed for c in certificates)
    return (0 if report["passed"] else 1), report


def _open_out(path: str):
    """Open ``path`` for the report before any work, so that a bad path fails
    at once.  It is opened for appending, which leaves an existing file as it
    is until the report is written; returns the file and whether this call
    created it."""
    created = not os.path.lexists(path)
    try:
        return open(path, "a", encoding="utf-8"), created
    except OSError as exc:
        _error_exit(f"cannot write --out {path}: {exc.strerror}")


def main(argv=None) -> int:
    cfg = build_parser().parse_args(argv)
    _validate(cfg)
    out, created = _open_out(cfg.out) if cfg.out \
        else (contextlib.nullcontext(sys.stdout), False)
    with out as fh:
        try:
            code, report = run(cfg)
        except BaseException as exc:
            if created:  # a run that ends without a report leaves no file
                fh.close()
                os.remove(cfg.out)
            if isinstance(exc, Exception):  # a fault of the program, not of the request
                _error_exit(f"internal error: {type(exc).__name__}: {exc}", code=3)
            raise
        if cfg.out and stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate(0)  # a device such as /dev/null cannot be truncated
        fh.write(render_json(report) if cfg.format == "json" else render_text(report))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
