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
from .probe import KINDS, alternating_projection_probe, build_constraint_system
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

MAX_SAMPLE_ENTRIES = 2 ** 25  # of the real samples x d^4 float64 matrix: 256 MiB
MAX_PROBE_STARTS = 1000


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


def _run_switch(cfg, lemmas: CertificateReport | None = None) -> list[CertificateReport]:
    """All switch certificates and their aggregate.  The probe runs at the d
    its row of ``KINDS`` supports and is noted as skipped at any other.  A
    span-lemma report already made and listed is given as ``lemmas``: the
    aggregate checks it, and it is not listed again."""
    timer, d = Timer(), cfg.dim
    parts = [verify_unitary_action(d, seed=cfg.seed),
             verify_span_lemmas(d, seed=cfg.seed) if lemmas is None else lemmas,
             diagonal_certificate(d),
             offdiagonal_certificate(d)]
    probe = _run_probe(cfg, kinds=("switch",))
    notes = () if probe else (
        f"probe skipped: the switch probe supports d = {_supported(KINDS['switch'][1])}",)
    checks = [check_true(part.name, part.passed) for part in parts + probe]
    return ([part for part in parts if part is not lemmas] + probe
            + [make_report(f"switch_uniqueness_d{d}", checks, timer, notes=notes)])


def _run_identity(cfg) -> list[CertificateReport]:
    return [certify_identity_uniqueness(cfg.dim, seed=cfg.seed)]


def _run_corollaries(cfg) -> list[CertificateReport]:
    certs = [verify_corollary("transpose", cfg.dim, seed=cfg.seed)]
    a = haar_random_unitary(cfg.dim, cfg.seed + 101)
    b = haar_random_unitary(cfg.dim, cfg.seed + 202)
    certs.append(verify_corollary("sandwich", cfg.dim, seed=cfg.seed, a=a, b=b))
    if cfg.dim == 2:
        certs.append(verify_corollary("conjugate_qubit", 2, seed=cfg.seed))
    return certs


def _run_counterexamples(cfg) -> list[CertificateReport]:
    return [
        fig_circuits_certificate(seed=cfg.seed),
        cp_family_certificate(seed=cfg.seed),
    ]


def _run_probe(cfg, kinds=("identity", "switch", "cp_family")) -> list[CertificateReport]:
    """The probe of each of ``kinds`` whose row of ``KINDS`` supports --dim."""
    return [alternating_projection_probe(build_constraint_system(kind, cfg.dim),
                                         starts=cfg.probe_starts, seed=cfg.seed)
            for kind in kinds if cfg.dim in KINDS[kind][1]]


def _run_all(cfg) -> list[CertificateReport]:
    """Every group's certificates, each made and listed once: the switch
    group reuses the span group's lemma report and lists the switch probe,
    which the probe group leaves out."""
    span = _run_span(cfg)
    return (span + _run_identity(cfg) + _run_switch(cfg, lemmas=span[0])
            + _run_corollaries(cfg) + _run_counterexamples(cfg)
            + _run_probe(cfg, kinds=("identity", "cp_family")))


# each subcommand's runner and the slot dimensions d it supports
SUBCOMMANDS = {
    "switch-verify": (_run_switch, range(2, 5)),
    "identity-verify": (_run_identity, range(2, 10)),
    "corollary-verify": (_run_corollaries, range(2, 17)),
    "span-verify": (_run_span, range(2, 7)),
    "counterexamples": (_run_counterexamples, range(2, 3)),
    "probe": (_run_probe, KINDS["identity"][1]),
    "all": (_run_all, range(2, 5)),
}


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


def _supported(dims: range) -> str:
    return f"{dims.start} only" if len(dims) == 1 else f"{dims.start} to {dims[-1]}"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one stderr line; add_subparsers reuses this class
        _error_exit(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="switchcert",
        description="Numerical certificates for quantum-switch and one-slot "
                    "supermap constructions.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, dims) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=f"run the {name} certificate group")
        p.add_argument("--dim", type=int, default=2,
                       help=f"slot dimension d, {_supported(dims)}")
        p.add_argument("--seed", type=int, default=0, help="base RNG seed")
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
    dims = SUBCOMMANDS[cfg.subcommand][1]
    samples = range(span_dimension_formula(cfg.dim) + 1,
                    MAX_SAMPLE_ENTRIES // max(cfg.dim, 1) ** 4 + 1)
    for bad, message in (
            (cfg.dim not in dims, f"{cfg.subcommand} supports --dim {_supported(dims)}"),
            (cfg.subcommand in ("span-verify", "all") and cfg.samples is not None
             and cfg.samples not in samples,
             f"--samples must be {samples.start} to {samples.stop - 1} at --dim {cfg.dim}"),
            (cfg.seed < 0, "--seed must be non-negative"),
            (not 1 <= cfg.probe_starts <= MAX_PROBE_STARTS,
             f"--probe-starts must be 1 to {MAX_PROBE_STARTS}")):
        if bad:
            _error_exit(message)


def run(cfg) -> tuple[int, dict]:
    certificates = SUBCOMMANDS[cfg.subcommand][0](cfg)
    include_runtime = not cfg.no_timestamp
    report = {
        "version": __version__,
        "subcommand": cfg.subcommand,
        "config": {
            "dim": cfg.dim,
            "seed": cfg.seed,
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
