"""Run one switchcert CLI invocation with the public layer functions traced.

Usage: python3 bench/traced_cli.py OUT_PREFIX -- <switchcert arguments>

The report goes to standard output exactly as ``python -m switchcert.cli``
would print it.  At exit the spans are written to ``OUT_PREFIX.spans.json``
and the per-function summary to ``OUT_PREFIX.summary.json``.
"""

from __future__ import annotations

import json
import math
import sys

import tracer


def _probe_kind(*args, **kwargs):
    """The probe kind: a ConstraintSystem's ``kind`` or the ``kind`` argument."""
    first = args[0] if args else kwargs.get("sys", kwargs.get("kind"))
    return getattr(first, "kind", first)


def _computed_bytes(array) -> int:
    """Bytes of a dense array computed from its shape and element size."""
    return math.prod(array.shape) * array.dtype.itemsize


# Probe spans are split by the kind of the system they work on.
LABELS = {
    "probe.alternating_projection_probe": _probe_kind,
    "probe.build_constraint_system": _probe_kind,
}
OBSERVERS = {
    "switch.build_switch_choi":
        lambda proc: {"bytes_computed": _computed_bytes(proc.op.entries)},
    "probe.build_constraint_system":
        lambda system: {"in_projector_bytes_computed":
                        _computed_bytes(system.in_projector)},
}


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        sys.stderr.write(__doc__)
        return 2
    prefix, cli_args = argv[0], argv[2:]
    trace = tracer.Tracer()
    replaced = tracer.install(trace, LABELS, OBSERVERS)
    from switchcert import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.uninstall(replaced)
        with open(prefix + ".spans.json", "w", encoding="utf-8") as fh:
            trace.dump(fh)
        with open(prefix + ".summary.json", "w", encoding="utf-8") as fh:
            json.dump(trace.summarize(), fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
