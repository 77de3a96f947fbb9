"""Pass/fail certificate records shared by all verification modules."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Check:
    """A single measured quantity compared against a target with a tolerance."""

    name: str
    measured: float
    target: float
    tolerance: float
    passed: bool


def nan_max(*values) -> float:
    """Largest of ``values``, or NaN if any is NaN (``max(0.0, nan)`` is 0.0)."""
    values = [float(v) for v in values]
    return math.nan if any(map(math.isnan, values)) else max(values)


def check_close(name: str, measured, target, tolerance) -> Check:
    """Check |measured - target| <= tolerance."""
    measured = float(measured)
    target = float(target)
    return Check(name, measured, target, float(tolerance),
                 abs(measured - target) <= tolerance)


def check_leq(name: str, measured, bound) -> Check:
    """Check measured <= bound (tolerance field records the bound)."""
    measured = float(measured)
    return Check(name, measured, float(bound), float(bound), measured <= bound)


def _int_as_float(value: int) -> float:
    """float(value), or +/-inf for an integer beyond the float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def check_exact_int(name: str, measured: int, target: int) -> Check:
    """Exact integer equality, tolerance 0."""
    return Check(name, _int_as_float(measured), _int_as_float(target), 0.0,
                 int(measured) == int(target))


def check_true(name: str, condition: bool) -> Check:
    """Boolean condition recorded as 1-vs-1 comparison."""
    return Check(name, 1.0 if condition else 0.0, 1.0, 0.0, bool(condition))


@dataclass(frozen=True)
class CertificateReport:
    """Deterministic record of a verification run: all checks plus timing."""

    name: str
    passed: bool
    checks: tuple[Check, ...]
    runtime_ms: float
    notes: tuple[str, ...] = field(default=())

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(f"no check named {name!r} in certificate {self.name!r}")

    def to_dict(self, include_runtime: bool = True) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "measured": {c.name: c.measured for c in self.checks},
            "target": {c.name: c.target for c in self.checks},
            "tolerance": {c.name: c.tolerance for c in self.checks},
            "notes": list(self.notes),
            "runtime_ms": self.runtime_ms if include_runtime else 0.0,
        }


class Timer:
    """Wall-clock timer for certificate runtimes."""

    def __init__(self):
        self.start = time.perf_counter()

    def ms(self) -> float:
        return (time.perf_counter() - self.start) * 1e3


def make_report(name: str, checks, timer: Timer, notes=()) -> CertificateReport:
    checks = tuple(checks)
    return CertificateReport(
        name=name,
        passed=all(c.passed for c in checks),
        checks=checks,
        runtime_ms=timer.ms(),
        notes=tuple(notes),
    )
