"""In-memory span tracer that wraps the public functions of switchcert modules.

Tracing is applied from outside the package: ``install`` wraps every public
module-level function of the layer modules and rebinds every name that refers
to it in every loaded ``switchcert`` module, so aliases made by
``from .x import f`` (for example ``probe.build_switch_choi`` or the names
imported into ``cli``) are traced too.  Calls between functions of one module
go through the module's globals and are traced as well.

Each call records one span: its name, start and end (``perf_counter_ns``),
the span that was open when it started, and an optional label.  A label is
inherited by every span opened beneath it, so calls can be split by the kind
of the probe that made them.  Spans stay in memory until ``summarize`` or
``dump`` is called at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

PACKAGE = "switchcert"
LAYERS = ("switch", "span", "uniqueness", "probe", "channels", "linalg",
          "report", "cli")


class Span:
    """One traced call; ``parent`` is the index of the enclosing span or -1."""

    __slots__ = ("name", "parent", "start", "end", "label", "attrs")

    def __init__(self, name, parent, label):
        self.name = name
        self.parent = parent
        self.start = None
        self.end = None
        self.label = label
        self.attrs = None


class Tracer:
    """Collects spans from the functions it wraps; single-threaded use only."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name, fn, label=None, observe=None):
        """Return a traced stand-in for ``fn``.

        ``label(*args, **kwargs)`` names the span's label; without it the
        span inherits its parent's.  ``observe(result)`` returns a dict of
        numbers stored on the span.
        """
        spans, open_ids, clock = self.spans, self._open, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = open_ids[-1] if open_ids else -1
            if label is not None:
                lab = label(*args, **kwargs)
            else:
                lab = spans[parent].label if parent >= 0 else None
            span = Span(name, parent, lab)
            open_ids.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                open_ids.pop()
            if observe is not None:
                span.attrs = observe(result)
            return result

        return traced

    def summarize(self) -> dict:
        """Per-function and per-module call counts and times, in seconds.

        ``functions`` is keyed by span name and, for labelled spans, also by
        ``<name>.<label>``; each entry holds ``calls``, inclusive ``s`` and
        ``self_s``.  Inclusive time counts only the outermost call of a
        recursion.  Self time is a span's duration minus the durations of its
        direct children, which never overlap because the traced program is
        single-threaded.  ``modules`` sums calls and self time over each
        module's functions.  ``observed`` holds the maximum of each attribute
        an observer recorded, as ``<name>.<attr>``.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for span in spans:
            if span.parent >= 0:
                child_ns[span.parent] += span.end - span.start
        functions = defaultdict(lambda: {"calls": 0, "s": 0, "self_s": 0})
        modules = defaultdict(lambda: {"calls": 0, "self_s": 0})
        observed: dict[str, float] = {}
        for i, span in enumerate(spans):
            dur = span.end - span.start
            self_ns = dur - child_ns[i]
            outermost = not _has_ancestor_named(spans, span)
            keys = [span.name]
            if span.label is not None:
                keys.append(f"{span.name}.{span.label}")
            for key in keys:
                entry = functions[key]
                entry["calls"] += 1
                entry["s"] += dur if outermost else 0
                entry["self_s"] += self_ns
            module = modules[span.name.split(".", 1)[0]]
            module["calls"] += 1
            module["self_s"] += self_ns
            for key, value in (span.attrs or {}).items():
                name = f"{span.name}.{key}"
                observed[name] = max(observed.get(name, value), value)
        # times were summed as integer nanoseconds; report seconds
        for entry in (*functions.values(), *modules.values()):
            for key in ("s", "self_s"):
                if key in entry:
                    entry[key] /= 1e9
        return {"functions": dict(functions), "modules": dict(modules),
                "observed": observed}

    def dump(self, fh) -> None:
        """Write every span as JSON: names once, then [name, parent, start_ns, end_ns, label]."""
        names = sorted({span.name for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        json.dump({"names": names,
                   "fields": ["name", "parent", "start_ns", "end_ns", "label"],
                   "spans": [[index[s.name], s.parent, s.start, s.end, s.label]
                             for s in self.spans]}, fh, separators=(",", ":"))


def _has_ancestor_named(spans, span) -> bool:
    parent = span.parent
    while parent >= 0:
        if spans[parent].name == span.name:
            return True
        parent = spans[parent].parent
    return False


def public_functions(module):
    """Public functions defined in ``module`` itself, by attribute name."""
    return {attr: obj for attr, obj in vars(module).items()
            if not attr.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__}


def install(tracer: Tracer, labels=None, observers=None):
    """Wrap the public functions of each layer module and rebind every alias.

    ``labels`` and ``observers`` map a span name such as
    ``"probe.alternating_projection_probe"`` to the hooks of ``Tracer.wrap``.
    Returns the list of (module, attribute, original) needed by ``uninstall``.
    """
    labels = labels or {}
    observers = observers or {}
    wrapped = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for attr, fn in public_functions(module).items():
            name = f"{layer}.{attr}"
            wrapped[fn] = tracer.wrap(name, fn, labels.get(name),
                                      observers.get(name))
    replaced = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])
                replaced.append((module, attr, obj))
    return replaced


def uninstall(replaced) -> None:
    """Restore the functions ``install`` replaced."""
    for module, attr, original in replaced:
        setattr(module, attr, original)
