"""Span tracing installed around mgems functions for the traced run only.

Wrappers replace module-level functions in the namespaces that call them,
record one span per call (name, start, end, parent) and restore the
originals on uninstall. A function that a later commit renamed or removed
is reported as missing instead of failing the run.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    """Wrap ``module.attr`` as span ``name``; ``count`` maps a call to a count."""

    module: str
    attr: str
    name: str
    count: tuple | None = None  # (counter name, function of (args, result))


# The layer functions named in the benchmark's per-layer metrics, in every
# namespace that calls them. The same function object imported into two
# namespaces is wrapped once per namespace, each wrapper calling the
# original, so a call is never counted twice.
TARGETS = (
    Target("mgems.profiles", "load_profile", "profiles.load_profile"),
    Target("mgems.cli", "load_profile", "profiles.load_profile"),
    Target("mgems.profiles", "parse_profile", "profiles.parse_profile",
           ("profiles.rows", lambda args, result: len(result))),
    Target("mgems.profiles", "resource_to_inputs", "profiles.resource_to_inputs"),
    Target("mgems.profiles", "convert_prices", "profiles.convert_prices"),
    Target("mgems.scenarios", "run_matrix", "scenarios.run_matrix"),
    Target("mgems.cli", "run_matrix", "scenarios.run_matrix"),
    Target("mgems.scenarios", "apply_scenario", "scenarios.apply_scenario",
           ("scenarios.apply_scenario.calls", lambda args, result: 1)),
    Target("mgems.scenarios", "run_arrays", "dispatch.run_arrays"),
    Target("mgems.cli", "run_arrays", "dispatch.run_arrays"),
    Target("mgems.dispatch", "_kernel_run", "dispatch.kernel",
           ("dispatch.steps", lambda args, result: len(args[0]))),
    Target("mgems.scenarios", "check_balance", "dispatch.check_balance"),
    Target("mgems.cli", "check_balance", "dispatch.check_balance"),
    Target("mgems.scenarios", "build_report", "metrics.build_report"),
    Target("mgems.cli", "build_report", "metrics.build_report"),
    Target("mgems.cli", "trace_csv_bytes", "cli.trace_csv_bytes",
           ("cli.trace_bytes", lambda args, result: len(result))),
    Target("mgems.cli", "report_json_bytes", "cli.report_json_bytes"),
    Target("mgems.cli", "_write_outputs", "cli.write_outputs"),
)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0


class Tracer:
    """Collects spans in memory; a thread-local stack supplies parents.

    Worker threads start with an empty stack. Their top-level spans take as
    parent the innermost span open on the thread that installed the tracer
    (the load generator), which is the ``run_matrix`` call that started the
    pool.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        try:
            parent = (stack or self._owner_stack)[-1]
        except IndexError:
            parent = None
        span = Span(next(self._ids), name, parent, time.perf_counter())
        stack.append(span.id)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def add_count(self, name: str, value: int) -> None:
        with self._lock:
            self.counts[name] += value

    def mark_missing(self, name: str) -> None:
        with self._lock:
            if name not in self.missing:
                self.missing.append(name)

    def _wrap(self, target: Target, original):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.begin(target.name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if target.count is not None:
                counter, measure = target.count
                try:
                    tracer.add_count(counter, measure(args, result))
                except TypeError:  # the value no longer has a length
                    tracer.mark_missing(counter)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def install(self) -> None:
        for target in TARGETS:
            try:
                module = importlib.import_module(target.module)
                original = getattr(module, target.attr)
            except (ImportError, AttributeError):
                self.mark_missing(f"{target.module}.{target.attr}")
                continue
            self._installed.append((module, target.attr, original))
            setattr(module, target.attr, self._wrap(target, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def reset(self) -> None:
        with self._lock:
            self.spans.clear()
            self.counts.clear()


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: total seconds, self seconds and children's seconds.

    Self time is a span's duration minus the part of its interval that its
    child spans cover; ``child_s`` sums the children's durations, which can
    exceed the parent's when children overlap in worker threads.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"s": 0.0, "self_s": 0.0, "child_s": 0.0})
    for span in spans:
        kids = children.get(span.id, [])
        duration = span.end - span.start
        entry = out[span.name]
        entry["s"] += duration
        entry["self_s"] += duration - _covered(
            [(k.start, k.end) for k in kids], span.start, span.end)
        entry["child_s"] += sum(k.end - k.start for k in kids)
    return dict(out)
