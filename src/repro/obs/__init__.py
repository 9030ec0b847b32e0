"""Deterministic, zero-dependency observability: metrics + span traces.

This is the bottom-most layer of the package — it imports nothing from
the rest of ``repro``, so every other layer (runtime, engine, traffic,
experiments) is free to instrument itself against it.

Activation is explicit and process-global: instrumented code does ::

    from repro import obs
    telemetry = obs.active()
    if telemetry is not None:
        telemetry.count("repro_engine_walks_total", kind="indexed")

and pays exactly one module-global read when telemetry is off — the
hard requirement that keeps the innermost mask-walk loops clean.  The
CLI (or a test) turns telemetry on for a region with ::

    with obs.installed(obs.Telemetry(trace_path="trace.jsonl")) as telemetry:
        run_grid(...)
        print(telemetry.registry.render_prometheus())

Telemetry never feeds back into results: nothing in this package is
read by verdict or record code, and the determinism suite pins a
telemetry-on grid run byte-identical to a telemetry-off one.
"""

from __future__ import annotations

import contextlib
import os

from .metrics import DEFAULT_BUCKETS, MetricsRegistry, diff_snapshots, load_snapshot
from .stats import render_metrics_report, render_report, render_trace_report
from .trace import TraceError, TraceWriter, read_trace, validate_trace

__all__ = [
    "DEFAULT_BUCKETS",
    "MetricsRegistry",
    "Telemetry",
    "TraceError",
    "TraceWriter",
    "active",
    "diff_snapshots",
    "installed",
    "load_snapshot",
    "point",
    "read_trace",
    "render_metrics_report",
    "render_report",
    "render_trace_report",
    "span",
    "validate_trace",
]


class Telemetry:
    """One activation's worth of telemetry: a registry, optionally a trace.

    Forked workers inherit the active ``Telemetry`` object; the metrics
    registry is per-process (workers diff-and-ship deltas which the
    parent merges — see ``parallel_map``), while the trace writer pid-
    guards itself so only the opening process writes the file.
    """

    def __init__(self, trace_path=None):
        self.registry = MetricsRegistry()
        self.trace = TraceWriter(trace_path) if trace_path is not None else None
        self._pid = os.getpid()

    # -- metrics convenience -----------------------------------------------

    def count(self, name: str, value: float = 1.0, help: str = "", **labels) -> None:
        self.registry.count(name, value, help, **labels)

    def observe(self, name: str, value: float, help: str = "", **labels) -> None:
        self.registry.observe(name, value, help, **labels)

    def gauge_max(self, name: str, value: float, help: str = "", **labels) -> None:
        self.registry.gauge_max(name, value, help, **labels)

    def set_gauge(self, name: str, value: float, help: str = "", **labels) -> None:
        self.registry.set_gauge(name, value, help, **labels)

    # -- trace convenience (no-ops without a trace writer) -----------------

    def point(self, name: str, **attrs) -> None:
        if self.trace is not None:
            self.trace.point(name, **attrs)

    def span(self, name: str, **attrs):
        if self.trace is not None:
            return self.trace.span(name, **attrs)
        return contextlib.nullcontext()

    def close(self) -> None:
        if self.trace is not None:
            self.trace.close()

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: the process-global activation; ``None`` keeps instrumentation free
_ACTIVE: Telemetry | None = None


def active() -> Telemetry | None:
    """The installed :class:`Telemetry`, or ``None`` (the default)."""
    return _ACTIVE


@contextlib.contextmanager
def installed(telemetry: Telemetry):
    """Install ``telemetry`` as the process-global activation.

    Re-entrant installs nest (the previous activation is restored on
    exit); the telemetry object is *not* closed here — the creator owns
    the trace file handle.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = telemetry
    try:
        yield telemetry
    finally:
        _ACTIVE = previous


def span(name: str, **attrs):
    """A trace span against the active telemetry (no-op when off)."""
    telemetry = _ACTIVE
    if telemetry is None or telemetry.trace is None:
        return contextlib.nullcontext()
    return telemetry.trace.span(name, **attrs)


def point(name: str, **attrs) -> None:
    """A trace point against the active telemetry (no-op when off)."""
    telemetry = _ACTIVE
    if telemetry is not None and telemetry.trace is not None:
        telemetry.trace.point(name, **attrs)
