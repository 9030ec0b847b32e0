"""Deterministic fault injection: seeded plans that break things on purpose.

The recovery paths in this package — checkpoint/resume grids, the
crash-recovering ``parallel_map``, atomic result-store writes — are only
trustworthy if something actually exercises them.  A :class:`FaultPlan`
injects failures at named *sites* instrumented through the runtime:

=============== ================================= ==========================
fault kind       where it fires                    what it simulates
=============== ================================= ==========================
``cell-error``   ``run_grid``, per grid cell       a recoverable per-cell
                                                   exception (OOM, a buggy
                                                   scheme) → typed error
                                                   record, grid continues
``grid-kill``    ``run_grid``, per grid cell       a hard crash of the whole
                                                   driver (kill -9, power
                                                   loss) — the journal keeps
                                                   every completed cell
``worker-crash`` ``parallel_map``, per item: each  a forked worker dying
                 computed cell of a ``run_grid``   mid-cell (segfault, OOM
                 cell fan-out (decided in the      kill)
                 parent, executed in the worker
                 via ``os._exit``)
``slow-chunk``   ``parallel_map``, per item, as    a wedged cell (sleeps,
                 above                             triggering the timeout
                                                   path)
``torn-write``   ``atomic_write_text``             a crash mid-write — bytes
                                                   hit the temp file, never
                                                   the store
=============== ================================= ==========================

Plans are deterministic: given the same seed and the same sequence of
site visits, the same faults fire.  ``at=``-based specs key off the
visit index (cell number, item index); ``rate=``-based specs decide by
a seeded hash of ``(seed, kind, index)``, independent of visit order.
``parallel_map`` retries pass their attempt number, so a spec can fire
on the first attempt only (the default — the retry then recovers) or on
every attempt (``attempts=all`` — the poisoned chunk then lands in the
serial fallback).

Install a plan with :meth:`FaultPlan.installed`; the instrumented sites
call the module-level :func:`fire`, which is a no-op (``None``) when no
plan is active — production runs pay one global read per site visit.
The CLI exposes plans as ``repro experiments --inject-faults
"worker-crash:at=0;cell-error:rate=0.2"``; the worker faults fire only
with ``--processes`` above 1, in the grid's cell fan-out.
"""

from __future__ import annotations

import contextlib
import random
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from repro import obs


class InjectedFault(RuntimeError):
    """A recoverable injected failure (becomes a typed error record)."""


class GridKill(BaseException):
    """A simulated hard crash of the grid driver.

    Deliberately a ``BaseException``: the per-cell recovery in
    ``run_grid`` catches ``Exception``, and it must not be able to
    swallow a simulated kill any more than it could catch a real
    SIGKILL.
    """


class TornWrite(BaseException):
    """A simulated crash mid-write (bytes only ever hit the temp file)."""


#: fault kind -> instrumented site
_SITES = {
    "cell-error": "cell",
    "grid-kill": "cell",
    "worker-crash": "worker",
    "slow-chunk": "worker",
    "torn-write": "store-write",
}


@dataclass(frozen=True)
class FaultSpec:
    """One kind of fault and the visits on which it fires.

    Selectors, in precedence order: ``rate`` (seeded coin per visit
    index), ``at`` (explicit 0-based visit indices), neither (every
    visit).  ``attempts`` filters ``parallel_map`` retry attempts
    (``None`` = all attempts; the default fires on attempt 0 only, so
    the retry recovers).  ``seconds`` is the ``slow-chunk`` sleep.
    """

    kind: str
    at: tuple[int, ...] = ()
    rate: float | None = None
    attempts: tuple[int, ...] | None = (0,)
    seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in _SITES:
            raise ValueError(f"unknown fault kind {self.kind!r}; known: {sorted(_SITES)}")
        if self.rate is not None and not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")

    @property
    def site(self) -> str:
        return _SITES[self.kind]

    def triggers(self, seed: int, index: int, attempt: int) -> bool:
        if self.attempts is not None and attempt not in self.attempts:
            return False
        if self.rate is not None:
            return random.Random(f"{seed}:{self.kind}:{index}").random() < self.rate
        if self.at:
            return index in self.at
        return True


class FaultPlan:
    """A seeded, deterministic set of :class:`FaultSpec` injections.

    Sites visited without an explicit index (the store-write site) use a
    per-site visit counter, so "the third write" is addressable with
    ``at=2``.  Counters live in the process that calls :meth:`fire`;
    the driver makes all decisions for forked workers (``parallel_map``
    asks the plan in the parent and ships the verdict with the item),
    so fork copies never desynchronize the plan.
    """

    def __init__(self, specs: Sequence[FaultSpec], seed: int = 0):
        self.specs = list(specs)
        self.seed = seed
        self._visits: dict[str, int] = {}

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultPlan":
        """Parse ``"kind:key=val,key=val;kind:..."`` (the CLI syntax).

        Keys: ``at`` (``+``-separated 0-based indices), ``rate``
        (float in [0, 1]), ``attempts`` (``+``-separated attempt
        numbers, or ``all``), ``seconds`` (slow-chunk sleep).

        >>> plan = FaultPlan.parse("worker-crash:at=0;cell-error:rate=0.5", seed=7)
        >>> [spec.kind for spec in plan.specs]
        ['worker-crash', 'cell-error']
        """
        specs = []
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            kind, _, params = chunk.partition(":")
            kwargs: dict = {}
            for pair in params.split(","):
                pair = pair.strip()
                if not pair:
                    continue
                name, _, value = pair.partition("=")
                name, value = name.strip(), value.strip()
                if name == "at":
                    kwargs["at"] = tuple(int(token) for token in value.split("+"))
                elif name == "rate":
                    kwargs["rate"] = float(value)
                elif name == "attempts":
                    kwargs["attempts"] = (
                        None if value == "all" else tuple(int(t) for t in value.split("+"))
                    )
                elif name == "seconds":
                    kwargs["seconds"] = float(value)
                else:
                    raise ValueError(f"unknown fault parameter {name!r} in {chunk!r}")
            specs.append(FaultSpec(kind=kind.strip(), **kwargs))
        if not specs:
            raise ValueError(f"empty fault plan: {text!r}")
        return cls(specs, seed=seed)

    def fire(self, site: str, index: int | None = None, attempt: int = 0) -> FaultSpec | None:
        """The first spec triggering on this visit of ``site``, or ``None``."""
        if index is None:
            index = self._visits.get(site, 0)
            self._visits[site] = index + 1
        for spec in self.specs:
            if spec.site == site and spec.triggers(self.seed, index, attempt):
                return spec
        return None

    @contextlib.contextmanager
    def installed(self) -> Iterator["FaultPlan"]:
        """Install as the process-wide active plan (inherited by forks)."""
        global _ACTIVE
        previous = _ACTIVE
        _ACTIVE = self
        try:
            yield self
        finally:
            _ACTIVE = previous

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultPlan({[spec.kind for spec in self.specs]}, seed={self.seed})"


_ACTIVE: FaultPlan | None = None


def active_plan() -> FaultPlan | None:
    """The currently installed plan, if any."""
    return _ACTIVE


def fire(site: str, index: int | None = None, attempt: int = 0) -> FaultSpec | None:
    """Site hook: ask the active plan (no-op when none is installed)."""
    plan = _ACTIVE
    if plan is None:
        return None
    spec = plan.fire(site, index, attempt)
    if spec is not None:
        telemetry = obs.active()
        if telemetry is not None:
            telemetry.count(
                "repro_faults_fired_total",
                help="injected faults that triggered, by kind",
                kind=spec.kind,
            )
            telemetry.point("fault_fired", kind=spec.kind, site=site, attempt=attempt)
    return spec
