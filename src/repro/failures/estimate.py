"""Streaming Monte-Carlo estimation over sampled failure models.

Sampled :class:`~repro.failures.models.FailureModel`\\ s stream failure
sets; this layer folds them into point estimates with 95% Wilson score
confidence bounds:

* :func:`estimate_resilience` — the probability that a scheme delivers
  every packet in a random failure scenario (every destination, every
  source in the destination's surviving component);
* :func:`estimate_congestion` — load statistics (mean max link load,
  delivered volume fraction, all-delivered rate) under random failures.

Both are **any-time**: a :class:`~repro.runtime.deadline.Deadline` /
:class:`~repro.runtime.deadline.Budget` is checked before every sample
and charged one unit per sample, so a budget of ``Budget(200)`` yields
exactly the first 200 samples' estimate flagged ``exhaustive=False``
(the latching :meth:`~repro.runtime.deadline.Deadline.expire` seam
stops refinement from outside).  Running estimates are checkpointed
into a ``series`` suitable for ``ExperimentRecord.series``, and every
drawn scenario counts toward ``repro_failure_samples_total{model=...}``.

The per-mask evaluation reuses the engine's warm seams: destination
schemes take each destination's pattern and decision table from the
session state's pattern cache, lazily, and run the engine's per-mask
delivery check; other routing models fall back to the reference
checkers one mask at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import networkx as nx

from repro import obs as _obs

from ..graphs.edges import FailureSet
from ..runtime.deadline import Deadline
from .models import FailureModel

#: 95% two-sided normal quantile (the Wilson default)
Z95 = 1.959963984540054


def wilson_interval(successes: int, trials: int, z: float = Z95) -> tuple[float, float]:
    """The Wilson score interval for a binomial proportion.

    Centre-shrunk toward 1/2 and never outside [0, 1] — well-behaved at
    the extremes (0 or ``trials`` successes) where the naive normal
    interval collapses.  ``trials == 0`` returns the vacuous (0, 1).
    """
    if trials < 0 or successes < 0 or successes > trials:
        raise ValueError(f"bad counts: {successes}/{trials}")
    if trials == 0:
        return (0.0, 1.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    centre = p + z * z / (2.0 * trials)
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    return (max(0.0, (centre - half) / denom), min(1.0, (centre + half) / denom))


def exact_binomial_interval(
    successes: int, trials: int, alpha: float = 0.05
) -> tuple[float, float]:
    """The Clopper-Pearson (exact binomial) interval, via bisection.

    Pure ``math.comb`` — no scipy.  The reference the estimator tests
    cross-check :func:`wilson_interval` against: Wilson must always be
    contained in (or near-coincident with) the conservative exact
    interval on small closed-form cases.
    """
    if trials < 0 or successes < 0 or successes > trials:
        raise ValueError(f"bad counts: {successes}/{trials}")
    if trials == 0:
        return (0.0, 1.0)

    def tail_at_least(p: float) -> float:
        """P[X >= successes] for X ~ Binomial(trials, p)."""
        return sum(
            math.comb(trials, k) * p**k * (1.0 - p) ** (trials - k)
            for k in range(successes, trials + 1)
        )

    def tail_at_most(p: float) -> float:
        """P[X <= successes] for X ~ Binomial(trials, p)."""
        return sum(
            math.comb(trials, k) * p**k * (1.0 - p) ** (trials - k)
            for k in range(0, successes + 1)
        )

    def bisect(func, target: float, increasing: bool) -> float:
        low, high = 0.0, 1.0
        for _ in range(80):  # ~2^-80 precision: far below any test tolerance
            mid = (low + high) / 2.0
            if (func(mid) < target) == increasing:
                low = mid
            else:
                high = mid
        return (low + high) / 2.0

    # lower bound: the p where P[X >= s] = alpha/2 (tail increases in p)
    lower = 0.0 if successes == 0 else bisect(tail_at_least, alpha / 2.0, True)
    # upper bound: the p where P[X <= s] = alpha/2 (tail decreases in p)
    upper = 1.0 if successes == trials else bisect(tail_at_most, alpha / 2.0, False)
    return (lower, upper)


def mean_interval(total: float, total_sq: float, count: int, z: float = Z95):
    """Normal-approximation CI for a sample mean from running sums."""
    if count == 0:
        return (0.0, 0.0, 0.0)
    mean = total / count
    if count == 1:
        return (mean, mean, mean)
    variance = max(0.0, (total_sq - count * mean * mean) / (count - 1))
    half = z * math.sqrt(variance / count)
    return (mean, mean - half, mean + half)


def _count_sample(model: FailureModel) -> None:
    telemetry = _obs.active()
    if telemetry is not None:
        telemetry.count(
            "repro_failure_samples_total",
            help="Monte-Carlo failure scenarios drawn, by model family",
            model=model.family,
        )


class MaskEvaluator:
    """Per-failure-set delivery evaluation for one algorithm on one graph.

    Destination algorithms take the warm path: each mask is the engine's
    per-mask delivery check
    (:meth:`~repro.core.engine.sweep.EngineState.mask_outcome`, the one
    the sweeps and the serve mask memo run) over the destinations in
    graph order — the checkers' order, so the note names the checkers'
    counterexample.  Each destination's pattern comes from the state's
    pattern cache as the walk first reaches it, so nothing is built
    before the first draw and a deadline cut stops the builds too.  A
    naive session's state walks each mask with the reference simulator.
    Source-destination and touring schemes go through
    :func:`~repro.core.resilience.check_resilience` one mask at a time.
    """

    def __init__(self, graph: nx.Graph, algorithm, session=None):
        from ..core.model import DestinationAlgorithm
        from ..experiments.session import resolve_session

        self.graph = graph
        self.algorithm = algorithm
        self.session = resolve_session(session)
        self._state = None
        if isinstance(algorithm, DestinationAlgorithm):
            self._state = self.session.state(graph)

    def delivered(self, failures: FailureSet) -> tuple[bool, str]:
        """Does the scheme deliver every packet under ``failures``?

        Returns ``(delivered, note)`` — the note describes the first
        failing (source, destination) when delivery fails.
        """
        state = self._state
        if state is None:
            from ..core.resilience import check_resilience

            verdict = check_resilience(
                self.graph, self.algorithm, failure_sets=[failures], session=self.session
            )
            note = str(verdict.counterexample) if verdict.counterexample else ""
            return bool(verdict.resilient), note
        for destination in self.graph.nodes:
            memo = state.pattern(self.algorithm, destination)
            _, counterexample = state.mask_outcome(memo, destination, failures)
            if counterexample is not None:
                return False, str(counterexample)
        return True, ""


@dataclass
class ResilienceEstimate:
    """A streamed resilience estimate with Wilson bounds.

    ``exhaustive`` is ``True`` only when every planned sample was drawn
    (a deadline/budget cut leaves it ``False`` — the any-time contract
    shared with the sweeps).  ``series`` holds running checkpoints.
    """

    successes: int
    samples: int
    planned: int
    estimate: float
    ci_low: float
    ci_high: float
    exhaustive: bool
    note: str = ""
    series: list = field(default_factory=list)

    def metrics(self) -> dict:
        """Record-ready scalar metrics (``ExperimentRecord.metrics``)."""
        return {
            "resilient": bool(self.samples > 0 and self.successes == self.samples),
            "estimate": self.estimate,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "successes": self.successes,
            "samples": self.samples,
            "planned_samples": self.planned,
            "sampled": True,
            "exhaustive": self.exhaustive,
        }


def estimate_resilience(
    graph: nx.Graph,
    algorithm,
    model: FailureModel,
    session=None,
    deadline: Deadline | None = None,
    checkpoints: int = 10,
) -> ResilienceEstimate:
    """Monte-Carlo estimate of P[scheme delivers | random failure scenario].

    Draws up to ``model.samples`` scenarios from the model's stream,
    charging one deadline/budget unit per sample; a cut stops cleanly
    before the next draw with the completed prefix (``exhaustive=False``).
    """
    evaluator = MaskEvaluator(graph, algorithm, session=session)
    planned = int(model.samples)
    step = max(1, planned // checkpoints) if checkpoints else planned
    stream = model.sample(graph)
    successes = drawn = 0
    note = ""
    series: list[dict] = []

    def checkpoint() -> dict:
        low, high = wilson_interval(successes, drawn)
        return {
            "samples": drawn,
            "successes": successes,
            "estimate": successes / drawn if drawn else 0.0,
            "ci_low": low,
            "ci_high": high,
        }

    for _ in range(planned):
        if deadline is not None and deadline.expired():
            break
        failures = next(stream)
        ok, failure_note = evaluator.delivered(failures)
        drawn += 1
        if ok:
            successes += 1
        elif not note:
            note = failure_note
        _count_sample(model)
        if deadline is not None:
            deadline.charge()
        if drawn % step == 0:
            series.append(checkpoint())
    if drawn and (not series or series[-1]["samples"] != drawn):
        series.append(checkpoint())
    low, high = wilson_interval(successes, drawn)
    return ResilienceEstimate(
        successes=successes,
        samples=drawn,
        planned=planned,
        estimate=successes / drawn if drawn else 0.0,
        ci_low=low,
        ci_high=high,
        exhaustive=drawn == planned,
        note=note,
        series=series,
    )


@dataclass
class CongestionEstimate:
    """Streamed congestion statistics under random failures."""

    samples: int
    planned: int
    exhaustive: bool
    mean_max_load: float
    max_load_ci_low: float
    max_load_ci_high: float
    delivered_fraction: float
    delivered_ci_low: float
    delivered_ci_high: float
    all_delivered_rate: float
    all_delivered_ci_low: float
    all_delivered_ci_high: float
    mean_stretch: float
    series: list = field(default_factory=list)

    def metrics(self) -> dict:
        return {
            "mean_max_load": self.mean_max_load,
            "max_load_ci_low": self.max_load_ci_low,
            "max_load_ci_high": self.max_load_ci_high,
            "delivered_fraction": self.delivered_fraction,
            "delivered_ci_low": self.delivered_ci_low,
            "delivered_ci_high": self.delivered_ci_high,
            "all_delivered_rate": self.all_delivered_rate,
            "all_delivered_ci_low": self.all_delivered_ci_low,
            "all_delivered_ci_high": self.all_delivered_ci_high,
            "samples": self.samples,
            "sampled": True,
            "exhaustive": self.exhaustive,
        }

    def stretch_metrics(self) -> dict:
        return {
            "mean_stretch": self.mean_stretch,
            "samples": self.samples,
            "sampled": True,
            "exhaustive": self.exhaustive,
        }


def estimate_congestion(
    graph: nx.Graph,
    algorithm,
    demands,
    model: FailureModel,
    session=None,
    deadline: Deadline | None = None,
    checkpoints: int = 10,
) -> tuple[CongestionEstimate | None, str | None]:
    """Monte-Carlo load statistics for one scheme under a sampled model.

    Same pre-flight contract as :func:`repro.traffic.congestion.
    preflight_congestion_curve` — ``(estimate, None)`` or ``(None, skip
    reason)`` when the scheme cannot build on the topology.  Loads come
    from the session's load router (per-packet simulation on a naive
    session), one scenario per deadline/budget unit.
    """
    from ..experiments.session import resolve_session

    engine = resolve_session(session).traffic_engine(graph, algorithm)
    try:
        engine.load(demands)  # pre-flight
    except Exception as error:  # noqa: BLE001 - precondition failures vary by algorithm
        return None, str(error) or type(error).__name__

    planned = int(model.samples)
    step = max(1, planned // checkpoints) if checkpoints else planned
    stream = model.sample(graph)
    drawn = 0
    max_load_sum = max_load_sq = 0.0
    delivered_volume = total_volume = 0
    all_delivered = 0
    stretch_volume = 0.0
    series: list[dict] = []

    def checkpoint() -> dict:
        mean, low, high = mean_interval(max_load_sum, max_load_sq, drawn)
        rate_low, rate_high = wilson_interval(all_delivered, drawn)
        return {
            "samples": drawn,
            "mean_max_load": mean,
            "max_load_ci_low": low,
            "max_load_ci_high": high,
            "delivered_fraction": delivered_volume / total_volume if total_volume else 0.0,
            "all_delivered_rate": all_delivered / drawn if drawn else 0.0,
            "all_delivered_ci_low": rate_low,
            "all_delivered_ci_high": rate_high,
            "mean_stretch": stretch_volume / delivered_volume if delivered_volume else 0.0,
        }

    for _ in range(planned):
        if deadline is not None and deadline.expired():
            break
        failures = next(stream)
        report = engine.load_sweep(demands, [failures])[0]
        drawn += 1
        max_load_sum += report.max_load
        max_load_sq += report.max_load * report.max_load
        delivered_volume += report.delivered_volume
        total_volume += report.total_volume
        stretch_volume += report.stretch_volume
        if report.delivered_volume == report.total_volume:
            all_delivered += 1
        _count_sample(model)
        if deadline is not None:
            deadline.charge()
        if drawn % step == 0:
            series.append(checkpoint())
    if drawn and (not series or series[-1]["samples"] != drawn):
        series.append(checkpoint())

    mean, low, high = mean_interval(max_load_sum, max_load_sq, drawn)
    # delivered volumes are integer unit counts, so the Wilson interval
    # on (delivered, total) volume is a genuine binomial bound
    volume_low, volume_high = wilson_interval(int(delivered_volume), int(total_volume))
    rate_low, rate_high = wilson_interval(all_delivered, drawn)
    return (
        CongestionEstimate(
            samples=drawn,
            planned=planned,
            exhaustive=drawn == planned,
            mean_max_load=mean,
            max_load_ci_low=low,
            max_load_ci_high=high,
            delivered_fraction=delivered_volume / total_volume if total_volume else 0.0,
            delivered_ci_low=volume_low,
            delivered_ci_high=volume_high,
            all_delivered_rate=all_delivered / drawn if drawn else 0.0,
            all_delivered_ci_low=rate_low,
            all_delivered_ci_high=rate_high,
            mean_stretch=stretch_volume / delivered_volume if delivered_volume else 0.0,
            series=series,
        ),
        None,
    )
