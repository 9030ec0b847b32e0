"""§VIII case study driver: classify a topology suite and aggregate.

Produces the data behind Fig. 7 (per-model classification percentages),
Fig. 8 (size/density scatter with classes), and the headline statistics
the paper quotes in prose (share of planar-but-not-outerplanar
topologies, share classifiable as planar *and* impossible, average
fraction of good destinations among "sometimes" topologies).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

from ..core.classification import Classification, Possibility, classify
from ..graphs.zoo import ZooTopology, generate_zoo

MODELS = ("touring", "destination", "source_destination")


@dataclass
class CaseStudyResult:
    """All per-topology classifications plus aggregate views."""

    classifications: list[Classification]
    elapsed_seconds: float = 0.0
    per_model_counts: dict[str, Counter] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.per_model_counts:
            self.per_model_counts = {
                model: Counter(getattr(c, model) for c in self.classifications)
                for model in MODELS
            }

    @property
    def total(self) -> int:
        return len(self.classifications)

    def percentage(self, model: str, possibility: Possibility) -> float:
        if not self.classifications:
            return 0.0
        return 100.0 * self.per_model_counts[model][possibility] / self.total

    def planarity_share(self, kind: str) -> float:
        """Share of topologies in one planarity class (Fig. 7 row labels)."""
        count = sum(1 for c in self.classifications if c.planarity == kind)
        return 100.0 * count / self.total if self.total else 0.0

    def planar_and_impossible_destination(self) -> float:
        """The paper's 31.3% statistic: planar yet destination-impossible."""
        count = sum(
            1
            for c in self.classifications
            if c.planarity == "planar" and c.destination is Possibility.IMPOSSIBLE
        )
        return 100.0 * count / self.total if self.total else 0.0

    def mean_good_destination_fraction(self) -> float:
        """The paper's 21.3% statistic, over "sometimes" topologies."""
        fractions = [
            c.good_destination_fraction
            for c in self.classifications
            if c.destination is Possibility.SOMETIMES
        ]
        return 100.0 * sum(fractions) / len(fractions) if fractions else 0.0

    def scatter_rows(self) -> list[tuple[str, int, float, str, str]]:
        """Fig. 8 rows: (name, n, density, destination class, s-d class)."""
        return [
            (c.name, c.n, c.density, c.destination.value, c.source_destination.value)
            for c in self.classifications
        ]


def run_case_study(
    suite: list[ZooTopology] | None = None,
    minor_budget: int = 20_000,
    destination_cap: int = 400,
    seed: int = 2022,
) -> CaseStudyResult:
    """Classify the (synthetic) Topology Zoo suite."""
    if suite is None:
        suite = generate_zoo(seed=seed)
    start = time.perf_counter()
    classifications = [
        classify(
            topology.graph,
            name=topology.name,
            minor_budget=minor_budget,
            destination_cap=destination_cap,
        )
        for topology in suite
    ]
    elapsed = time.perf_counter() - start
    return CaseStudyResult(classifications=classifications, elapsed_seconds=elapsed)
