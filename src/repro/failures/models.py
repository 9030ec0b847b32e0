"""First-class failure models: deterministic grids and streaming samplers.

A :class:`FailureModel` names a distribution over link-failure sets and
owns its identity: the :attr:`~FailureModel.label` is the stable string
every surface keys on (record merge identities, journal cell keys, the
serve answer cache), so two processes that built the same model agree on
what they measured.  Models come in two flavours:

* **grid models** (``sampled=False``) materialize a deterministic
  ``{size: [failure sets]}`` grid via :meth:`~FailureModel.grid` — the
  sweeps enumerate every set and the verdicts are exact over the grid;
* **sampled models** (``sampled=True``) additionally expose
  :meth:`~FailureModel.sample`, an endless seeded stream of failure
  sets that the estimator layer (:mod:`repro.failures.estimate`) folds
  into point estimates with Wilson confidence bounds.

Every model is deterministic in its parameters and independent of
``PYTHONHASHSEED``: links and nodes are canonicalized with
:func:`~repro.graphs.edges.edge_sort_key` / :func:`~repro.graphs.edges.
sorted_nodes` before any seeded draw (the same discipline that fixed
the arborescence-packing hash-seed leak).
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass

import networkx as nx

from ..graphs.edges import FailureSet, canonical_links, edge, sorted_nodes


def sample_failure_grid(
    graph: nx.Graph,
    sizes: list[int],
    samples: int,
    seed: int = 0,
) -> dict[int, list[FailureSet]]:
    """A deterministic failure-set grid: ``samples`` sets per size.

    Shared across algorithms by :func:`repro.traffic.congestion.
    compare_congestion` so that every competitor faces identical
    scenarios.  Size 0 contributes the single empty set; other sizes
    draw uniform link subsets without replacement within a sample.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    links = canonical_links(graph)
    rng = random.Random(seed)
    grid: dict[int, list[FailureSet]] = {}
    for size in sizes:
        if size < 0 or size > len(links):
            raise ValueError(f"failure size {size} out of range [0, {len(links)}]")
        if size == 0:
            grid[size] = [frozenset()]
            continue
        seen: set[FailureSet] = set()
        sets: list[FailureSet] = []
        for _ in range(samples):
            candidate = frozenset(rng.sample(links, size))
            if candidate in seen:
                continue  # duplicates add no information on tiny graphs
            seen.add(candidate)
            sets.append(candidate)
        grid[size] = sets
    return grid


def default_sizes(graph: nx.Graph) -> list[int]:
    """A sensible size ladder: 0, 1, 2, 4, ... up to half the links."""
    limit = max(1, graph.number_of_edges() // 2)
    sizes = [0]
    step = 1
    while step <= limit:
        sizes.append(step)
        step *= 2
    return sizes


class FailureModel:
    """The failure-model protocol (see module doc).

    Subclasses are frozen dataclasses: hashable (``run_grid`` keys its
    per-topology grids on the model) and deterministic in their fields.
    ``family`` is the spec-grammar name (``parse_failure_model`` round-
    trips every :attr:`label` back to an equal model).
    """

    #: spec-grammar name, e.g. ``"random"`` — also the metrics label
    family = ""
    #: sampled models stream through the estimator instead of a grid sweep
    sampled = False

    @property
    def label(self) -> str:
        """Stable identity string: ``family(key=value,...)``."""
        raise NotImplementedError

    def grid(self, graph: nx.Graph) -> dict[int, list[FailureSet]]:
        """A deterministic ``{size: [failure sets]}`` grid."""
        raise NotImplementedError

    def sample(self, graph: nx.Graph, rng: random.Random | None = None) -> Iterator[FailureSet]:
        """An endless seeded stream of failure sets (sampled models only)."""
        raise NotImplementedError(f"{type(self).__name__} is not a sampled model")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.label


def _fmt(value: float) -> str:
    """Float formatting for labels: shortest round-trippable form."""
    return f"{value:g}"


@dataclass(frozen=True)
class RandomGridModel(FailureModel):
    """A seeded random failure grid: ``samples`` link sets per size.

    ``sizes=None`` uses each topology's default ladder (0, 1, 2, 4, ...
    up to half the links).  The grid is deterministic in ``seed`` and
    shared across every scheme of the same ``run_grid`` call.  This is
    the pre-``repro.failures`` behaviour bit for bit — labels and grids
    are pinned byte-identical by a differential fixture test.
    """

    sizes: tuple[int, ...] | None = None
    samples: int = 10
    seed: int = 0

    family = "random"

    @property
    def label(self) -> str:
        sizes = "auto" if self.sizes is None else "/".join(map(str, self.sizes))
        return f"random(sizes={sizes},samples={self.samples},seed={self.seed})"

    def grid(self, graph: nx.Graph) -> dict[int, list[FailureSet]]:
        sizes = list(self.sizes) if self.sizes is not None else default_sizes(graph)
        return sample_failure_grid(graph, sizes, self.samples, self.seed)


@dataclass(frozen=True)
class ExhaustiveModel(FailureModel):
    """Every failure set up to ``k`` links — the exact ground truth.

    Mirrors :func:`repro.core.resilience.all_failure_sets`; feasible
    only while ``C(m, k)`` stays small, which is exactly what the
    sampled models exist to escape.
    """

    k: int = 2

    family = "exhaustive"

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")

    @property
    def label(self) -> str:
        return f"exhaustive(k={self.k})"

    def grid(self, graph: nx.Graph) -> dict[int, list[FailureSet]]:
        from itertools import combinations

        links = canonical_links(graph)
        limit = min(self.k, len(links))
        return {
            size: [frozenset(combo) for combo in combinations(links, size)]
            for size in range(limit + 1)
        }


class _SampledModel(FailureModel):
    """Shared plumbing for Monte-Carlo models: grid-by-materialization."""

    sampled = True

    def grid(self, graph: nx.Graph) -> dict[int, list[FailureSet]]:
        """The first ``samples`` draws, grouped by set size.

        Lets every grid-shaped surface (the traffic CLI, congestion
        curves) consume a sampled model; the estimator layer prefers
        the stream.
        """
        grid: dict[int, list[FailureSet]] = {}
        stream = self.sample(graph)
        for _ in range(self.samples):
            failures = next(stream)
            grid.setdefault(len(failures), []).append(failures)
        return {size: grid[size] for size in sorted(grid)}


@dataclass(frozen=True)
class IIDModel(_SampledModel):
    """Independent per-link Bernoulli failures with probability ``p``.

    The classic model of the static-failover literature (Chiesa et al.,
    arXiv:1409.0034): every link fails independently, so failure-set
    sizes are binomially distributed around ``p * m``.
    """

    p: float = 0.01
    samples: int = 100
    seed: int = 0

    family = "iid"

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")

    @property
    def label(self) -> str:
        return f"iid(p={_fmt(self.p)},samples={self.samples},seed={self.seed})"

    def sample(self, graph: nx.Graph, rng: random.Random | None = None) -> Iterator[FailureSet]:
        links = canonical_links(graph)
        rng = rng if rng is not None else random.Random(self.seed)
        while True:
            yield frozenset(link for link in links if rng.random() < self.p)


@dataclass(frozen=True)
class SRLGModel(_SampledModel):
    """Shared-risk link groups: correlated failures, whole groups at once.

    Links are partitioned deterministically (seeded shuffle of the
    canonical link order, round-robin into ``groups`` buckets — a stand-
    in for conduits/fiber spans sharing physical risk); each group then
    fails independently with probability ``p`` per sample, taking all
    its links down together.
    """

    groups: int = 4
    p: float = 0.05
    samples: int = 100
    seed: int = 0

    family = "srlg"

    def __post_init__(self) -> None:
        if self.groups < 1:
            raise ValueError(f"groups must be >= 1, got {self.groups}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")

    @property
    def label(self) -> str:
        return (
            f"srlg(groups={self.groups},p={_fmt(self.p)},"
            f"samples={self.samples},seed={self.seed})"
        )

    def partition(self, graph: nx.Graph) -> list[list]:
        """The deterministic risk groups (exposed for tests and docs)."""
        links = canonical_links(graph)
        shuffler = random.Random(self.seed)
        shuffler.shuffle(links)
        count = min(self.groups, len(links)) or 1
        buckets: list[list] = [[] for _ in range(count)]
        for position, link in enumerate(links):
            buckets[position % count].append(link)
        return buckets

    def sample(self, graph: nx.Graph, rng: random.Random | None = None) -> Iterator[FailureSet]:
        buckets = self.partition(graph)
        # draw seed offset by 1: group membership and failure draws stay
        # independent streams even though both derive from `seed`
        rng = rng if rng is not None else random.Random(self.seed + 1)
        while True:
            failed: set = set()
            for bucket in buckets:
                if rng.random() < self.p:
                    failed.update(bucket)
            yield frozenset(failed)


@dataclass(frozen=True)
class RegionalModel(_SampledModel):
    """Regional outages: a BFS ball of links around seeded centers.

    Per sample, ``centers`` nodes are drawn uniformly (canonical node
    order, so draws are hash-seed independent) and every link with an
    endpoint within ``radius - 1`` hops of a center fails — ``radius=1``
    is a node outage (all its links), ``radius=2`` takes out the
    center's whole neighbourhood, modelling localized physical damage.
    """

    radius: int = 1
    centers: int = 1
    samples: int = 100
    seed: int = 0

    family = "regional"

    def __post_init__(self) -> None:
        if self.radius < 1:
            raise ValueError(f"radius must be >= 1, got {self.radius}")
        if self.centers < 1:
            raise ValueError(f"centers must be >= 1, got {self.centers}")
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")

    @property
    def label(self) -> str:
        return (
            f"regional(radius={self.radius},centers={self.centers},"
            f"samples={self.samples},seed={self.seed})"
        )

    def sample(self, graph: nx.Graph, rng: random.Random | None = None) -> Iterator[FailureSet]:
        nodes = sorted_nodes(graph.nodes)
        rng = rng if rng is not None else random.Random(self.seed)
        while True:
            chosen = [rng.choice(nodes) for _ in range(min(self.centers, len(nodes)))]
            ball: set = set()
            for center in chosen:
                ball.update(
                    nx.single_source_shortest_path_length(
                        graph, center, cutoff=self.radius - 1
                    )
                )
            yield frozenset(
                edge(u, v) for u, v in graph.edges if u in ball or v in ball
            )
