"""Fig. 8 — the (size, density) classification frontier.

Regenerates the scatter behind Fig. 8: sparse tree-like topologies are
all possible; as density grows, first "sometimes", then impossibility
dominates; for source-destination routing the impossibility frontier sits
at much higher density than for destination-based routing.
"""

from repro.analysis import fig8_table
from repro.core.classification import Possibility


def test_fig8_density(benchmark, zoo_study, report):
    def render():
        return fig8_table(zoo_study)

    table = benchmark.pedantic(render, rounds=1, iterations=1)
    rows = [
        f"{name:<28} n={n:<4} |E|/n={density:4.2f}  dest={dest:<10} sd={sd}"
        for name, n, density, dest, sd in zoo_study.scatter_rows()
    ]
    report("fig8_density", table + "\n\nper-topology rows:\n" + "\n".join(rows))


def test_fig8_density_frontier(benchmark, zoo_study):
    """Quantitative shape: density separates the classes on average."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    by_class = {}
    for c in zoo_study.classifications:
        by_class.setdefault(c.destination, []).append(c.density)
    mean = lambda xs: sum(xs) / len(xs)
    # possible (outerplanar) topologies are the sparsest on average,
    # impossible ones the densest
    assert mean(by_class[Possibility.POSSIBLE]) < mean(by_class[Possibility.SOMETIMES])
    assert mean(by_class[Possibility.SOMETIMES]) < mean(by_class[Possibility.IMPOSSIBLE])


def test_fig8_sd_frontier_higher_than_dest(benchmark, zoo_study):
    """Source-destination impossibility needs denser graphs (Fig. 8 right)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    dest_imp = [c.density for c in zoo_study.classifications if c.destination is Possibility.IMPOSSIBLE]
    sd_imp = [c.density for c in zoo_study.classifications if c.source_destination is Possibility.IMPOSSIBLE]
    assert sd_imp, "some dense cores must be source-destination impossible"
    assert min(sd_imp) > min(dest_imp)

