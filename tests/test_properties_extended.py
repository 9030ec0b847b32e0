"""Extended hypothesis property tests over the paper's core invariants."""

import json
import pathlib
import tempfile

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.algorithms import (
    Distance3BipartiteAlgorithm,
    GreedyLowestNeighbor,
    K33SourceRouting,
    K5Minus2Routing,
    RightHandTouring,
)
from repro.core.algorithms.minor_transfer import (
    contract_link_with_pattern,
    delete_link_with_pattern,
)
from repro.core.applications import TouringBroadcast
from repro.core.engine import EngineState
from repro.core.resilience import all_failure_sets, check_pattern_resilience
from repro.core.simulator import Network, route
from repro.experiments import ExperimentRecord, ResultStore
from repro.graphs import construct
from repro.graphs.connectivity import are_connected, component_of
from repro.graphs.edges import edge, edges
from repro.graphs.minors import MinorOutcome, contains_subgraph, has_minor
from repro.runtime import FaultPlan, FaultSpec, TornWrite


@st.composite
def bipartite_subgraph_33(draw):
    """A random subgraph of K3,3 (with all six nodes present)."""
    possible = [(u, v) for u in range(3) for v in range(3, 6)]
    chosen = draw(st.lists(st.sampled_from(possible), unique=True, min_size=1))
    graph = nx.Graph()
    graph.add_nodes_from(range(6))
    graph.add_edges_from(chosen)
    return graph


@st.composite
def failures_of(draw, graph):
    links = sorted((edge(u, v) for u, v in graph.edges), key=repr)
    failed = draw(st.lists(st.sampled_from(links), unique=True)) if links else []
    return edges(failed)


# ---------------------------------------------------------------------------
# Theorem 9 as a property over random K3,3 subgraphs and failures.
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_k33_tables_deliver_on_random_subgraphs(data):
    graph = data.draw(bipartite_subgraph_33())
    failures = data.draw(failures_of(graph))
    source = data.draw(st.sampled_from(sorted(graph.nodes)))
    destination = data.draw(st.sampled_from(sorted(graph.nodes)))
    if source == destination or not are_connected(graph, source, destination, failures):
        return
    pattern = K33SourceRouting().build(graph, source, destination)
    assert route(graph, pattern, source, destination, failures).delivered


# ---------------------------------------------------------------------------
# Theorem 12 as a property over random destinations of K5^-2 variants.
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    first=st.integers(min_value=0, max_value=9),
    second=st.integers(min_value=0, max_value=9),
    destination=st.integers(min_value=0, max_value=4),
)
def test_k5_minus_2_random_removals(first, second, destination):
    links = sorted(construct.complete_graph(5).edges)
    if first == second:
        return
    graph = construct.minus_links(construct.complete_graph(5), [links[first], links[second]])
    router = K5Minus2Routing()
    if not router.supports(graph, destination):
        # only possible when this destination hits the Thm 10 frontier
        return
    pattern = router.build(graph, destination)
    verdict = check_pattern_resilience(graph, pattern, destination)
    assert verdict.resilient, str(verdict.counterexample)


# ---------------------------------------------------------------------------
# Broadcast coverage on random outerplanar graphs.
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=3, max_value=10),
    data=st.data(),
)
def test_broadcast_covers_component(seed, n, data):
    graph = construct.maximal_outerplanar(n, seed=seed)
    failures = data.draw(failures_of(graph))
    source = data.draw(st.sampled_from(sorted(graph.nodes)))
    broadcast = TouringBroadcast(RightHandTouring())
    result = broadcast.run(graph, source, failures)
    assert result.completed
    assert result.covers(component_of(graph, source, failures))


# ---------------------------------------------------------------------------
# Minor-transfer: random delete/contract chains preserve resilience.
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(operations=st.lists(st.tuples(st.booleans(), st.integers(min_value=0, max_value=50)), max_size=3))
def test_minor_transfer_chains(operations):
    from repro.core.algorithms import K5SourceRouting

    graph = construct.complete_graph(5)
    source, destination = 0, 4
    pattern = K5SourceRouting().build(graph, source, destination)
    for is_delete, pick in operations:
        candidates = [
            (u, v)
            for u, v in sorted(graph.edges)
            if source not in (u, v) and destination not in (u, v)
        ]
        if not candidates:
            break
        u, v = candidates[pick % len(candidates)]
        if is_delete:
            graph, pattern = delete_link_with_pattern(graph, pattern, u, v)
        else:
            graph, pattern = contract_link_with_pattern(graph, pattern, u, v)
    if not nx.has_path(graph, source, destination):
        return
    verdict = check_pattern_resilience(graph, pattern, destination, sources=[source])
    assert verdict.resilient, str(verdict.counterexample)


# ---------------------------------------------------------------------------
# Minor engine: subgraph containment implies minor containment.
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_subgraph_implies_minor(data):
    n = data.draw(st.integers(min_value=3, max_value=6))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    host_links = data.draw(st.lists(st.sampled_from(possible), unique=True, min_size=n - 1))
    host = nx.Graph(host_links)
    if host.number_of_nodes() < 3 or not nx.is_connected(host):
        return
    pattern_links = data.draw(
        st.lists(st.sampled_from(host_links), unique=True, min_size=1)
    )
    pattern = nx.Graph(pattern_links)
    if not nx.is_connected(pattern):
        return
    assert contains_subgraph(host, pattern)
    assert has_minor(host, pattern, budget=100_000) is MinorOutcome.YES


# ---------------------------------------------------------------------------
# Theorem 4's guarantee as a property on random bipartite graphs.
# ---------------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_distance3_property_random_bipartite(data):
    a = data.draw(st.integers(min_value=1, max_value=3))
    b = data.draw(st.integers(min_value=1, max_value=3))
    possible = [(u, v) for u in range(a) for v in range(a, a + b)]
    chosen = data.draw(st.lists(st.sampled_from(possible), unique=True, min_size=1))
    graph = nx.Graph()
    graph.add_nodes_from(range(a + b))
    graph.add_edges_from(chosen)
    failures = data.draw(failures_of(graph))
    nodes = sorted(graph.nodes)
    source = data.draw(st.sampled_from(nodes))
    destination = data.draw(st.sampled_from(nodes))
    if source == destination:
        return
    survived = nx.Graph(graph)
    survived.remove_edges_from(failures)
    if not nx.has_path(survived, source, destination):
        return
    if nx.shortest_path_length(survived, source, destination) > 3:
        return
    pattern = Distance3BipartiteAlgorithm().build(graph, source, destination)
    assert route(graph, pattern, source, destination, failures).delivered


# ---------------------------------------------------------------------------
# §II: the alive ports' order is part of a rule's view, so the engine must
# list them as the simulator does, however the node labels mix.
# ---------------------------------------------------------------------------


@st.composite
def mixed_label_graphs(draw):
    """A connected graph whose labels mix ints >= 10 and strings."""
    n = draw(st.integers(min_value=3, max_value=7))
    numbers = st.integers(min_value=10, max_value=300)
    words = st.text("abcxyz", min_size=1, max_size=2)
    ints = draw(st.lists(numbers, min_size=n, max_size=n, unique=True))
    strings = draw(st.lists(words, min_size=n, max_size=n, unique=True))
    labels = [word if draw(st.booleans()) else number for number, word in zip(ints, strings)]
    graph = nx.Graph()
    graph.add_nodes_from(labels)
    for i in range(1, n):  # a random spanning tree keeps it connected
        graph.add_edge(labels[i], labels[draw(st.integers(min_value=0, max_value=i - 1))])
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)]
    graph.add_edges_from(pair for pair in pairs if draw(st.booleans()))
    return graph


@settings(max_examples=100, deadline=None)
@given(graph=mixed_label_graphs())
def test_engine_routes_mixed_labels_like_the_simulator(graph):
    network = Network(graph)
    state = EngineState(graph)
    algorithm = GreedyLowestNeighbor()
    for destination in graph.nodes:
        memo = state.pattern(algorithm, destination)
        for failures in all_failure_sets(graph, max_failures=1):
            for source in graph.nodes:
                if source == destination:
                    continue
                got = state.route(memo, source, destination, failures)
                expected = route(network, memo.pattern, source, destination, failures)
                assert (got.outcome, got.path, got.steps) == (
                    expected.outcome, expected.path, expected.steps,
                ), (source, destination, failures)


# ---------------------------------------------------------------------------
# The result store's file is json.dumps(document, indent=2) after every
# merge, however the merges mix new records, replacements and batches.
# ---------------------------------------------------------------------------

json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def store_records(draw):
    """A record from a small identity space, so merges replace as often
    as they add; its fields carry escapes, non-ASCII text and NaN."""
    return ExperimentRecord(
        experiment="resilience",
        topology=draw(st.sampled_from(["ring", "k5", "grid"])),
        scheme=draw(st.sampled_from(["greedy", "arborescence"])),
        metrics={"value": draw(json_scalars)},
        series=draw(st.lists(json_values, max_size=2)),
        params=draw(st.dictionaries(st.sampled_from(["matrix", "k"]), json_scalars, max_size=2)),
        note=draw(st.text(max_size=6)),
    )


@st.composite
def starting_stores(draw):
    """The text of an empty (missing), blank, foreign-section or legacy
    duplicate-key store, and the document it holds."""
    kind = draw(st.sampled_from(["empty", "blank", "foreign", "legacy"]))
    if kind == "empty":
        return None, {}
    if kind == "blank":
        return "\n  \n", {}
    if kind == "foreign":
        records = draw(st.lists(store_records(), max_size=2, unique_by=ExperimentRecord.key))
        document = {"records": [record.to_dict() for record in records]}
        sections = st.text(max_size=4).filter(lambda key: key != "records")
        for key in draw(st.lists(sections, max_size=2)):
            document[key] = draw(json_values)
        document = dict(draw(st.permutations(list(document.items()))))
    else:
        first, *others = draw(st.lists(store_records(), min_size=2, max_size=4))
        newer = ExperimentRecord.from_dict({**first.to_dict(), "note": first.note + "!"})
        document = {"records": [record.to_dict() for record in [first, *others, newer]]}
    return json.dumps(document), document


def _model_merge(document: dict, records: list) -> None:
    """The store's merge rule on plain dicts: a same-identity record is
    replaced in place, a new one appended, and legacy duplicates collapse
    to the first position with the newest value."""
    merged = {}
    for entry in document.get("records", []):
        merged[ExperimentRecord.from_dict(entry).key()] = entry
    for record in records:
        merged[record.key()] = record.to_dict()
    document["records"] = list(merged.values())


@settings(max_examples=100, deadline=None)
@given(
    start=starting_stores(),
    steps=st.lists(
        st.tuples(st.lists(store_records(), max_size=3), st.booleans()),
        min_size=1,
        max_size=6,
    ),
    data=st.data(),
)
def test_store_file_is_the_indented_document_after_every_merge(start, steps, data):
    text, model = start
    torn = data.draw(st.integers(min_value=0, max_value=len(steps) - 1))
    with tempfile.TemporaryDirectory() as scratch:
        path = pathlib.Path(scratch) / "store.json"
        if text is not None:
            path.write_text(text)
        store = ResultStore(path)
        for step, (records, fresh) in enumerate(steps):
            if fresh:
                store = ResultStore(path)  # a cold cache on the same file
            if step == torn:
                before = path.read_text() if path.exists() else None
                with FaultPlan([FaultSpec("torn-write")]).installed():
                    with pytest.raises(TornWrite):
                        store.merge(records)
                assert (path.read_text() if path.exists() else None) == before
                continue
            store.merge(records)
            _model_merge(model, records)
            assert path.read_text() == json.dumps(model, indent=2) + "\n"
