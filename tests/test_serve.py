"""The ``repro.serve`` subsystem: protocol, service, server, client.

The load-bearing guarantees pinned here:

* service answers are byte-identical to the offline surfaces
  (``run_grid`` / ``sweep_resilience`` / ``load_sweep``) — differential
  tests with runtimes zeroed;
* batching (coalesced ``run_batch``, the mask-outcome memo) never
  changes an answer;
* the ``ResultStore`` identity index answers ``lookup`` in O(1) with
  ``merge`` semantics unchanged from the scanning implementation;
* deadline-cut answers survive the record JSON round-trip flagged
  ``exhaustive=False`` and come back ``partial: true`` in the envelope,
  and are never cached;
* the Lazy-Pirate client retries cleanly through stale replies and a
  crashed-and-restarted server.
"""

import asyncio
import contextlib
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro import obs
from repro.experiments import (
    ExperimentRecord,
    ExperimentSession,
    ResultStore,
    run_grid,
)
from repro.experiments.registry import resolve_topology, scheme
from repro.failures import RandomGridModel
from repro.serve import (
    ProtocolError,
    QueryClient,
    QueryService,
    RemoteError,
    Request,
    ResilienceServer,
    ServeTimeout,
)
from repro.serve import protocol as proto
from repro.serve.service import serialize_report


def _no_runtime(record_dict: dict) -> dict:
    data = dict(record_dict)
    data["runtime_seconds"] = 0.0
    return data


# ---------------------------------------------------------------------------
# Protocol.
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_frame_round_trip(self):
        payload = {"v": 1, "id": "x", "op": "ping", "params": {}, "budget_seconds": None}
        frame = proto.encode_frame(payload)
        assert proto.decode_body(frame[4:]) == payload
        assert proto.frame_length(frame[:4]) == len(frame) - 4

    def test_oversize_frame_rejected_both_ways(self):
        with pytest.raises(ProtocolError):
            proto.encode_frame({"blob": "x" * (proto.MAX_FRAME + 1)})
        import struct

        with pytest.raises(ProtocolError):
            proto.frame_length(struct.pack(">I", proto.MAX_FRAME + 1))

    def test_garbage_body_rejected(self):
        with pytest.raises(ProtocolError):
            proto.decode_body(b"\xff\xfe not json")
        with pytest.raises(ProtocolError):
            proto.decode_body(b"[1, 2]")

    @pytest.mark.parametrize(
        "payload",
        [
            {"id": "x", "op": "ping"},  # missing version
            {"v": 2, "id": "x", "op": "ping"},  # wrong version
            {"v": 1, "id": "", "op": "ping"},  # empty id
            {"v": 1, "id": "x", "op": "frobnicate"},  # unknown op
            {"v": 1, "id": "x", "op": "ping", "params": []},  # params not a dict
            {"v": 1, "id": "x", "op": "ping", "budget_seconds": -1},
            {"v": 1, "id": "x", "op": "ping", "budget_seconds": True},
        ],
    )
    def test_bad_request_envelopes(self, payload):
        with pytest.raises(ProtocolError):
            proto.parse_request(payload)

    def test_request_round_trip(self):
        request = proto.parse_request(
            {"v": 1, "id": "r1", "op": "verdict", "params": {"topology": "k5"},
             "budget_seconds": 2}
        )
        assert request == Request(id="r1", op="verdict", params={"topology": "k5"},
                                  budget_seconds=2.0)
        assert proto.parse_request(request.to_payload()) == request

    def test_response_validation(self):
        ok = proto.ok_response("r1", {"x": 1}, partial=True)
        assert proto.parse_response(ok) is ok
        err = proto.error_response("r1", "QueryError", "nope")
        assert proto.parse_response(err) is err
        with pytest.raises(ProtocolError):
            proto.parse_response({"v": 1, "id": "r1", "ok": True})  # no result

    def test_node_codec_tuples(self):
        node = ("core", 0, ("x", 1))
        assert proto.node_from_json(proto.node_to_json(node)) == node
        assert proto.node_from_json(proto.node_to_json(7)) == 7

    def test_failure_set_codec_canonical_and_inverse(self):
        failures = frozenset({(1, 0), (2, 1)})
        encoded = proto.failure_set_to_json(failures)
        assert encoded == [[0, 1], [1, 2]]  # canonicalized + sorted
        assert proto.failure_set_from_json(encoded) == frozenset({(0, 1), (1, 2)})
        with pytest.raises(ProtocolError):
            proto.failure_set_from_json([[3, 3]])  # self-loop


# ---------------------------------------------------------------------------
# ResultStore identity index (satellite: O(1) lookup, merge pinned).
# ---------------------------------------------------------------------------


def _record(topology="k5", scheme_name="arborescence", value=1, experiment="resilience"):
    return ExperimentRecord(
        experiment=experiment,
        topology=topology,
        scheme=scheme_name,
        failure_model="model",
        metrics={"value": value},
    )


class TestResultStoreIndex:
    def test_lookup_hit_and_miss(self, tmp_path):
        store = ResultStore(tmp_path / "s.json")
        record = _record(value=3)
        store.merge([record])
        assert store.lookup(record.key()) == record
        assert store.lookup(("resilience", "other", "arborescence", "model", "", "")) is None

    def test_lookup_sees_external_writes(self, tmp_path):
        path = tmp_path / "s.json"
        writer, reader = ResultStore(path), ResultStore(path)
        first = _record(value=1)
        writer.merge([first])
        assert reader.lookup(first.key()) == first  # populates reader's cache
        updated = _record(value=2)
        time.sleep(0.01)  # distinct mtime_ns for the stamp check
        writer.merge([updated])
        assert reader.lookup(first.key()) == updated

    def test_merge_semantics_pinned(self, tmp_path):
        """Same-key replaced in place (newest value, original position),
        new keys appended, foreign sections preserved — exactly the
        pre-index behaviour."""
        path = tmp_path / "s.json"
        # a foreign section beside the (empty) records list
        path.write_text(json.dumps({"records": [], "thresholds": {"min": 2.0}}))
        store = ResultStore(path)
        a, b = _record("k5", value=1), _record("ring", value=1)
        store.merge([a, b])
        replacement = _record("k5", value=99)
        c = _record("grid", value=1)
        merged = ResultStore(path).merge([replacement, c])  # fresh instance: cold cache
        assert [r.topology for r in merged] == ["k5", "ring", "grid"]
        assert merged[0].metrics["value"] == 99
        document = json.loads(path.read_text())
        assert document["thresholds"] == {"min": 2.0}
        assert [e["topology"] for e in document["records"]] == ["k5", "ring", "grid"]

    def test_duplicate_key_store_collapses_like_legacy(self, tmp_path):
        """A hand-written store with duplicate keys goes through the
        legacy collapse: first occurrence's position, newest value."""
        path = tmp_path / "s.json"
        old, new = _record("k5", value=1), _record("k5", value=2)
        other = _record("ring", value=7)
        path.write_text(json.dumps(
            {"records": [old.to_dict(), other.to_dict(), new.to_dict()]}))
        store = ResultStore(path)
        assert store.lookup(old.key()).metrics["value"] == 2  # last occurrence
        merged = store.merge([_record("grid", value=3)])
        assert [(r.topology, r.metrics["value"]) for r in merged] == [
            ("k5", 2), ("ring", 7), ("grid", 3)]

    def test_identities_in_record_order(self, tmp_path):
        store = ResultStore(tmp_path / "s.json")
        a, b = _record("k5"), _record("ring")
        store.merge([a, b])
        assert store.identities() == [a.key(), b.key()]

    def test_load_records_unchanged(self, tmp_path):
        store = ResultStore(tmp_path / "s.json")
        records = [_record("k5"), _record("ring", value=4)]
        store.merge(records)
        assert ResultStore(store.path).load_records() == records


# ---------------------------------------------------------------------------
# Service differential: byte-identical to the offline surfaces.
# ---------------------------------------------------------------------------


class TestServiceDifferential:
    def test_model_verdict_matches_run_grid_record(self, tmp_path):
        model = RandomGridModel(sizes=(1, 2), samples=3, seed=0)
        offline = run_grid(["k5"], ["arborescence"], failure_models=[model],
                           metrics=["resilience"])
        service = QueryService()
        record, partial = service.verdict(
            {"topology": "k5", "scheme": "arborescence",
             "model": "random:sizes=1/2,samples=3,seed=0"})
        assert not partial
        assert _no_runtime(record.to_dict()) == _no_runtime(offline.records[0].to_dict())

    def test_explicit_verdict_matches_sweep_both_paths(self):
        """The memoized fast path (destination given) and the generic
        sweep path (no destination) both equal sweep_resilience."""
        from repro.core.engine.sweep import ScenarioGrid, sweep_resilience

        graph = resolve_topology("k5")
        algorithm = scheme("arborescence").instantiate()
        masks_json = [[[0, 1]], [[0, 1], [1, 2]], [[2, 3], [3, 4]]]
        masks = proto.failure_sets_from_json(masks_json)
        service = QueryService()
        for destination in (4, None):
            params = {"topology": "k5", "scheme": "arborescence",
                      "failure_sets": masks_json}
            if destination is not None:
                params["destination"] = destination
            record, partial = service.verdict(params)
            grid = ScenarioGrid(
                destinations=[destination] if destination is not None else None,
                failure_sets=masks)
            verdict = sweep_resilience(graph, algorithm, grid)
            assert not partial
            assert record.metrics == {
                "resilient": verdict.resilient,
                "scenarios_checked": verdict.scenarios_checked,
                "exhaustive": verdict.exhaustive,
            }
            assert record.note == (
                str(verdict.counterexample) if verdict.counterexample else "")

    def test_memoized_verdict_finds_same_counterexample(self):
        """A non-resilient scheme: the fast path reproduces the sweep's
        and the naive checker's exact counterexample string and checked
        count — also through masks naming a link outside the graph,
        which take the per-mask kernel's naive branch."""
        from repro.core.engine.sweep import ScenarioGrid, sweep_resilience
        from repro.core.resilience import check_pattern_resilience
        from repro.experiments import naive_session

        graph = resolve_topology("grid")
        spec = scheme("greedy")  # per-destination, no resilience guarantee
        destination = 0
        pattern = spec.instantiate().build(graph, destination)
        for masks in (
            [frozenset({(0, 1), (1, 2)}), frozenset({(3, 4)})],
            [frozenset({(0, 99)}), frozenset({(0, 99), (0, 1), (1, 2)})],
        ):
            verdict = sweep_resilience(
                graph, spec.instantiate(),
                ScenarioGrid(destinations=[destination], failure_sets=masks))
            naive = check_pattern_resilience(
                graph, pattern, destination, failure_sets=masks, session=naive_session())
            assert not naive.resilient  # the interesting case: a real counterexample
            service = QueryService()
            record, _ = service.verdict(
                {"topology": "grid", "scheme": "greedy", "destination": destination,
                 "failure_sets": proto.failure_sets_to_json(masks)})
            for reference in (verdict, naive):
                assert record.metrics == {
                    "resilient": reference.resilient,
                    "scenarios_checked": reference.scenarios_checked,
                    "exhaustive": reference.exhaustive,
                }
                assert record.note == str(reference.counterexample)
            # second evaluation comes fully from the mask memo, same answer
            before = dict(service.stats_counters)
            again, _ = service.verdict(
                {"topology": "grid", "scheme": "greedy", "destination": destination,
                 "failure_sets": proto.failure_sets_to_json(masks)})
            assert _no_runtime(again.to_dict()) == _no_runtime(record.to_dict())
            assert service.stats_counters["mask_memo_hits"] > before["mask_memo_hits"]

    def test_requests_build_each_pattern_once(self, monkeypatch):
        """Repeated verdicts (mask memo and sweep paths) and loads for one
        topology share one instance per scheme and its cached patterns."""
        from repro.experiments.registry import SchemeSpec

        builds = []
        instantiate = SchemeSpec.instantiate

        def counting(spec, **kwargs):
            algorithm = instantiate(spec, **kwargs)
            build = algorithm.build

            def counted(graph, *unit):
                builds.append((spec.name, unit))
                return build(graph, *unit)

            algorithm.build = counted
            return algorithm

        monkeypatch.setattr(SchemeSpec, "instantiate", counting)
        service = QueryService()
        for masks in ([[[0, 1]]], [[[1, 2]], [[0, 1], [2, 3]]]):
            for scheme_name in ("greedy", "distance2"):
                reply = service.execute(Request(id="v", op="verdict", params={
                    "topology": "grid", "scheme": scheme_name, "destination": 0,
                    "failure_sets": masks}))
                assert reply["ok"] is True
            reply = service.execute(Request(id="l", op="load", params={
                "topology": "grid", "scheme": "greedy", "matrix": "permutation",
                "matrix_seed": 0, "failure_sets": masks}))
            assert reply["ok"] is True
        assert builds and len(builds) == len(set(builds))
        stats = service.stats()
        assert stats["pattern_misses"] == stats["patterns_cached"] == len(builds)
        assert stats["pattern_hits"] > 0

    def test_load_matches_offline_load_sweep(self):
        from repro.traffic.load import TrafficEngine
        from repro.traffic.matrices import build_named_matrix

        graph = resolve_topology("k5")
        algorithm = scheme("arborescence").instantiate()
        demands, _ = build_named_matrix(graph, "permutation", seed=0)
        sets = [frozenset({(0, 1)}), frozenset({(0, 1), (1, 2)})]
        offline = TrafficEngine(graph, algorithm).load_sweep(demands, sets)
        service = QueryService()
        record, partial = service.load(
            {"topology": "k5", "scheme": "arborescence", "matrix": "permutation",
             "matrix_seed": 0, "failure_sets": proto.failure_sets_to_json(sets)})
        assert not partial
        assert record.series == [
            serialize_report(report, failures)
            for report, failures in zip(offline, sets)]

    def test_union_batched_load_identical_to_solo(self):
        """Two load requests in one batch must each produce the
        byte-identical envelope of their solo execution."""
        sets_a = [[[0, 1]], [[1, 2], [2, 3]]]
        sets_b = [[[1, 2], [2, 3]], [[3, 4]]]  # overlaps with a

        def make(rid, sets):
            return Request(id=rid, op="load", params={
                "topology": "k5", "scheme": "arborescence",
                "matrix": "permutation", "matrix_seed": 0, "failure_sets": sets})

        solo = [QueryService().execute(make("a", sets_a)),
                QueryService().execute(make("b", sets_b))]
        batched = QueryService().run_batch([make("a", sets_a), make("b", sets_b)])
        for one, two in zip(solo, batched):
            assert _no_runtime(one["result"]["record"]) == _no_runtime(
                two["result"]["record"])
            assert one["result"]["reports"] == two["result"]["reports"]

    def test_batch_deduplicates_identical_requests(self):
        service = QueryService()
        params = {"topology": "k5", "scheme": "arborescence",
                  "failure_sets": [[[0, 1]]], "destination": 4}
        out = service.run_batch([
            Request(id="x", op="verdict", params=params),
            Request(id="y", op="verdict", params=params)])
        assert out[0]["id"] == "x" and out[1]["id"] == "y"
        assert {k: v for k, v in out[0].items() if k != "id"} == {
            k: v for k, v in out[1].items() if k != "id"}
        assert service.stats_counters["batches"] == 1

    def test_batch_isolates_a_bad_request(self):
        service = QueryService()
        out = service.run_batch([
            Request(id="bad", op="verdict",
                    params={"topology": "no-such-topology", "scheme": "arborescence"}),
            Request(id="good", op="verdict", params={
                "topology": "k5", "scheme": "arborescence",
                "failure_sets": [[[0, 1]]], "destination": 4})])
        assert out[0]["ok"] is False and out[0]["error"]["type"] == "QueryError"
        assert out[1]["ok"] is True

    def test_answer_cache_round_trip(self, tmp_path):
        """Computed answer -> store -> cache hit: same result object,
        and an offline-populated store serves without compute."""
        store = ResultStore(tmp_path / "answers.json")
        service = QueryService(store=store)
        request = Request(id="q1", op="verdict", params={
            "topology": "k5", "scheme": "arborescence",
            "model": "random:sizes=1,samples=2,seed=0"})
        first = service.execute(request)
        assert first["cached"] is False
        second = service.execute(Request(id="q2", op="verdict", params=request.params))
        assert second["cached"] is True
        assert second["result"] == first["result"]
        # a different service process over the same store also hits
        other = QueryService(store=ResultStore(store.path))
        third = other.execute(Request(id="q3", op="verdict", params=request.params))
        assert third["cached"] is True
        assert third["result"] == first["result"]
        assert other.stats_counters["store_hits"] == 1

    def test_offline_run_grid_populates_the_cache(self, tmp_path):
        store = ResultStore(tmp_path / "answers.json")
        model = RandomGridModel(sizes=(1,), samples=2, seed=0)
        run_grid(["k5"], ["arborescence"], failure_models=[model],
                 metrics=["resilience"], store=store)
        service = QueryService(store=ResultStore(store.path))
        reply = service.execute(Request(id="q", op="verdict", params={
            "topology": "k5", "scheme": "arborescence",
            "model": "random:sizes=1,samples=2,seed=0"}))
        assert reply["cached"] is True
        assert reply["result"]["verdict"]["resilient"] is True

    def test_answer_cache_tells_matrix_seeds_apart(self, tmp_path):
        service = QueryService(store=ResultStore(tmp_path / "answers.json"))
        base = {"topology": "ring(8)", "scheme": "greedy", "matrix": "permutation",
                "model": "random:sizes=1,samples=2,seed=0"}

        def load(svc, matrix_seed):
            params = dict(base, matrix_seed=matrix_seed)
            return svc.execute(Request(id=f"s{matrix_seed}", op="load", params=params))

        first = load(service, 0)
        second = load(service, 1)
        assert first["cached"] is False
        assert second["cached"] is False
        fresh = load(QueryService(), 1)
        assert _no_runtime(second["result"]["record"]) == _no_runtime(fresh["result"]["record"])
        assert second["result"]["record"]["series"] != first["result"]["record"]["series"]
        # each seed's answer is cached under its own identity
        again = load(service, 0)
        assert again["cached"] is True
        assert again["result"] == first["result"]

    def test_inapplicable_scheme_is_an_error_envelope(self):
        reply = QueryService().execute(Request(id="q", op="verdict", params={
            "topology": "k5", "scheme": "hamiltonian", "model": "random:sizes=1"}))
        # k5 is not Hamiltonian-decomposable per the registry predicate;
        # whichever way the registry rules, a clean envelope comes back
        assert reply["id"] == "q"
        assert isinstance(reply["ok"], bool)

    def test_grid_op_matches_run_grid(self):
        model = RandomGridModel(sizes=(1,), samples=2, seed=0)
        offline = run_grid(["k5"], ["arborescence"], failure_models=[model],
                           metrics=["resilience"])
        reply = QueryService().execute(Request(id="g", op="grid", params={
            "topologies": ["k5"], "schemes": ["arborescence"],
            "metrics": ["resilience"], "model": "random:sizes=1,samples=2,seed=0"}))
        assert reply["ok"] is True and reply["partial"] is False
        got = [_no_runtime(entry) for entry in reply["result"]["records"]]
        want = [_no_runtime(record.to_dict()) for record in offline.records]
        assert got == want


# ---------------------------------------------------------------------------
# Deadline-partial end-to-end (satellite).
# ---------------------------------------------------------------------------


class TestDeadlinePartial:
    def test_partial_verdict_record_and_envelope(self):
        """budget 0 -> the sweep is cut immediately: exhaustive=False
        survives the record JSON round-trip and the envelope says
        partial: true."""
        service = QueryService()
        reply = service.execute(Request(
            id="p1", op="verdict", budget_seconds=0.0,
            params={"topology": "fattree", "scheme": "arborescence",
                    "model": "random:sizes=1/2,samples=5,seed=0"}))
        assert reply["ok"] is True
        assert reply["partial"] is True
        record_dict = reply["result"]["record"]
        assert record_dict["metrics"]["exhaustive"] is False
        restored = ExperimentRecord.from_json(json.dumps(record_dict))
        assert restored.metrics["exhaustive"] is False
        assert restored.to_dict() == record_dict

    def test_partial_answers_are_never_cached(self, tmp_path):
        store = ResultStore(tmp_path / "answers.json")
        service = QueryService(store=store)
        params = {"topology": "k5", "scheme": "arborescence",
                  "model": "random:sizes=1,samples=2,seed=0"}
        cut = service.execute(Request(id="c", op="verdict", params=params,
                                      budget_seconds=0.0))
        assert cut["partial"] is True
        assert store.lookup(ExperimentRecord.from_dict(cut["result"]["record"]).key()) is None
        full = service.execute(Request(id="f", op="verdict", params=params))
        assert full["partial"] is False and full["cached"] is False

    def test_budget_cut_grid_estimate_is_partial_and_never_cached(
        self, tmp_path, monkeypatch
    ):
        """A grid request whose budget cuts a sampled cell mid-estimate
        replies partial, stores nothing, and a later unbudgeted verdict
        computes the whole estimate instead of serving the cut one."""
        import repro.serve.service as service_module
        from repro.runtime import Budget

        # a unit budget puts the cut at a fixed sample: 10 units, one per sample
        monkeypatch.setattr(service_module, "Deadline", lambda seconds: Budget(10))
        store = ResultStore(tmp_path / "answers.json")
        service = QueryService(store=store)
        model = "iid:p=0.05,samples=50,seed=0"
        cut = service.execute(Request(id="g", op="grid", budget_seconds=1.0, params={
            "topologies": ["ring(8)"], "schemes": ["greedy"],
            "metrics": ["resilience"], "model": model}))
        assert cut["ok"] is True and cut["partial"] is True
        [record] = cut["result"]["records"]
        assert record["metrics"]["exhaustive"] is False
        assert record["metrics"]["samples"] == 10
        assert store.lookup(ExperimentRecord.from_dict(record).key()) is None
        full = service.execute(Request(id="v", op="verdict", params={
            "topology": "ring(8)", "scheme": "greedy", "model": model}))
        assert full["cached"] is False and full["partial"] is False
        assert full["result"]["verdict"]["samples"] == 50

    def test_partial_load_returns_completed_prefix(self):
        service = QueryService()
        reply = service.execute(Request(
            id="l", op="load", budget_seconds=0.0,
            params={"topology": "k5", "scheme": "arborescence",
                    "failure_sets": [[[0, 1]], [[1, 2]]]}))
        assert reply["ok"] is True and reply["partial"] is True
        metrics = reply["result"]["record"]["metrics"]
        assert metrics["completed_sets"] < metrics["failure_sets"]


class TestOneResolution:
    """Each verdict and load request is resolved once: the answer-cache
    identity is the key of the record the answer carries."""

    def test_naive_session_is_refused(self):
        with pytest.raises(ValueError, match="engine-backed session"):
            QueryService(session=ExperimentSession(backend="naive"))

    def test_serve_cli_has_no_naive_backend(self, capsys, monkeypatch):
        import repro.serve.server as server_module
        from repro.cli import main

        def refuse(**kwargs):
            raise AssertionError("a naive session reached the server")

        monkeypatch.setattr(server_module, "serve", refuse)
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--backend", "naive"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'naive'" in capsys.readouterr().err

    @pytest.mark.parametrize("op, extra", [
        ("verdict", {"destination": 4}),
        ("load", {"matrix": "permutation"}),
    ])
    def test_computed_explicit_request_parses_its_masks_once(
        self, tmp_path, monkeypatch, op, extra
    ):
        import repro.serve.service as service_module

        calls = []
        parse = service_module.failure_sets_from_json

        def counted(sets):
            calls.append(sets)
            return parse(sets)

        monkeypatch.setattr(service_module, "failure_sets_from_json", counted)
        service = QueryService(store=ResultStore(tmp_path / "answers.json"))
        params = dict({"topology": "k5", "scheme": "arborescence",
                       "failure_sets": [[[0, 1]], [[1, 2], [2, 3]]]}, **extra)
        reply = service.execute(Request(id="q", op=op, params=params))
        assert reply["ok"] is True and reply["cached"] is False
        assert len(calls) == 1

    @pytest.mark.parametrize("destination, sink", [(None, 7), (2, 2)])
    def test_all_to_one_load_is_cached_under_its_record_identity(
        self, tmp_path, monkeypatch, destination, sink
    ):
        """The matrix name comes from traffic.matrices alone, so the
        cache identity follows its label, whatever that label is."""
        import repro.traffic.matrices as matrices

        build = matrices.build_named_matrix

        def relabelled(graph, name, seed=0, destination=None):
            demands, label = build(graph, name, seed=seed, destination=destination)
            return demands, label.replace("all-to-one", "incast")

        monkeypatch.setattr(matrices, "build_named_matrix", relabelled)
        store = ResultStore(tmp_path / "answers.json")
        params = {"topology": "ring(8)", "scheme": "greedy", "matrix": "all-to-one",
                  "failure_sets": [[[0, 1]], [[2, 3], [5, 6]]]}
        if destination is not None:
            params["destination"] = destination
        first = QueryService(store=store).execute(Request(id="a", op="load", params=params))
        assert first["cached"] is False
        record = ExperimentRecord.from_dict(first["result"]["record"])
        assert record.params["matrix"] == f"incast({sink})"
        assert store.lookup(record.key()) is not None
        again = QueryService(store=ResultStore(store.path)).execute(
            Request(id="b", op="load", params=params))
        assert again["cached"] is True
        assert again["result"] == first["result"]


# ---------------------------------------------------------------------------
# Server + client over real sockets.
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def running_server(service=None, port=0, metrics_port=None):
    """A ResilienceServer on a background thread with its own loop."""
    box = {}
    ready = threading.Event()

    def run():
        async def main():
            server = ResilienceServer(service=service, port=port,
                                      metrics_port=metrics_port)
            await server.start()
            box["server"] = server
            box["loop"] = asyncio.get_event_loop()
            ready.set()
            await server.serve_forever()

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(20), "server did not start"
    try:
        yield box["server"]
    finally:
        try:
            box["loop"].call_soon_threadsafe(box["server"].request_stop)
        except RuntimeError:
            pass  # a shutdown op already stopped the server and closed its loop
        thread.join(20)


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestServerEndToEnd:
    def test_ping_stats_verdict_over_tcp(self):
        with running_server() as server:
            with QueryClient(port=server.bound_port, timeout=30) as client:
                assert client.ping()["result"]["pong"] is True
                reply = client.verdict("k5", "arborescence",
                                       failure_sets=[[[0, 1]]], destination=4)
                assert reply["ok"] is True
                assert reply["result"]["verdict"]["resilient"] is True
                stats = client.server_stats()
                assert stats["requests_handled"] >= 2
                assert stats["graphs_cached"] == 1
                # one arborescence pattern (destination 4), one mask walked
                assert (stats["patterns_cached"], stats["pattern_hits"]) == (1, 0)
                assert (stats["pattern_misses"], stats["masks_memoized"]) == (1, 1)
                again = client.verdict("k5", "arborescence",
                                       failure_sets=[[[0, 1]], [[1, 2]]], destination=4)
                assert again["ok"] is True
                stats = client.server_stats()
                assert (stats["patterns_cached"], stats["pattern_hits"]) == (1, 1)
                assert (stats["pattern_misses"], stats["masks_memoized"]) == (1, 2)

    def test_tcp_answer_identical_to_in_process(self):
        params = {"topology": "k5", "scheme": "arborescence",
                  "model": "random:sizes=1,samples=3,seed=0"}
        local = QueryService().execute(Request(id="x", op="verdict", params=params))
        with running_server() as server:
            with QueryClient(port=server.bound_port, timeout=30) as client:
                remote = client.request("verdict", params)
        assert _no_runtime(remote["result"]["record"]) == _no_runtime(
            local["result"]["record"])

    def test_malformed_envelope_keeps_stream_alive(self):
        with running_server() as server:
            sock = socket.create_connection(("127.0.0.1", server.bound_port), timeout=10)
            sock.settimeout(10)
            proto.send_frame(sock, {"v": 1, "id": "bad", "op": "frobnicate"})
            reply = proto.recv_frame(sock)
            assert reply["ok"] is False and reply["error"]["type"] == "ProtocolError"
            proto.send_frame(sock, Request(id="ok", op="ping").to_payload())
            assert proto.recv_frame(sock)["ok"] is True
            sock.close()

    def test_shutdown_op_stops_the_server(self):
        with running_server() as server:
            with QueryClient(port=server.bound_port, timeout=30) as client:
                assert client.shutdown()["result"]["stopping"] is True
            deadline = time.time() + 10
            while time.time() < deadline and not server._stopping.is_set():
                time.sleep(0.05)
            assert server._stopping.is_set()

    def test_metrics_endpoint_serves_prometheus_text(self):
        telemetry = obs.Telemetry()
        with obs.installed(telemetry):
            with running_server(metrics_port=0) as server:
                with QueryClient(port=server.bound_port, timeout=30) as client:
                    client.verdict("k5", "arborescence",
                                   failure_sets=[[[0, 1]]], destination=4)
                body = urllib.request.urlopen(
                    f"http://127.0.0.1:{server.bound_metrics_port}/metrics",
                    timeout=10).read().decode()
        assert "# TYPE repro_serve_requests_total counter" in body
        assert 'repro_serve_requests_total{op="verdict",status="ok"}' in body


class TestLazyPirateClient:
    def test_stale_replies_are_discarded(self):
        """A reply mirroring the wrong id is skipped, the right one
        returned — the Lazy-Pirate resend-after-timeout guarantee."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def fake_server():
            conn, _ = listener.accept()
            request = proto.recv_frame(conn)
            proto.send_frame(conn, proto.ok_response("stale-id", {"stale": True}))
            proto.send_frame(conn, proto.ok_response(request["id"], {"fresh": True}))
            conn.close()

        thread = threading.Thread(target=fake_server, daemon=True)
        thread.start()
        with QueryClient(port=port, timeout=10, retries=0) as client:
            reply = client.ping()
        thread.join(10)
        listener.close()
        assert reply["result"] == {"fresh": True}
        assert client.stats["stale_replies_discarded"] == 1

    def test_retry_through_crashed_and_restarted_server(self):
        """Server dies mid-request; the client reconnects and resends
        against the restarted server and gets a clean answer."""
        port = _free_port()
        crashed = threading.Event()

        def crashing_server():
            listener = socket.socket()
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind(("127.0.0.1", port))
            listener.listen(1)
            conn, _ = listener.accept()
            conn.recv(4)  # start reading the request, then die mid-frame
            conn.close()
            listener.close()
            crashed.set()

        threading.Thread(target=crashing_server, daemon=True).start()

        restarted = {}

        def restart_after_crash():
            assert crashed.wait(20)
            with running_server(port=port) as server:
                restarted["server"] = server
                restarted.setdefault("stop", threading.Event()).wait(60)

        restart_thread = threading.Thread(target=restart_after_crash, daemon=True)
        restart_thread.start()
        try:
            with QueryClient(port=port, timeout=5, retries=8,
                             retry_backoff=0.2) as client:
                reply = client.verdict("k5", "arborescence",
                                       failure_sets=[[[0, 1]]], destination=4)
            assert reply["ok"] is True
            assert reply["result"]["verdict"]["resilient"] is True
            assert client.stats["retries"] >= 1
        finally:
            restarted.setdefault("stop", threading.Event()).set()
            restart_thread.join(30)

    def test_timeout_exhaustion_raises(self):
        with QueryClient(port=_free_port(), timeout=0.2, retries=1,
                         retry_backoff=0.01) as client:
            with pytest.raises(ServeTimeout):
                client.ping()

    def test_remote_error_surfaces(self):
        with running_server() as server:
            with QueryClient(port=server.bound_port, timeout=30) as client:
                with pytest.raises(RemoteError) as excinfo:
                    client.verdict("no-such-topology", "arborescence", model="random:sizes=1")
        assert excinfo.value.kind == "QueryError"


# ---------------------------------------------------------------------------
# CLI integration.
# ---------------------------------------------------------------------------


class TestServeCLI:
    def test_query_cli_against_live_server(self, capsys):
        from repro.cli import main

        with running_server() as server:
            port = str(server.bound_port)
            assert main(["query", "ping", "--port", port]) == 0
            assert "pong" in capsys.readouterr().out
            assert main(["query", "verdict", "--port", port,
                         "--topology", "k5", "--scheme", "arborescence",
                         "--failures", "0-1", "--destination", "4"]) == 0
            out = capsys.readouterr().out
            assert "resilient" in out
            assert main(["query", "stats", "--port", port, "--json"]) == 0
            envelope = json.loads(capsys.readouterr().out)
            assert envelope["ok"] is True

    def test_query_cli_unreachable_server_exit_code(self, capsys):
        from repro.cli import main

        code = main(["query", "ping", "--port", str(_free_port()),
                     "--timeout", "0.2", "--retries", "0"])
        assert code == 3
        assert "cannot reach" in capsys.readouterr().err

    def test_serve_refuses_a_journal_as_store(self, tmp_path, capsys, monkeypatch):
        """``--store`` is checked before listening; the file stays intact."""
        import repro.serve.server as server_module
        from repro.cli import main
        from repro.runtime import CellJournal

        path = tmp_path / "journal.jsonl"
        journal = CellJournal(path)
        journal.append("a", 1)
        journal.append("b", 2)
        before = path.read_bytes()
        monkeypatch.setattr(server_module, "serve", lambda **kwargs: 0)  # never listen
        assert main(["serve", "--port", "0", "--store", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(path) in err
        assert path.read_bytes() == before

    def test_serve_subprocess_sigterm_graceful(self, tmp_path):
        """SIGTERM: exit 0 and the answer store is intact (CI smoke's
        in-repo twin)."""
        store = tmp_path / "answers.json"
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--store", str(store)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env, cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        try:
            line = proc.stdout.readline()
            port = int(line.rsplit(":", 1)[1])
            with QueryClient(port=port, timeout=30, retries=2) as client:
                assert client.verdict("k5", "arborescence",
                                      failure_sets=[[[0, 1]]],
                                      destination=4)["ok"] is True
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        merged = ResultStore(store).load_records()
        assert len(merged) == 1 and merged[0].experiment == "resilience"
