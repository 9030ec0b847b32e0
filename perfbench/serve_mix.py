"""The ``serve-mix`` workload: a warm ``repro serve`` under a closed loop.

One round is what a user of the service pays, from a fresh empty
answer store:

1. set-up: spawn ``repro serve`` until its ready line, then one warm-up
   request per compute op (``verdict`` and ``load``);
2. closed loop: two ``QueryClient`` connections, one thread each, send
   the seeded request sequence; each waits for its reply before sending
   the next request;
3. cold clients: sequential ``repro query verdict`` processes, each
   timed from spawn to exit.

Every reply is checked against the answer digests pinned in
``reference-serve-mix.json`` (records compared with ``runtime_seconds``
zeroed); ``pin.py`` records them from an in-process ``QueryService``
replay of the same sequence, checked against the naive backend.
Set-up-only rounds (step 1, then the server stops) add set-up samples.
"""

from __future__ import annotations

import json
import random
import socket
import subprocess
import sys
import threading
import time
from statistics import median

from common import (
    SETUP_SHARE,
    child_env,
    collect,
    digest,
    load_reference,
    make_work_dir,
    percentile,
    remove_work_dir,
)
from layers import ratio

TOPOLOGY = "torus(4,4)"
#: verdict schemes: source-destination ``distance2`` takes the engine
#: sweep path, destination-based ``greedy`` the service's mask memo
VERDICT_SCHEMES = ("distance2", "greedy")
LOAD_SCHEME = "greedy"
DESTINATION = 0
#: closed-loop requests per round: fixed, because every computed answer
#: is merged into the store and a merge costs more as the store grows
REQUESTS = 120
VERDICT_MASKS = 4
LOAD_MASKS = 2
#: ``repro query`` client processes per round
QUERIES = 1
CLIENTS = 2
TIMEOUT = 60.0


# -- the seeded request sequence ---------------------------------------------


def _links() -> list[list[int]]:
    from repro.experiments.registry import resolve_topology

    graph = resolve_topology(TOPOLOGY)
    return sorted(sorted(edge) for edge in graph.edges)


def _masks(rng: random.Random, links, count: int) -> list:
    """``count`` distinct two-link failure sets, as protocol JSON."""
    masks = []
    while len(masks) < count:
        mask = sorted(rng.sample(links, 2))
        if mask not in masks:
            masks.append(mask)
    return masks


def verdict_params(masks, scheme: str = VERDICT_SCHEMES[0]) -> dict:
    return {
        "topology": TOPOLOGY,
        "scheme": scheme,
        "failure_sets": masks,
        "destination": DESTINATION,
    }


def load_params(masks, seed: int) -> dict:
    return {
        "topology": TOPOLOGY,
        "scheme": LOAD_SCHEME,
        "matrix": "permutation",
        "matrix_seed": seed,
        "failure_sets": masks,
    }


def make_inputs(seed: int) -> dict:
    """Warm-ups, the closed-loop sequence and the cold-client queries.

    The sequence cycles through a new ``distance2`` verdict, a new load,
    a new ``greedy`` verdict and a repeat of an earlier request, so half
    are new verdicts, a quarter new loads and a quarter repeats; the
    seed draws every mask and which request each repeat repeats.  The
    cold clients ask ``distance2`` verdicts.
    """
    rng = random.Random(seed)
    links = _links()
    warmups = [("verdict", verdict_params([[]])), ("load", load_params([[]], seed))]
    # a fixed order keeps the store's growth the same for every seed
    kinds = [VERDICT_SCHEMES[0], "load", VERDICT_SCHEMES[1], "repeat"]
    sequence: list[tuple[str, dict]] = []
    for index in range(REQUESTS):
        kind = kinds[index % len(kinds)]
        if kind == "repeat":
            sequence.append(sequence[rng.randrange(len(sequence))])
        elif kind == "load":
            sequence.append(("load", load_params(_masks(rng, links, LOAD_MASKS), seed)))
        else:
            sequence.append(("verdict", verdict_params(_masks(rng, links, VERDICT_MASKS), kind)))
    queries = [_masks(rng, links, VERDICT_MASKS) for _ in range(QUERIES)]
    return {"warmups": warmups, "sequence": sequence, "queries": queries}


def phases(inputs: dict) -> dict[str, list[tuple[str, dict]]]:
    """Every request of a round as (op, params), by phase, in order."""
    return {
        "warmups": list(inputs["warmups"]),
        "sequence": list(inputs["sequence"]),
        "queries": [("verdict", verdict_params(masks)) for masks in inputs["queries"]],
    }


def normalize(result: dict) -> dict:
    """A reply result without its wall-clock field."""
    record = dict(result["record"], runtime_seconds=0.0)
    return dict(result, record=record)


def answer_digest(result: dict) -> str:
    return digest(normalize(result))


# -- in-process replay: the answers pin.py pins, and the compute split --------


def replay(inputs: dict) -> dict:
    """Answer every request through an in-process ``QueryService``.

    Requests run one per ``run_batch`` call, in order, against a fresh
    session and an empty store, exactly as the server would compute
    them without batching.  ``answers`` holds the normalized results by
    phase, in request order.
    """
    from repro.experiments import ExperimentSession, ResultStore
    from repro.serve import QueryService
    from repro.serve.protocol import Request

    answers: dict[str, list[dict]] = {}
    compute_ms: list[float] = []
    work = make_work_dir()
    try:
        service = QueryService(
            session=ExperimentSession(), store=ResultStore(work / "answers.json")
        )
        start = time.perf_counter()
        for phase, requests in phases(inputs).items():
            answers[phase] = []
            for op, params in requests:
                begin = time.perf_counter()
                request = Request(id=str(len(compute_ms)), op=op, params=params)
                (response,) = service.run_batch([request])
                compute_ms.append((time.perf_counter() - begin) * 1000.0)
                if not response.get("ok"):
                    raise RuntimeError(f"in-process {op} failed: {response.get('error')}")
                answers[phase].append(normalize(response["result"]))
        wall = time.perf_counter() - start
    finally:
        remove_work_dir(work)
    return {"answers": answers, "compute_ms": compute_ms, "wall_s": wall, "stats": service.stats()}


def wrong_answers(answers: dict[str, list[dict]], pinned: dict[str, list[str]]) -> int:
    """How many replayed answers differ from the pinned digests."""
    return sum(
        digest(answer) != want
        for phase, wants in pinned.items()
        for answer, want in zip(answers[phase], wants, strict=True)
    )


# -- one round against a real server ------------------------------------------


class Server:
    """A ``repro serve`` child with an empty store; always stopped on exit."""

    def __init__(self, work):
        self.spawned = time.monotonic()
        self.stderr = open(work / "serve.stderr", "w")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--metrics-port", "0",
                "--store", str(work / "answers.json"),
            ],
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=self.stderr,
            text=True,
        )
        self.port = self.metrics_port = None
        try:
            # both ready lines come before the server accepts anything
            while self.port is None or self.metrics_port is None:
                line = self.proc.stdout.readline()
                if not line:
                    raise RuntimeError(f"repro serve exited {self.proc.wait()} before ready")
                if "listening on" in line:
                    self.port = int(line.rsplit(":", 1)[1])
                elif "metrics on" in line:
                    self.metrics_port = int(line.rsplit(":", 1)[1].split("/")[0])
        except BaseException:
            self.close()
            raise

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def scrape(self) -> dict[str, float]:
        """The ``/metrics`` sidecar's samples, summed over label sets."""
        # a bare socket: no proxy settings can route this off the host
        with socket.create_connection(("127.0.0.1", self.metrics_port), timeout=TIMEOUT) as sock:
            sock.sendall(b"GET /metrics HTTP/1.0\r\n\r\n")
            chunks = []
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        text = b"".join(chunks).decode().split("\r\n\r\n", 1)[1]
        totals: dict[str, float] = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                name, value = line.rsplit(" ", 1)
                name = name.split("{", 1)[0]
                totals[name] = totals.get(name, 0.0) + float(value)
        return totals

    def close(self) -> None:
        from repro.serve import QueryClient

        try:
            if self.proc.poll() is None and self.port is not None:
                with QueryClient(port=self.port, timeout=5.0, retries=0) as client:
                    client.shutdown()
                self.proc.wait(timeout=20)
        except Exception:  # noqa: BLE001 - stop it the hard way below
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
            self.stderr.close()


def _closed_loop(port: int, sequence, pinned) -> tuple[list[float], int, float]:
    """(latencies ms, wrong-or-failed count, wall s) of the closed loop."""
    from repro.serve import QueryClient

    latencies: list[list[float]] = [[] for _ in range(CLIENTS)]
    wrong = [0] * CLIENTS

    def client_loop(slot: int) -> None:
        with QueryClient(port=port, timeout=TIMEOUT) as client:
            for index in range(slot, len(sequence), CLIENTS):
                op, params = sequence[index]
                begin = time.perf_counter()
                try:
                    reply = client.request(op, params, raise_on_error=False)
                except Exception:  # noqa: BLE001 - a lost request counts as failed
                    wrong[slot] += 1
                    continue
                latencies[slot].append((time.perf_counter() - begin) * 1000.0)
                if (
                    not reply.get("ok")
                    or reply.get("partial")
                    or answer_digest(reply["result"]) != pinned[index]
                ):
                    wrong[slot] += 1

    threads = [threading.Thread(target=client_loop, args=(slot,)) for slot in range(CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [ms for slot in latencies for ms in slot], sum(wrong), time.perf_counter() - start


def _cold_query(port: int, masks, want: str) -> tuple[float, bool]:
    """(round trip ms including client start, correct?) of one ``repro query``."""
    command = [
        sys.executable, "-m", "repro", "query", "verdict", "--port", str(port),
        "--topology", TOPOLOGY, "--scheme", VERDICT_SCHEMES[0],
        "--destination", str(DESTINATION), "--json",
    ]
    for mask in masks:
        command += ["--failures", ",".join(f"{u}-{v}" for u, v in mask)]
    begin = time.perf_counter()
    done = subprocess.run(
        command, env=child_env(), capture_output=True, text=True, timeout=TIMEOUT
    )
    elapsed = (time.perf_counter() - begin) * 1000.0
    if done.returncode != 0:
        return elapsed, False
    reply = json.loads(done.stdout)
    return elapsed, bool(reply.get("ok")) and answer_digest(reply["result"]) == want


def run_round(inputs: dict, pinned: dict, scrape: bool = False, setup_only: bool = False) -> dict:
    """One fresh server; ``setup_only`` stops it after the warm-ups."""
    from repro.serve import QueryClient

    work = make_work_dir()
    server = None
    try:
        server = Server(work)
        wrong = 0
        with QueryClient(port=server.port, timeout=TIMEOUT) as client:
            for (op, params), want in zip(inputs["warmups"], pinned["warmups"], strict=True):
                reply = client.request(op, params, raise_on_error=False)
                wrong += not reply.get("ok") or answer_digest(reply["result"]) != want
        setup = time.monotonic() - server.spawned
        if setup_only:
            return {"setup_s": setup, "attempted": len(inputs["warmups"]), "failed": wrong}
        latencies, loop_wrong, loop_wall = _closed_loop(
            server.port, inputs["sequence"], pinned["sequence"]
        )
        wrong += loop_wrong
        query_ms = []
        for masks, want in zip(inputs["queries"], pinned["queries"], strict=True):
            elapsed, ok = _cold_query(server.port, masks, want)
            query_ms.append(elapsed)
            wrong += not ok
        out = {
            "setup_s": setup,
            "wall_s": loop_wall,
            "latency_ms": latencies,
            "query_ms": query_ms,
            "rss_mb": server.peak_rss_mb(),
            "attempted": len(inputs["warmups"]) + len(inputs["sequence"]) + len(query_ms),
            "failed": wrong,
        }
        if scrape:
            with QueryClient(port=server.port, timeout=TIMEOUT) as client:
                out["stats"] = client.server_stats()
            out["scrape"] = server.scrape()
        return out
    finally:
        if server is not None:
            server.close()
        remove_work_dir(work)


def client_import_s(repeats: int = 3) -> float:
    """Median seconds of a fresh ``import repro.cli``, timed in the child."""
    code = "import time; t = time.perf_counter(); import repro.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=child_env(), capture_output=True, text=True, timeout=TIMEOUT, check=True,
        )
        times.append(float(done.stdout))
    return median(times)


def _server_layers(round_out: dict, client_p50: float, compute_p50: float) -> dict:
    stats, scrape = round_out["stats"], round_out["scrape"]
    enqueued = scrape.get("repro_serve_queue_depth_enqueued_total", 0.0)
    # one worker wake-up per single request plus one per coalesced batch
    wakeups = enqueued - stats["batched_requests"] + stats["batches"]
    return {
        "serve.compute_ms": compute_p50,
        "serve.overhead_ms": client_p50 - compute_p50,
        "serve.batch_size_mean": enqueued / wakeups if wakeups else 0.0,
        "serve.store_hit_ratio": ratio(stats["store_hits"], stats["store_misses"]),
        "serve.mask_memo_hit_ratio": ratio(stats["mask_memo_hits"], stats["mask_memo_misses"]),
    }


def traced_replays(inputs: dict, runs: int = 2) -> list[tuple[dict, float, dict]]:
    """(per-layer metrics, wall s, answers) of traced in-process replays.

    Installs the layer wrappers in this process for good: call it only
    from a process of the benchmark's own.
    """
    import layers
    from repro import obs

    clock = layers.install()
    out = []
    for _ in range(runs):
        clock.reset()
        telemetry = obs.Telemetry()
        with obs.installed(telemetry):
            traced = replay(inputs)
        metrics = layers.layer_metrics(
            clock, telemetry.registry.snapshot(), traced["stats"]["session"]
        )
        out.append((metrics, traced["wall_s"], traced["answers"]))
    return out


def measure(seed: int, seconds: float, trace: bool) -> dict:
    input_seed, pinned, _ = load_reference("serve-mix", seed)
    inputs = make_inputs(input_seed)

    # untraced rounds fill the run, or half of it when traced replays
    # follow; a fifth of that goes to set-up-only rounds
    budget = seconds / 2 if trace else seconds
    rounds = collect(
        budget * (1 - SETUP_SHARE),
        lambda index: run_round(inputs, pinned, scrape=trace and index == 0),
        lambda r: r["setup_s"] + r["wall_s"],
    )
    starts = collect(
        budget * SETUP_SHARE,
        lambda _: run_round(inputs, pinned, setup_only=True),
        lambda r: r["setup_s"],
    )

    latencies = [ms for r in rounds for ms in r["latency_ms"]]
    query_ms = [ms for r in rounds for ms in r["query_ms"]]
    setups = [r["setup_s"] for r in rounds + starts]
    result = {
        "input_seed": input_seed,
        "samples": len(rounds),
        "attempted": sum(r["attempted"] for r in rounds + starts),
        "failed": sum(r["failed"] for r in rounds + starts),
        "metrics": {
            "setup_s": min(setups),
            "wall_s": median([r["wall_s"] for r in rounds]),
            "peak_rss_mb": median([r["rss_mb"] for r in rounds]),
            "op_p50_ms": median(latencies),
            "op_p95_ms": percentile(latencies, 0.95),
        },
        "details": {
            "throughput_rps": len(latencies) / sum(r["wall_s"] for r in rounds),
            "query_p50_ms": median(query_ms),
            "op_samples": len(latencies),
            "query_samples": len(query_ms),
            "setup_samples": len(setups),
            "wall_s_samples": [r["wall_s"] for r in rounds],
            "setup_s_samples": setups,
        },
        "checks": {},
    }
    if trace:
        import layers

        # an untraced replay, warm like the traced ones, is the
        # compute-time base of the serve split and of trace.overhead
        timing = replay(inputs)
        replays = traced_replays(inputs)
        for answers in [timing["answers"]] + [answers for _, _, answers in replays]:
            result["attempted"] += sum(len(phase) for phase in answers.values())
            result["failed"] += wrong_answers(answers, pinned)
        compute_p50 = median(timing["compute_ms"])
        layer_values = _server_layers(rounds[0], median(rounds[0]["latency_ms"]), compute_p50)
        (first, wall, _), (second, _, _) = replays
        traced, mismatched = layers.traced_summary(first, second, wall)
        result["checks"]["count_determinism"] = not mismatched
        result["checks"]["count_mismatches"] = mismatched
        layer_values.update(traced)
        layer_values["trace.overhead"] = wall / timing["wall_s"]
        layer_values["client.import_s"] = client_import_s()
        result["layers"] = layer_values
    return result
