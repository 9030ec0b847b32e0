"""Serving resilience queries: warm caches and reliable request-reply.

Starts the ``repro serve`` service in-process (normally you would run
``PYTHONPATH=src python -m repro.cli serve --port 7421 --store
answers.json`` in its own terminal), then talks to it over real TCP
with the Lazy-Pirate client:

* a **cold** query pays graph construction, routing-state build and the
  full failure sweep;
* repeating it is a **warm** hit on the disk-backed answer cache —
  byte-identical result, served in well under a millisecond;
* ``budget_seconds`` turns an oversized sweep into a best-effort
  partial verdict (``exhaustive=False``) instead of an unbounded wait.

Run:  python examples/serve_quickstart.py
"""

import asyncio
import tempfile
import threading
import time

from repro.experiments import ResultStore
from repro.serve import QueryClient, QueryService, ResilienceServer


def start_server(store_path) -> tuple[threading.Thread, "ResilienceServer", asyncio.AbstractEventLoop]:
    """The in-process stand-in for ``repro serve`` (one warm session)."""
    box = {}
    ready = threading.Event()

    def run():
        async def main():
            server = ResilienceServer(
                service=QueryService(store=ResultStore(store_path)), port=0
            )
            await server.start()
            box["server"], box["loop"] = server, asyncio.get_event_loop()
            ready.set()
            await server.serve_forever()

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    if not ready.wait(20):
        raise RuntimeError("server did not start")
    return thread, box["server"], box["loop"]


def main() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        thread, server, loop = start_server(f"{scratch}/answers.json")
        print(f"service listening on 127.0.0.1:{server.bound_port}")

        with QueryClient(port=server.bound_port) as client:
            print(f"ping -> {client.ping()['result']}")

            # --- cold vs warm: the same verdict twice -------------------
            params = dict(
                topology="maximal-outerplanar(10)",
                scheme="right-hand",
                model="random:sizes=2/3,samples=200",
            )
            start = time.perf_counter()
            cold = client.verdict(**params)
            cold_ms = (time.perf_counter() - start) * 1000
            start = time.perf_counter()
            warm = client.verdict(**params)
            warm_ms = (time.perf_counter() - start) * 1000
            verdict = cold["result"]["verdict"]
            print(
                f"cold verdict: resilient={verdict['resilient']} "
                f"({verdict['scenarios_checked']} scenarios, {cold_ms:.1f} ms)"
            )
            print(
                f"warm verdict: cached={warm['cached']} ({warm_ms:.2f} ms), "
                f"answer identical: {warm['result'] == cold['result']}"
            )

            # --- explicit failure sets ---------------------------------
            reply = client.verdict(
                topology="grid(3)",
                scheme="greedy",
                destination=0,
                failure_sets=[[[0, 1], [1, 2]], [[3, 4]]],
            )
            verdict = reply["result"]["verdict"]
            print(
                f"explicit masks on grid(3)/greedy: resilient={verdict['resilient']} "
                f"({verdict['scenarios_checked']} scenarios checked)"
            )

            # --- a deadline turns big sweeps into partial answers ------
            reply = client.verdict(
                topology="maximal-outerplanar(14)",
                scheme="right-hand",
                model="random:sizes=2/3/4,samples=2000",
                budget_seconds=0.01,
            )
            print(
                f"budgeted sweep: partial={reply['partial']} "
                f"(exhaustive={reply['result']['verdict']['exhaustive']}, "
                f"{reply['result']['verdict']['scenarios_checked']} scenarios before the cut)"
            )

            stats = client.server_stats()
            print(
                f"server stats: {stats['requests_handled']} requests, "
                f"{stats['store_hits']} answer-cache hits, "
                f"{stats['batches']} batches"
            )

        loop.call_soon_threadsafe(server.request_stop)
        thread.join(20)
        print("server stopped cleanly")


if __name__ == "__main__":
    main()
