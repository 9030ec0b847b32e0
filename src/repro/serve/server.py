"""The asyncio TCP front end of the resilience-query service.

One :class:`ResilienceServer` owns:

* a TCP listener speaking the length-prefixed protocol (one frame in,
  one frame out, pipelining allowed per connection);
* a single compute queue + worker: compute ops (``verdict`` / ``load``
  / ``grid``) are enqueued and the worker drains *everything pending*
  into one :meth:`~repro.serve.service.QueryService.run_batch` call —
  while a sweep runs in the (single-threaded) executor, newly arriving
  queries pile up and get coalesced into the next batch.  This is the
  request-batching seam: identical queries in a batch compute once,
  and verdicts share the service's mask-outcome memo.  Control ops
  (``ping`` / ``stats`` / ``shutdown``) are answered inline on the
  event loop, so the server stays responsive while the engine is busy;
* an optional plain-HTTP sidecar exposing
  ``MetricsRegistry.render_prometheus()`` on ``GET /metrics`` (plus
  ``/healthz``), the same registry the engine's walk counters and the
  session's cache counters already feed;
* graceful shutdown on SIGTERM/SIGINT or a ``shutdown`` envelope:
  stop accepting, let the in-flight batch finish, close the executor,
  exit cleanly (the store is only ever touched through atomic merges,
  so a kill at any point leaves it intact).

Per-request telemetry goes through the same ``Telemetry`` install seam
the CLI uses: install one with :func:`repro.obs.installed` around
:meth:`ResilienceServer.serve_forever` and every request gets an
``obs.span("serve_request")`` plus request/latency/queue metrics.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import time

from repro import obs as _obs

from .protocol import (
    ProtocolError,
    Request,
    error_response,
    ok_response,
    parse_request,
    read_frame,
    write_frame,
)
from .service import QueryService

#: ops answered inline on the event loop (never queued behind a sweep)
CONTROL_OPS = frozenset({"ping", "stats", "shutdown"})


def _count(name: str, value: float = 1.0, help: str = "", **labels) -> None:
    telemetry = _obs.active()
    if telemetry is not None:
        telemetry.count(name, value, help=help, **labels)


class ResilienceServer:
    """One warm service behind a TCP socket (see module docstring)."""

    def __init__(
        self,
        service: QueryService | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics_port: int | None = None,
    ):
        self.service = service if service is not None else QueryService()
        self.host = host
        self.port = port
        self.metrics_port = metrics_port
        self.started = time.monotonic()
        self.requests_handled = 0
        self._queue: asyncio.Queue = asyncio.Queue()
        self._stopping = asyncio.Event()
        self._server: asyncio.AbstractServer | None = None
        self._metrics_server: asyncio.AbstractServer | None = None
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-sweep"
        )

    # -- lifecycle ---------------------------------------------------------

    @property
    def bound_port(self) -> int:
        """The port actually bound (resolves ``port=0`` ephemeral binds)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    @property
    def bound_metrics_port(self) -> int | None:
        if self._metrics_server is None:
            return None
        return self._metrics_server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._server = await asyncio.start_server(self._handle_connection, self.host, self.port)
        if self.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._handle_metrics, self.host, self.metrics_port
            )

    async def serve_forever(self) -> None:
        """Run until :meth:`request_stop` (signal, shutdown op, or test)."""
        if self._server is None:
            await self.start()
        worker = asyncio.ensure_future(self._worker())
        try:
            await self._stopping.wait()
        finally:
            self._server.close()
            await self._server.wait_closed()
            if self._metrics_server is not None:
                self._metrics_server.close()
                await self._metrics_server.wait_closed()
            await self._drain_queue()
            worker.cancel()
            try:
                await worker
            except asyncio.CancelledError:
                pass
            self._executor.shutdown(wait=True)

    def request_stop(self) -> None:
        self._stopping.set()

    async def _drain_queue(self) -> None:
        """Fail queued-but-unstarted requests cleanly during shutdown."""
        while not self._queue.empty():
            request, future = self._queue.get_nowait()
            if not future.done():
                future.set_result(
                    error_response(request.id, "ServerStopping", "server is shutting down")
                )

    # -- the compute worker ------------------------------------------------

    async def _worker(self) -> None:
        loop = asyncio.get_event_loop()
        while True:
            first = await self._queue.get()
            batch = [first]
            while not self._queue.empty():
                batch.append(self._queue.get_nowait())
            requests = [request for request, _ in batch]
            _count(
                "repro_serve_queue_batch_size",
                len(batch),
                help="requests drained per worker wakeup",
            )
            try:
                responses = await loop.run_in_executor(
                    self._executor, self.service.run_batch, requests
                )
            except Exception as error:  # noqa: BLE001 - a worker crash must not hang clients
                responses = [
                    error_response(request.id, type(error).__name__, str(error))
                    for request in requests
                ]
            for (request, future), response in zip(batch, responses):
                if not future.done():
                    future.set_result(response)

    # -- per-connection protocol loop --------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while not self._stopping.is_set():
                try:
                    payload = await read_frame(reader)
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    return  # client went away between frames
                except ProtocolError as error:
                    write_frame(writer, error_response("?", "ProtocolError", str(error)))
                    await writer.drain()
                    return  # framing is broken; the stream is unrecoverable
                try:
                    request = parse_request(payload)
                except ProtocolError as error:
                    write_frame(
                        writer,
                        error_response(
                            str(payload.get("id", "?")), "ProtocolError", str(error)
                        ),
                    )
                    await writer.drain()
                    continue  # envelope-level error: the stream survives
                response = await self._dispatch(request)
                write_frame(writer, response)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # mid-reply disconnect: the Lazy-Pirate client will retry
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, request: Request) -> dict:
        # per-request obs.span() tracing happens inside run_batch on the
        # compute thread (the TraceWriter's span stack is sequential);
        # here on the event loop we only touch metrics counters
        start = time.perf_counter()
        telemetry = _obs.active()
        if request.op in CONTROL_OPS:
            response = self._control(request)
        else:
            future: asyncio.Future = asyncio.get_event_loop().create_future()
            self._queue.put_nowait((request, future))
            _count(
                "repro_serve_queue_depth_enqueued_total",
                help="compute requests enqueued to the sweep worker",
            )
            response = await future
        self.requests_handled += 1
        status = "ok" if response.get("ok") else "error"
        _count(
            "repro_serve_requests_total",
            help="requests handled, by op and status",
            op=request.op,
            status=status,
        )
        if response.get("cached"):
            _count(
                "repro_serve_cached_responses_total",
                help="responses served from the answer cache",
                op=request.op,
            )
        if telemetry is not None:
            telemetry.observe(
                "repro_serve_request_seconds",
                time.perf_counter() - start,
                help="request latency by op",
                op=request.op,
            )
        return response

    def _control(self, request: Request) -> dict:
        if request.op == "ping":
            return ok_response(request.id, {"pong": True, "uptime_seconds": self.uptime()})
        if request.op == "stats":
            return ok_response(request.id, self.stats())
        # shutdown: acknowledge first, stop after the reply is written
        self.request_stop()
        return ok_response(request.id, {"stopping": True})

    def uptime(self) -> float:
        return time.monotonic() - self.started

    def stats(self) -> dict:
        stats = self.service.stats()
        stats.update(
            {
                "requests_handled": self.requests_handled,
                "queue_depth": self._queue.qsize(),
                "uptime_seconds": self.uptime(),
            }
        )
        return stats

    # -- /metrics sidecar --------------------------------------------------

    async def _handle_metrics(self, reader, writer) -> None:
        """A deliberately tiny HTTP/1.0 responder for scrapes."""
        try:
            request_line = await reader.readline()
            while True:  # drain headers until the blank line
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.decode("latin-1", "replace").split()
            path = parts[1] if len(parts) > 1 else "/"
            if path.startswith("/metrics"):
                telemetry = _obs.active()
                if telemetry is not None:
                    body = telemetry.registry.render_prometheus()
                    status = "200 OK"
                else:
                    body = "# no metrics registry installed\n"
                    status = "200 OK"
            elif path.startswith("/healthz"):
                body = "ok\n"
                status = "200 OK"
            else:
                body = "not found\n"
                status = "404 Not Found"
            payload = body.encode("utf-8")
            writer.write(
                (
                    f"HTTP/1.0 {status}\r\n"
                    "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode("latin-1")
                + payload
            )
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


def serve(
    service: QueryService | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
    metrics_port: int | None = None,
    ready=None,
) -> int:
    """Blocking entry point: run a server until SIGTERM/SIGINT/shutdown.

    ``ready`` (if given) is called with the server once it is bound —
    the CLI uses it to print the actual ports; tests use it to learn
    ephemeral binds.  Returns 0 on graceful shutdown.
    """
    import signal

    async def _run() -> None:
        server = ResilienceServer(
            service=service, host=host, port=port, metrics_port=metrics_port
        )
        await server.start()
        loop = asyncio.get_event_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, server.request_stop)
            except (NotImplementedError, RuntimeError):  # pragma: no cover - non-unix
                pass
        if ready is not None:
            ready(server)
        await server.serve_forever()

    asyncio.run(_run())
    return 0
