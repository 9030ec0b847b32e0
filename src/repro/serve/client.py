"""Lazy-Pirate client for the resilience-query service.

The reliability pattern is the ZeroMQ Guide's "Lazy Pirate" adapted to
a plain TCP stream: the client sends a request, polls for the reply
with a bounded timeout, and on timeout or connection failure *closes
the socket, reconnects, and resends the same envelope* — up to a retry
budget.  Two properties make the resend sound:

* request ids are unique and replies mirror them, so a stale reply
  from an abandoned attempt is recognized and discarded instead of
  being mistaken for the current answer;
* every service op is either read-only or idempotent (a ``verdict`` /
  ``load`` recompute merges the same record identity; ``shutdown``
  twice is still shut down), so a resend after a half-processed
  request cannot corrupt anything.

A server killed mid-request therefore looks like one slow attempt: the
client reconnects (to the restarted server) and gets a fresh answer —
the CI smoke job does exactly this.
"""

from __future__ import annotations

import itertools
import os
import socket
import time

from .protocol import (
    ProtocolError,
    Request,
    parse_response,
    recv_frame,
    send_frame,
)

#: defaults tuned for "local service, possibly mid-restart"
DEFAULT_TIMEOUT = 10.0
DEFAULT_RETRIES = 3
DEFAULT_RETRY_BACKOFF = 0.1


class ServeError(RuntimeError):
    """Base class for client-side service errors."""


class ServeTimeout(ServeError):
    """All retries exhausted without a matching reply."""


class RemoteError(ServeError):
    """The service answered with an error envelope."""

    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.message = message


class QueryClient:
    """A blocking Lazy-Pirate client (one in-flight request at a time).

    Usage::

        with QueryClient(port=7421) as client:
            reply = client.verdict("k5", "arborescence", model="random:sizes=1/2")
            reply["result"]["verdict"]["resilient"]
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7421,
        timeout: float = DEFAULT_TIMEOUT,
        retries: int = DEFAULT_RETRIES,
        retry_backoff: float = DEFAULT_RETRY_BACKOFF,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.retry_backoff = retry_backoff
        self._sock: socket.socket | None = None
        # unique-per-client id prefix: stale replies (from a timed-out
        # attempt, or another client's crosstalk) never match
        self._id_prefix = os.urandom(4).hex()
        self._id_counter = itertools.count(1)
        self.stats = {"requests": 0, "retries": 0, "stale_replies_discarded": 0}

    # -- connection management --------------------------------------------

    def _connected(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
            sock.settimeout(self.timeout)
            self._sock = sock
        return self._sock

    def _disconnect(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        self._disconnect()

    def __enter__(self) -> "QueryClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the Lazy-Pirate request loop --------------------------------------

    def request(
        self,
        op: str,
        params: dict | None = None,
        budget_seconds: float | None = None,
        raise_on_error: bool = True,
    ) -> dict:
        """Send one request reliably; returns the full reply envelope.

        Retries (reconnect + resend) on timeout, connection loss, and
        protocol garbage; discards replies whose id does not match the
        in-flight request.  Raises :class:`ServeTimeout` when the retry
        budget is exhausted and :class:`RemoteError` for service-side
        error envelopes (unless ``raise_on_error=False``).
        """
        request_id = f"{self._id_prefix}-{next(self._id_counter)}"
        payload = Request(
            id=request_id, op=op, params=params or {}, budget_seconds=budget_seconds
        ).to_payload()
        self.stats["requests"] += 1
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                self.stats["retries"] += 1
                if self.retry_backoff:
                    time.sleep(self.retry_backoff * attempt)
            try:
                sock = self._connected()
                send_frame(sock, payload)
                reply = self._await_reply(sock, request_id)
            except (OSError, ProtocolError) as error:
                # covers refused connections, timeouts (socket.timeout
                # is an OSError), resets, and framing garbage: the
                # socket is in an unknown state — drop it and resend
                # on a fresh connection
                self._disconnect()
                last_error = error
                continue
            if not reply.get("ok") and raise_on_error:
                error = reply.get("error", {})
                raise RemoteError(error.get("type", "Error"), error.get("message", ""))
            return reply
        raise ServeTimeout(
            f"no reply to {op!r} after {self.retries + 1} attempts "
            f"(last error: {last_error})"
        )

    def _await_reply(self, sock: socket.socket, request_id: str) -> dict:
        """Read replies until the one mirroring ``request_id`` arrives.

        Non-matching replies are responses to requests this client
        already gave up on — the Lazy-Pirate discard rule.
        """
        while True:
            reply = parse_response(recv_frame(sock))
            if reply["id"] == request_id:
                return reply
            self.stats["stale_replies_discarded"] += 1

    # -- op conveniences ---------------------------------------------------

    def ping(self) -> dict:
        return self.request("ping")

    def server_stats(self) -> dict:
        return self.request("stats")["result"]

    def verdict(
        self,
        topology: str,
        scheme: str,
        failure_sets: list | None = None,
        destination=None,
        model: str | None = None,
        budget_seconds: float | None = None,
    ) -> dict:
        params: dict = {"topology": topology, "scheme": scheme}
        if failure_sets is not None:
            params["failure_sets"] = failure_sets
            if destination is not None:
                params["destination"] = destination
        elif model is not None:
            params["model"] = model
        return self.request("verdict", params, budget_seconds=budget_seconds)

    def load(
        self,
        topology: str,
        scheme: str,
        matrix: str = "permutation",
        matrix_seed: int = 0,
        failure_sets: list | None = None,
        model: str | None = None,
        budget_seconds: float | None = None,
    ) -> dict:
        params: dict = {
            "topology": topology,
            "scheme": scheme,
            "matrix": matrix,
            "matrix_seed": matrix_seed,
        }
        if failure_sets is not None:
            params["failure_sets"] = failure_sets
        elif model is not None:
            params["model"] = model
        return self.request("load", params, budget_seconds=budget_seconds)

    def grid(
        self,
        topologies: list,
        schemes: list | None = None,
        metrics: list | None = None,
        model: str | None = None,
        matrix: str = "permutation",
        matrix_seed: int = 0,
        budget_seconds: float | None = None,
    ) -> dict:
        params: dict = {
            "topologies": topologies,
            "schemes": schemes,
            "matrix": matrix,
            "matrix_seed": matrix_seed,
        }
        if model is not None:
            params["model"] = model
        if metrics is not None:
            params["metrics"] = metrics
        return self.request("grid", params, budget_seconds=budget_seconds)

    def shutdown(self) -> dict:
        return self.request("shutdown")
