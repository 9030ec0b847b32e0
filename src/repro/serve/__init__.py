"""``repro.serve`` — the persistent resilience-query service.

A stdlib-only service layer over the experiment API: a warm
:class:`~repro.experiments.session.ExperimentSession` behind an asyncio
TCP server speaking a length-prefixed JSON protocol (``protocol``),
with request coalescing into batches (``service`` / ``server``), a
disk-backed :class:`~repro.experiments.results.
ResultStore` answer cache, per-request deadlines, and a Lazy-Pirate
retrying client (``client``).  ``repro serve`` / ``repro query`` are
the CLI front ends.
"""

from .client import QueryClient, RemoteError, ServeError, ServeTimeout
from .protocol import (
    MAX_FRAME,
    OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    error_response,
    ok_response,
    parse_request,
    parse_response,
)
from .server import ResilienceServer, serve
from .service import QueryService

__all__ = [
    "MAX_FRAME",
    "OPS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "QueryClient",
    "QueryService",
    "RemoteError",
    "Request",
    "ResilienceServer",
    "ServeError",
    "ServeTimeout",
    "error_response",
    "ok_response",
    "parse_request",
    "parse_response",
    "serve",
]
