"""Wire protocol of the resilience-query service: framed, versioned JSON.

A message is one *frame*: a 4-byte big-endian unsigned length followed
by that many bytes of UTF-8 JSON.  Length-prefixed framing keeps the
parser trivial (no sentinel scanning, no partial-JSON buffering) and
makes oversized or garbage input a clean :class:`ProtocolError` instead
of a hung read.

Envelopes are versioned.  A request carries ``{"v": 1, "id", "op",
"params", "budget_seconds"}``; a reply mirrors the request id and adds
``ok`` / ``result`` (or ``error``), plus two service-level flags:
``cached`` (the answer came from the memoized :class:`~repro.
experiments.results.ResultStore` without recomputation) and ``partial``
(a per-request :class:`~repro.runtime.deadline.Deadline` cut the sweep
— the result is a best-effort ``exhaustive=False`` prefix).

The id-mirroring is what makes the Lazy-Pirate client sound: a client
that timed out, reconnected and resent can discard any stale reply
whose id does not match the request in flight.

Node labels travel as JSON values; tuples (fat-tree's ``("core", 0)``
labels) become JSON arrays and are restored to tuples on the way in, so
every registered topology is addressable over the wire.

Compute ops pick their failure scenarios with either an explicit
``failure_sets`` list or a ``model`` spec string or label
(``"iid:p=0.01,samples=500,seed=0"`` — parsed by
:func:`repro.failures.parse_failure_model`, the same grammar the CLI
and ``run_grid`` use; ``random`` when neither is given).  Sampled
models answer ``verdict`` with a point estimate plus Wilson confidence
bounds instead of an exact sweep.  A param the op does not take is
refused, never ignored.
"""

from __future__ import annotations

import json
import socket
import struct
from dataclasses import dataclass, field

from ..graphs.edges import FailureSet, Node, edge, edge_sort_key

#: protocol version stamped into (and required of) every envelope
PROTOCOL_VERSION = 1

#: operations the service understands
OPS = ("ping", "stats", "verdict", "load", "grid", "shutdown")

#: hard cap on one frame (requests and replies alike)
MAX_FRAME = 16 * 1024 * 1024

_HEADER = struct.Struct(">I")


class ProtocolError(ValueError):
    """A frame or envelope that violates the wire protocol."""


# ---------------------------------------------------------------------------
# Framing.
# ---------------------------------------------------------------------------


def encode_frame(payload: dict) -> bytes:
    """One wire frame: length prefix + canonical JSON body."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds MAX_FRAME={MAX_FRAME}")
    return _HEADER.pack(len(body)) + body


def decode_body(body: bytes) -> dict:
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"frame body is not JSON: {error}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(f"frame body must be a JSON object, got {type(payload).__name__}")
    return payload


def frame_length(header: bytes) -> int:
    """Validated body length from a 4-byte frame header."""
    if len(header) != _HEADER.size:
        raise ProtocolError(f"truncated frame header ({len(header)} bytes)")
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError(f"frame of {length} bytes exceeds MAX_FRAME={MAX_FRAME}")
    return length


async def read_frame(reader) -> dict:
    """Read one frame from an asyncio stream (raises on EOF mid-frame)."""
    header = await reader.readexactly(_HEADER.size)
    body = await reader.readexactly(frame_length(header))
    return decode_body(body)


def write_frame(writer, payload: dict) -> None:
    writer.write(encode_frame(payload))


def _recv_exactly(sock: socket.socket, n: int) -> bytes:
    """Blocking exact read; raises ConnectionError on EOF mid-message."""
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError(f"connection closed {remaining} bytes short of a frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_frame(sock: socket.socket, payload: dict) -> None:
    sock.sendall(encode_frame(payload))


def recv_frame(sock: socket.socket) -> dict:
    """Blocking read of one frame (socket timeouts surface as OSError)."""
    header = _recv_exactly(sock, _HEADER.size)
    return decode_body(_recv_exactly(sock, frame_length(header)))


# ---------------------------------------------------------------------------
# Envelopes.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    """A validated request envelope."""

    id: str
    op: str
    params: dict = field(default_factory=dict)
    budget_seconds: float | None = None

    def to_payload(self) -> dict:
        return {
            "v": PROTOCOL_VERSION,
            "id": self.id,
            "op": self.op,
            "params": self.params,
            "budget_seconds": self.budget_seconds,
        }


def parse_request(payload: dict) -> Request:
    """Validate a request envelope (version, op, shapes)."""
    version = payload.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {version!r} (speak v{PROTOCOL_VERSION})")
    request_id = payload.get("id")
    if not isinstance(request_id, str) or not request_id:
        raise ProtocolError("request id must be a non-empty string")
    op = payload.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; known: {', '.join(OPS)}")
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError("params must be a JSON object")
    budget = payload.get("budget_seconds")
    if budget is not None:
        if not isinstance(budget, (int, float)) or isinstance(budget, bool) or budget < 0:
            raise ProtocolError(f"budget_seconds must be a non-negative number, got {budget!r}")
        budget = float(budget)
    return Request(id=request_id, op=op, params=params, budget_seconds=budget)


def ok_response(request_id: str, result: dict, partial: bool = False, cached: bool = False) -> dict:
    return {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "ok": True,
        "partial": bool(partial),
        "cached": bool(cached),
        "result": result,
    }


def error_response(request_id: str, kind: str, message: str) -> dict:
    return {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "ok": False,
        "error": {"type": kind, "message": message},
    }


def parse_response(payload: dict) -> dict:
    """Validate a reply envelope shape (the client's half of the contract)."""
    if payload.get("v") != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported reply version {payload.get('v')!r}")
    if not isinstance(payload.get("id"), str):
        raise ProtocolError("reply is missing its request id")
    ok = payload.get("ok")
    if ok is True:
        if not isinstance(payload.get("result"), dict):
            raise ProtocolError("ok reply is missing its result object")
    elif ok is False:
        error = payload.get("error")
        if not isinstance(error, dict) or "message" not in error:
            raise ProtocolError("error reply is missing its error object")
    else:
        raise ProtocolError("reply must set ok to true or false")
    return payload


# ---------------------------------------------------------------------------
# Node / failure-set JSON codecs.
# ---------------------------------------------------------------------------


def node_to_json(node: Node):
    """JSON encoding of a node label (tuples become arrays)."""
    if isinstance(node, tuple):
        return [node_to_json(part) for part in node]
    return node


def node_from_json(value) -> Node:
    """Inverse of :func:`node_to_json` (arrays become tuples)."""
    if isinstance(value, list):
        return tuple(node_from_json(part) for part in value)
    return value


def failure_set_to_json(failures: FailureSet) -> list:
    """Canonical JSON list-of-pairs form of one failure set (sorted,
    each pair in canonical ``edge()`` order)."""
    return [
        [node_to_json(u), node_to_json(v)]
        for u, v in sorted((edge(*pair) for pair in failures), key=edge_sort_key)
    ]


def failure_set_from_json(pairs) -> FailureSet:
    if not isinstance(pairs, list):
        raise ProtocolError(f"a failure set must be a list of [u, v] pairs, got {pairs!r}")
    links = []
    for pair in pairs:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ProtocolError(f"not a link pair: {pair!r}")
        try:
            links.append(edge(node_from_json(pair[0]), node_from_json(pair[1])))
        except ValueError as error:  # self-loop
            raise ProtocolError(str(error)) from None
    return frozenset(links)


def failure_sets_from_json(sets) -> list[FailureSet]:
    if not isinstance(sets, list):
        raise ProtocolError("failure_sets must be a list of failure sets")
    return [failure_set_from_json(pairs) for pairs in sets]


def failure_sets_to_json(sets) -> list:
    return [failure_set_to_json(failures) for failures in sets]
