"""Crash-safe persistence: atomic writes and an append-only cell journal.

Two primitives with one goal — a killed run never loses or corrupts
what it already finished:

* :func:`atomic_write_text` replaces a file via same-directory temp
  file + ``os.replace``.  A crash mid-write leaves the old contents
  untouched; readers never observe a half-written document.  The
  ``ResultStore`` JSON and CSV exports go through this.
* :class:`CellJournal` is an append-only JSONL log of completed grid
  cells, written next to the result store.  ``run_grid`` appends one
  line per finished cell (flush + fsync, so a kill loses at most the
  in-flight cell) and ``run_grid(..., resume=path)`` replays it to skip
  cells already done.  A torn final line (the appending process died
  mid-line) is detected on load and truncated away; a bad line before
  the last means the file is not a journal, and loading raises.

Payloads are plain JSON values; the journal knows nothing about
``ExperimentRecord`` — the experiment layer serializes before
appending, keeping the runtime the bottom layer.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any

from repro import obs

from .faults import TornWrite, fire


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + rename).

    The temp file lives in the target directory so ``os.replace`` is a
    same-filesystem atomic rename.  Data is flushed and fsynced before
    the rename, so after a crash the path holds either the complete old
    contents or the complete new contents — never a torn mix.

    Instrumented with the ``torn-write`` fault: an active spec makes
    this write half the bytes to the temp file and die (raising
    :class:`TornWrite`), simulating a crash mid-write; the target file
    is never touched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.tmp.{os.getpid()}"
    try:
        spec = fire("store-write")
        with open(tmp, "w", encoding="utf-8") as handle:
            if spec is not None and spec.kind == "torn-write":
                handle.write(text[: max(1, len(text) // 2)])
                handle.flush()
                raise TornWrite(f"injected torn write for {path}")
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        try:
            tmp.unlink()
        except FileNotFoundError:
            pass


class CellJournal:
    """Append-only JSONL journal of completed work keyed by string.

    Each line is ``{"key": <str>, "payload": <json>, "ts": <unix>}``.
    Appends are flushed and fsynced so a kill loses at most the line
    being written; loading tolerates exactly that torn tail by
    truncating the file at the last complete, parseable line.  Damage
    anywhere else (say, a JSON result store passed as the journal)
    raises :class:`ValueError` and leaves the file untouched.

    ``ts`` is the wall-clock time the line was appended.  It lives
    beside the payload, never inside it, so replayed payloads stay
    byte-identical to what the original writer produced; its only job
    is :meth:`staleness_seconds` — letting a resumed run report how old
    the journal it is trusting actually is.  Lines without ``ts``
    (journals written before the field existed) still load.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._entries: dict[str, Any] = {}
        self._last_ts: float | None = None
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        raw = self.path.read_text(encoding="utf-8")
        lines = raw.splitlines(keepends=True)
        valid_bytes = 0
        for number, line in enumerate(lines, start=1):
            if not line.endswith("\n"):
                break  # torn tail: the writer died mid-line
            try:
                entry = json.loads(line)
                key = entry["key"]
                payload = entry["payload"]
            except (json.JSONDecodeError, KeyError, TypeError):
                if number < len(lines):
                    raise ValueError(
                        f"{self.path} is not a cell journal (line {number} is not an entry)"
                    ) from None
                break
            self._entries[key] = payload
            ts = entry.get("ts") if isinstance(entry, dict) else None
            if isinstance(ts, (int, float)):
                self._last_ts = ts if self._last_ts is None else max(self._last_ts, ts)
            valid_bytes += len(line.encode("utf-8"))
        if valid_bytes != len(raw.encode("utf-8")):
            with open(self.path, "r+b") as handle:
                handle.truncate(valid_bytes)
            telemetry = obs.active()
            if telemetry is not None:
                telemetry.count(
                    "repro_journal_truncations_total",
                    help="torn journal tails truncated on load",
                )
                telemetry.point("journal_truncated", path=str(self.path))

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def payload(self, key: str) -> Any:
        """The journaled payload for ``key`` (KeyError if absent)."""
        return self._entries[key]

    @property
    def last_ts(self) -> float | None:
        """Wall-clock time of the newest entry, or ``None`` (empty / pre-ts)."""
        return self._last_ts

    def staleness_seconds(self, now: float | None = None) -> float | None:
        """Age of the newest journal entry, or ``None`` if unknowable."""
        if self._last_ts is None:
            return None
        return max(0.0, (time.time() if now is None else now) - self._last_ts)

    def append(self, key: str, payload: Any) -> None:
        """Durably record ``key`` as done (overwrites a replayed key).

        Keys are NOT sorted on purpose: replayed payloads must preserve
        the writer's dict ordering bit for bit, so a resumed run can
        reproduce the uninterrupted run's artifacts byte-identically.
        The wall-clock ``ts`` rides outside the payload for the same
        reason — replay reads payloads only.
        """
        ts = time.time()
        line = json.dumps({"key": key, "payload": payload, "ts": ts}) + "\n"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())
        self._entries[key] = payload
        self._last_ts = ts if self._last_ts is None else max(self._last_ts, ts)
        telemetry = obs.active()
        if telemetry is not None:
            telemetry.count(
                "repro_journal_appends_total", help="cell journal lines appended"
            )
            telemetry.point("journal_append", key=key)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CellJournal({str(self.path)!r}, entries={len(self)})"
