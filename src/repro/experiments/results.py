"""Typed experiment records and a merge-don't-overwrite result store.

Both experiment surfaces — the grid runner and the query service's
answer cache — emit the same record type.

* :class:`ExperimentRecord` — one (experiment, topology, scheme,
  failure model) measurement: scalar ``metrics``, an optional per-point
  ``series`` (e.g. a congestion curve), free-form ``params`` and the
  wall-clock ``runtime_seconds``.  JSON round-trips losslessly.
* :class:`ResultStore` — a JSON file holding a ``records`` list plus
  any other top-level keys its writers put there.
  :meth:`ResultStore.merge` replaces records with the same identity key
  and keeps everything else; :meth:`ResultStore.write_csv` flattens
  records for spreadsheet use.  A merge encodes only the records it
  adds or replaces (each stored record's text is kept beside its
  identity) and still rewrites the whole file atomically.
"""

from __future__ import annotations

import csv
import io
import json
import pathlib
from dataclasses import asdict, dataclass, field

from ..runtime.journal import atomic_write_text

#: schema version stamped into every serialized record
RECORD_VERSION = 1

_SCALARS = (str, int, float, bool, type(None))


@dataclass
class ExperimentRecord:
    """One measurement of one scheme on one topology under one failure model.

    ``experiment`` names the metric family (``"resilience"``,
    ``"congestion"``, ``"stretch"``, ``"table_space"``, ...);
    ``status`` is ``"ok"``, ``"skipped"`` (with the reason in
    ``note`` — e.g. an inapplicable scheme), or ``"error"`` (a cell
    that raised: the exception summary goes in ``note`` and the full
    traceback in ``params["traceback"]``, so a failing cell is a typed
    record instead of an aborted grid).  ``metrics`` holds scalar
    results, ``series`` ordered per-point dicts (a curve), ``params``
    whatever identifies the workload (matrix, sizes, seed, ...).

    ``telemetry`` is an optional free-form mapping for observability
    sidecars (counter snapshots, span summaries).  The grid runner
    never populates it — records are byte-identical with telemetry on
    or off — and serialization omits it when empty, so stores written
    before the field existed round-trip unchanged.
    """

    experiment: str
    topology: str
    scheme: str
    failure_model: str = ""
    status: str = "ok"
    metrics: dict = field(default_factory=dict)
    series: list = field(default_factory=list)
    params: dict = field(default_factory=dict)
    runtime_seconds: float = 0.0
    note: str = ""
    telemetry: dict = field(default_factory=dict)
    version: int = RECORD_VERSION

    def __post_init__(self) -> None:
        for name, value in self.metrics.items():
            if not isinstance(value, _SCALARS):
                raise TypeError(
                    f"metric {name!r} must be a JSON scalar, got {type(value).__name__}"
                )

    def key(self) -> tuple[str, str, str, str, str, str]:
        """The merge identity: same key means 'same measurement, newer run'.

        The workload matrix (``params["matrix"]``, when present) and its
        seed (``params["matrix_seed"]``, when present) are part of the
        identity — the same scheme on the same grid under incast and
        under permutation traffic, or under two permutations, are
        different measurements.
        """
        # the fields are the raw dict's keys: one identity, no copy
        return ResultStore._entry_key(vars(self))

    def to_dict(self) -> dict:
        data = asdict(self)
        if not data["telemetry"]:
            del data["telemetry"]
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentRecord":
        known = {name for name in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown record fields: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentRecord":
        return cls.from_dict(json.loads(text))


def records_round_trip(records: list[ExperimentRecord]) -> bool:
    """Do the records survive JSON serialization losslessly?"""
    return all(ExperimentRecord.from_json(record.to_json()) == record for record in records)


class ResultStore:
    """A JSON-file-backed store that merges instead of overwriting.

    The document is a JSON object.  Records live under the ``"records"``
    key (a list of :class:`ExperimentRecord` dicts); any other top-level
    key is a free-form section owned by whoever wrote it, and
    :meth:`merge` preserves it.  A non-blank file that is not such an
    object (a cell journal, even a one-line one; a truncated document)
    raises :class:`ValueError` on first read instead of being
    overwritten.

    The file is always ``json.dumps(document, indent=2)`` plus a
    newline, rewritten atomically by every merge.  The store keeps each
    record's encoded text, so a merge encodes only the records it adds
    or replaces (and any other top-level section); a reload after an
    external write encodes every record once more.
    """

    def __init__(self, path: str | pathlib.Path):
        self.path = pathlib.Path(path)
        # identity index cached against the file's (mtime_ns, size)
        # stamp, so hot callers (the serve answer cache, repeated
        # merges) pay one parse per on-disk generation instead of one
        # scan per call.  An external writer bumps the stamp and the
        # cache rebuilds transparently.
        self._cache_stamp: tuple[int, int] | None = None
        self._cache_document: dict | None = None
        self._cache_index: dict[tuple, int] = {}
        self._cache_parsed: dict[int, ExperimentRecord] = {}
        # each record's encoded text, indented for its place in the file
        self._cache_texts: dict[int, str] = {}
        self._cache_duplicates = False

    # -- raw document ------------------------------------------------------

    def load_document(self) -> dict:
        """The stored JSON object; ``{}`` for a missing or blank file.

        Anything other than one JSON object with a ``"records"`` list
        raises :class:`ValueError` naming the path, so a later merge
        cannot overwrite it.
        """
        if not self.path.exists():
            return {}
        try:
            text = self.path.read_text()
            if not text or text.isspace():
                return {}
            document = json.loads(text)
        except (UnicodeDecodeError, json.JSONDecodeError):
            document = None
        if not isinstance(document, dict) or not isinstance(document.get("records"), list):
            raise ValueError(
                f"{self.path} is not a JSON result store (one JSON object with a records list)"
            )
        return document

    def _stamp(self) -> tuple[int, int] | None:
        try:
            info = self.path.stat()
        except OSError:
            return None
        return (info.st_mtime_ns, info.st_size)

    @staticmethod
    def _entry_key(entry: dict) -> tuple[str, str, str, str, str, str]:
        """A raw record dict's merge identity, without a full parse."""
        params = entry.get("params") or {}
        return (
            entry.get("experiment", ""),
            entry.get("topology", ""),
            entry.get("scheme", ""),
            entry.get("failure_model", ""),
            str(params.get("matrix", "")),
            str(params.get("matrix_seed", "")),
        )

    def _load_state(self) -> dict:
        """The cached (document, identity index), rebuilt if the file changed."""
        stamp = self._stamp()
        if self._cache_document is None or stamp != self._cache_stamp:
            self._adopt(self.load_document(), stamp)
        return self._cache_document

    def _adopt(self, document: dict, stamp: tuple[int, int] | None) -> None:
        raw = document.get("records", [])
        index: dict[tuple, int] = {}
        duplicates = False
        for position, entry in enumerate(raw):
            key = self._entry_key(entry)
            if key in index:
                duplicates = True
            index[key] = position
        self._cache_stamp = stamp
        self._cache_document = document
        self._cache_index = index
        self._cache_parsed = {}
        self._cache_texts = {}
        self._cache_duplicates = duplicates

    def _record_at(self, position: int) -> ExperimentRecord:
        record = self._cache_parsed.get(position)
        if record is None:
            record = ExperimentRecord.from_dict(self._cache_document["records"][position])
            self._cache_parsed[position] = record
        return record

    def _render(self, document: dict) -> str:
        """``json.dumps(document, indent=2) + "\\n"``, encoding only the
        records that have no cached text.

        A value encoded on its own is re-indented for its depth by
        adding spaces after each newline (JSON escapes the newlines in
        strings), and laid out the way the encoder lays out an object
        and a list.
        """
        texts = self._cache_texts
        items = []
        for key, value in document.items():
            if key == "records":
                for position, entry in enumerate(value):
                    if position not in texts:
                        texts[position] = json.dumps(entry, indent=2).replace("\n", "\n    ")
                records = ",\n    ".join(texts[position] for position in range(len(value)))
                items.append('"records": ' + (f"[\n    {records}\n  ]" if value else "[]"))
            else:
                text = json.dumps(value, indent=2).replace("\n", "\n  ")
                items.append(f"{json.dumps(key)}: {text}")
        return "{\n  " + ",\n  ".join(items) + "\n}\n" if items else "{}\n"

    def _write_document(self, document: dict) -> None:
        # atomic replace: a crash mid-write can never tear the store
        try:
            atomic_write_text(self.path, self._render(document))
        except BaseException:
            # the caches already hold the unwritten records: drop them,
            # so the next read sees what the file holds
            self._cache_document = None
            self._cache_texts = {}
            raise
        self._cache_stamp = self._stamp()

    # -- records -----------------------------------------------------------

    def load_records(self) -> list[ExperimentRecord]:
        document = self._load_state()
        return [self._record_at(position) for position in range(len(document.get("records", [])))]

    def identities(self) -> list[tuple[str, str, str, str, str, str]]:
        """Every stored record identity, in record order (O(1) per call)."""
        self._load_state()
        return list(self._cache_index)

    def lookup(self, identity: tuple) -> ExperimentRecord | None:
        """The stored record with this :meth:`ExperimentRecord.key`, or None.

        O(1) in the number of stored records — this is the serve answer
        cache's hot path.  On the (legacy) off-chance the on-disk list
        holds duplicate keys, the index points at the last occurrence,
        matching :meth:`merge`'s newest-wins collapse.
        """
        self._load_state()
        position = self._cache_index.get(tuple(identity))
        return self._record_at(position) if position is not None else None

    def merge(self, records: list[ExperimentRecord]) -> list[ExperimentRecord]:
        """Merge records by identity key: same-key records are replaced
        (newest wins), all others are kept.  Returns the merged list."""
        document = self._load_state()
        if self._cache_duplicates:
            # a store written before the index existed may hold
            # duplicate keys: collapse exactly the way the pre-index
            # merge did (first position, newest value)
            merged: dict[tuple, ExperimentRecord] = {
                record.key(): record
                for record in (
                    ExperimentRecord.from_dict(entry) for entry in document.get("records", [])
                )
            }
            for record in records:
                merged[record.key()] = record
            ordered = list(merged.values())
            document["records"] = [record.to_dict() for record in ordered]
            # re-index the rebuilt list (dropping every cached text)
            # before writing it
            self._adopt(document, self._cache_stamp)
            self._write_document(document)
            return ordered
        raw = document.setdefault("records", [])
        index = self._cache_index
        parsed = self._cache_parsed
        texts = self._cache_texts
        for record in records:
            key = record.key()
            position = index.get(key)
            if position is None:
                index[key] = len(raw)
                parsed[len(raw)] = record
                raw.append(record.to_dict())
            else:
                raw[position] = record.to_dict()
                parsed[position] = record
                texts.pop(position, None)
        ordered = [self._record_at(position) for position in range(len(raw))]
        # skip _adopt's rebuild: the index/parsed/text caches were
        # maintained incrementally above and match what we are writing
        self._write_document(document)
        return ordered

    # -- CSV export --------------------------------------------------------

    def write_csv(self, path: str | pathlib.Path) -> int:
        """Flatten the stored records to CSV (one row per record).

        Scalar metrics become ``metric:<name>`` columns; params become
        ``param:<name>`` columns; series are summarized by their length
        (the JSON store remains the lossless artifact).  Returns the
        number of rows written.
        """
        return write_records_csv(self.load_records(), path)


def write_records_csv(records: list[ExperimentRecord], path: str | pathlib.Path) -> int:
    metric_names = sorted({name for record in records for name in record.metrics})
    param_names = sorted({name for record in records for name in record.params})
    header = [
        "experiment",
        "topology",
        "scheme",
        "failure_model",
        "status",
        "runtime_seconds",
        "series_points",
        "note",
        *[f"metric:{name}" for name in metric_names],
        *[f"param:{name}" for name in param_names],
    ]
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    for record in records:
        writer.writerow(
            [
                record.experiment,
                record.topology,
                record.scheme,
                record.failure_model,
                record.status,
                f"{record.runtime_seconds:.6f}",
                len(record.series),
                record.note,
                *[record.metrics.get(name, "") for name in metric_names],
                *[record.params.get(name, "") for name in param_names],
            ]
        )
    atomic_write_text(path, buffer.getvalue())
    return len(records)


def records_table(records: list[ExperimentRecord]) -> str:
    """Fixed-width text table of records (CLI / examples)."""
    from ..analysis.reporting import simple_table

    rows = []
    for record in records:
        if record.status != "ok":
            summary = f"{record.status}: {record.note}" if record.note else record.status
        elif "estimate" in record.metrics:
            # a sampled-model record: point estimate, CI, sample count
            metrics = record.metrics
            summary = (
                f"estimate={metrics['estimate']:.3f} "
                f"[{metrics['ci_low']:.3f}, {metrics['ci_high']:.3f}] "
                f"n={metrics['samples']}/{metrics['planned_samples']}"
            )
            if not metrics.get("exhaustive", True):
                summary += " (cut)"
        else:
            shown = list(record.metrics.items())[:3]
            summary = "  ".join(
                f"{name}={value:.3g}" if isinstance(value, float) else f"{name}={value}"
                for name, value in shown
            )
        rows.append(
            [
                record.experiment,
                record.topology,
                record.scheme,
                record.failure_model or "-",
                summary,
                f"{record.runtime_seconds:.2f}s",
            ]
        )
    return simple_table(
        ["experiment", "topology", "scheme", "failures", "result", "runtime"], rows
    )
