"""The run journal: a structured JSONL event log of one bioassay execution.

Where spans answer "where did the time go", the journal answers "what
happened": MO lifecycle transitions, resynthesis triggers with the health
fingerprints before/after, droplet stalls and recoveries, transport
failures, degradation-bucket crossings.  Each record is one JSON object
per line::

    {"seq": 17, "event": "resynthesis", "cycle": 42, "mo": "mix1", ...}

``seq`` is a journal-wide monotone sequence number (events without a cycle
— e.g. synthesis latencies reported by the router — still order totally);
``cycle`` is the scheduler's operational cycle when known.

Sinks are pluggable: a filesystem path (JSONL file, flushed per event so a
crashed run still leaves a readable journal), any writable text stream, a
callable receiving each record dict, or ``None`` for an in-memory journal
(the default; inspect via :attr:`RunJournal.records`).  Only the in-memory
journal keeps its records: one with a sink hands each record on and
retains nothing, so a long-lived server's journal does not grow.

:func:`journal_scope` stamps correlation fields (e.g. a serving job id)
into every record emitted from the current thread while the scope is
active — the per-job correlation mechanism of the ``repro.serve`` layer,
where N assay-worker threads share one process-global journal.
"""

from __future__ import annotations

import json
import threading
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TextIO

from repro.obs.tracing import jsonable

#: Version stamped into every emitted record as ``schema_version``.  Bump
#: when the meaning of a shared field changes (not when events are added —
#: the journal stays schema-free at the event level).  Version history:
#:
#: * **1** — initial versioned schema: ``seq`` (journal-wide monotone),
#:   optional ``cycle``, free-form event fields; adds the cross-process
#:   ``worker_pid``/``corr`` correlation fields and the ``telemetry.*``
#:   streaming-snapshot events.
JOURNAL_SCHEMA_VERSION = 1

#: Versions :func:`validate_event` accepts.  ``0`` stands for pre-version
#: journals (no ``schema_version`` field), which remain readable.
SUPPORTED_SCHEMA_VERSIONS = (0, JOURNAL_SCHEMA_VERSION)

#: Event names the reconfiguration layer (``repro.reconfig``) emits:
#:
#: * ``reconfig.quarantine`` — the quarantine map changed (``cycle``,
#:   ``version``, ``cells``, ``rects`` — up to the first 8 rectangles as
#:   1-based inclusive ``(xa, ya, xb, yb)`` tuples);
#: * ``reconfig.remap`` — a module placement was (or failed to be)
#:   relocated off quarantined silicon (``cycle``, ``mo``, ``success``;
#:   on success also ``from_locs``, ``to_locs`` and the quarantine-map
#:   ``version`` that triggered the remap).
RECONFIG_EVENTS = (
    "reconfig.quarantine",
    "reconfig.remap",
)


#: Thread-local stack of correlation-field dicts (see :func:`journal_scope`).
_scope_local = threading.local()


def scope_fields() -> dict[str, Any]:
    """The merged correlation fields of the current thread's active scopes.

    Inner scopes win on key collisions.  Empty when no scope is active —
    the common (non-serving) case costs one ``getattr``.
    """
    stack = getattr(_scope_local, "stack", None)
    if not stack:
        return {}
    merged: dict[str, Any] = {}
    for fields in stack:
        merged.update(fields)
    return merged


@contextmanager
def journal_scope(**fields: Any) -> Iterator[None]:
    """Stamp ``fields`` into every record this thread emits while active.

    Scopes nest (inner wins per key) and are strictly thread-local: an
    assay-worker thread wrapping a run in ``journal_scope(job_id=...)``
    correlates that job's events without touching records emitted by
    sibling threads sharing the same journal.  Explicit ``emit`` fields
    always win over scope fields.
    """
    stack = getattr(_scope_local, "stack", None)
    if stack is None:
        stack = []
        _scope_local.stack = stack
    stack.append(dict(fields))
    try:
        yield
    finally:
        stack.pop()


class RunJournal:
    """An append-only, sink-pluggable event log."""

    def __init__(
        self,
        sink: "str | Path | TextIO | Callable[[dict], None] | None" = None,
    ) -> None:
        self._lock = threading.Lock()
        self._seq = 0
        self._records: list[dict[str, Any]] = []
        self._fh: TextIO | None = None
        self._owns_fh = False
        self._callback: Callable[[dict], None] | None = None
        if sink is None:
            pass  # in-memory only
        elif callable(sink):
            self._callback = sink
        elif isinstance(sink, (str, Path)):
            self._fh = open(sink, "w", encoding="utf-8")
            self._owns_fh = True
        else:
            self._fh = sink

    def emit(self, event: str, cycle: int | None = None, **fields: Any) -> None:
        """Append one event record and forward it to the sink."""
        scoped = scope_fields()
        with self._lock:
            self._seq += 1
            record: dict[str, Any] = {
                "seq": self._seq,
                "schema_version": JOURNAL_SCHEMA_VERSION,
                "event": event,
            }
            if cycle is not None:
                record["cycle"] = int(cycle)
            for key, value in fields.items():
                record[key] = jsonable(value)
            for key, value in scoped.items():
                record.setdefault(key, jsonable(value))
            if self._fh is not None:
                self._fh.write(json.dumps(record) + "\n")
                self._fh.flush()
            elif self._callback is not None:
                self._callback(record)
            else:
                self._records.append(record)

    @property
    def records(self) -> list[dict[str, Any]]:
        """Every record emitted so far by an in-memory journal (one made
        with no sink); a journal with a file, stream or callable sink
        keeps none, and this is empty."""
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        with self._lock:
            return self._seq

    def close(self) -> None:
        with self._lock:
            if self._fh is not None and self._owns_fh:
                self._fh.close()
            self._fh = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def validate_event(record: Any) -> dict[str, Any]:
    """Check one journal record against the shared-field schema.

    Raises ``ValueError`` naming the first problem; returns the record
    unchanged when valid so the call composes (``validate_event(rec)``).
    Event-specific fields are intentionally not constrained — the journal
    is schema-free at that level — only the fields every consumer relies
    on: ``seq`` (positive int), ``event`` (non-empty str), ``cycle``
    (non-negative int when present) and a supported ``schema_version``.
    """
    if not isinstance(record, dict):
        raise ValueError(f"journal record must be a dict, got {type(record).__name__}")
    seq = record.get("seq")
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 1:
        raise ValueError(f"journal record needs a positive int 'seq', got {seq!r}")
    event = record.get("event")
    if not isinstance(event, str) or not event:
        raise ValueError(f"journal record needs a non-empty 'event', got {event!r}")
    version = record.get("schema_version", 0)
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        raise ValueError(
            f"unsupported journal schema_version {version!r} "
            f"(supported: {SUPPORTED_SCHEMA_VERSIONS})"
        )
    cycle = record.get("cycle")
    if cycle is not None and (
        not isinstance(cycle, int) or isinstance(cycle, bool) or cycle < 0
    ):
        raise ValueError(f"journal 'cycle' must be a non-negative int, got {cycle!r}")
    return record


def read_journal(
    path: "str | Path", strict: bool = False
) -> list[dict[str, Any]]:
    """Parse a JSONL journal file back into record dicts.

    A run that crashed (or was SIGKILLed) mid-``write`` leaves a partial
    final line; that is expected wreckage, so by default it is dropped
    with a ``RuntimeWarning`` naming the line instead of raising — the
    intact prefix is exactly what post-mortem tooling needs.  Garbage
    *before* the last line means the file is not a journal (or was
    corrupted at rest) and still raises ``ValueError``; ``strict=True``
    restores raising for the trailing line too.
    """
    records = []
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    last_content_line = 0
    for line_no, line in enumerate(lines, start=1):
        if line.strip():
            last_content_line = line_no
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            if line_no == last_content_line and not strict:
                warnings.warn(
                    f"{path}:{line_no}: dropping partial trailing record "
                    f"(crashed run?): {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                break
            raise ValueError(
                f"{path}:{line_no}: not a JSON record: {exc}"
            ) from exc
    return records


def iter_events(
    records: Iterable[dict[str, Any]], event: str
) -> list[dict[str, Any]]:
    """The subset of ``records`` with the given event name."""
    return [r for r in records if r.get("event") == event]
