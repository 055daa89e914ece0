"""Job model of the serving layer: what one queued assay request is.

An :class:`AssaySpec` is the immutable description of the work (which
bioassay, which sampled chip, which seed); an :class:`AssayJob` wraps one
spec with serving state — queue position, lifecycle timestamps, the run
outcome, and the per-job journal event buffer the HTTP event stream
serves.  Specs deliberately mirror the ``repro run`` CLI options so a
submitted job reproduces, bit for bit, the trace of the equivalent solo
``repro run`` invocation (the core correctness gate of the serving
layer).
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any

#: Lifecycle states of a served job, in order.  ``rejected`` is terminal
#: for jobs refused at admission (draining server) or cancelled from the
#: queue when a drain deadline expires before they run.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
REJECTED = "rejected"

JOB_STATES = (QUEUED, RUNNING, DONE, FAILED, REJECTED)

_ids = itertools.count(1)


def next_job_id() -> str:
    """Process-unique, monotonically increasing job ids (``job-7``)."""
    return f"job-{next(_ids)}"


@dataclass(frozen=True)
class AssaySpec:
    """One assay request: bioassay + chip sampling + execution bounds.

    Field-for-field this is the deterministic core of the ``repro run``
    options: the same spec always samples the same chip and simulator
    RNG streams, so the execution trace is a pure function of the spec
    (plus strategy content, which the store keeps bit-identical to the
    synchronous path).
    """

    bioassay: str = "covid-rat"
    width: int = 60
    height: int = 30
    seed: int = 0
    max_cycles: int = 800
    tau_min: float = 0.5
    tau_max: float = 0.9
    c_min: float = 200.0
    c_max: float = 500.0
    priority: int = 0

    def validate(self) -> None:
        """Raise ``ValueError`` on the first out-of-domain field."""
        from repro.bioassay.library import ALL_BIOASSAYS

        if self.bioassay not in ALL_BIOASSAYS:
            raise ValueError(
                f"unknown bioassay {self.bioassay!r}; "
                f"known: {', '.join(sorted(ALL_BIOASSAYS))}"
            )
        if self.width < 8 or self.height < 8:
            raise ValueError(
                f"chip too small: {self.width}x{self.height} (min 8x8)"
            )
        if self.max_cycles < 1:
            raise ValueError(f"max_cycles must be >= 1, got {self.max_cycles}")
        if not (0.0 < self.tau_min <= self.tau_max):
            raise ValueError(
                f"bad tau range ({self.tau_min}, {self.tau_max})"
            )
        if not (0.0 < self.c_min <= self.c_max):
            raise ValueError(f"bad c range ({self.c_min}, {self.c_max})")

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "AssaySpec":
        """Build and validate a spec from a decoded JSON body.

        Unknown keys are an error (they would silently change nothing —
        the classic mistyped-field trap); missing keys take the CLI
        defaults above.
        """
        if not isinstance(payload, dict):
            raise ValueError(
                f"job spec must be a JSON object, got {type(payload).__name__}"
            )
        known = cls.__dataclass_fields__
        unknown = sorted(set(payload) - set(known))
        if unknown:
            raise ValueError(
                f"unknown spec field(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        coerced: dict[str, Any] = {}
        for name, value in payload.items():
            target = known[name].type
            try:
                if target == "int":
                    coerced[name] = int(value)
                elif target == "float":
                    coerced[name] = float(value)
                else:
                    coerced[name] = str(value)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"bad value for {name!r}: {value!r}") from exc
        spec = cls(**coerced)
        spec.validate()
        return spec

    def to_dict(self) -> dict[str, Any]:
        return {
            name: getattr(self, name) for name in self.__dataclass_fields__
        }


@dataclass
class AssayJob:
    """One spec plus its serving lifecycle.

    Mutable state is guarded by the owning service's structures (the
    scheduler moves ``state`` forward under the service lock); the events
    buffer has its own lock because the journal sink appends from
    arbitrary emitting threads while HTTP readers page through it.
    """

    spec: AssaySpec
    id: str = field(default_factory=next_job_id)
    state: str = QUEUED
    #: Wall-clock timestamps (``time.time``) — what HTTP clients see.
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    result: dict[str, Any] | None = None
    error: str | None = None
    max_events: int = 10_000

    def __post_init__(self) -> None:
        self._events: list[dict[str, Any]] = []
        self._dropped = 0
        self._events_lock = threading.Lock()
        self._done = threading.Event()
        # Monotonic twins of the wall-clock timestamps: durations must not
        # jump when NTP steps the system clock mid-job.
        self._submitted_mono = time.monotonic()
        self._started_mono: float | None = None
        self._finished_mono: float | None = None

    # -- lifecycle timestamps --------------------------------------------

    def mark_started(self) -> None:
        """Stamp the start on both clocks (wall for clients, mono for
        durations)."""
        self.started_at = time.time()
        self._started_mono = time.monotonic()

    def mark_finished(self) -> None:
        """Stamp the finish on both clocks."""
        self.finished_at = time.time()
        self._finished_mono = time.monotonic()

    # -- terminal-state signalling (HTTP long-poll) ----------------------

    def mark_done(self) -> None:
        """Signal that the job reached a terminal state."""
        self._done.set()

    def wait_done(self, timeout: float | None = None) -> bool:
        """Block until the job is terminal; ``False`` on timeout."""
        return self._done.wait(timeout)

    # -- event buffer (journal sink -> HTTP event stream) ----------------

    def record_event(self, record: dict[str, Any]) -> None:
        """Append one journal record; oldest records drop past the cap."""
        with self._events_lock:
            self._events.append(record)
            if len(self._events) > self.max_events:
                del self._events[0]
                self._dropped += 1

    def events(self, since: int = 0) -> tuple[list[dict[str, Any]], int]:
        """Records after buffer offset ``since``; returns (page, next).

        ``next`` is the offset to pass as the next ``since`` — offsets
        count all records ever buffered, so a reader that fell behind a
        trimmed buffer resumes at the oldest retained record rather than
        silently re-reading.
        """
        with self._events_lock:
            start = max(since - self._dropped, 0)
            page = self._events[start:]
            return page, self._dropped + len(self._events)

    # -- documents -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        document: dict[str, Any] = {
            "id": self.id,
            "state": self.state,
            "spec": self.spec.to_dict(),
            "submitted_at": round(self.submitted_at, 6),
        }
        if self.started_at is not None:
            document["started_at"] = round(self.started_at, 6)
        if self.finished_at is not None:
            document["finished_at"] = round(self.finished_at, 6)
        if self._started_mono is not None:
            document["queued_ms"] = round(
                (self._started_mono - self._submitted_mono) * 1e3, 3
            )
        if self._finished_mono is not None and self._started_mono is not None:
            document["run_ms"] = round(
                (self._finished_mono - self._started_mono) * 1e3, 3
            )
        if self.result is not None:
            document["result"] = self.result
        if self.error is not None:
            document["error"] = self.error
        return document
