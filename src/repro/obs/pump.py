"""Streaming telemetry: periodic metric snapshots and resource sampling.

The journal records *what happened*; during a long run the operator also
needs *what is happening* — are synthesis latencies drifting, is the
process leaking memory.  The
:class:`TelemetryPump` is a small daemon thread that, every ``interval_s``
seconds, emits two journal events:

* ``telemetry.snapshot`` — the cumulative flat metric snapshot
  (:meth:`~repro.obs.metrics.MetricsRegistry.snapshot`) plus the *delta*
  of counters since the previous tick (quiet intervals delta to ``{}``),
  so a journal tail shows live rates and an SLO tracker can evaluate per
  window;
* ``telemetry.resources`` — RSS and CPU time of this process read from
  ``/proc/self/stat``.

Everything is opt-in: no pump, no thread, no events.  A ``tick()`` is a
registry export + a handful of ``/proc`` reads — budgeted in
``benchmarks/bench_obs_overhead.py`` against the snapshot-path gate.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any

from repro import perf
from repro.obs.journal import RunJournal
from repro.obs.metrics import MetricsRegistry, state_delta

#: Default snapshot period (seconds).
DEFAULT_INTERVAL_S = 1.0

#: Whether the /proc resource sampler has anything to read (Linux).
HAVE_PROC = os.path.exists("/proc/self/stat")


def sample_process(pid: "int | None" = None) -> "dict[str, Any] | None":
    """RSS and CPU time of one process from ``/proc/<pid>/stat``.

    Returns ``{"pid", "rss_kb", "cpu_s"}`` or ``None`` when the process is
    gone or ``/proc`` is unavailable (non-Linux).
    """
    try:
        with open(f"/proc/{pid if pid is not None else 'self'}/stat") as fh:
            data = fh.read()
    except OSError:
        return None
    # Field 2 (comm) may contain spaces/parens; everything after the last
    # ')' is fixed-position: state utime=14 stime=15 rss=24 (1-based).
    try:
        fields = data.rsplit(")", 1)[1].split()
        utime, stime = int(fields[11]), int(fields[12])
        rss_pages = int(fields[21])
        clk_tck = os.sysconf("SC_CLK_TCK")
        page_size = os.sysconf("SC_PAGE_SIZE")
    except (IndexError, ValueError, OSError):
        return None
    return {
        "pid": pid if pid is not None else os.getpid(),
        "rss_kb": rss_pages * page_size // 1024,
        "cpu_s": (utime + stime) / clk_tck,
    }


class TelemetryPump:
    """A background thread emitting periodic telemetry journal events.

    ``journal`` is the sink (typically the run's configured journal);
    ``registry`` defaults to the live :func:`repro.perf.registry` resolved
    at each tick.
    """

    def __init__(
        self,
        journal: RunJournal,
        interval_s: float = DEFAULT_INTERVAL_S,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        self.journal = journal
        self.interval_s = interval_s
        self._registry = registry
        self._prev_state: "dict | None" = None
        self._started_at: "float | None" = None
        self._window = 0
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None

    @property
    def windows(self) -> int:
        """How many snapshot windows have been emitted so far."""
        return self._window

    def _resolve_registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else perf.registry()

    def tick(self) -> dict[str, Any]:
        """Emit one snapshot + resources window; returns the snapshot record.

        Exposed directly (not just via the thread) so a caller can force a
        final flush on shutdown and tests can drive the pump without
        sleeping.
        """
        now = time.monotonic()
        if self._started_at is None:
            self._started_at = now
        self._window += 1
        registry = self._resolve_registry()
        state = registry.export_state()
        delta = state_delta(self._prev_state, state)
        self._prev_state = state
        snapshot_record: dict[str, Any] = {
            "window": self._window,
            "elapsed_s": round(now - self._started_at, 3),
            "interval_s": self.interval_s,
            "metrics": registry.snapshot(),
            "delta_counters": delta["counters"],
        }
        self.journal.emit("telemetry.snapshot", **snapshot_record)

        self.journal.emit(
            "telemetry.resources", window=self._window,
            process=sample_process(),
        )
        perf.incr("obs.pump.ticks")
        return snapshot_record

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.tick()
            except Exception:  # pragma: no cover - never kill the host run
                perf.incr("obs.pump.errors")

    def start(self) -> "TelemetryPump":
        if self._thread is not None:
            raise RuntimeError("pump already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-telemetry-pump", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, flush: bool = True) -> None:
        """Stop the thread; ``flush`` emits one final window first."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=max(5.0, 2 * self.interval_s))
            self._thread = None
        if flush:
            self.tick()

    def __enter__(self) -> "TelemetryPump":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
