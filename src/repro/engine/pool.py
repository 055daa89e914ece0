"""The parallel synthesis engine: speculative multi-worker pre-synthesis.

Per-RJ strategy synthesis is the dominant cost of a bioassay execution
(Table V); the hybrid scheduler pays it serially, at MO-activation time, on
the planning thread.  The :class:`SynthesisEngine` moves that work onto a
``ProcessPoolExecutor``:

* **submission** ships a pickle-safe payload — the routing job, the force
  matrix derived from the sensed health, the query and epsilon, plus any
  warm-start values — to a worker that runs the ordinary
  :func:`~repro.core.synthesis.synthesize_with_field` and returns a compact
  ``{pattern: action, values}`` payload (no model object crosses the
  process boundary);
* **consumption** (:meth:`take`) matches results by the exact
  ``(job key, health fingerprint)`` pair.  A speculation computed for an
  older health state is *stale* and discarded; a result still in flight
  when the strategy is needed is a *miss* and the caller synthesizes
  synchronously.  Speculation therefore only ever changes latency, never
  routing decisions: any strategy it yields is the one synchronous
  synthesis would have produced for the same job and health.

Warm-start values are captured at submission time.  That matches the
synchronous path because warm values are keyed by job key and only change
when that same key is re-solved — and a re-solve installs a library entry
that takes precedence over any speculation.

**Fault tolerance** (:mod:`repro.engine.faults`): worker failures are
classified — a broken pool (worker OOM-killed / segfaulted) triggers an
executor rebuild with capped exponential backoff and resubmission of the
surviving speculations up to a retry budget; a deterministic payload error
is counted and falls back to synchronous synthesis; an in-flight
speculation that exceeds ``deadline_ms`` is reaped (a hung worker forces a
rebuild, since an executor cannot kill a single process).  When the
rebuild budget is exhausted the engine *degrades permanently*: the pool is
torn down, ``engine.degraded`` is set, an ``engine.degraded`` journal
event is emitted, and every subsequent plan runs on the synchronous path.
None of this can change routing: speculation results are matched exactly
and every failure path is a miss, so a faulted run routes bit-identically
to a no-pool run.

The engine also fronts the persistent :class:`~repro.engine.store.StrategyStore`
(``store_get``/``store_put``) so the router has a single speculation façade.
Counters: ``engine.prefetch.{submitted,hits,misses,stale,wasted,rejected,
deadline,floor}``, ``engine.fairshare.rejected``, ``engine.errors``,
``engine.fault.{pool,transient,payload}``, ``engine.rebuilds``,
``engine.retries``, ``engine.degraded``, ``engine.batch.submitted``; the
``engine.speculation.wasted_ratio`` gauge tracks wasted/submitted; spans:
``engine.submit`` / ``engine.wait`` / ``engine.batch.submit`` (the batched
presynthesis wave, also journaled as an ``engine.batch.submit`` event).

**Multi-tenancy** (:class:`TenantView`): one engine (and its store) can be
shared by N concurrent assays.  Every speculation is namespaced by a
tenant name, so assays can never consume — or block resubmission of —
each other's speculations; the engine itself is thread-safe (one lock
around the speculation state).  Fair-share admission splits
``max_inflight`` equally across registered tenants, so one assay's
speculative prefetch cannot starve another's, and the *admission floor*
(``admission_floor=True``) skips speculative submission entirely when a
single tenant runs on a single-core host — speculation there has nothing
to overlap with and only adds IPC cost (the ``BENCH_parallel`` quick-scale
regression).  The store façade is deliberately tenant-agnostic: store
entries are keyed by (job, health fingerprint) alone, which is exactly
what makes cross-assay amortization sound.

**Telemetry propagation** (:mod:`repro.obs.propagate`): when the parent
has any telemetry configured, submissions carry a capture config, workers
record their solve in a process-local ``worker.solve`` span (plus
``worker.synthesis`` journal events and a ``worker.solves`` counter), and
the bundle rides back on the result payload; :meth:`SynthesisEngine.take`
grafts it under the submitting span, so one merged Perfetto export shows
``engine.submit -> worker.solve -> take`` end to end.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from collections import deque
from concurrent.futures import CancelledError, Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

from repro import obs, perf
from repro.obs.propagate import WorkerCapture, capture_config, merge_telemetry
from repro.core.actions import DEFAULT_MAX_ASPECT
from repro.core.routing_job import RoutingJob
from repro.core.strategy import (
    RoutingStrategy,
    health_fingerprint,
    job_from_payload,
    job_to_payload,
    strategy_from_synthesis,
)
from repro.core.synthesis import (
    SYNTHESIS_EPSILON,
    BatchRequest,
    WarmStart,
    force_field_from_health,
    synthesize_batch,
    synthesize_with_field,
)
from repro.core.transitions import MatrixForceField
from repro.engine import chaos
from repro.engine.faults import FaultKind, RetryPolicy, classify_failure
from repro.engine.payload import (
    correlation_id,
    side_for_objective,
    warm_values_from_payload,
    warm_values_to_payload,
)
from repro.engine.store import StrategyStore
from repro.modelcheck.properties import Query

#: ``(tenant, job key, health fingerprint)`` — the identity of one
#: speculation.  The tenant is ``""`` for single-assay use (the CLI, the
#: benches), which keeps keys, chaos tokens and counters byte-identical to
#: the pre-tenancy engine.
_EngineKey = tuple[str, tuple[int, ...], bytes]


def _chaos_token(key: _EngineKey, attempt: int) -> str:
    """The deterministic chaos-decision token for one submission attempt."""
    tenant, job_key, fingerprint = key
    prefix = f"{tenant}|" if tenant else ""
    return (
        f"{prefix}{','.join(map(str, job_key))}|{fingerprint.hex()}"
        f"|a{attempt}"
    )


def _worker_synthesize(payload: dict) -> dict:
    """Worker-side synthesis: plain payloads in, plain payloads out.

    Runs in a pool process; must stay importable at module level so the
    executor can pickle a reference to it.
    """
    injector = chaos.injector()
    if injector is not None:
        injector.worker_inject(payload.get("chaos_token", ""))
    job = job_from_payload(payload["job"])
    field = MatrixForceField(np.asarray(payload["forces"], dtype=float))
    query = payload["query"]
    # Validate the seed's bounding side against the query it will warm:
    # a mismatch is a submission bug and must fail here, not silently
    # degrade into a rejected seed inside the solver.
    expected_side = side_for_objective(
        None if query is None else query.objective
    )
    capture = WorkerCapture(payload.get("telemetry"))
    with capture:
        started = time.perf_counter()
        with obs.span("worker.solve", job=job.key(), corr=capture.corr):
            result = synthesize_with_field(
                job,
                field,
                query=query,
                max_aspect=payload["max_aspect"],
                epsilon=payload["epsilon"],
                warm_values=warm_values_from_payload(
                    payload["warm_values"], expected_side=expected_side
                ),
            )
        out = _result_payload(job, result)
        perf.incr("worker.solves")
        obs.journal_event(
            "worker.synthesis",
            job=job.key(),
            ms=round((time.perf_counter() - started) * 1e3, 3),
            construct_ms=out["construct_ms"],
            solve_ms=out["solve_ms"],
            exists=out["strategy"] is not None,
        )
    bundle = capture.export()
    if bundle is not None:
        out["telemetry"] = bundle
    return out


def _result_payload(job: RoutingJob, result) -> dict:
    """The compact cross-process form of one synthesis result."""
    strategy = strategy_from_synthesis(job, result)
    return {
        "strategy": None if strategy is None else strategy.to_payload(),
        "expected_cycles": result.expected_cycles,
        "construct_ms": result.construction_time * 1e3,
        "solve_ms": result.solve_time * 1e3,
    }


def _worker_synthesize_batch(payload: dict) -> dict:
    """Worker-side batched synthesis: one pool task, many routing jobs.

    A whole presynthesis wave rides a single task so the batch kernel can
    share graph precompute across same-shape members and so the worker
    process's template cache / batch-value memo persist across waves.
    Results come back positionally (``payload["items"]`` order); each
    member is bit-identical to what :func:`_worker_synthesize` would have
    returned for it (:func:`~repro.core.synthesis.synthesize_batch`
    guarantees equivalence with the per-RJ path).
    """
    injector = chaos.injector()
    if injector is not None:
        injector.worker_inject(payload.get("chaos_token", ""))
    field = MatrixForceField(np.asarray(payload["forces"], dtype=float))
    query = payload["query"]
    expected_side = side_for_objective(
        None if query is None else query.objective
    )
    jobs = [job_from_payload(item["job"]) for item in payload["items"]]
    requests = [
        BatchRequest(
            job,
            field,
            warm_values=warm_values_from_payload(
                item["warm_values"], expected_side=expected_side
            ),
        )
        for job, item in zip(jobs, payload["items"])
    ]
    capture = WorkerCapture(payload.get("telemetry"))
    with capture:
        started = time.perf_counter()
        with obs.span(
            "worker.solve", jobs=len(jobs), batch=True, corr=capture.corr
        ):
            results = synthesize_batch(
                requests,
                query=query,
                max_aspect=payload["max_aspect"],
                epsilon=payload["epsilon"],
            )
        out: dict = {
            "results": [
                _result_payload(job, result)
                for job, result in zip(jobs, results)
            ]
        }
        perf.incr("worker.solves", len(jobs))
        batch_ms = round((time.perf_counter() - started) * 1e3, 3)
        for job, member in zip(jobs, out["results"]):
            obs.journal_event(
                "worker.synthesis",
                job=job.key(),
                batch=True,
                batch_ms=batch_ms,
                construct_ms=member["construct_ms"],
                solve_ms=member["solve_ms"],
                exists=member["strategy"] is not None,
            )
    bundle = capture.export()
    if bundle is not None:
        out["telemetry"] = bundle
    return out


def resolve_workers(workers: int) -> int:
    """``0`` means "all cores"; ``1`` disables the pool.

    Negative counts are a configuration error, not a silent way to turn
    the pool off — they raise so a typo'd sweep script fails loudly.
    """
    if workers < 0:
        raise ValueError(
            f"workers must be >= 0 (0 = one per core, 1 = no pool), "
            f"got {workers}"
        )
    if workers == 0:
        return os.cpu_count() or 1
    return workers


@dataclass
class _Speculation:
    """One in-flight worker job and the state needed to retry or reap it.

    ``index`` is set when the speculation is one member of a batched
    submission: several speculations then share one ``future`` (a single
    pool task running :func:`_worker_synthesize_batch`) and ``index``
    selects this member's slot in its ``"results"`` list.  ``payload`` is
    always the member's *solo* payload, so retries after a pool rebuild
    fall back to independent per-job tasks.  ``span_id`` is the submitting
    ``engine.submit`` / ``engine.batch.submit`` span, under which any
    worker-side spans shipped back on the result are grafted at
    consumption time (see :mod:`repro.obs.propagate`).
    """

    future: Future
    payload: dict
    submitted_at: float
    attempts: int = 1
    index: int | None = None
    span_id: int | None = None


class SynthesisEngine:
    """Speculative synthesis execution: worker pool + persistent store.

    ``workers`` — pool size; ``0`` = one per core, ``1`` = no pool (the
    engine then only fronts the store).  ``prefetch`` — whether the
    scheduler's per-cycle speculative prefetch is enabled (pre-synthesis
    via :meth:`~repro.core.scheduler.HybridScheduler.presynthesize` is the
    caller's explicit choice either way).  The synthesis parameters must
    match the router's — they are baked into every worker payload.

    ``policy`` bounds the fault-tolerance behaviour (see
    :class:`~repro.engine.faults.RetryPolicy`); the ``retries`` /
    ``deadline_ms`` / ``rebuild_budget`` keywords are a convenience for the
    common overrides and are ignored when an explicit policy is given.

    ``admission_floor`` — skip speculative submission when there is no
    concurrent demand (a single tenant) *and* no spare core to overlap
    with: on a single-core host, single-assay speculation only moves the
    same work behind an IPC boundary and loses to the synchronous path.
    Off by default (direct engine tests exercise speculation regardless of
    host shape); the CLI, the benches and ``repro serve`` turn it on.

    The engine is thread-safe and multi-tenant: :meth:`tenant` registers a
    named tenant and returns a :class:`TenantView` whose speculations are
    namespaced to it, with ``max_inflight`` split fairly across registered
    tenants.
    """

    def __init__(
        self,
        workers: int = 0,
        *,
        bits: int = 2,
        query: Query | None = None,
        max_aspect: float = DEFAULT_MAX_ASPECT,
        pessimistic: bool = False,
        epsilon: float = SYNTHESIS_EPSILON,
        store: StrategyStore | None = None,
        prefetch: bool = True,
        max_inflight: int = 128,
        retries: int = 2,
        deadline_ms: float | None = None,
        rebuild_budget: int = 3,
        policy: RetryPolicy | None = None,
        admission_floor: bool = False,
    ) -> None:
        if max_inflight <= 0:
            raise ValueError("max_inflight must be positive")
        self.workers = resolve_workers(workers)
        self.bits = bits
        self.query = query
        self.max_aspect = max_aspect
        self.pessimistic = pessimistic
        self.epsilon = epsilon
        self.store = store
        self.prefetch_enabled = prefetch
        self.max_inflight = max_inflight
        self.policy = policy if policy is not None else RetryPolicy(
            retries=retries,
            rebuild_budget=rebuild_budget,
            deadline_ms=deadline_ms,
        )
        self._executor: ProcessPoolExecutor | None = (
            ProcessPoolExecutor(max_workers=self.workers)
            if self.workers > 1
            else None
        )
        self.admission_floor = admission_floor
        # One lock around all speculation state: submissions, consumption
        # and fault handling may come from N assay-worker threads sharing
        # this engine (repro.serve).  RLock because fault paths re-enter
        # (take -> _reap -> _rebuild_pool -> _resubmit_inflight).
        self._lock = threading.RLock()
        self._tenants: set[str] = set()
        self._pending: dict[_EngineKey, _Speculation] = {}
        self._by_job: dict[tuple[str, tuple[int, ...]], _EngineKey] = {}
        # Discarded speculations whose worker task was still running: their
        # telemetry bundles (worker.solve spans, metric deltas) are salvaged
        # once the future completes, so the trace shows the wasted worker
        # work too.  Bounded: overflow drops the oldest un-salvageable entry.
        self._zombies: deque[_Speculation] = deque(maxlen=128)
        # Consumed speculations that found no plan: a definitive answer for
        # that exact key (the library never caches None), so don't resubmit.
        self._no_plan: set[_EngineKey] = set()
        self._closed = False
        self.degraded = False
        self.submitted = 0
        self.hits = 0
        self.misses = 0
        self.stale = 0
        self.wasted = 0
        self.errors = 0
        self.rebuilds = 0
        self.retried = 0
        self.deadline_reaps = 0
        self.fair_rejected = 0
        self.floor_skips = 0
        self.faults: dict[str, int] = {}

    # -- lifecycle -----------------------------------------------------------

    @property
    def pooled(self) -> bool:
        """Whether a worker pool is actually running."""
        return self._executor is not None

    def close(self) -> None:
        """Shut the pool down; unconsumed speculations count as wasted."""
        with self._lock:
            self._closed = True
            self._drop_all_speculations()
            self._drain_zombies(final=True)
            if self._executor is not None:
                self._executor.shutdown(wait=False, cancel_futures=True)
                self._executor = None
        if self.store is not None:
            self.store.close()

    # -- multi-tenancy -------------------------------------------------------

    def tenant(self, name: str) -> "TenantView":
        """Register a named tenant and return its engine façade.

        The view namespaces every speculation under ``name`` and shares
        the store; registering also raises the engine's *demand* (the
        admission floor lifts, fair shares shrink).  Release with
        :meth:`TenantView.close` when the assay finishes.
        """
        if not name:
            raise ValueError("tenant name must be non-empty")
        with self._lock:
            self._tenants.add(name)
        return TenantView(self, name)

    def invalidate(self, job: "RoutingJob", tenant: str = "") -> bool:
        """Discard any in-flight speculation for ``job`` (any fingerprint).

        Placement remapping retires a routing job wholesale — its key can
        never be requested again, so letting the speculation linger would
        only hold an in-flight slot until the deadline reaper finds it.
        The persistent store needs no invalidation: entries are keyed by
        job geometry plus health fingerprint, and a retired key is simply
        never looked up.  Returns whether a speculation was discarded.
        """
        with self._lock:
            key = self._by_job.get((tenant, job.key()))
            if key is None:
                return False
            self._discard(key)
        perf.incr("engine.prefetch.invalidated")
        return True

    def release_tenant(self, name: str) -> None:
        """Deregister a tenant, discarding its in-flight speculations."""
        with self._lock:
            self._tenants.discard(name)
            for key in [k for k in self._pending if k[0] == name]:
                self._discard(key)
            self._no_plan = {k for k in self._no_plan if k[0] != name}

    def _tenant_share(self) -> int:
        """Per-tenant in-flight cap: an equal split of ``max_inflight``."""
        active = len(self._tenants)
        if active <= 1:
            return self.max_inflight
        return max(1, self.max_inflight // active)

    def _admit(self, tenant: str, extra: int = 0) -> bool:
        """Fair-share admission of one more speculative submission.

        ``extra`` counts submissions the caller has already accepted in
        the same wave (batched presynthesis admits incrementally).
        """
        if len(self._pending) + extra >= self.max_inflight:
            perf.incr("engine.prefetch.rejected")
            return False
        held = sum(1 for key in self._pending if key[0] == tenant) + extra
        if held >= self._tenant_share():
            self.fair_rejected += 1
            perf.incr("engine.prefetch.rejected")
            perf.incr("engine.fairshare.rejected")
            return False
        return True

    def _speculation_admitted(self) -> bool:
        """The admission floor: is there anything for speculation to overlap?

        With more than one registered tenant, speculation overlaps another
        assay's critical path; with a spare core it overlaps this assay's
        own planning thread.  A single tenant on a single core has
        neither — submitting would only move the same synthesis behind an
        IPC boundary.
        """
        if not self.admission_floor:
            return True
        if len(self._tenants) > 1:
            return True
        if (os.cpu_count() or 1) > 1:
            return True
        self.floor_skips += 1
        perf.incr("engine.prefetch.floor")
        return False

    def _gauge_wasted(self) -> None:
        ratio = self.wasted / self.submitted if self.submitted else 0.0
        perf.set_gauge("engine.speculation.wasted_ratio", round(ratio, 6))

    def __enter__(self) -> "SynthesisEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- fault handling ------------------------------------------------------

    def _record_fault(
        self, kind: FaultKind, detail: object, job_key: tuple | None = None
    ) -> None:
        """Count and journal one classified worker failure."""
        self.errors += 1
        self.faults[kind.value] = self.faults.get(kind.value, 0) + 1
        perf.incr("engine.errors")
        perf.incr(f"engine.fault.{kind.value}")
        obs.journal_event(
            "engine.fault",
            kind=kind.value,
            job=job_key,
            detail=detail if isinstance(detail, str) else repr(detail),
        )

    def _kill_worker_processes(self) -> None:
        """SIGKILL the pool's worker processes (reaping hung workers).

        ``ProcessPoolExecutor`` cannot cancel a *running* task — shutdown
        waits for it — so reclaiming a hung worker means killing the
        process outright.  Best-effort over the executor's internal
        process table; a worker that already died is skipped.
        """
        processes = getattr(self._executor, "_processes", None) or {}
        for proc in list(processes.values()):
            pid = getattr(proc, "pid", None)
            if pid is None:
                continue
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError, OSError):
                pass

    def _degrade(self, reason: str) -> None:
        """Permanently fall back to the synchronous path (pool disabled)."""
        if self.degraded:
            return
        self.degraded = True
        perf.incr("engine.degraded")
        obs.journal_event(
            "engine.degraded", reason=reason, rebuilds=self.rebuilds
        )
        self._drop_all_speculations()
        if self._executor is not None:
            self._kill_worker_processes()
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def _drop_all_speculations(self) -> None:
        # Abandon, never Future.cancel(): cancelling a queued work item of
        # a pool that later breaks makes the executor's terminate_broken
        # call set_exception on a CANCELLED future — the management thread
        # dies mid-cleanup and the call-queue feeder hangs the process at
        # exit.  shutdown(cancel_futures=True) cancels safely (it runs in
        # the management thread itself); abandoned futures cost at most
        # one wasted worker computation.
        leftover = len(self._pending)
        if leftover:
            self.wasted += leftover
            perf.incr("engine.prefetch.wasted", leftover)
        for spec in self._pending.values():
            self._note_unconsumed(spec)
        self._pending.clear()
        self._by_job.clear()
        self._gauge_wasted()

    # -- wasted-work telemetry salvage ---------------------------------------

    def _note_unconsumed(self, spec: _Speculation) -> None:
        """Queue a discarded speculation for telemetry salvage.

        A pending-missed / stale / reaped / dropped speculation's worker
        task usually completes *after* the engine gave up on it; its
        telemetry bundle (worker.solve span, metric delta) still describes
        real work and is merged once the future finishes — wasted worker
        computation is exactly what an operator wants visible in a trace.
        """
        if spec.future.done():
            self._salvage_telemetry(spec)
        else:
            self._zombies.append(spec)

    def _salvage_telemetry(self, spec: _Speculation) -> None:
        """Merge the telemetry of one completed, unconsumed speculation."""
        future = spec.future
        if not future.done() or future.cancelled():
            return
        if future.exception() is not None:
            return
        payload = future.result()
        if isinstance(payload, dict):
            telemetry = payload.pop("telemetry", None)
            if telemetry is not None:
                merge_telemetry(telemetry, parent_span_id=spec.span_id)

    def _drain_zombies(self, final: bool = False) -> None:
        """Salvage telemetry from discarded speculations that finished.

        Called opportunistically (futures complete roughly in submission
        order, so only the completed front is drained) and once more with
        ``final=True`` at close, where every remaining entry gets its last
        chance before the executor is torn down.
        """
        if final:
            while self._zombies:
                self._salvage_telemetry(self._zombies.popleft())
            return
        while self._zombies and self._zombies[0].future.done():
            self._salvage_telemetry(self._zombies.popleft())

    def _rebuild_pool(self) -> bool:
        """Replace a broken executor (backoff + budget); False = degraded.

        The old executor's workers are killed outright (a broken pool may
        still hold hung processes), the capped exponential backoff of the
        retry policy is paid, and the surviving in-flight speculations are
        resubmitted on the fresh pool within their retry budgets.
        """
        if self._executor is not None:
            self._kill_worker_processes()
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        if self._closed:
            return False
        if self.rebuilds >= self.policy.rebuild_budget:
            self._degrade("rebuild budget exhausted")
            return False
        delay = self.policy.backoff(self.rebuilds)
        if delay > 0:
            time.sleep(delay)
        self.rebuilds += 1
        perf.incr("engine.rebuilds")
        obs.journal_event(
            "engine.rebuild", attempt=self.rebuilds, backoff_ms=delay * 1e3
        )
        try:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        except OSError as exc:
            self._record_fault(FaultKind.POOL, exc)
            self._degrade("executor re-creation failed")
            return False
        self._resubmit_inflight()
        return True

    def _resubmit_inflight(self) -> None:
        """Re-run the in-flight payloads on a freshly built pool.

        A pool breakage fails *every* in-flight future at once; the
        payloads themselves are (presumed) innocent, so each is retried on
        the new executor until its retry budget runs out.  The attempt
        number feeds the chaos token, so injected kills re-roll on retry.
        """
        survivors: dict[_EngineKey, _Speculation] = {}
        for key, spec in self._pending.items():
            if spec.attempts > self.policy.retries:
                self._by_job.pop(key[:2], None)
                self.wasted += 1
                perf.incr("engine.prefetch.wasted")
                continue
            attempts = spec.attempts + 1
            payload = dict(spec.payload)
            payload["chaos_token"] = _chaos_token(key, attempts)
            try:
                future = self._executor.submit(_worker_synthesize, payload)
            except (BrokenProcessPool, RuntimeError):
                self._by_job.pop(key[:2], None)
                self.wasted += 1
                perf.incr("engine.prefetch.wasted")
                continue
            self.retried += 1
            perf.incr("engine.retries")
            survivors[key] = _Speculation(
                future, spec.payload, time.monotonic(), attempts
            )
        self._pending = survivors
        self._gauge_wasted()

    def _reap(self, key: _EngineKey, spec: _Speculation) -> None:
        """Evict one overdue speculation; a hung worker forces a rebuild."""
        self._pending.pop(key, None)
        self._by_job.pop(key[:2], None)
        # No Future.cancel() here (see _drop_all_speculations); a queued
        # overdue item simply runs to waste, a *running* one is hung.
        hung = spec.future.running()
        self.deadline_reaps += 1
        self.wasted += 1
        perf.incr("engine.prefetch.deadline")
        perf.incr("engine.prefetch.wasted")
        self._gauge_wasted()
        self._note_unconsumed(spec)
        obs.journal_event(
            "engine.deadline",
            job=key[1],
            deadline_ms=self.policy.deadline_ms,
            attempts=spec.attempts,
            hung=hung,
        )
        if hung:
            # The worker is still executing the overdue payload and the
            # executor cannot take the slot back — kill and rebuild.
            self._rebuild_pool()

    def _reap_overdue(self, exclude: _EngineKey | None = None) -> None:
        """Sweep every in-flight speculation past its deadline.

        ``exclude`` protects the key the caller is about to consume, so
        :meth:`take` can report it as ``"deadline"`` itself instead of the
        sweep silently turning it into an ``"absent"``.
        """
        deadline = self.policy.deadline_s
        if deadline is None or not self._pending:
            return
        now = time.monotonic()
        overdue = [
            (key, spec)
            for key, spec in self._pending.items()
            if key != exclude
            and not spec.future.done()
            and now - spec.submitted_at > deadline
        ]
        for key, spec in overdue:
            if key in self._pending:  # a rebuild may have dropped it already
                self._reap(key, spec)

    # -- speculation ---------------------------------------------------------

    def submit(
        self,
        job: RoutingJob,
        health: np.ndarray,
        warm_values: WarmStart = None,
        tenant: str = "",
    ) -> bool:
        """Speculatively synthesize ``(job, health)`` on the pool.

        At most one speculation per (tenant, job key) is in flight at a
        time, and the total in-flight count is bounded by ``max_inflight``
        split fairly across registered tenants; rejected submissions
        return ``False`` (the caller loses nothing — the job will fall
        back to synchronous synthesis).  Submission never raises: a broken
        or closed pool is counted, the pool is rebuilt when the budget
        allows, and ``False`` is returned — the scheduler loop must
        survive any engine state.
        """
        with self._lock:
            return self._submit(job, health, warm_values, tenant)

    def _submit(
        self,
        job: RoutingJob,
        health: np.ndarray,
        warm_values: WarmStart,
        tenant: str,
    ) -> bool:
        if self._executor is None or self.degraded or self._closed:
            return False
        if not self._speculation_admitted():
            return False
        self._reap_overdue()
        if self._executor is None:  # a hung-worker reap may have degraded us
            return False
        job_key = job.key()
        if (tenant, job_key) in self._by_job:
            return False
        if not self._admit(tenant):
            return False
        fingerprint = health_fingerprint(health, job.hazard)
        key = (tenant, job_key, fingerprint)
        if key in self._no_plan:
            return False
        forces = force_field_from_health(
            health, bits=self.bits, pessimistic=self.pessimistic
        ).forces
        payload = {
            "job": job_to_payload(job),
            "forces": forces,
            "query": self.query,
            "max_aspect": self.max_aspect,
            "epsilon": self.epsilon,
            "warm_values": warm_values_to_payload(
                warm_values,
                side=side_for_objective(
                    None if self.query is None else self.query.objective
                ),
            ),
            "chaos_token": _chaos_token(key, 1),
        }
        telemetry = capture_config(corr=correlation_id(job_key, fingerprint))
        if telemetry is not None:
            payload["telemetry"] = telemetry
        try:
            with obs.span("engine.submit", job=job_key) as submit_span:
                future = self._executor.submit(_worker_synthesize, payload)
        except BrokenProcessPool as exc:
            # The pool died under us (worker OOM-kill / crash): classify,
            # rebuild within budget, and decline this submission — the job
            # simply synthesizes synchronously.
            self._record_fault(FaultKind.POOL, exc, job_key)
            self._rebuild_pool()
            return False
        except RuntimeError as exc:
            # Executor shut down concurrently (engine closed mid-cycle):
            # count and decline rather than crash the scheduler loop.
            self._record_fault(FaultKind.TRANSIENT, exc, job_key)
            return False
        self._pending[key] = _Speculation(
            future, payload, time.monotonic(),
            span_id=getattr(submit_span, "span_id", None),
        )
        self._by_job[(tenant, job_key)] = key
        self.submitted += 1
        perf.incr("engine.prefetch.submitted")
        return True

    def presynthesize_batch(
        self,
        items: "list[tuple[RoutingJob, WarmStart]]",
        health: np.ndarray,
        tenant: str = "",
    ) -> int:
        """Speculatively synthesize a wave of jobs as one batched task.

        ``items`` pairs each routing job with its warm-start values (or
        ``None``).  All members share the sensed ``health``; jobs already
        in flight, already answered ``no-plan`` for this fingerprint, or
        past the in-flight budget (this tenant's fair share of it) are
        skipped.  The accepted members ship as a *single* pool task
        running the batched solver core — the worker shares graph
        precompute across same-shape members instead of re-deriving it per
        job — and each member is tracked as its own speculation, so
        :meth:`take` semantics (hit / stale / pending / error / deadline)
        are exactly those of per-job submission.  On a pool failure
        mid-flight, members retry as independent solo tasks.

        Without a pool (``workers=1`` or a degraded engine) the batch is
        solved synchronously in-process through the same batched kernel
        and parked as completed speculations — presynthesis still works,
        it just blocks the caller for the solve.  The admission floor only
        applies to the *pooled* path: the in-process batch is a synchronous
        computation the caller asked for, not speculation competing for a
        core.  Returns the number of jobs accepted.
        """
        with self._lock:
            return self._presynthesize_batch(items, health, tenant)

    def _presynthesize_batch(
        self,
        items: "list[tuple[RoutingJob, WarmStart]]",
        health: np.ndarray,
        tenant: str,
    ) -> int:
        if self._closed or not items:
            return 0
        if self._executor is not None and not self._speculation_admitted():
            return 0
        self._reap_overdue()
        forces = force_field_from_health(
            health, bits=self.bits, pessimistic=self.pessimistic
        ).forces
        side = side_for_objective(
            None if self.query is None else self.query.objective
        )
        accepted: "list[tuple[_EngineKey, dict]]" = []
        for job, warm_values in items:
            job_key = job.key()
            if (tenant, job_key) in self._by_job:
                continue
            key = (tenant, job_key, health_fingerprint(health, job.hazard))
            if key in self._no_plan:
                continue
            if self._executor is not None and not self._admit(
                tenant, extra=len(accepted)
            ):
                continue
            solo = {
                "job": job_to_payload(job),
                "forces": forces,
                "query": self.query,
                "max_aspect": self.max_aspect,
                "epsilon": self.epsilon,
                "warm_values": warm_values_to_payload(
                    warm_values, side=side
                ),
                "chaos_token": _chaos_token(key, 1),
            }
            # Solo payloads carry their own capture config so a retry
            # after a pool rebuild (which resubmits members as independent
            # tasks) still propagates telemetry.
            telemetry = capture_config(corr=correlation_id(key[1], key[2]))
            if telemetry is not None:
                solo["telemetry"] = telemetry
            accepted.append((key, solo))
        if not accepted:
            return 0
        if self._executor is None:
            return self._presynthesize_sync(accepted)
        batch_payload = {
            "items": [
                {"job": solo["job"], "warm_values": solo["warm_values"]}
                for _, solo in accepted
            ],
            "forces": forces,
            "query": self.query,
            "max_aspect": self.max_aspect,
            "epsilon": self.epsilon,
            "chaos_token": (
                f"batch|{accepted[0][0][2].hex()}|n{len(accepted)}"
            ),
        }
        telemetry = capture_config(
            corr=f"batch@{accepted[0][0][2].hex()[:12]}*{len(accepted)}"
        )
        if telemetry is not None:
            batch_payload["telemetry"] = telemetry
        try:
            with obs.span(
                "engine.batch.submit", jobs=len(accepted)
            ) as batch_span:
                future = self._executor.submit(
                    _worker_synthesize_batch, batch_payload
                )
        except BrokenProcessPool as exc:
            self._record_fault(FaultKind.POOL, exc)
            self._rebuild_pool()
            return 0
        except RuntimeError as exc:
            self._record_fault(FaultKind.TRANSIENT, exc)
            return 0
        now = time.monotonic()
        batch_span_id = getattr(batch_span, "span_id", None)
        for index, (key, solo) in enumerate(accepted):
            self._pending[key] = _Speculation(
                future, solo, now, index=index, span_id=batch_span_id
            )
            self._by_job[key[:2]] = key
        self.submitted += len(accepted)
        perf.incr("engine.prefetch.submitted", len(accepted))
        perf.incr("engine.batch.submitted")
        obs.journal_event(
            "engine.batch.submit", jobs=len(accepted), pooled=True
        )
        return len(accepted)

    def _presynthesize_sync(
        self, accepted: "list[tuple[_EngineKey, dict]]"
    ) -> int:
        """Pool-less presynthesis: batched kernel in-process, parked done.

        The degraded / no-pool fallback of :meth:`presynthesize_batch`:
        the wave is solved synchronously through
        :func:`~repro.core.synthesis.synthesize_batch` and every result is
        stored as an already-completed speculation, so the consuming
        :meth:`take` path (and therefore routing) is unchanged.  Payloads
        go through the same wire-format round-trip as worker submissions
        to keep the two paths literally equivalent.
        """
        expected_side = side_for_objective(
            None if self.query is None else self.query.objective
        )
        field = MatrixForceField(
            np.asarray(accepted[0][1]["forces"], dtype=float)
        )
        jobs = [job_from_payload(solo["job"]) for _, solo in accepted]
        requests = [
            BatchRequest(
                job,
                field,
                warm_values=warm_values_from_payload(
                    solo["warm_values"], expected_side=expected_side
                ),
            )
            for job, (_, solo) in zip(jobs, accepted)
        ]
        with obs.span("engine.batch.submit", jobs=len(accepted), sync=True):
            batch_results = synthesize_batch(
                requests,
                query=self.query,
                max_aspect=self.max_aspect,
                epsilon=self.epsilon,
            )
        now = time.monotonic()
        for (key, solo), job, result in zip(accepted, jobs, batch_results):
            future: Future = Future()
            future.set_result(_result_payload(job, result))
            self._pending[key] = _Speculation(future, solo, now)
            self._by_job[key[:2]] = key
        self.submitted += len(accepted)
        perf.incr("engine.prefetch.submitted", len(accepted))
        perf.incr("engine.batch.submitted")
        obs.journal_event(
            "engine.batch.submit", jobs=len(accepted), pooled=False
        )
        return len(accepted)

    def take(
        self, job: RoutingJob, health: np.ndarray, tenant: str = ""
    ) -> tuple[str, RoutingStrategy | None]:
        """Consume a speculation for exactly ``(job, health)``.

        Never blocks: a result is either already done or reported as a
        miss.  Returns ``(status, strategy)`` with status one of:

        * ``"hit"`` — the speculation completed and matches; ``strategy``
          is the synthesized strategy (identical to what synchronous
          synthesis would return);
        * ``"no-plan"`` — completed and matching, but synthesis found no
          strategy (a definitive answer, same as the synchronous path);
        * ``"pending"`` — in flight but not done: the caller must fall
          back to synchronous synthesis.  The speculation is discarded
          (counted wasted) — the synchronous result will land in the
          library, so a later completion could never be consumed, and
          keeping the entry would block fresh resubmission of the key;
        * ``"stale"`` — the in-flight speculation was for an older health
          fingerprint; it is discarded so a fresh one can be submitted;
        * ``"deadline"`` — in flight past the deadline budget; reaped
          (a hung worker additionally forces a pool rebuild);
        * ``"absent"`` — nothing in flight for this job;
        * ``"error"`` — the worker failed; the fault is classified
          (pool / transient / payload), a broken pool is rebuilt within
          budget, and the caller falls back to synchronous synthesis.
        """
        with self._lock:
            return self._take(job, health, tenant)

    def _take(
        self, job: RoutingJob, health: np.ndarray, tenant: str
    ) -> tuple[str, RoutingStrategy | None]:
        job_key = job.key()
        self._drain_zombies()
        self._reap_overdue(exclude=self._by_job.get((tenant, job_key)))
        inflight = self._by_job.get((tenant, job_key))
        if inflight is None:
            return ("absent", None)
        fingerprint = health_fingerprint(health, job.hazard)
        if inflight != (tenant, job_key, fingerprint):
            self._discard(inflight)
            self.stale += 1
            perf.incr("engine.prefetch.stale")
            return ("stale", None)
        spec = self._pending.get(inflight)
        if spec is None:  # dropped by a rebuild triggered mid-sweep
            return ("absent", None)
        if not spec.future.done():
            deadline = self.policy.deadline_s
            if (
                deadline is not None
                and time.monotonic() - spec.submitted_at > deadline
            ):
                self._reap(inflight, spec)
                return ("deadline", None)
            self.misses += 1
            perf.incr("engine.prefetch.misses")
            # Pending-miss: the caller synthesizes synchronously and caches
            # the result in the library, so this speculation can never be
            # consumed — discard it (counted wasted) to unblock the key.
            self._discard(inflight)
            return ("pending", None)
        self._pending.pop(inflight, None)
        self._by_job.pop((tenant, job_key), None)
        with obs.span("engine.wait", job=job_key):
            try:
                payload = spec.future.result()
            except (Exception, CancelledError) as exc:
                kind = classify_failure(exc)
                self._record_fault(kind, exc, job_key)
                if kind is FaultKind.POOL:
                    self._rebuild_pool()
                return ("error", None)
        # Worker telemetry rides the top-level result payload; pop it
        # *before* selecting a batch member's slot so the bundle (shared by
        # every member of a batched task) merges exactly once — the first
        # consuming take grafts it, later members find it already gone.
        telemetry = payload.pop("telemetry", None)
        if telemetry is not None:
            merge_telemetry(telemetry, parent_span_id=spec.span_id)
        if spec.index is not None:
            # One member of a batched submission: select its slot.
            payload = payload["results"][spec.index]
        self.hits += 1
        perf.incr("engine.prefetch.hits")
        if payload["strategy"] is None:
            self._no_plan.add(inflight)
            return ("no-plan", None)
        return ("hit", RoutingStrategy.from_payload(payload["strategy"]))

    def _discard(self, key: _EngineKey) -> None:
        spec = self._pending.pop(key, None)
        self._by_job.pop(key[:2], None)
        if spec is not None:  # abandoned, not cancelled — see _drop_all
            self.wasted += 1
            perf.incr("engine.prefetch.wasted")
            self._gauge_wasted()
            self._note_unconsumed(spec)

    def worker_pids(self) -> list[int]:
        """Pids of the pool's live worker processes (empty when poolless).

        Best-effort over the executor's internal process table — the same
        table :meth:`_kill_worker_processes` uses — for the telemetry
        pump's per-worker resource/liveness sampling.
        """
        processes = getattr(self._executor, "_processes", None) or {}
        return [pid for pid in list(processes.keys()) if pid is not None]

    # -- persistent store façade ----------------------------------------------

    def store_get(
        self, job: RoutingJob, health: np.ndarray
    ) -> RoutingStrategy | None:
        if self.store is None:
            return None
        return self.store.get(job, health)

    def store_put(
        self, job: RoutingJob, health: np.ndarray, strategy: RoutingStrategy
    ) -> None:
        if self.store is not None:
            self.store.put(job, health, strategy)

    # -- stats ---------------------------------------------------------------

    def counters(self) -> dict[str, int]:
        with self._lock:
            self._gauge_wasted()
            out = {
                "submitted": self.submitted,
                "hits": self.hits,
                "misses": self.misses,
                "stale": self.stale,
                "wasted": self.wasted,
                "errors": self.errors,
                "rebuilds": self.rebuilds,
                "retries": self.retried,
                "deadline_reaps": self.deadline_reaps,
                "fair_rejected": self.fair_rejected,
                "floor_skips": self.floor_skips,
                "degraded": int(self.degraded),
                "inflight": len(self._pending),
                "tenants": len(self._tenants),
            }
            for kind, count in self.faults.items():
                out[f"fault_{kind}"] = count
        if self.store is not None:
            out.update({f"store_{k}": v for k, v in self.store.counters().items()})
        return out


class TenantView:
    """One assay's handle on a shared :class:`SynthesisEngine`.

    Exposes exactly the engine surface the router/scheduler stack consumes
    (``submit``/``take``/``presynthesize_batch``, the store façade, and the
    ``pooled``/``degraded``/``rebuilds``/``prefetch_enabled`` attributes),
    with every speculation namespaced by the tenant name — concurrent
    assays on one shared engine can never consume, evict, or block each
    other's speculations, so each assay routes exactly as it would with a
    private engine.  The store façade is shared deliberately: store entries
    are keyed by (job, health fingerprint) alone, which is what lets one
    assay's synthesis warm another's.

    :meth:`close` releases the tenant (its in-flight speculations are
    discarded and counted wasted) without touching the shared engine.
    """

    def __init__(self, engine: SynthesisEngine, name: str) -> None:
        self._engine = engine
        self.name = name

    @property
    def pooled(self) -> bool:
        return self._engine.pooled

    @property
    def degraded(self) -> bool:
        return self._engine.degraded

    @property
    def rebuilds(self) -> int:
        return self._engine.rebuilds

    @property
    def prefetch_enabled(self) -> bool:
        return self._engine.prefetch_enabled

    @property
    def store(self) -> StrategyStore | None:
        return self._engine.store

    def submit(
        self,
        job: RoutingJob,
        health: np.ndarray,
        warm_values: WarmStart = None,
    ) -> bool:
        return self._engine.submit(
            job, health, warm_values, tenant=self.name
        )

    def take(
        self, job: RoutingJob, health: np.ndarray
    ) -> tuple[str, RoutingStrategy | None]:
        return self._engine.take(job, health, tenant=self.name)

    def invalidate(self, job: RoutingJob) -> bool:
        return self._engine.invalidate(job, tenant=self.name)

    def presynthesize_batch(
        self,
        items: "list[tuple[RoutingJob, WarmStart]]",
        health: np.ndarray,
    ) -> int:
        return self._engine.presynthesize_batch(
            items, health, tenant=self.name
        )

    def store_get(
        self, job: RoutingJob, health: np.ndarray
    ) -> RoutingStrategy | None:
        return self._engine.store_get(job, health)

    def store_put(
        self, job: RoutingJob, health: np.ndarray, strategy: RoutingStrategy
    ) -> None:
        self._engine.store_put(job, health, strategy)

    def counters(self) -> dict[str, int]:
        return self._engine.counters()

    def close(self) -> None:
        self._engine.release_tenant(self.name)

    def __enter__(self) -> "TenantView":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
