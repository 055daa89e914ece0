"""Tests for the multi-assay serving core (``repro.serve``).

Covers the job queue, spec validation, the HTTP round-trip against a
live server fixture, graceful drain and the store's lifecycle, and the
load-bearing correctness gate: traces of concurrently served assays on
one shared store are bit-identical to their solo runs.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro import obs
from repro.engine import StrategyStore
from repro.obs import monitor
from repro.serve import (
    AssayJob,
    AssaySpec,
    JobQueue,
    ServeClient,
    ServeDraining,
    ServeError,
    ServeService,
    execute_assay,
)

class TestJobQueue:
    def test_priority_then_fifo(self):
        queue = JobQueue()
        low1 = AssayJob(spec=AssaySpec(priority=0))
        high = AssayJob(spec=AssaySpec(priority=5))
        low2 = AssayJob(spec=AssaySpec(priority=0))
        queue.put(low1)
        queue.put(high)
        queue.put(low2)
        assert queue.get() is high
        assert queue.get() is low1  # FIFO within equal priority
        assert queue.get() is low2
        assert queue.get(timeout=0.01) is None

    def test_close_wakes_blocked_get_and_rejects_put(self):
        queue = JobQueue()
        got: list = []
        thread = threading.Thread(
            target=lambda: got.append(queue.get(timeout=30.0))
        )
        thread.start()
        time.sleep(0.05)
        queue.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert got == [None]
        with pytest.raises(RuntimeError):
            queue.put(AssayJob(spec=AssaySpec()))

    def test_drain_empties_backlog(self):
        queue = JobQueue()
        jobs = [AssayJob(spec=AssaySpec()) for _ in range(3)]
        for job in jobs:
            queue.put(job)
        drained = queue.drain()
        assert set(j.id for j in drained) == set(j.id for j in jobs)
        assert len(queue) == 0


class TestAssaySpec:
    def test_from_dict_applies_defaults_and_coerces(self):
        spec = AssaySpec.from_dict(
            {"bioassay": "master-mix", "seed": "7", "width": 40.0,
             "height": 24}
        )
        assert spec.bioassay == "master-mix"
        assert spec.seed == 7 and isinstance(spec.seed, int)
        assert spec.width == 40
        assert spec.max_cycles == 800  # CLI default

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown spec field"):
            AssaySpec.from_dict({"bioassy": "master-mix"})

    def test_unknown_bioassay_rejected(self):
        with pytest.raises(ValueError, match="unknown bioassay"):
            AssaySpec.from_dict({"bioassay": "no-such-assay"})

    def test_bad_ranges_rejected(self):
        with pytest.raises(ValueError, match="tau range"):
            AssaySpec(tau_min=0.9, tau_max=0.5).validate()
        with pytest.raises(ValueError, match="max_cycles"):
            AssaySpec(max_cycles=0).validate()


class TestJobTimestamps:
    def test_payload_reports_wall_clock_not_monotonic(self):
        # Monotonic-clock values (seconds since boot) leaking into HTTP
        # payloads read as bogus wall-clock times; the document must carry
        # epoch timestamps plus monotonic-derived durations.
        before = time.time()
        job = AssayJob(spec=AssaySpec(bioassay="master-mix"))
        job.mark_started()
        job.mark_finished()
        after = time.time()
        document = job.to_dict()
        for key in ("submitted_at", "started_at", "finished_at"):
            assert before - 1 <= document[key] <= after + 1, \
                f"{key}={document[key]} is not a wall-clock timestamp"
        assert document["submitted_at"] <= document["started_at"]
        assert document["started_at"] <= document["finished_at"]
        assert document["queued_ms"] >= 0
        assert document["run_ms"] >= 0

    def test_unstarted_job_has_no_durations(self):
        document = AssayJob(spec=AssaySpec(bioassay="master-mix")).to_dict()
        assert "queued_ms" not in document
        assert "run_ms" not in document
        assert "started_at" not in document
        assert "finished_at" not in document
        assert document["submitted_at"] > 0


def quick_specs() -> list[AssaySpec]:
    return [
        AssaySpec(bioassay="master-mix", width=40, height=24, seed=3,
                  max_cycles=400),
        AssaySpec(bioassay="serial-dilution", width=40, height=24, seed=5,
                  max_cycles=400),
    ]


@pytest.fixture
def service(tmp_path):
    svc = ServeService(
        port=0, serve_workers=2, engine_workers=1,
        store_path=tmp_path / "serve-store.sqlite",
        keep_traces=True, drain_deadline_s=60.0,
    )
    svc.start()
    yield svc
    if not svc._stopped:
        svc.drain(deadline_s=60.0)


class TestHTTPRoundTrip:
    def test_submit_poll_events(self, service):
        client = ServeClient(service.url)
        spec = quick_specs()[0]
        job_id = client.submit(spec)
        document = client.wait(job_id, timeout=120.0)
        assert document["state"] == "done"
        assert document["result"]["success"] is True
        assert document["spec"]["bioassay"] == "master-mix"

        records, next_offset, state = client.events(job_id)
        assert state == "done"
        assert next_offset == len(records)
        events = {record["event"] for record in records}
        assert "serve.job.start" in events
        assert "serve.job.done" in events
        # Every buffered record is stamped with this job's id.
        assert all(record.get("job_id") == job_id for record in records)
        # Paging: a later read from the cursor returns only the tail.
        tail, _, _ = client.events(job_id, since=next_offset)
        assert tail == []

        assert any(entry["id"] == job_id for entry in client.jobs())
        health = client.healthz()
        assert health["role"] == "serve"
        assert health["jobs"]["done"] >= 1
        assert "repro_serve_jobs_completed" in client.metrics()

    def test_bad_spec_is_400_and_missing_job_404(self, service):
        client = ServeClient(service.url)
        with pytest.raises(ServeError) as bad:
            client.submit({"bioassay": "no-such-assay"})
        assert bad.value.status == 400
        with pytest.raises(ServeError) as missing:
            client.job("job-999999")
        assert missing.value.status == 404


class TestListenBacklog:
    def test_unserved_listener_queues_a_burst_of_connects(self):
        # Nothing accepts, so every connect must fit in the listen queue;
        # socketserver's default backlog of 5 takes 6 of these 32.
        server = monitor._Listener(("127.0.0.1", 0), monitor._MonitorHandler)
        clients = []
        try:
            connected = 0
            for _ in range(32):
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                clients.append(sock)
                sock.settimeout(0.5)
                try:
                    sock.connect(server.server_address)
                except OSError:
                    continue
                connected += 1
        finally:
            for sock in clients:
                sock.close()
            server.server_close()
        assert connected == 32, f"{connected} of 32 connected"


class TestDrain:
    def test_draining_rejects_submissions_with_503(self, service):
        client = ServeClient(service.url)
        with service._lock:
            service._draining = True
        try:
            with pytest.raises(ServeDraining):
                service.submit(quick_specs()[0])
            with pytest.raises(ServeError) as refused:
                client.submit(quick_specs()[0])
            assert refused.value.status == 503
        finally:
            with service._lock:
                service._draining = False

    def test_expired_deadline_rejects_backlog(self, tmp_path):
        svc = ServeService(port=0, serve_workers=1, engine_workers=1,
                           keep_traces=False)
        svc.start()
        jobs = [svc.submit(spec) for spec in quick_specs() * 2]
        summary = svc.drain(deadline_s=0.0)
        states = {job.state for job in jobs}
        assert summary["rejected_at_drain"] >= 1
        assert states <= {"done", "rejected", "running"}
        rejected = [job for job in jobs if job.state == "rejected"]
        assert all("drain" in (job.error or "") for job in rejected)

    def test_drain_journals_begin_and_end(self, tmp_path):
        journal_path = tmp_path / "serve.jsonl"
        svc = ServeService(port=0, serve_workers=1, engine_workers=1,
                           journal_path=journal_path)
        svc.start()
        svc.submit(quick_specs()[0])
        svc.drain(deadline_s=60.0)
        records = [
            json.loads(line)
            for line in journal_path.read_text().splitlines() if line
        ]
        phases = [r["phase"] for r in records if r["event"] == "serve.drain"]
        assert phases == ["begin", "end"]
        assert any(r["event"] == "serve.job.done" for r in records)


class TestStoreLifecycle:
    def test_engine_workers_other_than_one_rejected(self, tmp_path):
        for workers in (0, 2):
            with pytest.raises(ValueError, match="engine_workers"):
                ServeService(port=0, engine_workers=workers,
                             store_path=tmp_path / "s.sqlite")

    def test_drain_closes_the_store_once(self, tmp_path, store_closes):
        svc = ServeService(port=0, serve_workers=1,
                           store_path=tmp_path / "s.sqlite")
        svc.start()
        job = svc.submit(quick_specs()[0])
        svc.drain(deadline_s=60.0)
        svc.drain(deadline_s=60.0)  # idempotent: no second close
        assert job.state == "done", job.error
        assert store_closes == [svc.store]
        with StrategyStore(tmp_path / "s.sqlite") as reopened:
            assert len(reopened) > 0  # the served job's strategies persist

    def test_failed_start_closes_the_store(self, tmp_path, store_closes):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen(1)
            port = taken.getsockname()[1]
            svc = ServeService(port=port, store_path=tmp_path / "s.sqlite")
            with pytest.raises(OSError):
                svc.start()
        assert store_closes == [svc.store]
        obs.shutdown()


class TestJournalScope:
    def test_scope_stamps_thread_local_fields(self):
        journal = obs.RunJournal()
        seen: dict[str, list] = {"a": [], "b": []}

        def run(tag: str) -> None:
            with obs.journal_scope(job_id=tag):
                journal.emit("x", detail=tag)

        threads = [
            threading.Thread(target=run, args=(tag,)) for tag in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        journal.emit("x", detail="unscoped")
        by_detail = {r["detail"]: r for r in journal.records}
        assert by_detail["a"]["job_id"] == "a"
        assert by_detail["b"]["job_id"] == "b"
        assert "job_id" not in by_detail["unscoped"]

    def test_explicit_field_beats_scope(self):
        journal = obs.RunJournal()
        with obs.journal_scope(job_id="outer"):
            journal.emit("x", job_id="explicit")
        assert journal.records[-1]["job_id"] == "explicit"


class TestTraceIdentity:
    def test_concurrent_served_traces_match_solo(self, tmp_path):
        """The serving gate: assays multiplexed onto one shared store
        produce traces bit-identical to their solo runs."""
        specs = quick_specs() * 2  # repeats exercise the shared store
        solo = {}
        for spec in quick_specs():
            outcome = execute_assay(spec, engine=None)
            solo[(spec.bioassay, spec.seed)] = outcome

        svc = ServeService(
            port=0, serve_workers=2,
            store_path=tmp_path / "shared.sqlite", keep_traces=True,
        )
        svc.start()
        try:
            jobs = [svc.submit(spec) for spec in specs]
            for job in jobs:
                assert job.wait_done(timeout=300.0)
            for job in jobs:
                assert job.state == "done", job.error
                reference = solo[(job.spec.bioassay, job.spec.seed)]
                served = svc.trace(job.id)
                assert served is not None
                assert job.result["cycles"] == reference.result.cycles
                assert (job.result["resyntheses"]
                        == reference.result.resyntheses)
                assert len(served.frames) == len(reference.trace.frames)
                for ref_frame, srv_frame in zip(
                    reference.trace.frames, served.frames
                ):
                    assert srv_frame.cycle == ref_frame.cycle
                    assert srv_frame.droplets == ref_frame.droplets
                    assert srv_frame.moving == ref_frame.moving
            # The repeats must have amortized: the shared store served at
            # least one strategy that a solo run would have synthesized.
            store = svc.store
            assert store.hits + store.memo_hits > 0
        finally:
            if not svc._stopped:
                svc.drain(deadline_s=60.0)
