"""Tests for the persistent on-disk strategy store."""

from __future__ import annotations

import itertools
import sqlite3
import types

import numpy as np
import pytest

from repro import perf
from repro.core.baseline import AdaptiveRouter
from repro.core.routing_job import RoutingJob, zone
from repro.core.strategy import strategy_from_synthesis
from repro.core.synthesis import synthesize
from repro.engine import store as store_module
from repro.engine.store import (
    StrategyStore,
    decode_payload,
    default_store_path,
    encode_payload,
)
from repro.geometry.rect import Rect

W, H = 30, 20


def job(start=Rect(2, 2, 5, 5), goal=Rect(20, 10, 23, 13)) -> RoutingJob:
    return RoutingJob(start, goal, zone(start, goal, W, H))


def full_health() -> np.ndarray:
    return np.full((W, H), 3)


def solved_strategy(the_job=None, health=None):
    the_job = the_job if the_job is not None else job()
    health = health if health is not None else full_health()
    return strategy_from_synthesis(the_job, synthesize(the_job, health))


class TestRoundTrip:
    def test_put_get_hit(self, tmp_path):
        strategy = solved_strategy()
        with StrategyStore(tmp_path / "s.sqlite") as store:
            assert store.get(job(), full_health()) is None
            store.put(job(), full_health(), strategy)
            loaded = store.get(job(), full_health())
        assert loaded == strategy
        assert store.hits == 1 and store.misses == 1

    def test_persists_across_instances(self, tmp_path):
        path = tmp_path / "s.sqlite"
        strategy = solved_strategy()
        with StrategyStore(path) as store:
            store.put(job(), full_health(), strategy)
        with StrategyStore(path) as fresh:
            assert fresh.get(job(), full_health()) == strategy

    def test_changed_zone_health_is_stale_miss(self, tmp_path):
        strategy = solved_strategy()
        with StrategyStore(tmp_path / "s.sqlite") as store:
            store.put(job(), full_health(), strategy)
            degraded = full_health()
            degraded[10, 8] = 1  # inside the hazard zone
            assert store.get(job(), degraded) is None
        assert store.stale == 1 and store.misses == 1

    def test_out_of_zone_health_still_hits(self, tmp_path):
        strategy = solved_strategy()
        with StrategyStore(tmp_path / "s.sqlite") as store:
            store.put(job(), full_health(), strategy)
            changed = full_health()
            changed[0, 19] = 0  # outside the hazard zone
            assert store.get(job(), changed) == strategy

    def test_different_synthesis_params_never_collide(self, tmp_path):
        path = tmp_path / "s.sqlite"
        strategy = solved_strategy()
        with StrategyStore(path, bits=2) as store:
            store.put(job(), full_health(), strategy)
        with StrategyStore(path, bits=3) as other:
            assert other.get(job(), full_health()) is None


class TestEviction:
    def test_lru_bound_evicts_oldest(self, tmp_path):
        jobs = [
            job(start=Rect(2, 2 + dy, 5, 5 + dy)) for dy in range(4)
        ]
        strategies = [solved_strategy(j) for j in jobs]
        with StrategyStore(tmp_path / "s.sqlite", max_entries=3) as store:
            for j, s in zip(jobs[:3], strategies[:3]):
                store.put(j, full_health(), s)
            # Touch the first entry so the second becomes least recent.
            assert store.get(jobs[0], full_health()) is not None
            store.put(jobs[3], full_health(), strategies[3])
            assert len(store) == 3
            assert store.get(jobs[1], full_health()) is None
            assert store.get(jobs[0], full_health()) is not None
            assert store.get(jobs[3], full_health()) is not None


class TestCorruptionTolerance:
    def test_garbage_file_is_recreated(self, tmp_path):
        path = tmp_path / "s.sqlite"
        path.write_bytes(b"this is not a sqlite database at all \x00\xff")
        store = StrategyStore(path)
        assert store.usable
        assert store.corrupt == 1
        strategy = solved_strategy()
        store.put(job(), full_health(), strategy)
        assert store.get(job(), full_health()) == strategy
        store.close()

    def test_garbage_row_is_dropped(self, tmp_path):
        path = tmp_path / "s.sqlite"
        with StrategyStore(path) as store:
            store.put(job(), full_health(), solved_strategy())
        with sqlite3.connect(str(path)) as conn:
            conn.execute("UPDATE strategies SET payload = '{not json'")
            conn.commit()
        with StrategyStore(path) as store:
            assert store.get(job(), full_health()) is None
            assert store.corrupt == 1
            assert len(store) == 0  # the bad row was deleted

    def test_unwritable_location_degrades_to_noop(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the store wants a directory")
        store = StrategyStore(blocker / "s.sqlite")
        assert not store.usable
        # All operations become no-ops instead of raising.
        store.put(job(), full_health(), solved_strategy())
        assert store.get(job(), full_health()) is None
        store.close()


def _rewrite_row(path, edit) -> None:
    """Replace the single stored row's payload with ``edit(blob)``."""
    with sqlite3.connect(str(path)) as conn:
        (blob,) = conn.execute("SELECT payload FROM strategies").fetchone()
        conn.execute("UPDATE strategies SET payload = ?", (edit(blob),))
        conn.commit()


def _code_out_of_range(blob: bytes) -> bytes:
    payload = decode_payload(blob)
    codes = payload["codes"].copy()
    codes[int(np.flatnonzero(codes >= 0)[0])] = len(payload["labels"])
    payload["codes"] = codes
    return encode_payload(payload)


class TestBinaryRows:
    def test_row_is_one_blob(self, tmp_path):
        path = tmp_path / "s.sqlite"
        strategy = solved_strategy()
        with StrategyStore(path) as store:
            store.put(job(), full_health(), strategy)
        with sqlite3.connect(str(path)) as conn:
            (blob,) = conn.execute("SELECT payload FROM strategies").fetchone()
        assert isinstance(blob, bytes) and blob[:4] == b"RSv4"
        payload = decode_payload(blob)
        assert not payload["values"].flags.writeable
        assert encode_payload(payload) == blob

    @pytest.mark.parametrize(
        "edit",
        [
            lambda blob: blob[:-3],  # truncated
            lambda blob: blob + b"\x00",  # trailing bytes
            _code_out_of_range,
        ],
        ids=["truncated", "trailing-bytes", "code-out-of-range"],
    )
    def test_undecodable_row_is_a_counted_miss(self, tmp_path, edit):
        path = tmp_path / "s.sqlite"
        with StrategyStore(path) as store:
            store.put(job(), full_health(), solved_strategy())
        _rewrite_row(path, edit)
        with StrategyStore(path) as store:
            assert store.get(job(), full_health()) is None
            assert store.corrupt == 1 and store.misses == 1
            assert len(store) == 0  # the bad row was deleted


def _fake_clock(monkeypatch) -> None:
    """A store clock that ticks one second per reading."""
    ticks = itertools.count(1000.0, 1.0)
    monkeypatch.setattr(
        store_module, "time", types.SimpleNamespace(time=lambda: next(ticks))
    )


class TestDeferredTouches:
    def test_memo_hit_runs_no_sql(self, tmp_path):
        with StrategyStore(tmp_path / "s.sqlite") as store:
            store.put(job(), full_health(), solved_strategy())
            statements: list[str] = []
            store._conn.set_trace_callback(statements.append)
            assert store.get(job(), full_health()) is not None
            assert store.memo_hits == 1
            assert statements == []
            store._conn.set_trace_callback(None)

    def test_eviction_order_matches_immediate_touches(
        self, tmp_path, monkeypatch
    ):
        """Which rows a max_entries=3 store evicts, and in which order,
        under a scripted put/get sequence.  The expected order is the one
        the store gave when every hit wrote its touch immediately."""
        jobs = [job(start=Rect(2, 2 + i, 5, 5 + i)) for i in range(6)]
        strategies = [solved_strategy(j) for j in jobs]
        _fake_clock(monkeypatch)
        script = (
            "p0 p1 p2 g0 p3 g2 g0 p4 g2 g4 p5 g1 p1 g5 g4 p0 g3 p2 g0 g2 p3"
        ).split()
        evicted: list[int] = []
        with StrategyStore(tmp_path / "s.sqlite", max_entries=3) as store:
            index = {
                store._keys(store._raw_key(j, full_health()))[0]: i
                for i, j in enumerate(jobs)
            }

            def present() -> set[int]:
                rows = store._conn.execute("SELECT full_key FROM strategies")
                return {index[key] for (key,) in rows}

            for op in script:
                i = int(op[1:])
                if op[0] == "p":
                    before = present() | {i}
                    store.put(jobs[i], full_health(), strategies[i])
                    evicted.extend(sorted(before - present()))
                else:
                    store.get(jobs[i], full_health())
        assert evicted == [1, 3, 0, 2, 1, 5, 4]

    def test_close_writes_memo_touches(self, tmp_path, monkeypatch):
        path = tmp_path / "s.sqlite"
        _fake_clock(monkeypatch)
        with StrategyStore(path) as store:
            store.put(job(), full_health(), solved_strategy())  # t=1000
            assert store.get(job(), full_health()) is not None  # t=1001
            assert store.get(job(), full_health()) is not None  # t=1002
            assert store.memo_hits == 2
        with sqlite3.connect(str(path)) as conn:
            (last_used,) = conn.execute(
                "SELECT last_used FROM strategies"
            ).fetchone()
        assert last_used == 1002.0
        with StrategyStore(path) as reopened:
            row = reopened._conn.execute(
                "SELECT last_used FROM strategies"
            ).fetchone()
            assert row[0] == 1002.0


class TestRouterReadsStore:
    def test_store_loaded_values_seed_resynthesis(self, tmp_path):
        """A strategy the router loads from the store must install its
        values as the job's warm-start seed, so the next resynthesis of the
        same job (changed health) is warm-seeded — and still converges to
        the synchronous answer."""
        path = tmp_path / "s.sqlite"
        with StrategyStore(path) as store:
            store.put(job(), full_health(), solved_strategy())

        with StrategyStore(path) as store:
            router = AdaptiveRouter(store=store)
            loaded = router.plan(job(), full_health())
            assert loaded is not None
            assert router.syntheses == 0  # came from the store
            assert router.library.warm_start(job()) is loaded.policy

            degraded = full_health()
            degraded[10, 8] = 1  # inside the zone: forces a resynthesis
            seeded_before = perf.get("synthesis.warm_seeded")
            warmed = router.plan(job(), degraded)
            assert perf.get("synthesis.warm_seeded") == seeded_before + 1
            assert warmed is not None
            direct = synthesize(job(), degraded)
            assert warmed.expected_cycles == pytest.approx(
                direct.expected_cycles, rel=1e-4
            )
            # The resynthesized strategy was written back.
            assert store.get(job(), degraded) == warmed


class TestClose:
    def test_use_after_close_is_counted_noop(self, tmp_path):
        store = StrategyStore(tmp_path / "s.sqlite")
        strategy = solved_strategy()
        store.put(job(), full_health(), strategy)
        store.close()
        assert store.get(job(), full_health()) is None
        store.put(job(), full_health(), strategy)  # must not raise
        assert store.use_after_close == 2
        assert store.counters()["use_after_close"] == 2


class TestDefaultPath:
    def test_honours_xdg_cache_home(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert default_store_path() == tmp_path / "repro" / "strategies.sqlite"


class TestMemoAndConcurrency:
    def test_memo_serves_repeat_reads(self, tmp_path):
        path = tmp_path / "s.sqlite"
        strategy = solved_strategy()
        with StrategyStore(path) as writer:
            writer.put(job(), full_health(), strategy)
            # put memoizes: the writer's own reads never touch SQLite.
            assert writer.get(job(), full_health()) == strategy
            assert writer.memo_hits == 1 and writer.memo_misses == 0

        store = StrategyStore(path)  # cold memo, warm SQLite
        first = store.get(job(), full_health())   # SQLite read, memoized
        second = store.get(job(), full_health())  # memo hit
        assert first == strategy == second
        assert store.memo_misses == 1
        assert store.memo_hits == 1
        assert store.hits == 2  # memo hits still count as store hits
        store.close()

    def test_memo_dropped_with_evicted_row(self, tmp_path):
        store = StrategyStore(tmp_path / "s.sqlite", max_entries=2)
        jobs = [job(goal=Rect(16 + 2 * i, 10, 19 + 2 * i, 13))
                for i in range(3)]
        for the_job in jobs:
            store.put(the_job, full_health(), solved_strategy(the_job))
        # jobs[0] was evicted from SQLite; the memo must agree.
        assert store.get(jobs[0], full_health()) is None
        assert store.get(jobs[1], full_health()) is not None
        store.close()

    def test_threaded_readers_share_one_connection(self, tmp_path):
        store = StrategyStore(tmp_path / "s.sqlite")
        jobs = [job(goal=Rect(16 + 2 * i, 10, 19 + 2 * i, 13))
                for i in range(3)]
        expected = {}
        for the_job in jobs:
            strategy = solved_strategy(the_job)
            store.put(the_job, full_health(), strategy)
            expected[the_job.key()] = strategy

        import threading

        errors: list = []

        def hammer() -> None:
            try:
                for _ in range(25):
                    for the_job in jobs:
                        got = store.get(the_job, full_health())
                        assert got == expected[the_job.key()]
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        reads = 4 * 25 * len(jobs)
        assert store.hits == reads
        assert store.memo_hits + store.memo_misses == reads
        assert store.memo_hits >= reads - len(jobs)
        store.close()

    def test_wal_mode_enabled_on_disk_stores(self, tmp_path):
        store = StrategyStore(tmp_path / "s.sqlite")
        mode = store._conn.execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"
        timeout = store._conn.execute("PRAGMA busy_timeout").fetchone()[0]
        assert timeout == 5000
        store.close()
