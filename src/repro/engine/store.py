"""Persistent cross-run strategy store (SQLite).

The in-memory :class:`~repro.core.strategy.StrategyLibrary` amortizes
synthesis *within* one process; sweep experiments (EXPERIMENTS.md's
uniform/clustered fault grids) re-derive identical strategies run after run.
The :class:`StrategyStore` closes that gap: a small SQLite database (default
``~/.cache/repro/strategies.sqlite``) keyed by everything that can influence
a synthesized strategy —

* chip dimensions (frontier means clip at the chip border, so the same job
  near an edge solves differently on a different-size chip);
* the routing-job key (start, goal, hazard bounds, obstacle set);
* the health fingerprint of the hazard zone (the only health cells that
  can influence the strategy);
* the query (objective + labels), epsilon, and the synthesis parameters
  (health bits, pessimistic estimation, aspect bound);
* a code version tag (library version + store schema version), so stale
  formats from older checkouts can never poison a run.

Each entry is one binary row: the columnar payload of
:meth:`~repro.core.strategy.RoutingStrategy.to_payload` as a small JSON
header followed by the raw bytes of its value, corner and action-code
arrays (:func:`encode_payload`; DESIGN.md §10).  The store is
LRU-bounded (``max_entries``, evicted by last-use time) and *corruption
tolerant*: an unreadable database file is re-created, an undecodable row
(truncated, trailing bytes, an action code outside its label table) is
deleted and counted as a miss, and any unexpected SQLite failure degrades
the store to a no-op rather than failing the run.  Hit/miss/stale counts are kept on
the instance and mirrored into :mod:`repro.perf`
(``store.{hits,misses,stale,corrupt,evictions,puts}``).

**Concurrency** (the ``repro.serve`` substrate): one store instance may be
shared by N assay-worker threads.  The connection is opened with
``check_same_thread=False`` and every SQLite access is serialized by an
instance lock; the database runs in WAL mode with a ``busy_timeout`` so a
second *process* pointed at the same file blocks briefly instead of
erroring.  A process-shared **read-through memo** (an in-memory LRU of
decoded strategies keyed by the raw ``(chip shape, job key, health
fingerprint)``, ``store.memo.{hits,misses}``) sits in front of SQLite: a
memo hit hashes nothing and runs no SQL.  Its LRU touch is kept in
memory and written with the other pending touches in one ``executemany``
inside the next put, before its eviction query, and on
:meth:`StrategyStore.close`, so rows are evicted in the order an
immediately-touched store would evict them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sqlite3
import threading
import time
from collections import OrderedDict
from pathlib import Path

import numpy as np

from repro import perf
from repro.core.routing_job import RoutingJob
from repro.core.strategy import RoutingStrategy, health_fingerprint
from repro.engine import chaos
from repro.modelcheck.properties import Query

#: Bump when the payload layout or key derivation changes; old rows become
#: unreachable (different key space) and age out via the LRU bound.
#: v2: solver values are interval-certified midpoints and warm-seed wire
#: payloads are side-tagged, so v1 entries (uncertified plain-VI values)
#: must not be replayed.
#: v3: extraction breaks ties canonically (lowest choice index within the
#: tie band), so v2 rows may hold a tie choice a fresh solve no longer
#: makes.
#: v4: rows are binary columnar payloads (:func:`encode_payload`), not JSON.
STORE_SCHEMA_VERSION = 4

#: Default on-disk location, honouring ``XDG_CACHE_HOME``.
DEFAULT_STORE_DIR = "repro"
DEFAULT_STORE_NAME = "strategies.sqlite"


def default_store_path() -> Path:
    cache_home = os.environ.get("XDG_CACHE_HOME")
    base = Path(cache_home) if cache_home else Path.home() / ".cache"
    return base / DEFAULT_STORE_DIR / DEFAULT_STORE_NAME


def _code_version() -> str:
    from repro import __version__

    return f"{__version__}+s{STORE_SCHEMA_VERSION}"


#: Leading bytes of every v4 row.
_MAGIC = b"RSv4"
#: The per-state arrays of a strategy payload, in row order, with their
#: on-disk dtype and per-state shape; every other payload key goes into
#: the JSON header.
_COLUMNS = (
    ("values", np.dtype("<f8"), ()),
    ("corners", np.dtype("<i2"), (4,)),
    ("codes", np.dtype("<i2"), ()),
)
_COLUMN_NAMES = frozenset(name for name, _, _ in _COLUMNS)


def encode_payload(payload: dict) -> bytes:
    """One binary row for a columnar strategy payload.

    ``RSv4``, the header length as a little-endian uint32, the JSON
    header (every non-array key plus the state count ``n``, space-padded
    so the arrays start 8-byte aligned), then the ``values``,
    ``corners`` and ``codes`` arrays' raw little-endian bytes.
    """
    header = {k: v for k, v in payload.items() if k not in _COLUMN_NAMES}
    header["n"] = len(payload["values"])
    text = json.dumps(header).encode()
    text += b" " * (-(len(text) + 8) % 8)
    return b"".join(
        [_MAGIC, len(text).to_bytes(4, "little"), text]
        + [np.ascontiguousarray(payload[name], dtype=dtype).tobytes()
           for name, dtype, _ in _COLUMNS]
    )


def decode_payload(blob: bytes) -> dict:
    """The payload of an :func:`encode_payload` row; ``ValueError`` when
    the row is not one (wrong type or magic, truncated, trailing bytes).
    The arrays are read-only views of ``blob``."""
    if not isinstance(blob, bytes) or blob[:4] != _MAGIC or len(blob) < 8:
        raise ValueError("not a v4 strategy row")
    start = 8 + int.from_bytes(blob[4:8], "little")
    payload = json.loads(blob[8:start])
    n = payload.pop("n") if isinstance(payload, dict) else None
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"bad state count {n!r}")
    for name, dtype, shape in _COLUMNS:
        count = n * math.prod(shape)
        end = start + count * dtype.itemsize
        if end > len(blob):
            raise ValueError("truncated strategy row")
        payload[name] = np.frombuffer(
            blob, dtype, count, offset=start
        ).reshape((n, *shape))
        start = end
    if start != len(blob):
        raise ValueError("trailing bytes after strategy row")
    return payload


def _query_token(query: Query | None) -> str:
    if query is None:
        return "default"
    return (
        f"{query.objective.name}:{query.formula.goal_label}"
        f":{query.formula.avoid_label}"
    )


class StrategyStore:
    """An LRU-bounded, corruption-tolerant on-disk strategy cache.

    ``path`` may be a file path or ``None`` for :func:`default_store_path`.
    ``bits``/``pessimistic``/``max_aspect``/``query``/``epsilon`` are the
    synthesis parameters baked into every key — one store instance serves
    one synthesis configuration (the router's).
    """

    def __init__(
        self,
        path: "str | Path | None" = None,
        max_entries: int = 4096,
        bits: int = 2,
        pessimistic: bool = False,
        max_aspect: float = 3.0,
        query: Query | None = None,
        epsilon: float = 1e-6,
    ) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.path = Path(path) if path is not None else default_store_path()
        self.max_entries = max_entries
        self._params_token = (
            f"b{bits}|p{int(pessimistic)}|a{max_aspect!r}"
            f"|q{_query_token(query)}|e{epsilon!r}|v{_code_version()}"
        )
        self.hits = 0
        self.misses = 0
        self.stale = 0
        self.corrupt = 0
        self.use_after_close = 0
        self.memo_hits = 0
        self.memo_misses = 0
        # Instance lock: one store may serve N assay-worker threads
        # (repro.serve shares a single store across concurrent assays).
        self._lock = threading.RLock()
        # Read-through memo: raw (shape, job key, fingerprint) ->
        # (full_key, decoded strategy), LRU-bounded to max_entries
        # alongside the database itself; _memo_raw maps a full_key back
        # so an evicted row drops its memo entry.
        self._memo: "OrderedDict[tuple, tuple[str, RoutingStrategy]]" = (
            OrderedDict()
        )
        self._memo_raw: dict[str, tuple] = {}
        # Deferred LRU touches: full_key -> last-use time, written by
        # _flush_touches within each put (before its eviction query) and
        # on close().
        self._touches: dict[str, float] = {}
        self._conn: sqlite3.Connection | None = None
        self._broken = False
        self._closed = False
        self._open()

    # -- connection lifecycle ------------------------------------------------

    def _open(self) -> None:
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._conn = self._connect()
        except (sqlite3.Error, OSError):
            # Unreadable or corrupt database: recreate it once, then give up
            # and run storeless rather than failing the assay.
            self.corrupt += 1
            perf.incr("store.corrupt")
            try:
                self.path.unlink(missing_ok=True)
                self._conn = self._connect()
            except (sqlite3.Error, OSError):
                self._conn = None
                self._broken = True

    def _connect(self) -> sqlite3.Connection:
        # check_same_thread=False: the instance lock serializes access, so
        # any of the serving threads may touch the shared connection.
        conn = sqlite3.connect(str(self.path), check_same_thread=False)
        try:
            # WAL lets a concurrent reader proceed under a writer (and
            # vice versa) when several processes share the file; the busy
            # timeout turns residual lock contention into a short wait
            # instead of an immediate SQLITE_BUSY error.  Both are
            # best-effort: a filesystem that cannot do WAL (some network
            # mounts) just keeps the default journal.
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA busy_timeout=5000")
        except sqlite3.Error:
            pass
        conn.execute(
            "CREATE TABLE IF NOT EXISTS strategies ("
            " full_key TEXT PRIMARY KEY,"
            " base_key TEXT NOT NULL,"
            " payload BLOB NOT NULL,"
            " created REAL NOT NULL,"
            " last_used REAL NOT NULL)"
        )
        conn.execute(
            "CREATE INDEX IF NOT EXISTS idx_strategies_base"
            " ON strategies(base_key)"
        )
        conn.execute(
            "CREATE INDEX IF NOT EXISTS idx_strategies_lru"
            " ON strategies(last_used)"
        )
        # Integrity probe: a truncated/garbled file often connects fine but
        # fails on first real read.
        conn.execute("SELECT COUNT(*) FROM strategies").fetchone()
        conn.commit()
        return conn

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._flush_touches()
            self._clear_memo()
            self._shutdown()

    def _shutdown(self) -> None:
        if self._conn is not None:
            try:
                self._conn.commit()  # flush deferred LRU touches
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None

    def _check_open(self) -> bool:
        """Guard get/put against use after :meth:`close`.

        A closed connection would raise ``sqlite3.ProgrammingError`` on
        use; a late ``store_put`` from a router outliving its engine must
        be a counted no-op, not a crash mid-assay.
        """
        if self._closed:
            self.use_after_close += 1
            perf.incr("store.use_after_close")
            return False
        return self._conn is not None

    def __enter__(self) -> "StrategyStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __len__(self) -> int:
        with self._lock:
            if self._conn is None:
                return 0
            try:
                row = self._conn.execute(
                    "SELECT COUNT(*) FROM strategies"
                ).fetchone()
                return int(row[0])
            except sqlite3.Error:
                return 0

    # -- keys ----------------------------------------------------------------

    @staticmethod
    def _raw_key(job: RoutingJob, health: np.ndarray) -> tuple:
        """The memo key: chip shape, job key and zone health fingerprint."""
        return (health.shape, job.key(), health_fingerprint(health, job.hazard))

    def _keys(self, raw: tuple) -> tuple[str, str]:
        """``(full_key, base_key)`` of a raw key; base omits the health
        fingerprint.  Formed only when SQLite is read or written."""
        (width, height), job_key, fp = raw
        base_raw = (
            f"{self._params_token}|chip{width}x{height}"
            f"|job{','.join(map(str, job_key))}"
        ).encode()
        base = hashlib.sha256(base_raw).hexdigest()
        full = hashlib.sha256(base_raw + b"|fp|" + fp).hexdigest()
        return full, base

    # -- get / put -----------------------------------------------------------

    def get(
        self, job: RoutingJob, health: np.ndarray
    ) -> RoutingStrategy | None:
        """Look up a stored strategy for ``(job, health)``.

        A row whose job/params match but whose health fingerprint differs is
        counted as *stale* (the zone degraded since it was stored); both
        stale and absent lookups return ``None`` and count as misses.

        The read-through memo is consulted first: a decoded strategy
        cached by an earlier get/put on this instance is returned without
        touching SQLite (``store.memo.hits``), so concurrent assays
        resolving the same key don't serialize on the database.
        """
        with self._lock:
            return self._get(job, health)

    def _get(
        self, job: RoutingJob, health: np.ndarray
    ) -> RoutingStrategy | None:
        if not self._check_open():
            return None
        raw = self._raw_key(job, health)
        memoized = self._memo.get(raw)
        if memoized is not None:
            self._memo.move_to_end(raw)
            self.memo_hits += 1
            self.hits += 1
            perf.incr("store.memo.hits")
            perf.incr("store.hits")
            full, strategy = memoized
            # The LRU touch is deferred like the disk path's, so eviction
            # order matches a memo-less store; the memo saves the row
            # read, the decode and the SQL, not the bookkeeping.
            self._touches[full] = time.time()
            return strategy
        self.memo_misses += 1
        perf.incr("store.memo.misses")
        full, base = self._keys(raw)
        try:
            row = self._conn.execute(
                "SELECT payload FROM strategies WHERE full_key = ?", (full,)
            ).fetchone()
            if row is None:
                self.misses += 1
                perf.incr("store.misses")
                sibling = self._conn.execute(
                    "SELECT 1 FROM strategies WHERE base_key = ? LIMIT 1",
                    (base,),
                ).fetchone()
                if sibling is not None:
                    self.stale += 1
                    perf.incr("store.stale")
                return None
        except sqlite3.Error:
            self._degrade()
            return None
        try:
            strategy = RoutingStrategy.from_payload(decode_payload(row[0]))
        except (ValueError, KeyError, TypeError):
            # Undecodable row: drop it and report a miss.
            self.corrupt += 1
            perf.incr("store.corrupt")
            self._execute(
                "DELETE FROM strategies WHERE full_key = ?", (full,)
            )
            self.misses += 1
            perf.incr("store.misses")
            return None
        self.hits += 1
        perf.incr("store.hits")
        self._memo_put(raw, full, strategy)
        # LRU touch without an immediate write: an UPDATE (and fsync) per
        # hit would double the cost of a warm lookup.  Losing pending
        # touches on a crash only perturbs eviction order.
        self._touches[full] = time.time()
        return strategy

    def _memo_put(
        self, raw: tuple, full_key: str, strategy: RoutingStrategy
    ) -> None:
        self._memo[raw] = (full_key, strategy)
        self._memo.move_to_end(raw)
        self._memo_raw[full_key] = raw
        while len(self._memo) > self.max_entries:
            evicted_key, _ = self._memo.popitem(last=False)[1]
            self._memo_raw.pop(evicted_key, None)

    def _memo_drop(self, full_key: str) -> None:
        raw = self._memo_raw.pop(full_key, None)
        if raw is not None:
            self._memo.pop(raw, None)

    def _clear_memo(self) -> None:
        self._memo.clear()
        self._memo_raw.clear()

    def put(
        self, job: RoutingJob, health: np.ndarray, strategy: RoutingStrategy
    ) -> None:
        """Store (or refresh) a synthesized strategy; evict past the bound."""
        with self._lock:
            self._put(job, health, strategy)

    def _put(
        self, job: RoutingJob, health: np.ndarray, strategy: RoutingStrategy
    ) -> None:
        if not self._check_open():
            return
        raw = self._raw_key(job, health)
        full, base = self._keys(raw)
        now = time.time()
        clean = encode_payload(strategy.to_payload())
        payload = clean
        injector = chaos.injector()
        if injector is not None:
            # Chaos harness: maybe garble this row before it hits disk, so
            # the corruption-tolerance path (undecodable row -> delete +
            # miss) is exercised by real mid-run writes.
            payload = injector.corrupt_payload(full, payload)
        # Pending touches ride this put's commit, written before its
        # INSERT (which sets this row's own last_used), so the eviction
        # query after it orders rows exactly as immediate touches would.
        self._flush_touches()
        ok = self._execute(
            "INSERT INTO strategies"
            " (full_key, base_key, payload, created, last_used)"
            " VALUES (?, ?, ?, ?, ?)"
            " ON CONFLICT(full_key) DO UPDATE SET"
            " payload = excluded.payload, last_used = excluded.last_used",
            (full, base, payload, now, now),
        )
        if ok:
            perf.incr("store.puts")
            if payload == clean:
                # Memoize only what actually hit the disk intact: a
                # chaos-garbled row must still be discovered (and deleted)
                # by the corruption-tolerance read path, not masked by the
                # memo.
                self._memo_put(raw, full, strategy)
            self._evict()

    def _flush_touches(self) -> None:
        """Write the pending LRU touches in one statement (uncommitted:
        the caller's next commit carries them)."""
        if not self._touches or self._conn is None:
            self._touches.clear()
            return
        touches = [(t, key) for key, t in self._touches.items()]
        self._touches.clear()
        try:
            self._conn.executemany(
                "UPDATE strategies SET last_used = ? WHERE full_key = ?",
                touches,
            )
        except sqlite3.Error:
            self._degrade()

    def _evict(self) -> None:
        if self._conn is None:
            return
        try:
            (count,) = self._conn.execute(
                "SELECT COUNT(*) FROM strategies"
            ).fetchone()
            excess = int(count) - self.max_entries
            if excess > 0:
                evicted = self._conn.execute(
                    "SELECT full_key FROM strategies"
                    " ORDER BY last_used ASC LIMIT ?",
                    (excess,),
                ).fetchall()
                self._conn.execute(
                    "DELETE FROM strategies WHERE full_key IN ("
                    " SELECT full_key FROM strategies"
                    " ORDER BY last_used ASC LIMIT ?)",
                    (excess,),
                )
                self._conn.commit()
                # The memo must not outlive the rows it fronts: an entry
                # evicted from disk has to read as a miss again.
                for (evicted_key,) in evicted:
                    self._memo_drop(evicted_key)
                perf.incr("store.evictions", excess)
        except sqlite3.Error:
            self._degrade()

    # -- helpers -------------------------------------------------------------

    def _execute(self, sql: str, params: tuple) -> bool:
        if self._conn is None:
            return False
        try:
            self._conn.execute(sql, params)
            self._conn.commit()
            return True
        except sqlite3.Error:
            self._degrade()
            return False

    def _degrade(self) -> None:
        """An unexpected SQLite failure mid-run: stop using the store."""
        self.corrupt += 1
        perf.incr("store.corrupt")
        self._touches.clear()
        self._clear_memo()
        self._shutdown()
        self._broken = True

    @property
    def usable(self) -> bool:
        return self._conn is not None

    def counters(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stale": self.stale,
            "corrupt": self.corrupt,
            "use_after_close": self.use_after_close,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
        }
