"""Routing strategies and the offline strategy library (Sec. VI-D).

The hybrid scheduling scheme keeps a library of synthesized strategies keyed
by routing job and by the health information inside the job's hazard zone.
At runtime the scheduler first consults the library; a miss triggers
(re-)synthesis and the result is cached.  Because MC health is monotone
non-increasing, cached entries never need invalidation — a changed ``H``
simply keys a different entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import perf
from repro.core.routing_job import RoutingJob
from repro.core.synthesis import SynthesisResult
from repro.geometry.rect import Rect
from repro.modelcheck.strategy import MemorylessStrategy


@dataclass(frozen=True)
class RoutingStrategy:
    """A droplet routing strategy ``pi: patterns -> action names``.

    Wraps the model checker's memoryless strategy with the routing job it
    solves and the value achieved (expected cycles or success probability).
    """

    job: RoutingJob
    policy: MemorylessStrategy
    expected_cycles: float

    def action(self, delta: Rect) -> str | None:
        """The prescribed action for the current droplet pattern.

        ``None`` when the pattern satisfies the goal (nothing left to do) or
        when the strategy is undefined there (the pattern was unreachable
        under the synthesis model — the scheduler treats that as a miss and
        resynthesizes from the new pattern).
        """
        return self.policy.action(delta)

    def covers(self, delta: Rect) -> bool:
        """Whether the strategy prescribes an action at ``delta``."""
        return self.policy.action(delta) is not None

    def to_payload(self) -> dict:
        """The policy's columnar payload plus ``job`` and ``expected_cycles``.

        This is the wire format of the synthesis engine: worker processes
        ship strategies as these pickle-safe dicts instead of model
        objects, and the persistent strategy store writes them as one
        binary row (see :meth:`MemorylessStrategy.to_payload`).
        """
        payload = self.policy.to_payload()
        payload["job"] = job_to_payload(self.job)
        payload["expected_cycles"] = self.expected_cycles
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "RoutingStrategy":
        """Rehydrate a strategy from :meth:`to_payload` output."""
        return cls(
            job=job_from_payload(payload["job"]),
            policy=MemorylessStrategy.from_payload(payload),
            expected_cycles=float(payload["expected_cycles"]),
        )


def job_to_payload(job: RoutingJob) -> dict:
    """JSON-safe encoding of a routing job (inverse: :func:`job_from_payload`)."""
    return {
        "start": list(job.start.as_tuple()),
        "goal": list(job.goal.as_tuple()),
        "hazard": list(job.hazard.as_tuple()),
        "obstacles": [list(o.as_tuple()) for o in job.obstacles],
    }


def job_from_payload(payload: dict) -> RoutingJob:
    """Rebuild a routing job from :func:`job_to_payload` output."""
    return RoutingJob(
        start=Rect(*(int(v) for v in payload["start"])),
        goal=Rect(*(int(v) for v in payload["goal"])),
        hazard=Rect(*(int(v) for v in payload["hazard"])),
        obstacles=tuple(
            Rect(*(int(v) for v in o)) for o in payload["obstacles"]
        ),
    )


def health_fingerprint(health: np.ndarray, zone: Rect) -> bytes:
    """A hashable digest of the health values inside a hazard zone.

    Only the zone's cells can influence the synthesized strategy, so the
    library keys on exactly those values (1-based inclusive rectangle).
    """
    sub = health[zone.xa - 1 : zone.xb, zone.ya - 1 : zone.yb]
    return np.ascontiguousarray(sub).tobytes()


def fingerprint_digest(fingerprint: bytes | None) -> str | None:
    """A short stable hex digest of a health fingerprint, for telemetry.

    Raw fingerprints are zone-sized byte blobs; journal records and span
    attributes carry this 12-hex-char digest instead so "did the health
    change" stays answerable without bloating the logs.
    """
    if fingerprint is None:
        return None
    import hashlib

    return hashlib.sha1(fingerprint).hexdigest()[:12]


@dataclass
class StrategyLibrary:
    """The offline/online strategy cache of the hybrid scheduler.

    Pure-offline synthesis for all possible ``H`` values is intractable (the
    paper notes ``|S| > 10^77`` for a modest chip), so the library is
    populated lazily: entries are added as jobs are synthesized, including
    the degradation-free pre-synthesis pass the hybrid scheme starts from.
    """

    entries: dict[tuple[tuple[int, ...], bytes], RoutingStrategy] = field(
        default_factory=dict
    )
    #: Last solved policy per job key (health-independent); it warm-starts
    #: value iteration on the next resynthesis of the same job.
    warm_policies: dict[tuple[int, ...], MemorylessStrategy] = field(
        default_factory=dict
    )
    hits: int = 0
    misses: int = 0

    def _key(
        self, job: RoutingJob, health: np.ndarray
    ) -> tuple[tuple[int, ...], bytes]:
        return (job.key(), health_fingerprint(health, job.hazard))

    def contains(self, job: RoutingJob, health: np.ndarray) -> bool:
        """Membership check that does not touch the hit/miss counters.

        Used by speculative machinery (prefetch submission) that must not
        pollute the cache statistics with lookups no plan ever asked for.
        """
        return self._key(job, health) in self.entries

    def get(self, job: RoutingJob, health: np.ndarray) -> RoutingStrategy | None:
        """Look up a strategy for ``job`` under the current health matrix."""
        entry = self.entries.get(self._key(job, health))
        if entry is None:
            self.misses += 1
            perf.incr("library.misses")
        else:
            self.hits += 1
            perf.incr("library.hits")
        return entry

    def put(
        self, job: RoutingJob, health: np.ndarray, strategy: RoutingStrategy
    ) -> None:
        """Cache a synthesized strategy and keep its policy for warm-start.

        MC health is monotone non-increasing, so when the same job is
        resynthesized under degraded health the previous ``Rmin`` fixpoint
        is a natural seed: the new values dominate the old ones pointwise
        and the stochastic-shortest-path iteration converges from any
        nonnegative start, so seeding is sound and typically saves most of
        the iterations.  The policy is kept as it is (its state columns
        and value vector); no per-state map is built.
        """
        self.entries[self._key(job, health)] = strategy
        self.warm_policies[job.key()] = strategy.policy

    def warm_start(self, job: RoutingJob) -> MemorylessStrategy | None:
        """The last solved policy for ``job``, if any.

        Synthesis seeds from its value vector as it is when the new model
        shares its state columns and joins states otherwise (see
        :func:`repro.core.synthesis._warm_seed`).  Test it with ``is
        None``: its length counts decisions, and a policy without any
        still seeds.
        """
        return self.warm_policies.get(job.key())

    def __len__(self) -> int:
        return len(self.entries)


def strategy_from_synthesis(
    job: RoutingJob, result: SynthesisResult
) -> RoutingStrategy | None:
    """Wrap a synthesis result, or ``None`` when synthesis failed."""
    if result.strategy is None:
        return None
    return RoutingStrategy(
        job=job,
        policy=result.strategy,
        expected_cycles=result.expected_cycles,
    )
