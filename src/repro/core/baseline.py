"""Routers: the proposed adaptive synthesizer and the shortest-path baseline.

The evaluation (Sec. VII-A) compares two routing algorithms:

* the **baseline** is unaware of degradation and produces the shortest-path
  strategy, minimizing the distance traveled by each droplet;
* the **adaptive** router follows the synthesis framework: it plans against
  the sensed health matrix and is re-invoked by the scheduler whenever the
  health inside the job's hazard zone changes.

Both are expressed through the same synthesis machinery: the baseline is
simply synthesis against a uniform full-force field (with full force,
``Rmin`` is exactly the shortest path in cycles), so any performance gap in
the experiments comes from *information*, not implementation differences.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

import numpy as np

from repro import obs, perf
from repro.core.actions import DEFAULT_MAX_ASPECT
from repro.core.routing_job import RoutingJob
from repro.core.strategy import (
    RoutingStrategy,
    StrategyLibrary,
    fingerprint_digest,
    health_fingerprint,
    strategy_from_synthesis,
)
from repro.core.synthesis import (
    SYNTHESIS_EPSILON,
    baseline_field,
    synthesize,
    synthesize_with_field,
)
from repro.modelcheck.properties import Query

if TYPE_CHECKING:
    from repro.engine.store import StrategyStore


class Router(Protocol):
    """What the scheduler needs from a routing algorithm."""

    #: Whether the scheduler should re-plan when zone health changes.
    adaptive: bool

    def plan(self, job: RoutingJob, health: np.ndarray) -> RoutingStrategy | None:
        """A strategy for ``job`` under the sensed health (None = no route)."""
        ...  # pragma: no cover - protocol


class AdaptiveRouter:
    """The paper's adaptive router (Algorithm 2 + the hybrid library).

    Strategies are cached in a :class:`StrategyLibrary` keyed by the health
    inside the hazard zone, so repeated executions on a slowly degrading
    chip mostly hit the cache; a health change triggers a miss and a fresh
    synthesis — the hybrid scheduling scheme of Sec. VI-D.
    """

    adaptive = True

    def __init__(
        self,
        bits: int = 2,
        query: Query | None = None,
        max_aspect: float = DEFAULT_MAX_ASPECT,
        pessimistic: bool = False,
        epsilon: float = SYNTHESIS_EPSILON,
        library: StrategyLibrary | None = None,
        store: "StrategyStore | None" = None,
    ) -> None:
        """``store`` is an optional persistent
        :class:`~repro.engine.store.StrategyStore`.

        When present, plans are served in priority order: in-memory
        library, store, and finally synchronous synthesis, whose result
        is written back to both.  A store row is exactly what synthesis
        would produce for the same (job, health), so the routing
        decisions are identical with and without a store.
        """
        self.bits = bits
        self.query = query
        self.max_aspect = max_aspect
        self.pessimistic = pessimistic
        self.epsilon = epsilon
        self.library = library if library is not None else StrategyLibrary()
        self.store = store
        self.syntheses = 0
        self.synthesis_seconds = 0.0

    def plan(self, job: RoutingJob, health: np.ndarray) -> RoutingStrategy | None:
        with obs.span("rj.plan", job=job.key()) as rj_span:
            cached = self.library.get(job, health)
            if cached is not None:
                rj_span.set(cache="hit")
                return cached
            # A library miss on a previously solved job means the zone health
            # changed; seed value iteration from the last fixpoint (sound for
            # the default Rmin query — synthesize ignores the seed otherwise).
            warm = self.library.warm_start(job)
            rj_span.set(cache="miss", warm=warm is not None)
            if obs.enabled():
                rj_span.set(health_fp=fingerprint_digest(
                    health_fingerprint(health, job.hazard)
                ))
            if self.store is not None:
                stored = self.store.get(job, health)
                if stored is not None:
                    # library.put also installs the stored policy as the
                    # job's warm-start seed for future resyntheses.
                    rj_span.set(store="hit")
                    self.library.put(job, health, stored)
                    return stored
            result = synthesize(
                job,
                health,
                bits=self.bits,
                query=self.query,
                max_aspect=self.max_aspect,
                pessimistic=self.pessimistic,
                epsilon=self.epsilon,
                warm_values=warm,
            )
            self.syntheses += 1
            self.synthesis_seconds += result.total_time
            perf.incr("router.adaptive.syntheses")
            perf.add_time("router.adaptive.synthesis_seconds", result.total_time)
            obs.journal_event(
                "synthesis",
                router="adaptive",
                job=job.key(),
                ms=result.total_time * 1e3,
                construct_ms=result.construction_time * 1e3,
                solve_ms=result.solve_time * 1e3,
                warm=warm is not None,
                exists=result.exists,
            )
            strategy = strategy_from_synthesis(job, result)
            if strategy is not None:
                self.library.put(job, health, strategy)
                if self.store is not None:
                    self.store.put(job, health, strategy)
            return strategy


class BaselineRouter:
    """The degradation-unaware shortest-path router.

    Plans once per routing job against a uniform full-force field and never
    looks at the health matrix again; with all success probabilities equal
    to one, ``Rmin`` reduces to the minimum number of cycles, i.e. the
    shortest path over the action set.
    """

    adaptive = False

    def __init__(
        self,
        width: int,
        height: int,
        max_aspect: float = DEFAULT_MAX_ASPECT,
        epsilon: float = SYNTHESIS_EPSILON,
    ) -> None:
        self.width = width
        self.height = height
        self.max_aspect = max_aspect
        self.epsilon = epsilon
        self._cache: dict[tuple[int, ...], RoutingStrategy | None] = {}
        self.syntheses = 0
        self.synthesis_seconds = 0.0

    def plan(self, job: RoutingJob, health: np.ndarray) -> RoutingStrategy | None:
        key = job.key()
        if key in self._cache:
            return self._cache[key]
        with obs.span("rj.plan", job=key, cache="miss"):
            result = synthesize_with_field(
                job,
                baseline_field(self.width, self.height),
                max_aspect=self.max_aspect,
                epsilon=self.epsilon,
            )
        self.syntheses += 1
        self.synthesis_seconds += result.total_time
        perf.incr("router.baseline.syntheses")
        obs.journal_event(
            "synthesis",
            router="baseline",
            job=key,
            ms=result.total_time * 1e3,
            construct_ms=result.construction_time * 1e3,
            solve_ms=result.solve_time * 1e3,
            warm=False,
            exists=result.exists,
        )
        strategy = strategy_from_synthesis(job, result)
        self._cache[key] = strategy
        return strategy


class ReactiveRouter:
    """The baseline plus reactive, retrial-style error recovery (Sec. II-C).

    Routes like the degradation-unaware baseline (shortest paths against a
    uniform full-force field).  When the scheduler detects that a droplet
    has stopped making progress — the observable symptom of a degraded or
    failed frontier — :meth:`recover` re-plans from the droplet's current
    pattern using the *current* health matrix: a reroute corrective action.

    This is the reactive counterpoint to the paper's proactive framework:
    it only consults health information after an error manifests, so it
    pays the stall cycles the adaptive router avoids, but it does not die
    on dead corridors the way the pure baseline does.
    """

    adaptive = False
    reactive = True

    def __init__(
        self,
        width: int,
        height: int,
        bits: int = 2,
        max_aspect: float = DEFAULT_MAX_ASPECT,
        epsilon: float = SYNTHESIS_EPSILON,
    ) -> None:
        self.width = width
        self.height = height
        self.bits = bits
        self.max_aspect = max_aspect
        self.epsilon = epsilon
        self._baseline = BaselineRouter(width, height, max_aspect=max_aspect,
                                        epsilon=epsilon)
        self.recoveries = 0

    @property
    def syntheses(self) -> int:
        return self._baseline.syntheses + self.recoveries

    @property
    def synthesis_seconds(self) -> float:
        return self._baseline.synthesis_seconds + self._recovery_seconds

    _recovery_seconds = 0.0

    def plan(self, job: RoutingJob, health: np.ndarray) -> RoutingStrategy | None:
        return self._baseline.plan(job, health)

    def recover(self, job: RoutingJob, health: np.ndarray) -> RoutingStrategy | None:
        """Retrial corrective action: replan around the observed blockage.

        First replans within the job's hazard bounds; if the blockage seals
        the whole zone, retries with the zone widened to the full chip — a
        reroute may legitimately take any free path, whereas the proactive
        framework would have fenced a feasible zone to begin with.
        """
        self.recoveries += 1
        perf.incr("router.reactive.recoveries")
        with obs.span("rj.recover", job=job.key()):
            result = synthesize(
                job, health, bits=self.bits, max_aspect=self.max_aspect,
                epsilon=self.epsilon,
            )
        self._recovery_seconds += result.total_time
        obs.journal_event(
            "synthesis",
            router="reactive-recover",
            job=job.key(),
            ms=result.total_time * 1e3,
            construct_ms=result.construction_time * 1e3,
            solve_ms=result.solve_time * 1e3,
            warm=False,
            exists=result.exists,
        )
        strategy = strategy_from_synthesis(job, result)
        if strategy is not None:
            return strategy
        from repro.geometry.rect import Rect

        widened = RoutingJob(
            job.start, job.goal, Rect(1, 1, self.width, self.height),
            job.obstacles,
        )
        result = synthesize(
            widened, health, bits=self.bits, max_aspect=self.max_aspect,
            epsilon=self.epsilon,
        )
        self._recovery_seconds += result.total_time
        return strategy_from_synthesis(widened, result)


class OracleRouter:
    """An ablation router that sees the *true* degradation matrix.

    Upper-bounds what any health-sensing scheme can achieve: it plans with
    the exact per-MC forces ``D²`` instead of the quantized estimate.  Used
    by the ablation benches, not by the paper's experiments.
    """

    adaptive = True

    def __init__(
        self,
        max_aspect: float = DEFAULT_MAX_ASPECT,
        epsilon: float = SYNTHESIS_EPSILON,
    ) -> None:
        self.max_aspect = max_aspect
        self.epsilon = epsilon
        self.syntheses = 0
        self.synthesis_seconds = 0.0

    def plan(self, job: RoutingJob, degradation: np.ndarray) -> RoutingStrategy | None:
        from repro.core.synthesis import force_field_from_degradation

        result = synthesize_with_field(
            job,
            force_field_from_degradation(degradation),
            max_aspect=self.max_aspect,
            epsilon=self.epsilon,
        )
        self.syntheses += 1
        self.synthesis_seconds += result.total_time
        return strategy_from_synthesis(job, result)
