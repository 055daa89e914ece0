"""Routing-strategy synthesis (Sec. VI-C, Algorithm 2).

``synthesize`` is the paper's ``SYNTH(RJ, H)``: build the routing MDP from
the routing job and the current health matrix, pose the reward query
``phi_r: Rmin=? [ [] !hazard && <> goal ]`` (or the probabilistic query
``phi_p: Pmax=? [...]``), hand it to the model checker and return the
optimal strategy together with the expected completion time (or success
probability).  When no strategy exists the result carries
``(pi, k) = (None, inf)``, matching the paper's convention.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from dataclasses import dataclass, replace

import numpy as np

from repro import obs, perf
from repro.core.actions import DEFAULT_MAX_ASPECT, ActionClass
from repro.core.fastmdp import (
    CompiledRoutingModel,
    build_dedup_token,
    build_routing_model_fast,
    clear_cold_results,
    cold_result,
    extract_fast_strategy,
    remember_cold_result,
)
from repro.core.mdp import RoutingModel, build_routing_mdp
from repro.core.routing_job import RoutingJob
from repro.core.transitions import ForceField, MatrixForceField, UniformForceField
from repro.degradation.model import (
    DEFAULT_HEALTH_BITS,
    health_to_degradation_estimate,
)
from repro.modelcheck.batch import (
    solve_reach_avoid_probability_batch,
    solve_reach_avoid_reward_batch,
    structural_key,
)
from repro.modelcheck.compiled import (
    CompiledMDP,
    compile_mdp,
    solve_reach_avoid_probability,
    solve_reach_avoid_reward,
)
from repro.modelcheck.properties import Objective, Query, reward_query
from repro.modelcheck.reachability import ValueResult
from repro.modelcheck.strategy import MemorylessStrategy, extract_strategy

#: A warm start: the job's last solved policy, a ``{pattern: value}`` map
#: (what the engine's wire format carries) or ``None`` for a cold solve.
WarmStart = MemorylessStrategy | Mapping | None

#: Default convergence threshold for synthesis-time value iteration.  The
#: routing decisions are insensitive to value errors far below one cycle, so
#: this is much looser than the model checker's verification default.
SYNTHESIS_EPSILON = 1e-6


def force_field_from_health(
    health: np.ndarray,
    bits: int = DEFAULT_HEALTH_BITS,
    pessimistic: bool = False,
) -> MatrixForceField:
    """The controller's force estimate from the observed health matrix.

    The controller sees only the quantized ``H``; it reconstructs a
    degradation estimate ``D_hat`` per MC (mid-bucket by default,
    bucket-floor with ``pessimistic=True``) and uses ``D_hat²`` as the
    relative force — eq. 2's ``F = D²`` with the estimate substituted.
    """
    d_hat = health_to_degradation_estimate(health, bits=bits, pessimistic=pessimistic)
    return MatrixForceField(np.asarray(d_hat, dtype=float) ** 2)


def force_field_from_degradation(degradation: np.ndarray) -> MatrixForceField:
    """The *true* force field ``F = D²`` — what the simulator rolls dice with."""
    return MatrixForceField(np.asarray(degradation, dtype=float) ** 2)


def _force_matrix(field: ForceField) -> np.ndarray | None:
    """The force matrix behind a field, or None for exotic field objects."""
    if isinstance(field, MatrixForceField):
        return field.forces
    if isinstance(field, UniformForceField):
        return np.full((field.width, field.height), field.value)
    return None


@dataclass(frozen=True)
class SynthesisResult:
    """Output of ``SYNTH``: the strategy, its value, and bookkeeping.

    ``expected_cycles`` is ``E[r_k]`` for reward queries (``inf`` when no
    strategy reaches the goal almost surely); ``success_probability`` is
    filled for probabilistic queries.  ``construction_time`` and
    ``solve_time`` split the runtime the way Table V reports it.
    """

    strategy: MemorylessStrategy | None
    expected_cycles: float
    success_probability: float | None
    model: "RoutingModel | CompiledRoutingModel | None"
    construction_time: float
    solve_time: float

    @property
    def total_time(self) -> float:
        return self.construction_time + self.solve_time

    @property
    def exists(self) -> bool:
        """Whether a usable strategy was synthesized."""
        return self.strategy is not None

    def to_payload(self) -> dict:
        """A compact, pickle-safe dict of this result.

        The heavyweight ``model`` (state inventory + CSR transitions) is
        deliberately dropped: cross-process consumers only need the policy
        and its value, and shipping the model would dwarf them both.
        """
        return {
            "strategy": None if self.strategy is None
            else self.strategy.to_payload(),
            "expected_cycles": self.expected_cycles,
            "success_probability": self.success_probability,
            "construction_time": self.construction_time,
            "solve_time": self.solve_time,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SynthesisResult":
        """Rehydrate a result from :meth:`to_payload` (``model`` is None)."""
        strategy = payload["strategy"]
        return cls(
            strategy=None if strategy is None
            else MemorylessStrategy.from_payload(strategy),
            expected_cycles=float(payload["expected_cycles"]),
            success_probability=payload["success_probability"],
            model=None,
            construction_time=float(payload["construction_time"]),
            solve_time=float(payload["solve_time"]),
        )


def synthesize(
    job: RoutingJob,
    health: np.ndarray,
    bits: int = DEFAULT_HEALTH_BITS,
    query: Query | None = None,
    max_aspect: float = DEFAULT_MAX_ASPECT,
    pessimistic: bool = False,
    epsilon: float = SYNTHESIS_EPSILON,
    warm_values: WarmStart = None,
) -> SynthesisResult:
    """Algorithm 2: synthesize an adaptive routing strategy for ``job``.

    ``health`` is the current sensed health matrix ``H`` (shape ``(W, H)``).
    The default query is the paper's ``phi_r`` (minimum expected cycles).
    ``warm_values`` optionally seeds value iteration — see
    :func:`synthesize_with_field`.
    """
    field = force_field_from_health(health, bits=bits, pessimistic=pessimistic)
    return synthesize_with_field(
        job, field, query=query, max_aspect=max_aspect, epsilon=epsilon,
        warm_values=warm_values,
    )


def synthesize_with_field(
    job: RoutingJob,
    field: ForceField,
    query: Query | None = None,
    max_aspect: float = DEFAULT_MAX_ASPECT,
    epsilon: float = SYNTHESIS_EPSILON,
    families: tuple[ActionClass, ...] | None = None,
    warm_values: WarmStart = None,
) -> SynthesisResult:
    """Synthesize against an explicit force field.

    Used directly by the degradation-unaware baseline (uniform full-health
    field) and by the ablation benches (true-``D`` oracle fields).

    ``warm_values`` is an optional warm start: a previously synthesized
    policy for the same job (what :meth:`StrategyLibrary.warm_start
    <repro.core.strategy.StrategyLibrary.warm_start>` returns) or a
    ``{pattern: value}`` map, used to seed value iteration.  With the
    certified interval pipeline the seed only ever warm-starts the
    *contracting* side of the bracket, so it is safe for every objective;
    states the warm start does not know fill with the side-neutral value
    (0 for ``Rmin``/``Pmax``, 1 for ``Pmin``), so partial overlap after a
    health change is fine.  Seeds that fail the solver's one-step Bellman
    validation are silently dropped (``vi.warm.rejected``) — a wrong seed
    can cost the warm start, never soundness.

    A cold request (``warm_values`` is ``None`` or an empty map) against
    a matrix-backed field first reads the job template's remembered cold
    result (:func:`_recall`); a hit skips the build and the solve and
    returns a slim result (``model=None``, zero times).
    """
    query = query if query is not None else reward_query()
    forces = _force_matrix(field)
    warm = _warm_policy(warm_values)
    memo = None
    if forces is not None and warm is None:
        memo = (job, forces, (query, float(epsilon)), max_aspect, families)
        hit = _recall(memo)
        if hit is not None:
            return hit
    perf.incr("synthesis.count")

    t0 = time.perf_counter()
    with obs.span("synthesis.construct", job=job.key()):
        if forces is not None:
            model: RoutingModel | CompiledRoutingModel = build_routing_model_fast(
                job, forces, max_aspect=max_aspect, families=families
            )
            compiled = model.compiled
        else:
            model = build_routing_mdp(
                job, field, max_aspect=max_aspect, families=families
            )
            compiled = compile_mdp(model.mdp)
    t1 = time.perf_counter()

    initial_values = _warm_seed(model, query, warm)

    with obs.span("synthesis.solve", states=compiled.num_states,
                  warm=initial_values is not None) as solve_span:
        if query.objective in (Objective.RMIN, Objective.RMAX):
            result = solve_reach_avoid_reward(
                compiled,
                goal=query.formula.goal_label,
                avoid=query.formula.avoid_label,
                minimize=query.objective is Objective.RMIN,
                epsilon=epsilon,
                initial_values=initial_values,
            )
        else:
            result = solve_reach_avoid_probability(
                compiled,
                goal=query.formula.goal_label,
                avoid=query.formula.avoid_label,
                maximize=query.objective is Objective.PMAX,
                epsilon=epsilon,
                initial_values=initial_values,
            )
        solve_span.set(iterations=result.iterations)
    t2 = time.perf_counter()
    perf.add_time("synthesis.construct_seconds", t1 - t0)
    perf.add_time("synthesis.solve_seconds", t2 - t1)
    perf.observe("synthesis.construct_ms", (t1 - t0) * 1e3)
    perf.observe("synthesis.solve_ms", (t2 - t1) * 1e3)
    perf.observe("synthesis.total_ms", (t2 - t0) * 1e3)
    perf.observe("synthesis.vi_iterations", result.iterations,
                 bounds=perf.DEFAULT_COUNT_BUCKETS)
    out = _finalize(job, query, model, compiled, result, t1 - t0, t2 - t1)
    if memo is not None:
        _remember(memo, out)
    return out


def _recall(memo: tuple) -> "SynthesisResult | None":
    """The template-held cold result for ``memo``'s inputs, or None.

    ``memo`` is ``(job, forces, (query, epsilon), max_aspect, families)``.
    A cold synthesis is a pure function of the job geometry, the bytes of
    the force window its build reads, the query and epsilon (see
    :func:`repro.core.fastmdp.cold_result`), so a hit equals a fresh
    build and solve.  Counts ``synthesis.memo.{hits,misses}`` and
    journals a ``synthesis.memo`` event per hit.
    """
    job, forces, extra, max_aspect, families = memo
    hit = cold_result(job, forces, extra, max_aspect, families)
    if hit is None:
        perf.incr("synthesis.memo.misses")
        return None
    perf.incr("synthesis.memo.hits")
    obs.journal_event("synthesis.memo", job=job.key())
    return hit


def _remember(memo: tuple, result: SynthesisResult) -> None:
    """Store the slim form of a cold ``result`` in its template's slot:
    no model (it would dominate the template's memory) and zero times,
    like any result that was not computed by the caller's own call."""
    job, forces, extra, max_aspect, families = memo
    slim = replace(result, model=None, construction_time=0.0, solve_time=0.0)
    remember_cold_result(job, forces, extra, slim, max_aspect, families)


def _warm_policy(warm: WarmStart) -> MemorylessStrategy | None:
    """A warm start as a policy: ``None`` and empty maps are cold, and a
    ``{pattern: value}`` map becomes a policy without decisions."""
    if warm is None or isinstance(warm, MemorylessStrategy):
        return warm
    return MemorylessStrategy({}, dict(warm), float("nan")) if warm else None


def _warm_seed(
    model: "RoutingModel | CompiledRoutingModel",
    query: Query,
    warm: MemorylessStrategy | None,
) -> np.ndarray | None:
    """Map a warm-start policy's values onto a model's state indexing.

    A model built on the policy's own state columns (same template and
    support) takes the value vector as it is (``synthesis.warm_seed.reused``).
    Otherwise states are joined by identity, not index — a health change
    alters state discovery, so the same pattern can sit at a different
    index — and absent states fill with the side-neutral value for the
    seeded bound: 1 for the Pmin upper iterate, 0 everywhere else
    (``synthesis.warm_seed.joined``).
    """
    if warm is None or not isinstance(model, CompiledRoutingModel):
        return None
    perf.incr("synthesis.warm_seeded")
    if warm.columns is model.columns:
        perf.incr("synthesis.warm_seed.reused")
        return warm.value_vector
    perf.incr("synthesis.warm_seed.joined")
    fill = 1.0 if query.objective is Objective.PMIN else 0.0
    at = warm.columns.positions(model.columns)
    return np.where(at >= 0, warm.value_vector[at], fill)


def _finalize(
    job: RoutingJob,
    query: Query,
    model: "RoutingModel | CompiledRoutingModel",
    compiled: CompiledMDP,
    result: "ValueResult",
    construction_time: float,
    solve_time: float,
) -> SynthesisResult:
    """Package a solved model into a :class:`SynthesisResult`.

    Shared by the solo and batched synthesis paths, so strategy extraction
    and the no-plan/start-coverage gating cannot diverge between them.
    """
    if query.objective in (Objective.RMIN, Objective.RMAX):
        expected = float(result.values[compiled.initial])
        probability: float | None = None
    else:
        probability = float(result.values[compiled.initial])
        expected = float("inf") if probability == 0.0 else float("nan")
    if isinstance(model, CompiledRoutingModel):
        strategy: MemorylessStrategy | None = extract_fast_strategy(model, result)
    else:
        strategy = extract_strategy(model.mdp, result)
    no_plan = (
        query.objective in (Objective.RMIN, Objective.RMAX)
        and not np.isfinite(expected)
    ) or (probability is not None and probability <= 0.0)
    # A strategy is usable only when the start pattern already satisfies the
    # goal (nothing to do) or the policy prescribes an action there.  The
    # checks are guarded on ``strategy`` so a missing policy can never be
    # dereferenced.
    start_covered = job.goal.contains(job.start) or (
        strategy is not None and strategy.action(job.start) is not None
    )
    if no_plan or not start_covered:
        strategy = None
    return SynthesisResult(
        strategy=strategy,
        expected_cycles=expected,
        success_probability=probability,
        model=model,
        construction_time=construction_time,
        solve_time=solve_time,
    )


@dataclass(frozen=True)
class BatchRequest:
    """One synthesis problem in a :func:`synthesize_batch` call."""

    job: RoutingJob
    field: ForceField
    warm_values: WarmStart = None


def _same_warm_start(a: WarmStart, b: WarmStart) -> bool:
    """Whether two requests seed alike: the same policy object, or equal
    maps (comparing policies would build their maps)."""
    return a is b or (
        not isinstance(a, MemorylessStrategy) and a is not None and a == b
    )


def clear_batch_value_memo() -> None:
    """Forget every remembered cold result (benches model cold runs);
    the build templates stay."""
    clear_cold_results()


def synthesize_batch(
    requests: "list[BatchRequest]",
    query: Query | None = None,
    max_aspect: float = DEFAULT_MAX_ASPECT,
    epsilon: float = SYNTHESIS_EPSILON,
    families: tuple[ActionClass, ...] | None = None,
) -> "list[SynthesisResult]":
    """Synthesize a family of routing jobs through the batched solver core.

    Models are built per request (template-cached construction), grouped
    into shape buckets by :func:`repro.modelcheck.batch.structural_key`,
    and each bucket is solved by one batch-kernel call that shares the
    support-keyed precompute.  Every result is bit-identical to the
    corresponding :func:`synthesize_with_field` call — the kernel solves
    each model exactly as a solo solve would, the extraction/gating tail
    is literally shared code, and cold requests read and fill the same
    template-held cold results (``vi.batch.memo.{hits,misses}`` besides
    ``synthesis.memo.*``) — so callers (the engine's presynthesis, the
    scheduler's degraded sync path) can swap the per-RJ loop for this
    without disturbing trace identity.

    Requests whose field has no backing matrix fall back to the solo path.
    Per-item ``solve_time`` is the bucket's wall-clock share (individual
    attribution inside one kernel call is necessarily amortized).
    """
    query = query if query is not None else reward_query()
    n = len(requests)
    results: "list[SynthesisResult | None]" = [None] * n
    models: "list[CompiledRoutingModel | None]" = [None] * n
    seeds: "list[np.ndarray | None]" = [None] * n
    construct: "list[float]" = [0.0] * n
    buckets: "dict[str, list[int]]" = {}
    # Requests whose (job, force-window, warm seed) coincide with an
    # earlier one get the earlier result verbatim: the model build is a
    # pure function of the window bytes (see fastmdp.build_dedup_token),
    # so the solo path would reproduce the exact same floats anyway.
    dup_of: "dict[int, int]" = {}
    seen: "dict[tuple, list[int]]" = {}
    memos: "dict[int, tuple]" = {}

    with obs.span("synthesis.batch", jobs=n) as batch_span:
        for i, req in enumerate(requests):
            forces = _force_matrix(req.field)
            if forces is None:
                results[i] = synthesize_with_field(
                    req.job, req.field, query=query, max_aspect=max_aspect,
                    epsilon=epsilon, families=families,
                    warm_values=req.warm_values,
                )
                continue
            token = build_dedup_token(req.job, forces, max_aspect, families)
            if token is not None:
                dkey = (req.job.key(), token)
                for j in seen.get(dkey, ()):
                    if _same_warm_start(requests[j].warm_values,
                                        req.warm_values):
                        dup_of[i] = j
                        perf.incr("vi.batch.dedup")
                        break
                if i in dup_of:
                    continue
            warm = _warm_policy(req.warm_values)
            if warm is None:
                memos[i] = (req.job, forces, (query, float(epsilon)),
                            max_aspect, families)
                hit = _recall(memos[i])
                perf.incr("vi.batch.memo.hits" if hit is not None
                          else "vi.batch.memo.misses")
                if hit is not None:
                    results[i] = hit
                    seen.setdefault((req.job.key(), token), []).append(i)
                    continue
            perf.incr("synthesis.count")
            t0 = time.perf_counter()
            with obs.span("synthesis.construct", job=req.job.key()):
                model = build_routing_model_fast(
                    req.job, forces, max_aspect=max_aspect, families=families
                )
            construct[i] = time.perf_counter() - t0
            perf.add_time("synthesis.construct_seconds", construct[i])
            perf.observe("synthesis.construct_ms", construct[i] * 1e3)
            models[i] = model
            seeds[i] = _warm_seed(model, query, warm)
            key = structural_key(model.compiled)
            buckets.setdefault(key, []).append(i)
            if token is None:  # first build for this geometry: window known now
                token = build_dedup_token(req.job, forces, max_aspect, families)
            if token is not None:
                seen.setdefault((req.job.key(), token), []).append(i)
        batch_span.set(buckets=len(buckets), dedup=len(dup_of))

        for idxs in buckets.values():
            cms = [models[i].compiled for i in idxs]
            ivs = [seeds[i] for i in idxs]
            t0 = time.perf_counter()
            with obs.span("synthesis.solve", states=cms[0].num_states,
                          models=len(idxs),
                          warm=any(s is not None for s in ivs)) as solve_span:
                if query.objective in (Objective.RMIN, Objective.RMAX):
                    value_results = solve_reach_avoid_reward_batch(
                        cms,
                        goal=query.formula.goal_label,
                        avoid=query.formula.avoid_label,
                        minimize=query.objective is Objective.RMIN,
                        epsilon=epsilon,
                        initial_values=ivs,
                    )
                else:
                    value_results = solve_reach_avoid_probability_batch(
                        cms,
                        goal=query.formula.goal_label,
                        avoid=query.formula.avoid_label,
                        maximize=query.objective is Objective.PMAX,
                        epsilon=epsilon,
                        initial_values=ivs,
                    )
                solve_span.set(
                    iterations=max(r.iterations for r in value_results)
                )
            share = (time.perf_counter() - t0) / len(idxs)
            for i, vr in zip(idxs, value_results):
                perf.add_time("synthesis.solve_seconds", share)
                perf.observe("synthesis.solve_ms", share * 1e3)
                perf.observe("synthesis.total_ms", (construct[i] + share) * 1e3)
                perf.observe("synthesis.vi_iterations", vr.iterations,
                             bounds=perf.DEFAULT_COUNT_BUCKETS)
                results[i] = _finalize(
                    requests[i].job, query, models[i], models[i].compiled,
                    vr, construct[i], share,
                )
                if i in memos:
                    _remember(memos[i], results[i])
        for i, j in dup_of.items():
            results[i] = results[j]
    return results


def baseline_field(width: int, height: int) -> UniformForceField:
    """The degradation-unaware router's world view: full force everywhere."""
    return UniformForceField(width=width, height=height, value=1.0)
