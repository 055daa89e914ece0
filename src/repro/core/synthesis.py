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
    build_routing_model_fast,
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
#: or ``None`` for a cold solve.
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
    """Package a solved model into a :class:`SynthesisResult`: extract the
    strategy, then gate it on plan existence and start coverage."""
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


def baseline_field(width: int, height: int) -> UniformForceField:
    """The degradation-unaware router's world view: full force everywhere."""
    return UniformForceField(width=width, height=height, value=1.0)
