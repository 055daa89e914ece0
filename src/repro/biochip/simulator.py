"""MEDA biochip simulator: the Fig. 14 control flow.

Each operational cycle: the scheduler reads the sensed health matrix and
emits an actuation plan; the simulator applies the actuation to the chip
(wearing the actuated MCs), then samples every moving droplet's next pattern
from the probability distributions of Sec. V-B using the chip's *true*
degradation-derived forces, and reports the outcomes back to the scheduler.

This realizes the incomplete-information variant of the MEDA SMG: the
droplet controller plays against the hidden degradation matrix ``D`` while
observing only the quantized health ``H``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs, perf
from repro.biochip.chip import MedaChip
from repro.biochip.recorder import ActuationRecorder
from repro.biochip.trace import ExecutionTrace, TraceFrame
from repro.core.actions import ACTIONS
from repro.core.droplet import actuation_matrix
from repro.core.scheduler import HybridScheduler
from repro.core.transitions import sample_outcome


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of one bioassay execution.

    ``cycles`` counts operational cycles until completion (or until the
    failure was detected); ``failure`` is ``None`` on success, else one of
    ``"no-route"``, ``"unintended-merge"``, ``"max-cycles"``.
    """

    success: bool
    cycles: int
    failure: str | None
    resyntheses: int
    total_actuations: int

    @property
    def failure_reason(self) -> str:
        return "success" if self.success else (self.failure or "unknown")


class MedaSimulator:
    """Runs bioassay executions on a :class:`MedaChip`."""

    def __init__(
        self,
        chip: MedaChip,
        rng: np.random.Generator,
        recorder: ActuationRecorder | None = None,
        trace: ExecutionTrace | None = None,
        sensing_policy: str | None = None,
        sensing_weight: float = 0.1,
    ) -> None:
        """``sensing_policy`` optionally charges sensing stress each cycle:
        ``"full"`` scans the whole array (the default MEDA operational
        cycle), ``"selective"`` only the scheduler's active zones and
        droplet neighbourhoods (the lifetime-extension technique of the
        paper's ref. [32]); ``None`` ignores sensing wear (the paper's
        evaluation setting)."""
        if sensing_policy not in (None, "full", "selective"):
            raise ValueError(f"unknown sensing policy {sensing_policy!r}")
        self.chip = chip
        self.rng = rng
        self.recorder = recorder
        self.trace = trace
        self.sensing_policy = sensing_policy
        self.sensing_weight = sensing_weight

    def run(self, scheduler: HybridScheduler, max_cycles: int) -> ExecutionResult:
        """Execute one bioassay to completion, failure, or the cycle cap."""
        if max_cycles <= 0:
            raise ValueError("max_cycles must be positive")
        if (scheduler.width, scheduler.height) != (self.chip.width, self.chip.height):
            raise ValueError("scheduler and chip dimensions disagree")
        with obs.span("assay", width=self.chip.width, height=self.chip.height,
                      max_cycles=max_cycles):
            obs.journal_event(
                "run.start", width=self.chip.width, height=self.chip.height,
                max_cycles=max_cycles, mos=len(scheduler.graph),
                sensing_policy=self.sensing_policy,
            )
            return self._run(scheduler, max_cycles)

    def _run(self, scheduler: HybridScheduler, max_cycles: int) -> ExecutionResult:
        start_actuations = self.chip.total_actuations
        journaling = obs.journal() is not None
        prev_health = self.chip.health() if journaling else None
        field = self.chip.force_field()
        cycles = 0
        for cycles in range(1, max_cycles + 1):
            perf.incr("simulator.steps")
            health = self.chip.health()
            # The chip hands out the same health object until some MC
            # crosses a level, so identity rules out a crossing cheaply.
            if journaling and health is not prev_health:
                crossed = prev_health != health
                if crossed.any():
                    cells = np.argwhere(crossed)
                    obs.journal_event(
                        "degradation.crossing", cycle=scheduler.cycle + 1,
                        cells=int(crossed.sum()),
                        min_health=int(health.min()),
                        sample=[(int(x) + 1, int(y) + 1)
                                for x, y in cells[:8]],
                    )
                prev_health = health
            plan = scheduler.plan_cycle(health)
            if plan.failure is not None:
                return self._result(scheduler, False, cycles - 1, plan.failure,
                                    start_actuations)
            if plan.complete:
                return self._result(scheduler, True, cycles - 1, None,
                                    start_actuations)
            with obs.span("simulator.step", cycle=cycles,
                          moving=len(plan.moves)):
                self.chip.actuate(plan.targets.values())
                if self.sensing_policy == "full":
                    self.chip.apply_sensing(weight=self.sensing_weight)
                elif self.sensing_policy == "selective":
                    self.chip.apply_sensing(
                        scheduler.sensing_mask(), weight=self.sensing_weight
                    )
                if self.recorder is not None:
                    self.recorder.record(actuation_matrix(
                        list(plan.targets.values()), self.chip.width,
                        self.chip.height,
                    ))
                if self.trace is not None:
                    self.trace.record(TraceFrame(
                        cycle=cycles,
                        droplets=dict(scheduler.droplets),
                        moving=tuple(sorted(plan.moves)),
                        total_actuations=self.chip.total_actuations,
                    ))
                moved = {}
                for did, action_name in plan.moves.items():
                    rect = scheduler.droplets[did]
                    outcome = sample_outcome(
                        rect, ACTIONS[action_name], field, self.rng
                    )
                    moved[did] = outcome.delta
                    perf.incr("simulator.transport_attempts")
                    if outcome.delta != plan.targets[did]:
                        # The droplet fell short of the asserted pattern —
                        # a (possibly partial) transport failure caused by
                        # degraded frontier MCs.
                        perf.incr("simulator.transport_failures")
                        obs.journal_event(
                            "transport.failure", cycle=cycles, droplet=did,
                            action=action_name,
                            intended=plan.targets[did].as_tuple(),
                            actual=outcome.delta.as_tuple(),
                        )
            scheduler.apply_outcomes(moved)
            if scheduler.failure is not None:
                return self._result(scheduler, False, cycles, scheduler.failure,
                                    start_actuations)
            if scheduler.complete:
                return self._result(scheduler, True, cycles, None, start_actuations)
        return self._result(scheduler, False, max_cycles, "max-cycles",
                            start_actuations)

    def _result(
        self,
        scheduler: HybridScheduler,
        success: bool,
        cycles: int,
        failure: str | None,
        start_actuations: int,
    ) -> ExecutionResult:
        if self.trace is not None:
            self.trace.events = list(scheduler.events)
        result = ExecutionResult(
            success=success,
            cycles=cycles,
            failure=failure,
            resyntheses=scheduler.resyntheses,
            total_actuations=self.chip.total_actuations - start_actuations,
        )
        obs.journal_event(
            "run.end", cycle=cycles, cycles=cycles, success=success,
            failure=failure, resyntheses=scheduler.resyntheses,
            recoveries=scheduler.recoveries,
            total_actuations=result.total_actuations,
        )
        return result
