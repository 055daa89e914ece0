"""Differential test: the scheduler's event-driven bookkeeping against
from-scratch recomputation.

The scheduler keeps the ready list and the fencing (``_conflicts``)
verdicts until a lifecycle event changes what they depend on, and walks
only the active MOs when it plans a cycle or resolves intended merges.  A
checking subclass recomputes all of it from scratch, every cycle, with the
plain full scans below, over every case of :mod:`tests.test_trace_digests`;
each execution must also keep its pinned digest.  Direct tests pin the
events that the seeded cases do not reach: a task re-targeted or recovered
onto a wider hazard zone while another MO waits on its fencing verdict.
"""

from __future__ import annotations

from collections import Counter

import pytest

import numpy as np

from repro.bioassay.ops import MO, MOType
from repro.bioassay.seqgraph import SequencingGraph
from repro.core.routing_job import RoutingJob, zone
from repro.core.scheduler import HybridScheduler, MOPhase, RoutingTask
from repro.geometry.rect import Rect
from tests.test_trace_digests import DIGESTS, _cases, _execute
from tests.test_sensing_policy import H, W

ACTIVE = (MOPhase.ROUTING, MOPhase.OPERATING)


def _fresh_ready(s: HybridScheduler) -> list[str]:
    """INIT MOs whose predecessors are done (and, for a dispense, whose
    consumers' other non-dispense inputs are done), in program order."""
    def done(name: str) -> bool:
        return s._states[name].phase is MOPhase.DONE

    ready = []
    for name in s._order:
        if s._states[name].phase is not MOPhase.INIT:
            continue
        if not all(done(p.name) for p in s.graph.predecessors(name)):
            continue
        if s.graph.mo(name).type is MOType.DIS and not all(
            done(p) for consumer in s.graph.successors(name)
            for p in consumer.pre
            if p != name and s.graph.mo(p).type is not MOType.DIS
        ):
            continue
        ready.append(name)
    return ready


def _fresh_conflict(s: HybridScheduler, name: str) -> bool:
    """The fencing rules over every MO state, parked droplet and rect."""
    state = s._states[name]
    zones = [j.hazard for j in state.decomposed.jobs]
    for other in s._states.values():
        if other.phase not in ACTIVE:
            continue
        fenced = ([t.job.hazard for t in other.tasks] if other.tasks
                  else [j.hazard for j in other.decomposed.jobs])
        if any(z.expanded(1).overlaps(az) for az in fenced for z in zones):
            return True
    mo = s.graph.mo(name)
    slots = mo.pre_output if mo.pre_output else (0,) * len(mo.pre)
    own = {s._parked.get(key) for key in zip(mo.pre, slots)}
    goals = [j.goal for j in state.decomposed.jobs]
    if state.decomposed.merged_pattern is not None:
        goals.append(state.decomposed.merged_pattern)
    return any(
        did not in own and did in s.droplets
        and any(s.droplets[did].adjacent_or_overlapping(g) for g in goals)
        for did in s._parked.values()
    )


def _fresh_merging(s: HybridScheduler) -> list[str]:
    return [
        name for name in s._order
        if s._states[name].phase is MOPhase.ROUTING
        and s._states[name].stage == "route_in"
        and s.graph.mo(name).type in (MOType.MIX, MOType.DLT)
    ]


class _CheckedScheduler(HybridScheduler):
    """Asserts, every cycle, that the event-driven state equals a
    from-scratch recomputation; counts what it compared."""

    counts: Counter = Counter()

    def _ready_mos(self) -> list[str]:
        ready = super()._ready_mos()
        assert ready == _fresh_ready(self)
        self.counts["ready"] += 1
        return ready

    def _conflicts(self, name: str) -> bool:
        reused = self._checked_at == self._epoch and name in self._verdicts
        verdict = super()._conflicts(name)
        assert verdict == _fresh_conflict(self, name), name
        self.counts["verdicts"] += 1
        self.counts["reused"] += reused
        self.counts["blocked"] += verdict
        return verdict

    def _activate_ready(self, health) -> None:
        # Every ready MO's verdict as the cycle starts, before activation
        # order or a remap can skip one.
        for name in self._ready_mos():
            self._conflicts(name)
        super()._activate_ready(health)

    def _plan_cycle(self, health):
        assert self._active == [n for n in self._order
                                if self._states[n].phase in ACTIVE]
        return super()._plan_cycle(health)

    def _resolve_intended_merges(self) -> None:
        candidates = _fresh_merging(self)
        due = [
            name for name in candidates
            if len(alive := [self.droplets[t.droplet_id]
                             for t in self._states[name].tasks
                             if t.droplet_id in self.droplets]) == 2
            and alive[0].adjacent_or_overlapping(alive[1])
        ]
        super()._resolve_intended_merges()
        merged = [n for n in candidates
                  if self._states[n].stage == "route_merged"]
        assert merged == due
        self.counts["merges"] += len(merged)


@pytest.mark.parametrize("case", [name for name, _ in _cases()])
def test_event_driven_bookkeeping_matches_full_recompute(case):
    _CheckedScheduler.counts = Counter()
    kwargs = dict(_cases())[case]
    assert _execute(**kwargs, scheduler_cls=_CheckedScheduler) == DIGESTS[case]
    counts = _CheckedScheduler.counts
    assert counts["ready"] > 0
    assert counts["verdicts"] > 0


def test_cases_cover_merges_and_blocked_activations():
    """The differential test is not vacuous: the cases merge droplets,
    hold back fenced MOs and re-read kept verdicts in later cycles."""
    _CheckedScheduler.counts = Counter()
    for name in ("master-mix/None", "serial-dilution/selective"):
        _execute(**dict(_cases())[name], scheduler_cls=_CheckedScheduler)
    counts = _CheckedScheduler.counts
    assert counts["merges"] > 0
    assert counts["blocked"] > 0
    assert counts["reused"] > 0


class _NoCover:
    """A strategy with no action anywhere: the task must be re-targeted."""

    def action(self, rect: Rect) -> None:
        return None


class _Recovered:
    """A recovery strategy on a wider job, stepping east from anywhere."""

    def __init__(self, job: RoutingJob):
        self.job = job

    def action(self, rect: Rect) -> str:
        return "a_E"


class _StubRouter:
    adaptive = False

    def plan(self, job: RoutingJob, health: np.ndarray) -> _NoCover:
        return _NoCover()

    def recover(self, job: RoutingJob, health: np.ndarray) -> _Recovered:
        return _Recovered(RoutingJob(job.start, job.goal, Rect(1, 1, W, H)))


class TestZoneChangesDropKeptVerdicts:
    """A task whose hazard zone grows must re-open every kept fencing
    verdict: an MO cleared against the old zone may now sit next to it."""

    def _setup(self) -> tuple[HybridScheduler, RoutingTask]:
        g = SequencingGraph("g", [
            MO("a", MOType.DIS, size=(4, 4), locs=((4.5, 4.5),)),
            MO("ao", MOType.OUT, pre=("a",), locs=((4.5, 20.5),)),
            MO("b", MOType.DIS, size=(4, 4), locs=((32.5, 12.5),)),
            MO("bo", MOType.OUT, pre=("b",), locs=((37.5, 20.5),)),
        ])
        s = HybridScheduler(g, _StubRouter(), W, H)
        start, goal = Rect(3, 3, 6, 6), Rect(3, 19, 6, 22)
        did = s._new_droplet(start, "ao")
        task = RoutingTask(did, RoutingJob(start, goal,
                                           zone(start, goal, W, H)))
        state = s._states["ao"]
        state.tasks = [task]
        s._enter("ao", state, MOPhase.ROUTING)
        assert not s._conflicts("b")  # kept for this epoch
        return s, task

    def test_retarget_reopens_verdicts(self):
        s, task = self._setup()
        drifted = Rect(24, 10, 27, 13)  # off the job's zone, near "b"
        s.droplets[task.droplet_id] = drifted
        assert s._plan_task(task, np.zeros((W, H)), drifted)
        assert task.job.hazard.contains(drifted)
        assert s._fence_conflict("b")
        assert s._conflicts("b")

    def test_recovery_reopens_verdicts(self):
        s, task = self._setup()
        rect = s.droplets[task.droplet_id]
        task.strategy, task.last_rect = _NoCover(), rect
        task.stagnant = s.stall_recovery_threshold
        targets: dict = {}
        s._plan_routing("ao", s._states["ao"], np.zeros((W, H)), targets, {})
        assert s.recoveries == 1
        assert task.job.hazard == Rect(1, 1, W, H)
        assert s._fence_conflict("b")
        assert s._conflicts("b")
