"""The hybrid scheduler (Sec. VI-D, Algorithm 3).

Drives a placed bioassay through its microfluidic operations:

* MOs whose predecessors are done are *activated* (subject to a spatial
  fencing check so concurrent MOs cannot collide);
* active MOs route their droplets using strategies obtained from the
  router — consulting the strategy library first, resynthesizing when the
  sensed health inside a job's hazard zone changes (the hybrid scheme);
* operate phases (mixing time, split actuation, magnetic holds, dispensing
  latency) hold droplets in place, wearing the MCs beneath them;
* mix/dilute input droplets coalesce when their patterns touch; splits
  replace a droplet with two offset halves.

The scheduler is deliberately ignorant of the *true* degradation state: it
sees only the health matrix ``H`` each cycle and reports, per droplet, the
intended actuation pattern.  The simulator owns the dice
(:mod:`repro.biochip.simulator`).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro import obs, perf
from repro.bioassay.ops import MOType
from repro.bioassay.seqgraph import SequencingGraph
from repro.core.actions import ACTIONS, apply_action
from repro.core.baseline import Router
from repro.core.droplet import fit_droplet_shape, is_off_chip
from repro.core.routing_job import DecomposedMO, RJHelper, RoutingJob, zone
from repro.core.strategy import (
    RoutingStrategy,
    fingerprint_digest,
    health_fingerprint,
)
from repro.geometry.rect import Rect, rect_from_center


class MOPhase(Enum):
    """Algorithm 3's per-MO state (init / active / done), with the active
    state split into routing and operating sub-phases."""

    INIT = "init"
    ROUTING = "routing"
    OPERATING = "operating"
    DONE = "done"


@dataclass
class RoutingTask:
    """One droplet being routed for an MO.

    ``stalled_until`` implements a retry backoff when the job is temporarily
    unroutable because parked droplets block every path: the droplet holds
    in place and synthesis is retried a few cycles later.
    """

    droplet_id: int
    job: RoutingJob
    strategy: RoutingStrategy | None = None
    fingerprint: bytes | None = None
    arrived: bool = False
    stalled_until: int = 0
    replan_at: int | None = None
    last_rect: Rect | None = None
    stagnant: int = 0
    created_cycle: int = 0
    span: "obs.Span | None" = None
    #: A read-only health array and hazard zone known to yield
    #: ``fingerprint``: while both are unchanged the zone's health is
    #: too, and the per-cycle fingerprint comparison is skipped.
    fp_health: "np.ndarray | None" = None
    fp_hazard: Rect | None = None

    def set_fingerprint(self, health: np.ndarray, hazard: Rect) -> None:
        """Fingerprint the health the task's strategy was planned on."""
        self.fingerprint = health_fingerprint(health, hazard)
        self._remember(health, hazard)

    def health_moved(self, health: np.ndarray) -> bool:
        """Whether the health in the task's zone differs from its
        fingerprint; skips the comparison for a remembered match."""
        hazard = self.job.hazard
        if health is self.fp_health and hazard == self.fp_hazard:
            return False
        if health_fingerprint(health, hazard) != self.fingerprint:
            return True
        self._remember(health, hazard)
        return False

    def _remember(self, health: np.ndarray, hazard: Rect) -> None:
        # Only a read-only array keeps its values under one identity (the
        # chip copies its health on change).
        self.fp_health = None if health.flags.writeable else health
        self.fp_hazard = hazard


@dataclass(frozen=True)
class MOEvent:
    """A scheduler lifecycle event (for traces and debugging)."""

    cycle: int
    mo: str
    kind: str  # "activated" | "done" | "merged" | "split" | "stalled" | "remapped"


@dataclass(frozen=True)
class CyclePlan:
    """The scheduler's output for one operational cycle.

    ``targets`` maps droplet ids to the actuation pattern asserted for them
    this cycle (the moving droplets' intended next pattern, everyone else's
    current pattern — Algorithm 3's ``U(a(delta)) <- 1``).  ``moves`` maps
    the moving droplets to the chosen action name so the simulator can
    sample the probabilistic outcome.
    """

    targets: dict[int, Rect]
    moves: dict[int, str]
    failure: str | None = None
    complete: bool = False


@dataclass
class _MOState:
    decomposed: DecomposedMO
    phase: MOPhase = MOPhase.INIT
    stage: str = ""
    tasks: list[RoutingTask] = field(default_factory=list)
    hold_remaining: int = 0
    dispense_remaining: int = 0
    activated_cycle: int = -1
    done_cycle: int = -1
    span: "obs.Span | None" = None
    #: Quarantine-map version this MO's placement was last checked against.
    remap_version: int = 0


class HybridScheduler:
    """Algorithm 3 over a placed sequencing graph.

    ``router`` supplies strategies (adaptive synthesis or the baseline);
    the scheduler owns droplet lifecycles and MO phase transitions.
    """

    def __init__(
        self,
        graph: SequencingGraph,
        router: Router,
        width: int,
        height: int,
        resynthesis_latency: int = 4,
        activation_order: str = "program",
        stall_recovery_threshold: int = 12,
        reconfig: "object | None" = None,
    ) -> None:
        """``resynthesis_latency`` models the hybrid scheme's *asynchronous*
        resynthesis (Sec. VI-D): when zone health changes, the old strategy
        keeps driving the droplet while the new one is computed, and further
        health changes within the window fold into the same resynthesis.

        ``activation_order`` explores the paper's stated future work (a
        scheduler that optimizes the runtime order of MOs).  Among the MOs
        that are dependency-ready in a cycle:

        * ``"program"`` — list order (the paper's Algorithm 3);
        * ``"healthiest-first"`` — prefer MOs whose routing zones currently
          have the highest mean sensed health (route through good regions
          while they last);
        * ``"shortest-first"`` — prefer MOs with the smallest zone area
          (a shortest-job-first heuristic that frees fenced zones sooner).

        ``stall_recovery_threshold``: when the router exposes a ``recover``
        method (reactive error recovery, Sec. II-C) and a droplet makes no
        progress for this many planning cycles, the scheduler invokes it —
        a reroute-style retrial corrective action.

        ``reconfig`` is an optional
        :class:`repro.reconfig.ReconfigPolicy`.  When set, the scheduler
        maintains a quarantine map of non-viable silicon each cycle,
        relocates a ready MO's module slots *before* activation (and hence
        before any synthesis) when its placement is quarantined, and
        injects quarantined regions as routing obstacles.  On a chip where
        nothing is ever quarantined the policy never fires and execution
        traces are bit-identical to ``reconfig=None``.
        """
        if not graph.is_placed():
            raise ValueError("scheduler needs a placed sequencing graph")
        if resynthesis_latency < 0:
            raise ValueError("resynthesis latency cannot be negative")
        if activation_order not in ("program", "healthiest-first",
                                    "shortest-first"):
            raise ValueError(f"unknown activation order {activation_order!r}")
        self.graph = graph
        self.router = router
        self.width = width
        self.height = height
        self.resynthesis_latency = resynthesis_latency
        # Retained: the reconfiguration layer re-decomposes remapped MOs
        # through the same helper so successor MOs see updated outputs.
        self._helper = RJHelper(width, height)
        topological = graph.topological()
        self._order = [mo.name for mo in topological]
        self._pos = {name: i for i, name in enumerate(self._order)}
        self._states: dict[str, _MOState] = {
            mo.name: _MOState(decomposed=self._helper.decompose(mo))
            for mo in topological
        }
        #: Routing or operating MOs, in program order.
        self._active: list[str] = []
        self.droplets: dict[int, Rect] = {}
        self._owner: dict[int, str] = {}
        self._parked: dict[tuple[str, int], int] = {}
        self._next_droplet = 0
        self.activation_order = activation_order
        self.stall_recovery_threshold = stall_recovery_threshold
        self._reconfig = reconfig
        self._qmap = None
        self.remaps = 0
        if reconfig is not None:
            seed = getattr(reconfig, "seed_placement", None)
            if seed is not None:
                seed(graph.mos)
        #: MOs in phase DONE; the assay is complete when all of them are.
        self._done = 0
        #: Dependency-ready MOs as of the last MO completion (readiness
        #: depends only on which MOs are done), in program order.
        self._ready: list[str] = []
        self._ready_at = -1
        #: Bumped by every event that can change which ready MOs are still
        #: in INIT or a fencing verdict: an MO phase change, a task's new
        #: job, a remap, a change to the parked set or the droplet set.
        self._epoch = 0
        #: The ready MOs still in INIT, and the fencing verdicts, as of
        #: epoch ``_checked_at``.
        self._ready_init: list[str] = []
        self._verdicts: dict[str, bool] = {}
        self._checked_at = -1
        self.failure: str | None = None
        self.cycle = 0
        self.resyntheses = 0
        self.recoveries = 0
        self.events: list[MOEvent] = []
        #: droplet id -> (volume in MC-units, analyte concentration)
        self._chemistry: dict[int, tuple[float, float]] = {}
        #: (mo name, volume, concentration) of every droplet that exited
        #: through an out/dsc operation, in exit order
        self.collected: list[tuple[str, float, float]] = []
        #: The last selective-sensing mask and the zones + droplet rects
        #: it was built from (see :meth:`sensing_mask`).
        self._sensing_key: tuple | None = None
        self._sensing_mask: np.ndarray | None = None

    # -- public API ----------------------------------------------------------

    @property
    def complete(self) -> bool:
        return self._done == len(self._states)

    def plan_cycle(self, health: np.ndarray) -> CyclePlan:
        """Plan one operational cycle against the sensed health matrix."""
        self.cycle += 1
        perf.incr("scheduler.cycles")
        with obs.span("scheduler.cycle", cycle=self.cycle):
            return self._plan_cycle(health)

    def _plan_cycle(self, health: np.ndarray) -> CyclePlan:
        if self.failure or self.complete:
            return CyclePlan({}, {}, failure=self.failure, complete=self.complete)
        if self._reconfig is not None:
            self._qmap = self._reconfig.update(health, cycle=self.cycle)
        self._activate_ready(health)
        targets: dict[int, Rect] = {}
        moves: dict[int, str] = {}
        # A snapshot: an MO that finishes leaves the list mid-loop.
        for name in tuple(self._active):
            if self.failure:
                break
            state = self._states[name]
            if state.phase is MOPhase.ROUTING:
                self._plan_routing(name, state, health, targets, moves)
            elif state.phase is MOPhase.OPERATING:
                self._plan_operating(name, state, targets)
        # Parked droplets (outputs awaiting their consumer) are held in place.
        for did in self._parked.values():
            if did in self.droplets and did not in targets:
                targets[did] = self.droplets[did]
        return CyclePlan(
            targets=targets,
            moves=moves,
            failure=self.failure,
            complete=self.complete,
        )

    def sensing_mask(self) -> np.ndarray:
        """The MCs a *selective* scan must cover this cycle.

        Selective sensing (the paper's ref. [32]) scans only where the
        controller needs information: the hazard zones of active routing
        tasks (health adaptation + droplet tracking) and the cells around
        every droplet (position verification).  Everything else is skipped,
        sparing those MCs the per-cycle sensing stress.

        The mask is a function of those zones and droplet rects only, so
        it is rebuilt when one of them changes; otherwise the last mask
        comes back.  It is read-only.
        """
        zones = tuple(
            task.job.hazard
            for name in self._active
            for task in self._states[name].tasks
        )
        key = (zones, tuple(self.droplets.values()))
        if key == self._sensing_key:
            return self._sensing_mask
        mask = np.zeros((self.width, self.height), dtype=bool)
        for hz in zones:
            mask[hz.xa - 1 : hz.xb, hz.ya - 1 : hz.yb] = True
        for rect in key[1]:
            xa, ya = max(rect.xa - 1, 1), max(rect.ya - 1, 1)
            xb = min(rect.xb + 1, self.width)
            yb = min(rect.yb + 1, self.height)
            mask[xa - 1 : xb, ya - 1 : yb] = True
        mask.flags.writeable = False
        self._sensing_key, self._sensing_mask = key, mask
        return mask

    def apply_outcomes(self, moved: dict[int, Rect]) -> None:
        """Commit the sampled droplet movements and resolve merges."""
        for did, rect in moved.items():
            if did not in self.droplets:
                raise KeyError(f"unknown droplet {did}")
            self.droplets[did] = rect
        self._resolve_intended_merges()
        self._check_unintended_merges()

    # -- telemetry -----------------------------------------------------------

    def _event(self, kind: str, mo: str, **fields) -> None:
        """Record an MO lifecycle event (trace list + run journal)."""
        self.events.append(MOEvent(self.cycle, mo, kind))
        obs.journal_event(f"mo.{kind}", cycle=self.cycle, mo=mo, **fields)

    def _new_task(
        self, did: int, job: RoutingJob, state: _MOState
    ) -> RoutingTask:
        """Create a routing task, opening its RJ span under the MO span."""
        task = RoutingTask(did, job, created_cycle=self.cycle)
        task.span = obs.begin_span(
            "rj", parent=state.span, droplet=did, job=job.key(),
            start_cycle=self.cycle,
        )
        return task

    def _task_arrived(self, task: RoutingTask) -> None:
        """First arrival at the goal: close the RJ span, record the length."""
        task.arrived = True
        perf.observe("scheduler.route_cycles",
                     self.cycle - task.created_cycle,
                     bounds=perf.DEFAULT_COUNT_BUCKETS)
        if task.span is not None:
            obs.end_span(task.span, end_cycle=self.cycle)
            task.span = None

    # -- droplet bookkeeping ---------------------------------------------------

    def _new_droplet(
        self,
        rect: Rect,
        owner: str,
        volume: float | None = None,
        concentration: float = 0.0,
    ) -> int:
        did = self._next_droplet
        self._next_droplet += 1
        self.droplets[did] = rect
        self._owner[did] = owner
        self._epoch += 1
        self._chemistry[did] = (
            float(rect.area) if volume is None else volume,
            concentration,
        )
        return did

    def droplet_chemistry(self, did: int) -> tuple[float, float]:
        """The (volume, analyte concentration) of a live droplet."""
        return self._chemistry[did]

    def _remove_droplet(self, did: int) -> None:
        self.droplets.pop(did, None)
        self._owner.pop(did, None)
        self._chemistry.pop(did, None)
        self._epoch += 1

    def _park(self, name: str, slot: int, did: int) -> None:
        self._parked[(name, slot)] = did
        self._epoch += 1

    def _consume(self, name: str, mo_name: str, index: int) -> int:
        """Claim input ``index`` of MO ``mo_name`` from its producer."""
        mo = self.graph.mo(mo_name)
        pred = mo.pre[index]
        slot = mo.pre_output[index] if mo.pre_output else 0
        did = self._parked.pop((pred, slot), None)
        if did is None:
            raise RuntimeError(
                f"MO {mo_name} activated but input {index} (output {slot} of "
                f"{pred}) is not parked"
            )
        self._owner[did] = name
        self._epoch += 1
        return did

    def _enter(self, name: str, state: _MOState, phase: MOPhase) -> None:
        """Move an MO to ``phase``, keeping the active list in order."""
        was_active = state.phase in (MOPhase.ROUTING, MOPhase.OPERATING)
        state.phase = phase
        self._epoch += 1
        if phase is MOPhase.DONE:
            self._active.remove(name)
        elif not was_active:
            bisect.insort(self._active, name, key=self._pos.__getitem__)

    # -- activation --------------------------------------------------------------

    def _preds_done(self, name: str) -> bool:
        return all(
            self._states[p.name].phase is MOPhase.DONE
            for p in self.graph.predecessors(name)
        )

    def _active_zones(self) -> list[Rect]:
        zones: list[Rect] = []
        for name in self._active:
            state = self._states[name]
            zones.extend(t.job.hazard for t in state.tasks)
            if not state.tasks:
                # Operating without routing tasks (e.g. dispensing):
                # fence the decomposed jobs' zones.
                zones.extend(j.hazard for j in state.decomposed.jobs)
        return zones

    def _conflicts(self, name: str) -> bool:
        """:meth:`_fence_conflict`, reused until the next epoch."""
        if self._checked_at != self._epoch:
            self._refresh_checks()
        verdict = self._verdicts.get(name)
        if verdict is None:
            verdict = self._verdicts[name] = self._fence_conflict(name)
        return verdict

    def _refresh_checks(self) -> None:
        """Drop the verdicts and re-filter the ready list (new epoch)."""
        self._checked_at = self._epoch
        self._verdicts = {}
        self._ready_init = [name for name in self._ready
                            if self._states[name].phase is MOPhase.INIT]

    def _fence_conflict(self, name: str) -> bool:
        """Whether activating ``name`` would violate spatial safety.

        Two rules:

        * concurrently *active* MOs must keep a gap of at least 2 MCs
          between their hazard zones so droplets confined to their own
          zones can never touch;
        * the MO's goal sites must not be occupied by foreign *parked*
          droplets — activating anyway would stall the MO until the
          blocker's consumer runs, which rule one may forbid (a scheduling
          deadlock).  Parked droplets merely *near* the zone are fine; they
          become routing obstacles.
        """
        state = self._states[name]
        zones = [j.hazard for j in state.decomposed.jobs]
        for az in self._active_zones():
            if any(z.expanded(1).overlaps(az) for z in zones):
                return True
        own_inputs = self._input_droplets(name)
        targets = [j.goal for j in state.decomposed.jobs]
        if state.decomposed.merged_pattern is not None:
            targets.append(state.decomposed.merged_pattern)
        for did in self._parked.values():
            if did in own_inputs or did not in self.droplets:
                continue
            rect = self.droplets[did]
            if any(rect.adjacent_or_overlapping(goal) for goal in targets):
                return True
        return False

    def _input_droplets(self, name: str) -> set[int]:
        """Parked droplet ids this MO will consume when it activates."""
        mo = self.graph.mo(name)
        inputs = set()
        for idx, pred in enumerate(mo.pre):
            slot = mo.pre_output[idx] if mo.pre_output else 0
            did = self._parked.get((pred, slot))
            if did is not None:
                inputs.add(did)
        return inputs

    def _dispense_ready(self, name: str) -> bool:
        """Just-in-time dispensing: hold a reagent in its reservoir until its
        consumer's non-dispense inputs are done.

        Dispensing reagents eagerly parks droplets on the array for long
        stretches — wearing the MCs beneath them and, worse, blocking other
        MOs' goal regions (a parked droplet adjacent to a goal makes the
        goal unreachable, deadlocking the bioassay).  A dispense therefore
        waits until every other, non-dispense predecessor of its consumer is
        complete.
        """
        consumers = self.graph.successors(name)
        for consumer in consumers:
            for pred_name in consumer.pre:
                if pred_name == name:
                    continue
                pred = self.graph.mo(pred_name)
                if pred.type is MOType.DIS:
                    continue
                if self._states[pred_name].phase is not MOPhase.DONE:
                    return False
        return True

    def _ready_mos(self) -> list[str]:
        """INIT MOs whose predecessors (and, for a dispense, its
        consumers' other inputs) are done.

        Only an MO finishing can make another ready, so the scan reruns
        after a completion; MOs activated since drop out at the next epoch.
        The list is shared: do not change it.
        """
        if self._ready_at != self._done:
            self._ready_at = self._done
            self._ready = []
            for name in self._order:
                state = self._states[name]
                if state.phase is not MOPhase.INIT or not self._preds_done(name):
                    continue
                mo = self.graph.mo(name)
                if mo.type is MOType.DIS and not self._dispense_ready(name):
                    continue
                self._ready.append(name)
            self._checked_at = -1  # re-filter the new list below
        if self._checked_at != self._epoch:
            self._refresh_checks()
        return self._ready_init

    def _activation_key(self, name: str, health: np.ndarray):
        zones = [j.hazard for j in self._states[name].decomposed.jobs]
        if self.activation_order == "shortest-first":
            return min(z.area for z in zones)
        # healthiest-first: negate so higher mean health sorts first
        means = []
        for z in zones:
            sub = health[z.xa - 1 : z.xb, z.ya - 1 : z.yb]
            means.append(float(sub.mean()))
        return -min(means)

    def _activate_ready(self, health: np.ndarray) -> None:
        ready = self._ready_mos()
        if self.activation_order != "program":
            ready = sorted(ready,
                           key=lambda name: self._activation_key(name, health))
        for name in ready:
            if self._reconfig is not None:
                # Remap fires before the fencing check and before any
                # synthesis, so conflicts and routing jobs are evaluated
                # against the relocated placement.
                self._maybe_remap(name, self._states[name], health)
            if self._conflicts(name):
                continue
            self._activate(name, self._states[name], health)
            if self.failure:
                return

    #: MO types occupying interior module slots (remappable placements).
    _SLOT_TYPES = (MOType.MIX, MOType.DLT, MOType.SPT, MOType.MAG)

    def _maybe_remap(self, name: str, state: _MOState, health: np.ndarray) -> None:
        """Relocate a ready MO's module slots if its zone is quarantined.

        Runs at most once per quarantine-map version per MO.  A successful
        remap swaps in the re-decomposed MO (successors rebase onto the new
        outputs automatically via ``_fit_job``).  Library and store
        entries need no action: they are keyed by job geometry, so retired
        keys are simply never looked up.
        """
        qmap = self._qmap
        if qmap is None or not qmap.cells or state.remap_version == qmap.version:
            return
        state.remap_version = qmap.version
        mo = state.decomposed.mo
        if mo.type not in self._SLOT_TYPES:
            return
        if not self._reconfig.placement_tainted(state.decomposed):
            return
        new = self._reconfig.remap(
            mo, self._remap_centroid(mo), health, self._helper
        )
        if new is None:
            obs.journal_event(
                "reconfig.remap", cycle=self.cycle, mo=name, success=False,
                from_locs=[list(loc) for loc in mo.locs],
                version=qmap.version,
            )
            return
        state.decomposed = new
        self._epoch += 1
        self.remaps += 1
        perf.incr("scheduler.remaps")
        self.events.append(MOEvent(self.cycle, name, "remapped"))
        obs.journal_event(
            "reconfig.remap", cycle=self.cycle, mo=name, success=True,
            from_locs=[list(loc) for loc in mo.locs],
            to_locs=[list(loc) for loc in new.mo.locs],
            version=qmap.version,
        )

    def _remap_centroid(self, mo) -> tuple[float, float]:
        """Where the MO's inputs actually are (parked droplets when known,
        decomposed predecessor outputs otherwise)."""
        coords = []
        for idx, pred in enumerate(mo.pre):
            slot = mo.pre_output[idx] if mo.pre_output else 0
            did = self._parked.get((pred, slot))
            if did is not None and did in self.droplets:
                coords.append(self.droplets[did].center)
                continue
            outputs = self._states[pred].decomposed.output_patterns
            if slot < len(outputs):
                coords.append(outputs[slot].center)
        if not coords:
            return mo.locs[0]
        return (
            sum(c[0] for c in coords) / len(coords),
            sum(c[1] for c in coords) / len(coords),
        )

    def _activate(self, name: str, state: _MOState, health: np.ndarray) -> None:
        mo = self.graph.mo(name)
        state.activated_cycle = self.cycle
        state.span = obs.begin_span(
            f"mo:{name}", mo=name, type=mo.type.name.lower(),
            start_cycle=self.cycle,
        )
        self._event("activated", name, type=mo.type.name.lower())
        dec = state.decomposed
        if mo.type is MOType.DIS:
            self._enter(name, state, MOPhase.OPERATING)
            state.stage = "dispensing"
            state.dispense_remaining = self._dispense_latency(dec.jobs[0].goal)
            return
        if mo.type in (MOType.OUT, MOType.DSC, MOType.MAG):
            did = self._consume(name, name, 0)
            job = self._with_obstacles(
                self._fit_job(dec.jobs[0], self.droplets[did]), name
            )
            state.tasks = [self._new_task(did, job, state)]
            state.stage = "route_in"
            self._enter(name, state, MOPhase.ROUTING)
            return
        if mo.type in (MOType.MIX, MOType.DLT):
            did0 = self._consume(name, name, 0)
            did1 = self._consume(name, name, 1)
            state.tasks = [
                self._new_task(did0, self._with_obstacles(
                    self._fit_job(dec.jobs[0], self.droplets[did0]), name),
                    state),
                self._new_task(did1, self._with_obstacles(
                    self._fit_job(dec.jobs[1], self.droplets[did1]), name),
                    state),
            ]
            state.stage = "route_in"
            self._enter(name, state, MOPhase.ROUTING)
            return
        if mo.type is MOType.SPT:
            did = self._consume(name, name, 0)
            state.tasks = [RoutingTask(did, self._hold_job(self.droplets[did]),
                                       created_cycle=self.cycle)]
            state.tasks[0].arrived = True
            state.stage = "splitting"
            self._enter(name, state, MOPhase.OPERATING)
            state.hold_remaining = max(mo.hold_cycles, 1)
            return
        raise AssertionError(f"unhandled MO type {mo.type}")

    def _dispense_latency(self, goal: Rect) -> int:
        """Cycles for a dispensed droplet to travel in from the nearest edge."""
        edge_distance = min(
            goal.xa - 1, goal.ya - 1, self.width - goal.xb, self.height - goal.yb
        )
        return max(2, edge_distance + 2)

    def _fit_job(self, job: RoutingJob, rect: Rect) -> RoutingJob:
        """Rebase a decomposed job onto the droplet's actual pattern."""
        if job.start == rect:
            return job
        if job.hazard.contains(rect):
            return RoutingJob(rect, job.goal, job.hazard, job.obstacles)
        return RoutingJob(
            rect, job.goal, zone(rect, job.goal, self.width, self.height),
            job.obstacles,
        )

    def _with_obstacles(self, job: RoutingJob, owner: str) -> RoutingJob:
        """Attach the keep-out set: foreign droplets near the hazard zone,
        plus (when reconfiguration is active) quarantined silicon.

        A quarantine keep-out can swallow most of a tight hazard zone and
        leave no in-zone corridor around it, so whenever one attaches, the
        zone is widened to clear the keep-out by a full droplet span plus
        clearance on every side (clamped to the chip) — the detour the
        obstacle forces must lie inside the modelled region.
        """
        hazard = job.hazard
        qmap = self._qmap
        extra: list[Rect] = []
        if qmap is not None and qmap.cells:
            # Quarantine rectangles become keep-outs, except ones touching
            # the job's endpoints — those would make the job unroutable,
            # and the endpoints' viability is the remapper's concern.
            extra = [
                qr for qr in qmap.rects()
                if qr.overlaps(hazard)
                and not qr.adjacent_or_overlapping(job.goal)
                and (is_off_chip(job.start)
                     or not qr.adjacent_or_overlapping(job.start))
            ]
            if extra:
                span = max(job.goal.width, job.goal.height) + 2
                for qr in extra:
                    grown = qr.expanded(span)
                    hazard = Rect(
                        max(1, min(hazard.xa, grown.xa)),
                        max(1, min(hazard.ya, grown.ya)),
                        min(self.width, max(hazard.xb, grown.xb)),
                        min(self.height, max(hazard.yb, grown.yb)),
                    )
        obstacles = sorted(
            rect
            for did, rect in self.droplets.items()
            if self._owner.get(did) != owner
            and rect.expanded(2).overlaps(hazard)
        )
        if extra:
            obstacles = sorted(obstacles + extra)
        if hazard == job.hazard:
            return job.with_obstacles(tuple(obstacles))
        return RoutingJob(job.start, job.goal, hazard, tuple(obstacles))

    def _hold_job(self, rect: Rect) -> RoutingJob:
        """A degenerate stay-where-you-are job (used for operate phases)."""
        hz = zone(rect, rect, self.width, self.height)
        return RoutingJob(rect, rect, hz)

    # -- routing phase -------------------------------------------------------------

    #: Cycles to wait before retrying synthesis for an obstacle-stalled task.
    STALL_RETRY_CYCLES = 8

    def _plan_task(
        self, task: RoutingTask, health: np.ndarray, rect: Rect,
        mo: str | None = None,
    ) -> bool:
        """Plan or replan a task's strategy; returns False when stalled.

        A job that is unroutable only because of its obstacles (every path
        is blocked by a parked droplet) stalls with a retry backoff rather
        than failing; a job unroutable even without obstacles means the
        chip has degraded past use — the paper's ``(pi, k) = (0, inf)``
        outcome — and aborts the bioassay.
        """
        strategy = self.router.plan(task.job, health)
        if strategy is not None and strategy.action(rect) is None and not task.job.goal.contains(rect):
            # The cached/synthesized strategy does not cover the droplet's
            # current pattern (it drifted off the modelled region): replan
            # from here.
            retargeted = self._fit_job(task.job, rect)
            strategy = self.router.plan(retargeted, health)
            if strategy is not None:
                task.job = retargeted
                self._epoch += 1
        if strategy is None:
            if task.job.obstacles:
                unblocked = self._fit_job(
                    task.job.with_obstacles(()), rect
                )
                if self.router.plan(unblocked, health) is not None:
                    task.strategy = None
                    task.stalled_until = self.cycle + self.STALL_RETRY_CYCLES
                    perf.incr("scheduler.stalls")
                    obs.journal_event(
                        "droplet.stall", cycle=self.cycle, mo=mo,
                        droplet=task.droplet_id,
                        retry_at=task.stalled_until,
                        reason="obstacle-blocked",
                    )
                    return False
            self.failure = "no-route"
            return False
        task.strategy = strategy
        task.set_fingerprint(health, task.job.hazard)
        return True

    def _plan_routing(
        self,
        name: str,
        state: _MOState,
        health: np.ndarray,
        targets: dict[int, Rect],
        moves: dict[int, str],
    ) -> None:
        with obs.under(state.span):
            for task in state.tasks:
                if task.droplet_id not in self.droplets:
                    continue
                rect = self.droplets[task.droplet_id]
                if task.arrived or task.job.goal.contains(rect):
                    if not task.arrived:
                        self._task_arrived(task)
                    targets[task.droplet_id] = rect
                    continue
                if task.strategy is None and self.cycle < task.stalled_until:
                    targets[task.droplet_id] = rect  # hold; retry later
                    continue
                if rect == task.last_rect:
                    task.stagnant += 1
                else:
                    task.last_rect = rect
                    task.stagnant = 0
                recover = getattr(self.router, "recover", None)
                if (
                    recover is not None
                    and task.stagnant >= self.stall_recovery_threshold
                ):
                    task.stagnant = 0
                    retargeted = self._with_obstacles(
                        self._fit_job(task.job, rect), name
                    )
                    recovered = recover(retargeted, health)
                    if recovered is not None and recovered.action(rect) is not None:
                        task.job = recovered.job  # the recovery may widen the zone
                        self._epoch += 1
                        task.strategy = recovered
                        task.set_fingerprint(health, retargeted.hazard)
                        self.recoveries += 1
                        perf.incr("scheduler.recoveries")
                        self._event("recovered", name,
                                    droplet=task.droplet_id)
                if self.router.adaptive and task.strategy is not None:
                    if task.replan_at is None and task.health_moved(health):
                        task.replan_at = self.cycle + self.resynthesis_latency
                    if task.replan_at is not None and self.cycle >= task.replan_at:
                        task.replan_at = None
                        self.resyntheses += 1
                        perf.incr("scheduler.resyntheses")
                        fp_before = task.fingerprint
                        replanned = self._plan_task(task, health, rect, mo=name)
                        obs.journal_event(
                            "resynthesis", cycle=self.cycle, mo=name,
                            droplet=task.droplet_id,
                            fp_before=fingerprint_digest(fp_before),
                            fp_after=fingerprint_digest(task.fingerprint),
                            latency_cycles=self.resynthesis_latency,
                            success=replanned,
                        )
                        if not replanned:
                            targets[task.droplet_id] = rect
                            if self.failure:
                                return
                            continue
                if task.strategy is None:
                    if not self._plan_task(task, health, rect, mo=name):
                        targets[task.droplet_id] = rect
                        if self.failure:
                            return
                        continue
                assert task.strategy is not None
                action_name = task.strategy.action(rect)
                if action_name is None:
                    if not self._plan_task(task, health, rect, mo=name):
                        targets[task.droplet_id] = rect
                        if self.failure:
                            return
                        continue
                    assert task.strategy is not None
                    action_name = task.strategy.action(rect)
                    if action_name is None:
                        self.failure = "no-route"
                        return
                moves[task.droplet_id] = action_name
                targets[task.droplet_id] = apply_action(rect, ACTIONS[action_name])
                if obs.enabled():
                    with obs.span("route.step", parent=task.span,
                                  droplet=task.droplet_id,
                                  action=action_name, cycle=self.cycle):
                        pass
        self._maybe_advance_routing(name, state)

    def _maybe_advance_routing(self, name: str, state: _MOState) -> None:
        alive = [t for t in state.tasks if t.droplet_id in self.droplets]
        if not alive or not all(t.arrived for t in alive):
            return
        mo = self.graph.mo(name)
        if mo.type in (MOType.OUT, MOType.DSC):
            for task in alive:
                volume, conc = self._chemistry.get(task.droplet_id, (0.0, 0.0))
                self.collected.append((name, volume, conc))
                self._remove_droplet(task.droplet_id)
            self._finish(name, state, outputs=())
            return
        if mo.type is MOType.MAG and state.stage == "route_in":
            state.stage = "holding"
            self._enter(name, state, MOPhase.OPERATING)
            state.hold_remaining = max(mo.hold_cycles, 1)
            return
        if mo.type in (MOType.MIX, MOType.DLT):
            if state.stage == "route_in":
                # Both inputs inside their (overlapping) goals but the merge
                # has not been detected yet — the adjacency check in
                # apply_outcomes will coalesce them next cycle.
                return
            if state.stage == "route_merged":
                state.stage = "holding"
                self._enter(name, state, MOPhase.OPERATING)
                state.hold_remaining = max(mo.hold_cycles, 1)
                return
            if state.stage == "route_out":
                outputs = tuple(t.droplet_id for t in alive)
                self._finish(name, state, outputs=outputs)
                return
        if mo.type is MOType.SPT and state.stage == "route_out":
            outputs = tuple(t.droplet_id for t in alive)
            self._finish(name, state, outputs=outputs)

    def _finish(self, name: str, state: _MOState, outputs: tuple[int, ...]) -> None:
        for slot, did in enumerate(outputs):
            self._park(name, slot, did)
        for task in state.tasks:
            if task.span is not None:
                obs.end_span(task.span, end_cycle=self.cycle)
                task.span = None
        state.tasks = []
        self._enter(name, state, MOPhase.DONE)
        state.done_cycle = self.cycle
        self._done += 1
        self._event("done", name,
                    cycles=self.cycle - state.activated_cycle)
        if state.span is not None:
            obs.end_span(state.span, end_cycle=self.cycle)
            state.span = None

    # -- operate phase ---------------------------------------------------------------

    def _plan_operating(
        self, name: str, state: _MOState, targets: dict[int, Rect]
    ) -> None:
        mo = self.graph.mo(name)
        if mo.type is MOType.DIS:
            state.dispense_remaining -= 1
            if state.dispense_remaining <= 0:
                self._materialize_dispense(name, state)
            return
        for task in state.tasks:
            if task.droplet_id in self.droplets:
                targets[task.droplet_id] = self.droplets[task.droplet_id]
        state.hold_remaining -= 1
        if state.hold_remaining > 0:
            return
        if mo.type is MOType.MAG:
            task = state.tasks[0]
            self._finish(name, state, outputs=(task.droplet_id,))
            return
        if mo.type is MOType.MIX:
            task = state.tasks[0]
            self._finish(name, state, outputs=(task.droplet_id,))
            return
        if mo.type is MOType.SPT:
            self._perform_split(name, state, job_indices=(0, 1))
            return
        if mo.type is MOType.DLT:
            self._perform_split(name, state, job_indices=(2, 3))
            return
        raise AssertionError(f"unhandled operating MO type {mo.type}")

    def _materialize_dispense(self, name: str, state: _MOState) -> None:
        goal = state.decomposed.jobs[0].goal
        fence = goal.expanded(1)
        for did, rect in self.droplets.items():
            if fence.overlaps(rect):
                return  # port blocked; retry next cycle
        did = self._new_droplet(
            goal, name, concentration=self.graph.mo(name).concentration
        )
        self._finish(name, state, outputs=(did,))

    def _perform_split(
        self, name: str, state: _MOState, job_indices: tuple[int, int]
    ) -> None:
        parent = state.tasks[0].droplet_id
        volume, concentration = self._chemistry.get(parent, (0.0, 0.0))
        self._remove_droplet(parent)
        dec = state.decomposed
        tasks = []
        for job_index in job_indices:
            job = dec.jobs[job_index]
            did = self._new_droplet(job.start, name, volume=volume / 2,
                                    concentration=concentration)
            tasks.append(self._new_task(
                did, self._with_obstacles(job, name), state
            ))
        state.tasks = tasks
        state.stage = "route_out"
        self._enter(name, state, MOPhase.ROUTING)
        self._event("split", name, droplets=[t.droplet_id for t in tasks])

    # -- merge resolution ------------------------------------------------------------

    def _resolve_intended_merges(self) -> None:
        for name in tuple(self._active):
            state = self._states[name]
            if state.phase is not MOPhase.ROUTING or state.stage != "route_in":
                continue
            mo = self.graph.mo(name)
            if mo.type not in (MOType.MIX, MOType.DLT):
                continue
            alive = [t for t in state.tasks if t.droplet_id in self.droplets]
            if len(alive) != 2:
                continue
            r0 = self.droplets[alive[0].droplet_id]
            r1 = self.droplets[alive[1].droplet_id]
            if not r0.adjacent_or_overlapping(r1):
                continue
            self._merge_inputs(name, state, alive, r0, r1)

    def _merge_inputs(
        self,
        name: str,
        state: _MOState,
        tasks: list[RoutingTask],
        r0: Rect,
        r1: Rect,
    ) -> None:
        mo = self.graph.mo(name)
        dec = state.decomposed
        shape = fit_droplet_shape(r0.area + r1.area)
        bbox = r0.union_bbox(r1)
        cx, cy = bbox.center
        merged = self._place_on_chip(cx, cy, shape)
        v0, c0 = self._chemistry.get(tasks[0].droplet_id, (float(r0.area), 0.0))
        v1, c1 = self._chemistry.get(tasks[1].droplet_id, (float(r1.area), 0.0))
        volume = v0 + v1
        concentration = (v0 * c0 + v1 * c1) / volume if volume else 0.0
        for task in tasks:
            self._remove_droplet(task.droplet_id)
            if task.span is not None:
                obs.end_span(task.span, end_cycle=self.cycle)
                task.span = None
        did = self._new_droplet(merged, name, volume=volume,
                                concentration=concentration)
        self._event("merged", name, droplet=did)
        if mo.type is MOType.MIX:
            goal = dec.output_patterns[0]
        else:
            assert dec.merged_pattern is not None
            goal = dec.merged_pattern
        job = self._with_obstacles(
            RoutingJob(merged, goal, zone(merged, goal, self.width, self.height)),
            name,
        )
        state.tasks = [self._new_task(did, job, state)]
        state.stage = "route_merged"

    def _place_on_chip(self, cx: float, cy: float, shape: tuple[int, int]) -> Rect:
        rect = rect_from_center(cx, cy, shape[0], shape[1])
        dx = max(0, 1 - rect.xa) - max(0, rect.xb - self.width)
        dy = max(0, 1 - rect.ya) - max(0, rect.yb - self.height)
        return rect.translated(dx, dy)

    def _check_unintended_merges(self) -> None:
        if self.failure:
            return
        alive = list(self.droplets.items())
        for i, (did0, r0) in enumerate(alive):
            for did1, r1 in alive[i + 1 :]:
                if self._owner.get(did0) == self._owner.get(did1):
                    continue  # same-MO pairs are managed by the MO itself
                if r0.adjacent_or_overlapping(r1):
                    self.failure = "unintended-merge"
                    obs.journal_event(
                        "failure", cycle=self.cycle,
                        reason="unintended-merge", droplets=[did0, did1],
                    )
                    return

    # -- statistics ---------------------------------------------------------------

    def mo_phase(self, name: str) -> MOPhase:
        return self._states[name].phase

    def mo_cycles(self, name: str) -> tuple[int, int]:
        """(activated, done) cycle numbers of an MO (-1 if not reached)."""
        state = self._states[name]
        return state.activated_cycle, state.done_cycle
