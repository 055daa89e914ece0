"""Placement remapping policy: relocate module slots off dying silicon.

The policy owns a :class:`Planner` over the same slot grid the original
placement used, tracks the current :class:`QuarantineMap`, and — when the
scheduler asks — relocates an MO's module slot(s) to the cheapest spare
slot whose zone is clean, using the planner's usage/distance slot costs
augmented with a health-weighted term.  Relocation is validated by
trial-decomposing the MO at the candidate placement and checking that
every placement-derived pattern (goals, outputs, merged pattern) avoids
the quarantined region.
"""

from __future__ import annotations

import numpy as np

from repro import obs, perf
from repro.bioassay.ops import MO, MO_LOCATIONS
from repro.bioassay.planner import Planner, PlannerConfig
from repro.core.routing_job import DecomposedMO, RJHelper
from repro.geometry.rect import Rect
from repro.reconfig.quarantine import (
    GUARD_BAND,
    MIN_HEALTH,
    QuarantineMap,
    quarantine_mask,
)

#: Cost per unit of lost mean health when ranking relocation candidates.
HEALTH_WEIGHT = 4.0

#: Half-extent of the footprint checked around a slot center (covers the
#: largest module droplet patterns, 6x6, plus the merge margin).
SLOT_MARGIN = 3


class ReconfigPolicy:
    """Quarantine tracking plus module-slot remapping for one execution."""

    def __init__(
        self,
        width: int,
        height: int,
        min_health: int = MIN_HEALTH,
        guard: int = GUARD_BAND,
        health_weight: float = HEALTH_WEIGHT,
        wear: np.ndarray | None = None,
    ) -> None:
        self.width = width
        self.height = height
        self.min_health = min_health
        self.guard = guard
        self.health_weight = health_weight
        self.planner = Planner(PlannerConfig(width=width, height=height),
                               wear=wear)
        self.map: QuarantineMap | None = None
        self._health: np.ndarray | None = None
        self._version = 0
        self.remaps = 0
        self.remap_failures = 0

    def seed_placement(self, mos) -> None:
        """Mark the original placement's module slots as used.

        The policy's planner starts with zero usage counts; without this,
        remapping would happily relocate an MO onto a slot another MO
        already occupies.  Any MO location that coincides with a slot
        center bumps that slot's usage.
        """
        for mo in mos:
            for loc in mo.locs:
                for idx in range(self.planner.n_slots):
                    if self.planner.slot(idx) == loc:
                        self.planner.note_usage(idx)
                        break

    # -- quarantine tracking -------------------------------------------------

    def update(self, health: np.ndarray, cycle: int | None = None) -> QuarantineMap:
        """Recompute the quarantine map; journal + count on change.

        A read-only ``health`` keeps its values under one identity (the
        chip copies its health on change), so the map last computed from
        the same object is returned without re-dilating the grid.
        """
        if health is self._health:
            return self.map
        mask = quarantine_mask(health, self.min_health, self.guard)
        self._health = None if health.flags.writeable else health
        if self.map is not None and np.array_equal(mask, self.map.mask):
            return self.map
        if self.map is None and not mask.any():
            # Healthy chip, nothing quarantined: version 0, no event — a
            # reconfig-enabled run on clean silicon stays telemetry-silent.
            self.map = QuarantineMap(mask, 0, self.min_health, self.guard)
            return self.map
        self._version += 1
        self.map = QuarantineMap(mask, self._version, self.min_health, self.guard)
        perf.incr("reconfig.map_changes")
        perf.set_gauge("reconfig.quarantined_cells", self.map.cells)
        obs.journal_event(
            "reconfig.quarantine", cycle=cycle,
            version=self._version, cells=self.map.cells,
            rects=[r.as_tuple() for r in self.map.rects()[:8]],
        )
        return self.map

    # -- placement checks ----------------------------------------------------

    def placement_tainted(self, dec: DecomposedMO) -> bool:
        """Does any placement-derived pattern of ``dec`` touch quarantine?

        Checks job goals, output patterns and the merged pattern — the
        rectangles determined by the MO's own module slot(s).  Job *starts*
        are predecessor territory: the scheduler rebases them onto actual
        droplet positions at activation, so a remap cannot (and need not)
        move them.
        """
        qmap = self.map
        if qmap is None or not qmap.cells:
            return False
        rects = [job.goal for job in dec.jobs]
        rects.extend(dec.output_patterns)
        if dec.merged_pattern is not None:
            rects.append(dec.merged_pattern)
        return any(qmap.overlaps(r) for r in rects)

    def _slot_tainted(self, slot: tuple[float, float], qmap: QuarantineMap) -> bool:
        x, y = int(slot[0]), int(slot[1])
        return qmap.overlaps(Rect(x - SLOT_MARGIN + 1, y - SLOT_MARGIN + 1,
                                  x + SLOT_MARGIN, y + SLOT_MARGIN))

    def _slot_health(self, health: np.ndarray, slot: tuple[float, float]) -> float:
        x0 = max(0, int(slot[0]) - SLOT_MARGIN)
        x1 = min(self.width, int(slot[0]) + SLOT_MARGIN)
        y0 = max(0, int(slot[1]) - SLOT_MARGIN)
        y1 = min(self.height, int(slot[1]) + SLOT_MARGIN)
        return float(health[x0:x1, y0:y1].mean())

    # -- remapping -----------------------------------------------------------

    def remap(
        self,
        mo: MO,
        centroid: tuple[float, float],
        health: np.ndarray,
        helper: RJHelper,
    ) -> DecomposedMO | None:
        """Relocate ``mo``'s module slot(s) onto clean silicon.

        Candidates are ranked by the planner's usage-balanced distance cost
        plus a health-weighted penalty; the first candidate whose trial
        decomposition is quarantine-free wins and is committed into
        ``helper`` (so successor MOs rebase onto the new outputs).  Returns
        ``None`` when no spare slot works.
        """
        qmap = self.map
        if qmap is None or not qmap.cells:
            return None
        health = np.asarray(health)
        top = float(health.max())

        def slot_cost(idx: int, slot: tuple[float, float]) -> float:
            return self.health_weight * (top - self._slot_health(health, slot))

        n_locs = MO_LOCATIONS[mo.type]
        for idx in self.planner.slot_order(centroid, slot_cost=slot_cost):
            primary = self.planner.slot(idx)
            if self._slot_tainted(primary, qmap):
                continue
            locs = (primary,)
            second_idx: int | None = None
            if n_locs == 2:
                second_idx = next(
                    (j for j in self.planner.slot_order(
                        primary, exclude=idx, slot_cost=slot_cost)
                     if not self._slot_tainted(self.planner.slot(j), qmap)),
                    None,
                )
                if second_idx is None:
                    continue
                locs = (primary, self.planner.slot(second_idx))
            candidate = helper.redecompose(mo.with_locs(locs), commit=False)
            if candidate is None or self.placement_tainted(candidate):
                continue
            committed = helper.redecompose(mo.with_locs(locs), commit=True)
            assert committed is not None
            self.planner.note_usage(idx)
            if second_idx is not None:
                self.planner.note_usage(second_idx)
            self.remaps += 1
            perf.incr("reconfig.remaps")
            return committed
        self.remap_failures += 1
        perf.incr("reconfig.remap_failures")
        return None
