"""Tests for the reconfiguration layer (``repro.reconfig``): quarantine
maps, placement remapping, scheduler wiring, and engine invalidation."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.bioassay.library import master_mix
from repro.bioassay.ops import MOType
from repro.bioassay.planner import plan
from repro.biochip.chip import MedaChip
from repro.biochip.simulator import MedaSimulator
from repro.biochip.trace import ExecutionTrace
from repro.core.baseline import AdaptiveRouter
from repro.core.routing_job import RJHelper
from repro.core.scheduler import HybridScheduler
from repro.degradation.faults import (
    dead_cluster_plan,
    dead_column_plan,
    no_faults,
)
from repro.geometry.rect import Rect
from repro.reconfig import QuarantineMap, ReconfigPolicy, quarantine_mask
from repro.reconfig.quarantine import mask_rects

W, H = 60, 30


def _chip(fault_plan=None, prewear: float = 0.0) -> MedaChip:
    chip = MedaChip.sample(
        W, H, np.random.default_rng(0),
        tau_range=(0.95, 0.99), c_range=(5000.0, 9000.0),
        fault_plan=fault_plan,
    )
    if prewear:
        chip.actuations += prewear
    return chip


def _run(fault_plan=None, reconfig: bool = False, trace=None, seed: int = 7):
    graph = plan(master_mix(), W, H)
    policy = ReconfigPolicy(W, H) if reconfig else None
    scheduler = HybridScheduler(
        graph, AdaptiveRouter(), W, H, reconfig=policy
    )
    sim = MedaSimulator(_chip(fault_plan), np.random.default_rng(seed),
                        trace=trace)
    result = sim.run(scheduler, max_cycles=1200)
    return result, scheduler


def _digest(trace: ExecutionTrace) -> str:
    hasher = hashlib.sha256()
    for frame in trace.frames:
        hasher.update(
            repr((frame.cycle, frame.droplets, frame.moving)).encode()
        )
    return hasher.hexdigest()


class TestQuarantineMask:
    def test_healthy_chip_is_empty(self):
        health = np.full((10, 8), 3)
        assert not quarantine_mask(health).any()

    def test_dead_cell_is_quarantined_with_guard(self):
        health = np.full((10, 8), 3)
        health[5, 4] = 0
        mask = quarantine_mask(health, guard=1)
        # the dead cell plus its Chebyshev-1 ring
        assert mask[4:7, 3:6].all()
        assert mask.sum() == 9

    def test_guard_zero_marks_only_dead_cells(self):
        health = np.full((10, 8), 3)
        health[0, 0] = 0
        mask = quarantine_mask(health, guard=0)
        assert mask.sum() == 1 and mask[0, 0]

    def test_threshold_respected(self):
        health = np.full((6, 6), 1)
        assert not quarantine_mask(health, min_health=1).any()
        assert quarantine_mask(health, min_health=2).all()

    def test_guard_clipped_at_chip_edge(self):
        health = np.full((6, 6), 3)
        health[0, 0] = 0
        mask = quarantine_mask(health, guard=2)
        assert mask.shape == (6, 6)
        assert mask[:3, :3].all()


class TestMaskRects:
    def test_rects_cover_mask_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            mask = rng.random((12, 9)) < 0.3
            rebuilt = np.zeros_like(mask)
            for r in mask_rects(mask):
                assert not rebuilt[r.xa - 1:r.xb, r.ya - 1:r.yb].any(), \
                    "rectangles must be disjoint"
                rebuilt[r.xa - 1:r.xb, r.ya - 1:r.yb] = True
            assert np.array_equal(rebuilt, mask)

    def test_axis_aligned_block_is_one_rect(self):
        mask = np.zeros((20, 10), dtype=bool)
        mask[3:9, 2:8] = True
        assert mask_rects(mask) == (Rect(4, 3, 9, 8),)

    def test_empty_mask(self):
        assert mask_rects(np.zeros((5, 5), dtype=bool)) == ()


class TestQuarantineMap:
    def test_overlaps_clamps_out_of_range(self):
        mask = np.zeros((10, 10), dtype=bool)
        mask[0, 0] = True
        qmap = QuarantineMap(mask, 1)
        assert qmap.overlaps(Rect(-3, -3, 1, 1))
        assert not qmap.overlaps(Rect(50, 50, 60, 60))

    def test_cells_counts_mask(self):
        mask = np.zeros((10, 10), dtype=bool)
        mask[2:4, 2:4] = True
        assert QuarantineMap(mask, 1).cells == 4


class TestPolicyUpdate:
    def test_healthy_chip_stays_version_zero(self):
        policy = ReconfigPolicy(W, H)
        qmap = policy.update(np.full((W, H), 3))
        assert qmap.version == 0 and qmap.cells == 0

    def test_version_bumps_on_change_only(self):
        policy = ReconfigPolicy(W, H)
        health = np.full((W, H), 3)
        health[10, 10] = 0
        v1 = policy.update(health).version
        assert policy.update(health).version == v1  # unchanged -> cached
        health[30, 20] = 0
        assert policy.update(health).version == v1 + 1

    @pytest.fixture
    def mask_calls(self, monkeypatch):
        """Count the policy's full-grid quarantine-mask rebuilds."""
        import repro.reconfig.policy as policy_mod

        calls = []
        real = policy_mod.quarantine_mask

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(policy_mod, "quarantine_mask", counting)
        return calls

    def test_same_read_only_health_skips_rebuild(self, mask_calls):
        policy = ReconfigPolicy(W, H)
        health = np.full((W, H), 3)
        health[10, 10] = 0
        health.flags.writeable = False
        qmap = policy.update(health)
        assert policy.update(health) is qmap
        assert len(mask_calls) == 1
        # A writable array is never remembered: it may change in place.
        writable = health.copy()
        policy.update(writable)
        policy.update(writable)
        assert len(mask_calls) == 3

    def test_equal_new_health_takes_compare_path(self, mask_calls):
        from repro import obs, perf
        from repro.obs import RunJournal

        perf.reset()
        _, journal = obs.configure(journal=RunJournal())
        try:
            policy = ReconfigPolicy(W, H)
            health = np.full((W, H), 3)
            health[10, 10] = 0
            health.flags.writeable = False
            qmap = policy.update(health, cycle=1)
            equal = health.copy()
            equal.flags.writeable = False
            assert policy.update(equal, cycle=2) is qmap
            assert len(mask_calls) == 2
            assert qmap.version == 1
            changed = health.copy()
            changed[30, 20] = 0
            changed.flags.writeable = False
            assert policy.update(changed, cycle=3).version == 2
            assert policy.update(changed, cycle=4).version == 2
            events = [r for r in journal.records
                      if r["event"] == "reconfig.quarantine"]
        finally:
            obs.shutdown()
        assert [(r["cycle"], r["version"]) for r in events] == [(1, 1), (3, 2)]
        assert perf.get("reconfig.map_changes") == 2

    def test_placement_tainted_checks_goals_and_outputs(self):
        policy = ReconfigPolicy(W, H)
        health = np.full((W, H), 3)
        health[9:13, 18:22] = 0  # the first mixer slot of master-mix
        policy.update(health)
        helper = RJHelper(W, H)
        graph = plan(master_mix(), W, H)
        decomposed = {
            mo.name: helper.decompose(mo) for mo in graph.mos
        }
        mixers = [mo.name for mo in graph.mos if mo.type is MOType.MIX]
        tainted = [
            name for name, dec in decomposed.items()
            if policy.placement_tainted(dec)
        ]
        assert mixers[0] in tainted

    def test_remap_moves_off_quarantine(self):
        policy = ReconfigPolicy(W, H)
        health = np.full((W, H), 3)
        health[6:14, 15:23] = 0
        policy.update(health)
        helper = RJHelper(W, H)
        graph = plan(master_mix(), W, H)
        mixer = next(mo for mo in graph.mos if mo.type is MOType.MIX)
        for mo in graph.mos:
            helper.decompose(mo)
        new = policy.remap(mixer, mixer.locs[0], health, helper)
        assert new is not None
        assert new.mo.locs != mixer.locs
        assert not policy.placement_tainted(new)

    def test_remap_returns_none_when_everything_dead(self):
        policy = ReconfigPolicy(W, H)
        health = np.zeros((W, H), dtype=int)
        policy.update(health)
        helper = RJHelper(W, H)
        graph = plan(master_mix(), W, H)
        mixer = next(mo for mo in graph.mos if mo.type is MOType.MIX)
        for mo in graph.mos:
            helper.decompose(mo)
        assert policy.remap(mixer, mixer.locs[0], health, helper) is None
        assert policy.remap_failures == 1

    def test_seed_placement_marks_used_slots(self):
        policy = ReconfigPolicy(W, H)
        graph = plan(master_mix(), W, H)
        policy.seed_placement(graph.mos)
        used = sum(policy.planner._slot_usage)
        assert used == sum(
            len(mo.locs) for mo in graph.mos
            if mo.type in (MOType.MIX, MOType.DLT, MOType.SPT, MOType.MAG)
        )


class TestSchedulerRemap:
    def test_baseline_fails_on_dead_cluster(self):
        fp = dead_cluster_plan(W, H, [(10.5, 19.5)])
        result, scheduler = _run(fp, reconfig=False)
        assert not result.success
        assert scheduler.remaps == 0

    def test_remap_survives_dead_cluster(self):
        fp = dead_cluster_plan(W, H, [(10.5, 19.5)])
        result, scheduler = _run(fp, reconfig=True)
        assert result.success
        assert scheduler.remaps >= 1
        assert any(ev.kind == "remapped" for ev in scheduler.events)

    def test_remap_survives_dead_column(self):
        fp = dead_column_plan(W, H, column=8)
        baseline, _ = _run(fp, reconfig=False)
        assert not baseline.success
        result, scheduler = _run(fp, reconfig=True)
        assert result.success
        assert scheduler.remaps >= 1

    def test_healthy_chip_trace_identity(self):
        t0, t1 = ExecutionTrace(), ExecutionTrace()
        r0, s0 = _run(no_faults(W, H), reconfig=False, trace=t0)
        r1, s1 = _run(no_faults(W, H), reconfig=True, trace=t1)
        assert r0.success and r1.success
        assert s1.remaps == 0
        assert s0.events == s1.events
        assert _digest(t0) == _digest(t1)


class TestFaultScenarioBuilders:
    def test_dead_column_rejects_bad_args(self):
        with pytest.raises(ValueError):
            dead_column_plan(W, H, column=0)
        with pytest.raises(ValueError):
            dead_column_plan(W, H, column=W)  # stripe would overflow
        with pytest.raises(ValueError):
            dead_column_plan(W, H, column=5, y_span=(0, 5))

    def test_dead_column_leaves_corridors(self):
        fp = dead_column_plan(W, H, column=8)
        assert fp.faulty[:, :7].sum() == 0
        assert fp.faulty[:, -7:].sum() == 0
        assert fp.faulty.any()

    def test_dead_cluster_covers_center(self):
        fp = dead_cluster_plan(W, H, [(10.5, 19.5)], size=8)
        # the full 6x6 module pattern around the slot center plus margin
        assert fp.faulty[7:13, 16:22].all()
        assert (fp.fail_at[fp.faulty] == 0).all()
