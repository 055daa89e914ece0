"""Tests for sensing wear and the selective-sensing policy (ref. [32])."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bioassay.library import EVALUATION_BIOASSAYS
from repro.bioassay.ops import MO, MOType
from repro.bioassay.planner import plan
from repro.bioassay.seqgraph import SequencingGraph
from repro.biochip.chip import MedaChip
from repro.biochip.simulator import MedaSimulator
from repro.core.baseline import AdaptiveRouter
from repro.core.scheduler import HybridScheduler, MOPhase
from repro.geometry.rect import Rect

W, H = 40, 24


def graph() -> SequencingGraph:
    return SequencingGraph("g", [
        MO("d", MOType.DIS, size=(4, 4), locs=((8.5, 8.5),)),
        MO("o", MOType.OUT, pre=("d",), locs=((37.5, 8.5),)),
    ])


def chip(seed: int = 0) -> MedaChip:
    return MedaChip.sample(W, H, np.random.default_rng(seed),
                           tau_range=(0.9, 0.99), c_range=(2000, 4000))


class TestChipSensing:
    def test_full_scan_stresses_everything(self):
        c = chip()
        c.apply_sensing(weight=0.1)
        assert np.allclose(c.actuations, 0.1)

    def test_masked_scan_stresses_subset(self):
        c = chip()
        mask = np.zeros((W, H), dtype=bool)
        mask[3, 4] = True
        c.apply_sensing(mask, weight=0.2)
        assert c.actuations[3, 4] == pytest.approx(0.2)
        assert c.actuations.sum() == pytest.approx(0.2)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            chip().apply_sensing(weight=-0.1)

    def test_wrong_mask_shape_rejected(self):
        with pytest.raises(ValueError):
            chip().apply_sensing(np.zeros((3, 3), dtype=bool))

    def test_sensing_stress_degrades(self):
        c = MedaChip(tau=np.full((4, 4), 0.5), c=np.full((4, 4), 2.0))
        for _ in range(100):
            c.apply_sensing(weight=0.5)
        assert (c.degradation() < 1.0).all()


class TestSimulatorPolicies:
    def _run(self, policy: str | None, seed: int = 1) -> MedaChip:
        c = chip(seed)
        scheduler = HybridScheduler(graph(), AdaptiveRouter(), W, H)
        sim = MedaSimulator(c, np.random.default_rng(seed + 1),
                            sensing_policy=policy, sensing_weight=0.1)
        result = sim.run(scheduler, 400)
        assert result.success
        return c

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            MedaSimulator(chip(), np.random.default_rng(0),
                          sensing_policy="sometimes")

    def test_full_scan_wears_idle_corners(self):
        c = self._run("full")
        # the far corner sees sensing stress despite never hosting a droplet
        assert c.actuations[0, H - 1] > 0

    def test_selective_scan_spares_idle_corners(self):
        c = self._run("selective")
        assert c.actuations[0, H - 1] == 0.0

    def test_selective_total_stress_below_full(self):
        full = self._run("full", seed=5)
        selective = self._run("selective", seed=5)
        assert selective.actuations.sum() < full.actuations.sum()

    def test_no_policy_means_no_sensing_stress(self):
        c = self._run(None, seed=7)
        # all stress integral (pure actuations)
        assert np.allclose(c.actuations, np.round(c.actuations))


def _fresh_mask(scheduler: HybridScheduler) -> np.ndarray:
    """The selective mask built from scratch (zones, then droplet halos)."""
    mask = np.zeros((scheduler.width, scheduler.height), dtype=bool)
    for state in scheduler._states.values():
        if state.phase in (MOPhase.ROUTING, MOPhase.OPERATING):
            for task in state.tasks:
                hz = task.job.hazard
                mask[hz.xa - 1 : hz.xb, hz.ya - 1 : hz.yb] = True
    for rect in scheduler.droplets.values():
        xa, ya = max(rect.xa - 1, 1), max(rect.ya - 1, 1)
        xb = min(rect.xb + 1, scheduler.width)
        yb = min(rect.yb + 1, scheduler.height)
        mask[xa - 1 : xb, ya - 1 : yb] = True
    return mask


class _CheckedScheduler(HybridScheduler):
    """Records each cycle's mask next to a from-scratch build."""

    def sensing_mask(self) -> np.ndarray:
        mask = super().sensing_mask()
        self.checked.append((mask, _fresh_mask(self)))
        return mask


class TestSensingMaskCache:
    def test_unchanged_cycle_returns_same_read_only_mask(self):
        scheduler = HybridScheduler(graph(), AdaptiveRouter(), W, H)
        scheduler.droplets[0] = Rect(5, 5, 8, 8)
        first = scheduler.sensing_mask()
        assert scheduler.sensing_mask() is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = True

    def test_moved_droplet_rebuilds_the_mask(self):
        scheduler = HybridScheduler(graph(), AdaptiveRouter(), W, H)
        scheduler.droplets[0] = Rect(5, 5, 8, 8)
        first = scheduler.sensing_mask()
        scheduler.droplets[0] = Rect(6, 5, 9, 8)
        moved = scheduler.sensing_mask()
        assert moved is not first
        assert np.array_equal(moved, _fresh_mask(scheduler))
        assert not np.array_equal(moved, first)

    def test_matches_fresh_build_over_a_selective_run(self):
        graph_ = plan(EVALUATION_BIOASSAYS["covid-rat"](), W, H)
        scheduler = _CheckedScheduler(graph_, AdaptiveRouter(), W, H)
        scheduler.checked = []
        sim = MedaSimulator(chip(3), np.random.default_rng(4),
                            sensing_policy="selective")
        assert sim.run(scheduler, max_cycles=600).success
        masks = scheduler.checked
        assert len(masks) > 10
        for mask, fresh in masks:
            assert np.array_equal(mask, fresh)
        reused = sum(a is b for (a, _), (b, _) in zip(masks, masks[1:]))
        assert 0 < reused < len(masks) - 1
