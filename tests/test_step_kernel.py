"""Differential test: the simulator's step kernel against the reference step.

The kernel actuates the chip straight from the droplet patterns
(:meth:`MedaChip.actuate`) and draws outcomes from per-shape outcome
tables (:func:`repro.core.transitions.sample_outcome`).  The reference in
``tests/oracles.py`` is the step as it ran before: an actuation matrix,
``Outcome`` lists rebuilt per move and ``Generator.choice`` draws.  After
every step both must agree bit for bit on ``D``/``F``/``H`` (also against
a from-scratch evaluation), on health object identity,
``total_actuations``, the sampled outcomes and the RNG state.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.biochip.chip import MedaChip
from repro.core.actions import ALL_ACTIONS
from repro.core.droplet import OFF_CHIP, actuation_matrix
from repro.core.transitions import outcome_distribution, sample_outcome
from repro.degradation.faults import FaultInjector
from repro.degradation.model import quantize_health
from repro.geometry.rect import Rect
from tests.oracles import (
    outcome_distribution_reference,
    sample_outcome_reference,
    step_reference,
)


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _random_rect(rng: np.random.Generator, width: int, height: int) -> Rect:
    w = int(rng.integers(1, min(4, width) + 1))
    h = int(rng.integers(1, min(4, height) + 1))
    xa = int(rng.integers(1, width - w + 2))
    ya = int(rng.integers(1, height - h + 2))
    return Rect(xa, ya, xa + w - 1, ya + h - 1)


def _twin_chips(rng, width, height, bits, fault_fraction, aged, prewear):
    plan = FaultInjector(fraction=fault_fraction, fail_range=(0, 12)).inject(
        width, height, rng
    )
    c_range = (0.5, 8.0) if aged else (200.0, 500.0)
    tau = rng.uniform(0.2, 1.0, size=(width, height))
    c = rng.uniform(*c_range, size=(width, height))
    chips = [MedaChip(tau, c, fault_plan=plan, bits=bits) for _ in range(2)]
    if prewear:
        wear = rng.integers(0, 20, size=(width, height)).astype(float)
        for chip in chips:
            chip.actuations = wear
    return chips


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    width=st.integers(1, 10),
    height=st.integers(1, 8),
    bits=st.integers(1, 3),
    fault_fraction=st.sampled_from([0.0, 0.3]),
    aged=st.booleans(),
    prewear=st.booleans(),
    sensing=st.sampled_from([None, "full", "selective"]),
    steps=st.integers(1, 15),
)
def test_kernel_step_matches_reference(
    seed, width, height, bits, fault_fraction, aged, prewear, sensing, steps,
):
    rng = np.random.default_rng(seed)
    chip, ref = _twin_chips(rng, width, height, bits, fault_fraction, aged,
                            prewear)
    ours, theirs = (np.random.default_rng(seed + 1),
                    np.random.default_rng(seed + 1))
    counts = chip.actuations
    for _ in range(steps):
        targets = [_random_rect(rng, width, height)
                   for _ in range(int(rng.integers(1, 4)))]
        if rng.random() < 0.3:
            targets.insert(int(rng.integers(0, len(targets) + 1)), OFF_CHIP)
        moves = [(delta, ALL_ACTIONS[int(rng.integers(len(ALL_ACTIONS)))])
                 for delta in targets if delta != OFF_CHIP]
        mask = rng.random((width, height)) < 0.4
        last, ref_last = chip.health(), ref.health()

        chip.actuate(iter(targets))
        if sensing == "full":
            chip.apply_sensing(weight=0.1)
        elif sensing == "selective":
            chip.apply_sensing(mask, weight=0.1)
        field = chip.force_field()
        got = [sample_outcome(delta, action, field, ours)
               for delta, action in moves]
        want = step_reference(ref, targets, sensing, mask, moves, theirs)

        assert got == want
        assert ours.bit_generator.state == theirs.bit_generator.state
        counts = counts + actuation_matrix(targets, width, height)
        if sensing == "full":
            counts = counts + 0.1
        elif sensing == "selective":
            counts = counts + 0.1 * mask
        d = chip.tau ** (counts / chip.c)
        d[counts >= chip.faults.fail_at] = 0.0
        assert _bits_equal(chip.actuations, counts)
        assert _bits_equal(ref.actuations, counts)
        assert _bits_equal(chip.degradation(), d)
        assert _bits_equal(ref.degradation(), d)
        assert _bits_equal(chip.true_force(), d ** 2)
        assert _bits_equal(ref.true_force(), d ** 2)
        assert _bits_equal(chip.health(), quantize_health(d, bits))
        assert _bits_equal(ref.health(), quantize_health(d, bits))
        assert chip.total_actuations == ref.total_actuations
        # A new health object exactly when some level moved.
        moved = not np.array_equal(last, chip.health())
        assert (chip.health() is not last) == moved
        assert (ref.health() is not ref_last) == moved


@pytest.mark.parametrize("aged", [False, True])
def test_every_action_everywhere_matches_reference(aged):
    # All 20 actions on every 1x1..3x3 pattern of a small chip, edge
    # patterns included, so frontiers leave the chip and dead cells prune
    # outcomes.
    rng = np.random.default_rng(7)
    (chip, _) = _twin_chips(rng, 6, 5, 2, 0.3, aged, prewear=aged)
    field = chip.force_field()
    ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
    pruned = 0
    for w in (1, 2, 3):
        for h in (1, 2, 3):
            for xa in range(1, 7 - w + 1):
                for ya in range(1, 6 - h + 1):
                    delta = Rect(xa, ya, xa + w - 1, ya + h - 1)
                    for action in ALL_ACTIONS:
                        want = outcome_distribution_reference(
                            delta, action, field)
                        assert outcome_distribution(delta, action, field) \
                            == want
                        pruned += len(want) < {
                            "cardinal": 2, "double": 3, "ordinal": 4,
                        }.get(action.klass.value, 2)
                        assert sample_outcome(delta, action, field, ours) \
                            == sample_outcome_reference(
                                delta, action, field, theirs)
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert pruned > 0


def test_overlapping_patterns_count_each_cell_once():
    rng = np.random.default_rng(1)
    chip, ref = _twin_chips(rng, 8, 6, 2, 0.0, True, False)
    targets = [Rect(2, 2, 4, 4), Rect(3, 3, 5, 5), Rect(5, 1, 5, 6),
               OFF_CHIP, Rect(1, 1, 8, 1)]
    chip.actuate(targets)
    ref.apply_actuation(actuation_matrix(targets, 8, 6))
    assert _bits_equal(chip.actuations, ref.actuations)
    assert chip.total_actuations == ref.total_actuations == int(
        actuation_matrix(targets, 8, 6).sum())
    assert _bits_equal(chip.health(), ref.health())


def test_off_chip_pattern_rejected_like_the_matrix():
    chip = MedaChip.sample(8, 8, np.random.default_rng(0))
    with pytest.raises(ValueError) as ours:
        chip.actuate([Rect(7, 7, 9, 9)])
    with pytest.raises(ValueError) as theirs:
        actuation_matrix([Rect(7, 7, 9, 9)], 8, 8)
    assert str(ours.value) == str(theirs.value)
    assert chip.total_actuations == 0
    chip.actuate([OFF_CHIP])
    assert chip.total_actuations == 0
