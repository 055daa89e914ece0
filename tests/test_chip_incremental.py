"""Differential test: the incrementally maintained chip state against a
from-scratch evaluation of ``D = tau^(N/c)``, ``H`` and ``F = D²``.

Random sequences of actuations, masked and full sensing scans and
``actuations +=`` writes run over random fault plans and health bit
widths.  After every step ``health()``, ``true_force()`` and
``degradation()`` must equal the from-scratch values bit for bit, and
``health()`` must be read-only with an identity that changes exactly when
some quantized value changes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.biochip.chip import MedaChip
from repro.degradation.faults import FaultInjector, FaultPlan
from repro.degradation.model import quantize_health

OPS = ("actuate", "actuate", "actuate", "sense-mask", "sense-full", "assign",
       "reset")


def _reference(chip: MedaChip, counts: np.ndarray):
    d = chip.tau ** (counts / chip.c)
    d[counts >= chip.faults.fail_at] = 0.0
    return d, quantize_health(d, chip.bits), d ** 2


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _step(chip: MedaChip, counts: np.ndarray, op: str,
          rng: np.random.Generator) -> np.ndarray:
    """Apply ``op`` to the chip; return the reference counts after it."""
    shape = counts.shape
    if op == "actuate":
        u = (rng.random(shape) < rng.uniform(0.0, 0.4)).astype(np.uint8)
        u *= np.uint8(rng.integers(1, 4))
        chip.apply_actuation(u)
        return counts + u.astype(float)
    if op == "sense-mask":
        mask = rng.random(shape) < rng.uniform(0.0, 0.5)
        weight = float(rng.choice([0.0, 0.1, 0.25, 1.0]))
        chip.apply_sensing(mask, weight=weight)
        return counts + weight * mask.astype(float)
    if op == "sense-full":
        weight = float(rng.choice([0.0, 0.1, 2.0]))
        chip.apply_sensing(weight=weight)
        return counts + weight
    if op == "reset":
        # Lowers counts, so codes rise: every guard must be reset.
        lowered = counts * rng.uniform(0.0, 1.0, size=shape)
        chip.actuations = lowered
        return lowered
    prewear = rng.integers(0, 6, size=shape).astype(float)
    chip.actuations += prewear
    return counts + prewear


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    width=st.integers(1, 9),
    height=st.integers(1, 7),
    bits=st.integers(1, 4),
    fault_fraction=st.sampled_from([0.0, 0.2, 0.6]),
    ops=st.lists(st.sampled_from(OPS), min_size=1, max_size=25),
)
def test_incremental_state_matches_full_recompute(
    seed, width, height, bits, fault_fraction, ops
):
    rng = np.random.default_rng(seed)
    plan = FaultInjector(fraction=fault_fraction, fail_range=(0, 12)).inject(
        width, height, rng
    )
    chip = MedaChip.sample(width, height, rng, tau_range=(0.2, 1.0),
                           c_range=(0.5, 8.0), fault_plan=plan, bits=bits)
    counts = np.zeros((width, height))
    for op in ops:
        before = chip.health()
        before_values = before.copy()
        counts = _step(chip, counts, op, rng)
        d, h, f = _reference(chip, counts)

        assert _bits_equal(chip.actuations, counts)
        assert chip.total_actuations == int(round(counts.sum()))
        assert _bits_equal(chip.degradation(), d)
        assert _bits_equal(chip.true_force(), f)
        assert _bits_equal(chip.force_field().forces, f)
        health = chip.health()
        assert _bits_equal(health, h)
        assert not health.flags.writeable
        # Copy on change: the old object keeps its values, and identity
        # moves exactly when a quantized value does.
        assert _bits_equal(before, before_values)
        assert (health is before) == np.array_equal(before_values, h)


def _check_step(chip: MedaChip, counts: np.ndarray, before: np.ndarray,
                before_values: np.ndarray) -> None:
    """The chip's state after a step equals the from-scratch evaluation,
    and the health identity moved exactly when a code did."""
    d, h, f = _reference(chip, counts)
    assert _bits_equal(chip.degradation(), d)
    assert _bits_equal(chip.true_force(), f)
    health = chip.health()
    assert _bits_equal(health, h)
    assert (health is before) == np.array_equal(before_values, h)


def _walk(chip: MedaChip, steps: list) -> int:
    """Apply ``steps`` (callables taking the chip and returning the added
    stress) one by one, checking after each; the number of code changes."""
    counts = chip.actuations
    changes = 0
    for step in steps:
        before = chip.health()
        before_values = before.copy()
        counts = counts + step(chip)
        _check_step(chip, counts, before, before_values)
        changes += chip.health() is not before
    return changes


def _actuate_all(chip: MedaChip) -> np.ndarray:
    chip.apply_actuation(np.ones((chip.width, chip.height), dtype=np.uint8))
    return np.ones((chip.width, chip.height))


class TestGuardBoundaries:
    """Guard counts must never skip a crossing: each case walks a chip one
    actuation or scan at a time across the stress at which codes drop."""

    @pytest.mark.parametrize("bits", [1, 2, 3, 4])
    @pytest.mark.parametrize("c", [1.0, 2.0, 3.0])
    def test_counts_landing_exactly_on_a_crossing(self, bits, c):
        # tau = 1/2 makes D = 2^(-N/c) hit h / 2^b exactly at whole N for
        # codes that are powers of two: every step before, on and after
        # such a crossing count is checked.
        chip = MedaChip(np.full((3, 2), 0.5), np.full((3, 2), c), bits=bits)
        levels = 1 << bits
        exact = [c * k for k in range(1, bits + 1)]
        for n in exact:
            assert 0.5 ** (n / c) * levels == levels >> int(n / c)
        steps = int(c * (bits + 2))
        assert _walk(chip, [_actuate_all] * steps) > 0
        assert (chip.health() == 0).all()

    @pytest.mark.parametrize("bits", [1, 2, 3, 4])
    def test_each_count_around_every_crossing(self, bits):
        # Irregular constants: the crossing counts c ln(h/2^b) / ln tau
        # fall anywhere; walk one actuation at a time through all of them.
        rng = np.random.default_rng(bits)
        tau = rng.uniform(0.3, 0.95, size=(4, 3))
        c = rng.uniform(1.0, 6.0, size=(4, 3))
        chip = MedaChip(tau, c, bits=bits)
        crossings = c * np.log(0.5 / (1 << bits)) / np.log(tau)
        steps = int(np.ceil(crossings.max())) + 2
        assert _walk(chip, [_actuate_all] * steps) > 0

    def test_tau_one_with_finite_failure_count(self):
        fail_at = np.array([[0.0, 1.0, 3.0], [4.0, 7.5, np.inf]])
        plan = FaultPlan(faulty=np.isfinite(fail_at), fail_at=fail_at)
        chip = MedaChip(np.ones((2, 3)), np.full((2, 3), 5.0),
                        fault_plan=plan)
        assert (chip.health()[0, 0] == 0)
        changes = _walk(chip, [_actuate_all] * 9)
        assert changes == 4  # at counts 1, 3, 4 and 8
        assert chip.health()[1, 2] == 3
        assert (chip.health().ravel()[:5] == 0).all()

    @pytest.mark.parametrize("bits", [1, 3])
    def test_c_below_one(self, bits):
        chip = MedaChip(np.full((2, 2), 0.9), np.array([[0.05, 0.2],
                                                         [0.5, 0.9]]),
                        bits=bits)
        assert _walk(chip, [_actuate_all] * 12) > 0

    def test_fractional_sensing_stress(self):
        chip = MedaChip(np.full((3, 3), 0.5), np.full((3, 3), 1.0))
        mask = np.zeros((3, 3), dtype=bool)
        mask[:2, 1:] = True

        def sense(weight, masked):
            def step(chip):
                if masked:
                    chip.apply_sensing(mask, weight=weight)
                    return weight * mask
                chip.apply_sensing(weight=weight)
                return np.full((3, 3), weight)
            return step

        # D = 2^-N: crossings at N = 1 (exactly on), 2 and 3, reached in
        # tenths, quarters and one actuation in between.
        steps = ([sense(0.1, True)] * 12 + [sense(0.25, False)] * 5
                 + [_actuate_all] + [sense(0.1, False)] * 15)
        assert _walk(chip, steps) >= 3

    def test_assignment_resets_guards(self):
        chip = MedaChip(np.full((2, 2), 0.5), np.full((2, 2), 1.0), bits=2)
        _walk(chip, [_actuate_all] * 4)
        assert (chip.health() == 0).all()
        before = chip.health()
        # Lower counts: codes rise, then must drop again on schedule.
        chip.actuations = np.zeros((2, 2))
        assert chip.health() is not before
        assert (chip.health() == 3).all()
        assert _walk(chip, [_actuate_all] * 4) == 3


class TestContract:
    def test_health_is_read_only(self, rng):
        chip = MedaChip.sample(4, 3, rng)
        with pytest.raises(ValueError):
            chip.health()[0, 0] = 0

    def test_snapshots_are_fresh_copies(self, rng):
        chip = MedaChip.sample(4, 3, rng)
        for read in (chip.degradation, chip.true_force,
                     lambda: chip.actuations):
            snapshot = read()
            assert snapshot is not read()
            snapshot[...] = 0.5
        assert (chip.degradation() == 1.0).all()
        assert (chip.actuations == 0.0).all()

    def test_actuation_assignment_refreshes_every_cell(self, rng):
        chip = MedaChip.sample(5, 4, rng, tau_range=(0.5, 0.6),
                               c_range=(1.0, 2.0))
        before = chip.health()
        chip.actuations += 10.0
        assert chip.health() is not before
        assert (chip.health() < before).all()
        with pytest.raises(ValueError):
            chip.actuations = np.zeros((4, 5))

    def test_unchanged_health_keeps_identity(self, rng):
        chip = MedaChip.sample(6, 6, rng, tau_range=(0.99, 1.0),
                               c_range=(5000.0, 9000.0))
        before = chip.health()
        u = np.zeros((6, 6), dtype=np.uint8)
        u[1:3, 2:4] = 1
        chip.apply_actuation(u)
        chip.apply_sensing(weight=0.1)
        assert chip.health() is before

    def test_constants_are_read_only(self, rng):
        chip = MedaChip.sample(3, 3, rng)
        with pytest.raises(ValueError):
            chip.tau[0, 0] = 0.5
        with pytest.raises(ValueError):
            chip.c[0, 0] = 1.0
