"""Tests for the charge-trapping degradation model (Sec. IV-B)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.degradation.model import (
    PAPER_FITTED_CONSTANTS,
    DegradationParams,
    health_to_degradation_estimate,
    quantize_health,
    sample_params,
)


class TestDegradationParams:
    def test_fresh_cell_is_pristine(self):
        p = DegradationParams(tau=0.556, c=822.7)
        assert p.degradation(0) == pytest.approx(1.0)
        assert p.relative_force(0) == pytest.approx(1.0)

    def test_force_is_degradation_squared(self):
        p = DegradationParams(tau=0.543, c=805.5)
        for n in (0, 100, 500, 1500):
            assert p.relative_force(n) == pytest.approx(p.degradation(n) ** 2)

    def test_degradation_at_c_actuations_equals_tau(self):
        # D(c) = tau^(c/c) = tau, by eq. 3.
        p = DegradationParams(tau=0.7, c=300.0)
        assert p.degradation(300) == pytest.approx(0.7)

    def test_monotone_decreasing(self):
        p = DegradationParams(tau=0.5, c=200.0)
        d = p.degradation(np.arange(0, 2000, 50))
        assert np.all(np.diff(d) < 0)

    def test_invalid_tau_rejected(self):
        with pytest.raises(ValueError):
            DegradationParams(tau=0.0, c=100.0)
        with pytest.raises(ValueError):
            DegradationParams(tau=1.5, c=100.0)

    def test_invalid_c_rejected(self):
        with pytest.raises(ValueError):
            DegradationParams(tau=0.5, c=0.0)

    def test_inverse_actuations_to_degradation(self):
        p = DegradationParams(tau=0.6, c=400.0)
        n = p.actuations_to_degradation(0.75)
        assert p.degradation(n) == pytest.approx(0.75)

    def test_inverse_at_full_health_is_zero(self):
        p = DegradationParams(tau=0.6, c=400.0)
        assert p.actuations_to_degradation(1.0) == 0.0

    def test_non_degrading_cell_never_reaches_level(self):
        p = DegradationParams(tau=1.0, c=100.0)
        assert p.actuations_to_degradation(0.5) == float("inf")

    def test_paper_constants_decay_substantially_by_2000(self):
        # Fig. 6: all three fitted curves fall below 0.3 relative force
        # within two thousand actuations.
        for tau, c in PAPER_FITTED_CONSTANTS.values():
            p = DegradationParams(tau=tau, c=c)
            assert p.relative_force(2000) < 0.3

    def test_vectorized_matches_scalar(self):
        p = DegradationParams(tau=0.62, c=350.0)
        ns = np.array([0, 10, 100, 1000])
        vec = p.degradation(ns)
        for n, v in zip(ns, vec):
            assert v == pytest.approx(float(p.degradation(int(n))))


class TestQuantizeHealth:
    def test_pristine_reads_top_code(self):
        assert quantize_health(1.0, bits=2) == 3

    def test_dead_reads_zero(self):
        assert quantize_health(0.0, bits=2) == 0

    def test_bucket_boundaries(self):
        assert quantize_health(0.25, bits=2) == 1
        assert quantize_health(0.4999, bits=2) == 1
        assert quantize_health(0.5, bits=2) == 2

    def test_three_bit_resolution(self):
        assert quantize_health(0.95, bits=3) == 7
        assert quantize_health(0.1, bits=3) == 0

    def test_matrix_quantization(self):
        d = np.array([[1.0, 0.6], [0.3, 0.0]])
        h = quantize_health(d, bits=2)
        assert h.tolist() == [[3, 2], [1, 0]]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            quantize_health(1.2)
        with pytest.raises(ValueError):
            quantize_health(-0.1)

    def test_nan_rejected_and_negative_zero_kept(self):
        with pytest.raises(ValueError):
            quantize_health(np.array([0.5, np.nan]))
        assert quantize_health(-0.0, bits=2) == 0

    def test_zero_bits_rejected(self):
        with pytest.raises(ValueError):
            quantize_health(0.5, bits=0)

    @given(st.floats(0.0, 1.0), st.integers(1, 6))
    def test_health_within_code_range(self, d: float, bits: int):
        h = quantize_health(d, bits=bits)
        assert 0 <= h <= (1 << bits) - 1

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(1, 4))
    def test_monotone_in_degradation(self, d0: float, d1: float, bits: int):
        if d0 <= d1:
            assert quantize_health(d0, bits) <= quantize_health(d1, bits)


class TestHealthEstimate:
    def test_mid_bucket_default(self):
        assert health_to_degradation_estimate(2, bits=2) == pytest.approx(0.625)
        assert health_to_degradation_estimate(3, bits=2) == pytest.approx(0.875)

    def test_health_zero_estimates_zero_force(self):
        # Sec. VII-D: health-0 cells produce zero-probability transitions.
        assert health_to_degradation_estimate(0, bits=2) == 0.0

    def test_pessimistic_uses_bucket_floor(self):
        assert health_to_degradation_estimate(2, bits=2, pessimistic=True) == 0.5
        assert health_to_degradation_estimate(0, bits=2, pessimistic=True) == 0.0

    def test_matrix_estimate(self):
        h = np.array([[3, 0], [1, 2]])
        est = health_to_degradation_estimate(h, bits=2)
        assert est[0, 1] == 0.0
        assert est[1, 0] == pytest.approx(0.375)

    def test_out_of_range_code_rejected(self):
        with pytest.raises(ValueError):
            health_to_degradation_estimate(4, bits=2)

    @given(st.integers(0, 3))
    def test_estimate_within_observed_bucket(self, h: int):
        est = health_to_degradation_estimate(h, bits=2)
        if h > 0:
            assert h / 4 <= est < (h + 1) / 4
        assert quantize_health(min(est, 1.0), bits=2) == h if h > 0 else est == 0.0


class TestSampleParams:
    def test_scalar_sample_in_range(self, rng):
        p = sample_params(rng)
        assert 0.5 <= p.tau <= 0.9
        assert 200.0 <= p.c <= 500.0

    def test_matrix_sample_shape(self, rng):
        arr = sample_params(rng, shape=(4, 3))
        assert arr.shape == (4, 3)
        assert all(isinstance(arr[i, j], DegradationParams)
                   for i in range(4) for j in range(3))

    def test_custom_ranges(self, rng):
        p = sample_params(rng, tau_range=(0.95, 0.99), c_range=(10.0, 20.0))
        assert 0.95 <= p.tau <= 0.99
        assert 10.0 <= p.c <= 20.0
