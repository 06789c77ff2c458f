"""Tests for the engine's bucketed (Pippenger) MSM and its window model."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec.bn254 import BN254_G1
from repro.ec.engine import G1 as G1_ENGINE
from repro.ec.msm import MAX_WINDOW, msm_naive, pick_window

R = BN254_G1.order


def _points(count, seed=0):
    rng = random.Random(seed)
    g = BN254_G1.generator
    return [rng.randrange(1, 10_000) * g for _ in range(count)]


def msm(points, scalars, window=None):
    return G1_ENGINE.msm(points, scalars, window)


class TestMSM:
    def test_matches_naive(self):
        points = _points(15)
        rng = random.Random(1)
        scalars = [rng.randrange(R) for _ in points]
        assert msm(points, scalars) == msm_naive(points, scalars)

    def test_single_point(self):
        g = BN254_G1.generator
        assert msm([g], [5]) == 5 * g

    def test_zero_scalars(self):
        points = _points(4)
        assert msm(points, [0, 0, 0, 0]).is_infinity()

    def test_scalars_reduced(self):
        g = BN254_G1.generator
        assert msm([g], [R + 3]) == 3 * g

    def test_explicit_window_sizes_agree(self):
        points = _points(9, seed=2)
        scalars = [i * 1234567 + 1 for i in range(9)]
        expected = msm_naive(points, scalars)
        for window in (2, 4, 8, 13):
            assert msm(points, scalars, window=window) == expected

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            msm(_points(2), [1])

    def test_empty_returns_identity_with_group(self):
        # The engine knows its group; the reference is told it.
        assert msm([], []).is_infinity()
        assert msm_naive([], [], group=BN254_G1).is_infinity()

    def test_empty_rejected_without_group(self):
        # Without a group there is nothing to name the identity of.
        with pytest.raises(ValueError):
            msm_naive([], [])

    def test_mixed_small_and_large_scalars(self):
        points = _points(6, seed=3)
        scalars = [1, R - 1, 2**200, 7, 0, 2**100 + 17]
        assert msm(points, scalars) == msm_naive(points, scalars)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=500),
                st.integers(min_value=0, max_value=R - 1),
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=10, deadline=None)
    def test_property_matches_naive(self, pairs):
        g = BN254_G1.generator
        points = [k * g for k, _ in pairs]
        scalars = [s for _, s in pairs]
        assert msm(points, scalars) == msm_naive(points, scalars)


class TestPickWindow:
    """Regression tests for the (bits/c)·(n + buckets) window model."""

    def test_never_exceeds_cap(self):
        # The old heuristic clamped at 16, allocating up to 2^16 - 1 =
        # 65,535 bucket slots for huge inputs; the cost model caps at 13.
        for n in (1, 10, 1000, 10**5, 10**7, 10**9):
            assert 2 <= pick_window(n) <= MAX_WINDOW
            assert 2 <= pick_window(n, signed=True) <= MAX_WINDOW
        assert MAX_WINDOW == 13

    def test_bucket_allocation_bounded(self):
        for n in (10**6, 10**9):
            assert (1 << pick_window(n)) - 1 <= 8191
            assert 1 << (pick_window(n, signed=True) - 1) <= 4096

    def test_monotone_in_n(self):
        windows = [pick_window(n) for n in (4, 64, 1024, 65536, 2**20)]
        assert windows == sorted(windows)

    def test_tiny_inputs_use_minimal_window(self):
        assert pick_window(1) == 2
        assert pick_window(3) == 2

    def test_cost_model_is_argmin(self):
        # Spot-check: for mid-sized n the chosen c really minimizes the
        # modeled cost over the legal range.
        for n, signed in ((512, False), (4096, True)):
            def cost(c):
                buckets = (1 << (c - 1)) if signed else (1 << c) - 1
                return -(-254 // c) * (n + buckets)

            chosen = pick_window(n, signed=signed)
            assert cost(chosen) == min(
                cost(c) for c in range(2, MAX_WINDOW + 1)
            )
