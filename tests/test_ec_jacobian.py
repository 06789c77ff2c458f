"""Tests for the engine's Jacobian arithmetic, on G1 and on G2.

Every operation is cross-checked against the affine reference
(:class:`repro.ec.curve.CurveGroup`) in both groups: G1 over Fq raw ints
and G2 over raw Fq2 pairs share one implementation.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec import engine
from repro.ec.bn254 import BN254_G1, BN254_G2
from repro.ec.engine import engine_for
from repro.ec.msm import msm_naive

R = BN254_G1.order
G = BN254_G1.generator
GROUPS = (BN254_G1, BN254_G2)


def _curves():
    """(engine, affine group, generator) for G1 and G2."""
    return [(engine_for(g), g, g.generator) for g in GROUPS]


class TestConversions:
    def test_roundtrip(self):
        for curve, _, g in _curves():
            p = 12345 * g
            assert curve.to_affine(curve.to_jacobian(p)) == p

    def test_infinity(self):
        for curve, group, _ in _curves():
            assert curve.to_affine(curve.infinity).is_infinity()
            assert curve.to_jacobian(group.infinity()) == curve.infinity

    def test_unnormalized_z(self):
        """Scaling (X, Y, Z) by (l^2, l^3, l) represents the same point."""
        for curve, _, g in _curves():
            F = curve.ops
            x, y, z = curve.to_jacobian(7 * g)
            lam = 987654321 if F is engine.FQ_OPS else (987654321, 31337)
            lam2 = F.sqr(lam)
            scaled = (F.mul(x, lam2), F.mul(y, F.mul(lam2, lam)), F.mul(z, lam))
            assert curve.to_affine(scaled) == 7 * g


class TestGroupLaw:
    def test_double_matches_affine(self):
        for curve, group, g in _curves():
            for k in (1, 2, 17, 9999):
                p = k * g
                got = curve.to_affine(curve.double(curve.to_jacobian(p)))
                assert got == group.double(p)

    def test_double_infinity_and_order2(self):
        for curve, _, _ in _curves():
            assert curve.double(curve.infinity) == curve.infinity

    def test_add_matches_affine(self):
        for curve, _, g in _curves():
            a, b = 3 * g, 11 * g
            j = curve.add(curve.to_jacobian(a), curve.to_jacobian(b))
            assert curve.to_affine(j) == a + b

    def test_add_equal_points_doubles(self):
        for curve, _, g in _curves():
            p = curve.to_jacobian(5 * g)
            assert curve.to_affine(curve.add(p, p)) == 10 * g

    def test_add_inverse_gives_infinity(self):
        for curve, _, g in _curves():
            p, q = curve.to_jacobian(5 * g), curve.to_jacobian(-(5 * g))
            assert curve.to_affine(curve.add(p, q)).is_infinity()

    def test_add_identity(self):
        for curve, _, g in _curves():
            p = curve.to_jacobian(5 * g)
            assert curve.to_affine(curve.add(p, curve.infinity)) == 5 * g
            assert curve.to_affine(curve.add(curve.infinity, p)) == 5 * g

    def test_mixed_add_matches_full(self):
        for curve, _, g in _curves():
            p = curve.double(curve.to_jacobian(9 * g))  # Z != 1
            mixed = curve.add_mixed(p, curve.raw(4 * g))
            assert curve.to_affine(mixed) == 22 * g

    def test_mixed_add_to_infinity(self):
        for curve, _, g in _curves():
            q = 4 * g
            assert curve.to_affine(
                curve.add_mixed(curve.infinity, curve.raw(q))
            ) == q

    def test_mixed_add_doubling_case(self):
        for curve, _, g in _curves():
            q = 4 * g
            p = curve.to_jacobian(q)
            assert curve.to_affine(curve.add_mixed(p, curve.raw(q))) == 8 * g

    def test_mixed_add_cancellation(self):
        for curve, _, g in _curves():
            q = 4 * g
            p = curve.to_jacobian(-q)
            assert curve.to_affine(
                curve.add_mixed(p, curve.raw(q))
            ).is_infinity()

    @given(
        group=st.sampled_from(GROUPS),
        a=st.integers(min_value=1, max_value=10**9),
        b=st.integers(min_value=1, max_value=10**9),
    )
    @settings(max_examples=15, deadline=None)
    def test_property_add_matches_scalar_arithmetic(self, group, a, b):
        curve, g = engine_for(group), group.generator
        j = curve.add(curve.to_jacobian(a * g), curve.to_jacobian(b * g))
        assert curve.to_affine(j) == (a + b) * g


class TestScalarMul:
    def test_matches_affine(self):
        for curve, group, g in _curves():
            for k in (0, 1, 2, R - 1, R + 5, -3, 123456789012345678901234567890):
                assert curve.scalar_mul(g, k) == group.scalar_mul(g, k)
            assert curve.scalar_mul(group.infinity(), 7).is_infinity()

    def test_order_annihilates(self):
        """Unreduced ``multiply`` by r is the identity on the subgroup,
        while ``scalar_mul`` reduces r to 0 first."""
        for curve, _, g in _curves():
            assert curve.multiply(curve.raw(g), R)[2] == curve.ops.zero
            assert curve.scalar_mul(g, R).is_infinity()
            assert curve.in_subgroup(123 * g)


class TestMSMJacobian:
    """The engine MSM, whose window sums accumulate in Jacobian form."""

    def _fixture(self, group, count, seed=0):
        rng = random.Random(seed)
        points = [rng.randrange(1, 10_000) * group.generator
                  for _ in range(count)]
        scalars = [rng.randrange(R) for _ in range(count)]
        return points, scalars

    def test_matches_naive(self):
        for group in GROUPS:
            points, scalars = self._fixture(group, 7, seed=2)
            got = engine_for(group).msm(points, scalars)
            assert got == msm_naive(points, scalars)

    def test_handles_infinity_points(self):
        for group in GROUPS:
            points, scalars = self._fixture(group, 4, seed=3)
            points[1] = group.infinity()
            got = engine_for(group).msm(points, scalars)
            assert got == msm_naive(points, scalars)

    def test_zero_scalars(self):
        for group in GROUPS:
            points, _ = self._fixture(group, 4)
            assert engine_for(group).msm(points, [0, 0, 0, 0]).is_infinity()

    def test_window_sizes_agree(self):
        for group in GROUPS:
            points, scalars = self._fixture(group, 9, seed=4)
            expected = msm_naive(points, scalars)
            for window in (2, 5, 11):
                assert engine_for(group).msm(points, scalars, window) == expected

    def test_validation(self):
        for group in GROUPS:
            curve = engine_for(group)
            with pytest.raises(ValueError):
                curve.msm([group.generator], [])
            # The empty sum is the group identity, not an error.
            assert curve.msm([], []) == group.infinity()
