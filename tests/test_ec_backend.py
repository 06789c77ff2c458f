"""Tests for the GroupBackend interface implementations."""

import pytest

from repro.ec.backend import RealBN254Backend, SimulatedBackend
from repro.ec.bn254 import BN254_G1, BN254_G2


@pytest.fixture(params=[RealBN254Backend, SimulatedBackend])
def backend(request):
    return request.param()


class TestBackendAPI:
    def test_generators_and_zeros(self, backend):
        g1, g2 = backend.g1_generator(), backend.g2_generator()
        z1, z2 = backend.g1_zero(), backend.g2_zero()
        assert backend.add(g1, z1) == g1
        assert backend.add(g2, z2) == g2

    def test_add_neg_sub(self, backend):
        g = backend.g1_generator()
        two_g = backend.add(g, g)
        assert backend.sub(two_g, g) == g
        assert backend.add(g, backend.neg(g)) == backend.g1_zero()

    def test_scalar_mul(self, backend):
        g = backend.g1_generator()
        assert backend.scalar_mul(g, 3) == backend.add(backend.add(g, g), g)
        assert backend.scalar_mul(g, 0) == backend.g1_zero()

    def test_msm_matches_manual(self, backend):
        g = backend.g1_generator()
        points = [backend.scalar_mul(g, k) for k in (2, 3, 5)]
        result = backend.msm(points, [10, 100, 1000])
        expected = backend.scalar_mul(g, 2 * 10 + 3 * 100 + 5 * 1000)
        assert result == expected

    def test_msm_g2(self, backend):
        g2 = backend.g2_generator()
        points = [backend.scalar_mul(g2, k) for k in (1, 4)]
        assert backend.msm(points, [7, 2]) == backend.scalar_mul(g2, 15)

    def test_pairing_product_bilinearity(self, backend):
        g1, g2 = backend.g1_generator(), backend.g2_generator()
        # e(2G1, 3G2) * e(-6G1, G2) == 1
        pairs = [
            (backend.scalar_mul(g1, 2), backend.scalar_mul(g2, 3)),
            (backend.neg(backend.scalar_mul(g1, 6)), g2),
        ]
        assert backend.pairing_product_is_one(pairs)

    def test_pairing_product_rejects_imbalance(self, backend):
        g1, g2 = backend.g1_generator(), backend.g2_generator()
        pairs = [
            (backend.scalar_mul(g1, 2), backend.scalar_mul(g2, 3)),
            (backend.neg(backend.scalar_mul(g1, 5)), g2),
        ]
        assert not backend.pairing_product_is_one(pairs)

    def test_scalar_field_is_fr(self, backend):
        assert backend.scalar_field.name == "Fr"


class TestMSMDispatch:
    def test_empty_msm_is_identity(self, backend):
        assert backend.msm([], []) == backend.g1_zero()
        assert backend.msm([], [], zero=backend.g2_zero()) == backend.g2_zero()

    def test_parallelism_knob_accepted(self, backend):
        g = backend.g1_generator()
        points = [backend.scalar_mul(g, k) for k in (2, 3)]
        assert backend.msm(points, [5, 7], parallelism=2) == backend.msm(
            points, [5, 7]
        )

    def test_precompute_msm_matches_direct(self, backend):
        g = backend.g1_generator()
        points = [backend.scalar_mul(g, k) for k in (2, 3, 5, 7)]
        scalars = [11, 13, 17, 19]
        table = backend.precompute_msm(points)
        assert table.uses == 0
        assert table.msm(scalars) == backend.msm(points, scalars)
        assert table.uses == 1

    def test_precompute_msm_g2(self, backend):
        g2 = backend.g2_generator()
        points = [backend.scalar_mul(g2, k) for k in (1, 4)]
        table = backend.precompute_msm(points, zero=backend.g2_zero())
        assert table.msm([7, 2]) == backend.scalar_mul(g2, 15)

    def test_precompute_empty_vector(self, backend):
        table = backend.precompute_msm([])
        assert table.msm([]) == backend.g1_zero()


class TestRealBackendDispatch:
    """One engine serves both groups at every size; results must match the
    affine reference."""

    def test_g2_msm_still_works(self):
        backend = RealBN254Backend()
        g2 = BN254_G2.generator
        assert backend.msm([g2, 2 * g2], [3, 4]) == 11 * g2

    def test_scalar_mul_matches_affine_reference(self):
        backend = RealBN254Backend()
        k = BN254_G1.order - 12345
        for group in (BN254_G1, BN254_G2):
            g = group.generator
            assert backend.scalar_mul(g, k) == group.scalar_mul(g, k)
