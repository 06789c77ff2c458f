"""Cross-variant MSM tests for the curve engine, on G1 and on G2.

Every entry point of :mod:`repro.ec.engine` — one-shot, chunk-streamed,
process-parallel and the fixed-base table — must agree with naive affine
double-and-add on the same input, in both groups.  The inputs include the
adversarial scalars (zero, negative, exact order multiples) and the
degenerate point patterns (duplicates, ``P`` with ``-P``, explicit
infinities) that exercise the tangent and cancellation lanes of the
batch-affine reducer; in G2 a cancelled pair is a zero Fq2 norm.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec import engine
from repro.ec.bn254 import BN254_G1, BN254_G2
from repro.ec.engine import FixedBaseTable, engine_for
from repro.ec.msm import msm_naive, signed_digits
from repro.field.counters import count_ops

R = BN254_G1.order
G = BN254_G1.generator
GROUPS = (BN254_G1, BN254_G2)


@pytest.fixture(autouse=True)
def _fork_every_parallel_msm(monkeypatch):
    """Small test inputs still take the process-parallel path."""
    monkeypatch.setattr(engine, "PARALLEL_MIN", 1)


def _points(count, seed=0, group=BN254_G1):
    rng = random.Random(seed)
    return [rng.randrange(1, 100_000) * group.generator for _ in range(count)]


def _variants(points, scalars, group, window=None):
    """Every engine entry point's answer for one input, labelled."""
    curve = engine_for(group)
    half = len(points) // 2
    chunks = [(0, points[:half]), (half, points[half:])]
    return {
        "one_shot": curve.msm(points, scalars, window),
        "streamed": curve.msm_streamed(iter(chunks), scalars, window),
        "parallel": curve.msm(points, scalars, window, parallelism=2),
        "fixed_base": FixedBaseTable(curve, points, window=window).msm(scalars),
    }


def _assert_variants(points, scalars, group, expected=None, window=None):
    if expected is None:
        expected = msm_naive(points, scalars, group=group)
    for name, got in _variants(points, scalars, group, window).items():
        assert got == expected, f"{group.name} {name} window={window}"


class TestCrossVariantAgreement:
    def test_random_inputs(self):
        for group in GROUPS:
            points = _points(12, seed=1, group=group)
            rng = random.Random(2)
            scalars = [rng.randrange(R) for _ in points]
            _assert_variants(points, scalars, group)

    def test_special_scalars(self):
        """Zero, negative, and order-multiple scalars all reduce mod r."""
        scalars = [0, -1, R, 2 * R, R - 1, -(R - 1), 1, R + 7]
        for group in GROUPS:
            _assert_variants(_points(8, seed=3, group=group), scalars, group)

    def test_duplicate_and_opposite_points(self):
        """Same point twice hits the tangent lane; P, -P the cancelled one
        (a zero denominator, in G2 a zero Fq2 norm)."""
        for group in GROUPS:
            g = group.generator
            p = 5 * g
            points = [p, p, p, -p, 3 * g, -(3 * g), g, g]
            scalars = [9, 9, 4, 9, 2, 2, 1, 1]
            _assert_variants(points, scalars, group)

    def test_infinity_points_skipped(self):
        for group in GROUPS:
            g = group.generator
            inf = group.infinity()
            points = [g, inf, 2 * g, inf]
            _assert_variants(points, [3, 999, 5, 1], group, expected=13 * g)

    def test_mixed_windows(self):
        scalars = [i * 987654321 + 3 for i in range(10)]
        for group in GROUPS:
            points = _points(10, seed=4, group=group)
            expected = msm_naive(points, scalars, group=group)
            for window in (2, 5, 9, 13):
                _assert_variants(points, scalars, group, expected, window)

    def test_all_zero_scalars(self):
        for group in GROUPS:
            points = _points(6, seed=5, group=group)
            _assert_variants(points, [0] * 6, group, expected=group.infinity())

    def test_empty_inputs_are_identity(self):
        for group in GROUPS:
            curve = engine_for(group)
            assert curve.msm([], []) == group.infinity()
            assert curve.msm([], [], parallelism=2) == group.infinity()
            assert curve.msm_streamed(iter([]), []) == group.infinity()
            assert FixedBaseTable(curve, []).msm([]) == group.infinity()

    def test_length_mismatch_rejected(self):
        for group in GROUPS:
            curve = engine_for(group)
            with pytest.raises(ValueError):
                curve.msm([group.generator], [])
            with pytest.raises(ValueError):
                curve.msm([group.generator], [1, 2], parallelism=2)

    @given(
        group=st.sampled_from(GROUPS),
        pairs=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=300),
                st.one_of(
                    st.integers(min_value=-R, max_value=2 * R),
                    st.sampled_from([0, 1, R - 1, R, R + 1, 2 * R]),
                ),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=8, deadline=None)
    def test_property_batch_affine_matches_naive(self, group, pairs):
        curve = engine_for(group)
        points = [k * group.generator for k, _ in pairs]
        scalars = [s for _, s in pairs]
        expected = msm_naive(points, scalars, group=group)
        assert curve.msm(points, scalars) == expected
        assert FixedBaseTable(curve, points).msm(scalars) == expected


class TestSimulatedVariant:
    """The simulated engine must agree with the real ones in the exponent:
    ``sim_msm`` over logs ``k_i`` equals the naive dot product mod r, and
    ``k_i·G`` through any real engine lands on the same group element."""

    def test_special_scalars_match_real_engines(self):
        from repro.ec.simulated import G1_TAG, SimPoint, sim_msm
        from repro.ec.simulated import SimFixedBaseTable

        ks = [2, 3, 5, 7, 11, 13, 17, 19]
        scalars = [0, -1, R, 2 * R, R - 1, -(R - 1), 1, R + 7]
        expected_log = sum(k * (s % R) for k, s in zip(ks, scalars)) % R

        sim_points = [SimPoint(G1_TAG, k) for k in ks]
        assert sim_msm(sim_points, scalars).log == expected_log
        table = SimFixedBaseTable(sim_points)
        assert table.msm(scalars).log == expected_log
        assert table.uses == 1

        for group in GROUPS:
            real_points = [k * group.generator for k in ks]
            assert engine_for(group).msm(real_points, scalars) == (
                expected_log * group.generator
            )

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=R - 1),
                st.integers(min_value=-R, max_value=2 * R),
            ),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_property_matches_naive_dot_product(self, pairs):
        from repro.ec.simulated import G1_TAG, SimPoint, sim_msm

        points = [SimPoint(G1_TAG, k) for k, _ in pairs]
        scalars = [s for _, s in pairs]
        expected = sum(k * (s % R) for k, s in pairs) % R
        assert sim_msm(points, scalars).log == expected


class TestSignedDigits:
    @given(st.integers(min_value=0, max_value=R - 1))
    @settings(max_examples=50, deadline=None)
    def test_reconstruction(self, s):
        for c in (2, 4, 7, 13):
            num_windows = -(-254 // c) + 1
            digits = signed_digits(s, c, num_windows)
            half = 1 << (c - 1)
            assert all(-half < d <= half for d in digits)
            assert sum(d << (c * j) for j, d in enumerate(digits)) == s


class TestParallel:
    def test_worker_tallies_merged(self):
        """Forked chunk workers must not lose their op counts."""
        for group in GROUPS:
            curve = engine_for(group)
            points = _points(24, seed=6, group=group)
            scalars = [random.Random(7).randrange(R) for _ in points]
            with count_ops() as serial_ops:
                expected = curve.msm(points, scalars)
            with count_ops() as par_ops:
                got = curve.msm(points, scalars, parallelism=2)
            assert got == expected
            assert par_ops.group_add > 0
            assert par_ops.field_inv > 0
            # Chunks re-run the doubling chain, so the parallel tally is at
            # least the serial one — never a fraction of it.
            assert par_ops.group_add >= serial_ops.group_add

    def test_parallelism_one_runs_inline(self):
        scalars = [11, 22, 33, 44, 55]
        for group in GROUPS:
            points = _points(5, seed=8, group=group)
            assert engine_for(group).msm(
                points, scalars, parallelism=1
            ) == msm_naive(points, scalars, group=group)

    def test_small_inputs_stay_inline(self, monkeypatch):
        """Below PARALLEL_MIN nonzero terms no process pool is touched."""
        monkeypatch.setattr(engine, "PARALLEL_MIN", 256)

        def no_pool(workers):
            raise AssertionError("small MSM reached the process pool")

        monkeypatch.setattr(engine, "_get_executor", no_pool)
        points = _points(5, seed=8)
        assert engine.G1.msm(points, [1, 2, 3, 4, 5], parallelism=2) == (
            msm_naive(points, [1, 2, 3, 4, 5])
        )


class TestFixedBase:
    def test_uses_counter(self):
        table = FixedBaseTable(engine.G1, _points(4, seed=9))
        assert table.uses == 0
        table.msm([1, 2, 3, 4])
        table.msm([5, 6, 7, 8])
        assert table.uses == 2

    def test_short_scalar_vector(self):
        """Fewer scalars than points: the tail is treated as zero (the
        prover's quotient is usually shorter than h_query)."""
        for group in GROUPS:
            points = _points(6, seed=10, group=group)
            table = FixedBaseTable(engine_for(group), points)
            assert table.msm([3, 4]) == msm_naive(
                points[:2], [3, 4], group=group
            )

    def test_too_many_scalars_rejected(self):
        """A refused query is not a use: serve telemetry counts reuse."""
        table = FixedBaseTable(engine.G1, _points(2, seed=11))
        table.msm([1, 2])
        with pytest.raises(ValueError):
            table.msm([1, 2, 3])
        assert table.uses == 1

    def test_batch_normalize_roundtrip(self):
        """Doubling leaves Z != 1; one batched inversion recovers 2P."""
        for group in GROUPS:
            curve = engine_for(group)
            points = _points(5, seed=12, group=group) + [group.infinity()]
            normal = curve.batch_normalize(
                [curve.double(curve.to_jacobian(p)) for p in points]
            )
            assert normal[-1] is None
            for p, a in zip(points[:-1], normal[:-1]):
                assert a == curve.raw(2 * p)
