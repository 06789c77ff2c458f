"""Tests for the shared requantization / ReLU gadgets."""

import pytest

from repro.core.circuit.gadgets import GadgetEmitter
from repro.r1cs.system import ConstraintSystem


def emitter(mode="lean", recipe=None):
    cs = ConstraintSystem()
    return cs, GadgetEmitter(cs, mode=mode, recipe=recipe)


def acc_lc(cs, value):
    var = cs.new_private(value)
    return cs.lc_variable(var), var


class TestBoolean:
    def test_booleanity_holds_for_bits(self):
        cs, em = emitter("strict")
        em.boolean(0)
        em.boolean(1)
        assert cs.is_satisfied()

    def test_non_bit_caught(self):
        cs, em = emitter("strict")
        var = em.boolean(1)
        cs.assign(var, 2)
        assert not cs.is_satisfied()

    def test_decompose_range_checked(self):
        cs, em = emitter("strict")
        with pytest.raises(ValueError):
            em.decompose(9, 3)
        with pytest.raises(ValueError):
            em.decompose(-1, 3)

    def test_decompose_bits(self):
        cs, em = emitter("strict")
        bits = em.decompose(0b101, 3)
        assert [cs.value_of(b) for b in bits] == [1, 0, 1]


class TestCommitOutput:
    def test_lean_no_shift(self):
        cs, em = emitter("lean")
        lc, _ = acc_lc(cs, 42)
        out = em.commit_output(lc, 42, shift=0, slot_bits=16)
        assert cs.value_of(out) == 42
        assert cs.num_constraints == 1
        assert cs.is_satisfied()

    def test_lean_with_shift(self):
        cs, em = emitter("lean")
        lc, _ = acc_lc(cs, 1000)
        out = em.commit_output(lc, 1000, shift=3, slot_bits=16)
        assert cs.value_of(out) == 125
        assert cs.num_constraints == 1  # requant folds into the equality
        assert cs.is_satisfied()

    def test_lean_negative_acc(self):
        cs, em = emitter("lean")
        lc, _ = acc_lc(cs, -1000)
        out = em.commit_output(lc, -1000, shift=3, slot_bits=16)
        assert cs.value_of(out) == ((-1000) >> 3) % cs.field.modulus
        assert cs.is_satisfied()

    def test_public_final_output(self):
        cs, em = emitter("lean")
        lc, _ = acc_lc(cs, 7)
        out = em.commit_output(lc, 7, shift=0, slot_bits=16, public=True)
        assert out < 0  # public namespace
        assert cs.public_values() == [7]
        assert cs.is_satisfied()

    def test_lean_wrong_out_caught(self):
        cs, em = emitter("lean")
        lc, _ = acc_lc(cs, 1000)
        out = em.commit_output(lc, 1000, shift=3, slot_bits=16)
        cs.assign(out, 126)
        assert not cs.is_satisfied()

    def test_strict_emits_range_constraints(self):
        cs, em = emitter("strict")
        lc, _ = acc_lc(cs, 1000)
        em.commit_output(lc, 1000, shift=3, slot_bits=16)
        # equality + 3 rem booleanity + 10 range bits + range recomposition
        assert cs.num_constraints == 1 + 3 + 10 + 1
        assert cs.is_satisfied()
        assert em.stats.range_constraints == 14

    def test_strict_oversized_remainder_caught(self):
        """Strict mode binds the remainder bits: forging out+rem fails."""
        cs, em = emitter("strict")
        lc, _ = acc_lc(cs, 1000)
        out = em.commit_output(lc, 1000, shift=3, slot_bits=16)
        # 1000 = 125*8; try out=124, rem=8+... — rem bits can't reach 8.
        cs.assign(out, 124)
        assert not cs.is_satisfied()

    @pytest.mark.parametrize("value", [-257, 768])
    def test_strict_output_range_validated(self, value):
        """An output the 10-bit range proof cannot hold is rejected."""
        cs, em = emitter("strict")
        lc, _ = acc_lc(cs, value)
        with pytest.raises(ValueError, match="strict output range"):
            em.commit_output(lc, value, shift=0, slot_bits=16)

    @pytest.mark.parametrize("value", [-256, 767])
    def test_strict_output_range_edges_satisfied(self, value):
        cs, em = emitter("strict")
        lc, _ = acc_lc(cs, value)
        em.commit_output(lc, value, shift=0, slot_bits=16)
        assert cs.is_satisfied()

    def test_invalid_mode_rejected(self):
        cs = ConstraintSystem()
        with pytest.raises(ValueError):
            GadgetEmitter(cs, mode="relaxed")

    def test_recipe_logging(self):
        recipe = []
        cs, em = emitter("lean", recipe=recipe)
        lc, _ = acc_lc(cs, 1000)
        em.commit_output(lc, 1000, shift=3, slot_bits=16, tag="conv1", index=4)
        kinds = [d[0] for _, d in recipe]
        assert kinds == ["out", "rem"]
        assert recipe[0][1][1:] == ("conv1", 4, 3)


class TestRelu:
    @pytest.mark.parametrize("mode", ["lean", "strict"])
    @pytest.mark.parametrize("value", [-300, -1, 0, 1, 77])
    def test_relu_values(self, mode, value):
        cs, em = emitter(mode)
        in_var = cs.new_private(value)
        out = em.relu(in_var, value, bits=12)
        assert cs.value_of(out) == max(0, value)
        assert cs.is_satisfied()

    def test_lean_single_constraint(self):
        cs, em = emitter("lean")
        in_var = cs.new_private(5)
        em.relu(in_var, 5)
        assert cs.num_constraints == 1

    def test_strict_constraint_budget(self):
        cs, em = emitter("strict")
        in_var = cs.new_private(5)
        em.relu(in_var, 5, bits=12)
        # booleanity(sign) + 11 low bits + sign recomposition + select
        assert cs.num_constraints == 1 + 11 + 1 + 1

    def test_strict_sign_flip_caught(self):
        cs, em = emitter("strict")
        in_var = cs.new_private(-5)
        out = em.relu(in_var, -5, bits=12)
        cs.assign(out, (-5) % cs.field.modulus)  # claim relu(-5) = -5
        assert not cs.is_satisfied()

    def test_strict_range_validated(self):
        cs, em = emitter("strict")
        in_var = cs.new_private(1 << 20)
        with pytest.raises(ValueError):
            em.relu(in_var, 1 << 20, bits=12)

    def test_stats(self):
        cs, em = emitter("lean")
        em.relu(cs.new_private(3), 3)
        assert em.stats.relu_constraints == 1
        assert em.stats.committed_wires == 2  # sign + out
