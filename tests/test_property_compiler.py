"""Property-based tests over randomly generated programs.

These are the repo's strongest invariant checks: for arbitrary small
networks and inputs, every optimization profile must produce a satisfiable
system whose public outputs equal the plaintext forward pass, and the two
IRs must agree exactly when knit is disabled.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.circuit.compute import CircuitComputer, ComputeOptions
from repro.core.circuit.gadgets import RANGE_BITS, RANGE_OFFSET
from repro.core.compiler import ZenoCompiler, arkworks_options, zeno_options
from repro.core.lang.primitives import ProgramBuilder
from repro.core.lang.program import DotLayerOp
from repro.core.lang.types import Privacy
from repro.core.privacy.knit import KnitPacker
from repro.r1cs.system import ConstraintSystem

# -- random program generator ---------------------------------------------------


@st.composite
def small_programs(draw):
    """A random 2-4 layer program on a small input."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    gen = np.random.default_rng(seed)
    weights_private = draw(st.booleans())
    use_conv = draw(st.booleans())

    if use_conv:
        c_in = draw(st.integers(min_value=1, max_value=2))
        side = draw(st.integers(min_value=4, max_value=6))
        x = gen.integers(0, 16, (c_in, side, side)).astype(np.int64)
    else:
        n = draw(st.integers(min_value=2, max_value=12))
        x = gen.integers(0, 16, n).astype(np.int64)

    builder = ProgramBuilder(
        f"prop{seed}",
        x,
        weights_privacy=Privacy.PRIVATE if weights_private else Privacy.PUBLIC,
        relu_bits=20,
    )
    if use_conv:
        c_out = draw(st.integers(min_value=1, max_value=3))
        builder.convolution(
            gen.integers(-4, 5, (c_out, x.shape[0], 3, 3)).astype(np.int64),
            requant=draw(st.integers(min_value=0, max_value=4)),
        )
        if draw(st.booleans()):
            builder.relu()
        # Occasionally exercise the maxpool comparison gadgets.
        conv_side = builder.program.ops[-1].out_values.shape[-1]
        if conv_side % 2 == 0 and draw(st.booleans()):
            builder.max_pool(2)
        builder.flatten()
    else:
        mid = draw(st.integers(min_value=1, max_value=6))
        builder.fully_connected(
            gen.integers(-4, 5, (mid, x.size)).astype(np.int64),
            requant=draw(st.integers(min_value=0, max_value=3)),
        )
        if draw(st.booleans()):
            builder.relu()
    flat = builder.program.ops[-1].out_values.size
    builder.fully_connected(gen.integers(-4, 5, (2, flat)).astype(np.int64))
    return builder.build()


def fits_strict_range(program):
    """Whether every range-proven (non-final) layer output fits strict mode."""
    lo, hi = -RANGE_OFFSET, (1 << RANGE_BITS) - RANGE_OFFSET
    return all(
        lo <= int(v) < hi
        for op in program.ops[:-1]
        if isinstance(op, DotLayerOp)
        for v in op.out_values.ravel()
    )


class TestRandomPrograms:
    @given(program=small_programs())
    @settings(max_examples=25, deadline=None)
    def test_all_profiles_satisfiable_same_outputs(self, program):
        outputs = set()
        for options in (
            arkworks_options(),
            zeno_options(fusion=False),
            zeno_options(fusion=False, gadget_mode="strict"),
        ):
            options = options
            compiler = ZenoCompiler(options)
            if options.gadget_mode == "strict" and not fits_strict_range(program):
                # Out of the strict gadgets' domain: rejected, not unsatisfiable.
                with pytest.raises(ValueError, match="strict output range"):
                    compiler.compile_program(program)
                continue
            artifact = compiler.compile_program(program)
            assert artifact.cs.is_satisfied(), options.name
            outputs.add(tuple(artifact.public_outputs_signed()))
        assert len(outputs) == 1
        assert list(outputs.pop()) == [int(v) for v in program.final_logits()]

    @given(program=small_programs())
    @settings(max_examples=20, deadline=None)
    def test_ir_equivalence_knit_off(self, program):
        """ZENO circuit is an exact in-place replacement (§5.1)."""
        base = CircuitComputer(
            program, ComputeOptions(zeno_circuit=False, knit=False)
        ).compute()
        zeno = CircuitComputer(
            program, ComputeOptions(zeno_circuit=True, knit=False)
        ).compute()
        assert base.cs.num_constraints == zeno.cs.num_constraints
        assert base.cs.num_private == zeno.cs.num_private
        for cb, cz in zip(base.cs.constraints, zeno.cs.constraints):
            assert cb.a.terms == cz.a.terms
            assert cb.b.terms == cz.b.terms
            assert cb.c.terms == cz.c.terms

    @given(program=small_programs())
    @settings(max_examples=15, deadline=None)
    def test_knit_never_increases_constraints(self, program):
        plain = CircuitComputer(program, ComputeOptions(knit=False)).compute()
        knit = CircuitComputer(program, ComputeOptions(knit=True)).compute()
        assert knit.cs.num_constraints <= plain.cs.num_constraints
        assert knit.cs.is_satisfied()

    @given(
        program=small_programs(),
        victim=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_output_corruption_detected(self, program, victim):
        """Failure injection: flipping any committed layer output (or the
        public logits) must violate its defining constraint.

        (Some witness variables are legitimately slack — zero-weight
        commitments, ReLU sign bits at exactly-zero inputs — so the
        soundness property targets the outputs the verifier relies on.)
        """
        result = CircuitComputer(
            program, ComputeOptions(record_recipe=True)
        ).compute()
        cs = result.cs
        outputs = [
            var
            for var, desc in result.recipe
            if desc[0] in ("out", "relu_out")
        ]
        assert outputs, "program has no committed outputs?"
        index = outputs[victim % len(outputs)]
        original = cs.value_of(index)
        cs.assign(index, original + 1)
        assert not cs.is_satisfied(), f"output variable {index} unbound"


class TestKnitPackingProperties:
    @given(
        magnitudes=st.lists(
            st.integers(min_value=0, max_value=2**20 - 1),
            min_size=1,
            max_size=40,
        ),
        slot_bits=st.integers(min_value=21, max_value=60),
    )
    @settings(max_examples=30, deadline=None)
    def test_packed_zero_expressions_always_satisfy(self, magnitudes, slot_bits):
        cs = ConstraintSystem()
        packer = KnitPacker(cs)
        for m in magnitudes:
            var = cs.new_private(m)
            expr = cs.lc_variable(var)
            expr.add_term(0, (-m) % cs.field.modulus)
            packer.push(expr, slot_bits=slot_bits)
        packer.flush()
        assert cs.is_satisfied()
        assert packer.expressions_packed == len(magnitudes)
        # Constraint count respects the capacity bound.
        capacity = max(1, 254 // (slot_bits + 2))
        expected = -(-len(magnitudes) // capacity)  # ceil division
        assert packer.constraints_emitted == expected
