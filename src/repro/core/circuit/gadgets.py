"""Shared constraint gadgets: requantization, ReLU, booleanity.

These gadgets are identical under both IRs ("on the ReLU layer, ZENO shares
the same circuit as scalar-level zkSNARK frameworks", §5.1) and under every
optimization toggle, so speedup measurements isolate the paper's
contributions.

Two gadget budgets are provided (see DESIGN.md):

* ``"lean"``   — the paper's accounting: each layer output costs one
  equality check (Eq. 2/3), with the power-of-two requantization folded
  into that same linear identity; ReLU costs one multiplication
  constraint with a committed sign bit.  This matches the constraint
  counts the paper's figures are built on.
* ``"strict"`` — additionally emits booleanity and bit-decomposition
  range checks (remainder bits, output range, ReLU sign proof), the way a
  fully sound deployment (ZEN's scheme) would.  Used by soundness tests
  and available to every example via one flag.

When a ``recipe`` list is supplied, every variable allocation is logged as
``(var_index, descriptor)`` so batch-specialized constraint-system sharing
(§6.1) can re-assign the witness for a new image without regenerating a
single constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.privacy.knit import KnitPacker
from repro.r1cs.lc import LinearCombination
from repro.r1cs.system import ConstraintSystem

# Signed activations after requantization stay in [-255, 255] (calibrated);
# the strict range proof shifts by this offset to decompose non-negatively.
RANGE_OFFSET = 256
RANGE_BITS = 10


@dataclass
class GadgetStats:
    """Constraint bookkeeping per gadget class (feeds the figures)."""

    equality_constraints: int = 0
    relu_constraints: int = 0
    range_constraints: int = 0
    committed_wires: int = 0
    shared_outputs: int = 0
    shared_relus: int = 0


# Sharing keys are computed only for LCs at most this many terms wide: the
# shareable shapes (zero-row constants, BN affines, residual adds, ReLU
# inputs) are all 1-3 terms, while full conv dots — which sort-key in
# O(n log n) and essentially never collide — are skipped.
_SHARE_MAX_TERMS = 4


class GadgetEmitter:
    """Emits output-commitment and ReLU gadgets into a constraint system.

    With ``share=True`` (sparsity-aware compilation), structurally
    identical emissions are value-numbered: a second ``commit_output`` or
    ``relu_lc`` whose input LC, requant shift, and slot width match an
    earlier one returns the earlier output variable instead of emitting a
    new sub-circuit.  Identical LCs compute identical witness values for
    *every* assignment, so deduplication preserves soundness; it is what
    collapses the per-position gadget fan-out of a pruned-to-zero filter
    row (and of everything downstream of it) to one wire per channel.
    """

    def __init__(
        self,
        cs: ConstraintSystem,
        mode: str = "lean",
        knit: Optional[KnitPacker] = None,
        recipe: Optional[list] = None,
        share: bool = False,
    ) -> None:
        if mode not in ("lean", "strict"):
            raise ValueError(f"gadget mode must be 'lean' or 'strict', not {mode!r}")
        self.cs = cs
        self.mode = mode
        self.knit = knit
        self.recipe = recipe
        self.share = share
        self.stats = GadgetStats()
        self._commit_cache: dict = {}
        self._relu_cache: dict = {}

    def _log(self, var: int, descriptor: tuple) -> None:
        if self.recipe is not None:
            self.recipe.append((var, descriptor))

    # -- low-level helpers ---------------------------------------------------------

    def boolean(self, value: int, tag: str = "bool") -> int:
        """Allocate a bit variable and enforce ``b * (b - 1) = 0``."""
        var = self.cs.new_private(value)
        self.stats.committed_wires += 1
        lc = self.cs.lc_variable(var)
        self.cs.enforce(lc, lc - self.cs.lc_constant(1), self.cs.lc(), tag=tag)
        self.stats.range_constraints += 1
        return var

    def decompose(
        self, value: int, bits: int, tag: str = "decomp"
    ) -> List[int]:
        """Bit-decompose ``value`` into ``bits`` boolean variables."""
        if value < 0 or value >= (1 << bits):
            raise ValueError(f"{value} does not fit in {bits} bits ({tag})")
        return [self.boolean((value >> i) & 1, tag=tag) for i in range(bits)]

    # -- output commitment with folded requantization ----------------------------------

    def commit_output(
        self,
        acc_lc: LinearCombination,
        acc_value: int,
        shift: int,
        slot_bits: int,
        public: bool = False,
        tag: str = "out",
        index: int = -1,
    ) -> int:
        """Bind an accumulator LC to its requantized output variable.

        Emits the single linear identity

            acc_lc - out * 2^shift - rem == 0

        either as its own constraint (Eq. 2/3's equality check) or pushed
        into the knit packer.  Returns the output variable index (public
        for the network's final logits, private otherwise).  ``acc_lc`` is
        consumed (mutated in place).

        In strict mode the remainder is bit-decomposed (booleanity per bit)
        and the output gets an offset range proof covering [-255, 255]
        (exactly [-256, 767]); an output outside it raises ``ValueError``
        instead of emitting an unsatisfiable system.
        """
        cs = self.cs
        share_key = None
        if self.share and not public and len(acc_lc.terms) <= _SHARE_MAX_TERMS:
            # Key on the LC *before* it is consumed below.
            share_key = (tuple(sorted(acc_lc.terms.items())), shift, slot_bits)
            cached = self._commit_cache.get(share_key)
            if cached is not None:
                out_var, cached_value = cached
                if cached_value != acc_value:
                    raise ValueError(
                        f"shared output {tag}[{index}]: identical LC with "
                        f"diverging witness values {cached_value} != {acc_value}"
                    )
                self.stats.shared_outputs += 1
                return out_var
        out_value = acc_value >> shift
        rem_value = acc_value - (out_value << shift)

        out_var = cs.new_public(out_value) if public else cs.new_private(out_value)
        self._log(out_var, ("out", tag, index, shift))
        if not public:
            self.stats.committed_wires += 1
        expr = acc_lc  # consumed: callers build a fresh LC per output
        expr.add_term(out_var, cs.field.modulus - (1 << shift))

        if shift:
            if self.mode == "strict":
                for i in range(shift):
                    bit_var = self.boolean((rem_value >> i) & 1, tag=f"{tag}/rem")
                    self._log(bit_var, ("rem_bit", tag, index, shift, i))
                    expr.add_term(bit_var, cs.field.modulus - (1 << i))
            else:
                rem_var = cs.new_private(rem_value)
                self._log(rem_var, ("rem", tag, index, shift))
                self.stats.committed_wires += 1
                expr.add_term(rem_var, cs.field.modulus - 1)

        if self.mode == "strict" and not public:
            # Offset range proof: out + 256 in [0, 1024) covers [-255, 255].
            shifted_out = out_value + RANGE_OFFSET
            if not 0 <= shifted_out < (1 << RANGE_BITS):
                raise ValueError(
                    f"output {out_value} exceeds the strict output range "
                    f"[{-RANGE_OFFSET}, {(1 << RANGE_BITS) - RANGE_OFFSET - 1}] "
                    f"({tag}[{index}])"
                )
            recompose = cs.lc()
            for i in range(RANGE_BITS):
                bit_var = self.boolean((shifted_out >> i) & 1, tag=f"{tag}/range")
                self._log(bit_var, ("out_bit", tag, index, shift, i))
                recompose.add_term(bit_var, 1 << i)
            out_plus = cs.lc_variable(out_var) + cs.lc_constant(RANGE_OFFSET)
            cs.enforce_equal(recompose, out_plus, tag=f"{tag}/range_eq")
            self.stats.range_constraints += 1

        if self.knit is not None and not public:
            # Honest-value bound of expr: the accumulator LC (slot_bits),
            # the shifted output (8 + shift bits), and the remainder.
            self.knit.push(expr, max(slot_bits, 8 + shift) + 1)
        else:
            cs.enforce(expr, cs.lc_constant(1), cs.lc(), tag=f"{tag}/eq")
            self.stats.equality_constraints += 1
        if share_key is not None:
            self._commit_cache[share_key] = (out_var, acc_value)
        return out_var

    # -- ReLU -----------------------------------------------------------------------------

    def relu(
        self,
        in_var: int,
        in_value: int,
        bits: int = 16,
        tag: str = "relu",
        index: int = -1,
    ) -> int:
        """``out = max(0, in)`` via a committed sign bit: ``out = b * in``.

        Lean: 1 multiplication constraint.  Strict: adds booleanity of the
        sign bit and the shifted bit-decomposition sign proof (``bits - 1``
        booleanity constraints + 1 recomposition) — the paper's "expensive
        comparison operator" (§6.2).
        """
        return self.relu_lc(
            self.cs.lc_variable(in_var), in_value, bits=bits, tag=tag,
            index=index,
        )

    def relu_lc(
        self,
        in_lc: LinearCombination,
        in_value: int,
        bits: int = 16,
        tag: str = "relu",
        index: int = -1,
    ) -> int:
        """ReLU of a *linear combination* — used by comparison chains.

        ``max(a, b) = a + relu(b - a)`` needs relu over the difference LC;
        R1CS multiplies two full LCs per constraint, so the select gate
        ``sign * in_lc = out`` costs the same one constraint.  ``in_lc`` is
        consumed.
        """
        cs = self.cs
        share_key = None
        if self.share and len(in_lc.terms) <= _SHARE_MAX_TERMS:
            share_key = (tuple(sorted(in_lc.terms.items())), bits)
            cached = self._relu_cache.get(share_key)
            if cached is not None:
                out_var, cached_value = cached
                if cached_value != in_value:
                    raise ValueError(
                        f"shared relu {tag}[{index}]: identical LC with "
                        f"diverging witness values {cached_value} != {in_value}"
                    )
                self.stats.shared_relus += 1
                return out_var
        sign = 1 if in_value >= 0 else 0
        out_value = in_value if in_value > 0 else 0

        if self.mode == "strict":
            sign_var = self.boolean(sign, tag=f"{tag}/sign")
            self._log(sign_var, ("sign", tag, index, bits))
            # Sign proof: in + 2^(bits-1) in [0, 2^bits), top bit == sign.
            shifted = in_value + (1 << (bits - 1))
            if (shifted >> (bits - 1)) & 1 != sign or not 0 <= shifted < (1 << bits):
                raise ValueError(
                    f"relu input {in_value} exceeds {bits}-bit sign gadget range"
                )
            low = shifted & ((1 << (bits - 1)) - 1)
            recompose = cs.lc()
            for i in range(bits - 1):
                bit_var = self.boolean((low >> i) & 1, tag=f"{tag}/bits")
                self._log(bit_var, ("relu_bit", tag, index, bits, i))
                recompose.add_term(bit_var, 1 << i)
            # The top bit *is* the committed sign bit.
            recompose.add_term(sign_var, 1 << (bits - 1))
            shifted_lc = in_lc + cs.lc_constant(1 << (bits - 1))
            cs.enforce_equal(recompose, shifted_lc, tag=f"{tag}/signproof")
            self.stats.range_constraints += 1
        else:
            sign_var = cs.new_private(sign)
            self._log(sign_var, ("sign", tag, index, bits))
            self.stats.committed_wires += 1

        out_var = cs.new_private(out_value)
        self._log(out_var, ("relu_out", tag, index, bits))
        self.stats.committed_wires += 1
        cs.enforce(
            cs.lc_variable(sign_var),
            in_lc,
            cs.lc_variable(out_var),
            tag=f"{tag}/select",
        )
        self.stats.relu_constraints += 1
        if share_key is not None:
            self._relu_cache[share_key] = (out_var, in_value)
        return out_var
