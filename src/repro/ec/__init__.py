"""Elliptic-curve substrate for the Groth16 security-computation phase.

The paper's artifact proves over BN254 ("BN254 for the rest of us" [53] in
the paper's bibliography).  This package implements, from scratch:

* the Fp2/Fp6-free generic extension tower (:mod:`repro.ec.tower`) — BN254
  Fq2 and Fq12 as polynomial extension fields;
* generic *affine* short-Weierstrass point arithmetic
  (:mod:`repro.ec.curve`) instantiated for G1 (over Fq), G2 (over Fq2) and
  the Fq12 embedding used by the pairing — the Miller-loop arithmetic and
  the reference the fast engine is tested against;
* the optimal-ate pairing (:mod:`repro.ec.bn254`) — Miller loop plus final
  exponentiation;
* the curve engine (:mod:`repro.ec.engine`): Jacobian scalar
  multiplication, the signed-window batch-affine MSM and fixed-base
  tables, written once over the coordinate field and shared by G1 and G2.
  MSM is the dominant cost of security computation;
* an exponent-tracking *simulated* bilinear group
  (:mod:`repro.ec.simulated`) with the identical API, used by the benchmark
  sweeps (see DESIGN.md "Substitutions");
* the :class:`~repro.ec.backend.GroupBackend` interface the SNARK layer
  programs against.
"""

from repro.ec.tower import FQ2, FQ12, fq2, fq12
from repro.ec.curve import CurveGroup, Point
from repro.ec.bn254 import BN254_G1, BN254_G2, bn254_pairing
from repro.ec.backend import GroupBackend, RealBN254Backend, SimulatedBackend

__all__ = [
    "FQ2",
    "FQ12",
    "fq2",
    "fq12",
    "CurveGroup",
    "Point",
    "BN254_G1",
    "BN254_G2",
    "bn254_pairing",
    "GroupBackend",
    "RealBN254Backend",
    "SimulatedBackend",
]
