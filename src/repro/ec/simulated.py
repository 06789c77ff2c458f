"""Exponent-tracking simulated bilinear group.

Pure-Python pairings cost seconds each, which would drown the benchmark
sweeps the paper's figures require.  This module provides a drop-in group
whose elements record their discrete logarithm with respect to the group
generator (an ``int`` mod ``r``):

* ``a + b``       -> logs add
* ``k * a``       -> log scales
* ``e(P, Q)``     -> logs multiply (into GT)

Every Groth16 algebraic identity over the real pairing group holds over
this group *iff* it holds as a polynomial identity in the exponents — which
is exactly the identity Groth16's soundness argument reasons about.  The
simulated group therefore preserves proof-system behaviour (a bad witness
still fails verification) while making each group operation a single bigint
multiplication.

What it does **not** preserve is hardness: discrete logs are stored in the
clear, so this backend offers no cryptographic security.  It is a
performance model, not a cryptosystem; the real BN254 backend
(:class:`repro.ec.backend.RealBN254Backend`) exists for end-to-end
soundness demonstrations.

Operation counters are bumped with the *relative* costs of the real
operations (a G2 op costs ~2x a G1 op; a pairing costs ~50 scalar muls), so
cost-model latency derived from counters matches real-backend proportions.
"""

from __future__ import annotations

from typing import Sequence

from repro.field.counters import global_counter
from repro.field.fp import BN254_FR_MODULUS

_R = BN254_FR_MODULUS

G1_TAG = "G1"
G2_TAG = "G2"
GT_TAG = "GT"

# Relative per-operation weights (in "G1 additions") used by the counters.
_ADD_WEIGHT = {G1_TAG: 1, G2_TAG: 2, GT_TAG: 6}
_SCALAR_WEIGHT = {G1_TAG: 1, G2_TAG: 2, GT_TAG: 6}


class SimPoint:
    """A simulated group element: a tagged discrete log modulo ``r``."""

    __slots__ = ("tag", "log")

    def __init__(self, tag: str, log: int) -> None:
        self.tag = tag
        self.log = log % _R

    def is_infinity(self) -> bool:
        return self.log == 0

    def __add__(self, other: "SimPoint") -> "SimPoint":
        if not isinstance(other, SimPoint):
            return NotImplemented
        if other.tag != self.tag:
            raise ValueError(f"cannot add {self.tag} and {other.tag} elements")
        global_counter().group_add += _ADD_WEIGHT[self.tag]
        return SimPoint(self.tag, self.log + other.log)

    def __sub__(self, other: "SimPoint") -> "SimPoint":
        return self + (-other)

    def __neg__(self) -> "SimPoint":
        return SimPoint(self.tag, -self.log)

    def __mul__(self, scalar: int) -> "SimPoint":
        if not isinstance(scalar, int):
            return NotImplemented
        global_counter().group_scalar_mul += _SCALAR_WEIGHT[self.tag]
        return SimPoint(self.tag, self.log * (scalar % _R))

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimPoint):
            return NotImplemented
        return self.tag == other.tag and self.log == other.log

    def __hash__(self) -> int:
        return hash((self.tag, self.log))

    def __repr__(self) -> str:
        return f"Sim{self.tag}({self.log})"


def sim_generator(tag: str) -> SimPoint:
    return SimPoint(tag, 1)


def sim_pairing(p: SimPoint, q: SimPoint) -> SimPoint:
    """Bilinear map: ``e(g1^a, g2^b) = gt^(a*b)``."""
    if p.tag != G1_TAG or q.tag != G2_TAG:
        raise ValueError(f"pairing expects (G1, G2), got ({p.tag}, {q.tag})")
    global_counter().pairing += 1
    return SimPoint(GT_TAG, p.log * q.log)


def sim_msm(
    points: Sequence[SimPoint],
    scalars: Sequence[int],
    tag: str = None,
) -> SimPoint:
    """MSM over the simulated group (cost counted like Pippenger).

    The arithmetic shortcut is a dot product of logs; the counters are
    charged what a bucketed MSM of this size would cost on the real curve so
    that the latency model sees realistic security-computation cost.

    The empty MSM is the group identity; since there is no point to read a
    tag from, callers must supply ``tag`` to get it.
    """
    if len(points) != len(scalars):
        raise ValueError(
            f"points/scalars length mismatch: {len(points)} vs {len(scalars)}"
        )
    if not points:
        if tag is None:
            raise ValueError("empty sim_msm needs tag= to return identity")
        return SimPoint(tag, 0)
    from repro.ec.msm import pick_window

    tag = points[0].tag
    n = len(points)
    window = pick_window(n)
    pippenger_adds = (256 // window) * (n + 2**window)
    global_counter().group_add += _ADD_WEIGHT[tag] * pippenger_adds
    acc = 0
    for point, scalar in zip(points, scalars):
        if point.tag != tag:
            raise ValueError("mixed group tags in msm")
        acc += point.log * (scalar % _R)
    return SimPoint(tag, acc)


class SimFixedBaseTable:
    """Simulated analogue of :class:`repro.ec.engine.FixedBaseTable`.

    Stores the base logs once and tracks ``uses`` so the serving layer can
    assert CRS tables are reused across jobs.  The counters are charged
    the *fixed-base* cost — bucket additions only, no doubling chain and a
    single fold — which is what the latency model should see once the
    shifted-window tables exist.
    """

    def __init__(self, points: Sequence[SimPoint], tag: str = None) -> None:
        if points:
            tag = points[0].tag
        elif tag is None:
            raise ValueError("empty table needs tag= for its identity")
        self.tag = tag
        self.logs = [p.log for p in points]
        self.n = len(self.logs)
        self.uses = 0

    def msm(self, scalars: Sequence[int]) -> SimPoint:
        if len(scalars) > self.n:
            raise ValueError(
                f"{len(scalars)} scalars for a table of {self.n} points"
            )
        self.uses += 1
        from repro.ec.msm import pick_window

        window = pick_window(max(self.n, 1), signed=True)
        fixed_base_adds = (256 // window) * max(self.n, 1) + 2 ** (window - 1)
        global_counter().group_add += _ADD_WEIGHT[self.tag] * fixed_base_adds
        acc = 0
        for log, scalar in zip(self.logs, scalars):
            acc += log * (scalar % _R)
        return SimPoint(self.tag, acc)
