"""Group backends: one API over the real BN254 curve and the simulated group.

The SNARK layer (:mod:`repro.snark`) programs exclusively against
:class:`GroupBackend`; swapping ``RealBN254Backend`` for
``SimulatedBackend`` changes only the per-operation constant factor (and
cryptographic hardness — see :mod:`repro.ec.simulated`), never the algebra.

On the real curve every point operation runs through the one curve engine
(:mod:`repro.ec.engine`), the same code for G1 and G2 at any input size:

* ``scalar_mul`` — Jacobian double-and-add, one inversion at the end;
* ``msm`` — the signed-window batch-affine MSM; a chunked proving-key
  query streams one chunk at a time, and ``parallelism > 1`` splits large
  MSMs across processes.  The empty MSM returns the group identity
  (``zero=`` names which one);
* ``precompute_msm`` — a :class:`~repro.ec.engine.FixedBaseTable` the
  serving layer builds once per proving key and queries on every proof.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Optional, Sequence, Tuple

from repro.field.fp import BN254_FR, Field
from repro.ec import bn254, engine
from repro.ec.simulated import (
    G1_TAG,
    G2_TAG,
    GT_TAG,
    SimFixedBaseTable,
    SimPoint,
    sim_generator,
    sim_msm,
    sim_pairing,
)

GroupElement = Any  # Point | SimPoint


class GroupBackend(ABC):
    """Bilinear group operations required by Groth16."""

    name: str = "abstract"
    scalar_field: Field = BN254_FR

    @abstractmethod
    def g1_generator(self) -> GroupElement: ...

    @abstractmethod
    def g2_generator(self) -> GroupElement: ...

    @abstractmethod
    def g1_zero(self) -> GroupElement: ...

    @abstractmethod
    def g2_zero(self) -> GroupElement: ...

    @abstractmethod
    def add(self, a: GroupElement, b: GroupElement) -> GroupElement: ...

    @abstractmethod
    def neg(self, a: GroupElement) -> GroupElement: ...

    @abstractmethod
    def scalar_mul(self, a: GroupElement, k: int) -> GroupElement: ...

    @abstractmethod
    def msm(
        self,
        points: Sequence[GroupElement],
        scalars: Sequence[int],
        *,
        zero: Optional[GroupElement] = None,
        parallelism: Optional[int] = None,
        window: Optional[int] = None,
    ) -> GroupElement:
        """``sum scalars[i] * points[i]``; the identity on empty input.

        ``zero`` names the identity returned for an empty vector (default
        G1 — the only group Groth16 issues possibly-empty MSMs in).
        ``parallelism > 1`` opts into the chunked process-parallel engine
        where the backend supports it.
        """

    @abstractmethod
    def pairing_product_is_one(
        self, pairs: Sequence[Tuple[GroupElement, GroupElement]]
    ) -> bool:
        """Check ``prod e(P_i, Q_i) == 1`` — the Groth16 verify primitive."""

    def _msm_chunked(
        self,
        points,
        scalars: Sequence[int],
        *,
        zero: Optional[GroupElement] = None,
        parallelism: Optional[int] = None,
        window: Optional[int] = None,
    ) -> GroupElement:
        """MSM over a chunked query: one decoded chunk in memory at a time.

        Partial sums per chunk combine with plain group additions (MSM is
        linear in the points), so the result — and therefore proof bytes —
        match the one-shot path exactly.
        """
        if len(points) != len(scalars):
            raise ValueError(
                f"points/scalars length mismatch: "
                f"{len(points)} vs {len(scalars)}"
            )
        acc: Optional[GroupElement] = None
        for offset, chunk in points.iter_chunks():
            part = self.msm(
                chunk,
                scalars[offset : offset + len(chunk)],
                zero=zero,
                parallelism=parallelism,
                window=window,
            )
            acc = part if acc is None else self.add(acc, part)
        if acc is None:
            return zero if zero is not None else self.g1_zero()
        return acc

    def precompute_msm(
        self,
        points: Sequence[GroupElement],
        zero: Optional[GroupElement] = None,
    ):
        """Build a reusable fixed-base MSM table over ``points``.

        The returned object exposes ``msm(scalars)`` (accepting *up to*
        ``len(points)`` scalars; missing ones count as zero) and a ``uses``
        counter of completed queries.  ``zero`` names the group of an
        empty vector.
        """
        raise NotImplementedError

    def sub(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return self.add(a, self.neg(b))


def _engine_of(points, zero) -> "engine.CurveEngine":
    """The curve engine of a point vector (list or chunked query); an
    empty vector belongs to the group of ``zero``, G1 by default."""
    kind = getattr(points, "kind", None)  # a chunked query's "g1" / "g2"
    if kind is not None:
        group = bn254.BN254_G2 if kind == "g2" else bn254.BN254_G1
    elif len(points):
        group = points[0].group
    else:
        group = zero.group if zero is not None else bn254.BN254_G1
    return engine.engine_for(group)


class RealBN254Backend(GroupBackend):
    """Operations on the genuine BN254 curve with the optimal-ate pairing."""

    name = "bn254"

    def g1_generator(self) -> GroupElement:
        return bn254.BN254_G1.generator

    def g2_generator(self) -> GroupElement:
        return bn254.BN254_G2.generator

    def g1_zero(self) -> GroupElement:
        return bn254.BN254_G1.infinity()

    def g2_zero(self) -> GroupElement:
        return bn254.BN254_G2.infinity()

    def add(self, a, b):
        return a.group.add(a, b)

    def neg(self, a):
        return a.group.neg(a)

    def scalar_mul(self, a, k: int):
        return engine.engine_for(a.group).scalar_mul(a, k)

    def msm(self, points, scalars, *, zero=None, parallelism=None, window=None):
        if len(points) != len(scalars):
            raise ValueError(
                f"points/scalars length mismatch: "
                f"{len(points)} vs {len(scalars)}"
            )
        if not points:
            return zero if zero is not None else self.g1_zero()
        curve = _engine_of(points, zero)
        if hasattr(points, "iter_chunks"):
            return curve.msm_streamed(points.iter_chunks(), scalars, window)
        return curve.msm(points, scalars, window, parallelism)

    def precompute_msm(self, points, zero=None):
        return engine.FixedBaseTable(_engine_of(points, zero), points)

    def pairing_product_is_one(self, pairs) -> bool:
        return bn254.pairing_product_is_one(tuple(pairs))


class SimulatedBackend(GroupBackend):
    """Exponent-tracking group; identical algebra, cheap operations."""

    name = "simulated"

    def g1_generator(self) -> GroupElement:
        return sim_generator(G1_TAG)

    def g2_generator(self) -> GroupElement:
        return sim_generator(G2_TAG)

    def g1_zero(self) -> GroupElement:
        return SimPoint(G1_TAG, 0)

    def g2_zero(self) -> GroupElement:
        return SimPoint(G2_TAG, 0)

    def add(self, a: SimPoint, b: SimPoint) -> SimPoint:
        return a + b

    def neg(self, a: SimPoint) -> SimPoint:
        return -a

    def scalar_mul(self, a: SimPoint, k: int) -> SimPoint:
        return a * k

    def msm(self, points, scalars, *, zero=None, parallelism=None, window=None):
        # parallelism/window shape the modeled real-curve cost, not the
        # log-space dot product, so they are accepted and ignored here.
        if hasattr(points, "iter_chunks"):
            return self._msm_chunked(points, scalars, zero=zero)
        if not points:
            return zero if zero is not None else self.g1_zero()
        return sim_msm(points, scalars)

    def precompute_msm(self, points, zero=None):
        tag = zero.tag if zero is not None else G1_TAG
        return SimFixedBaseTable(points, tag=tag)

    def pairing_product_is_one(self, pairs) -> bool:
        acc = 0
        for p, q in pairs:
            acc += sim_pairing(p, q).log
        return acc % BN254_FR.modulus == 0
