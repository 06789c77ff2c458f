"""Benchmark-side tracing: a :class:`GroupBackend` wrapper and its span log.

:class:`TracingBackend` delegates every operation, unchanged, to the
backend it wraps (``RealBN254Backend`` or ``SimulatedBackend``) and times
each ``scalar_mul``, ``msm`` and ``pairing_product_is_one`` call into the
current :class:`Phase`.  The benchmark opens a phase around each call into
``groth16.setup`` / ``prove`` / ``verify``; the phase's wall time minus
its child spans is the layer's unattributed self time.

Inside a ``prove`` phase the five proving MSMs are labelled by call
order, which ``groth16.prove`` fixes: ``a``, ``b_g2``, ``b_g1``, ``l``,
``h``.  Any other MSM (the public-input MSM of verification) is ``ic``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from repro.ec.backend import GroupBackend

PROVE_MSM_ORDER = ("a", "b_g2", "b_g1", "l", "h")


class Phase:
    """Spans of one call into the SNARK layer, summed per span name."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.wall = 0.0
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.units: Dict[str, int] = {}  # nonzero scalars, pairs
        self.bookkeeping = 0.0  # tracer time inside the phase, not a span
        self._msms = 0

    def add(self, key: str, seconds: float, units: int = 0) -> None:
        self.seconds[key] = self.seconds.get(key, 0.0) + seconds
        self.calls[key] = self.calls.get(key, 0) + 1
        self.units[key] = self.units.get(key, 0) + units

    def next_msm_label(self) -> str:
        label = "ic"
        if self.name == "prove" and self._msms < len(PROVE_MSM_ORDER):
            label = PROVE_MSM_ORDER[self._msms]
        self._msms += 1
        return label

    def unattributed(self, other_children: float = 0.0) -> float:
        """Wall time covered by no span, net of the tracer's own time."""
        return (
            self.wall - sum(self.seconds.values()) - self.bookkeeping
            - other_children
        )


class SpanLog:
    """Holds the open phase; spans outside any phase are dropped."""

    def __init__(self) -> None:
        self.current: Optional[Phase] = None

    @contextmanager
    def phase(self, name: str) -> Iterator[Phase]:
        phase = Phase(name)
        outer, self.current = self.current, phase
        began = time.perf_counter()
        try:
            yield phase
        finally:
            phase.wall = time.perf_counter() - began
            self.current = outer


def _group_key(point):
    # Real points carry their curve group; simulated points a tag string.
    group = getattr(point, "group", None)
    return group if group is not None else point.tag


class TracingBackend(GroupBackend):
    """Delegating backend that records spans into a :class:`SpanLog`."""

    def __init__(self, inner: GroupBackend, log: SpanLog) -> None:
        self.inner = inner
        self.log = log
        # Same name and field as the wrapped backend, so keys and proofs
        # serialize byte-identically.
        self.name = inner.name
        self.scalar_field = inner.scalar_field
        self._g2 = _group_key(inner.g2_generator())

    def _record(
        self, key: str, began: float, ended: float, units: int = 0
    ) -> None:
        """Add the span ``[began, ended]``; the time spent here, after the
        span, is the phase's bookkeeping rather than unattributed time."""
        phase = self.log.current
        if phase is not None:
            phase.add(key, ended - began, units)
            phase.bookkeeping += time.perf_counter() - ended

    def g1_generator(self):
        return self.inner.g1_generator()

    def g2_generator(self):
        return self.inner.g2_generator()

    def g1_zero(self):
        return self.inner.g1_zero()

    def g2_zero(self):
        return self.inner.g2_zero()

    def add(self, a, b):
        return self.inner.add(a, b)

    def neg(self, a):
        return self.inner.neg(a)

    def scalar_mul(self, a, k: int):
        began = time.perf_counter()
        out = self.inner.scalar_mul(a, k)
        ended = time.perf_counter()
        group = "g2" if _group_key(a) == self._g2 else "g1"
        self._record(f"ec.scalar_mul.{group}", began, ended)
        return out

    def msm(self, points, scalars, *, zero=None, parallelism=None, window=None):
        began = time.perf_counter()
        out = self.inner.msm(
            points, scalars, zero=zero, parallelism=parallelism, window=window
        )
        ended = time.perf_counter()
        phase = self.log.current
        if phase is not None:
            self._record(
                f"ec.msm.{phase.next_msm_label()}", began, ended,
                sum(1 for s in scalars if s),
            )
        return out

    def precompute_msm(self, points, zero=None):
        return self.inner.precompute_msm(points, zero)

    def pairing_product_is_one(self, pairs) -> bool:
        pairs = list(pairs)
        began = time.perf_counter()
        out = self.inner.pairing_product_is_one(pairs)
        self._record("ec.pairing", began, time.perf_counter(), len(pairs))
        return out
