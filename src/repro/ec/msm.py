"""MSM helpers shared by the curve engine, plus the naive reference MSM.

Security computation in Groth16 is dominated by MSMs: the prover computes
``sum_i w_i * G_i`` over the witness (size ``n``) and over the QAP quotient
coefficients (size ``m``).  The paper's observation that proof latency is
proportional to ``n`` and ``m`` (§2.1) is precisely the MSM size.

The engine itself — one signed-window batch-affine MSM for G1 and G2 —
lives in :mod:`repro.ec.engine`.  This module holds what it shares with
the simulated group's cost model and the tests:

* :func:`pick_window` — window size chosen by the ``(bits/c)·(n + B_c)``
  cost model, where ``B_c`` is the bucket count of the variant;
* :func:`signed_digits` — wNAF-style signed ``c``-bit digit decomposition,
  which halves the bucket count (digits in ``[-2^(c-1), 2^(c-1)]``);
* :func:`msm_naive` — double-and-add over the affine
  :class:`~repro.ec.curve.CurveGroup` law, the independent reference the
  engine is tested against.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.ec.curve import CurveGroup, Point

# Hard cap on the window size.  The old heuristic clamped at 16, which
# allocates 65,535 bucket slots per window for large MSMs; past ~13 the
# cost model's marginal gain is tiny while the per-window bucket sweep and
# allocation dominate, so we bound the search here (8,191 slots max).
MAX_WINDOW = 13


def pick_window(n: int, bits: int = 254, signed: bool = False) -> int:
    """Window size minimizing the ``(bits/c) * (n + buckets)`` cost model.

    ``buckets`` is ``2^c - 1`` for the unsigned bucketing and ``2^(c-1)``
    when signed digits halve the bucket count.  The argmin stays near 13
    for any practical ``n`` (the old ``min(16, log2 n - 2)`` clamp kept
    growing and allocated 65,535 slots per window for n >= 2^18).
    """
    if n < 4:
        return 2
    best_c = 2
    best_cost = None
    for c in range(2, MAX_WINDOW + 1):
        buckets = (1 << (c - 1)) if signed else (1 << c) - 1
        cost = -(-bits // c) * (n + buckets)
        if best_cost is None or cost < best_cost:
            best_c, best_cost = c, cost
    return best_c


def signed_digits(scalar: int, c: int, num_windows: int) -> List[int]:
    """Signed ``c``-bit digit decomposition of a non-negative scalar.

    Returns ``num_windows`` digits ``d_j`` in ``[-(2^(c-1) - 1), 2^(c-1)]``
    with ``scalar == sum_j d_j * 2^(c*j)``.  Callers must size
    ``num_windows`` to absorb the final carry (``ceil(bits/c) + 1``).
    """
    mask = (1 << c) - 1
    half = 1 << (c - 1)
    digits = [0] * num_windows
    carry = 0
    for j in range(num_windows):
        d = ((scalar >> (j * c)) & mask) + carry
        if d > half:
            d -= 1 << c
            carry = 1
        else:
            carry = 0
        digits[j] = d
    if carry:
        raise ValueError(f"scalar too large for {num_windows} {c}-bit digits")
    return digits


def msm_naive(
    points: Sequence[Point],
    scalars: Sequence[int],
    group: Optional[CurveGroup] = None,
) -> Point:
    """Reference double-and-add MSM used to cross-check the engines."""
    if len(points) != len(scalars):
        raise ValueError(
            f"points/scalars length mismatch: {len(points)} vs {len(scalars)}"
        )
    if not points:
        # The empty sum is the identity, but of which group?
        if group is None:
            raise ValueError(
                "msm_naive over an empty vector needs group= to return identity"
            )
        return group.infinity()
    group = points[0].group
    acc = group.infinity()
    for point, scalar in zip(points, scalars):
        acc = group.add(acc, group.scalar_mul(point, scalar))
    return acc
