"""The curve engine: BN254 G1 and G2 point arithmetic, written once.

Every fast point operation of the real backend lives here, generic over a
small *coordinate-field ops* object with two instances:

* :data:`FQ_OPS` — Fq coordinates as raw ints (G1);
* :data:`FQ2_OPS` — Fq2 coordinates as raw ``(c0, c1)`` int pairs with
  ``u^2 = -1`` (G2).  Inversion goes through the norm ``c0^2 + c1^2``, so
  a whole batch of Fq2 inversions still costs one Fq inversion
  (:func:`repro.field.vector.batch_inverse`).

:class:`CurveEngine` builds on one ops object:

* Jacobian doubling, mixed and full addition (``a = 0`` formulas, no
  inversion; ``(X, Y, Z)`` represents affine ``(X/Z^2, Y/Z^3)``) and
  double-and-add scalar multiplication;
* batch normalization, Jacobian -> affine with one inversion per batch;
* the signed-window batch-affine MSM — one-shot, chunk-streamed and
  process-parallel.  Signed digits (:func:`repro.ec.msm.signed_digits`)
  halve the bucket count, since negating a point is free.  Each round of
  bucket reduction pairs up the points left in every bucket and inverts
  all the pair denominators with one batched inversion, which makes an
  affine addition cheaper than a Jacobian one;
* :class:`FixedBaseTable`, window-shifted multiples of a fixed point
  vector, so a CRS query costs one bucket pass with no doubling chain.

Input points are filtered first: identity points and zero scalars never
reach a bucket.  The affine :class:`~repro.ec.curve.CurveGroup` arithmetic
stays as the independent reference the tests compare against.
"""

from __future__ import annotations

import atexit
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.ec.bn254 import BN254_G1, BN254_G2
from repro.ec.curve import CurveGroup, Point
from repro.ec.msm import MAX_WINDOW, pick_window, signed_digits
from repro.ec.tower import FQ2
from repro.field.counters import count_ops, global_counter
from repro.field.fp import BN254_FQ, BN254_FQ_MODULUS
from repro.field.vector import batch_inverse

_Q = BN254_FQ_MODULUS

SCALAR_BITS = 254  # BN254 Fr scalars

# Below this many nonzero terms the pickling and IPC of the process-parallel
# MSM swamp the win, so ``msm(parallelism=...)`` runs inline.
PARALLEL_MIN = 256

Coord = Any  # int (Fq) | (int, int) (Fq2)
Affine = Tuple[Coord, Coord]
JPoint = Tuple[Coord, Coord, Coord]  # Z == 0 encodes the identity


class FqOps:
    """Fq coordinates as raw ints."""

    zero = 0
    one = 1

    @staticmethod
    def add(a: int, b: int) -> int:
        return (a + b) % _Q

    @staticmethod
    def sub(a: int, b: int) -> int:
        return (a - b) % _Q

    @staticmethod
    def neg(a: int) -> int:
        return -a % _Q

    @staticmethod
    def mul(a: int, b: int) -> int:
        return a * b % _Q

    @staticmethod
    def sqr(a: int) -> int:
        return a * a % _Q

    @staticmethod
    def scale(a: int, k: int) -> int:
        return a * k % _Q

    @staticmethod
    def inv(a: int) -> int:
        return pow(a, -1, _Q)

    @staticmethod
    def batch_inv(values: List[int]) -> List[int]:
        """Inverses with one field inversion; zero lanes come back zero."""
        return batch_inverse(BN254_FQ, values, zero_ok=True)

    @staticmethod
    def raw(c) -> int:
        return c.value

    @staticmethod
    def coord(a: int):
        return BN254_FQ(a)


class Fq2Ops:
    """Fq2 coordinates as raw ``(c0, c1)`` int pairs, ``u^2 = -1``."""

    zero = (0, 0)
    one = (1, 0)

    @staticmethod
    def add(a, b):
        return ((a[0] + b[0]) % _Q, (a[1] + b[1]) % _Q)

    @staticmethod
    def sub(a, b):
        return ((a[0] - b[0]) % _Q, (a[1] - b[1]) % _Q)

    @staticmethod
    def neg(a):
        return (-a[0] % _Q, -a[1] % _Q)

    @staticmethod
    def mul(a, b):
        a0, a1 = a
        b0, b1 = b
        t0 = a0 * b0
        t1 = a1 * b1
        return ((t0 - t1) % _Q, ((a0 + a1) * (b0 + b1) - t0 - t1) % _Q)

    @staticmethod
    def sqr(a):
        a0, a1 = a
        return ((a0 + a1) * (a0 - a1) % _Q, 2 * a0 * a1 % _Q)

    @staticmethod
    def scale(a, k: int):
        return (a[0] * k % _Q, a[1] * k % _Q)

    @staticmethod
    def inv(a):
        a0, a1 = a
        n = pow(a0 * a0 + a1 * a1, -1, _Q)
        return (a0 * n % _Q, -a1 * n % _Q)

    @staticmethod
    def batch_inv(values):
        """``1/a = conj(a) / norm(a)``: one batched Fq inversion of the
        norms serves every lane.  The norm of a nonzero element is nonzero
        (-1 is not a square in Fq), so only zero lanes come back zero."""
        norms = [(a0 * a0 + a1 * a1) % _Q for a0, a1 in values]
        invs = batch_inverse(BN254_FQ, norms, zero_ok=True)
        return [
            (a0 * n % _Q, -a1 * n % _Q) for (a0, a1), n in zip(values, invs)
        ]

    @staticmethod
    def raw(c):
        c0, c1 = c.coeffs
        return (c0, c1)

    @staticmethod
    def coord(a):
        return FQ2(a)


FQ_OPS = FqOps()
FQ2_OPS = Fq2Ops()


def _pick_fixed_base_window(n: int, bits: int = SCALAR_BITS) -> int:
    """Argmin of ``ceil(bits/c)·n + 2^(c-1)`` (single fold, no doublings)."""
    best_c, best_cost = 2, None
    for c in range(2, MAX_WINDOW + 1):
        cost = -(-bits // c) * max(n, 1) + (1 << (c - 1))
        if best_cost is None or cost < best_cost:
            best_c, best_cost = c, cost
    return best_c


class CurveEngine:
    """Jacobian and batch-affine arithmetic on one curve group."""

    def __init__(self, group: CurveGroup, ops) -> None:
        self.group = group
        self.ops = ops
        self.infinity: JPoint = (ops.one, ops.one, ops.zero)

    # -- conversions ---------------------------------------------------------

    def raw(self, p: Point) -> Affine:
        return (self.ops.raw(p.x), self.ops.raw(p.y))

    def point(self, a: Affine) -> Point:
        # Engine results lie on the curve by construction: no re-check.
        return Point(self.group, self.ops.coord(a[0]), self.ops.coord(a[1]))

    def to_jacobian(self, p: Point) -> JPoint:
        if p.inf:
            return self.infinity
        x, y = self.raw(p)
        return (x, y, self.ops.one)

    def to_affine(self, j: JPoint) -> Point:
        x, y, z = j
        F = self.ops
        if z == F.zero:
            return self.group.infinity()
        zi = F.inv(z)
        zi2 = F.sqr(zi)
        return self.point((F.mul(x, zi2), F.mul(y, F.mul(zi2, zi))))

    def batch_normalize(
        self, jacobians: Sequence[JPoint]
    ) -> List[Optional[Affine]]:
        """Jacobian -> affine for many points with one field inversion.

        Identity points (``z == 0``) come back as ``None``.
        """
        F = self.ops
        invs = F.batch_inv([z for _, _, z in jacobians])
        out: List[Optional[Affine]] = []
        for (x, y, z), zi in zip(jacobians, invs):
            if z == F.zero:
                out.append(None)
                continue
            zi2 = F.sqr(zi)
            out.append((F.mul(x, zi2), F.mul(y, F.mul(zi2, zi))))
        return out

    # -- Jacobian group law --------------------------------------------------

    def double(self, p: JPoint) -> JPoint:
        """Doubling with the a=0 shortcut (dbl-2009-l)."""
        x, y, z = p
        F = self.ops
        if z == F.zero or y == F.zero:
            return self.infinity
        sqr, sub, scale = F.sqr, F.sub, F.scale
        a = sqr(x)
        b = sqr(y)
        c = sqr(b)
        d = scale(sub(sub(sqr(F.add(x, b)), a), c), 2)
        e = scale(a, 3)
        x3 = sub(sqr(e), scale(d, 2))
        y3 = sub(F.mul(e, sub(d, x3)), scale(c, 8))
        z3 = scale(F.mul(y, z), 2)
        global_counter().group_add += 1
        return (x3, y3, z3)

    def add_mixed(self, p: JPoint, q: Affine) -> JPoint:
        """Jacobian ``p`` plus affine ``q`` (madd-2007-bl)."""
        x1, y1, z1 = p
        x2, y2 = q
        F = self.ops
        if z1 == F.zero:
            return (x2, y2, F.one)
        mul, sqr, sub, scale = F.mul, F.sqr, F.sub, F.scale
        z1z1 = sqr(z1)
        u2 = mul(x2, z1z1)
        s2 = mul(y2, mul(z1, z1z1))
        if u2 == x1:
            return self.double(p) if s2 == y1 else self.infinity
        h = sub(u2, x1)
        hh = sqr(h)
        i = scale(hh, 4)
        j = mul(h, i)
        r = scale(sub(s2, y1), 2)
        v = mul(x1, i)
        x3 = sub(sub(sqr(r), j), scale(v, 2))
        y3 = sub(mul(r, sub(v, x3)), scale(mul(y1, j), 2))
        z3 = sub(sub(sqr(F.add(z1, h)), z1z1), hh)
        global_counter().group_add += 1
        return (x3, y3, z3)

    def add(self, p: JPoint, q: JPoint) -> JPoint:
        """Full Jacobian addition (add-2007-bl)."""
        x1, y1, z1 = p
        x2, y2, z2 = q
        F = self.ops
        if z1 == F.zero:
            return q
        if z2 == F.zero:
            return p
        mul, sqr, sub, scale = F.mul, F.sqr, F.sub, F.scale
        z1z1 = sqr(z1)
        z2z2 = sqr(z2)
        u1 = mul(x1, z2z2)
        u2 = mul(x2, z1z1)
        s1 = mul(y1, mul(z2, z2z2))
        s2 = mul(y2, mul(z1, z1z1))
        if u1 == u2:
            return self.double(p) if s1 == s2 else self.infinity
        h = sub(u2, u1)
        i = scale(sqr(h), 4)
        j = mul(h, i)
        r = scale(sub(s2, s1), 2)
        v = mul(u1, i)
        x3 = sub(sub(sqr(r), j), scale(v, 2))
        y3 = sub(mul(r, sub(v, x3)), scale(mul(s1, j), 2))
        # z3 = ((z1+z2)^2 - z1^2 - z2^2) * h = 2 z1 z2 h
        z3 = mul(sub(sub(sqr(F.add(z1, z2)), z1z1), z2z2), h)
        global_counter().group_add += 1
        return (x3, y3, z3)

    def multiply(self, a: Affine, k: int) -> JPoint:
        """``k·a`` by double-and-add, most significant bit first.

        ``k`` is *not* reduced mod the group order, so ``multiply(a, r)``
        is the identity exactly when ``a`` lies in the order-``r`` subgroup.
        """
        if k < 0:
            raise ValueError("multiply expects a non-negative scalar")
        acc = self.infinity
        for bit in bin(k)[2:]:
            acc = self.double(acc)
            if bit == "1":
                acc = self.add_mixed(acc, a)
        return acc

    def scalar_mul(self, p: Point, k: int) -> Point:
        """``k·p`` with ``k`` reduced mod the group order."""
        k %= self.group.order
        if k == 0 or p.inf:
            return self.group.infinity()
        global_counter().group_scalar_mul += 1
        return self.to_affine(self.multiply(self.raw(p), k))

    def in_subgroup(self, p: Point) -> bool:
        """Whether ``r·p`` is the identity, ``r`` the prime group order."""
        if p.inf:
            return True
        return self.multiply(self.raw(p), self.group.order)[2] == self.ops.zero

    # -- batch-affine MSM ----------------------------------------------------

    def _batch_reduce(
        self, buckets: List[List[Affine]]
    ) -> List[Optional[Affine]]:
        """Reduce every bucket's point list to one point (or ``None``).

        Rounds of pairwise affine additions: each round pairs up the points
        remaining in every bucket, computes all pair denominators, inverts
        them with **one** field inversion across the whole bucket array,
        and applies the chord/tangent formulas.  A pair ``P, -P`` cancels:
        its denominator is zero, so its lane comes back zero from
        ``batch_inv`` and the slot is dropped after the sweep.  ``y == 0``
        cannot occur otherwise: the G1 curve and the whole G2 twist curve
        (cofactor included) have odd order, hence no 2-torsion, so a zero
        inverse *only* marks a cancelled pair.
        """
        F = self.ops
        zero = F.zero
        add, sub, mul, sqr, scale = F.add, F.sub, F.mul, F.sqr, F.scale
        total_adds = 0
        while any(len(lst) > 1 for lst in buckets):
            dens: List[Coord] = []
            # (out_list, slot, x1, y1, x2, numerator) per scheduled addition
            pending: List[tuple] = []
            for bi, lst in enumerate(buckets):
                m = len(lst)
                if m < 2:
                    continue
                out: List[Optional[Affine]] = []
                for i in range(0, m - 1, 2):
                    x1, y1 = lst[i]
                    x2, y2 = lst[i + 1]
                    if x1 != x2:
                        num, den = sub(y2, y1), sub(x2, x1)
                    else:
                        # Same x: P + (-P) (den = y1 + y2 = 0, the lane
                        # cancels) or a doubling with tangent slope 3x^2/2y.
                        num, den = scale(sqr(x1), 3), add(y1, y2)
                    pending.append((out, len(out), x1, y1, x2, num))
                    out.append(None)  # placeholder, filled after inversion
                    dens.append(den)
                if m & 1:
                    out.append(lst[-1])  # odd leftover rides to the next round
                buckets[bi] = out
            cancelled = []
            for (out, slot, x1, y1, x2, num), inv in zip(
                pending, F.batch_inv(dens)
            ):
                if inv == zero:
                    cancelled.append(out)
                    continue
                s = mul(num, inv)
                x3 = sub(sub(sqr(s), x1), x2)
                out[slot] = (x3, sub(mul(s, sub(x1, x3)), y1))
                total_adds += 1
            for out in cancelled:
                out[:] = [pt for pt in out if pt is not None]
        if total_adds:
            global_counter().group_add += total_adds
        return [lst[0] if lst else None for lst in buckets]

    def _sum_buckets(self, folded: Sequence[Optional[Affine]]) -> JPoint:
        """``sum_d d·B_d`` over reduced buckets by the running-sum trick."""
        zero = self.ops.zero
        running = total = self.infinity
        for b in reversed(folded):
            if b is not None:
                running = self.add_mixed(running, b)
            if running[2] != zero:
                total = self.add(total, running)
        return total

    def _msm_raw(
        self,
        affine: Sequence[Affine],
        reduced: Sequence[int],
        window: Optional[int] = None,
    ) -> JPoint:
        """Signed-window batch-affine MSM over raw affine points -> Jacobian."""
        c = window or pick_window(len(affine), signed=True)
        half = 1 << (c - 1)
        num_windows = -(-SCALAR_BITS // c) + 1  # +1 absorbs the digit carry
        digits = [signed_digits(s, c, num_windows) for s in reduced]
        neg = self.ops.neg
        zero = self.ops.zero
        total = self.infinity
        for w in range(num_windows - 1, -1, -1):
            if total[2] != zero:  # skip the doubling chain at the identity
                for _ in range(c):
                    total = self.double(total)
            buckets: List[List[Affine]] = [[] for _ in range(half)]
            for pt, ds in zip(affine, digits):
                d = ds[w]
                if d > 0:
                    buckets[d - 1].append(pt)
                elif d < 0:
                    buckets[-d - 1].append((pt[0], neg(pt[1])))
            total = self.add(total, self._sum_buckets(self._batch_reduce(buckets)))
        return total

    def _to_raw(
        self, points: Sequence[Point], scalars: Sequence[int]
    ) -> Tuple[List[Affine], List[int]]:
        """Reduce scalars mod r and drop identity points / zero scalars."""
        order = self.group.order
        affine: List[Affine] = []
        reduced: List[int] = []
        for p, s in zip(points, scalars):
            s %= order
            if s == 0 or p.inf:
                continue
            affine.append(self.raw(p))
            reduced.append(s)
        return affine, reduced

    def msm(
        self,
        points: Sequence[Point],
        scalars: Sequence[int],
        window: Optional[int] = None,
        parallelism: Optional[int] = None,
    ) -> Point:
        """``sum scalars[i]·points[i]``; the identity on empty input.

        ``parallelism > 1`` splits the terms across that many processes
        once there are at least :data:`PARALLEL_MIN` nonzero terms.
        """
        if len(points) != len(scalars):
            raise ValueError(
                f"points/scalars length mismatch: {len(points)} vs {len(scalars)}"
            )
        affine, reduced = self._to_raw(points, scalars)
        if not affine:
            return self.group.infinity()
        if parallelism and parallelism > 1 and len(affine) >= PARALLEL_MIN:
            total = self._msm_parallel(affine, reduced, parallelism, window)
        else:
            total = self._msm_raw(affine, reduced, window)
        return self.to_affine(total)

    def msm_streamed(
        self, chunks, scalars: Sequence[int], window: Optional[int] = None
    ) -> Point:
        """MSM over an ``(offset, points)`` chunk stream.

        The streamed-CRS path: each chunk is converted, reduced and
        released before the next is decoded, so the peak working set is
        one chunk plus a Jacobian accumulator.  MSM is linear in the
        points, so the per-chunk partial sums add up to the exact element
        the one-shot path computes (proof bytes are unchanged).
        """
        total = self.infinity
        for offset, chunk in chunks:
            affine, reduced = self._to_raw(
                chunk, scalars[offset : offset + len(chunk)]
            )
            if affine:
                total = self.add(total, self._msm_raw(affine, reduced, window))
        return self.to_affine(total)

    def _msm_parallel(
        self,
        affine: List[Affine],
        reduced: List[int],
        parallelism: int,
        window: Optional[int],
    ) -> JPoint:
        """Split the terms across processes and add the Jacobian partials.

        Worker op tallies are merged into this process's counters (fork
        would otherwise lose them).
        """
        workers = max(1, min(parallelism, len(affine)))
        step = -(-len(affine) // workers)
        payloads = [
            (self.group.name, affine[i : i + step], reduced[i : i + step], window)
            for i in range(0, len(affine), step)
        ]
        total = self.infinity
        counter = global_counter()
        for j, tally in _get_executor(workers).map(_parallel_chunk, payloads):
            total = self.add(total, j)
            counter.group_add += tally["group_add"]
            counter.field_mul += tally["field_mul"]
            counter.field_inv += tally["field_inv"]
        return total


G1 = CurveEngine(BN254_G1, FQ_OPS)
G2 = CurveEngine(BN254_G2, FQ2_OPS)

_ENGINES: Dict[str, CurveEngine] = {"G1": G1, "G2": G2}


def engine_for(group: CurveGroup) -> CurveEngine:
    """The engine of a BN254 group (G1 or G2)."""
    return _ENGINES[group.name]


# -- process-parallel chunks ---------------------------------------------------

# One cached executor per worker count; proving services issue many MSMs
# per session, so re-forking the pool on every call would dominate.
_EXECUTORS: Dict[int, ProcessPoolExecutor] = {}


def _mp_context():
    # fork keeps chunk dispatch cheap (no re-import of the repro package);
    # platforms without fork fall back to their default start method.
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _get_executor(workers: int) -> ProcessPoolExecutor:
    pool = _EXECUTORS.get(workers)
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=_mp_context())
        _EXECUTORS[workers] = pool
    return pool


def shutdown_parallel_pools() -> None:
    """Tear down cached chunk executors (tests / interpreter exit)."""
    for pool in _EXECUTORS.values():
        pool.shutdown(wait=False, cancel_futures=True)
    _EXECUTORS.clear()


atexit.register(shutdown_parallel_pools)


def _parallel_chunk(payload):
    """Worker entry: batch-affine MSM over one chunk, with its op tally."""
    group_name, affine, reduced, window = payload
    with count_ops() as ops:
        j = _ENGINES[group_name]._msm_raw(affine, reduced, window)
    return j, {
        "group_add": ops.group_add,
        "field_mul": ops.field_mul,
        "field_inv": ops.field_inv,
    }


# -- fixed-base tables ---------------------------------------------------------


class FixedBaseTable:
    """Window-shifted multiples of a fixed point vector.

    Every Groth16 proof in a serving session multiplies *the same* CRS
    query vectors by fresh witness scalars.  Precomputing the shifted
    bases ``2^(c·j) · P_i`` once turns each later MSM into one bucket
    pass: no doubling chain between windows, and **one** bucket fold for
    the whole MSM, because bucket ``d`` accumulates ``2^(c·j) P_i`` over
    every ``(i, j)`` whose digit is ``d``.  Build cost is ``bits``
    doublings per point, paid once per CRS.

    ``uses`` counts completed queries so the serving layer can assert
    tables are actually reused across jobs (telemetry, not security).
    """

    def __init__(
        self,
        engine: CurveEngine,
        points: Sequence[Point],
        window: Optional[int] = None,
        bits: int = SCALAR_BITS,
    ) -> None:
        self.engine = engine
        self.n = len(points)
        self.window = window or _pick_fixed_base_window(self.n, bits)
        self.num_windows = -(-bits // self.window) + 1  # +1 for digit carry
        self.uses = 0
        current: List[Optional[Affine]] = [
            None if p.inf else engine.raw(p) for p in points
        ]
        # shifted[j][i] == 2^(window*j) * points[i], affine or None.
        self.shifted: List[List[Optional[Affine]]] = [current]
        one = engine.ops.one
        for _ in range(self.num_windows - 1):
            jacs: List[JPoint] = []
            for pt in current:
                j = engine.infinity if pt is None else (pt[0], pt[1], one)
                for _ in range(self.window):
                    j = engine.double(j)
                jacs.append(j)
            current = engine.batch_normalize(jacs)
            self.shifted.append(current)

    def msm(self, scalars: Sequence[int]) -> Point:
        """MSM against the fixed bases; ``len(scalars)`` may be < n.

        Missing trailing scalars are treated as zero (the prover's
        quotient vector is often shorter than ``h_query``).
        """
        if len(scalars) > self.n:
            raise ValueError(
                f"{len(scalars)} scalars for a table of {self.n} points"
            )
        self.uses += 1
        engine = self.engine
        neg = engine.ops.neg
        order = engine.group.order
        c = self.window
        buckets: List[List[Affine]] = [[] for _ in range(1 << (c - 1))]
        for i, s in enumerate(scalars):
            s %= order
            if s == 0:
                continue
            for j, d in enumerate(signed_digits(s, c, self.num_windows)):
                if d == 0:
                    continue
                pt = self.shifted[j][i]
                if pt is None:
                    continue
                if d > 0:
                    buckets[d - 1].append(pt)
                else:
                    buckets[-d - 1].append((pt[0], neg(pt[1])))
        folded = engine._batch_reduce(buckets)
        return engine.to_affine(engine._sum_buckets(folded))
