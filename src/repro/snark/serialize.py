"""Proof and key serialization: compressed point encodings.

A deployed verifier (the paper's door lock, the World ID server) receives
proofs over the wire, so the library ships canonical byte encodings:

* **G1** — 32-byte big-endian x-coordinate plus a flag byte (y parity /
  infinity), 33 bytes total; y is recovered as a square root of
  ``x^3 + 3`` (BN254's base prime is 3 mod 4, so ``sqrt(a) = a^((q+1)/4)``).
* **G2** — 64-byte Fq2 x-coordinate plus a flag byte, 65 bytes total; the
  Fq2 square root uses the standard two-step norm method.
* **Proof** — ``A || B || C`` = 33 + 65 + 33 = 131 bytes (the "fixed-size
  proof" of §2.1; the paper's 192-byte figure is BLS12-381's point sizes).
* **SimPoint** — tag byte plus the 32-byte exponent (simulated backend).

All encodings round-trip exactly and reject off-curve inputs.  BN254 G2
has a cofactor: the twist curve holds points of other orders, so the
decoders of what a verifier receives — proofs and verifying keys — also
reject G2 points outside the order-``r`` subgroup.
"""

from __future__ import annotations

from typing import Optional

from repro.ec.bn254 import BN254_G1, BN254_G2
from repro.ec.curve import Point
from repro.ec.engine import G2 as _G2_ENGINE
from repro.ec.simulated import G1_TAG, G2_TAG, GT_TAG, SimPoint
from repro.ec.tower import FQ2
from repro.field.fp import BN254_FQ, BN254_FQ_MODULUS, BN254_FR_MODULUS
from repro.snark.proof import Proof

_Q = BN254_FQ_MODULUS
_R = BN254_FR_MODULUS

FLAG_INFINITY = 0x40
FLAG_Y_ODD = 0x01

_SIM_TAGS = {G1_TAG: 0x01, G2_TAG: 0x02, GT_TAG: 0x03}
_SIM_TAGS_REV = {v: k for k, v in _SIM_TAGS.items()}


class SerializationError(ValueError):
    """Raised on malformed, off-curve, or non-canonical encodings."""


def _check_flag(flag: int, what: str) -> None:
    # Encodings are canonical: decode-success implies the re-serialized
    # bytes are identical.  Stray flag bits would survive a round trip as
    # a second encoding of the same point, so they are rejected outright.
    if flag & ~(FLAG_INFINITY | FLAG_Y_ODD):
        raise SerializationError(f"{what} flag byte has unknown bits set")
    if flag & FLAG_INFINITY and flag & FLAG_Y_ODD:
        raise SerializationError(f"{what} infinity flag with parity bit set")


# -- square roots ------------------------------------------------------------------


def sqrt_fq(a: int) -> Optional[int]:
    """Square root in Fq (q = 3 mod 4): ``a^((q+1)/4)``, or None."""
    a %= _Q
    root = pow(a, (_Q + 1) // 4, _Q)
    return root if (root * root) % _Q == a else None


def sqrt_fq2(a: FQ2) -> Optional[FQ2]:
    """Square root in Fq2 via the norm method.

    For ``a = x + y*u`` with ``u^2 = -1``: the norm ``N = x^2 + y^2`` must
    be a square in Fq; then ``c = sqrt((x + sqrt(N)) / 2)`` (trying both
    signs of sqrt(N)) gives ``sqrt(a) = c + (y / 2c) u``.
    """
    if not a:
        return FQ2.zero()
    x, y = a.coeffs
    if y == 0:
        # Purely real: either sqrt(x) exists in Fq, or sqrt(-x)*u works.
        root = sqrt_fq(x)
        if root is not None:
            return FQ2([root, 0])
        root = sqrt_fq(-x % _Q)
        if root is not None:
            return FQ2([0, root])
        return None
    norm_root = sqrt_fq((x * x + y * y) % _Q)
    if norm_root is None:
        return None
    inv2 = pow(2, -1, _Q)
    for sign in (norm_root, (-norm_root) % _Q):
        c_sq = ((x + sign) * inv2) % _Q
        c = sqrt_fq(c_sq)
        if c is None or c == 0:
            continue
        d = (y * pow(2 * c, -1, _Q)) % _Q
        candidate = FQ2([c, d])
        if candidate * candidate == a:
            return candidate
    return None


# -- G1 ---------------------------------------------------------------------------


def serialize_g1(p: Point) -> bytes:
    if p.inf:
        return bytes([FLAG_INFINITY]) + b"\x00" * 32
    flag = FLAG_Y_ODD if p.y.value & 1 else 0
    return bytes([flag]) + p.x.value.to_bytes(32, "big")


def deserialize_g1(data: bytes) -> Point:
    if len(data) != 33:
        raise SerializationError(f"G1 encoding must be 33 bytes, got {len(data)}")
    flag = data[0]
    _check_flag(flag, "G1")
    if flag & FLAG_INFINITY:
        if any(data[1:]):
            raise SerializationError("G1 infinity with nonzero coordinate")
        return BN254_G1.infinity()
    x = int.from_bytes(data[1:], "big")
    if x >= _Q:
        raise SerializationError("G1 x-coordinate out of field range")
    y = sqrt_fq((pow(x, 3, _Q) + 3) % _Q)
    if y is None:
        raise SerializationError("G1 x-coordinate not on curve")
    if (y & 1) != (flag & FLAG_Y_ODD):
        y = (-y) % _Q
    return BN254_G1.point(BN254_FQ(x), BN254_FQ(y))


# -- G2 ---------------------------------------------------------------------------


def serialize_g2(p: Point) -> bytes:
    if p.inf:
        return bytes([FLAG_INFINITY]) + b"\x00" * 64
    c0, c1 = p.y.coeffs
    parity = (c0 if c0 else c1) & 1
    flag = FLAG_Y_ODD if parity else 0
    x0, x1 = p.x.coeffs
    return bytes([flag]) + x0.to_bytes(32, "big") + x1.to_bytes(32, "big")


def deserialize_g2(data: bytes) -> Point:
    if len(data) != 65:
        raise SerializationError(f"G2 encoding must be 65 bytes, got {len(data)}")
    flag = data[0]
    _check_flag(flag, "G2")
    if flag & FLAG_INFINITY:
        if any(data[1:]):
            raise SerializationError("G2 infinity with nonzero coordinate")
        return BN254_G2.infinity()
    x0 = int.from_bytes(data[1:33], "big")
    x1 = int.from_bytes(data[33:], "big")
    if x0 >= _Q or x1 >= _Q:
        raise SerializationError("G2 x-coordinate out of field range")
    x = FQ2([x0, x1])
    y = sqrt_fq2(x * x * x + BN254_G2.b)
    if y is None:
        raise SerializationError("G2 x-coordinate not on curve")
    c0, c1 = y.coeffs
    parity = (c0 if c0 else c1) & 1
    if parity != (flag & FLAG_Y_ODD):
        y = -y
    return BN254_G2.point(x, y)


def _checked_g2(data: bytes) -> Point:
    """Decode a G2 point a verifier receives: on the curve *and* in the
    order-``r`` subgroup.  Pairing a point of another order breaks the
    Groth16 soundness argument, and the twist curve has many of them."""
    p = deserialize_g2(data)
    if not _G2_ENGINE.in_subgroup(p):
        raise SerializationError("G2 point outside the prime-order subgroup")
    return p


# -- simulated points ----------------------------------------------------------------


def serialize_sim(p: SimPoint) -> bytes:
    return bytes([_SIM_TAGS[p.tag]]) + p.log.to_bytes(32, "big")


def deserialize_sim(data: bytes) -> SimPoint:
    if len(data) != 33:
        raise SerializationError(f"SimPoint encoding must be 33 bytes")
    tag = _SIM_TAGS_REV.get(data[0])
    if tag is None:
        raise SerializationError(f"unknown simulated group tag {data[0]:#x}")
    log = int.from_bytes(data[1:], "big")
    if log >= _R:
        # SimPoint reduces its exponent mod r on construction, so a log
        # >= r would decode fine but re-serialize to different bytes —
        # a non-canonical second encoding of the same point.
        raise SerializationError("SimPoint exponent out of scalar-field range")
    return SimPoint(tag, log)


# -- proofs ---------------------------------------------------------------------------


def serialize_proof(proof: Proof) -> bytes:
    """``A || B || C``; dispatches on the element type."""
    if isinstance(proof.a, SimPoint):
        return (
            serialize_sim(proof.a)
            + serialize_sim(proof.b)
            + serialize_sim(proof.c)
        )
    return (
        serialize_g1(proof.a) + serialize_g2(proof.b) + serialize_g1(proof.c)
    )


def serialize_verifying_key(vk) -> bytes:
    """Canonical verifying-key encoding (real-curve backend).

    Layout: ``alpha_G1 || beta_G2 || gamma_G2 || delta_G2 || u32(len(IC))
    || IC...`` — everything the verifier needs, 196 + 33*len(IC) bytes.
    """
    if isinstance(vk.alpha_g1, SimPoint):
        parts = [
            serialize_sim(vk.alpha_g1),
            serialize_sim(vk.beta_g2),
            serialize_sim(vk.gamma_g2),
            serialize_sim(vk.delta_g2),
            len(vk.ic_g1).to_bytes(4, "big"),
        ]
        parts.extend(serialize_sim(p) for p in vk.ic_g1)
        return b"".join(parts)
    parts = [
        serialize_g1(vk.alpha_g1),
        serialize_g2(vk.beta_g2),
        serialize_g2(vk.gamma_g2),
        serialize_g2(vk.delta_g2),
        len(vk.ic_g1).to_bytes(4, "big"),
    ]
    parts.extend(serialize_g1(p) for p in vk.ic_g1)
    return b"".join(parts)


def deserialize_verifying_key(data: bytes):
    """Inverse of :func:`serialize_verifying_key` (dispatches on length)."""
    from repro.snark.keys import VerifyingKey

    sim_header = 4 * 33 + 4
    real_header = 33 + 3 * 65 + 4

    # Dispatch on exact layout consistency, not the first byte alone: a
    # real-curve alpha with an odd y serializes with flag 0x01, which
    # collides with the sim G1 tag.  The recorded IC count pins the total
    # length (136 + 33k vs 232 + 33k differ mod 33), so at most one
    # layout can match.
    def _sim_layout() -> bool:
        if len(data) < sim_header or data[0] not in _SIM_TAGS_REV:
            return False
        count = int.from_bytes(data[132:136], "big")
        return len(data) == sim_header + 33 * count

    if _sim_layout():
        alpha = deserialize_sim(data[:33])
        beta = deserialize_sim(data[33:66])
        gamma = deserialize_sim(data[66:99])
        delta = deserialize_sim(data[99:132])
        count = int.from_bytes(data[132:136], "big")
        offset = 136
        ic = []
        for _ in range(count):
            ic.append(deserialize_sim(data[offset : offset + 33]))
            offset += 33
        if offset != len(data):
            raise SerializationError("trailing bytes in verifying key")
        return VerifyingKey(
            alpha_g1=alpha, beta_g2=beta, gamma_g2=gamma, delta_g2=delta,
            ic_g1=ic, backend_name="simulated",
        )
    if len(data) < real_header:
        raise SerializationError("verifying key too short")
    alpha = deserialize_g1(data[:33])
    beta = _checked_g2(data[33:98])
    gamma = _checked_g2(data[98:163])
    delta = _checked_g2(data[163:228])
    count = int.from_bytes(data[228:232], "big")
    offset = 232
    ic = []
    for _ in range(count):
        ic.append(deserialize_g1(data[offset : offset + 33]))
        offset += 33
    if offset != len(data):
        raise SerializationError("trailing bytes in verifying key")
    return VerifyingKey(
        alpha_g1=alpha, beta_g2=beta, gamma_g2=gamma, delta_g2=delta,
        ic_g1=ic, backend_name="bn254",
    )


_PK_SIM = 0x01
_PK_REAL = 0x02


def serialize_proving_key(pk) -> bytes:
    """Canonical proving-key encoding (both backends).

    Layout: ``format_byte || u32(domain_size) || u32(num_public) ||
    alpha_G1 || beta_G1 || beta_G2 || delta_G1 || delta_G2`` followed by
    the five query lists (a/b_G1/b_G2/l/h), each ``u32(len) || points...``.
    The artifact store uses this so a restarted serving worker can reload
    a CRS instead of re-running trusted setup.
    """
    sim = isinstance(pk.alpha_g1, SimPoint)
    enc1 = serialize_sim if sim else serialize_g1
    enc2 = serialize_sim if sim else serialize_g2
    parts = [
        bytes([_PK_SIM if sim else _PK_REAL]),
        pk.domain_size.to_bytes(4, "big"),
        pk.num_public.to_bytes(4, "big"),
        enc1(pk.alpha_g1),
        enc1(pk.beta_g1),
        enc2(pk.beta_g2),
        enc1(pk.delta_g1),
        enc2(pk.delta_g2),
    ]
    for query, enc in (
        (pk.a_query_g1, enc1),
        (pk.b_query_g1, enc1),
        (pk.b_query_g2, enc2),
        (pk.l_query_g1, enc1),
        (pk.h_query_g1, enc1),
    ):
        parts.append(len(query).to_bytes(4, "big"))
        parts.extend(enc(p) for p in query)
    return b"".join(parts)


def deserialize_proving_key(data: bytes):
    """Inverse of :func:`serialize_proving_key`.

    G2 points are checked on-curve but not for subgroup membership: a
    proving key comes from the prover's own setup or artifact store, not
    from the party it convinces, and a bad key can only make the prover's
    own proofs fail verification.  A subgroup check per ``b_query_g2``
    point would multiply the cost of every key load.
    """
    from repro.snark.keys import ProvingKey

    if len(data) < 9:
        raise SerializationError("proving key too short")
    fmt = data[0]
    if fmt == _PK_SIM:
        dec1 = dec2 = deserialize_sim
        size1 = size2 = 33
    elif fmt == _PK_REAL:
        dec1, dec2 = deserialize_g1, deserialize_g2
        size1, size2 = 33, 65
    else:
        raise SerializationError(f"unknown proving-key format {fmt:#x}")
    domain_size = int.from_bytes(data[1:5], "big")
    num_public = int.from_bytes(data[5:9], "big")
    offset = 9

    def take(n: int) -> bytes:
        nonlocal offset
        if offset + n > len(data):
            raise SerializationError("proving key truncated")
        chunk = data[offset : offset + n]
        offset += n
        return chunk

    def take_list(dec, size):
        count = int.from_bytes(take(4), "big")
        return [dec(take(size)) for _ in range(count)]

    alpha = dec1(take(size1))
    beta_g1 = dec1(take(size1))
    beta_g2 = dec2(take(size2))
    delta_g1 = dec1(take(size1))
    delta_g2 = dec2(take(size2))
    a_query = take_list(dec1, size1)
    b_query_g1 = take_list(dec1, size1)
    b_query_g2 = take_list(dec2, size2)
    l_query = take_list(dec1, size1)
    h_query = take_list(dec1, size1)
    if offset != len(data):
        raise SerializationError("trailing bytes in proving key")
    return ProvingKey(
        alpha_g1=alpha,
        beta_g1=beta_g1,
        beta_g2=beta_g2,
        delta_g1=delta_g1,
        delta_g2=delta_g2,
        a_query_g1=a_query,
        b_query_g1=b_query_g1,
        b_query_g2=b_query_g2,
        l_query_g1=l_query,
        h_query_g1=h_query,
        domain_size=domain_size,
        num_public=num_public,
    )


def deserialize_proof(data: bytes) -> Proof:
    if len(data) == 33 + 65 + 33:
        return Proof(
            a=deserialize_g1(data[:33]),
            b=_checked_g2(data[33:98]),
            c=deserialize_g1(data[98:]),
        )
    if len(data) == 3 * 33:
        return Proof(
            a=deserialize_sim(data[:33]),
            b=deserialize_sim(data[33:66]),
            c=deserialize_sim(data[66:]),
        )
    raise SerializationError(f"unrecognized proof length {len(data)}")
