"""Fixed-width packing of small-integer vectors into single big integers.

A length-n vector v with |v[i]| < 2**(b-1) is stored as sum(v[i] << (b*i)).
Adding and multiplying packed values then performs vector addition and
polynomial convolution in one bignum operation, which is how the dense
cyclotomic series arithmetic stays fast without native code.  The lane
width b is always a multiple of 8 so digits align with bytes.

Unpacking uses the bias trick: adding 2**(b-1) to every lane makes all
digits non-negative without carries, after which the byte string can be
sliced lane by lane.
"""

from __future__ import annotations

try:
    from gmpy2 import mpz as _mpz

    def bignum(x):
        return _mpz(x)
except ImportError:  # gmpy2 is optional (the "gmpy2" extra); int is exact too
    def bignum(x):
        return x


_BIAS_CACHE: dict[tuple[int, int], tuple[int, int]] = {}


def _bias(b: int, count: int) -> tuple[int, int]:
    """(bias integer, total byte length) for `count` lanes of width b bits."""
    key = (b, count)
    hit = _BIAS_CACHE.get(key)
    if hit is None:
        lane = b // 8
        buf = bytearray(lane * count)
        for i in range(count):
            buf[lane * (i + 1) - 1] = 0x80
        hit = (int.from_bytes(buf, "little"), lane * count)
        _BIAS_CACHE[key] = hit
    return hit


def lane_width(max_abs: int, extra_factor: int = 1) -> int:
    """Smallest byte-aligned lane width holding max_abs*extra_factor with slack."""
    bound = max(1, max_abs) * max(1, extra_factor)
    bits = bound.bit_length() + 2
    return ((bits + 7) // 8) * 8


def pack_signed(vec, b: int):
    """Pack a vector of (possibly negative) ints into one big integer."""
    lane = b // 8
    pos = bytearray(lane * len(vec))
    neg = None
    for i, v in enumerate(vec):
        if v > 0:
            pos[lane * i:lane * i + lane] = v.to_bytes(lane, "little")
        elif v < 0:
            if neg is None:
                neg = bytearray(lane * len(vec))
            neg[lane * i:lane * i + lane] = (-v).to_bytes(lane, "little")
    x = int.from_bytes(pos, "little")
    if neg is not None:
        x -= int.from_bytes(neg, "little")
    return bignum(x)


def unpack_signed(x, b: int, count: int) -> list[int]:
    """Recover `count` signed lanes from a packed integer (any sign)."""
    bias, nbytes = _bias(b, count)
    buf = (int(x) + bias).to_bytes(nbytes, "little")
    lane = b // 8
    half = 1 << (b - 1)
    return [
        int.from_bytes(buf[i * lane:(i + 1) * lane], "little") - half
        for i in range(count)
    ]


def split_low(x, b: int, d: int):
    """Split a packed value into (low d lanes as an int, remaining lanes).

    The low part is returned as the exact signed partial sum of the first
    d lanes, so the high part stays lane-aligned with no borrow leaking
    across the boundary.  Requires every lane < 2**(b-1) in absolute
    value, which pack arithmetic guarantees by construction of b.
    """
    shift = b * d
    low = int(x) & ((1 << shift) - 1)
    if low >= 1 << (shift - 1):
        low -= 1 << shift
    high = (x - low) >> shift
    return low, high
