"""Fixed-width packing of small-integer vectors into single big integers.

A length-n vector v with |v[i]| < 2**(b-1) is stored as sum(v[i] << (b*i)).
Adding and multiplying packed values then performs vector addition and
polynomial convolution in one bignum operation, which is how the dense
cyclotomic series arithmetic stays fast without native code.  The lane
width b is the bit length of the lane bound plus two bits of slack, so
|v[i]| < 2**(b-1) holds with a bit to spare.

Unpacking uses the bias trick: adding 2**(b-1) to every lane makes all
digits non-negative without carries, after which each lane is read off by
mask and shift.
"""

from __future__ import annotations

from functools import lru_cache


@lru_cache(maxsize=None)
def _bias(b: int, count: int) -> int:
    """The integer with 2**(b-1) in each of `count` lanes of width b."""
    return ((1 << b * count) - 1) // ((1 << b) - 1) << (b - 1)


def lane_width(max_abs: int) -> int:
    """Lane width holding max_abs with two bits of slack: max_abs < 2**(b-2)."""
    return max(1, max_abs).bit_length() + 2


# Up to this many lanes, packing and unpacking go lane by lane (shift and
# add, mask and shift); longer vectors are halved first, so no step moves
# more than about this many lanes of bits.
_RUN = 16


def _pack(vec, b: int) -> int:
    n = len(vec)
    if n > _RUN:
        h = n // 2
        return _pack(vec[:h], b) + (_pack(vec[h:], b) << (b * h))
    x = 0
    for v in reversed(vec):
        x = (x << b) + v
    return x


def pack_signed(vec, b: int) -> int:
    """Pack a vector of (possibly negative) ints into one big integer."""
    return _pack(vec, b)


def _lanes(y: int, b: int, count: int, half: int) -> list[int]:
    """`count` lanes of the non-negative y, each less `half`."""
    if count > _RUN:
        h = count // 2
        s = b * h
        low = _lanes(y & ((1 << s) - 1), b, h, half)
        return low + _lanes(y >> s, b, count - h, half)
    mask = (1 << b) - 1
    out = []
    for _ in range(count):
        out.append((y & mask) - half)
        y >>= b
    return out


def unpack_signed(x: int, b: int, count: int) -> list[int]:
    """Recover `count` signed lanes from a packed integer (any sign)."""
    return _lanes(x + _bias(b, count), b, count, 1 << (b - 1))


def split_low(x: int, b: int, d: int) -> tuple[int, int]:
    """Split a packed value into (low d lanes as an int, remaining lanes).

    The low part is returned as the exact signed partial sum of the first
    d lanes, so the high part stays lane-aligned with no borrow leaking
    across the boundary.  Requires every lane < 2**(b-1) in absolute
    value, which pack arithmetic guarantees by construction of b.
    """
    shift = b * d
    low = x & ((1 << shift) - 1)
    if low >= 1 << (shift - 1):
        low -= 1 << shift
    high = (x - low) >> shift
    return low, high
