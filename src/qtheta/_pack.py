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

    BIGNUM = "gmpy2"

    def bignum(x):
        return _mpz(x)
except ImportError:  # gmpy2 is optional (the "gmpy2" extra); int is exact too
    BIGNUM = "int"

    def bignum(x):
        return x


_BIAS_CACHE: dict[tuple[int, int, int], tuple[int, int]] = {}


def _bias(b: int, count: int, stride: int = 0) -> tuple[int, int]:
    """(bias integer, total byte length): 2**(b-1) in each of `count` lanes
    laid `stride` bits apart (default b)."""
    stride = stride or b
    key = (b, count, stride)
    hit = _BIAS_CACHE.get(key)
    if hit is None:
        step = stride // 8
        buf = bytearray(step * count)
        buf[b // 8 - 1::step] = b"\x80" * count
        hit = (int.from_bytes(buf, "little"), step * count)
        _BIAS_CACHE[key] = hit
    return hit


def lane_width(max_abs: int) -> int:
    """Smallest byte-aligned lane width holding max_abs with slack."""
    bits = max(1, max_abs).bit_length() + 2
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


def widen_signed(x, b: int, b_new: int, count: int):
    """Re-lay `count` signed lanes of width b at the larger width b_new.

    The same as pack_signed(unpack_signed(x, b, count), b_new), but byte j
    of every lane moves in one strided slice copy, so the cost is b/8
    slice copies rather than one Python step per lane.
    """
    bias, nbytes = _bias(b, count)
    buf = (int(x) + bias).to_bytes(nbytes, "little")
    lane, lane_new = b // 8, b_new // 8
    out = bytearray(lane_new * count)
    for j in range(lane):
        out[j::lane_new] = buf[j::lane]
    return bignum(int.from_bytes(out, "little") - _bias(b, count, b_new)[0])


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
