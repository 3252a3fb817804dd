"""Kernels and lane packing against naive references."""

import random

import qtheta._kernels as K
from qtheta._pack import _bias, lane_width, pack_signed, split_low, unpack_signed
from qtheta.cyclotomic import cyclotomic_polynomial


def _naive_convolve(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_convolve_matches_naive():
    rng = random.Random(1)
    for t in range(30):
        a = [rng.randint(-50, 50) for _ in range(rng.randint(1, 12))]
        b = [rng.randint(-50, 50) for _ in range(rng.randint(1, 12))]
        if t % 2:
            # a run of zeros in the second operand, whose entries are skipped
            j = rng.randrange(len(b))
            b[j:j + 4] = [0] * len(b[j:j + 4])
        assert K.convolve(a, b) == _naive_convolve(a, b)
        assert K.convolve(b, a) == _naive_convolve(b, a)
    assert K.convolve([], [1, 2]) == []
    assert K.convolve([3, -1], [0, 0, 0]) == [0, 0, 0, 0]
    assert K.convolve([1, 2, 3], [0, 5, 0, 0, 7]) == [0, 5, 10, 15, 7, 14, 21]


def test_convolve_trunc_matches_naive():
    rng = random.Random(2)
    for _ in range(30):
        a = [rng.randint(-9, 9) for _ in range(rng.randint(1, 10))]
        b = [rng.randint(-9, 9) for _ in range(rng.randint(1, 10))]
        full = _naive_convolve(a, b)
        n = rng.randint(1, len(full) + 3)
        got = K.convolve_trunc(a, b, n)
        expect = (full + [0] * n)[:n]
        assert got == expect


def test_convolve_trunc_skips_zeros_of_b():
    # a dense series against a theta-like one, nonzero at triangular offsets
    rng = random.Random(3)
    for m in (1, 7, 20, 40):
        a = [rng.randint(-9, 9) for _ in range(m)]
        b = [0] * m
        for n in range(m):
            if n * (n + 1) // 2 < m:
                b[n * (n + 1) // 2] = rng.choice([-3, -1, 1, 2])
        full = _naive_convolve(a, b)
        for n in (1, m // 2 + 1, m, 2 * m + 1):
            expect = (full + [0] * n)[:n]
            assert K.convolve_trunc(a, b, n) == expect
            assert K.convolve_trunc(b, a, n) == expect


def _square_operands():
    rng = random.Random(4)
    yield []
    yield [0]
    yield [5]
    yield [-3, 0]
    yield [0, 0, 0, 0, 0]
    yield [0, 0, 0, 4, -2, 7]       # leading zero run
    yield [3, 0, 0, 0, -1, 0, 2]    # inner zero runs
    for _ in range(12):
        a = [rng.randint(-20, 20) for _ in range(rng.randint(2, 14))]
        j = rng.randrange(len(a))
        a[j:j + 3] = [0] * len(a[j:j + 3])
        yield a
    # packed bigints, with 0 for a zero vector as the series product passes them
    for _ in range(8):
        vecs = [[rng.randint(-99, 99) for _ in range(4)] if rng.random() < 0.7 else None
                for _ in range(rng.randint(1, 10))]
        yield [0 if v is None else pack_signed(v, 40) for v in vecs]


def test_convolve_trunc_square_matches_general_path():
    # a square (b is a) against the general path on an equal copy, and both
    # against the naive product
    for a in _square_operands():
        full = _naive_convolve(a, a)
        for n in {0, 1, max(len(a) - 1, 1), len(a), 2 * len(a) - 1, 2 * len(a) + 3}:
            got = K.convolve_trunc(a, a, n)
            assert got == K.convolve_trunc(a, list(a), n), (a, n)
            assert got == (full + [0] * n)[:n], (a, n)


def test_cyclo_rem_is_polynomial_remainder():
    # remainder mod x^2 + 1: reduce powers of x with x^2 = -1
    terms = [(0, 1)]  # x^2 + 1: its nonzero low coefficients
    v = [3, 4, 5, 6, 7]  # 3 + 4x + 5x^2 + 6x^3 + 7x^4
    # x^2 = -1, x^3 = -x, x^4 = 1 -> (3 - 5 + 7) + (4 - 6) x
    assert K.cyclo_rem(v, 2, terms) == [5, -2]
    assert K.cyclo_rem([1], 2, terms) == [1, 0]
    # sparse divisors: Phi_64 = x^32 + 1, Phi_500 = Phi_10(x^50) (5 terms),
    # against dense long division by the full polynomial
    rng = random.Random(7)
    for m in (64, 500):
        phi = cyclotomic_polynomial(m)
        d = len(phi) - 1
        v = [rng.randint(-9, 9) for _ in range(m)]
        want = list(v)
        for e in range(len(want) - 1, d - 1, -1):
            c = want[e]
            for i, p in enumerate(phi):
                want[e - d + i] -= c * p
        terms = [(i, p) for i, p in enumerate(phi[:-1]) if p]
        assert K.cyclo_rem(v, d, terms) == want[:d], m


def test_scaled_add():
    dst = [1, 2, 3]
    K.scaled_add(dst, [10, 0, -1], 3)
    assert dst == [31, 2, 0]


def test_pack_unpack_round_trip():
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(1, 40)
        bound = 10 ** rng.randint(1, 12)
        vec = [rng.randint(-bound, bound) for _ in range(n)]
        b = lane_width(bound)
        x = pack_signed(vec, b)
        assert x == sum(v << (b * i) for i, v in enumerate(vec))
        assert unpack_signed(x, b, n) == vec
        # packed addition is vector addition
        vec2 = [rng.randint(-bound // 2, bound // 2) for _ in range(n)]
        y = pack_signed(vec2, b)
        b2 = lane_width(2 * bound)
        x2 = pack_signed(vec, b2)
        y2 = pack_signed(vec2, b2)
        assert unpack_signed(x2 + y2, b2, n) == [u + v for u, v in zip(vec, vec2)]


def test_split_low_exact():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(2, 30)
        d = rng.randint(1, n - 1)
        bound = 10 ** rng.randint(1, 10)
        vec = [rng.randint(-bound, bound) for _ in range(n)]
        b = lane_width(bound)
        x = pack_signed(vec, b)
        low, high = split_low(x, b, d)
        assert low + (high << (b * d)) == x
        assert unpack_signed(low, b, d) == vec[:d]
        assert unpack_signed(high, b, n - d) == vec[d:]


def test_lane_width_is_bit_length_plus_two():
    for x in (1, 7, 255, 256, 10**9):
        b = lane_width(x)
        assert b == x.bit_length() + 2
        assert (1 << (b - 1)) > x


def test_every_width_either_side_of_the_run():
    # counts either side of _RUN = 16, where packing and unpacking halve
    rng = random.Random(6)
    for b in range(3, 81):
        top = (1 << (b - 2)) - 1
        for n in (1, 15, 16, 17, 32, 33, 100):
            vec = [rng.choice((top, -top)) for _ in range(n)]
            x = pack_signed(vec, b)
            assert x == sum(v << (b * i) for i, v in enumerate(vec)), (b, n)
            assert unpack_signed(x, b, n) == vec, (b, n)
            for d in {1, n // 2, n - 1} - {0, n}:
                low, high = split_low(x, b, d)
                assert low == pack_signed(vec[:d], b), (b, n, d)
                assert high == pack_signed(vec[d:], b), (b, n, d)
            assert _bias(b, n) == sum(1 << (b * i + b - 1) for i in range(n))
