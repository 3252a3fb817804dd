"""The packed bigint fast paths must agree bit-for-bit with the generic
object arithmetic they replace."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import qtheta
import qtheta._kernels as K
from qtheta import CyclotomicNumber, QExpansion, cyclotomic_polynomial, root_of_unity
from qtheta._pack import lane_width, pack_signed
from qtheta.cyclotomic import _ctx


def _rand_cyclo(rng, m):
    D = _ctx(m).D
    coords = [Fraction(rng.randint(-20, 20), rng.choice([1, 1, 2, 3]))
              for _ in range(D)]
    return CyclotomicNumber(m, coords)


def _schoolbook(a, b, n):
    """First n coefficients of the Cauchy product of two lists of field
    elements: the object-arithmetic reference for the packed paths."""
    out = [0] * n
    for i, x in enumerate(a[:n]):
        for j, y in enumerate(b[:n - i]):
            out[i + j] = out[i + j] + x * y
    return out


def test_packed_series_product_matches_elementwise():
    rng = random.Random(31)
    for m in (16, 36, 56, 120):
        L = 14
        a = QExpansion(0, [_rand_cyclo(rng, m) for _ in range(L)], L)
        b = QExpansion(0, [_rand_cyclo(rng, m) for _ in range(L)], L)
        prod = a * b
        ref = _schoolbook(list(a.coeffs), list(b.coeffs), L)
        for t in range(L):
            assert prod.coefficient(t) == ref[t], (m, t)


def test_packed_series_product_small_fields():
    # D <= 4 once took an object path that multiplied CyclotomicNumbers pair
    # by pair; that convolution is the oracle for the one packed path.  At
    # precision n a product covers every exponent below n, and its inner
    # convolution stops at n less the larger operand base.
    rng = random.Random(34)
    lift = lambda m, c: c if isinstance(c, CyclotomicNumber) else CyclotomicNumber.rational(m, c)
    for m in (3, 4, 6, 5, 8, 10, 12):
        assert _ctx(m).D in (2, 4)

        def coeff():
            r = rng.random()
            if r < 0.2:
                return 0
            if r < 0.4:
                return Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            return _rand_cyclo(rng, m)

        for la in range(1, 9):
            for lb in range(1, 9):
                A = [coeff() for _ in range(la)]
                B = [coeff() for _ in range(lb)]
                for n in {la + lb - 1, max(1, (la + lb) // 2)}:
                    prod = QExpansion(0, A, n) * QExpansion(0, B, n)
                    got = [prod.coefficient(t) for t in range(n)]
                    ref = _schoolbook([lift(m, c) for c in A],
                                      [lift(m, c) for c in B], n)
                    assert got == ref, (m, A, B, n)


def test_packed_single_products_match_schoolbook():
    rng = random.Random(32)
    for m in (40, 84, 116):
        ctx = _ctx(m)
        for _ in range(10):
            x = _rand_cyclo(rng, m)
            y = _rand_cyclo(rng, m)
            fast = x * y  # integer schoolbook product reduced by cyclo_rem
            # schoolbook convolution + synthetic division over Fractions
            D = ctx.D
            conv = [Fraction(0)] * (2 * D - 1)
            xc, yc = x.coords, y.coords
            for i in range(D):
                if not xc[i]:
                    continue
                for j in range(D):
                    conv[i + j] += xc[i] * yc[j]
            phi = cyclotomic_polynomial(m)
            for e in range(2 * D - 2, D - 1, -1):
                c = conv[e]
                if c:
                    for i in range(D):
                        conv[e - D + i] -= c * phi[i]
            ref = CyclotomicNumber(m, conv[:D])
            assert fast == ref


def _check_worst_reduction(ctx):
    """2D-1 lanes of +-V, V = terms*D the most a sum of `terms` products of
    vectors with lanes in {-1, 0, 1} can hold, packed at
    product_lane(terms): reduce_packed must give the remainder of the
    unpacked vector, for it and its negation.  V has 15 bits, so
    lane_width(V) is a byte wider than the width for V/2: a lane sized for
    half the bound fails the width check."""
    D = ctx.D
    terms = ((1 << 15) - 1) // D
    V = terms * D
    assert V.bit_length() == 15 and lane_width(V) > lane_width(V // 2)
    rng = random.Random(ctx.m)
    vec = [rng.choice((V, -V)) for _ in range(2 * D - 1)]
    b = ctx.product_lane(terms)
    assert b >= lane_width(V)
    for v in (vec, [-x for x in vec]):
        assert ctx.reduce_packed(pack_signed(v, b), b) == K.cyclo_rem(v, D, ctx.phi_terms)


# One check serves every field: odd conductors, even ones (whose unpacked
# lanes reduce folds onto the first m/2) and real subfields.
@pytest.mark.parametrize("m", range(1, 121, 2))
def test_product_lane_holds_the_worst_reduction(m):
    _check_worst_reduction(_ctx(m))


@pytest.mark.parametrize("m", range(2, 121, 2))
def test_folded_reduction_holds_the_product_lane_bound(m):
    _check_worst_reduction(_ctx(m))


@pytest.mark.parametrize("m", [3, 5, 8, 20, 40, 76, 120])
def test_real_product_lane_holds_the_worst_reduction(m):
    _check_worst_reduction(_ctx(m, True))


@pytest.mark.parametrize("m", [3, 5, 7, 9, 15, 21, 2, 4, 6, 8, 12, 20, 24, 30, 40, 60])
def test_reduce_is_the_remainder_mod_phi(m):
    # the fold of even m changes the route, never the remainder
    ctx = _ctx(m)
    rng = random.Random(100 + m)
    for n in range(1, 3 * m + 1):
        vec = [rng.randint(-50, 50) for _ in range(n)]
        assert ctx.reduce(vec) == K.cyclo_rem(vec, ctx.D, ctx.phi_terms), (m, n)


def test_big_conductor_product_roots():
    # zeta^a * zeta^b = zeta^{a+b} survives the packed route at phi(m) = 56
    m = 116
    z = root_of_unity(m, 1)
    series = QExpansion(0, [z**(3 * t) for t in range(20)], 20)
    sq = series * series
    for t in range(20):
        acc = None
        for i in range(t + 1):
            term = root_of_unity(m, 3 * i) * root_of_unity(m, 3 * (t - i))
            acc = term if acc is None else acc + term
        assert sq.coefficient(t) == acc


def test_kernel_env_selection():
    # The child must import the qtheta under test, not whatever copy its
    # own sys.path would find: the directory holding this package goes
    # ahead of any inherited PYTHONPATH entries.
    root = os.path.dirname(os.path.dirname(os.path.abspath(qtheta.__file__)))
    path = [root]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = "import qtheta; print(qtheta.kernel_backend)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=60, cwd="/",
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "pure"


def test_mixed_rational_and_cyclotomic_coefficients():
    rng = random.Random(33)
    m = 24
    coeffs = []
    for _ in range(12):
        if rng.random() < 0.5:
            coeffs.append(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        else:
            coeffs.append(_rand_cyclo(rng, m))
    a = QExpansion(0, coeffs, 12)
    b = QExpansion(0, coeffs[::-1], 12)
    prod = a * b
    ref = _schoolbook(
        [CyclotomicNumber.rational(m, c) if isinstance(c, Fraction) else c
         for c in a.coeffs],
        [CyclotomicNumber.rational(m, c) if isinstance(c, Fraction) else c
         for c in b.coeffs],
        12,
    )
    for t in range(12):
        assert prod.coefficient(t) == ref[t]
