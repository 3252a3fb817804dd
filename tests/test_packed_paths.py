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
from qtheta import CyclotomicNumber, QExpansion, compare, root_of_unity
from qtheta._pack import pack_signed
from qtheta.cyclotomic import _ctx
from qtheta.series import _mul_cyclo


def _rand_cyclo(rng, m):
    D = _ctx(m).D
    coords = [Fraction(rng.randint(-20, 20), rng.choice([1, 1, 2, 3]))
              for _ in range(D)]
    return CyclotomicNumber(m, coords)


def test_packed_series_product_matches_elementwise():
    rng = random.Random(31)
    for m in (16, 36, 56, 120):
        L = 14
        a = QExpansion(0, [_rand_cyclo(rng, m) for _ in range(L)], L)
        b = QExpansion(0, [_rand_cyclo(rng, m) for _ in range(L)], L)
        prod = a * b
        ref = K.convolve_trunc(list(a.coeffs), list(b.coeffs), L)
        for t in range(L):
            assert prod.coefficient(t) == ref[t], (m, t)


def test_packed_series_product_small_fields():
    # D <= 4 once took an object path that multiplied CyclotomicNumbers pair
    # by pair; that convolution is the oracle for the one packed path
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
                    got = _mul_cyclo(m, A, B, n)
                    ref = K.convolve_trunc([lift(m, c) for c in A],
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
            phi = ctx.phi_low
            for e in range(2 * D - 2, D - 1, -1):
                c = conv[e]
                if c:
                    for i in range(D):
                        conv[e - D + i] -= c * phi[i]
            ref = CyclotomicNumber(m, conv[:D])
            assert fast == ref


@pytest.mark.parametrize("m", [5, 15, 105])
def test_product_lane_holds_the_worst_reduction(m):
    # 2D-1 lanes of size V = terms*D, the most a sum of `terms` products of
    # vectors with lanes in {-1, 0, 1} can hold.  The high lanes take the
    # signs of the reduction rows at the low lane whose rows have the largest
    # absolute sum, so reduce_packed forms the largest value it ever can.
    ctx = _ctx(m)
    D = ctx.D
    terms = ((1 << 14) - 1) // D
    V = terms * D
    assert V.bit_length() == 14
    high = ctx.rows()[D:2 * D - 1]
    worst = max(range(D), key=lambda i: sum(abs(r[i]) for r in high))
    vec = [V] * D + [V if r[worst] >= 0 else -V for r in high]
    b = ctx.product_lane(terms, 1, 1)
    assert ctx.reduce_packed(pack_signed(vec, b), b) == ctx.reduce(vec)


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
    ref = K.convolve_trunc(
        [CyclotomicNumber.rational(m, c) if isinstance(c, Fraction) else c
         for c in a.coeffs],
        [CyclotomicNumber.rational(m, c) if isinstance(c, Fraction) else c
         for c in b.coeffs],
        12,
    )
    for t in range(12):
        assert prod.coefficient(t) == ref[t]
