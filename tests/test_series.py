"""QExpansion arithmetic: examples, ring laws, and the Lambert oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtheta import (
    ConductorError,
    CyclotomicNumber,
    Mismatch,
    PrecisionError,
    QExpansion,
    ThetaPoint,
    compare,
    embed_conductor,
    lambert,
    log_deriv_lambert,
    root_of_unity,
    theta2_jet,
)

P = Fraction(50)
ONE = QExpansion.one(P)
Q = QExpansion.monomial(1, 1, P)


def _series(base, coeffs, prec=P):
    return QExpansion(base, coeffs, prec)


small_fraction = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def rational_series(draw, max_len=5):
    coeffs = draw(st.lists(small_fraction, min_size=0, max_size=max_len))
    return QExpansion(0, coeffs, 16)


def _eq(a, b):
    return compare(a, b, min(a.precision, b.precision)) is None


class TestAdd:
    def test_cancellation(self):
        s = (ONE + Q) + (-1 + Q)
        assert s.base == 1 and s.coeffs == (2,)

    def test_zero_identity(self):
        x = _series(0, [3, 1, 4])
        assert compare(x + QExpansion.zero(P), x, P) is None

    def test_fractional_alignment(self):
        x = _series(Fraction(1, 8), [2, 2])
        y = _series(Fraction(9, 8), [-2])
        z = x + y
        assert z.base == Fraction(1, 8) and z.coeffs == (2,)

    def test_incompatible_base_classes(self):
        x = _series(Fraction(1, 8), [1])
        y = _series(Fraction(1, 3), [1])
        with pytest.raises(ValueError):
            x + y

    def test_precision_is_minimum(self):
        x = QExpansion(0, [1], 10)
        y = QExpansion(0, [1], 20)
        assert (x + y).precision == 10


class TestMul:
    def test_difference_of_squares(self):
        c = (ONE + Q) * (ONE - Q)
        assert c.coefficient(0) == 1
        assert c.coefficient(1) == 0
        assert c.coefficient(2) == -1

    def test_fractional_exponent_addition(self):
        h = QExpansion.monomial(1, Fraction(1, 8), P)
        assert (h * h).base == Fraction(1, 4)

    def test_euler_product_against_polynomial_oracle(self):
        def poly_mul(p, q):
            out = [0] * (len(p) + len(q) - 1)
            for i, pi in enumerate(p):
                for j, qj in enumerate(q):
                    out[i + j] += pi * qj
            return out

        expect = [1]
        series = QExpansion.one(Fraction(8))
        for n in range(1, 7):
            f = [0] * (n + 1)
            f[0], f[n] = 1, -1
            expect = poly_mul(expect, f)
            series = series * QExpansion(0, f, Fraction(8))
        for t in range(8):
            assert series.coefficient(t) == expect[t]

    def test_mul_precision_rule(self):
        a = QExpansion(2, [1], 10)  # q^2, known below 10
        b = QExpansion(3, [1], 7)   # q^3, known below 7
        assert (a * b).precision == min(10 + 3, 7 + 2)


class TestDiv:
    def test_exact_quotient(self):
        d = (ONE - Q * Q) / (ONE - Q)
        assert d.coefficient(0) == 1 and d.coefficient(1) == 1

    def test_self_division(self):
        a = _series(0, [3, 1, 4, 1, 5])
        assert compare(a / a, ONE, 40) is None

    def test_geometric_series(self):
        g = ONE / (ONE - Q)
        for t in range(5):
            assert g.coefficient(t) == 1

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisionError):
            ONE / QExpansion.zero(P)

    def test_round_trip_100_random_pairs(self):
        rng = random.Random(99)
        done = 0
        while done < 100:
            a = QExpansion(0, [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                               for _ in range(rng.randint(0, 5))], 16)
            b = QExpansion(rng.randint(0, 2),
                           [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                            for _ in range(rng.randint(1, 5))], 16)
            if b.is_zero:
                continue
            done += 1
            q = a / b
            assert _eq(b * q, a)


def test_division_edge_cases():
    z = root_of_unity(8, 1)
    a = QExpansion(Fraction(3, 8), [z, 2, z * z], 12)
    cases = [
        (QExpansion.zero(Fraction(7, 2)), QExpansion(1, [z, 1], 9)),  # zero numerator
        (a, QExpansion(Fraction(5, 4), [3, z], 20)),  # divisor with a fractional base
        (a, QExpansion(2, [1, z, 1], 4)),  # divisor with less precision
    ]
    for num, den in cases:
        q = num / den
        assert q.base == num.base - den.base
        assert q.precision == min(num.precision - den.base,
                                  den.precision + num.base - 2 * den.base)
        # the quotient times the divisor gives the numerator back, to the
        # precision that product certifies
        back = q * den
        assert compare(back, num.truncate(back.precision), back.precision) is None
    with pytest.raises(ZeroDivisionError):
        a / QExpansion.zero(12)
    with pytest.raises(ZeroDivisionError):
        QExpansion.zero(12) / QExpansion.zero(12)


class TestCalculus:
    def test_q_ddq_constant(self):
        assert QExpansion.constant(7, P).q_ddq().is_zero

    def test_q_ddq_fractional(self):
        h = QExpansion.monomial(1, Fraction(1, 8), P).q_ddq()
        assert h.coefficient(Fraction(1, 8)) == Fraction(1, 8)

    def test_q_ddq_polynomial(self):
        w = _series(1, [1, 0, 3]).q_ddq()  # q + 3q^3
        assert w.coefficient(1) == 1 and w.coefficient(3) == 9

    def test_scale_q_examples(self):
        s = (ONE + Q).scale_q(3)
        assert s.coefficient(0) == 1 and s.coefficient(3) == 1
        assert QExpansion.monomial(1, Fraction(1, 8), P).scale_q(2).base == Fraction(1, 4)

    def test_scale_q_chain_rule(self):
        a = _series(0, [1, 1, 1])
        lhs = a.scale_q(3).q_ddq()
        rhs = a.q_ddq().scale_q(3) * 3
        assert compare(lhs, rhs, 100) is None

    def test_scale_q_precision(self):
        assert QExpansion(0, [1], 10).scale_q(4).precision == 40


class TestLambert:
    def test_odd_divisors_of_six(self):
        assert lambert(1, 2, 20).coefficient(6) == 2

    def test_divisor_count(self):
        assert lambert(1, 1, 20).coefficient(4) == 3

    def test_below_first_term(self):
        s = lambert(5, 3, 10)
        for mm in range(5):
            if mm < s.precision:
                assert s.coefficient(mm) == 0

    def test_divisor_reconstruction_order_200(self):
        s = lambert(1, 2, 200)
        for mm in range(1, 200):
            expect = sum(1 for d in range(1, mm + 1)
                         if mm % d == 0 and d % 2 == 1)
            assert s.coefficient(mm) == expect

    def test_coefficients_nonnegative_integers(self):
        for (a, b) in [(1, 1), (2, 3), (4, 7)]:
            s = lambert(a, b, 80)
            for c in s.coeffs:
                assert isinstance(c, int) and c >= 0

    def test_validation(self):
        with pytest.raises(ValueError):
            lambert(0, 2, 10)


class TestCompare:
    def test_equal_to_self(self):
        a = _series(0, [1, 2, 3])
        assert compare(a, a, 40) is None

    def test_mismatch_location(self):
        mm = compare(ONE + Q, ONE + 2 * Q, 2)
        assert mm is not None
        assert mm.exponent == 1 and mm.lhs == 1 and mm.rhs == 2

    def test_insufficient_precision_raises(self):
        with pytest.raises(PrecisionError):
            compare(ONE, ONE, 100)

    def test_mixed_field_comparison(self):
        z = root_of_unity(4, 1)
        a = QExpansion(0, [z * z], 10)  # -1 as a cyclotomic
        b = QExpansion(0, [-1], 10)
        assert compare(a, b, 10) is None


@settings(max_examples=50, deadline=None)
@given(a=rational_series(), b=rational_series(), c=rational_series())
def test_ring_laws(a, b, c):
    assert _eq((a + b) + c, a + (b + c))
    assert _eq(a + b, b + a)
    assert _eq(a * b, b * a)
    assert _eq((a * b) * c, a * (b * c))
    assert _eq(a * (b + c), a * b + a * c)


@settings(max_examples=50, deadline=None)
@given(a=rational_series(), b=rational_series())
def test_q_ddq_is_a_derivation(a, b):
    lhs = (a * b).q_ddq()
    rhs = a.q_ddq() * b + a * b.q_ddq()
    assert _eq(lhs, rhs)


@settings(max_examples=40, deadline=None)
@given(a=rational_series(), b=rational_series(), s=st.integers(1, 4))
def test_scale_q_is_ring_morphism(a, b, s):
    assert _eq((a * b).scale_q(s), a.scale_q(s) * b.scale_q(s))
    assert _eq((a + b).scale_q(s), a.scale_q(s) + b.scale_q(s))
    assert _eq(a.scale_q(s).q_ddq(), a.q_ddq().scale_q(s) * s)


def test_normalization_strips_and_truncates():
    s = QExpansion(0, [0, 0, 5, 0], 10)
    assert s.base == 2 and s.coeffs == (5,)
    t = QExpansion(0, [1] * 20, 10)
    assert t.base + len(t.coeffs) <= t.precision
    z = QExpansion(0, [], 10)
    assert z.is_zero and z.base == 10


def test_hash_agrees_with_equality_across_conductors():
    z4 = root_of_unity(4, 1)
    a = QExpansion(0, [z4], 5)
    b = QExpansion(0, [embed_conductor(z4, 8)], 5)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    # rational coefficients hash by value, whatever their type
    c = QExpansion(0, [z4 * z4, Fraction(1, 2)], 5)
    d = QExpansion(0, [-1, CyclotomicNumber.rational(8, Fraction(1, 2))], 5)
    assert c == d and hash(c) == hash(d)


def test_one_conductor_per_series():
    z8, z12 = root_of_unity(8, 1), root_of_unity(12, 1)
    with pytest.raises(ConductorError):
        QExpansion(0, [z8, z12], 10)
    a, b = QExpansion(0, [z8], 10), QExpansion(1, [z12], 10)
    with pytest.raises(ConductorError):
        a + b
    with pytest.raises(ConductorError):
        a - b
    # a rational series, the zero series included, adds to either
    assert (a + QExpansion(1, [Fraction(1, 2)], 10)).field() == 8
    assert (QExpansion.zero(10) + b).field() == 12


def test_rational_results_are_rational_in_any_order():
    # z*q^0 cancels, or falls beyond O(q^0); the rational value left is
    # over Q whichever order the sum is formed in
    z = QExpansion(0, [root_of_unity(8, 3)], 1)
    r = QExpansion(-1, [1], 0)
    for parts in ([z, -z, r], [r, z, -z], [QExpansion.zero(0), z, r], [r, z]):
        total = parts[0]
        for p in parts[1:]:
            total = total + p
        assert total == r.truncate(0) and total.field() is None
    one_z = QExpansion(0, [1, root_of_unity(8, 1)], 10)
    assert (one_z * QExpansion.one(1)).field() is None and (z * z).field() == 8
    assert (z * QExpansion(0, [2], 1) - z * 2).field() is None


_Z8 = root_of_unity(8, 1)


@pytest.mark.parametrize("build", [
    lambda: QExpansion(0, [1, 2], 5) * CyclotomicNumber.rational(5, 3),
    lambda: QExpansion(0, [CyclotomicNumber.rational(5, 3)], 5),
    lambda: QExpansion(0, [1, _Z8], 5).truncate(1),
    lambda: QExpansion(0, [_Z8, 1], 5).q_ddq(),
    lambda: theta2_jet(ThetaPoint(1, 3), 1, 10).slot(0),
    lambda: log_deriv_lambert(1, 2, 10),
], ids=["times-rational-cyc", "rational-cyc", "truncate", "q_ddq",
        "theta-at-pi-over-3", "lambert-1-2"])
def test_rational_values_are_held_over_q(build):
    # however a series with rational values is formed, it is over Q, its
    # lead reads as a rational, and a sum with 0 keeps its field
    s = build()
    assert not s.is_zero and s.field() is None
    assert type(s.coefficient(s.base)) in (int, Fraction)
    assert (s + 0).field() == s.field()


def test_rational_vectors_compare_with_missing_lanes_zero():
    # [1] over Q against [1, 0, 0, 0] over Q(zeta_8): equal at q^0, the
    # first difference is at q^1
    a, b = QExpansion(0, [1, 2], 5), QExpansion(0, [1, _Z8], 5)
    assert compare(a, b, 5) == Mismatch(1, 2, _Z8)
    assert compare(b, a, 5) == Mismatch(1, _Z8, 2)


def test_conductor_one_values_are_rational():
    # CyclotomicNumbers of conductor 1 are rationals: the series they make
    # equals the int/Fraction one and, like it, joins any field
    c = QExpansion(0, [CyclotomicNumber(1, [Fraction(1, 2)]), CyclotomicNumber(1, [3])], 10)
    r = QExpansion(0, [Fraction(1, 2), 3], 10)
    assert c == r and hash(c) == hash(r)
    z8 = QExpansion(0, [root_of_unity(8, 1), 1], 10)
    for s in (c, r):
        assert (s + z8).field() == 8 and (s * z8).field() == 8
    assert c + z8 == r + z8 and c * z8 == r * z8
    assert c.field() is None and c.coeffs == (Fraction(1, 2), 3)
    # a conductor-1 value also sits beside a conductor-8 one
    mixed = QExpansion(0, [root_of_unity(8, 1), CyclotomicNumber(1, [3])], 10)
    assert mixed.field() == 8 and mixed.coeffs[1] == 3


def test_inexact_coefficients_raise():
    for bad in (0.1, "1", 1j, None):
        with pytest.raises(TypeError):
            QExpansion(0, [bad, 1], 10)
    # an exact series never turns inexact through arithmetic
    with pytest.raises(TypeError):
        QExpansion(0, [Fraction(1, 10), 1], 10) + 0.1
