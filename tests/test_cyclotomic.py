"""Exact field arithmetic in Q(zeta_m) and its real subfield: examples and
structural laws."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtheta import (
    ConductorError,
    CyclotomicNumber,
    PoleError,
    cyclotomic_polynomial,
    embed_conductor,
    euler_phi,
    root_of_unity,
    trig_value,
)
from qtheta.cyclotomic import _ctx, real_polynomial


def _poly_divmod(num, den):
    """Test-local division oracle by a monic integer polynomial (constant
    term first): the quotient and the remainder, len(den) - 1 entries."""
    assert den[-1] == 1
    num, dd = list(num), len(den) - 1
    out = [0] * max(len(num) - dd, 0)
    for e in range(len(out) - 1, -1, -1):
        c = out[e] = num[e + dd]
        if c:
            for i, x in enumerate(den):
                num[e + i] -= c * x
    return out, (num + [0] * dd)[:dd]


def _poly_div(num, den):
    """Exact division by a monic integer polynomial; the remainder must
    vanish."""
    out, rem = _poly_divmod(num, den)
    assert not any(rem), "division was not exact"
    return out


class TestCyclotomicPolynomial:
    def test_m1(self):
        assert cyclotomic_polynomial(1) == (-1, 1)

    def test_m4_is_x2_plus_1(self):
        assert cyclotomic_polynomial(4) == (1, 0, 1)

    def test_m12_from_division_oracle(self):
        # divide x^12 - 1 by Phi_1 Phi_2 Phi_3 Phi_4 Phi_6 independently
        num = [-1] + [0] * 11 + [1]
        for d in (1, 2, 3, 4, 6):
            num = _poly_div(num, cyclotomic_polynomial(d))
        assert tuple(num) == cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    def test_matches_recursive_division_oracle(self):
        # Phi_m = (x^m - 1) / prod_{d | m, d < m} Phi_d, every Phi_d taken
        # from this same recursion, never from cyclotomic_polynomial
        phi = {}
        for m in range(1, 301):
            num = [-1] + [0] * (m - 1) + [1]
            for d in range(1, m):
                if m % d == 0:
                    num = _poly_div(num, phi[d])
            phi[m] = tuple(num)
            assert cyclotomic_polynomial(m) == phi[m], m

    def test_degree_is_phi(self):
        for m in range(1, 65):
            assert len(cyclotomic_polynomial(m)) - 1 == euler_phi(m)

    def test_monic(self):
        for m in (2, 7, 30, 64, 100):
            assert cyclotomic_polynomial(m)[-1] == 1


class TestRootsOfUnity:
    def test_i_squared(self):
        i = root_of_unity(4, 1)
        assert i * i == -1

    def test_full_turn(self):
        for m in (1, 5, 12, 30):
            assert root_of_unity(m, m) == 1

    def test_sqrt2_representative(self):
        s = root_of_unity(8, 1) + root_of_unity(8, -1)
        assert s * s == 2

    def test_order_divides_m(self):
        for m in range(1, 65):
            for j in range(0, m, max(1, m // 9)):
                assert root_of_unity(m, j) ** m == 1

    def test_primitive_product_recovers_minimal_polynomial(self):
        # prod over gcd(j,m)=1 of (x - zeta^j) must equal Phi_m
        for m in (1, 2, 3, 4, 6, 8, 12, 16, 24, 36, 60, 64):
            z = root_of_unity(m, 1)
            poly = [CyclotomicNumber.one(m)]
            for j in range(m):
                if math.gcd(j, m) != 1:
                    continue
                root = z**j
                new = [CyclotomicNumber.zero(m) for _ in range(len(poly) + 1)]
                for t, c in enumerate(poly):
                    new[t + 1] = new[t + 1] + c
                    new[t] = new[t] - c * root
                poly = new
            assert [c.as_rational() for c in poly] == list(cyclotomic_polynomial(m))


def _exponent_oracle(m, terms):
    """The remainder of sum c x^(e mod m) over the (e, c) pairs mod Phi_m."""
    num = [0] * m
    for e, c in terms:
        num[e % m] += c
    return _poly_divmod(num, cyclotomic_polynomial(m))[1]


class TestExponentMap:
    def test_powers_is_the_remainder_mod_phi(self):
        # exponents below 0 and at or above 2m, repeated ones included
        rng = random.Random(23)
        for m in range(1, 121):
            ctx = _ctx(m)
            for _ in range(4):
                terms = [(rng.randint(-5 * m, -1), rng.randint(-9, 9))
                         for _ in range(rng.randint(1, 6))]
                terms += [(rng.randint(2 * m, 7 * m), rng.randint(-9, 9))
                          for _ in range(rng.randint(1, 6))]
                terms += rng.sample(terms, 2)
                assert ctx.powers(terms) == _exponent_oracle(m, terms), (m, terms)
            e = rng.randint(-3 * m, 3 * m)
            assert list(root_of_unity(m, e).coords) == _exponent_oracle(m, [(e, 1)])

    def test_galois_vec_against_field_arithmetic(self):
        # sum_e v[e] zeta^(e j) for the units j (the automorphisms) and
        # for j = M/m (the embedding into Q(zeta_M))
        rng = random.Random(29)
        for m in range(1, 41):
            ctx = _ctx(m)
            v = [rng.randint(-9, 9) for _ in range(ctx.D)]
            a = CyclotomicNumber(m, v)
            for j in range(1, m + 1):
                if math.gcd(j, m) != 1:
                    continue
                terms = [(e * j, c) for e, c in enumerate(v)]
                assert ctx.galois_vec(v, j) == _exponent_oracle(m, terms), (m, j)
                want = sum((c * root_of_unity(m, e) for e, c in terms),
                           CyclotomicNumber.zero(m))
                assert a.galois(j) == want, (m, j)
            for M in (2 * m, 3 * m):
                j = M // m
                terms = [(e * j, c) for e, c in enumerate(v)]
                assert _ctx(M).galois_vec(v, j) == _exponent_oracle(M, terms), (m, M)
                want = sum((c * root_of_unity(M, e) for e, c in terms),
                           CyclotomicNumber.zero(M))
                assert embed_conductor(a, M) == want, (m, M)

    def test_reduce_is_the_remainder_mod_the_modulus(self):
        # reduce, the one remainder powers goes through too, is the
        # remainder of the whole vector mod Phi_m over zeta and mod psi_m
        # over theta, at lengths up to 3m
        rng = random.Random(31)
        for m in range(1, 121):
            ctx = _ctx(m)
            real = _ctx(m, True) if m >= 3 else None
            for n in sorted({*range(1, 8), *rng.sample(range(1, 3 * m + 1),
                                                        min(12, 3 * m))}):
                vec = [rng.randint(-99, 99) for _ in range(n)]
                want = _exponent_oracle(m, enumerate(vec))
                assert ctx.reduce(vec) == want, (m, n)
                assert ctx.powers(enumerate(vec)) == want, (m, n)
                if real is not None:
                    want = _poly_divmod(vec, real_polynomial(m))[1]
                    assert real.reduce(vec) == want, (m, n)


def _psi_oracle_phi(psi):
    """x^h psi(x + 1/x), h = deg psi, expanded by the binomial theorem:
    sum_i psi_i (x^2 + 1)^i x^(h - i)."""
    h = len(psi) - 1
    out = [0] * (2 * h + 1)
    for i, c in enumerate(psi):
        for r in range(i + 1):
            out[2 * r + h - i] += c * math.comb(i, r)
    return tuple(out)


def _rand_real(rng, m, bound=9):
    return [rng.randint(-bound, bound) for _ in range(_ctx(m, True).D)]


class TestRealSubfield:
    def test_psi_against_the_phi_identity(self):
        # x^{D'} psi_m(x + 1/x) = Phi_m(x), psi_m monic of degree phi(m)/2
        for m in range(3, 121):
            psi = real_polynomial(m)
            assert psi[-1] == 1 and 2 * (len(psi) - 1) == euler_phi(m), m
            assert _psi_oracle_phi(psi) == cyclotomic_polynomial(m), m
            assert _ctx(m, True).D == euler_phi(m) // 2

    def test_small_psi(self):
        # theta = -1, 0, (sqrt 5 - 1)/2, sqrt 2, 1 and sqrt 3
        assert real_polynomial(3) == (1, 1)
        assert real_polynomial(4) == (0, 1)
        assert real_polynomial(5) == (-1, 1, 1)
        assert real_polynomial(8) == (-2, 0, 1)
        assert real_polynomial(6) == (-1, 1)
        assert real_polynomial(12) == (-3, 0, 1)
        with pytest.raises(ValueError):
            real_polynomial(2)

    def test_cosine_table_lifts_to_the_exponent_map(self):
        # c_e = zeta^e + zeta^-e for every e, negative and beyond m too
        for m in range(3, 121):
            rc, zc = _ctx(m, True), _ctx(m)
            for e in (*range(-2, m + 3), -m - 1, 2 * m + 1):
                want = zc.powers([(e, 1), (-e, 1)])
                assert rc.lift(rc.cosines([(e, 1)])) == want, (m, e)
            assert rc.cosines([(1, 3), (m + 1, -1), (-1, 1)]) == \
                [3 * x for x in rc.cos[1]]

    def test_lift_is_a_ring_map(self):
        # the lift of a product over theta is the product of the lifts
        rng = random.Random(37)
        for m in [*range(3, 41), 60, 76, 84, 120]:
            rc, zc = _ctx(m, True), _ctx(m)
            for _ in range(3):
                y, z = _rand_real(rng, m), _rand_real(rng, m)
                prod = rc.mul_vec(y, z)
                assert len(prod) == rc.D
                assert rc.lift(prod) == zc.mul_vec(rc.lift(y), rc.lift(z)), m
                # a lifted element is real, and lifting is injective
                lifted = CyclotomicNumber(m, rc.lift(y))
                assert lifted.is_real()
                assert (lifted == 0) == (not any(y))

    def test_cosine_map_of_a_real_element_is_twice_it(self):
        # x = (x + conj x)/2 = sum a_e c_e / 2 for x = sum a_e zeta^e real
        rng = random.Random(41)
        for m in range(3, 121):
            rc = _ctx(m, True)
            y = _rand_real(rng, m)
            assert rc.cosines(enumerate(rc.lift(y))) == [2 * x for x in y], m

    def test_real_inverse_against_invert(self):
        # the real inverse _long_div folds in: the cosine map of the zeta
        # coordinates of 1/x is 2/x in theta coordinates
        rng = random.Random(43)
        for m in [5, 7, 8, 12, 15, 16, 20, 24, 40, 76]:
            rc = _ctx(m, True)
            for _ in range(3):
                y = _rand_real(rng, m)
                if not any(y[1:]):
                    continue
                inv = CyclotomicNumber(m, rc.lift(y)).invert()
                L = rc.cosines(enumerate(inv._num))
                assert rc.mul_vec(y, L) == [2 * inv._den] + [0] * (rc.D - 1), m


class TestFieldOps:
    def test_inverse_contract(self):
        a = 1 + root_of_unity(4, 1)
        assert a * a.invert() == 1

    def test_conjugate_of_zeta5(self):
        assert root_of_unity(5, 1).conjugate() == root_of_unity(5, 4)

    def test_phi3_reduction(self):
        z = root_of_unity(3, 1)
        assert z + z * z == -1

    def test_zero_inverse_raises(self):
        with pytest.raises(ZeroDivisionError):
            CyclotomicNumber.zero(5).invert()

    def test_conductor_mismatch_raises(self):
        with pytest.raises(ConductorError):
            root_of_unity(4, 1) + root_of_unity(3, 1)

    def test_rationals_coerce(self):
        z = root_of_unity(7, 1)
        assert (z + Fraction(1, 2)) - z == Fraction(1, 2)

    def test_division(self):
        z = root_of_unity(12, 1)
        a = 2 + z
        b = 1 - z**5
        assert (a / b) * b == a

    def test_norm_is_fixed_by_conjugation(self):
        rng = random.Random(11)
        for _ in range(20):
            m = rng.randint(3, 24)
            a = root_of_unity(m, rng.randrange(m)) * rng.randint(1, 5) + rng.randint(-3, 3)
            n = a * a.conjugate()
            assert n.is_real()

    def test_equality_is_canonical(self):
        a = root_of_unity(12, 4)
        b = root_of_unity(12, 1) ** 4
        assert a == b and hash(a) == hash(b)

    def test_coords_round_trip(self):
        a = root_of_unity(5, 2) * Fraction(3, 7) + 1
        b = CyclotomicNumber(5, a.coords)
        assert a == b

    def test_inexact_coordinates_raise(self):
        for bad in (0.1, "1", None):
            with pytest.raises(TypeError):
                CyclotomicNumber(4, [bad, 0])
            with pytest.raises(TypeError):
                CyclotomicNumber.rational(4, bad)
        assert CyclotomicNumber(4, [Fraction(1, 10), 0]) == Fraction(1, 10)


@settings(max_examples=60, deadline=None)
@given(
    m=st.sampled_from([3, 4, 5, 8, 12, 15, 16]),
    j1=st.integers(0, 30),
    j2=st.integers(0, 30),
    c1=st.fractions(min_value=-4, max_value=4, max_denominator=6),
    c2=st.fractions(min_value=-4, max_value=4, max_denominator=6),
)
def test_conjugation_is_field_automorphism(m, j1, j2, c1, c2):
    x = root_of_unity(m, j1) * c1 + 1
    y = root_of_unity(m, j2) * c2 - 2
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert x.conjugate().conjugate() == x


@settings(max_examples=40, deadline=None)
@given(
    m=st.sampled_from([3, 4, 5, 8, 12, 15]),
    j=st.integers(0, 30),
    c=st.fractions(min_value=-4, max_value=4, max_denominator=6),
)
def test_inverse_contract_random(m, j, c):
    a = root_of_unity(m, j) * c + root_of_unity(m, 1)
    if not a:
        return
    assert a * a.invert() == 1


class TestEmbedding:
    def test_zeta4_into_8(self):
        assert embed_conductor(root_of_unity(4, 1), 8) == root_of_unity(8, 2)

    def test_rational_unchanged(self):
        a = CyclotomicNumber.rational(3, Fraction(5, 7))
        for M in (3, 6, 12, 24):
            assert embed_conductor(a, M).as_rational() == Fraction(5, 7)

    def test_round_trip_preserves_equality(self):
        # injectivity of the lift: zeta_3 into M = 12 and its known image
        z3 = root_of_unity(3, 1)
        up = embed_conductor(z3, 12)
        assert up == root_of_unity(12, 4)
        other = embed_conductor(root_of_unity(3, 2), 12)
        assert up != other
        # arithmetic commutes with the embedding
        assert embed_conductor(z3 * z3, 12) == up * up

    def test_non_divisible_raises(self):
        with pytest.raises(ConductorError):
            embed_conductor(root_of_unity(4, 1), 6)


class TestTrig:
    def test_sin_half_pi(self):
        assert trig_value("sin", 1, 2) == 1

    def test_tan_zero(self):
        assert trig_value("tan", 0, 7) == 0

    def test_tan_pi_sixth_squared(self):
        t = trig_value("tan", 1, 6)
        assert (t * t).as_rational() == Fraction(1, 3)

    def test_known_values(self):
        assert trig_value("cos", 1, 3).as_rational() == Fraction(1, 2)
        assert trig_value("sin", 1, 6).as_rational() == Fraction(1, 2)
        assert trig_value("tan", 1, 4) == 1

    def test_pole(self):
        with pytest.raises(PoleError):
            trig_value("tan", 1, 2)
        with pytest.raises(PoleError):
            trig_value("tan", 3, 2)

    def test_pythagorean_all_q_to_48(self):
        for q in range(1, 49):
            for p in (0, 1, q // 2, q, 2 * q - 1):
                s = trig_value("sin", p, q)
                c = trig_value("cos", p, q)
                assert s * s + c * c == 1

    def test_tan_matches_sin_over_cos(self):
        # every angle p pi/q in [0, 2 pi); the poles are where 2p/q is odd
        for q in range(1, 41):
            for p in range(2 * q):
                if (2 * p) % q == 0 and (2 * p // q) % 2:
                    with pytest.raises(PoleError):
                        trig_value("tan", p, q)
                    continue
                t = trig_value("tan", p, q)
                assert t * trig_value("cos", p, q) == trig_value("sin", p, q), (p, q)
