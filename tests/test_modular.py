"""Special-function expansions: eta products, theta jets, Lambert form."""

import functools
import hashlib
import math
from fractions import Fraction

import pytest

from qtheta import (
    CyclotomicNumber,
    QExpansion,
    T_of_log,
    ThetaPoint,
    ZJet,
    compare,
    embed_conductor,
    eta_log_ddq,
    eta_product,
    halfprod_constant,
    log_deriv_lambert,
    root_of_unity,
    theorem_rhs,
    theta2_jet,
    theta2_triple_product,
    trig_value,
)
from qtheta.cyclotomic import _ctx
from qtheta.modular import (
    eta_quotient,
    eta_quotient_log_ddq,
    point_orbit,
    reduced_point,
    root_product,
    theta2_product,
)


def _jet_slot_by_definition(pt, j, order):
    """Slot j of the theta jet at pt over Q(zeta_m), in the zeta basis: at
    q^{s/8 + s n(n+1)/2} the sum over tt = +-(2n+1) of
    (i tt)^j / j! e^{i tt z0}, each term formed by field arithmetic, with
    e^{i tt z0} = zeta_2den^{num tt} lifted to the jet's field."""
    s, m = pt.q_power, pt.conductor
    i = root_of_unity(m, m // 4)
    base = Fraction(s, 8)
    room = math.ceil(order - base)
    coeffs = [CyclotomicNumber.zero(m)] * room
    n = 0
    while (off := s * n * (n + 1) // 2) < room:
        for tt in (2 * n + 1, -2 * n - 1):
            phase = embed_conductor(root_of_unity(2 * pt.den, pt.num * tt), m)
            term = (i * tt) ** j * phase / math.factorial(j)
            coeffs[off] = coeffs[off] + term
        n += 1
    return QExpansion(base, coeffs, order)


def _sigma(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


class TestEtaProduct:
    def test_first_coefficients_vs_polynomial_oracle(self):
        def poly_mul(p, q):
            out = [0] * (len(p) + len(q) - 1)
            for i, pi in enumerate(p):
                for j, qj in enumerate(q):
                    out[i + j] += pi * qj
            return out

        expect = [1]
        for n in range(1, 9):
            f = [0] * (n + 1)
            f[0], f[n] = 1, -1
            expect = poly_mul(expect, f)
        e = eta_product(1, 9)
        base = Fraction(1, 24)
        got = [e.coefficient(base + t) for t in range(8)]
        assert got == expect[:8] == [1, -1, -1, 0, 0, 1, 0, 1]

    def test_alpha2_even_offsets_only(self):
        e = eta_product(2, 12)
        base = Fraction(2, 24)
        for t in range(1, 11, 2):
            assert e.coefficient(base + t) == 0

    def test_substitution_identity(self):
        lhs = eta_product(3, 24)
        rhs = eta_product(1, 8).scale_q(3)
        assert compare(lhs, rhs, 24) is None

    def test_base_exponent(self):
        assert eta_product(5, 10).base == Fraction(5, 24)


def _euler_loop(alpha, order):
    # eta(alpha tau) one coefficient update at a time, factor by factor
    base = Fraction(alpha, 24)
    room = math.ceil(Fraction(order) - base)
    if room <= 0:
        return QExpansion.zero(order)
    coeffs = [1] + [0] * (room - 1)
    for c in range(alpha, room, alpha):
        for i in range(room - 1, c - 1, -1):
            coeffs[i] -= coeffs[i - c]
    return QExpansion(base, coeffs, order)


def _eta_chain(exponents, order):
    # prod eta_a^e as series products of _euler_loop's products, divided
    # once by the product of the negative powers, worked above `order` by
    # the divisor's valuation and truncated to it
    work = Fraction(order) + sum(a * abs(e) for a, e in exponents) / 24 + 1
    num = den = QExpansion.one(work)
    for a, e in exponents:
        for _ in range(abs(e)):
            if e > 0:
                num = num * _euler_loop(a, work)
            else:
                den = den * _euler_loop(a, work)
    out = (num / den).truncate(order)
    assert out.precision == Fraction(order)
    return out


class TestEtaQuotient:
    ORDERS = (0, 1, Fraction(7, 2), 64, 100)

    def _check(self, exponents, order):
        got = eta_quotient(exponents, order)
        want = _eta_chain(exponents, order)
        assert (got.base, got.precision, got.field()) == \
            (want.base, want.precision, want.field()), (exponents, order)
        assert got == want, (exponents, order)
        return got

    def test_half_product_quotients_vs_series_chain(self):
        # eta_1^k / eta_k, lem2's closed form
        for k in range(1, 41):
            for order in self.ORDERS:
                got = self._check([(1, k), (k, -1)], order)
                if order:
                    assert got.base == 0 and got.coefficient(0) == 1

    def test_bridge_quotients_vs_series_chain(self):
        t0 = self._check([(2, 2), (1, -1)], 200)
        assert t0.base == Fraction(1, 8)
        # 2 eta_2^2/eta_1 = sum_n q^{(2n+1)^2/8}: 1 at the squares' offsets
        assert all(t0.coefficient(Fraction(1, 8) + t) == (t in {0, 1, 3, 6, 10, 15})
                   for t in range(20))
        t1 = self._check([(1, 3)], 200)
        # Jacobi: eta_1^3 = sum_n (-1)^n (2n+1) q^{(2n+1)^2/8}
        assert [t1.coefficient(Fraction(1, 8) + t) for t in (0, 1, 3, 6)] == [1, -3, 5, -7]

    def test_repeated_alpha_adds_exponents(self):
        got = self._check([(3, 2), (1, -1), (3, -1), (2, 1)], 60)
        assert got == eta_quotient([(3, 1), (1, -1), (2, 1)], 60)

    def test_cancelling_exponents_give_one(self):
        for order in self.ORDERS[1:]:
            assert eta_quotient([(4, 2), (4, -2)], order) == QExpansion.one(order)
            assert eta_quotient([], order) == QExpansion.one(order)

    def test_rejects_bad_alpha_and_exponent(self):
        with pytest.raises(ValueError):
            eta_quotient([(1, 1), (0, 2)], 5)
        with pytest.raises(ValueError):
            eta_quotient([(2, Fraction(1, 2))], 5)
        with pytest.raises(ValueError):
            eta_product(0, 5)

    def test_one_term_case_is_the_euler_loop(self):
        for alpha in range(1, 13):
            for order in self.ORDERS:
                got = eta_product(alpha, order)
                assert got == _euler_loop(alpha, order), (alpha, order)
                assert got == eta_quotient([(alpha, 1)], order)

    def test_agrees_with_the_log_derivative_sieve(self):
        # q d/dq Q = (q d/dq log Q) Q for the Euler product and the sigma
        # sieve, two routes that share no code
        grid = [[(a, e)] for a in (1, 2, 5) for e in (-3, -1, 2)]
        grid += [[(a, e), (b, f)] for a, b in ((1, 2), (1, 6), (3, 4))
                 for e in (-2, 1, 3) for f in (-1, 2)]
        grid += [[(10, 8), (1, -5), (5, -3)], [(1, 1), (3, -2), (6, 1)]]
        order = 60
        for exps in grid:
            q = eta_quotient(exps, order)
            lhs, rhs = q.q_ddq(), eta_quotient_log_ddq(exps, order) * q
            top = min(lhs.precision, rhs.precision)
            assert top >= order - Fraction(sum(a * abs(e) for a, e in exps), 24)
            assert compare(lhs, rhs, top) is None, exps


class TestEtaLogDdq:
    def test_sigma_values(self):
        e = eta_log_ddq(1, 8)
        assert e.coefficient(0) == Fraction(1, 24)
        for mm in range(1, 8):
            assert e.coefficient(mm) == -_sigma(mm)

    def test_constant_term_alpha_over_24(self):
        for alpha in (1, 2, 5, 12):
            assert eta_log_ddq(alpha, 6).coefficient(0) == Fraction(alpha, 24)

    def test_alpha2_odd_coefficients_vanish(self):
        e = eta_log_ddq(2, 15)
        for mm in range(1, 15, 2):
            assert e.coefficient(mm) == 0

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            eta_log_ddq(0, 5)


_sigma_table = functools.cache(_sigma)


def _eta_quotient_oracle(exponents, order):
    # sum e a/24 - sum_M (sum_{a | M} e a sigma(M/a)) q^M, one coefficient
    # at a time with a trial-division sigma
    coeffs = [sum(Fraction(e) * a for a, e in exponents) / 24]
    for mm in range(1, math.ceil(Fraction(order))):
        coeffs.append(-sum(Fraction(e) * a * _sigma_table(mm // a)
                           for a, e in exponents if mm % a == 0))
    return QExpansion(0, coeffs, order)


class TestEtaQuotientLogDdq:
    ORDERS = (0, 1, 2, Fraction(7, 2), 5, 80)

    @staticmethod
    def _theorem_exponents(k, delta):
        # 4(k-2) log(eta_k/eta_1) and 4 log(eta_2k^(2k-2) / (eta_1^k eta_k^(k-2)))
        if delta == 0:
            return [(k, 4 * (k - 2)), (1, -4 * (k - 2))]
        return [(2 * k, 4 * (2 * k - 2)), (1, -4 * k), (k, -4 * (k - 2))]

    def _check(self, exponents, order):
        want = _eta_quotient_oracle(exponents, order)
        got = eta_quotient_log_ddq(exponents, order)
        assert (got.base, got.precision, got.field()) == \
            (want.base, want.precision, want.field()), (exponents, order)
        assert [got.coefficient(n) for n in range(math.ceil(Fraction(order)))] \
            == [want.coefficient(n) for n in range(math.ceil(Fraction(order)))]
        assert got == want
        return got

    def test_theorem_exponents_vs_trial_division(self):
        for k in range(1, 61):
            for delta in (0, 1):
                for order in self.ORDERS:
                    got = self._check(self._theorem_exponents(k, delta), order)
                    assert theorem_rhs(k, delta, order) == got, (k, delta, order)
        got = self._check(self._theorem_exponents(59, 0), 871)
        assert theorem_rhs(59, 0, 871) == got

    def test_lem22_exponents_vs_trial_division(self):
        # 8(L_1 - 2 L_2), 8(L_1 - k L_k), 8(k-1)(2 L_2k - L_k), 8((k-3) L_k + 2 L_1)
        for k in range(1, 31):
            for order in (5, 43):
                for exps in ([(1, 8), (2, -16)],
                             [(1, 8), (k, -8 * k)],
                             [(2 * k, 16 * (k - 1)), (k, -8 * (k - 1))],
                             [(k, 8 * (k - 3)), (1, 16)]):
                    self._check(exps, order)

    def test_k3_rational_exponents(self):
        exps = [(1, -4), (3, Fraction(-4, 3)), (6, Fraction(16, 3))]
        for order in (0, 1, 2, 80, 200):
            got = self._check(exps, order)
        # -4 (L_1 + L_3/3 - (4/3) L_6) = 1 + 4 sum (n q^n/(1-q^n) + ...)
        assert got.coefficient(0) == 1 and got.coefficient(1) == 4

    def test_repeated_alpha_adds_exponents(self):
        got = self._check([(3, 1), (1, -2), (3, Fraction(1, 2))], 40)
        assert got == eta_quotient_log_ddq([(3, Fraction(3, 2)), (1, -2)], 40)

    def test_cancelling_exponents_give_the_zero_series(self):
        for order in self.ORDERS:
            assert eta_quotient_log_ddq([(4, 2), (4, -2)], order) == QExpansion.zero(order)
            assert eta_quotient_log_ddq([], order) == QExpansion.zero(order)
            for k, delta in ((1, 0), (1, 1), (2, 0)):
                assert theorem_rhs(k, delta, order) == QExpansion.zero(order)

    def test_vanishing_constant_term_moves_the_base(self):
        # 2 L_1 - L_2 has constant term (2 - 2)/24 = 0
        got = self._check([(1, 2), (2, -1)], 30)
        assert got.base == 1

    def test_one_term_case_is_eta_log_ddq(self):
        for alpha in (1, 2, 7, 12):
            assert eta_log_ddq(alpha, 50) == self._check([(alpha, 1)], 50)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            eta_quotient_log_ddq([(1, 1), (0, 2)], 5)


class TestThetaJet:
    def test_value_at_origin(self):
        a0 = theta2_jet(ThetaPoint(0, 1), 1, 14).slot(0)
        base = Fraction(1, 8)
        triangular = {0, 1, 3, 6, 10, 13}
        for t in range(13):
            expect = 2 if t in {n * (n + 1) // 2 for n in range(6)} else 0
            assert a0.coefficient(base + t) == expect

    def test_odd_slot_vanishes_at_origin(self):
        assert theta2_jet(ThetaPoint(0, 1), 1, 14).slot(1).is_zero

    def test_zero_at_half_pi(self):
        jet = theta2_jet(ThetaPoint(-1, 2), 1, 14)
        assert jet.slot(0).is_zero
        assert not jet.slot(1).is_zero

    def test_conductor_choice(self):
        assert ThetaPoint(1, 6).conductor == 12
        assert ThetaPoint(0, 1).conductor == 4
        assert ThetaPoint(1, 4).conductor == 8

    def test_theta_zero_detection(self):
        assert ThetaPoint(-1, 2).is_theta_zero
        assert ThetaPoint(3, 2).is_theta_zero
        assert not ThetaPoint(1, 3).is_theta_zero

    def test_q_power_scales_exponents(self):
        a0 = theta2_jet(ThetaPoint(0, 1, q_power=3), 0, 10).slot(0)
        assert a0.base == Fraction(3, 8)
        assert a0.coefficient(Fraction(3, 8) + 3) == 2

    def test_heat_cancellation_termwise(self):
        for (num, den) in [(0, 1), (1, 6), (3, 10), (-1, 2)]:
            f = theta2_jet(ThetaPoint(num, den), 4, 12)
            assert (f.q_ddq() * 8 + f.d_dz().d_dz()).is_zero()

    def test_slots_match_the_definition(self):
        # every slot, built over theta, against its definition over zeta
        J, order = 5, 20
        points = [(0, 1), (-1, 2)] + [(l, 2 * k) for k in range(1, 7)
                                      for l in range(2 * k)]
        for num, den in points:
            for s in (1, 3):
                pt = ThetaPoint(num, den, s)
                jet = theta2_jet(pt, J, order)
                for j in range(J + 1):
                    want = _jet_slot_by_definition(pt, j, order)
                    assert jet.slot(j) == want, (num, den, s, j)

    def test_jet_q_ddq_weights(self):
        # each term of the origin value gains its exact exponent (2n+1)^2/8
        a0 = theta2_jet(ThetaPoint(0, 1), 0, 14).slot(0)
        d = a0.q_ddq()
        for n in range(4):
            e = Fraction((2 * n + 1) ** 2, 8)
            assert d.coefficient(e) == 2 * e


def _assert_real(series, where):
    """Each coefficient, read in the zeta basis of Q(zeta_m), equals its
    complex conjugate: a check of values, whatever basis holds them."""
    m = series.field()
    if m is None:
        return
    for c in series.embed(m).coeffs:
        if isinstance(c, CyclotomicNumber):
            assert c.conjugate() == c, where


class TestRealness:
    def test_every_compared_series_is_real(self):
        # The premise of the real subfield: for k = 2..10 and every l != k,
        # each slot of the theta jet at l pi/2k (J = 4), its log_dz, its
        # T_of_log and the Lambert form equal their complex conjugates.
        # The jet is formed from its definition over zeta and divided over
        # zeta, the Lambert form by trial division over zeta; each equals
        # the series the package builds over theta.
        J, order = 4, 6
        for k in range(2, 11):
            for l in range(2 * k):
                if l == k:
                    continue
                pt = ThetaPoint(l, 2 * k)
                full = ZJet([_jet_slot_by_definition(pt, j, order)
                             for j in range(J + 1)])
                jet = theta2_jet(pt, J, order)
                for name, want, got in (
                        ("jet", full, jet),
                        ("log_dz", full.log_dz(), jet.log_dz()),
                        ("T_of_log", T_of_log(full), T_of_log(jet))):
                    for j, (w, g) in enumerate(zip(want.coeffs, got.coeffs)):
                        where = (k, l, name, j)
                        _assert_real(w, where)
                        _assert_real(g, where)
                        assert w == g, where
                lam = log_deriv_lambert(l, k, order)
                want = _lambert_by_trial_division(l, k, order)
                _assert_real(want, (k, l, "lambert"))
                _assert_real(lam, (k, l, "lambert"))
                assert lam == want, (k, l)


class TestTripleProduct:
    def test_equals_summed_series(self):
        for k in range(1, 9):
            for l in range(0, 2 * k, max(1, k // 2)):
                pt = ThetaPoint(l, 2 * k)
                tp = theta2_triple_product(pt, 20)
                a0 = theta2_jet(pt, 0, 20).slot(0)
                assert compare(tp, a0, 20) is None, (l, k)

    def test_pi_shift_negates(self):
        lhs = theta2_triple_product(ThetaPoint(1, 1), 16)
        rhs = theta2_jet(ThetaPoint(0, 1), 0, 16).slot(0)
        assert compare(lhs, -rhs, 16) is None

    def test_leading_phase_at_half_pi(self):
        # theta2(pi/2 + z0') prefactor: at pt = pi/2 the series vanishes
        tp = theta2_triple_product(ThetaPoint(1, 2), 12)
        assert tp.is_zero

    def test_prefactor_at_quarter_pi(self):
        # leading coefficient is e^{-i z0} (zeta_8^{-1}) times (1 + e^{2 i z0})
        tp = theta2_triple_product(ThetaPoint(1, 4), 6)
        z8 = root_of_unity(8, 1)
        expect = z8**-1 * (1 + z8**2)
        assert tp.coefficient(Fraction(1, 8)) == expect

    def test_q_power(self):
        pt = ThetaPoint(1, 4, q_power=3)
        assert compare(
            theta2_triple_product(pt, 20), theta2_jet(pt, 0, 20).slot(0), 20
        ) is None


class TestHalfProduct:
    @pytest.mark.parametrize("bd", [2, 4, 8, 12])
    def test_equals_series_chain(self, bd):
        # lem2's left side against the chain of packed series products it
        # replaced, kept here as the reference; base_den = 2, delta = 1
        # puts a factor at pi/2, where theta2 and so the product is 0
        for k in range(1, 9):
            for delta in (0, 1):
                nw = 24 + k // 24 + 2
                pts = [ThetaPoint(1 + (bd // 2) * l, bd * k) for l in range(2 * k)
                       if (l - k) % 2 == delta]
                chain = None
                for pt in pts:
                    a0 = theta2_jet(pt, 0, nw).slot(0)
                    chain = a0 if chain is None else chain * a0
                new = theta2_product(pts, nw)
                assert chain.is_zero == (bd == 2 and delta == 1), (k, delta)
                if chain.is_zero:
                    assert new.is_zero, (k, delta)
                else:
                    assert new == chain, (k, delta)
                    assert (new.base, new.precision) == (chain.base, chain.precision)

    @pytest.mark.parametrize("monomial, value", [
        ((0, 1, 0), 2**64),   # +zeta^0: every lane at its bound
        ((0, 1, 1), 2**64),   # +zeta_8: (2 zeta)^64 = 2^64, through the folds
        ((0, -1, 4), 2**64),  # -zeta_8^4 = +1 after the sign of the shift
    ], ids=["one", "zeta", "minus-zeta^4"])
    def test_lanes_reach_the_count_bound(self, monomial, value):
        # 64 factors of two monomials at q^0: the q^0 lane reaches the bound
        # prod_j L_j = 2^64 exactly, which needs 66 signed bits: lane_width(2^64)
        # = 67 bits keeps one to spare, and lanes of 65 bits would overflow
        vecs = root_product(8, [[monomial] * 2] * 64, 3)
        assert vecs == [[value, 0, 0, 0], None, None]
        vecs = root_product(8, [[(0, 1, 0)] * 2] * 63 + [[(0, -1, 0)] * 2], 3)
        assert vecs == [[-(2**64), 0, 0, 0], None, None]


class TestParityAndShift:
    def test_parity(self):
        for k in (1, 2, 3, 6):
            for l in range(2 * k):
                fwd = theta2_jet(ThetaPoint(l, 2 * k), 2, 12)
                bwd = theta2_jet(ThetaPoint(-l, 2 * k), 2, 12)
                for j in range(3):
                    ref = fwd.slot(j) * (-1 if j % 2 else 1)
                    assert compare(bwd.slot(j), ref, 12) is None

    def test_shift_by_two_k(self):
        for k in (1, 2, 3, 6):
            for l in range(2 * k):
                a = theta2_jet(ThetaPoint(l + 2 * k, 2 * k), 0, 12).slot(0)
                b = theta2_jet(ThetaPoint(l, 2 * k), 0, 12).slot(0)
                assert compare(a, -b, 12) is None


class TestLogDerivLambert:
    def test_l_zero_is_zero_series(self):
        assert log_deriv_lambert(0, 4, 12).is_zero

    def test_constant_term_is_minus_tan(self):
        s = log_deriv_lambert(1, 2, 12)
        assert s.coefficient(0) == -1  # -tan(pi/4)

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            log_deriv_lambert(3, 3, 10)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            log_deriv_lambert(8, 4, 10)

    def test_coefficients_are_real(self):
        for c in log_deriv_lambert(3, 5, 10).coeffs:
            if isinstance(c, CyclotomicNumber):
                assert c.is_real()

    def test_jet_ratio_cross_check(self):
        # independent route: a1 = S * a0 with (a0, a1) from the theta jet
        for (l, k) in [(1, 2), (2, 3), (3, 4), (5, 6)]:
            jet = theta2_jet(ThetaPoint(l, 2 * k), 1, 17)
            S = log_deriv_lambert(l, k, 17)
            assert compare(jet.slot(1), S * jet.slot(0), 16) is None

    # sha256 of the coefficients below q^65, recorded from the Lambert form
    # that summed 2k sine vectors over Q(zeta_4k) from -tan x_l: both
    # parities, l = 0, l > k, odd l at even k (the class k/2 of weight 2)
    # and a point already in its smallest field, (2, 5)
    PINNED_65 = {
        (0, 1): "ecf4e96ac64cb1ec",
        (1, 2): "4be4e84027a03316",
        (3, 4): "6856a175499b2c77",
        (5, 4): "5f1b9707378f97df",
        (7, 6): "f0ace0dca4565f0f",
        (2, 5): "2c8e9528426b560c",
        (9, 10): "0645543a5f57f003",
        (13, 10): "3929d800af4ce026",
    }

    def test_pinned_digests_at_order_65(self):
        for (l, k), want in self.PINNED_65.items():
            s = log_deriv_lambert(l, k, 65)
            text = ",".join(str(s.coefficient(n)) for n in range(65))
            assert hashlib.sha256(text.encode()).hexdigest()[:16] == want, (l, k)


def _bracket_data_by_trial_division(l, k, order):
    # the divisor loop _bracket_data used before its sieve: one trial
    # division per M up to sqrt(M), each divisor pair added once
    m = 4 * k
    tan = trig_value("tan", l, 2 * k)
    i_exp = m // 4
    svecs = []
    for h in range(1, 2 * k + 1):
        a = 2 * l * h
        sg = 2 if h % 2 else -2
        svecs.append([sg * (x - y) for x, y in
                      zip(root_of_unity(m, a + i_exp).coords,
                          root_of_unity(m, -a + i_exp).coords)])
    vecs = [[-x for x in tan._num]]
    for M in range(1, order):
        v = [0] * len(svecs[0])
        d = 1
        while d * d <= M:
            if M % d == 0:
                for e in {d, M // d}:
                    v = [x + y for x, y in zip(v, svecs[(e - 1) % (2 * k)])]
            d += 1
        vecs.append(v)
    return tan._den, vecs


def _lambert_by_trial_division(l, k, order):
    # the Lambert form from the reference above, through the public
    # constructors: the q^0 vector is over den, the others are integers
    den, vecs = _bracket_data_by_trial_division(l, k, math.ceil(order))
    scales = [Fraction(1, den)] + [1] * (len(vecs) - 1)
    return QExpansion(0, [CyclotomicNumber(4 * k, [x * s for x in v])
                          for v, s in zip(vecs, scales)], order)


class TestBracketData:
    def test_sieve_matches_trial_division(self):
        # the class sieve behind log_deriv_lambert against one trial
        # division per coefficient over the 2k sine vectors, every l != k
        for k in range(1, 13):
            orders = (40, 0, 1, 2, Fraction(7, 2)) if k <= 6 else (40,)
            for l in range(2 * k):
                if l == k:
                    continue
                for order in orders:
                    want = _lambert_by_trial_division(l, k, order)
                    assert log_deriv_lambert(l, k, order) == want, (l, k, order)


class TestReducedPoint:
    def test_smallest_field_embeds_to_the_common_one(self):
        # the jet and the Lambert form at l pi/2k, built in the point's
        # smallest field Q(zeta_lcm(2n, 4)), n = 2k/gcd(l, 2k), and embedded
        # into Q(zeta_4k), equal the ones built there, slot by slot
        for k in range(1, 13):
            for l in range(2 * k):
                if l == k:
                    continue
                lr, kr = reduced_point(l, k)
                n = 2 * k // math.gcd(l, 2 * k)
                assert Fraction(lr, 2 * kr) == Fraction(l, 2 * k)
                assert 4 * kr == math.lcm(2 * n, 4), (l, k)
                small = theta2_jet(ThetaPoint(lr, 2 * kr), 2, 12)
                full = theta2_jet(ThetaPoint(l, 2 * k), 2, 12)
                # a series is over Q exactly when all its values are rational
                for s in small.coeffs:
                    rational = all(not isinstance(c, CyclotomicNumber)
                                   or c.is_rational() for c in s.coeffs)
                    assert s.field() == (None if rational else 4 * kr), (l, k)
                for j in range(3):
                    assert small.slot(j).embed(4 * k) == full.slot(j), (l, k, j)
                lam = log_deriv_lambert(lr, kr, 12)
                assert lam.embed(4 * k) == log_deriv_lambert(l, k, 12), (l, k)

    @pytest.mark.parametrize("num, den, degree, slots", [
        (0, 1, 2, (0, 2)), (0, 2, 2, (0, 2)), (-1, 2, 1, (1,))])
    def test_degree_one_real_subfield_is_rational(self, num, den, degree, slots):
        # at z0 = 0 and -pi/2, conductor 4, K+ = Q: the nonzero slots are
        # series over Q, with int leads, as their sums with 0 are (slot 0
        # is zero at -pi/2, slot 1 at 0)
        jet = theta2_jet(ThetaPoint(num, den), degree, 8)
        for j in slots:
            s = jet.slot(j)
            assert not s.is_zero and s.field() is None, j
            assert type(s.coefficient(s.base)) is int, j
            assert (s + 0).field() == s.field(), j

    def test_reduction(self):
        assert reduced_point(0, 5) == (0, 1)
        assert reduced_point(4, 6) == (2, 3)   # 4 pi/12 = pi/3 = 2 pi/6: n = 3
        assert reduced_point(6, 9) == (2, 3)   # 6 pi/18 = pi/3
        assert reduced_point(3, 6) == (1, 2)   # 3 pi/12 = pi/4: n = 4 even
        assert reduced_point(5, 6) == (5, 6)   # already smallest


def _reduced_points(k_max: int) -> set:
    """Every reduced point (l', k') of l pi/2k, 0 <= l < 2k, l != k, k <= k_max."""
    return {reduced_point(l, k) for k in range(1, k_max + 1)
            for l in range(2 * k) if l != k}


def _shifted_image(a: int, lr: int, kr: int) -> tuple[int, int]:
    """(l'', s): a lr pi/2kr = l'' pi/2kr + pi (1 - s)/2 with 0 <= l'' < 2kr,
    s = -1 when the image of lr under zeta -> zeta^a needs a shift by pi."""
    b = a * lr % (4 * kr)
    return (b, 1) if b < 2 * kr else (b - 2 * kr, -1)


def _zeta_vectors(s, m):
    """(base, denominator, coefficient vectors) of the series s over the
    zeta basis of Q(zeta_m)."""
    e = s.embed(m)  # a series over Q keeps its one-lane vectors
    ctx = _ctx(m)
    return e.base, e._den, [
        None if v is None else ctx.powers([(0, v[0])]) if e.field() is None else v
        for v in e._vecs]


def _lambert_conjugate_mismatch(lambert, k_max: int = 8, order: int = 12):
    """The first (l, k, a), k <= k_max, at which sigma_a: zeta -> zeta^a
    does not send lambert(l, k) to chi(a) lambert(a l mod 2k, k), or None.

    The check runs over every unit a mod 4k and every 0 <= l < 2k, l != k,
    on the zeta coordinates, cross-multiplied by the denominators; a l is
    never k mod 2k, as a is odd."""
    for k in range(1, k_max + 1):
        m = 4 * k
        ctx = _ctx(m)
        series = {l: _zeta_vectors(lambert(l, k, order), m)
                  for l in range(2 * k) if l != k}
        for a in range(1, m, 2):
            if math.gcd(a, m) != 1:
                continue
            chi = (-1) ** ((a - 1) // 2)
            for l, (base, den, vecs) in series.items():
                ibase, iden, ivecs = series[a * l % (2 * k)]
                if (base, len(vecs)) != (ibase, len(ivecs)):
                    return l, k, a
                for v, w in zip(vecs, ivecs):
                    if (v is None) != (w is None) or v is not None and (
                            [x * iden for x in ctx.galois_vec(v, a)]
                            != [chi * x * den for x in w]):
                        return l, k, a
    return None


class TestGaloisOrbit:
    """meq1 and lemd share one pass over a Galois orbit
    (identities._meq1_at, identities.verify_lemd): their premises, on the
    jets and Lambert forms they build and on the orbit key."""

    def test_conjugate_jet_slots(self):
        # sigma_a: zeta -> zeta^a sends slot j of the jet at l' to
        # chi(a)^j times slot j at a l', and a shift by pi negates the jet;
        # compared on the zeta coordinates, cross-multiplied by the
        # denominators, for every unit a mod 4k'
        @functools.cache
        def jet(lr, kr):
            return theta2_jet(ThetaPoint(lr, 2 * kr), 4, 12)

        compared = 0
        for lr, kr in sorted(_reduced_points(8)):
            m = 4 * kr
            ctx = _ctx(m)
            for a in range(1, m, 2):
                if math.gcd(a, m) != 1:
                    continue
                chi = (-1) ** ((a - 1) // 2)
                lb, sign = _shifted_image(a, lr, kr)
                assert reduced_point(lb, kr) == (lb, kr), (lr, kr, a)
                assert point_orbit(lb, kr) == point_orbit(lr, kr), (lr, kr, a)
                for j in range(5):
                    base, den, vecs = _zeta_vectors(jet(lr, kr).slot(j), m)
                    ibase, iden, ivecs = _zeta_vectors(jet(lb, kr).slot(j), m)
                    assert (base, len(vecs)) == (ibase, len(ivecs)), (lr, kr, a, j)
                    c = sign * chi ** j
                    for v, w in zip(vecs, ivecs):
                        assert (v is None) == (w is None), (lr, kr, a, j)
                        if v is not None:
                            got = [x * iden for x in ctx.galois_vec(v, a)]
                            assert got == [c * x * den for x in w], (lr, kr, a, j)
                    compared += 1
        # 43 reduced points, 426 (point, unit) pairs, five slots each
        assert compared == 2130

    def test_conjugate_lambert_forms(self):
        # sigma_a sends the Lambert form at l to chi(a) times the form at
        # a l mod 2k, the period pi of tan and of each sin(2 d x) taking
        # a l mod 4k there; lemd's shared pass rests on it.  A Lambert form
        # taken at l + 2 mod 2k, the mutation of test_cli's
        # test_failing_lemd_reports_pinned, breaks it
        assert _lambert_conjugate_mismatch(log_deriv_lambert) is None

        def shifted(l, k, order):
            s = (l + 2) % (2 * k)
            return log_deriv_lambert(l if s == k else s, k, order)

        assert _lambert_conjugate_mismatch(shifted) is not None

    def test_one_orbit_per_denominator(self):
        # the reduced points of one field with one n = point_orbit are one
        # orbit under the units a mod 4k' and the shift by pi, and points
        # with different n lie in different orbits
        points = _reduced_points(60)
        by_field: dict = {}
        for lr, kr in points:
            by_field.setdefault(kr, set()).add(lr)
        assert sorted(by_field) == list(range(1, 61))
        for kr, lrs in by_field.items():
            units = [a for a in range(1, 4 * kr, 2) if math.gcd(a, 4 * kr) == 1]
            for lr in lrs:
                orbit = {_shifted_image(a, lr, kr)[0] for a in units}
                same_n = {x for x in lrs if point_orbit(x, kr) == point_orbit(lr, kr)}
                assert orbit == same_n, (lr, kr)
        for l, k in ((1, 4), (3, 4), (2, 6), (4, 6), (0, 7)):
            assert point_orbit(l, k) == point_orbit(*reduced_point(l, k))


class TestHalfprodConstant:
    def test_degenerate_identity_instance(self):
        assert halfprod_constant(1, 1) == 1

    def test_even_even(self):
        assert halfprod_constant(2, 0) == -1

    def test_opposite_parity_values(self):
        # quarter-turn exponent (delta - k - 1) when k, delta differ mod 2
        assert halfprod_constant(3, 0) == 1
        assert halfprod_constant(1, 0) == -1
        assert halfprod_constant(2, 1) == -1
        assert halfprod_constant(4, 1) == 1

    def test_fourth_root(self):
        for k in range(1, 9):
            for d in (0, 1):
                c = halfprod_constant(k, d)
                assert c ** 4 == 1

    def test_rational_sign(self):
        # delta - k - [k != delta mod 2] is even, so C = i^E is the int +-1,
        # and lem2's right side stays real
        for k in range(1, 201):
            for d in (0, 1):
                c = halfprod_constant(k, d)
                assert type(c) is int and c in (1, -1), (k, d)
