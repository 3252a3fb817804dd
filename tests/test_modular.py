"""Special-function expansions: eta products, theta jets, Lambert form."""

from fractions import Fraction

import pytest

from qtheta import (
    CyclotomicNumber,
    ThetaPoint,
    compare,
    eta_log_ddq,
    eta_product,
    halfprod_constant,
    log_deriv_lambert,
    root_of_unity,
    theta2_jet,
    theta2_triple_product,
    trig_value,
)
from qtheta.cyclotomic import _ctx
from qtheta.modular import _bracket_data


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

    def test_jet_q_ddq_weights(self):
        # each term of the origin value gains its exact exponent (2n+1)^2/8
        a0 = theta2_jet(ThetaPoint(0, 1), 0, 14).slot(0)
        d = a0.q_ddq()
        for n in range(4):
            e = Fraction((2 * n + 1) ** 2, 8)
            assert d.coefficient(e) == 2 * e


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


def _bracket_data_by_trial_division(l, k, order):
    # the divisor loop _bracket_data used before its sieve: one trial
    # division per M up to sqrt(M), each divisor pair added once
    m = 4 * k
    rows = _ctx(m).rows()
    tan = trig_value("tan", l, 2 * k)
    i_exp = m // 4
    svecs = []
    for h in range(1, 2 * k + 1):
        a = (2 * l * h) % m
        sg = 2 if h % 2 else -2
        svecs.append([sg * (x - y) for x, y in
                      zip(rows[(a + i_exp) % m], rows[(-a + i_exp) % m])])
    vecs = [[-x for x in tan._num]]
    for M in range(1, order):
        v = [0] * len(rows[0])
        d = 1
        while d * d <= M:
            if M % d == 0:
                for e in {d, M // d}:
                    v = [x + y for x, y in zip(v, svecs[(e - 1) % (2 * k)])]
            d += 1
        vecs.append(v)
    return tan._den, vecs


class TestBracketData:
    def test_sieve_matches_trial_division(self):
        for k in range(1, 13):
            for l in range(2 * k):
                if l == k:
                    continue
                ctx, den, vecs = _bracket_data(l, k, 40)
                assert ctx.m == 4 * k
                assert (den, vecs) == _bracket_data_by_trial_division(l, k, 40), (l, k)


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
