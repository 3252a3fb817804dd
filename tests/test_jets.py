"""Jet calculus: arithmetic contracts, derivatives, and the log operator."""

import random
from fractions import Fraction

import pytest

from qtheta import (
    CyclotomicNumber,
    QExpansion,
    T_of_log,
    ThetaPoint,
    ZJet,
    compare,
    compare_jets,
)
from qtheta.cyclotomic import _ctx
from qtheta.modular import theta2_jet

P = Fraction(24)


def C(v, prec=P):
    return QExpansion.constant(v, prec)


def Z(prec=P):
    return QExpansion.zero(prec)


def _rand_series(rng, unit=False):
    cs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
    if unit and not cs[0]:
        cs[0] = Fraction(1)
    return QExpansion(0, cs, P)


def _rand_jet(rng, degree=4, unit=False):
    return ZJet([_rand_series(rng, unit=unit and j == 0) for j in range(degree + 1)])


def _rand_cyclo_jet(rng, m, degree):
    """A jet over Q(zeta_m) with zero slots and zero coefficients; every
    nonzero slot is q^(1/8) times a series in q."""
    D = _ctx(m).D

    def coeff():
        if rng.random() < 0.3:
            return 0
        return CyclotomicNumber(m, [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                                    for _ in range(D)])

    slots = []
    for _ in range(degree + 1):
        if rng.random() < 0.2:
            slots.append(Z())
        else:
            slots.append(QExpansion(Fraction(1, 8) + rng.randint(0, 2),
                                    [coeff() for _ in range(5)], P))
    return ZJet(slots)


def _same_jet(f, g):
    # QExpansion equality includes base and precision
    assert f.degree == g.degree
    assert f.coeffs == g.coeffs


class TestArith:
    def test_z_times_z(self):
        j = ZJet([Z(), C(1), Z()])
        jj = j * j
        assert jj.slot(0).is_zero and jj.slot(1).is_zero
        assert jj.slot(2).coefficient(0) == 1

    def test_unit_self_division(self):
        u = ZJet([C(1), C(1), C(1)])
        r = u.div(u)
        assert r.slot(0).coefficient(0) == 1
        assert r.slot(1).is_zero and r.slot(2).is_zero

    def test_inverse_contract_random(self):
        rng = random.Random(17)
        for _ in range(25):
            f = _rand_jet(rng, 3, unit=True)
            g = _rand_jet(rng, 3)
            assert compare_jets(f * g.div(f), g, 12) is None

    def test_square_matches_general_product(self):
        # f * f takes the symmetric path; a copy of f takes the general one
        rng = random.Random(25)
        jets = [_rand_jet(rng, d) for d in range(6) for _ in range(3)]
        jets += [_rand_cyclo_jet(rng, m, d) for m in (8, 20) for d in range(6)]
        jets.append(ZJet([Z(), C(1), Z(), Z()]))
        for f in jets:
            _same_jet(f * f, f * ZJet(list(f.coeffs)))

    def test_division_by_non_unit_raises(self):
        with pytest.raises(ZeroDivisionError):
            ZJet([C(1), C(1)]).div(ZJet([Z(), C(1)]))


class TestDerivatives:
    def test_constant_jet(self):
        assert ZJet([C(9)]).d_dz().is_zero()

    def test_shift_of_coefficients(self):
        d = ZJet([Z(), C(3), C(7)]).d_dz()
        assert d.slot(0).coefficient(0) == 3
        assert d.slot(1).coefficient(0) == 14

    def test_second_derivative_weights(self):
        rng = random.Random(18)
        f = _rand_jet(rng, 4)
        dd = f.d_dz().d_dz()
        for j in range(3):
            expect = f.slot(j + 2) * ((j + 2) * (j + 1))
            assert compare(dd.slot(j), expect, 12) is None

    def test_q_ddq_on_constants_vanishes(self):
        j = ZJet([C(2), C(-5), C(7)]).q_ddq()
        assert j.is_zero()

    def test_q_ddq_commutes_with_d_dz(self):
        rng = random.Random(19)
        for _ in range(15):
            f = _rand_jet(rng, 3)
            assert compare_jets(f.q_ddq().d_dz(), f.d_dz().q_ddq(), 12) is None

    def test_quotient_rule(self):
        rng = random.Random(20)
        for _ in range(15):
            f, g = _rand_jet(rng, 4), _rand_jet(rng, 4, unit=True)
            lhs = f.div(g).d_dz()
            rhs = (f.d_dz() * g - f * g.d_dz()).div(g * g)
            assert compare_jets(lhs, rhs, 10) is None


class TestTruncate:
    def test_keeps_low_slots(self):
        rng = random.Random(26)
        f = _rand_jet(rng, 4)
        for d in range(5):
            t = f.truncate(d)
            assert t.degree == d
            assert t.coeffs == f.coeffs[:d + 1]

    def test_out_of_range_raises(self):
        f = ZJet([C(1), C(2)])
        for d in (-1, 2):
            with pytest.raises(ValueError):
                f.truncate(d)


class TestCompareJets:
    def test_unequal_degrees_raise(self):
        f = ZJet([C(1), C(2), C(3)])
        with pytest.raises(ValueError):
            compare_jets(f, f.truncate(1), 12)
        with pytest.raises(ValueError):
            compare_jets(f.truncate(1), f, 12)


class TestShiftZero:
    def test_basic(self):
        s = ZJet([Z(), C(2), C(3)]).shift_zero(1)
        assert s.degree == 1 and s.slot(0).coefficient(0) == 2

    def test_nonzero_low_slot_raises(self):
        with pytest.raises(ValueError):
            ZJet([C(1), C(1)]).shift_zero(1)

    def test_reconstruction(self):
        rng = random.Random(21)
        for r in (1, 2):
            tail = [_rand_series(rng) for _ in range(3)]
            f = ZJet([Z()] * r + tail)
            s = f.shift_zero(r)
            rebuilt = ZJet([Z()] * r + list(s.coeffs))
            assert compare_jets(rebuilt, f, 12) is None


class TestTOfLog:
    def test_constant_unit_jet(self):
        assert T_of_log(ZJet([C(3), Z(), Z()])).is_zero()

    def test_additivity_on_50_random_unit_pairs(self):
        rng = random.Random(22)
        for _ in range(50):
            f = _rand_jet(rng, 4, unit=True)
            g = _rand_jet(rng, 4, unit=True)
            lhs = T_of_log(f * g)
            rhs = T_of_log(f) + T_of_log(g)
            assert compare_jets(lhs, rhs, 8) is None

    def test_matches_full_degree_formula(self):
        # slots t >= 1 of (q d/dq f)/f come from q d/dq (f'/f)_{t-1} / t;
        # dividing the J-1 slots of q d/dq f by f is the oracle, equal in
        # value, base and precision, on random jets and at base points
        # with rational and irrational leads, in q^3 and with z scaled
        rng = random.Random(27)
        for J in range(2, 8):
            jets = [_rand_jet(rng, J, unit=True) for _ in range(3)]
            jets += [theta2_jet(ThetaPoint(l, d), J, 20)
                     for l, d in ((0, 2), (1, 20), (1, 3), (3, 16), (1, 6), (3, 10))]
            jets.append(theta2_jet(ThetaPoint(1, 8, q_power=3), J, 20))
            jets.append(theta2_jet(ThetaPoint(1, 12), J, 16).scale_z(3))
            for f in jets:
                ref = f.truncate(J - 2).q_ddq().div(f) * (-8) - f.log_dz().d_dz()
                got = T_of_log(f)
                assert got.degree == J - 2
                _same_jet(got, ref)

    def test_degree_requirement(self):
        with pytest.raises(ValueError):
            T_of_log(ZJet([C(1), C(1)]))

    def test_log_dz_is_computed_once(self):
        rng = random.Random(24)
        f = _rand_jet(rng, 4, unit=True)
        r = f.log_dz()
        assert f.log_dz() is r
        assert compare_jets(r * f, f.d_dz(), 12) is None


class TestScaleZ:
    def test_powers(self):
        s = ZJet([C(1), C(1), C(1)]).scale_z(3)
        assert s.slot(1).coefficient(0) == 3
        assert s.slot(2).coefficient(0) == 9

    def test_identity(self):
        rng = random.Random(23)
        f = _rand_jet(rng, 3)
        assert compare_jets(f.scale_z(1), f, 12) is None
