"""Verifier layer: half sums, the modular equation, lemma checks, reports."""

import functools
import hashlib
import json
import multiprocessing
import os
from fractions import Fraction

import pytest

from qtheta import identities, modular, series
from qtheta import (
    CyclotomicNumber,
    HalfSumSpec,
    QExpansion,
    ZJet,
    compare,
    embed_conductor,
    eta_product,
    half_sum,
    halfprod_constant,
    log_deriv_lambert,
    tan_square_sum,
    theorem_rhs,
    theta2_jet,
    trig_value,
    verify_eta_theta_bridges,
    verify_k3_corollary,
    verify_lem2,
    verify_lemd,
    verify_meq1,
    verify_second_derivatives,
    verify_theorem,
)
from qtheta.cyclotomic import _Ctx, _ctx
from qtheta.identities import (
    _tan_square_sum_exact,
    enumerate_jobs,
    meq1_points,
    run_jobs,
)
from qtheta.modular import ThetaPoint


def _record_series_div(monkeypatch) -> list:
    """(numerator, divisor) of every series division, in call order."""
    pairs = []
    real = series._series_div

    def recording(a, b):
        pairs.append((a, b))
        return real(a, b)

    monkeypatch.setattr(series, "_series_div", recording)
    return pairs


def _record_inverses(monkeypatch) -> list:
    """(field, vector, (L, n)) of every _Ctx.inverse, in call order."""
    calls = []
    real = _Ctx.inverse

    def recording(self, vec):
        out = real(self, vec)
        calls.append((self, vec, out))
        return out

    monkeypatch.setattr(_Ctx, "inverse", recording)
    return calls


def _record_jet_divisions(monkeypatch) -> list:
    """(numerator, divisor, quotient) of every jet division, in call order."""
    calls = []
    real = ZJet.div

    def recording(self, other):
        q = real(self, other)
        calls.append((self, other, q))
        return q

    monkeypatch.setattr(ZJet, "div", recording)
    return calls


def _no_numerator_one(pairs) -> bool:
    return all(a != QExpansion.one(a.precision) for a, _ in pairs)


class TestHalfSumSpec:
    def test_index_sets(self):
        assert HalfSumSpec(3, 1).index_set == (0, 2)
        assert HalfSumSpec(3, 0).index_set == (1,)
        assert HalfSumSpec(1, 0).index_set == ()
        assert HalfSumSpec(2, 0).index_set == (0,)
        assert HalfSumSpec(6, 1).index_set == (1, 3, 5)

    def test_validation(self):
        with pytest.raises(ValueError):
            HalfSumSpec(0, 0)
        with pytest.raises(ValueError):
            HalfSumSpec(3, 2)


class TestHalfSum:
    def test_vanishing_bracket(self):
        assert half_sum(HalfSumSpec(2, 0), 30).is_zero

    def test_empty_sum(self):
        assert half_sum(HalfSumSpec(1, 0), 30).is_zero

    def test_k3_constant_term(self):
        hs = half_sum(HalfSumSpec(3, 0), 20)
        assert hs.coefficient(0) == Fraction(1, 3)  # tan^2(pi/6)

    def test_coefficients_are_rational(self):
        hs = half_sum(HalfSumSpec(5, 1), 25)
        for c in hs.coeffs:
            assert isinstance(c, (int, Fraction))

    def test_against_direct_square_of_brackets(self):
        # the per-l sum of squares in generic series arithmetic over
        # Q(zeta_4k) against the packed sum over Q: both read the brackets'
        # sine basis from _bracket_data, so this checks Parseval's step and
        # the packing; index sets of one Galois orbit (prime k) and of
        # several (e.g. k = 6, 9, 12)
        for k in range(2, 21):
            order = 40 if k <= 12 else 12
            for d in (0, 1):
                spec = HalfSumSpec(k, d)
                direct = None
                for l in spec.index_set:
                    b = log_deriv_lambert(l, k, order)
                    direct = b * b if direct is None else direct + b * b
                fast = half_sum(spec, order)
                for mm in range(order):
                    lhs = direct.coefficient(mm)
                    if isinstance(lhs, CyclotomicNumber):
                        lhs = lhs.as_rational()
                    assert lhs == fast.coefficient(mm), (k, d, mm)


    # sha256 of the coefficients below q^80, recorded from the half sum
    # that squared each Galois orbit's bracket over Q(zeta_M) and traced it
    PINNED_80 = {
        (3, 0): "1733c68fb51a6154",
        (6, 1): "d9fda7fa42fb8716",
        (9, 0): "adbfc02e1660998e",
        (12, 1): "1d2571381ca99dec",
        (25, 0): "682bc09b0af2ec89",
        (30, 1): "b1548d84fe832708",
        (37, 0): "554c32ec05d5b6a7",
        (40, 1): "3e218d4aaebcef56",
    }

    def test_pinned_digests_at_order_80(self):
        for (k, d), want in self.PINNED_80.items():
            hs = half_sum(HalfSumSpec(k, d), 80)
            text = ",".join(str(hs.coefficient(n)) for n in range(80))
            assert hashlib.sha256(text.encode()).hexdigest()[:16] == want, (k, d)

    @staticmethod
    def _index_set(k, p):
        return [l for l in range(1, k) if l % 2 == p]

    @staticmethod
    def _trig(kind, num, den, k):
        # num pi/den over Q(zeta_4k), the field of every value below
        return embed_conductor(trig_value(kind, num, den), 4 * k)

    def test_tan_sine_recurrence(self):
        # 2 tau(r) = 2 sum_l tan(l pi/2k) sin(r l pi/k) against its closed
        # form at every 0 < r < k; every representative is below k
        for k in range(1, 17):
            for p in (0, 1):
                idx = self._index_set(k, p)
                tans = [self._trig("tan", l, 2 * k, k) for l in idx]
                assert all(r < k for r in modular._bracket_data(k, p, 1)[0])
                for r in range(1, k):
                    want = CyclotomicNumber.zero(4 * k)
                    for l, t in zip(idx, tans):
                        want = want + t * self._trig("sin", r * l, k, k)
                    assert want * 2 == modular._tan_sine_sum(k, p, r), (k, p, r)

    def test_sine_orthogonality_and_classes(self):
        # 4 sum_l sin(a l pi/k) sin(b l pi/k) = k (chi(a-b) - chi(a+b)), and
        # the class rule: the sines at a and b are c_a and c_b times those
        # at the representatives, which are orthogonal with norm k w_j / 4
        for k in range(1, 17):
            for p in (0, 1):
                eps = -1 if p else 1

                def chi(x):
                    return {0: 1, k: eps}.get(x % (2 * k), 0)

                idx = self._index_set(k, p)
                sines = [[self._trig("sin", a * l, k, k) for l in idx]
                         for a in range(2 * k)]
                reps, weights, _ = modular._bracket_data(k, p, 1)
                cls = [modular._sine_class(k, p, s) for s in range(2 * k)]
                for a in range(2 * k):
                    ra, ca = cls[a]
                    if ca:
                        assert reps[ra - 1] == ra
                        assert [x * ca for x in sines[ra]] == sines[a], (k, p, a)
                    else:
                        assert not any(sines[a]), (k, p, a)
                    for b in range(a, 2 * k):
                        dot = sum((x * y for x, y in zip(sines[a], sines[b])),
                                  CyclotomicNumber.zero(4 * k))
                        assert dot * 4 == k * (chi(a - b) - chi(a + b)), (k, p, a, b)
                        rb, cb = cls[b]
                        same = ca and cb and ra == rb
                        assert dot * 4 == (k * weights[ra - 1] * ca * cb if same else 0)
        # completeness: as many representatives as points, so the sines at
        # the representatives are a basis on the index set (Parseval)
        for k in range(1, 201):
            for p in (0, 1):
                reps = modular._bracket_data(k, p, 1)[0]
                assert len(reps) == len(self._index_set(k, p)), (k, p)


class TestTangentCoordinateMutations:
    # the tangent coordinates 2 tau(r) corrupted three ways: r + 1 in place
    # of r in the whole closed form, r + 1 in place of r in k - 2rc only,
    # and every coordinate negated.  tan-sum reads only their squares'
    # sum, so it misses the negation; the theorem reads the cross terms
    # Y_j[0] Y_j[n] too, and lemd every sign, so they catch it.  Pinned:
    # the failing reports of tan-sum over k = 1..29 (58), of the theorem
    # over k = 2..29 at order 30 (56), and of lemd at order 30 for each
    # k = 2..11
    @pytest.mark.parametrize("name, tan_fails, theorem_fails, lemd_fails", [
        ("shifted", 26, 54, [2, 2, 6, 8, 8, 12, 14, 14, 18, 20]),
        ("magnitude", 26, 27, [0, 2, 0, 4, 2, 6, 0, 8, 4, 10]),
        ("negated", 0, 55, [2, 4, 6, 8, 10, 12, 14, 16, 18, 20]),
    ], ids=["shifted", "magnitude", "negated"])
    def test_which_check_catches_it(self, monkeypatch, name, tan_fails,
                                    theorem_fails, lemd_fails):
        real = modular._tan_sine_sum
        mutation = {
            "shifted": lambda k, p, r: real(k, p, r + 1),
            "magnitude": lambda k, p, r: (-1) ** (r + 1) * (k - 2 * (r + 1)
                                                             * ((k - p) % 2 == 0)),
            "negated": lambda k, p, r: -real(k, p, r),
        }[name]
        monkeypatch.setattr(modular, "_tan_sine_sum", mutation)
        tans = [tan_square_sum(k, d)[1] for k in range(1, 30) for d in (0, 1)]
        theorems = [verify_theorem(k, d, 30) for k in range(2, 30) for d in (0, 1)]
        assert (len(tans), len(theorems)) == (58, 56)
        assert sum(not r.passed for r in tans) == tan_fails
        assert sum(not r.passed for r in theorems) == theorem_fails
        assert [sum(not r.passed for r in verify_lemd(k, 30))
                for k in range(2, 12)] == lemd_fails


class TestTheoremRhs:
    def test_k2_delta0_vanishes(self):
        assert theorem_rhs(2, 0, 30).is_zero

    def test_k1_delta1_vanishes(self):
        assert theorem_rhs(1, 1, 30).is_zero

    def test_k3_delta0_constant(self):
        assert theorem_rhs(3, 0, 20).coefficient(0) == Fraction(1, 3)

    def test_delta1_constant_is_half_k_k_minus_1(self):
        for k in (2, 3, 5, 8):
            assert theorem_rhs(k, 1, 5).coefficient(0) == Fraction(k * (k - 1), 2)

    # sha256 of the coefficients below q^80, recorded from the right side
    # that scaled and summed one eta_log_ddq series per eta factor; by the
    # theorem they are also TestHalfSum.PINNED_80, pinned here on their own
    PINNED_80 = {
        (3, 0): "1733c68fb51a6154",
        (6, 1): "d9fda7fa42fb8716",
        (9, 0): "adbfc02e1660998e",
        (12, 1): "1d2571381ca99dec",
        (25, 0): "682bc09b0af2ec89",
        (30, 1): "b1548d84fe832708",
        (37, 0): "554c32ec05d5b6a7",
        (40, 1): "3e218d4aaebcef56",
    }

    def test_pinned_digests_at_order_80(self):
        for (k, d), want in self.PINNED_80.items():
            rhs = theorem_rhs(k, d, 80)
            text = ",".join(str(rhs.coefficient(n)) for n in range(80))
            assert hashlib.sha256(text.encode()).hexdigest()[:16] == want, (k, d)


class TestVerifyTheorem:
    def test_k3_delta0_order100(self):
        assert verify_theorem(3, 0, 100).passed

    def test_k2_delta0_zero_equals_zero(self):
        assert verify_theorem(2, 0, 100).passed

    def test_k4_delta1_order100(self):
        assert verify_theorem(4, 1, 100).passed

    # the Sturm bounds of weight 2 on Gamma_1(2k): both sides agree to
    # these orders, so they are equal as modular forms
    def test_k40_delta1_at_sturm_bound_385(self):
        assert verify_theorem(40, 1, 385).passed

    def test_k59_delta0_at_sturm_bound_871(self):
        assert verify_theorem(59, 0, 871).passed

    def test_report_fields(self):
        r = verify_theorem(5, 1, 30)
        assert r.passed and r.identity == "theorem"
        assert r.params == {"k": 5, "delta": 1}
        assert r.order == 30
        assert r.first_mismatch is None

    def test_failure_is_reported_not_raised(self):
        # compare against a perturbed right side via a direct mismatch probe
        lhs = half_sum(HalfSumSpec(3, 0), 20)
        rhs = theorem_rhs(3, 0, 20) + 1
        mm = compare(lhs, rhs, 20)
        assert mm is not None and mm.exponent == 0


class TestVerifyLemd:
    def test_k2(self):
        reports = verify_lemd(2, 80)
        assert len(reports) == 3  # l in {0,1,3}
        assert all(r.passed for r in reports)

    def test_k5_l3(self):
        reports = {r.params["l"]: r for r in verify_lemd(5, 80)}
        assert reports[3].passed

    def test_l_zero_trivial(self):
        assert all(r.passed for r in verify_lemd(1, 40))

    def test_raising_point_fails_alone(self, monkeypatch):
        # 2 pi/8 = pi/4 is the only point of k = 4 built at (l', k') = (1, 2)
        real = identities.log_deriv_lambert

        def lambert(l, k, order):
            if (l, k) == (1, 2):
                raise RuntimeError("lambert broke")
            return real(l, k, order)

        monkeypatch.setattr(identities, "log_deriv_lambert", lambert)
        reports = verify_lemd(4, 20)
        assert [r.params["l"] for r in reports] == [0, 1, 2, 3, 5, 6, 7]
        bad = [r for r in reports if not r.passed]
        assert [r.params for r in bad] == [{"k": 4, "l": 2}]
        assert bad[0].note.startswith("RuntimeError: lambert broke (in lambert, ")
        assert bad[0].first_mismatch is None and bad[0].order == 20


class TestVerifyLem2:
    def test_identity_instance_k1(self):
        assert verify_lem2(1, 1, 40).passed

    def test_k2_delta0(self):
        assert verify_lem2(2, 0, 40).passed

    def test_k3_delta1(self):
        assert verify_lem2(3, 1, 40).passed

    def test_second_base_point(self):
        assert verify_lem2(3, 0, 30, base_den=12).passed

    @pytest.mark.parametrize("k", [2, 3, 5, 12])
    def test_zero_side_raises(self, k):
        # base_den = 2, delta = 1: the factor l = k - 1 and the right side's
        # point sit at pi/2, a zero of theta2, so both sides are 0
        with pytest.raises(ValueError, match="side is zero below q\\^30"):
            verify_lem2(k, 1, 30, base_den=2)
        [rep] = run_jobs([("lem2", {"k": k, "delta": 1, "order": 30, "base_den": 2})])
        assert rep.status == "fail" and rep.note.startswith("ValueError: the left side")

    def test_base_den_2_delta0_checks_nonzero_sides(self):
        # delta = 0 puts no point at pi/2, so the guard stays out of the way
        assert verify_lem2(5, 0, 30, base_den=2).passed

    def test_printed_constant_variant_fails(self):
        # the sign-flipped indicator variant of the closing constant breaks
        # the product identity whenever k and delta have opposite parity
        k, delta = 3, 0
        order = 20
        bd = 8
        lhs = None
        for l in range(2 * k):
            if (l - k) % 2 != delta:
                continue
            a0 = theta2_jet(ThetaPoint(1 + 4 * l, bd * k), 0, order + 3).slot(0)
            lhs = a0 if lhs is None else lhs * a0
        e1 = eta_product(1, order + 3)
        ratio = e1 * e1 * e1 / eta_product(k, order + 3)
        th = theta2_jet(ThetaPoint(4 * (delta - 1) + 1, bd, q_power=k), 0, order + 3).slot(0)
        base_rhs = halfprod_constant(k, delta) * (ratio * th)
        assert compare(lhs, base_rhs, order) is None
        assert compare(lhs, -base_rhs, order) is not None


class TestVerifyMeq1:
    def test_origin(self):
        assert verify_meq1(0, 1, 4, 40).passed

    def test_l1_k3(self):
        assert verify_meq1(1, 3, 4, 40).passed

    def test_zero_point_rejected(self):
        with pytest.raises(ValueError):
            verify_meq1(3, 3, 4, 20)

    @pytest.mark.parametrize("J", [2, 4, 5])
    def test_two_jet_divisions_by_f(self, monkeypatch, J):
        # f'/f to degree J-1 and slot 0 of (q d/dq f)/f, whose other slots
        # follow from f'/f: two jet divisions by f, each one long division
        # over all its slots, with no series division per slot and no
        # series inverted on its own; the lead of f (an irrational at
        # pi/10) is inverted once, in f's own field, and the second
        # division reads the inverse cached on f's constant slot
        divs = _record_jet_divisions(monkeypatch)
        pairs = _record_series_div(monkeypatch)
        inverses = _record_inverses(monkeypatch)
        assert verify_meq1(1, 5, J, 16).passed
        assert len(divs) == 2
        assert sorted(q.degree + 1 for _, _, q in divs) == [1, J]
        f = divs[0][1]
        assert divs[1][1] is f
        assert _no_numerator_one([(a.slot(0), b) for a, b, _ in divs])
        assert pairs == []
        f0 = f.slot(0)
        assert len(inverses) == 1
        ctx, lead, (L, n) = inverses[0]
        assert ctx is f0._ctx and lead is f0._vecs[0] and any(lead[1:])
        assert f0._lead_inv is L
        # lead L = n: c L = n / den, a positive rational, for c = lead/den
        assert ctx.mul_vec(lead, L) == [n] + [0] * (ctx.D - 1) and n > 0

    @pytest.mark.parametrize("J,slot", [(4, 2), (5, 3), (4, 0)])
    def test_fault_in_one_slot_fails(self, monkeypatch, J, slot):
        # a monomial added to one slot of the right side must fail the
        # report at that slot; slot J-2 is the last one the identity fixes
        real = identities.T_of_log

        def faulty(f):
            t = real(f)
            cs = list(t.coeffs)
            cs[slot] = cs[slot] + QExpansion.monomial(1, 3, cs[slot].precision)
            return ZJet(cs)

        monkeypatch.setattr(identities, "T_of_log", faulty)
        r = verify_meq1(1, 3, J, 12)
        assert not r.passed
        assert r.note == f"slot {slot}"
        assert r.first_mismatch.exponent == 3

    @pytest.mark.parametrize("J", [2, 4])
    def test_flipped_z_part_fails_with_zero_heat_residue(self, monkeypatch, J):
        # T_of_log with +d/dz(f'/f) in place of -d/dz(f'/f): meq1 fails at
        # a compared slot, while the jet's heat residue still reads zero
        real = identities.T_of_log

        def flipped(f):
            return real(f) + f.log_dz().d_dz().truncate(J - 2) * 2

        monkeypatch.setattr(identities, "T_of_log", flipped)
        r = verify_meq1(1, 5, J, 16)
        assert not r.passed
        assert r.note.startswith("slot ")
        f = theta2_jet(ThetaPoint(1, 10), J, Fraction(16) + Fraction(1, 8))
        assert (f.q_ddq() * 8 + f.d_dz().d_dz()).is_zero()

    @pytest.mark.parametrize("J", [3, 4, 5])
    def test_derived_q_slot_scaled_by_wrong_index_fails(self, monkeypatch, J):
        # slot t >= 1 of (q d/dq f)/f is q d/dq (f'/f)_{t-1} / t; taking
        # 1/(t+1) instead fails at slot 1 (1/t itself is 1 there, so
        # dropping it would go unseen at t = 1)
        real = identities.T_of_log

        def off_by_one(f):
            g = f.log_dz()
            cs = list(real(f).coeffs)
            for t in range(1, len(cs)):
                qd = g.slot(t - 1).q_ddq()
                cs[t] = cs[t] + qd * Fraction(8, t) - qd * Fraction(8, t + 1)
            return ZJet(cs)

        monkeypatch.setattr(identities, "T_of_log", off_by_one)
        r = verify_meq1(1, 5, J, 16)
        assert not r.passed
        assert r.note == "slot 1"

    @pytest.mark.parametrize("J,slot", [(2, 0), (2, 2), (4, 0), (4, 1),
                                        (4, 2), (4, 3), (4, 4)])
    def test_heat_residue_reads_every_slot(self, monkeypatch, J, slot):
        # with the jet compare stubbed to pass, a monomial added to any
        # slot that 8 q d/dq f_t + (t+1)(t+2) f_{t+2} reads fails the report
        real = identities.theta2_jet

        def faulty(pt, degree, order):
            f = real(pt, degree, order)
            cs = list(f.coeffs)
            cs[slot] = cs[slot] + QExpansion.monomial(1, Fraction(17, 8),
                                                      cs[slot].precision)
            return ZJet(cs)

        monkeypatch.setattr(identities, "theta2_jet", faulty)
        monkeypatch.setattr(identities, "compare_jets", lambda f, g, order: None)
        r = verify_meq1(1, 5, J, 16)
        assert not r.passed
        assert r.note == "heat-equation residue"
        assert r.first_mismatch.exponent == 0

    def test_points_helper(self):
        assert meq1_points(1) == [0]
        assert meq1_points(2) == [0, 1, 3]
        assert meq1_points(3) == [0, 1, 2, 4, 5]
        assert len(meq1_points(6)) == 5


class TestSecondDerivatives:
    @pytest.mark.parametrize("k", [3, 7])
    def test_no_series_inverted_and_no_lead_twice(self, monkeypatch, k):
        # (log theta)'' is slot 1 of the jet's log_dz, so no series is
        # divided, and every jet quotient is one long division over its
        # slots: log_dz of the jet at 0 (d2-origin), log_dz and T_of_log's
        # q-part of the jet in q^k at 0 (T-scaled), and the same two for
        # each of the ratio's numerator and denominator jets (d2-ratio and
        # T-ratio share them): 1 + 2 + 2 + 2; every lead here is rational
        # (the theta series at 0 and -pi/2), so each of the four divisors
        # inverts a one-lane rational lead, once
        pairs = _record_series_div(monkeypatch)
        divs = _record_jet_divisions(monkeypatch)
        inverses = _record_inverses(monkeypatch)
        assert all(r.passed for r in verify_second_derivatives(k, 20))
        assert pairs == []
        assert len(divs) == 7
        assert len(inverses) == len({id(b.slot(0)) for _, b, _ in divs}) == 4
        assert all(len(v) == 1 for _, v, _ in inverses)

    def test_k1_degenerate(self):
        reports = verify_second_derivatives(1, 30)
        assert len(reports) == 4
        assert all(r.passed for r in reports)

    def test_k3(self):
        assert all(r.passed for r in verify_second_derivatives(3, 40))

    def test_part_labels(self):
        parts = {r.params["part"] for r in verify_second_derivatives(2, 20)}
        assert parts == {"d2-origin", "d2-ratio", "T-scaled", "T-ratio"}

    def test_margin_covers_large_k(self, monkeypatch):
        # the ratio and T-scaled parts divide by series of total valuation
        # k/8, which passed the old fixed margin of 3 at k = 25
        for k in range(25, 41):
            reports = verify_second_derivatives(k, 30)
            assert all(r.passed for r in reports), (k, [r.note for r in reports])
        margin = identities._lem22_margin
        monkeypatch.setattr(identities, "_lem22_margin", lambda k: margin(k) - 1)
        for k in (25, 32, 33, 40):
            reports = {r.params["part"]: r for r in verify_second_derivatives(k, 30)}
            assert reports["d2-origin"].passed  # it loses only 1/8
            for part in ("d2-ratio", "T-scaled", "T-ratio"):
                assert reports[part].note.startswith("PrecisionError: "), (k, part)

    @pytest.mark.parametrize("k", [1, 8, 9, 16, 17])
    def test_margin_is_ceil_k_over_8(self, monkeypatch, k):
        # ceil(k/8) suffices and one less does not: the ratio parts and
        # T-scaled lose k/8 to their divisions
        assert identities._lem22_margin(k) == -(-k // 8)
        assert all(r.passed for r in verify_second_derivatives(k, 30))
        margin = identities._lem22_margin
        monkeypatch.setattr(identities, "_lem22_margin", lambda k: margin(k) - 1)
        reports = {r.params["part"]: r for r in verify_second_derivatives(k, 30)}
        for part in ("d2-ratio", "T-scaled", "T-ratio"):
            assert reports[part].note.startswith("PrecisionError: "), (k, part)

    @staticmethod
    def _log_d2_chain(jet):
        # (log f)'' at z = 0 from two series divisions: 2 a2/a0 - (a1/a0)^2
        a0, a1, a2 = jet.slot(0), jet.slot(1), jet.slot(2)
        r1 = a1 / a0
        return (a2 * 2) / a0 - r1 * r1

    def test_log_dz_slot_one_is_the_series_chain(self):
        # lem22's origin jet and the numerator and denominator jets of its
        # ratio, built as verify_second_derivatives builds them
        order = 40
        for k in range(1, 13):
            nw = order + identities._lem22_margin(k)
            origin = theta2_jet(ThetaPoint(0, 1), 2, nw)
            nj = theta2_jet(ThetaPoint(-1, 2, q_power=k), 3, nw).scale_z(k).shift_zero(1)
            dj = theta2_jet(ThetaPoint(-1, 2), 3, nw).shift_zero(1)
            for jet in (origin, nj, dj):
                got = jet.log_dz().slot(1)
                assert got.precision >= order
                assert got == self._log_d2_chain(jet), k

    def test_raising_part_fails_alone(self, monkeypatch):
        real = identities.theta2_jet

        def jet(pt, degree, order):
            if pt == ThetaPoint(0, 1):  # only d2-origin builds this jet
                raise RuntimeError("jet broke")
            return real(pt, degree, order)

        monkeypatch.setattr(identities, "theta2_jet", jet)
        reports = verify_second_derivatives(3, 20)
        assert [r.params["part"] for r in reports] == [
            "d2-origin", "d2-ratio", "T-scaled", "T-ratio"]
        assert [r.status for r in reports] == ["fail", "pass", "pass", "pass"]
        assert reports[0].params == {"k": 3, "part": "d2-origin"}
        assert reports[0].note.startswith("RuntimeError: jet broke")


class TestBridges:
    def test_exponent_bookkeeping(self):
        # 1/8 = 2*(2/24) - 1/24
        assert Fraction(1, 8) == 2 * Fraction(2, 24) - Fraction(1, 24)

    def test_both_pass(self):
        reports = verify_eta_theta_bridges(60)
        assert [r.identity for r in reports] == ["bridge-t0", "bridge-t1"]
        assert all(r.passed for r in reports)

    def test_raising_part_fails_alone(self, monkeypatch):
        real = identities.eta_quotient

        def quotient(exponents, order):
            if exponents == ((2, 2), (1, -1)):  # only bridge-t0 builds this one
                raise RuntimeError("quotient broke")
            return real(exponents, order)

        monkeypatch.setattr(identities, "eta_quotient", quotient)
        reports = verify_eta_theta_bridges(30)
        assert [r.identity for r in reports] == ["bridge-t0", "bridge-t1"]
        assert [r.status for r in reports] == ["fail", "pass"]
        assert reports[0].params == {}
        assert reports[0].note.startswith("RuntimeError: quotient broke")


class TestTanSquareSum:
    def test_delta0_examples(self):
        assert tan_square_sum(2, 0)[0] == 0
        assert tan_square_sum(3, 0)[0] == Fraction(1, 3)

    def test_delta1_audited_value(self):
        # brute-force index set for (3,1) is {0,2}: tan^2(0)+tan^2(pi/3) = 3
        value, report = tan_square_sum(3, 1)
        assert value == 3 and report.passed
        assert Fraction(3 * 2, 6) != value  # the /6 variant is refuted

    def test_delta1_closed_form_is_half(self):
        for k in range(1, 12):
            value, report = tan_square_sum(k, 1)
            assert report.passed
            assert value == Fraction(k * (k - 1), 2)
            if k >= 2:
                assert value != Fraction(k * (k - 1), 6)

    def test_matches_half_sum_constant_term(self):
        for k in (2, 3, 4, 5, 7):
            for d in (0, 1):
                hs = half_sum(HalfSumSpec(k, d), 3)
                v, _ = tan_square_sum(k, d)
                assert hs.coefficient(0) == v

    def test_matches_naive_cyclic_sum(self):
        # N = sum_i u_i prod_{j != i} v_j and D = prod_j v_j in Z[y]/(y^2k - 1)
        # from plain integer lists, reduced mod Phi_2k; their quotient must
        # be the half sum's constant term.  k = 1..24 covers Phi_2 (D = 1),
        # 1, 2, 3 and 5 terms, the l = 0 term (u = 0) and the l = k/2 term
        # (v = 2); k = 50 and 64 have 25 and 32 terms.
        def cyc_mul(x, y):
            m = len(x)
            out = [0] * m
            for i, a in enumerate(x):
                if a:
                    for j, b in enumerate(y):
                        out[(i + j) % m] += a * b
            return out

        leaf_counts, saw_l0, saw_half = set(), False, False
        for k in [*range(1, 25), 50, 64]:
            m = 2 * k
            ctx = _ctx(m)
            for delta in (0, 1):
                idx = HalfSumSpec(k, delta).index_set
                leaf_counts.add(len(idx))
                saw_l0 = saw_l0 or 0 in idx
                saw_half = saw_half or k % 2 == 0 and k // 2 in idx
                num, den = [0] * m, [1] + [0] * (m - 1)
                for l in idx:
                    u, v = [0] * m, [0] * m
                    u[0] += 2
                    v[0] += 2
                    for e in (l, -l % m):
                        u[e] -= 1
                        v[e] += 1
                    num = [a + b for a, b in zip(cyc_mul(num, v), cyc_mul(den, u))]
                    den = cyc_mul(den, v)
                num_vec, den_vec = ctx.reduce(num), ctx.reduce(den)
                pivot = next(i for i, c in enumerate(den_vec) if c)
                q = Fraction(num_vec[pivot], den_vec[pivot])
                assert all(n == q * d for n, d in zip(num_vec, den_vec))
                assert _tan_square_sum_exact(k, delta) == q, (k, delta)
        assert {1, 2, 3, 5} <= leaf_counts and saw_l0 and saw_half


class TestK3Corollary:
    def test_spot_values(self):
        from qtheta import lambert

        inner = (
            lambert(1, 6, 5) + lambert(2, 6, 5) - lambert(4, 6, 5) - lambert(5, 6, 5)
        ) * 2 + 1
        lhs = inner * inner
        assert lhs.coefficient(0) == 1
        assert lhs.coefficient(1) == 4

    def test_order_120(self):
        assert verify_k3_corollary(120).passed

    def test_right_side_matches_sigma_sieve(self, monkeypatch):
        # the right side the verifier compares, against the sigma sieve that
        # once built it: 1 + 4 sum (sigma(M) + sigma(M/3) - 8 sigma(M/6)) q^M
        order = 200
        seen = []

        def spy(lhs, rhs, n):
            seen.append(rhs)
            return compare(lhs, rhs, n)

        monkeypatch.setattr(identities, "compare", spy)
        report = verify_k3_corollary(order)
        sigma = [0] * order
        for d in range(1, order):
            for mult in range(d, order, d):
                sigma[mult] += d
        coeffs = [1] + [0] * (order - 1)
        for mm in range(1, order):
            v = sigma[mm]
            if mm % 3 == 0:
                v += sigma[mm // 3]
            if mm % 6 == 0:
                v -= 8 * sigma[mm // 6]
            coeffs[mm] = 4 * v
        assert seen == [QExpansion(0, coeffs, order)]
        assert report.passed


class TestFullSuite:
    def test_small_suite_all_pass(self):
        reports = run_jobs(enumerate_jobs(1, 2, (0, 1), 10, 4, frozenset({"all"})))
        assert reports and all(r.passed for r in reports)

    def test_report_count_matches_jobs(self):
        jobs = enumerate_jobs(1, 2, (0, 1), 10, 4, frozenset({"all"}))
        reports = run_jobs(jobs)
        # lemd yields one report per admissible l, lem22 four parts, bridges two
        expected = 0
        for kind, kw in jobs:
            if kind == "lemd":
                expected += 2 * kw["k"] - 1
            elif kind == "lem22":
                expected += 4
            elif kind == "bridges":
                expected += 2
            else:
                expected += 1
        assert len(reports) == expected

    @pytest.mark.parametrize("args, count, digest", [
        ((2, 10, (0, 1), 64, 4, ("meq1", "lem22", "lemd")), 61, "6cc3f5882ced13b4"),
        ((2, 10, (0, 1), 64, 4, ("all",)), 117, "8e728b2420f3ac6f"),
        ((2, 40, (0, 1), 80, 4, ("theorem",)), 78, "f312a8c553e66a90"),
        ((2, 125, (0, 1), 100, 4, ("tan-sum",)), 248, "4e55822b2d4a30a4"),
        ((2, 12, (0, 1), 100, 4, ("all",)), 143, "fe971d43059135dc"),
        ((3, 12, (1,), 30, 6, ("lemd", "lem2", "meq1", "lem22")), 80,
         "63c1e2e31744a19a"),
    ], ids=["jet-sweep", "pool-all", "theorem-sweep", "tan-sum", "all-k12",
            "lemmas-k12"])
    def test_job_list_pinned(self, args, count, digest):
        # the four benchmark sweeps and two more: the job list, in order, of
        # the version that ran lemd, lem2, meq1 and lem22 for k <= 12 only
        jobs = enumerate_jobs(*args[:5], frozenset(args[5]))
        assert len(jobs) == count
        assert hashlib.sha256(json.dumps(jobs).encode()).hexdigest()[:16] == digest

    def test_passing_run_builds_no_field_element(self, monkeypatch):
        # the verifiers work on _Ctx vectors throughout, and a series
        # division inverts its lead by _Ctx.inverse: pool-all's job list,
        # run serially and passing, builds no CyclotomicNumber by either
        # constructor
        built = []
        raw, init = CyclotomicNumber._raw.__func__, CyclotomicNumber.__init__

        def counted_raw(cls, *args):
            built.append(args)
            return raw(cls, *args)

        def counted_init(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(CyclotomicNumber, "_raw", classmethod(counted_raw))
        monkeypatch.setattr(CyclotomicNumber, "__init__", counted_init)
        reports = run_jobs(enumerate_jobs(2, 10, (0, 1), 64, 4, frozenset({"all"})))
        assert reports and all(r.passed for r in reports)
        assert built == []

    def test_every_identity_covers_every_k(self):
        jobs = enumerate_jobs(11, 15, (0, 1), 20, 4, frozenset({"all"}))
        ks = {}
        for kind, kw in jobs:
            if "k" in kw:
                ks.setdefault(kind, set()).add(kw["k"])
        assert ks == {kind: set(range(11, 16)) for kind in
                      ("theorem", "lemd", "lem2", "meq1", "lem22", "tan-sum")}

    def test_no_verifier_divides_a_series(self, monkeypatch):
        # every eta side is one Euler product and (log theta)'' is read
        # from a jet's log_dz, so only jet divisions remain
        pairs = _record_series_div(monkeypatch)
        jobs = enumerate_jobs(2, 8, (0, 1), 40, 4, frozenset({"all"}))
        reports = run_jobs(jobs)
        assert reports and all(r.passed for r in reports)
        assert pairs == []

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_raising_job_becomes_fail_report(self, parallelism):
        bad = ("meq1", {"k": 2, "l": 2, "jet_degree": 4, "order": 8})  # l = k
        good = ("tan-sum", {"k": 3, "delta": 1})
        reports = run_jobs([good, bad, good], parallelism)
        assert [r.status for r in reports] == ["pass", "fail", "pass"]
        rep = reports[1]
        assert rep.identity == "meq1"
        assert rep.params == {"k": 2, "l": 2, "jet_degree": 4}
        assert rep.note.startswith("ValueError: ") and "l = k" in rep.note
        assert rep.first_mismatch is None and rep.order == 8
        assert set(rep.to_json_obj()) == {
            "identity", "params", "status", "first_mismatch", "elapsed_ms", "order",
        }

    def test_pool_has_no_more_workers_than_jobs(self, monkeypatch):
        # a fork pool starts every worker at the first submit
        import concurrent.futures

        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        job = ("tan-sum", {"k": 3, "delta": 1})
        assert len(run_jobs([job, job], 64)) == 2
        assert len(run_jobs([job] * 3, 2)) == 3
        assert sizes == [2, 2]
        # one task per meq1 orbit: 43 jobs in 14 orbits
        meq1 = [job for job in TestPointChecksOncePerRun.JOBS if job[0] == "meq1"]
        assert len(run_jobs(meq1, 64)) == 43
        assert sizes == [2, 2, 14]

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched verifier reaches the workers only by fork")
    def test_dead_worker_fails_its_jobs(self, monkeypatch):
        # a worker that exits without raising breaks the pool: every job
        # still gets a report, and those it took down fail with the note
        monkeypatch.setattr(identities, "verify_eta_theta_bridges",
                            lambda **kw: os._exit(1))
        jobs = [("theorem", {"k": 3, "delta": 1, "order": 10}),
                ("bridges", {"order": 10}),
                ("theorem", {"k": 4, "delta": 0, "order": 10}),
                ("k3", {"order": 10})]
        reports = run_jobs(jobs, 2)
        assert [r.identity for r in reports] == [kind for kind, _ in jobs]
        assert reports[1].status == "fail"
        assert reports[1].params == {} and reports[1].order == 10
        for rep in reports:
            if not rep.passed:
                assert rep.note == identities._DEAD_WORKER

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched check reaches the workers only by fork")
    def test_worker_dying_inside_a_group(self, monkeypatch):
        # _meq1_at exits its worker at the orbit n = 8, inside the task of
        # that orbit's jobs: every job still gets one report, in job order,
        # each failing one says why, and emit sees the returned sequence
        real = identities._meq1_at

        def dying(lr, kr, *args):
            if modular.point_orbit(lr, kr) == 8:
                os._exit(1)
            return real(lr, kr, *args)

        monkeypatch.setattr(identities, "_meq1_at", dying)
        jobs = enumerate_jobs(2, 6, (0, 1), 10, 4,
                              frozenset({"theorem", "meq1", "tan-sum", "k3"}))
        seen = []
        reports = run_jobs(jobs, 2, emit=seen.append)

        def label(identity, params):
            return identity, params.get("k"), params.get("l"), params.get("delta")

        assert [label(r.identity, r.params) for r in reports] == [
            label(kind, kw) for kind, kw in jobs]
        assert len(seen) == len(reports)
        assert all(a is b for a, b in zip(seen, reports))
        orbit8 = [r for r in reports if r.identity == "meq1"
                  and modular.point_orbit(r.params["l"], r.params["k"]) == 8]
        assert orbit8 and not any(r.passed for r in orbit8)
        for rep in reports:
            if not rep.passed:
                assert rep.note == identities._DEAD_WORKER

    def test_parallel_matches_sequential(self):
        jobs = enumerate_jobs(1, 2, (0, 1), 8, 4, frozenset({"all"}))
        seq = run_jobs(jobs)
        par = run_jobs(jobs, 2)
        assert [r.identity for r in seq] == [r.identity for r in par]
        assert [r.status for r in seq] == [r.status for r in par]

    def test_json_projection(self):
        rep = verify_theorem(3, 0, 12)
        obj = rep.to_json_obj()
        assert set(obj) == {
            "identity", "params", "status", "first_mismatch", "elapsed_ms", "order",
        }
        assert obj["first_mismatch"] is None
        assert obj["order"] == 12

    def test_json_mismatch_uses_exact_exponent_pairs(self):
        from qtheta import Mismatch, VerificationReport

        rep = VerificationReport(
            identity="theorem",
            params={"k": 2, "delta": 0},
            status="fail",
            first_mismatch=Mismatch(Fraction(9, 8), Fraction(1, 3), 0),
            elapsed=0.25,
            order=40,
        )
        obj = rep.to_json_obj()
        mm = obj["first_mismatch"]
        assert mm["exponent_num"] == 9 and mm["exponent_den"] == 8
        assert isinstance(mm["exponent_num"], int)
        assert mm["lhs"] == "1/3" and mm["rhs"] == "0"


class TestPointChecksOncePerRun:
    # jet-sweep's job list at a small order: 43 meq1 jobs over 26 reduced
    # points in 14 orbits, 36 lem22 parts and 99 lemd points over 63
    # reduced points in 14 orbits
    JOBS = enumerate_jobs(2, 10, (0, 1), 12, 4, frozenset({"meq1", "lem22", "lemd"}))

    @staticmethod
    def _seen(reports) -> list:
        """Each report's JSON object without elapsed_ms, with its note."""
        out = []
        for r in reports:
            obj = r.to_json_obj()
            del obj["elapsed_ms"]
            out.append((obj, r.note))
        return out

    def _of_kind(self, kind) -> list:
        return [job for job in self.JOBS if job[0] == kind]

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_sharing_changes_no_report(self, parallelism):
        alone = [seen for job in self.JOBS for seen in self._seen(run_jobs([job]))]
        assert self._seen(run_jobs(self.JOBS, parallelism)) == alone
        assert identities._point_checks is None

    @staticmethod
    def _count_calls(monkeypatch, names) -> dict:
        """Calls of each named identities attribute, counted from now on."""
        calls = dict.fromkeys(names, 0)
        for name in names:
            def counting(*args, _name=name, _real=getattr(identities, name)):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(identities, name, counting)
        return calls

    def test_one_meq1_check_per_orbit(self, monkeypatch):
        # meq1: 43 jobs over 26 reduced points in 14 Galois orbits, one
        # passing check per orbit; lemd: 99 reports over 63 reduced points
        # in 14 orbits, one passing check per orbit too
        calls = self._count_calls(monkeypatch, ("T_of_log", "theta2_jet"))
        meq1, lemd = self._of_kind("meq1"), self._of_kind("lemd")
        assert len(meq1) == 43 and len(lemd) == 9
        assert len({modular.reduced_point(kw["l"], kw["k"]) for _, kw in meq1}) == 26
        assert len({modular.point_orbit(kw["l"], kw["k"]) for _, kw in meq1}) == 14
        assert all(r.passed for r in run_jobs(meq1))
        assert calls == {"T_of_log": 14, "theta2_jet": 14}
        calls.update(T_of_log=0, theta2_jet=0)
        reports = run_jobs(lemd)
        assert len(reports) == 99 and all(r.passed for r in reports)
        assert len({modular.reduced_point(r.params["l"], r.params["k"])
                    for r in reports}) == 63
        assert len({modular.point_orbit(r.params["l"], r.params["k"])
                    for r in reports}) == 14
        assert calls == {"T_of_log": 0, "theta2_jet": 14}

    def test_a_task_shares_checks_without_a_table_set(self, monkeypatch):
        # a spawn or forkserver worker starts with no table: the task opens
        # its own, so its 43 meq1 jobs make one check per orbit, 14
        assert identities._point_checks is None
        calls = self._count_calls(monkeypatch, ("_meq1_at",))
        batches = identities._run_group(self._of_kind("meq1"))
        assert len(batches) == 43 and all(r.passed for b in batches for r in b)
        assert calls == {"_meq1_at": 14}
        assert identities._point_checks is None

    @pytest.mark.skipif("forkserver" not in multiprocessing.get_all_start_methods(),
                        reason="no forkserver start method here")
    def test_forkserver_pool_makes_the_serial_reports(self, monkeypatch):
        # forkserver workers import qtheta afresh and inherit no table
        import concurrent.futures

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", functools.partial(
            concurrent.futures.ProcessPoolExecutor,
            mp_context=multiprocessing.get_context("forkserver")))
        assert self._seen(run_jobs(self.JOBS, 2)) == self._seen(run_jobs(self.JOBS))

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched checks reach the workers only by fork")
    def test_pool_makes_the_serial_checks(self, monkeypatch, tmp_path):
        # each worker appends a line per check to one file.  On 2 workers
        # meq1 and lemd make the serial checks, one per orbit: 14 each, as
        # lemd's jobs of one order are one task
        log = tmp_path / "checks"

        def logging(kind, real):
            def logged(*args):
                # lemd's jets are the ones of degree 1: meq1's are of
                # degree 4, lem22's of 2 and 3
                if kind == "meq1" or args[1] == 1:
                    with open(log, "a") as fh:
                        fh.write(f"{kind}\n")
                return real(*args)
            return logged

        monkeypatch.setattr(identities, "_meq1_at",
                            logging("meq1", identities._meq1_at))
        monkeypatch.setattr(identities, "theta2_jet",
                            logging("lemd", identities.theta2_jet))
        reports = run_jobs(self.JOBS, 2)
        assert all(r.passed for r in reports)
        checks = log.read_text().split()
        assert checks.count("meq1") == 14
        assert checks.count("lemd") == 14

    def test_a_failing_orbit_checks_every_point(self, monkeypatch):
        # T_of_log with its z-part's sign flipped: every meq1 point fails,
        # with the report a run of its job alone makes, and no failure is
        # shared over an orbit, so each of the 26 points runs its check
        meq1 = self._of_kind("meq1")
        real = identities.T_of_log
        monkeypatch.setattr(identities, "T_of_log",
                            lambda f: real(f) + f.log_dz().d_dz() * 2)
        alone = [seen for job in meq1 for seen in self._seen(run_jobs([job]))]
        calls = self._count_calls(monkeypatch, ("T_of_log",))
        reports = run_jobs(meq1)
        assert len(reports) == 43 and not any(r.passed for r in reports)
        assert self._seen(reports) == alone
        assert calls == {"T_of_log": 26}

    def test_a_failing_lemd_orbit_checks_every_point(self, monkeypatch):
        # the Lambert form times 2, a corruption that commutes with every
        # sigma_a: each lemd report fails as a run of its job alone makes
        # it, except at l = 0, where the form is 0 and 2 * 0 = 0 passes, and
        # no failure is shared over an orbit, so each of the 63 reduced
        # points runs its check
        lemd = self._of_kind("lemd")
        real = identities.log_deriv_lambert
        monkeypatch.setattr(identities, "log_deriv_lambert",
                            lambda l, k, order: real(l, k, order) * 2)
        alone = [seen for job in lemd for seen in self._seen(run_jobs([job]))]
        calls = self._count_calls(monkeypatch, ("theta2_jet",))
        reports = run_jobs(lemd)
        assert len(reports) == 99
        assert [r.params["l"] for r in reports if r.passed] == [0] * 9
        assert self._seen(reports) == alone
        assert calls == {"theta2_jet": 63}

    def test_nothing_carries_over_between_runs(self, monkeypatch):
        # T_of_log with its z-part's sign flipped: every meq1 point fails
        meq1 = self._of_kind("meq1")
        assert all(r.passed for r in run_jobs(meq1))
        real = identities.T_of_log
        monkeypatch.setattr(identities, "T_of_log",
                            lambda f: real(f) + f.log_dz().d_dz() * 2)
        reports = run_jobs(meq1)
        assert len(reports) == 43 and not any(r.passed for r in reports)

    def test_a_check_that_raises_is_not_stored(self, monkeypatch):
        # the orbit of pi/4 (n = 4) is the reduced points (1, 2) and (3, 2):
        # lemd at k = 2, l = 1 and 3 and at k = 4, l = 2 and 6.  A raise is
        # stored neither for its point nor for its orbit, so each of the
        # four reports runs its check and fails alone
        lambert = identities.log_deriv_lambert
        raised = []

        def raising(l, k, order):
            if modular.point_orbit(l, k) == 4:
                raised.append((l, k))
                raise RuntimeError("no Lambert form on the orbit of pi/4")
            return lambert(l, k, order)

        monkeypatch.setattr(identities, "log_deriv_lambert", raising)
        reports = run_jobs([("lemd", {"k": 2, "order": 8}), ("lemd", {"k": 4, "order": 8})])
        assert len(reports) == 3 + 7
        assert raised == [(1, 2), (3, 2), (1, 2), (3, 2)]
        failed = [r for r in reports if not r.passed]
        assert [r.params for r in failed] == [
            {"k": 2, "l": 1}, {"k": 2, "l": 3}, {"k": 4, "l": 2}, {"k": 4, "l": 6}]
        for rep in failed:
            assert rep.note.startswith(
                "RuntimeError: no Lambert form on the orbit of pi/4 (in raising")


class TestShareKey:
    # the premises of identities._share_key, which puts the jobs that can
    # share a point check into one pool task

    def test_lemd_key_is_the_order(self):
        # every lemd(k) checks the orbit n = 1 at l = 0, so two lemd jobs of
        # one order in two tasks would each check it: one task per order
        def key(k, order=8):
            return identities._share_key(("lemd", {"k": k, "order": order}))

        for k in range(1, 61):
            assert modular.point_orbit(0, k) == 1
            assert key(k) == ("lemd", 8)
        assert key(3, 12) == ("lemd", 12) != key(3)

    def test_meq1_jobs_at_one_point_have_one_key(self):
        keys: dict = {}
        for k in range(1, 31):
            for l in range(2 * k):
                if l != k:
                    job = ("meq1", {"k": k, "l": l, "jet_degree": 4, "order": 12})
                    keys.setdefault(modular.reduced_point(l, k), set()).add(
                        identities._share_key(job))
        assert all(len(ks) == 1 for ks in keys.values())

    def test_other_jobs_run_alone(self):
        jobs = enumerate_jobs(1, 4, (0, 1), 10, 4, frozenset({"all"}))
        others = [job for job in jobs if job[0] not in ("meq1", "lemd")]
        assert {kind for kind, _ in others} == {
            "theorem", "lem2", "lem22", "bridges", "tan-sum", "k3"}
        assert all(identities._share_key(job) is None for job in others)

    def test_a_job_without_a_key_fails_alone(self):
        # params that give no key: the job fails as a report when it runs
        bad = [("lemd", {"k": 0, "order": 8}), ("meq1", {"k": 2, "order": 8})]
        assert [identities._share_key(job) for job in bad] == [None, None]
        good = ("tan-sum", {"k": 3, "delta": 1})
        reports = run_jobs([*bad, good], 2)
        assert [r.status for r in reports] == ["fail", "fail", "pass"]
