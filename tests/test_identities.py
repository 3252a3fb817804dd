"""Verifier layer: half sums, the modular equation, lemma checks, reports."""

from fractions import Fraction

import pytest

from qtheta import identities, series
from qtheta import (
    CyclotomicNumber,
    HalfSumSpec,
    QExpansion,
    compare,
    embed_conductor,
    eta_product,
    full_suite,
    half_sum,
    halfprod_constant,
    log_deriv_lambert,
    tan_square_sum,
    theorem_rhs,
    theta2_jet,
    verify_eta_theta_bridges,
    verify_k3_corollary,
    verify_lem2,
    verify_lemd,
    verify_meq1,
    verify_second_derivatives,
    verify_theorem,
)
from qtheta.cyclotomic import _ctx
from qtheta.identities import (
    _tan_square_sum_exact,
    enumerate_jobs,
    meq1_points,
    run_jobs,
)
from qtheta.modular import ThetaPoint


def _record_series_div(monkeypatch) -> list:
    """Divisors that reach the schoolbook series division, in call order."""
    divisors = []
    real = series._series_div

    def recording(a, b):
        divisors.append(b)
        return real(a, b)

    monkeypatch.setattr(series, "_series_div", recording)
    return divisors


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
        # small case recomputed with generic series arithmetic
        for (k, d) in [(3, 0), (4, 1), (5, 0)]:
            order = 15
            spec = HalfSumSpec(k, d)
            direct = None
            for l in spec.index_set:
                b = log_deriv_lambert(l, k, order)
                sq = b * b
                direct = sq if direct is None else direct + sq
            fast = half_sum(spec, order)
            for mm in range(order):
                lhs = direct.coefficient(mm)
                if isinstance(lhs, CyclotomicNumber):
                    lhs = lhs.as_rational()
                assert lhs == fast.coefficient(mm), (k, d, mm)


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


class TestVerifyTheorem:
    def test_k3_delta0_order100(self):
        assert verify_theorem(3, 0, 100).passed

    def test_k2_delta0_zero_equals_zero(self):
        assert verify_theorem(2, 0, 100).passed

    def test_k4_delta1_order100(self):
        assert verify_theorem(4, 1, 100).passed

    def test_report_fields(self):
        r = verify_theorem(5, 1, 30)
        assert r.passed and r.identity == "theorem"
        assert r.params == {"k": 5, "delta": 1}
        assert r.precision_certified >= 30
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


class TestVerifyLem2:
    def test_identity_instance_k1(self):
        assert verify_lem2(1, 1, 40).passed

    def test_k2_delta0(self):
        assert verify_lem2(2, 0, 40).passed

    def test_k3_delta1(self):
        assert verify_lem2(3, 1, 40).passed

    def test_second_base_point(self):
        assert verify_lem2(3, 0, 30, base_den=12).passed

    def test_printed_constant_variant_fails(self):
        # the sign-flipped indicator variant of the closing constant breaks
        # the product identity whenever k and delta have opposite parity
        k, delta = 3, 0
        order = 20
        bd = 8
        m_full = 2 * bd * k
        lhs = None
        for l in range(2 * k):
            if (l - k) % 2 != delta:
                continue
            a0 = theta2_jet(ThetaPoint(1 + 4 * l, bd * k), 0, order + 3).slot(0)
            lhs = a0 if lhs is None else lhs * a0
        e1 = eta_product(1, order + 3)
        ratio = e1 * e1 * e1 / eta_product(k, order + 3)
        th = theta2_jet(ThetaPoint(4 * (delta - 1) + 1, bd, q_power=k), 0, order + 3).slot(0)
        base_rhs = embed_conductor(halfprod_constant(k, delta), m_full) * (
            ratio * th.map_coeffs(lambda c: embed_conductor(c, m_full)
                                  if isinstance(c, CyclotomicNumber) else c)
        )
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

    def test_one_series_inversion_per_job(self, monkeypatch):
        # every quotient in meq1 is by the jet's constant slot, whose inverse
        # is computed once and shared
        divisors = _record_series_div(monkeypatch)
        assert verify_meq1(1, 5, 4, 16).passed
        assert len(divisors) == 1

    def test_points_helper(self):
        assert meq1_points(1) == [0]
        assert meq1_points(2) == [0, 1, 3]
        assert meq1_points(3) == [0, 1, 2, 4, 5]
        assert len(meq1_points(6)) == 5


class TestSecondDerivatives:
    def test_each_divisor_inverted_once(self, monkeypatch):
        # the two ratio parts share one quotient jet, so no divisor value
        # is inverted twice
        divisors = _record_series_div(monkeypatch)
        assert all(r.passed for r in verify_second_derivatives(3, 20))
        assert len(divisors) == 4
        assert all(x != y for i, x in enumerate(divisors) for y in divisors[i + 1:])

    def test_k1_degenerate(self):
        reports = verify_second_derivatives(1, 30)
        assert len(reports) == 4
        assert all(r.passed for r in reports)

    def test_k3(self):
        assert all(r.passed for r in verify_second_derivatives(3, 40))

    def test_part_labels(self):
        parts = {r.params["part"] for r in verify_second_derivatives(2, 20)}
        assert parts == {"d2-origin", "d2-ratio", "T-scaled", "T-ratio"}


class TestBridges:
    def test_exponent_bookkeeping(self):
        # 1/8 = 2*(2/24) - 1/24
        assert Fraction(1, 8) == 2 * Fraction(2, 24) - Fraction(1, 24)

    def test_both_pass(self):
        reports = verify_eta_theta_bridges(60)
        assert [r.identity for r in reports] == ["bridge-t0", "bridge-t1"]
        assert all(r.passed for r in reports)


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

    def test_tree_matches_naive_cyclic_sum(self):
        # N = sum_i u_i prod_{j != i} v_j and D = prod_j v_j in Z[y]/(y^2k - 1)
        # from plain integer lists, reduced mod Phi_2k; their quotient must
        # be the fraction tree's value.  k = 1..16 covers Phi_2 (D = 1),
        # 1, 2, 3 and 5 leaves (unpaired nodes) and the l = 0 leaf (u = 0).
        def cyc_mul(x, y):
            m = len(x)
            out = [0] * m
            for i, a in enumerate(x):
                if a:
                    for j, b in enumerate(y):
                        out[(i + j) % m] += a * b
            return out

        leaf_counts, saw_l0 = set(), False
        for k in range(1, 17):
            m = 2 * k
            ctx = _ctx(m)
            for delta in (0, 1):
                idx = HalfSumSpec(k, delta).index_set
                leaf_counts.add(len(idx))
                saw_l0 = saw_l0 or 0 in idx
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
        assert {1, 2, 3, 5} <= leaf_counts and saw_l0


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
        reports = full_suite(k_max=2, order=10)
        assert reports and all(r.passed for r in reports)

    def test_report_count_matches_jobs(self):
        jobs = enumerate_jobs(1, 2, (0, 1), 10, 4, frozenset({"all"}))
        reports = full_suite(k_max=2, order=10)
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

    def test_parallel_matches_sequential(self):
        seq = full_suite(k_max=2, order=8)
        par = full_suite(k_max=2, order=8, parallelism=2)
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
            precision_certified=Fraction(0),
            order=40,
        )
        obj = rep.to_json_obj()
        mm = obj["first_mismatch"]
        assert mm["exponent_num"] == 9 and mm["exponent_den"] == 8
        assert isinstance(mm["exponent_num"], int)
        assert mm["lhs"] == "1/3" and mm["rhs"] == "0"
