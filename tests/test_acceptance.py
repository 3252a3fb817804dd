"""Acceptance suite: every criterion at its stated scale, zero tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s); all
comparisons are exact coefficient equality, no epsilon anywhere.
"""

import sys
from fractions import Fraction

from qtheta import (
    HalfSumSpec,
    half_sum,
    run_selftest,
    tan_square_sum,
    theorem_rhs,
    trig_value,
    verify_eta_theta_bridges,
    verify_k3_corollary,
    verify_lem2,
    verify_lemd,
    verify_meq1,
    verify_second_derivatives,
    verify_theorem,
)
from qtheta.identities import meq1_points
from qtheta.series import compare


def _line(n, ok, text):
    # sys.__stderr__ bypasses pytest capture: one visible line per criterion
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n}: {status} - {text}", file=sys.__stderr__, flush=True)


def test_criterion_1_theorem_sweep():
    """Modular equation: k = 2..30, both parities, order 100, exact."""
    failures = []
    for k in range(2, 31):
        for delta in (0, 1):
            r = verify_theorem(k, delta, 100)
            if not r.passed:
                failures.append((k, delta, r.first_mismatch))
    _line(1, not failures, "modular equation sweep k=2..30, delta in {0,1}, N=100")
    assert not failures, failures


def test_criterion_2_tangent_sums():
    """Tangent-square sums for k <= 200: exact rational closed forms.

    delta=0: (k-1)(k-2)/6.  delta=1: k(k-1)/2, pinned by the index-set
    audit; the commonly printed k(k-1)/6 is refuted by enumeration
    (k=2: tan^2(pi/4) = 1 != 1/3) and by the equation's constant term.
    """
    failures = []
    refuted_variant = True
    for k in range(1, 201):
        for delta in (0, 1):
            value, report = tan_square_sum(k, delta)
            expect = (
                Fraction((k - 1) * (k - 2), 6)
                if delta == 0
                else Fraction(k * (k - 1), 2)
            )
            if value != expect or not report.passed:
                failures.append((k, delta, value, expect))
            if delta == 1 and k >= 2 and value == Fraction(k * (k - 1), 6):
                refuted_variant = False
    # index-set audit anchor: (3,1) enumerates {0,2} -> 0 + 3 = 3
    audit = tan_square_sum(3, 1)[0] == 3
    ok = not failures and refuted_variant and audit
    _line(2, ok, "tangent sums k<=200; delta=1 uses audited k(k-1)/2 "
                 "(printed k(k-1)/6 variant fails enumeration at k=2)")
    assert audit
    assert refuted_variant
    assert not failures, failures[:3]


def test_criterion_3_k3_lambert_identity():
    """(3,1) Lambert identity to order 500 plus spot values."""
    r = verify_k3_corollary(500)
    from qtheta import lambert

    inner = (
        lambert(1, 6, 4) + lambert(2, 6, 4) - lambert(4, 6, 4) - lambert(5, 6, 4)
    ) * 2 + 1
    sq = inner * inner
    spots = sq.coefficient(0) == 1 and sq.coefficient(1) == 4
    ok = r.passed and spots
    _line(3, ok, "k=3 delta=1 Lambert identity, N=500; constant 1, q-coefficient 4")
    assert r.passed, r.first_mismatch
    assert spots


def test_criterion_4_lemd_oracle_equivalence():
    """Lambert form vs jet ratio for all k <= 12, admissible l, order 80."""
    failures = []
    for k in range(1, 13):
        for r in verify_lemd(k, 80):
            if not r.passed:
                failures.append((k, r.params, r.first_mismatch))
    _line(4, not failures, "log-derivative oracle equivalence k<=12, order 80")
    assert not failures, failures


def test_criterion_5_half_product():
    """Half product at pi/(8k) for k <= 10, both parities, order 60,
    constant included; second base point pi/(12k) for k <= 5."""
    failures = []
    for k in range(1, 11):
        for delta in (0, 1):
            r = verify_lem2(k, delta, 60)
            if not r.passed:
                failures.append((k, delta, 8, r.first_mismatch))
    for k in range(1, 6):
        for delta in (0, 1):
            r = verify_lem2(k, delta, 60, base_den=12)
            if not r.passed:
                failures.append((k, delta, 12, r.first_mismatch))
    _line(5, not failures,
          "half product k<=10 at pi/(8k) and k<=5 at pi/(12k), order 60")
    assert not failures, failures


def test_criterion_6_jet_identity():
    """Jet identity and heat cancellation at five points per k <= 6, order 40."""
    failures = []
    for k in range(1, 7):
        for l in meq1_points(k):
            r = verify_meq1(l, k, 4, 40)
            if not r.passed:
                failures.append((k, l, r.note, r.first_mismatch))
    _line(6, not failures,
          "squared log-derivative = T(log) to jet degree 2; heat residue zero")
    assert not failures, failures


def test_criterion_7_bridges_and_operator_identities():
    """Value bridges to order 200; second-derivative and T identities
    to order 60 for k <= 10."""
    failures = []
    for r in verify_eta_theta_bridges(200):
        if not r.passed:
            failures.append((r.identity, r.first_mismatch))
    for k in range(1, 11):
        for r in verify_second_derivatives(k, 60):
            if not r.passed:
                failures.append((k, r.params, r.first_mismatch))
    _line(7, not failures,
          "eta-theta bridges N=200; operator identities k<=10, N=60")
    assert not failures, failures


def test_criterion_8_property_suites():
    """Structural invariant groups, the selftest surface, exit 0."""
    rc = run_selftest(out=lambda s: print("  " + s, file=sys.__stderr__, flush=True))
    _line(8, rc == 0, "selftest invariant groups all green")
    assert rc == 0


def test_constant_term_law():
    """Constant term of the half sum equals the tangent-square sum, and
    the sum of sin^2/cos^2 formed by field division."""
    for k in range(1, 13):
        for delta in (0, 1):
            hs = half_sum(HalfSumSpec(k, delta), 3)
            value, _ = tan_square_sum(k, delta)
            assert hs.coefficient(0) == value
            direct = 0
            for l in HalfSumSpec(k, delta).index_set:
                s, c = trig_value("sin", l, 2 * k), trig_value("cos", l, 2 * k)
                direct = (s * s) / (c * c) + direct
            assert direct == value
            expect = (
                Fraction((k - 1) * (k - 2), 6)
                if delta == 0
                else Fraction(k * (k - 1), 2)
            )
            assert value == expect


def test_realness_and_rationality_of_half_sum():
    """Every half-sum coefficient is rational (asserted internally)."""
    hs = half_sum(HalfSumSpec(7, 0), 40)
    rhs = theorem_rhs(7, 0, 40)
    assert compare(hs, rhs, 40) is None
    assert all(isinstance(c, (int, Fraction)) for c in hs.coeffs)
