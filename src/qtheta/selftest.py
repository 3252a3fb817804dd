"""Module-level invariant suites, runnable as `qtheta selftest`.

Each group checks one family of exact structural laws (ring axioms,
trigonometric identities, product expansions, theta symmetries).
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

from .cyclotomic import (
    CyclotomicNumber,
    cyclotomic_polynomial,
    euler_phi,
    root_of_unity,
    trig_value,
)
from .identities import HalfSumSpec, half_sum, theorem_rhs
from .jets import ZJet
from .modular import (
    ThetaPoint,
    eta_log_ddq,
    eta_product,
    eta_quotient,
    reduced_point,
    theta2_jet,
    theta2_product,
    theta2_triple_product,
)
from .series import QExpansion, compare, lambert

_SEED = 20250810


def _eq(a: QExpansion, b: QExpansion) -> bool:
    return compare(a, b, min(a.precision, b.precision)) is None


# None: rational series; m: series over Q(zeta_m), with denominators and
# with some zero and rational coefficients
_FIELDS = (None, 8, 12, 20)


def _rand_series(rng, prec=14, span=4, base=0, m=None):
    def coeff():
        if m is None or rng.random() < 0.3:
            return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        return CyclotomicNumber(m, [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                    for _ in range(euler_phi(m))])

    return QExpansion(base, [coeff() for _ in range(span)], prec)


def _group_ring_laws():
    rng = random.Random(_SEED)
    for m in _FIELDS:
        for _ in range(40 if m is None else 10):
            a, b, c = (_rand_series(rng, m=m) for _ in range(3))
            if not _eq((a + b) + c, a + (b + c)):
                return False, f"associativity of + failed (field {m})"
            if not _eq(a * b, b * a):
                return False, f"commutativity of * failed (field {m})"
            if not _eq((a * b) * c, a * (b * c)):
                return False, f"associativity of * failed (field {m})"
            if not _eq(a * (b + c), a * b + a * c):
                return False, f"distributivity failed (field {m})"
        count = 0
        while count < (100 if m is None else 20):
            a, b = _rand_series(rng, m=m), _rand_series(rng, m=m)
            if b.is_zero or not b.coeffs[0]:
                continue
            count += 1
            q = a / b
            if not _eq(b * q, a):
                return False, f"b*(a/b) != a (field {m})"
    # jet round trips f*(g/f) == g, each quotient one long division over
    # all slots; the first lead over Q(zeta_8) is sqrt 2, which is no unit
    z8 = root_of_unity(8, 1)
    sqrt2 = z8 + z8 ** 7
    for m in _FIELDS[1:]:
        for i in range(3):
            f, g = (ZJet([_rand_series(rng, m=m) for _ in range(4)]) for _ in range(2))
            if m == 8 and i == 0:
                f = ZJet([QExpansion(0, (sqrt2,) + f.slot(0).coeffs[1:], 14),
                          *f.coeffs[1:]])
            if f.slot(0).is_zero or f.slot(0).base:
                f = ZJet([f.slot(0) + 1, *f.coeffs[1:]])
            if not all(_eq(x, y) for x, y in zip((f * g.div(f)).coeffs, g.coeffs)):
                return False, f"f*(g/f) != g for jets (field {m})"
    return True, ("ring laws + 160 series and 9 jet division round trips over "
                  "Q and Q(zeta_8,12,20), one jet lead sqrt 2")


def _group_derivations():
    rng = random.Random(_SEED + 1)
    for m in _FIELDS:
        for _ in range(40 if m is None else 10):
            a, b = _rand_series(rng, m=m), _rand_series(rng, m=m)
            lhs = (a * b).q_ddq()
            rhs = a.q_ddq() * b + a * b.q_ddq()
            if not _eq(lhs, rhs):
                return False, f"q d/dq is not a derivation (field {m})"
            s = rng.randint(1, 4)
            if not _eq((a * b).scale_q(s), a.scale_q(s) * b.scale_q(s)):
                return False, f"scale_q is not multiplicative (field {m})"
            if not _eq((a + b).scale_q(s), a.scale_q(s) + b.scale_q(s)):
                return False, f"scale_q is not additive (field {m})"
            if not _eq(a.scale_q(s).q_ddq(), a.q_ddq().scale_q(s) * s):
                return False, f"scale_q chain rule failed (field {m})"
    return True, "derivation law and substitution morphism over Q and Q(zeta_8,12,20)"


def _group_trig():
    for q in range(1, 49):
        for p in range(0, q + 1, max(1, q // 5)):
            s = trig_value("sin", p, q)
            c = trig_value("cos", p, q)
            if s * s + c * c != 1:
                return False, f"sin^2+cos^2 != 1 at {p}pi/{q}"
            if not s.is_real() or not c.is_real():
                return False, f"trig value not real at {p}pi/{q}"
    rng = random.Random(_SEED + 2)
    for _ in range(25):
        m = rng.randint(3, 40)
        x = root_of_unity(m, rng.randrange(m)) * Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        y = root_of_unity(m, rng.randrange(m)) + rng.randint(-2, 2)
        if x.conjugate().conjugate() != x:
            return False, "conjugation is not an involution"
        if (x * y).conjugate() != x.conjugate() * y.conjugate():
            return False, "conjugation is not multiplicative"
        if (x + y).conjugate() != x.conjugate() + y.conjugate():
            return False, "conjugation is not additive"
    return True, "sin^2+cos^2 (q <= 48), conjugation automorphism"


def _group_roots():
    for m in range(1, 65):
        for j in range(0, m, max(1, m // 7)):
            if root_of_unity(m, j) ** m != 1:
                return False, f"zeta_{m}^{j} to the m is not 1"
    for m in (1, 2, 3, 4, 6, 8, 9, 12, 15, 16, 24, 30, 36, 49, 60, 64):
        z = root_of_unity(m, 1)
        # prod over primitive roots of (x - zeta^j), coefficients in Q(zeta_m)
        poly = [CyclotomicNumber.one(m)]
        for j in range(m):
            if math.gcd(j, m) != 1:
                continue
            root = z**j
            new = [CyclotomicNumber.zero(m) for _ in range(len(poly) + 1)]
            for i, c in enumerate(poly):
                new[i + 1] = new[i + 1] + c
                new[i] = new[i] - c * root
            poly = new
        expect = cyclotomic_polynomial(m)
        got = []
        for c in poly:
            if not c.is_rational():
                return False, f"minimal-poly product not rational for m={m}"
            got.append(c.as_rational())
        if got != [Fraction(e) for e in expect]:
            return False, f"minimal-poly product mismatch for m={m}"
    return True, "zeta^m = 1 (m <= 64) and primitive-root products"


def _group_pentagonal():
    n = 200
    e = eta_product(1, n)
    base = Fraction(1, 24)
    coeffs = {}
    for j in range(-n, n + 1):  # the pentagonal numbers j(3j-1)/2 are distinct
        g = j * (3 * j - 1) // 2
        if base + g < n:
            coeffs[base + g] = (-1) ** (j % 2)
    got = {x: e.coefficient(x) for x in e.exponents()}
    for x, v in sorted(coeffs.items()):
        if got.pop(x, 0) != v:
            return False, f"pentagonal mismatch at q^{x}"
    if any(got.values()):
        return False, "eta product has extra nonzero coefficients"
    return True, "eta product vs pentagonal series, order 200"


def _group_eta_log():
    """The sigma sieve's log-derivatives against eta_quotient's Euler
    products, cross-multiplied so no series is divided: L_a eta_a equals
    q d/dq eta_a, and theorem_rhs(5, 1) = 4 q d/dq log Q with
    Q = eta_10^8 / (eta_1^5 eta_5^3) satisfies rhs Q = 4 q d/dq Q."""
    order = 100
    for alpha in range(1, 13):
        e = eta_product(alpha, order)
        if not _eq(eta_log_ddq(alpha, order) * e, e.q_ddq()):
            return False, f"L_{alpha} eta_{alpha} != q d/dq eta_{alpha}"
    quotient = eta_quotient(((10, 8), (1, -5), (5, -3)), order)
    if not _eq(theorem_rhs(5, 1, order) * quotient, quotient.q_ddq() * 4):
        return False, "theorem_rhs(5, 1) != 4 q d/dq log of its eta quotient"
    return True, "q d/dq log eta_a (a <= 12) and theorem_rhs(5, 1) vs Euler products, order 100"


def _group_triple_product():
    order = 60
    for k in range(1, 9):
        for l in range(2 * k):
            pt = ThetaPoint(l, 2 * k)
            a0 = theta2_jet(pt, 0, order).slot(0)
            tp = theta2_triple_product(pt, order)
            if compare(a0, tp, order) is not None:
                return False, f"triple product mismatch at l={l}, k={k}"
    return True, "triple product = summed series (k <= 8, order 60)"


def _group_theta_symmetries():
    order = 40
    for k in range(1, 7):
        for l in range(2 * k):
            fwd = theta2_jet(ThetaPoint(l, 2 * k), 2, order)
            bwd = theta2_jet(ThetaPoint(-l, 2 * k), 2, order)
            for j in range(3):
                ref = fwd.slot(j) if j % 2 == 0 else -fwd.slot(j)
                if compare(bwd.slot(j), ref, order) is not None:
                    return False, f"parity law failed at l={l}, k={k}, slot {j}"
            shifted = theta2_jet(ThetaPoint(l + 2 * k, 2 * k), 0, order).slot(0)
            if compare(shifted, -fwd.slot(0), order) is not None:
                return False, f"pi-shift law failed at l={l}, k={k}"
            lr, kr = reduced_point(l, k)
            small = theta2_jet(ThetaPoint(lr, 2 * kr), 2, order)
            for j in range(3):
                if small.slot(j).embed(4 * k) != fwd.slot(j):
                    return False, f"reduced point differs at l={l}, k={k}, slot {j}"
    return True, "evenness, pi-shift and reduced points of the theta series (k <= 6)"


def _group_heat():
    for (num, den) in [(0, 1), (-1, 2), (1, 6), (3, 10), (5, 8)]:
        f = theta2_jet(ThetaPoint(num, den), 4, 30)
        if not (f.q_ddq() * 8 + f.d_dz().d_dz()).is_zero():
            return False, f"heat residue at {num}pi/{den}"
    return True, "termwise 8 q d/dq + d2/dz2 annihilation"


def _group_lambert():
    for (a, b) in [(1, 1), (1, 2), (3, 7), (5, 4)]:
        series = lambert(a, b, 200)
        for mm in range(1, 200):
            c = series.coefficient(mm)
            expect = sum(
                1
                for d in range(1, mm + 1)
                if mm % d == 0 and d >= a and (d - a) % b == 0
            )
            if not (isinstance(c, int) and c >= 0 and c == expect):
                return False, f"lambert({a},{b}) wrong at q^{mm}"
    return True, "divisor-count reconstruction, order 200"


def _group_half_sum():
    order = 16
    for k in range(1, 9):
        for delta in (0, 1):
            spec = HalfSumSpec(k, delta)
            direct = QExpansion.zero(order)
            for l in spec.index_set:
                jet = theta2_jet(ThetaPoint(l, 2 * k), 1, order + 1)
                b = jet.slot(1) / jet.slot(0)
                direct = direct + b * b
            if compare(half_sum(spec, order), direct, order) is not None:
                return False, f"half sum != summed squares at k={k}, delta={delta}"
    return True, "half sum over Q = summed squared jet ratios (k <= 8, order 16)"


def _group_half_product():
    """lem2's left side, multiplied by shifts in Z[x]/(x^{m/2} + 1), against
    the chain of packed series products over Q(zeta_16k)."""
    order = 40
    for k in range(1, 7):
        for delta in (0, 1):
            pts = [ThetaPoint(1 + 4 * l, 8 * k) for l in range(2 * k)
                   if (l - k) % 2 == delta]
            chain = math.prod(theta2_jet(pt, 0, order).slot(0) for pt in pts)
            if theta2_product(pts, order) != chain:
                return False, f"half product != series chain at k={k}, delta={delta}"
    return True, "theta product by root shifts = series product chain (k <= 6, order 40)"


GROUPS = [
    ("ring-laws", _group_ring_laws),
    ("derivations", _group_derivations),
    ("trig-identities", _group_trig),
    ("cyclotomic-roots", _group_roots),
    ("pentagonal", _group_pentagonal),
    ("eta-log", _group_eta_log),
    ("triple-product", _group_triple_product),
    ("theta-symmetries", _group_theta_symmetries),
    ("heat-equation", _group_heat),
    ("lambert-series", _group_lambert),
    ("half-sum", _group_half_sum),
    ("half-product", _group_half_product),
]


def run_selftest(out=print) -> int:
    """Run all invariant groups; returns 0 iff every group passes."""
    failures = 0
    for name, fn in GROUPS:
        t0 = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # invariant machinery itself broke
            ok, detail = False, f"exception: {exc}"
        ms = (time.perf_counter() - t0) * 1000
        status = "PASS" if ok else "FAIL"
        out(f"{status} {name:18s} {detail}  [{ms:.0f} ms]")
        if not ok:
            failures += 1
    return 0 if failures == 0 else 1
