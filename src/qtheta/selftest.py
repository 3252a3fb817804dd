"""Module-level invariant suites, runnable as `qtheta selftest`.

Each group checks one family of exact structural laws (ring axioms,
trigonometric identities, product expansions, theta symmetries).  A
deliberately corrupted coefficient can be injected through the fault
hook to prove the harness actually detects failures.
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
from .jets import compare_jets
from .modular import ThetaPoint, eta_product, theta2_jet, theta2_triple_product
from .series import QExpansion, compare, lambert

_SEED = 20250810


def _eq(a: QExpansion, b: QExpansion) -> bool:
    return compare(a, b, min(a.precision, b.precision)) is None


def _rand_series(rng, prec=14, span=4, base=0):
    cs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(span)]
    return QExpansion(base, cs, prec)


def _group_ring_laws():
    rng = random.Random(_SEED)
    for _ in range(40):
        a, b, c = (_rand_series(rng) for _ in range(3))
        if not _eq((a + b) + c, a + (b + c)):
            return False, "associativity of + failed"
        if not _eq(a * b, b * a):
            return False, "commutativity of * failed"
        if not _eq((a * b) * c, a * (b * c)):
            return False, "associativity of * failed"
        if not _eq(a * (b + c), a * b + a * c):
            return False, "distributivity failed"
    count = 0
    while count < 100:
        a, b = _rand_series(rng), _rand_series(rng)
        if b.is_zero or not b.coeffs[0]:
            continue
        count += 1
        q = a / b
        if not _eq(b * q, a):
            return False, "b*(a/b) != a"
    return True, "ring laws + 100 division round trips"


def _group_derivations():
    rng = random.Random(_SEED + 1)
    for _ in range(40):
        a, b = _rand_series(rng), _rand_series(rng)
        lhs = (a * b).q_ddq()
        rhs = a.q_ddq() * b + a * b.q_ddq()
        if not _eq(lhs, rhs):
            return False, "q d/dq is not a derivation"
        s = rng.randint(1, 4)
        if not _eq((a * b).scale_q(s), a.scale_q(s) * b.scale_q(s)):
            return False, "scale_q is not multiplicative"
        if not _eq((a + b).scale_q(s), a.scale_q(s) + b.scale_q(s)):
            return False, "scale_q is not additive"
        if not _eq(a.scale_q(s).q_ddq(), a.q_ddq().scale_q(s) * s):
            return False, "scale_q chain rule failed"
    return True, "derivation law and substitution morphism"


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


def _group_pentagonal(fault=False):
    n = 200
    e = eta_product(1, n)
    base = Fraction(1, 24)
    coeffs = {}
    j = 0
    while True:
        hit = False
        for jj in (j, -j) if j else (0,):
            g = jj * (3 * jj - 1) // 2
            if base + g < n:
                coeffs[base + g] = coeffs.get(base + g, 0) + (-1) ** (jj % 2)
                hit = True
        if not hit:
            break
        j += 1
    sparse = sorted(coeffs.items())
    exps = [x for x, _ in sparse]
    vals = [v for _, v in sparse]
    if fault:
        vals[3] += 1  # fault-injection hook: corrupt one expected coefficient
    got = {x: e.coefficient(x) for x in e.exponents()}
    for x, v in zip(exps, vals):
        if got.pop(x, 0) != v:
            return False, f"pentagonal mismatch at q^{x}"
    if any(got.values()):
        return False, "eta product has extra nonzero coefficients"
    return True, "eta product vs pentagonal series, order 200"


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
    return True, "evenness and pi-shift of the theta series (k <= 6)"


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


GROUPS = [
    ("ring-laws", _group_ring_laws),
    ("derivations", _group_derivations),
    ("trig-identities", _group_trig),
    ("cyclotomic-roots", _group_roots),
    ("pentagonal", _group_pentagonal),
    ("triple-product", _group_triple_product),
    ("theta-symmetries", _group_theta_symmetries),
    ("heat-equation", _group_heat),
    ("lambert-series", _group_lambert),
]


def run_selftest(fault: bool = False, out=print) -> int:
    """Run all invariant groups; returns 0 iff every group passes.

    `fault` corrupts one expected coefficient of the pentagonal group, a
    hook proving the checks can fail.
    """
    failures = 0
    for name, fn in GROUPS:
        t0 = time.perf_counter()
        try:
            ok, detail = fn(fault) if fn is _group_pentagonal else fn()
        except Exception as exc:  # invariant machinery itself broke
            ok, detail = False, f"exception: {exc}"
        ms = (time.perf_counter() - t0) * 1000
        status = "PASS" if ok else "FAIL"
        out(f"{status} {name:18s} {detail}  [{ms:.0f} ms]")
        if not ok:
            failures += 1
    return 0 if failures == 0 else 1
