"""q-expansions and z-jets of the special functions under test.

Everything here, and the identity layer on top, revolves around
theta2(z, q) = sum_n q^{(2n+1)^2/8} e^{i(2n+1)z} evaluated at rational
multiples of pi, the eta product q^{a/24} prod (1 - q^{an}), and Lambert
series.  Phases e^{i(2n+1)z0} live in Q(zeta), with the conductor chosen
from the base point; q^{1/8}-type prefactors ride on the series base
exponent, so exponent steps stay integral: (2n+1)^2/8 - 1/8 = n(n+1)/2.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import _kernels as K
from .cyclotomic import (
    ConductorError,
    CyclotomicNumber,
    _ctx,
    root_of_unity,
    trig_value,
)
from .jets import ZJet
from .series import QExpansion


@dataclass(frozen=True)
class ThetaPoint:
    """Base point z0 = num*pi/den with an optional q -> q^s substitution."""

    num: int
    den: int = 1
    q_power: int = 1

    def __post_init__(self):
        if self.den < 1:
            raise ValueError("denominator must be positive")
        if self.q_power < 1:
            raise ValueError("q_power must be positive")

    @property
    def conductor(self) -> int:
        """Conductor lcm(2 den, 4) of a field holding i and every phase
        e^{i(2n+1)z0}: the smallest such field when num/den is in lowest
        terms, and possibly a larger one otherwise (reduced_point gives
        the form of a point l pi/2k in its smallest field)."""
        return math.lcm(2 * self.den, 4)

    @property
    def is_theta_zero(self) -> bool:
        """True when z0 = pi/2 mod pi, the zero locus of the theta series."""
        return (2 * self.num - self.den) % (2 * self.den) == 0

    def label(self) -> str:
        s = f"{self.num}pi/{self.den}" if self.den > 1 else f"{self.num}pi"
        return s if self.q_power == 1 else f"{s};q^{self.q_power}"


def reduced_point(l: int, k: int) -> tuple[int, int]:
    """(l', k') with l' pi/2k' = l pi/2k, the base point in its smallest field.

    In lowest terms l pi/2k = u pi/n, with g = gcd(l, 2k), u = l/g and
    n = 2k/g.  Then (l', k') = (u, n/2) for even n and (2u, n) for odd n,
    so 4k' = lcm(2n, 4), and ThetaPoint(l', 2k') and
    log_deriv_lambert(l', k') both work over Q(zeta_lcm(2n, 4)).

    That field is the smallest one holding i and the phases
    e^{i t u pi/n} = zeta_2n^{t u}, t odd (Washington, Introduction to
    Cyclotomic Fields, GTM 83, ch. 2): for odd u, zeta_2n^u is a
    primitive 2n-th root of unity and they generate Q(zeta_2n); for even
    u (then n is odd) zeta_2n^u is a primitive n-th root and they
    generate Q(zeta_n) = Q(zeta_2n); adjoining i gives
    Q(zeta_lcm(2n, 4)).  Over Q(zeta_4k) the same jet and Lambert form
    are the embeddings of these.
    """
    g = math.gcd(l, 2 * k)
    u, n = l // g, 2 * k // g
    return (u, n // 2) if n % 2 == 0 else (2 * u, n)


def eta_product(alpha: int, order) -> QExpansion:
    """q^{alpha/24} prod_{n>=1} (1 - q^{alpha n}), truncated below `order`."""
    if alpha < 1:
        raise ValueError("alpha must be a positive integer")
    base = Fraction(alpha, 24)
    room = math.ceil(Fraction(order) - base)
    if room <= 0:
        return QExpansion.zero(order)
    coeffs = [0] * room
    coeffs[0] = 1
    n = 1
    while alpha * n < room:
        c = alpha * n
        for i in range(room - 1, c - 1, -1):
            if coeffs[i - c]:
                coeffs[i] -= coeffs[i - c]
        n += 1
    return QExpansion(base, coeffs, order)


def eta_log_ddq(alpha: int, order) -> QExpansion:
    """q d/dq log of the alpha-scaled eta product: alpha/24 - alpha*sum sigma.

    The coefficient of q^M is -alpha * sigma(M/alpha) when alpha | M and
    zero otherwise, computed by a divisor-sum sieve.
    """
    if alpha < 1:
        raise ValueError("alpha must be a positive integer")
    room = math.ceil(Fraction(order))
    if room <= 0:
        return QExpansion.zero(order)
    top = (room - 1) // alpha
    sigma = [0] * (top + 1)
    for d in range(1, top + 1):
        for mult in range(d, top + 1, d):
            sigma[mult] += d
    vecs: list = [None] * room
    vecs[0] = [alpha]
    for n in range(1, top + 1):
        vecs[alpha * n] = [-24 * alpha * sigma[n]]
    return QExpansion._from_vectors(1, 0, vecs, 24, order)


def theta2_jet(pt: ThetaPoint, degree: int, order) -> ZJet:
    """Degree-`degree` z-jet of theta2(z0 + z, q^s) about z0 = num*pi/den.

    Slot j holds sum_n (i(2n+1))^j / j! * q^{s(2n+1)^2/8} zeta^{num(2n+1)},
    summed symmetrically over the pair n <-> -1-n.
    """
    if degree < 0:
        raise ValueError("jet degree must be >= 0")
    s = pt.q_power
    m = pt.conductor
    ctx = _ctx(m)
    rows = ctx.rows()
    D = ctx.D
    w = m // (2 * pt.den)
    i_exp = m // 4
    base = Fraction(s, 8)
    order = Fraction(order)
    room = math.ceil(order - base)
    if room <= 0:
        zero = QExpansion.zero(order)
        return ZJet([zero] * (degree + 1))
    slots: list[list] = [[None] * room for _ in range(degree + 1)]
    n = 0
    while True:
        off = s * n * (n + 1) // 2
        if off >= room:
            break
        t = 2 * n + 1
        for tt in (t, -t):
            phase = (pt.num * tt * w) % m
            for j in range(degree + 1):
                row = rows[(phase + j * i_exp) % m]
                vec = slots[j][off]
                if vec is None:
                    vec = [0] * D
                    slots[j][off] = vec
                K.scaled_add(vec, list(row), tt**j)
        n += 1
    out = []
    for j in range(degree + 1):
        vecs = [v if v is not None and any(v) else None for v in slots[j]]
        out.append(QExpansion._from_vectors(m, base, vecs, math.factorial(j), order))
    return ZJet(out)


def theta2_triple_product(pt: ThetaPoint, order) -> QExpansion:
    """Product form of the theta series at z0:

        q^{s/8} e^{-i z0} prod (1-q^{sn}) (1+e^{-2i z0} q^{sn}) (1+e^{2i z0} q^{s(n-1)})

    with every phase an exact root of unity.  Each coefficient is kept in
    Z[x]/(x^m - 1), x = zeta_m, so a phase zeta^a is a rotation, and is
    reduced mod Phi_m once at the end.  Equality with the summed jet is
    the triple-product identity, exercised as an invariant.
    """
    s = pt.q_power
    m = pt.conductor
    w = m // (2 * pt.den)
    base = Fraction(s, 8)
    order = Fraction(order)
    room = math.ceil(order - base)
    if room <= 0:
        return QExpansion.zero(order)
    minus, plus = (-2 * pt.num * w) % m, (2 * pt.num * w) % m
    first = [0] * m
    first[(-pt.num * w) % m] += 1
    first[(pt.num * w) % m] += 1  # with the n = 1 factor of the third family
    coeffs: list = [first] + [None] * (room - 1)

    def times(exp, a, op):
        """coeffs *= 1 +- zeta^a q^exp in place, op the sign's add or sub."""
        for i in range(room - 1, exp - 1, -1):
            low = coeffs[i - exp]
            if low is not None:
                cur = coeffs[i]
                rot = low[m - a:] + low[:m - a]
                coeffs[i] = list(map(op, cur or [0] * m, rot))

    n = 1
    while s * n < room:
        times(s * n, 0, operator.sub)      # 1 - q^{sn}
        times(s * n, minus, operator.add)  # 1 + e^{-2iz0} q^{sn}
        n += 1
    n = 2
    while s * (n - 1) < room:
        times(s * (n - 1), plus, operator.add)
        n += 1
    ctx = _ctx(m)
    vecs = [None if c is None else ctx.reduce(c) for c in coeffs]
    vecs = [v if v is not None and any(v) else None for v in vecs]
    return QExpansion._from_vectors(m, base, vecs, 1, order)


def _bracket_data(l: int, k: int, order):
    """Coefficient vectors of d/dz log theta2 at l*pi/(2k) in Q(zeta_4k).

    Returns (ctx, den, vecs): the series is vecs[0]/den at q^0 plus the
    integer vectors vecs[M] at q^M.  Constant term -tan(l pi / 2k); the
    coefficient of q^M collects 4 (-1)^h sin(l h pi / k) over divisors
    d | M with d ≡ h (mod 2k), summed by a divisor sieve.
    log_deriv_lambert (the lemd check) is its only caller.
    """
    if k < 1 or not 0 <= l < 2 * k or l == k:
        raise ValueError("need 0 <= l < 2k with l != k")
    m = 4 * k
    ctx = _ctx(m)
    D = ctx.D
    room = math.ceil(Fraction(order))
    tan = trig_value("tan", l, 2 * k)
    if tan.conductor != m:
        raise ConductorError(f"tan({l} pi/{2 * k}) has conductor "
                             f"{tan.conductor}, not {m}")
    den = tan._den
    vec0 = [-x for x in tan._num]
    i_exp = m // 4
    svecs = []
    rows = ctx.rows()
    for h in range(1, min(2 * k, room - 1) + 1):
        a = (2 * l * h) % m
        sg = 2 if h % 2 else -2  # 2*(-1)^(h+1)
        svecs.append([sg * (x - y) for x, y in
                      zip(rows[(a + i_exp) % m], rows[(-a + i_exp) % m])])
    vecs: list = [vec0] + [[0] * D for _ in range(1, room)]
    for d in range(1, room):
        sv = svecs[(d - 1) % (2 * k)]
        for M in range(d, room, d):
            K.scaled_add(vecs[M], sv, 1)
    return ctx, den, vecs


def log_deriv_lambert(l: int, k: int, order) -> QExpansion:
    """d/dz log theta2 at l*pi/(2k) in Lambert form, over Q(zeta_4k).

    Constant term -tan(l pi/2k); the series part is
    4 sum_{h=1}^{2k} (-1)^h sin(l h pi / k) sum_{n>=1} q^{hn}/(1-q^{2kn}),
    assembled coefficientwise by a divisor sieve.  The jet
    ratio a1/a0 of theta2_jet is the independent route to the same
    series (exercised by the lemd verifier).
    """
    ctx, den, vecs = _bracket_data(l, k, order)
    vecs = [vecs[0] if any(vecs[0]) else None] + [
        [den * x for x in v] if any(v) else None for v in vecs[1:]
    ]
    return QExpansion._from_vectors(ctx.m, 0, vecs, den, order)


def halfprod_constant(k: int, delta: int) -> CyclotomicNumber:
    """Fourth root of unity closing the half product of 2k theta factors:

        prod_{0<=l<2k, l-k=delta (2)} theta2(z + l pi/2k, q)
            = C * eta^k/eta_k * theta2(kz + (delta-1) pi/2, q^k)

    C = e^{(i pi/2)(delta - k - [k != delta mod 2])}.  The sign of the
    indicator differs from the usual printed form of this constant; the
    value here is the one the product identity actually satisfies, as
    both the series verifier and a numerical check confirm (the printed
    variant fails whenever k and delta have opposite parity).
    """
    if k < 1 or delta not in (0, 1):
        raise ValueError("need k >= 1 and delta in {0, 1}")
    ind = 1 if (k - delta) % 2 else 0
    return root_of_unity(4, (delta - k - ind) % 4)
