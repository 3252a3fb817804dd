"""q-expansions and z-jets of the special functions under test.

Everything here, and the identity layer on top, revolves around
theta2(z, q) = sum_n q^{(2n+1)^2/8} e^{i(2n+1)z} evaluated at rational
multiples of pi, the eta product q^{a/24} prod (1 - q^{an}), and Lambert
series.  Phases e^{i(2n+1)z0} live in Q(zeta), with the conductor chosen
from the base point; q^{1/8}-type prefactors ride on the series base
exponent, so exponent steps stay integral: (2n+1)^2/8 - 1/8 = n(n+1)/2.
theta2(z0 + z, q) is real for real z0, z and q, and so is every slot of
its z-jet and its Lambert form: theta2_jet and log_deriv_lambert build
them in the real subfield K+ of Q(zeta_m), on cosines
c_e = zeta^e + zeta^-e (_Ctx.cosines), and every product and division of
them stays there.  The products of root_product work in the zeta basis.
Every eta side comes from one list of (alpha, e_alpha) pairs:
eta_quotient forms prod eta(alpha tau)^{e_alpha} as one integer Euler
product, and eta_quotient_log_ddq its q d/dq log as one sigma sieve.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import _kernels as K
from ._pack import lane_width, split_low, unpack_signed
from .cyclotomic import _ctx
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
        """Conductor m = lcm(2 den, 4) of a field holding i and every phase
        e^{i(2n+1)z0}: the smallest such field when num/den is in lowest
        terms, and possibly a larger one otherwise (reduced_point gives
        the form of a point l pi/2k in its smallest field).  The jet at
        the point is real, and theta2_jet builds it in the real subfield
        of Q(zeta_m), of degree phi(m)/2."""
        return math.lcm(2 * self.den, 4)

    @property
    def is_theta_zero(self) -> bool:
        """True when z0 = pi/2 mod pi, the zero locus of the theta series."""
        return (2 * self.num - self.den) % (2 * self.den) == 0


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
    are the embeddings of these.  Both are real, so both are held in the
    real subfield of Q(zeta_lcm(2n, 4)), of degree phi(lcm(2n, 4))/2.
    """
    g = math.gcd(l, 2 * k)
    u, n = l // g, 2 * k // g
    return (u, n // 2) if n % 2 == 0 else (2 * u, n)


def point_orbit(l: int, k: int) -> int:
    """n = 2k/gcd(l, 2k), the denominator of l pi/2k = u pi/n in lowest
    terms; equal for (l, k) and its reduced_point.  It names the point's
    Galois orbit: the reduced points with one n share one field, and each
    is a conjugate of another up to a shift by pi (identities._checked_once
    has the proof)."""
    return 2 * k // math.gcd(l, 2 * k)


def _eta_weights(exponents) -> dict:
    """{alpha: e_alpha} from (alpha, e_alpha) pairs, the exponents of a
    repeated alpha added up; alpha must be a positive integer."""
    weights: dict = {}
    for alpha, e in exponents:
        if alpha < 1:
            raise ValueError("alpha must be a positive integer")
        weights[alpha] = weights.get(alpha, 0) + e
    return weights


def eta_quotient(exponents, order) -> QExpansion:
    """prod_alpha eta(alpha tau)^{e_alpha}, truncated below `order`.

    `exponents` holds (alpha, e_alpha) pairs as for eta_quotient_log_ddq,
    with integer exponents.  From eta(alpha tau)
    = q^{alpha/24} prod_{n>=1} (1 - q^{alpha n}), the quotient is
    q^{sum e_alpha alpha/24} times the integer power series
    prod_alpha prod_{n>=1} (1 - q^{alpha n})^{e_alpha}, which is formed
    in place below the room, one pass per binomial s = alpha n
    (|e_alpha| passes each): a factor 1 - q^s sets c[i] -= c[i-s] from the
    old c, a divisor 1/(1 - q^s) = sum_j q^{js} sets c[i] += c[i-s] for
    ascending i, from the new c.  No series is multiplied or divided, and
    the sigma sieve of eta_quotient_log_ddq is not used, so the two stay
    independent routes.  Exponents that cancel give the series 1.
    """
    weights = _eta_weights(exponents)
    if any(int(e) != e for e in weights.values()):
        raise ValueError("eta quotient exponents must be integers")
    base = Fraction(sum(int(e) * a for a, e in weights.items()), 24)
    room = math.ceil(Fraction(order) - base)
    if room <= 0:
        return QExpansion.zero(order)
    c = [1] + [0] * (room - 1)
    for alpha, e in weights.items():
        for s in range(alpha, room, alpha):
            for _ in range(int(e)):
                c[s:] = map(operator.sub, c[s:], c)
            for _ in range(-int(e)):
                for j in range(s, room, s):
                    c[j:j + s] = map(operator.add, c[j:j + s], c[j - s:j])
    return QExpansion._from_vectors(_ctx(1), base, [[x] if x else None for x in c],
                                    1, order)


def eta_product(alpha: int, order) -> QExpansion:
    """q^{alpha/24} prod_{n>=1} (1 - q^{alpha n}), truncated below `order`:
    the one-term case of eta_quotient."""
    return eta_quotient(((alpha, 1),), order)


def eta_quotient_log_ddq(exponents, order) -> QExpansion:
    """q d/dq log prod_alpha eta(alpha tau)^{e_alpha}, truncated below `order`.

    `exponents` holds (alpha, e_alpha) pairs: alpha a positive integer,
    e_alpha an int or Fraction; the exponents of a repeated alpha add up.
    From eta(alpha tau) = q^{alpha/24} prod_{n>=1} (1 - q^{alpha n}) and
    q d/dq log(1 - q^{alpha n}) = -alpha sum_{j>=1} n q^{alpha n j},

        q d/dq log eta(alpha tau) = alpha/24 - alpha sum_{N>=1} sigma(N) q^{alpha N},

    so the quotient's series is the one divisor sum

        sum_alpha e_alpha alpha/24
            - sum_{M>=1} (sum_{alpha | M} e_alpha alpha sigma(M/alpha)) q^M.

    With L the lcm of the exponents' denominators, each coefficient is an
    integer over 24 L: sum (L e_alpha) alpha at q^0, and
    -24 sum (L e_alpha) alpha sigma(M/alpha) at q^M.  One sieve forms sigma
    below `order`, and every coefficient is written into one integer list
    over 24 L, which the series constructor puts in lowest terms.
    Exponents that cancel give the zero series.  This sieve shares
    nothing with _bracket_data's, so the two sides of the modular
    equation stay independent routes.
    """
    weights = _eta_weights(exponents)
    lcm = math.lcm(*(e.denominator for e in weights.values()))
    ws = {a: (e * lcm).numerator * a for a, e in weights.items() if e}
    # below order 1 only q^0 is formed, and _from_vectors truncates it away
    room = max(math.ceil(Fraction(order)), 1)
    coeffs = [sum(ws.values())] + [0] * (room - 1)
    sigma = [0] * room
    for d in range(1, room):
        sigma[d::d] = [s + d for s in sigma[d::d]]
    for a, w in ws.items():
        coeffs[a::a] = [c - 24 * w * s for c, s in zip(coeffs[a::a], sigma[1:])]
    vecs = [[c] if c else None for c in coeffs]
    return QExpansion._from_vectors(_ctx(1), 0, vecs, 24 * lcm, order)


def eta_log_ddq(alpha: int, order) -> QExpansion:
    """q d/dq log eta(alpha tau) = alpha/24 - alpha sum sigma(N) q^{alpha N},
    the one-term case of eta_quotient_log_ddq."""
    return eta_quotient_log_ddq(((alpha, 1),), order)


def _theta_terms(pt: ThetaPoint, room: int):
    """The terms of theta2(z0, q^s) below q^{s/8 + room}, in order.

    Yields (off, t, phase) for each n >= 0: off = s n(n+1)/2, t = 2n+1
    and phase = num t w mod m, with m = pt.conductor and w = m/(2 den),
    so that zeta_m^phase = e^{i t z0}.  The series is
    sum zeta_m^{+-phase} q^{s/8 + off} over the pair +-t; theta2_jet and
    theta2_product read it from here, so it has one definition.
    """
    s, m = pt.q_power, pt.conductor
    w = m // (2 * pt.den)
    n = 0
    while (off := s * n * (n + 1) // 2) < room:
        t = 2 * n + 1
        yield off, t, (pt.num * t * w) % m
        n += 1


def theta2_jet(pt: ThetaPoint, degree: int, order) -> ZJet:
    """Degree-`degree` z-jet of theta2(z0 + z, q^s) about z0 = num*pi/den.

    Slot j holds sum_n (i(2n+1))^j / j! * q^{s(2n+1)^2/8} zeta^{num(2n+1)},
    summed symmetrically over the pair n <-> -1-n.

    The pair form.  At each offset the two terms tt = +-t have phases
    +-p (_theta_terms), and with i = zeta^{m/4}, i^j = (-1)^{j/2} for
    even j and i (-1)^{(j-1)/2} for odd j, so j! times slot j there is

        (it)^j zeta^p + (-it)^j zeta^{-p} = i^j t^j (zeta^p + (-1)^j zeta^{-p})
            = (-1)^{floor(j/2)} t^j c    (j even),
            = (-1)^{floor(j/2)} t^j s    (j odd),

    with c = zeta^p + zeta^{-p} and s = i (zeta^p - zeta^{-p})
    = zeta^{p+m/4} - zeta^{-p+m/4}: two vectors per offset serve every
    slot.  Both are cosines c_e = zeta^e + zeta^{-e}: c = c_p, and as
    zeta^{m/2} = -1, zeta^{-p-m/4} = -zeta^{-p+m/4}, so s = c_{p+m/4}.
    Every slot is then real, and the jet is built in the real subfield
    K+ over theta = zeta + zeta^{-1} (_Ctx.cosines), with half the
    coordinates of Q(zeta_m); a slot whose values are all rational, as
    slot 0 at pi/3, is held over Q, as every series is.
    """
    if degree < 0:
        raise ValueError("jet degree must be >= 0")
    m = pt.conductor
    ctx = _ctx(m, True)
    i_exp = m // 4
    base = Fraction(pt.q_power, 8)
    order = Fraction(order)
    room = math.ceil(order - base)
    if room <= 0:
        zero = QExpansion.zero(order)
        return ZJet([zero] * (degree + 1))
    slots: list[list] = [[None] * room for _ in range(degree + 1)]
    for off, t, p in _theta_terms(pt, room):
        pair = ctx.cosines([(p, 1)]), ctx.cosines([(p + i_exp, 1)])
        for j in range(degree + 1):
            vec = pair[j % 2]
            if any(vec):
                c = -t**j if j & 2 else t**j
                slots[j][off] = [c * x for x in vec]
    return ZJet([QExpansion._from_vectors(ctx, base, v, math.factorial(j), order)
                 for j, v in enumerate(slots)])


def root_product(m: int, factors, room: int) -> list:
    """The coefficients below q^room of prod_j F_j over Q(zeta_m), m even,
    where each factor F_j = sum_{(o, s, e) in F_j} s zeta_m^e q^o is a
    list of signed monomials: offset o >= 0, sign s = +-1, exponent e.
    Returns one canonical vector mod Phi_m per power of q (None for 0).

    The product is formed in R = Z[x]/(x^h + 1), h = m/2, and mapped to
    Q(zeta_m) by x -> zeta_m once at the end.  That map is a ring
    homomorphism, since zeta_m^h = -1 makes Phi_m divide x^h + 1.  In R,
    zeta_m^e is x^(e mod h), negated when e mod m >= h, so each
    coefficient is packed at one lane width b as h lanes, and a product
    by s zeta_m^e is a shift by b (e mod h) bits and a sign.  Each factor
    adds its shifted monomials into a fresh series (up to 2h - 1 lanes
    per coefficient), and every coefficient is then folded once by
    x^(h + i) = -x^i (split_low: the low h lanes less the high ones);
    a factor whose shifts are all 0 leaves h lanes and needs no fold.
    At the end each coefficient is unpacked once and reduced mod Phi_m
    once (_Ctx.reduce).

    The lane width.  Write |c| for the sum of the absolute values of the
    lanes of c, and N_J for the integer series prod_{j <= J} T_j, where
    T_j = sum_{(o, s, e) in F_j} q^o counts the monomials of F_j at each
    offset below q^room.  Then every coefficient P_J[i] of the first J
    factors' product has |P_J[i]| <= N_J[i].  From N_0 = 1 = P_0, by
    induction: a shift by e lanes and a sign keep |.|, and P_{J+1}[i] is
    the sum of s x^e P_J[i - o] over the monomials of F_{J+1} with o <= i,
    so every partial sum of it, before the fold or after it (which only
    adds lanes together), has |.| <= sum_o N_J[i - o] = N_{J+1}[i].  A
    lane is at most the |.| of its coefficient, so every lane formed
    while the product runs is at most the largest entry of N_0 .. N_J,
    which is at most prod_j L_j, L_j the number of monomials of F_j below
    q^room.  b comes from lane_width of that largest entry.  The bound is
    tight: when every monomial is +zeta^0 at offset 0, lane 0 of q^0
    reaches prod_j L_j.
    """
    if m % 2:
        raise ValueError("the conductor must be even")
    h = m // 2
    factors = [[(o, s, e % m) for o, s, e in f if o < room] for f in factors]
    if room <= 0 or not all(factors):
        return [None] * max(room, 0)
    count, most = [1] + [0] * (room - 1), 1  # N_J, the largest entry so far
    for f in factors:
        new = [0] * room
        for o, _, _ in f:
            new[o:] = [x + y for x, y in zip(new[o:], count)]
        count = new
        most = max(most, *count)
    b = lane_width(most)
    acc = [1] + [0] * (room - 1)
    for f in factors:
        new = [0] * room
        for o, s, e in f:
            sh = b * (e % h)
            if (s > 0) == (e < h):
                new[o:] = [x + (y << sh) for x, y in zip(new[o:], acc)]
            else:
                new[o:] = [x - (y << sh) for x, y in zip(new[o:], acc)]
        if any(e % h for _, _, e in f):
            for i, x in enumerate(new):
                if x:
                    low, high = split_low(x, b, h)
                    new[i] = low - high
        acc = new
    ctx = _ctx(m)
    vecs = [ctx.reduce(unpack_signed(x, b, h)) if x else None for x in acc]
    return [v if v is not None and any(v) else None for v in vecs]


def theta2_product(points, order) -> QExpansion:
    """prod_j theta2(z_j, q^{s_j}) over the points, all of one conductor.

    Each factor is its _theta_terms, and root_product multiplies them.
    Unless a factor is zero, this equals the chain of products of the
    theta2_jet(pt, 0, order).slot(0), base sum_j s_j/8 and precision
    order + sum_j s_j/8 - max_j s_j/8 included.
    """
    m = points[0].conductor
    if any(pt.conductor != m for pt in points):
        raise ValueError("the points must share one conductor")
    bases = [Fraction(pt.q_power, 8) for pt in points]
    base = sum(bases)
    precision = Fraction(order) + base - max(bases)
    room = math.ceil(precision - base)
    factors = [[(o, 1, e) for o, _, p in _theta_terms(pt, room) for e in (p, -p)]
               for pt in points]
    return QExpansion._from_vectors(_ctx(m), base, root_product(m, factors, room),
                                    1, precision)


def theta2_triple_product(pt: ThetaPoint, order) -> QExpansion:
    """Product form of the theta series at z0:

        q^{s/8} e^{-i z0} prod (1-q^{sn}) (1+e^{-2i z0} q^{sn}) (1+e^{2i z0} q^{s(n-1)})

    with every phase an exact root of unity, multiplied by root_product.
    Equality with the summed jet is the triple-product identity,
    exercised as an invariant.
    """
    s = pt.q_power
    m = pt.conductor
    w = m // (2 * pt.den)
    base = Fraction(s, 8)
    order = Fraction(order)
    room = math.ceil(order - base)
    if room <= 0:
        return QExpansion.zero(order)
    a = pt.num * w
    # e^{-i z0} with the n = 1 factor of the third family
    factors = [[(0, 1, -a), (0, 1, a)]]
    for n in range(1, (room - 1) // s + 1):  # every n >= 1 with s n < room
        o = s * n  # the third family's factor n + 1 sits at q^{s n}
        factors += [[(0, 1, 0), (o, -1, 0)], [(0, 1, 0), (o, 1, -2 * a)],
                    [(0, 1, 0), (o, 1, 2 * a)]]
    return QExpansion._from_vectors(_ctx(m), base, root_product(m, factors, room),
                                    1, order)


def _sine_class(k: int, p: int, s: int) -> tuple[int, int]:
    """(r, c) with sin(s l pi/k) = c sin(r l pi/k) for every l = p (mod 2),
    r the representative of the class of s mod 2k; (0, 0) where that sine
    is 0 for every such l (_bracket_data gives the proof).  With
    eps = (-1)^p: s >= k is s - k with a sign eps; s = 0 is the zero
    class; s < k/2 is its own representative; s > k/2 is k - s with a
    further sign -eps; s = k/2 is the class of weight 2 for eps = -1 and
    the zero class for eps = 1.
    """
    eps = -1 if p else 1
    s, c = s % (2 * k), 1
    if s >= k:
        s, c = s - k, eps
    if 2 * s > k:
        s, c = k - s, -eps * c
    if s == 0 or (2 * s == k and eps == 1):
        return 0, 0
    return s, c


def _tan_sine_sum(k: int, p: int, r: int) -> int:
    """2 tau(r) = (-1)^(r+1) (k - 2 r [k = p (mod 2)]) for 0 < r < k, where
    tau(r) = sum tan(l pi/2k) sin(r l pi/k) over 0 < l < k, l = p (mod 2)
    (_bracket_data gives the proof)."""
    return (-1) ** (r + 1) * (k - 2 * r * ((k - p) % 2 == 0))


def _bracket_data(k: int, p: int, room: int):
    """The brackets F_l = d/dz log theta2 at x_l = l pi/2k, l = p (mod 2),
    on one sine basis: returns (reps, weights, ys) with

        F_l = sum_j (2/(k w_j)) Y_j sin(r_j l pi/k)

    for the representatives r_j = reps[j] = j + 1, their weights
    w_j = weights[j] and the integer series Y_j = ys[j], each a list of
    its room coefficients.  Write eps = (-1)^p and
    I = {0 < l < k : l = p (mod 2)}.
    Proved here for l in I; log_deriv_lambert extends it to every
    0 <= l < 2k, l != k, of this parity.  The bracket has the Lambert form
    (Whittaker and Watson, A Course of Modern Analysis, ch. 21)

        F_l = -tan x_l + 4 sum_{d>=1} (-1)^d sin(d l pi/k) q^d/(1 - q^d).

    Classes.  For l = p (mod 2), sin((s + k) l pi/k) = (-1)^l sin(s l pi/k)
    = eps sin(s l pi/k), and the sine is odd, so up to a sign c(s) it
    depends only on the class of s mod 2k under s -> s + k and s -> -s
    (_sine_class states the rule).  The class of r, 1 <= r < k/2, is
    {r, r + k, -r, k - r} with signs 1, eps, -1, -eps.  For even k, 3k/2
    is both k/2 + k and -k/2, so the class {k/2, 3k/2} has signs 1 and
    eps = -1 if eps = -1, and its sines are 0 if eps = 1, like those of
    {0, k} (sin 0 = sin l pi = 0).  The representatives are then the r
    with 1 <= r < k/2, and k/2 for even k and eps = -1: the r below
    floor((k + 1 + p)/2).  Grouping the d by
    class, F_l = -tan x_l + 4 sum_j sin(r_j l pi/k) V_j over the
    representatives r_j, with the integer series
    V_j = sum_d c(d) (-1)^d q^d/(1 - q^d) over the d in the class of r_j.

    Orthogonality.  The sum of e^{i j l pi/k} over all l = p (mod 2) in
    0 <= l < 2k is e^{i j p pi/k} sum_{t<k} e^{2 pi i j t/k}
    = k [k | j] eps^{j/k}.  Its cosines are even under l -> 2k - l, which
    keeps the parity, so it is 2 P(j) plus the terms of l = 0 (if p = 0)
    and l = k (if k = p mod 2), where P(j) = sum_{l in I} cos(j l pi/k):

        2 P(j) = k [k | j] eps^{j/k} - [p = 0] - [k = p (mod 2)] (-1)^j.

    With sin A sin B = (cos(A - B) - cos(A + B))/2 the last two terms
    cancel, since (-1)^{a-b} = (-1)^{a+b}, leaving

        sum_{l in I} sin(a l pi/k) sin(b l pi/k) = (k/4)(chi(a-b) - chi(a+b)),

    chi(x) = 1 for x = 0, eps for x = k and 0 otherwise (mod 2k).  For
    two representatives a - b = 0 (mod k) only if a = b, and a + b only
    if a = b = k/2, so the sines at the representatives are orthogonal
    over I, with squared norm (k/4) w_j: w_j = 1 for r_j < k/2 and
    w_j = 1 - eps = 2 for r_j = k/2.

    Completeness.  There are as many representatives as points in I: for
    odd k, (k - 1)/2 of each, for either parity; for even k and p = 0,
    k/2 - 1 of each; for even k and p = 1, the k/2 - 1 representatives
    below k/2 and the class of k/2, against the k/2 odd l < k.  Being
    orthogonal and nonzero, the sines at the representatives are then a
    basis of the functions on I.

    The tangent.  With tau(r) = sum_{l in I} tan x_l sin(2 r x_l), the
    coefficient of tan x_l on the basis sine at r_j is tau(r_j) over its
    squared norm, so tan x_l = sum_j (4 tau(r_j)/(k w_j)) sin(r_j l pi/k)
    and F_l = sum_j (4 V_j - 4 tau(r_j)/(k w_j)) sin(r_j l pi/k), which
    is the form above with Y_j = 2k w_j V_j - 2 tau(r_j).

    The tangent coordinates in closed form.  For 0 < r < k,
    2 tau(r) = (-1)^(r+1) (k - 2 r c) with c = [k = p (mod 2)]
    (_tan_sine_sum); every representative is below k, so nothing reads
    r >= k.  First the recurrence: tan x (sin 2rx + sin(2r - 2)x)
    = 2 tan x sin((2r - 1)x) cos x = 2 sin x sin((2r - 1)x)
    = cos((2r - 2)x) - cos 2rx, so summed over I,
    2 tau(r) = 2 P(r - 1) - 2 P(r) - 2 tau(r - 1), with tau(0) = 0.  By
    the orthogonality step, 2 P(j) = -[p = 0] - c (-1)^j for 0 < j < k
    and 2 P(0) = k - [p = 0] - c, so for 0 < r < k
    2 P(r - 1) - 2 P(r) = k [r = 1] + 2 c (-1)^r.  Then by induction on r:
    2 tau(1) = k - 2c, and if the form holds at r - 1,
    2 tau(r) = 2 c (-1)^r + (-1)^r (k - 2 (r - 1) c)
    = (-1)^(r+1) (k - 2 r c).  Check: k = 2, delta = 1 has p = 1, c = 0
    and one representative r = 1 = k/2 of weight 2, with 2 tau(1) = 2, so
    the constant term T0 = 2^2/(2 * 2) = 1 = k(k - 1)/2 (half_sum).

    The sieve.  Each Y_j starts at -2 tau(r_j) in q^0, and each
    0 < d < room adds 2k w_j c(d) (-1)^d to the Y_j of its class at every
    multiple of d; at room = 1 no class is asked for.
    """
    reps = range(1, (k + 1 + p) // 2)
    weights = [2 if 2 * r == k else 1 for r in reps]
    ys = [[-_tan_sine_sum(k, p, r)] + [0] * (room - 1) for r in reps]
    for d in range(1, room):
        r, c = _sine_class(k, p, d)
        if c:
            y = ys[r - 1]
            c *= 2 * k * weights[r - 1] * (-1 if d % 2 else 1)
            for mult in range(d, room, d):
                y[mult] += c
    return reps, weights, ys


def _cosine_class(e: int, k: int) -> tuple[int, int]:
    """(r, s) with c_e = s c_r over Q(zeta_4k), 0 <= r < k and s = +-1,
    or (0, 0) where c_e = 0.  c_e = zeta^e + zeta^-e depends on e mod 4k
    and is even in e; zeta^{2k} = -1 gives c_{e+2k} = -c_e, so
    c_e = c_{-e} = -c_{2k-e} for k < e < 2k; and c_k = i + i^-1 = 0."""
    e, s = e % (4 * k), 1
    if e >= 2 * k:
        e, s = e - 2 * k, -1
    if e > k:
        e, s = 2 * k - e, -s
    return (0, 0) if e == k else (e, s)


def log_deriv_lambert(l: int, k: int, order, degree=None):
    """g = d/dz log theta2 at x = l pi/2k in Lambert form, over the real
    subfield of Q(zeta_4k): the series S = g_0 (degree None), or the pair
    (g, R) of jets to z^degree, R = -8 L - d/dz g with L = q d/dq log theta2.
    No series or jet is divided.

    The forms.  Jacobi's triple product (Whittaker and Watson, A Course of
    Modern Analysis, ch. 21), in this code's nome, is
    theta2(z) = 2 q^{1/8} cos z prod_{n>=1} (1 - q^n)(1 + 2 cos(2z) q^n + q^{2n}),
    and log(1 + 2 cos(2z) q^n + q^{2n}) = sum_d (-1)^{d+1} (2/d) cos(2dz) q^{nd}.
    Summed over n and differentiated,

        g = -tan z + 4 sum_{d>=1} (-1)^d sin(2dz) q^d/(1 - q^d),
        L = 1/8 - sum_M sigma(M) q^M - 2 sum_M q^M sum_{d|M} (-1)^d (M/d) cos(2dz).

    Slot t is (1/t!) d^t/dz^t at x.  With zeta = zeta_4k, c_e = zeta^e +
    zeta^-e and a = 2dl, 2 sin(2dx + t pi/2) = c_{k(1-t)-a} and
    2 cos(2dx + t pi/2) = c_{a+tk}, so for M >= 1

        g_t[M] = sum_{d|M} 2 (-1)^d (2d)^t/t! c_{k(1-t)-a},
        R_t[M] = [t=0] 8 sigma(M) + sum_{d|M} (-1)^d (2d)^t/t! (8M/d - 4d) c_{a+tk},

    as -8 L_t and -(t+1) g_{t+1} share the cosine c_{a+tk}, and
    8 sigma(M) = sum_{d|M} 4d c_0.  With P_0 = T and P_{j+1} = P_j' (1 + T^2),
    d^j/dz^j tan z = P_j(tan z), so g_t[0] = -P_t(tan x)/t! and
    R_t[0] = -[t=0] + P_{t+1}(tan x)/t!.

    The build.  Slot t of g is held over t! (2k)^(t+1) and slot t of R over
    t! (2k)^(t+2).  2k tan x is the theta-vector
    -sum_j (2/w_j) Y_j[0] c_{k-2 r_j l}, from _bracket_data's tangent
    coordinates in closed form (at room 1, with no sieve): there
    -tan x = sum_j (2/(k w_j)) Y_j[0] sin(r_j l pi/k), and
    2 sin(r l pi/k) = c_{k-2rl}.  Each slot is one integer sieve grouped by
    cosine class (_cosine_class): every 0 < d < room adds its weight to
    its class's series at every multiple of d, and each class then takes
    one cosine map _Ctx.cosines and one K.scaled_add per coordinate.

    _bracket_data proves the tangent's expansion for 0 < l < k.  It also
    holds for k < l < 2k: l -> 2k - l keeps the parity of l, so the
    coordinates are the same at both points, and both sides are odd
    under it, since tan(pi - x) = -tan x and sin(r (2k - l) pi/k) =
    -sin(r l pi/k).  At l = 0 both sides are 0.  The jet ratio a1/a0 of
    theta2_jet is the independent route to S (the lemd verifier).
    """
    if k < 1 or not 0 <= l < 2 * k or l == k:
        raise ValueError("need 0 <= l < 2k with l != k")
    J = 0 if degree is None else degree
    # below order 1 only q^0 is formed, and _from_vectors truncates it away
    room = max(math.ceil(Fraction(order)), 1)
    ctx, n = _ctx(4 * k, True), 2 * k
    reps, weights, ys = _bracket_data(k, l % 2, 1)
    tan = ctx.cosines([(k - 2 * r * l, -(2 // w) * y[0])
                       for r, w, y in zip(reps, weights, ys)])
    # tan x to the power deg P_j = j + 1, for P_0 (S) or P_0 .. P_{J+1} (g, R)
    powers, polys = [[1] + [0] * (ctx.D - 1)], [[0, 1]]
    for _ in range(J + 1 + (degree is not None)):
        powers.append(ctx.mul_vec(powers[-1], tan))
        dp = [i * c for i, c in enumerate(polys[-1])][1:]
        polys.append(dp + [0, 0])
        for i, c in enumerate(dp):
            polys[-1][i + 2] += c

    def slot(t: int, riccati: int) -> QExpansion:
        e = t + 1 + riccati
        den = math.factorial(t) * n ** e
        q0 = [0] * ctx.D
        for i, c in enumerate(polys[t + riccati]):
            K.scaled_add(q0, powers[i], c * n ** (e - i))
        if not riccati:
            q0 = [-x for x in q0]
        elif t == 0:
            q0[0] -= den
        classes: dict = {}
        for d in range(1, room):
            a = 2 * d * l
            r, s = _cosine_class(a + t * k if riccati else k * (1 - t) - a, k)
            if s:
                y = classes.setdefault(r, [0] * room)
                w = s * (-1) ** d * (2 * d) ** t
                if riccati:  # (8 M/d - 4d) w at M = j d
                    for j, mult in enumerate(range(d, room, d), 1):
                        y[mult] += (8 * j - 4 * d) * w
                else:
                    for mult in range(d, room, d):
                        y[mult] += 2 * w
        if riccati and t == 0:  # 8 sigma(M) = sum_{d|M} 4d c_0
            y = classes.setdefault(0, [0] * room)
            for d in range(1, room):
                for mult in range(d, room, d):
                    y[mult] += 4 * d
        cols = [[0] * room for _ in range(ctx.D)]
        for r, y in classes.items():
            for col, x in zip(cols, ctx.cosines([(r, n ** e)])):
                if x:
                    K.scaled_add(col, y, x)
        vecs = [list(v) if any(v) else None for v in zip(*cols)]
        vecs[0] = q0 if any(q0) else None
        return QExpansion._from_vectors(ctx, 0, vecs, den, order)

    if degree is None:
        return slot(0, 0)
    return (ZJet([slot(t, 0) for t in range(J + 1)]),
            ZJet([slot(t, 1) for t in range(J + 1)]))


def halfprod_constant(k: int, delta: int) -> int:
    """The sign C = +-1 closing the half product of 2k theta factors:

        prod_{0<=l<2k, l-k=delta (2)} theta2(z + l pi/2k, q)
            = C * eta^k/eta_k * theta2(kz + (delta-1) pi/2, q^k)

    C = e^{(i pi/2) E}, E = delta - k - [k != delta mod 2].  The sign of
    the indicator differs from the usual printed form of this constant;
    the value here is the one the product identity actually satisfies, as
    both the series verifier and a numerical check confirm (the printed
    variant fails whenever k and delta have opposite parity).

    C is rational: E is even, since delta - k is even when the indicator
    is 0 and odd when it is 1, so C = i^E = (-1)^{E/2}.  Both sides of
    lem2 are then real at real z, as the theta2 factors are.  It is
    returned as the int +-1.
    """
    if k < 1 or delta not in (0, 1):
        raise ValueError("need k >= 1 and delta in {0, 1}")
    ind = 1 if (k - delta) % 2 else 0
    return -1 if (delta - k - ind) % 4 else 1
