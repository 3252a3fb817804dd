"""Exact arithmetic in Q, in the cyclotomic fields Q(zeta_m) and in their
real subfields K+ = Q(zeta_m)^+.

An element of Q(zeta_m) is stored in the power basis
{zeta^j : 0 <= j < phi(m)} reduced modulo the m-th cyclotomic polynomial,
as an integer coordinate vector over one common denominator.  That
representation is canonical, so equality, realness and rationality tests
are plain coordinate comparisons, which is what zero-tolerance series
verification needs.  Q is the case m = 1, with one coordinate.

Every integer vector, lane e the weight of zeta^e, reaches that form
one way, _Ctx.reduce: a vector of D = phi(m) lanes is canonical as it
is, and any other is divided by Phi_m (_kernels.cyclo_rem), one step
per lane at or above D.  A sum of roots of unity sum c zeta^e is the
vector with weight c in lane e mod m (the exponent map _Ctx.powers), a
Galois image the one with exponents e j (_Ctx.galois_vec), and a root
of unity, a sine, cosine or tangent one or a few terms.  An inverse is
one routine for every field, _Ctx.inverse: the product of the nontrivial
conjugates over the norm, as an integer vector and a positive int.  A
packed product of two vectors has 2D-1 lanes; _Ctx.reduce_packed
unpacks them all and reduces them with _Ctx.reduce, and
_Ctx.product_lane proves the lane bound of that unpacking.

The real subfield.  For m >= 3, K+ = Q(theta), theta = zeta + zeta^-1
= 2 cos(2 pi/m), has degree D' = phi(m)/2 (Washington, ch. 2 and 8),
and the minimal polynomial psi_m of theta is monic with integer
coefficients, from x^{D'} psi_m(x + 1/x) = Phi_m(x) (real_polynomial).
An element of K+ is stored like one of Q(zeta_m), in the power basis
{theta^j : j < D'} reduced mod psi_m, so every real series takes half
the lanes.  The same _Ctx class serves it (_ctx(m, True)), with psi_m in
place of Phi_m: reduce, reduce_packed, product_lane and mul_vec need
only the monic modulus and its degree, so they are one code path for
both fields.  Its exponent map is _Ctx.cosines, sum c (zeta^e + zeta^-e)
from a table of the c_e = zeta^e + zeta^-e, and the cosine map of a
real element's zeta coordinates, halved, is its theta-vector; so is a
Galois image over theta formed (_Ctx.galois_vec), and inverse takes the
norm of K+ over theta, with half the conjugates.

One map between fields.  _Ctx.embed(vec, M) writes an element of any
field, Q(zeta_m) or K+, in the zeta basis of Q(zeta_M), m | M, as one
exponent map _ctx(M).powers: zeta_m = zeta_M^(M/m), and theta^j is
(zeta_m + zeta_m^-1)^j.  It serves every move from K+ into Q(zeta_m)
and from Q(zeta_m) into Q(zeta_M).

The scalar field is fractions.Fraction, re-exported as Rational.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from . import _kernels as K
from ._pack import lane_width, unpack_signed

Rational = Fraction


class ConductorError(ValueError):
    """Operands live in incompatible cyclotomic fields (caller must embed)."""


class PoleError(ZeroDivisionError):
    """tan evaluated at an odd multiple of pi/2."""


def euler_phi(m: int) -> int:
    if m < 1:
        raise ValueError("conductor must be >= 1")
    result, n, p = m, m, 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if n > 1:
        result -= result // n
    return result


def _mobius(n: int) -> int:
    """The Moebius function mu(n), n >= 1, by trial division."""
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


def _divisors(m: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d != m // d:
                large.append(m // d)
        d += 1
    return small + large[::-1]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m, constant term first, monic of degree phi(m).

    Moebius inversion of x^m - 1 = prod_{d | m} Phi_d gives
    Phi_m = prod_{d | m} (x^d - 1)^mu(m/d).  The product is formed by
    multiplying by each binomial with mu = 1, then dividing exactly by
    each with mu = -1, one pass over the coefficients per binomial.
    """
    if m < 1:
        raise ValueError("conductor must be >= 1")
    poly = [1]
    # mu = 1 first, so every division is exact
    for mu, d in sorted(((_mobius(m // d), d) for d in _divisors(m)),
                        reverse=True):
        if mu == 1:
            # times x^d - 1
            out = [0] * d + poly
            for i, c in enumerate(poly):
                out[i] -= c
            poly = out
        elif mu == -1:
            # over x^d - 1: q x^d - q = poly, so q_i = q_{i-d} - poly_i
            out = [0] * (len(poly) - d)
            for i in range(len(out)):
                out[i] = (out[i - d] if i >= d else 0) - poly[i]
            poly = out
    return tuple(poly)


@lru_cache(maxsize=None)
def real_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of psi_m, the minimal polynomial of
    theta = zeta_m + zeta_m^-1, constant term first, monic of degree
    D' = phi(m)/2; m >= 3.

    Phi_m is palindromic for m >= 2, so with its coefficients a_i,
    x^{-D'} Phi_m(x) = a_{D'} + sum_{j=1}^{D'} a_{D'+j} (x^j + x^-j), and
    x^j + x^-j = C_j(x + 1/x) for the monic integer polynomials C_0 = 2,
    C_1 = y, C_{j+1} = y C_j - C_{j-1}.  Hence
    psi_m(y) = a_{D'} + sum_j a_{D'+j} C_j(y) satisfies
    x^{D'} psi_m(x + 1/x) = Phi_m(x), is monic with integer coefficients
    and vanishes at theta; its degree is [K+ : Q] = D' (Washington,
    Introduction to Cyclotomic Fields, GTM 83, ch. 2), so it is minimal.
    """
    if m < 3:
        raise ValueError("the real subfield needs a conductor >= 3")
    phi = cyclotomic_polynomial(m)
    h = (len(phi) - 1) // 2
    psi = [phi[h]] + [0] * h
    prev, cur = [2], [0, 1]
    for j in range(1, h + 1):
        for i, c in enumerate(cur):
            psi[i] += phi[h + j] * c
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return tuple(psi)


class _Ctx:
    """Per-field machinery for one monic integer modulus, its nonzero low
    terms held once for cyclo_rem: Phi_m over zeta for Q(zeta_m) (_ctx),
    or psi_m over theta for its real subfield K+ (_ctx(m, True)), with the
    exponent map and, for K+, the table of cosines."""

    __slots__ = ("m", "real", "D", "phi_terms", "cos")

    def __init__(self, m: int, real: bool = False):
        poly = real_polynomial(m) if real else cyclotomic_polynomial(m)
        self.m = m
        self.real = real
        self.D = D = len(poly) - 1
        self.phi_terms = [(i, p) for i, p in enumerate(poly[:-1]) if p]
        self.cos = None
        if real:
            # c_0 = 2, c_1 = theta, c_{e+1} = theta c_e - c_{e-1}, as
            # (zeta + zeta^-1)(zeta^e + zeta^-e) = c_{e+1} + c_{e-1}
            cos = [self.reduce([2]), self.reduce([0, 1])]
            for _ in range(2, m):
                c = self.reduce([0] + cos[-1])
                cos.append([x - y for x, y in zip(c, cos[-2])])
            self.cos = cos

    def powers(self, terms) -> list[int]:
        """Canonical vector of sum c zeta^e over the (e, c) pairs, e any
        int (over zeta only): each weight is written into lane e mod m,
        and reduce divides the m lanes by Phi_m."""
        m = self.m
        v = [0] * m
        for e, c in terms:
            v[e % m] += c
        return self.reduce(v)

    def cosines(self, terms) -> list[int]:
        """Canonical theta-vector of sum c (zeta^e + zeta^-e) over the
        (e, c) pairs, e any int (over theta only): the exponent map of K+,
        read from the table of c_e, e < m.  For a real x = sum a_e zeta^e,
        x = (x + conj x)/2, so the pairs enumerate(a) give 2x."""
        out = [0] * self.D
        cos, m = self.cos, self.m
        for e, c in terms:
            K.scaled_add(out, cos[e % m], c)
        return out

    def reduce(self, vec) -> list[int]:
        """Canonical remainder of an integer vector of any length, lane e
        the weight of zeta^e (theta^e over theta): a vector of D lanes is
        canonical already and is returned as it is, and any other is
        divided by the field's monic modulus, Phi_m or psi_m (cyclo_rem).
        """
        if len(vec) == self.D:
            return vec
        return K.cyclo_rem(vec, self.D, self.phi_terms)

    def reduce_packed(self, x, b: int) -> list[int]:
        """Reduce a packed vector of up to 2D-1 lanes to canonical D lanes:
        the 2D-1 lanes are unpacked, and reduce divides them."""
        return self.reduce(unpack_signed(x, b, 2 * self.D - 1))

    def product_lane(self, terms: int) -> int:
        """Lane width for a sum of `terms` products of vectors with lanes
        of at most 1 in absolute value, reduced or not.

        Each of the 2D-1 lanes of such a sum is at most V = terms*D.  A
        weighted sum sum_t w_t (a_t * b_t) of vectors with lanes of at most
        amax_t and bmax_t is a sum of terms = sum_t w_t amax_t bmax_t such
        products.  reduce_packed unpacks every lane before reduce, which
        works on exact ints, so the packed lanes never hold more than V.
        Nothing here depends on the modulus but its degree D, so the bound
        serves psi_m over theta (D = phi(m)/2) as it does Phi_m.
        """
        return lane_width(terms * self.D)

    def mul_vec(self, u, v) -> list[int]:
        """Product of two canonical integer vectors, reduced (mod Phi_m
        over zeta, mod psi_m over theta)."""
        return self.reduce(K.convolve(u, v))

    def galois_vec(self, vec, j: int) -> list[int]:
        """Canonical vector of sigma_j(vec), the automorphism zeta -> zeta^j
        for gcd(j, m) = 1: over zeta sum_e vec[e] zeta^(e*j), and over
        theta half the cosine map of that image of vec's zeta coordinates
        (embed), as sigma_j(x) is real for a real x."""
        if self.real:
            z = _ctx(self.m).galois_vec(self.embed(vec, self.m), j)
            return [c // 2 for c in self.cosines(enumerate(z))]
        return self.powers((e * j, c) for e, c in enumerate(vec))

    def inverse(self, vec) -> tuple[list[int], int]:
        """(L, n) for a nonzero integer vector vec of this field: L an
        integer vector of the field and n a positive int with vec L = n,
        so 1/vec = L/n.

        A rational vec (no lane past 0) has the one-lane L = [+-1] and
        n = |vec[0]|.  Any other has L = +- prod_{sigma != 1} sigma(vec),
        the product of its nontrivial conjugates (galois_vec), and vec L is
        +- its field norm (Washington, ch. 2): over zeta the phi(m) - 1
        units 1 < j < m, over theta the D' - 1 units 1 < j < m/2, as
        sigma_j = sigma_-j on K+.  A norm that does not reduce to a
        rational raises ArithmeticError.
        """
        if not any(vec):
            raise ZeroDivisionError("inverse of zero")
        if not any(vec[1:]):
            return [-1 if vec[0] < 0 else 1], abs(vec[0])
        m = self.m
        L = None
        for j in range(2, (m + 1) // 2 if self.real else m):
            if math.gcd(j, m) == 1:
                g = self.galois_vec(vec, j)
                L = g if L is None else self.mul_vec(L, g)
        nv = self.mul_vec(vec, L)
        if any(nv[1:]):
            raise ArithmeticError("field norm did not reduce to a rational")
        if nv[0] < 0:
            return [-c for c in L], -nv[0]
        return L, nv[0]

    def embed(self, vec, M: int) -> list[int]:
        """Canonical zeta-vector in Q(zeta_M), m | M, of the element vec
        of this field, one exponent map _ctx(M).powers: with r = M/m,
        zeta_m = zeta_M^r, so over zeta the pairs are (e r, vec[e]), and
        over theta, as theta^j = (zeta_m + zeta_m^-1)^j
        = sum_{i<=j} C(j, i) zeta_m^(j-2i), they are
        ((j - 2i) r, vec[j] C(j, i)).  A zeta-vector with M = m is
        returned as it is."""
        r = M // self.m
        if not self.real:
            if r == 1:
                return vec
            return _ctx(M).powers((e * r, c) for e, c in enumerate(vec))
        return _ctx(M).powers(((j - 2 * i) * r, y * math.comb(j, i))
                              for j, y in enumerate(vec) if y
                              for i in range(j + 1))


@lru_cache(maxsize=None)
def _ctx(m: int, real: bool = False) -> _Ctx:
    """The machinery of Q(zeta_m), over zeta mod Phi_m, or with real of
    its real subfield K+, m >= 3, over theta mod psi_m: one _Ctx per
    field, which a series holds as its field.  Q is _ctx(1)."""
    return _Ctx(m, real)


def _field_of(ctxs) -> _Ctx:
    """The one field of operands in the fields ctxs: Q joins any field,
    and K+ joins Q(zeta_m) of its own conductor in Q(zeta_m).  Other
    conductors raise ConductorError."""
    out = _ctx(1)
    for c in ctxs:
        if c.m == 1:
            continue
        if out.m not in (1, c.m):
            raise ConductorError(f"conductor mismatch: {out.m} vs {c.m}")
        if out.m == 1 or not c.real:
            out = c
    return out


def _lowest_terms(vecs, den):
    """(vecs, den) divided by the gcd of den and every vector entry; None
    stands for a zero vector.  One-lane vectors (a series over Q) take
    their gcd in one call, as their entries rarely bring it to 1 early;
    longer ones stop at the first vector that does."""
    if den == 1:
        return vecs, den
    lanes = next((len(v) for v in vecs if v is not None), 0)
    if lanes == 1:
        g = math.gcd(den, *[v[0] for v in vecs if v is not None])
        if g == 1:
            return vecs, den
        return [None if v is None else [v[0] // g] for v in vecs], den // g
    g = den
    for v in vecs:
        if g == 1:
            break
        if v is not None:
            g = math.gcd(g, *v)
    if g == 1:
        return vecs, den
    return [None if v is None else [x // g for x in v] for v in vecs], den // g


def _normalize(num: list[int], den: int) -> tuple[tuple[int, ...], int]:
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if den < 0:
        num = [-c for c in num]
        den = -den
    # an all-zero vector gets den 1, as gcd(den, 0, ..., 0) = den
    (num,), den = _lowest_terms([num], den)
    return tuple(num), den


def _exact(c) -> Fraction:
    """c as a Fraction; only ints and Fractions are exact rationals here."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"rationals are int or Fraction, not {type(c).__name__}")
    return Fraction(c)


class CyclotomicNumber:
    """An element of Q(zeta_m) in canonical reduced coordinates.

    Binary operations require both operands in the same conductor (use
    embed_conductor to lift); plain rationals coerce into any conductor.
    """

    __slots__ = ("_m", "_num", "_den")

    def __init__(self, m: int, coords):
        ctx = _ctx(m)
        fracs = [_exact(c) for c in coords]
        if len(fracs) != ctx.D:
            raise ValueError(
                f"expected {ctx.D} coordinates for conductor {m}, got {len(fracs)}"
            )
        den = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
        num = [int(f * den) for f in fracs]
        self._m = m
        self._num, self._den = _normalize(num, den)

    @classmethod
    def _raw(cls, m: int, num: list[int], den: int) -> "CyclotomicNumber":
        self = object.__new__(cls)
        self._m = m
        self._num, self._den = _normalize(list(num), den)
        return self

    @classmethod
    def rational(cls, m: int, value) -> "CyclotomicNumber":
        f = _exact(value)
        num = [0] * _ctx(m).D
        num[0] = f.numerator
        return cls._raw(m, num, f.denominator)

    @classmethod
    def zero(cls, m: int) -> "CyclotomicNumber":
        return cls.rational(m, 0)

    @classmethod
    def one(cls, m: int) -> "CyclotomicNumber":
        return cls.rational(m, 1)

    @property
    def conductor(self) -> int:
        return self._m

    @property
    def coords(self) -> tuple[Fraction, ...]:
        d = self._den
        return tuple(Fraction(c, d) for c in self._num)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self._num)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_rational(self) -> bool:
        return all(c == 0 for c in self._num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self._num[0], self._den)

    def conjugate(self) -> "CyclotomicNumber":
        return self.galois(-1)

    def galois(self, j: int) -> "CyclotomicNumber":
        """Field automorphism zeta -> zeta^j (j invertible mod m)."""
        m = self._m
        j %= m
        if math.gcd(j, m) != 1:
            raise ValueError(f"zeta -> zeta^{j} is not an automorphism mod {m}")
        return CyclotomicNumber._raw(m, _ctx(m).galois_vec(self._num, j), self._den)

    def is_real(self) -> bool:
        return self.conjugate() == self

    def _coerce(self, other):
        if isinstance(other, CyclotomicNumber):
            if other._m != self._m:
                raise ConductorError(
                    f"conductor mismatch: {self._m} vs {other._m} "
                    "(embed_conductor first)"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber.rational(self._m, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self._den, o._den
        d = math.lcm(da, db)
        fa, fb = d // da, d // db
        num = [fa * x + fb * y for x, y in zip(self._num, o._num)]
        return CyclotomicNumber._raw(self._m, num, d)

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber._raw(self._m, [-c for c in self._num], self._den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            num = [f.numerator * c for c in self._num]
            return CyclotomicNumber._raw(self._m, num, self._den * f.denominator)
        ctx = _ctx(self._m)
        return CyclotomicNumber._raw(
            self._m, ctx.mul_vec(self._num, o._num), self._den * o._den
        )

    __rmul__ = __mul__

    def invert(self) -> "CyclotomicNumber":
        """Exact inverse 1/a = den L/n over a = num/den, from vec L = n
        (_Ctx.inverse): zero raises ZeroDivisionError, and a norm that
        does not reduce to a rational ArithmeticError."""
        ctx = _ctx(self._m)
        L, n = ctx.inverse(self._num)
        num = [self._den * c for c in L] + [0] * (ctx.D - len(L))
        return CyclotomicNumber._raw(self._m, num, n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.invert()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.invert()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.invert() ** (-n)
        result = CyclotomicNumber.one(self._m)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, CyclotomicNumber):
            if other._m == self._m:
                return self._num == other._num and self._den == other._den
            if self.is_rational() and other.is_rational():
                return self.as_rational() == other.as_rational()
            return False
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.as_rational() == other
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.as_rational())
        return hash((self._m, self._num, self._den))

    def __repr__(self):
        if self.is_rational():
            return f"Cyc({self._m}; {self.as_rational()})"
        parts = []
        for e, c in enumerate(self._num):
            if not c:
                continue
            q = Fraction(c, self._den)
            if e == 0:
                parts.append(str(q))
            elif q == 1:
                parts.append(f"z^{e}")
            elif q == -1:
                parts.append(f"-z^{e}")
            else:
                parts.append(f"{q}*z^{e}")
        body = " + ".join(parts).replace("+ -", "- ")
        return f"Cyc({self._m}; {body})"


def root_of_unity(m: int, j: int) -> CyclotomicNumber:
    """zeta_m^j reduced to the canonical basis of Q(zeta_m)."""
    if m < 1:
        raise ValueError("conductor must be >= 1")
    return CyclotomicNumber._raw(m, _ctx(m).powers([(j, 1)]), 1)


def embed_conductor(a: CyclotomicNumber, M: int) -> CyclotomicNumber:
    """Rewrite a in Q(zeta_M) via zeta_m = zeta_M^{M/m}; requires m | M."""
    m = a.conductor
    if M % m != 0:
        raise ConductorError(f"{m} does not divide {M}")
    return CyclotomicNumber._raw(M, _ctx(m).embed(a._num, M), a._den)


def trig_value(kind: str, p: int, q: int) -> CyclotomicNumber:
    """Exact sin/cos/tan of p*pi/q inside Q(zeta_lcm(2q,4)).

    With zeta^u = e^{i p pi/q}, sin = (zeta^u - zeta^-u) / (2i) and
    cos = (zeta^u + zeta^-u) / 2.  tan = i (1 - w) (1 + w)^{-1} with
    w = zeta^{2u} = zeta_s^(p/g), g = gcd(p, q) and s = q/g, so 1 + w lies
    in Q(zeta_s): _Ctx.inverse inverts it there, over phi(s) - 1
    conjugates, and embed carries the inverse into Q(zeta_M).  As
    1 + w = 1 - zeta^{2u + M/2}, tan has a pole exactly where
    2u + M/2 = 0 (mod M).  Each of sin, cos, and tan's numerator and
    1 + w is one exponent map _Ctx.powers.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    M = math.lcm(2 * q, 4)
    ctx = _ctx(M)
    u = (p * (M // (2 * q))) % M
    i_exp = M // 4
    if kind == "tan":
        if (2 * u + M // 2) % M == 0:
            raise PoleError(f"tan({p} pi/{q}) is a pole")
        # i (1 - w) = zeta^{M/4} - zeta^{M/4 + 2u}
        num = ctx.powers([(i_exp, 1), (i_exp + 2 * u, -1)])
        g = math.gcd(p, q)
        small = _ctx(q // g)
        L, n = small.inverse(small.powers([(0, 1), (p // g, 1)]))
        return CyclotomicNumber._raw(M, ctx.mul_vec(num, small.embed(L, M)), n)
    if kind == "cos":
        return CyclotomicNumber._raw(M, ctx.powers([(u, 1), (-u, 1)]), 2)
    if kind == "sin":
        # (zeta^u - zeta^{-u})/(2i) = (zeta^{-u+M/4} - zeta^{u+M/4})/2
        num = ctx.powers([(i_exp - u, 1), (i_exp + u, -1)])
        return CyclotomicNumber._raw(M, num, 2)
    raise ValueError(f"unknown trig kind {kind!r}")
