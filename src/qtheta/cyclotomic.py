"""Exact arithmetic in the cyclotomic fields Q(zeta_m).

Elements are stored in the power basis {zeta^j : 0 <= j < phi(m)} reduced
modulo the m-th cyclotomic polynomial, as an integer coordinate vector
over one common denominator.  That representation is canonical, so
equality, realness and rationality tests are plain coordinate
comparisons, which is what zero-tolerance series verification needs.

The scalar field is fractions.Fraction, re-exported as Rational.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from . import _kernels as K
from ._pack import lane_width, pack_signed, split_low, unpack_signed

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


def _poly_div_exact(num: list[int], den) -> list[int]:
    """Exact division of integer polynomials (constant term first, den monic)."""
    num = list(num)
    dd = len(den) - 1
    dq = len(num) - 1 - dd
    out = [0] * (dq + 1)
    for e in range(dq, -1, -1):
        c = num[e + dd]
        out[e] = c
        if c:
            for i in range(dd + 1):
                num[e + i] -= c * den[i]
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m, constant term first, monic of degree phi(m).

    Computed by dividing x^m - 1 by Phi_d for every proper divisor d.
    """
    if m < 1:
        raise ValueError("conductor must be >= 1")
    if m == 1:
        return (-1, 1)
    num = [-1] + [0] * (m - 1) + [1]
    for d in _divisors(m)[:-1]:
        num = _poly_div_exact(num, cyclotomic_polynomial(d))
    return tuple(num)


class _Ctx:
    """Per-conductor machinery: reduction table mod Phi_m and fast kernels."""

    __slots__ = ("m", "D", "phi_low", "_rows", "_packed_rows", "_row_abs")

    def __init__(self, m: int):
        poly = cyclotomic_polynomial(m)
        self.m = m
        self.D = len(poly) - 1
        self.phi_low = poly[:-1]
        self._rows: list[tuple[int, ...]] | None = None
        self._packed_rows: dict[int, list] = {}
        self._row_abs: int | None = None

    def rows(self) -> list[tuple[int, ...]]:
        """Canonical vectors of x^e mod Phi_m for 0 <= e < max(m, 2D-1)."""
        if self._rows is None:
            D = self.D
            upto = max(self.m, 2 * D - 1)
            rows: list[tuple[int, ...]] = []
            for e in range(min(D, upto)):
                v = [0] * D
                v[e] = 1
                rows.append(tuple(v))
            if upto > D:
                neg = tuple(-c for c in self.phi_low)
                rows.append(neg)
                for _ in range(D + 1, upto):
                    prev = rows[-1]
                    v = [0] + list(prev[:-1])
                    top = prev[-1]
                    if top:
                        for i in range(D):
                            v[i] += top * neg[i]
                    rows.append(tuple(v))
            self._rows = rows
        return self._rows

    @property
    def row_abs(self) -> int:
        if self._row_abs is None:
            rows = self.rows()
            self._row_abs = max(
                [1] + [max(abs(c) for c in r) for r in rows[self.D:]]
            )
        return self._row_abs

    def monomial(self, e: int) -> tuple[int, ...]:
        return self.rows()[e % self.m]

    def reduce(self, vec) -> list[int]:
        """Canonical remainder of an integer coefficient vector mod Phi_m."""
        return K.cyclo_rem(list(vec), self.phi_low)

    def packed_rows(self, b: int) -> list:
        prs = self._packed_rows.get(b)
        if prs is None:
            rows = self.rows()
            prs = [pack_signed(rows[e], b) for e in range(self.D, 2 * self.D - 1)]
            self._packed_rows[b] = prs
        return prs

    def reduce_packed(self, x, b: int) -> list[int]:
        """Reduce a packed vector of up to 2D-1 lanes to canonical D lanes."""
        D = self.D
        low, high = split_low(x, b, D)
        if high:
            digits = unpack_signed(high, b, D - 1)
            prs = self.packed_rows(b)
            for dg, rp in zip(digits, prs):
                if dg:
                    low += dg * rp
        return unpack_signed(low, b, D)

    def product_lane(self, terms: int, amax: int, bmax: int) -> int:
        """Lane width for reduce_packed of a sum of `terms` vector products.

        With operand lanes bounded by amax and bmax, each of the 2D-1
        lanes of the sum is at most V = terms*D*amax*bmax, and reduction
        adds at most D-1 high lanes times a row entry to a low lane, so
        no lane ever exceeds V*(1 + D*row_abs).
        """
        D = self.D
        return lane_width(terms * D * amax * bmax * (1 + D * self.row_abs))

    def mul_vec(self, u, v) -> list[int]:
        """Product of two canonical integer vectors, reduced mod Phi_m."""
        return K.cyclo_rem(K.convolve(u, v), self.phi_low)

    def galois_vec(self, vec, j: int) -> list[int]:
        """Canonical vector of sum_e vec[e] zeta^(e*j).

        For gcd(j, m) = 1 this is the automorphism zeta -> zeta^j; for
        j = m/n it embeds a vector of Q(zeta_n) into Q(zeta_m).
        """
        rows = self.rows()
        out = [0] * self.D
        for e, c in enumerate(vec):
            if c:
                K.scaled_add(out, list(rows[(e * j) % self.m]), c)
        return out


@lru_cache(maxsize=None)
def _ctx(m: int) -> _Ctx:
    return _Ctx(m)


def _normalize(num: list[int], den: int) -> tuple[tuple[int, ...], int]:
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if den < 0:
        num = [-c for c in num]
        den = -den
    g = den
    for c in num:
        if c:
            g = math.gcd(g, c)
            if g == 1:
                break
    if g > 1:
        num = [c // g for c in num]
        den //= g
    if all(c == 0 for c in num):
        den = 1
    return tuple(num), den


class CyclotomicNumber:
    """An element of Q(zeta_m) in canonical reduced coordinates.

    Binary operations require both operands in the same conductor (use
    embed_conductor to lift); plain rationals coerce into any conductor.
    """

    __slots__ = ("_m", "_num", "_den")

    def __init__(self, m: int, coords):
        ctx = _ctx(m)
        fracs = [Fraction(c) for c in coords]
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
        f = Fraction(value)
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
        """Exact inverse via the product of all nontrivial conjugates.

        a^{-1} = (prod_{j != 1} sigma_j(a)) / N(a); the norm N(a) reduces
        to a rational, which is asserted.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.is_rational():
            return CyclotomicNumber.rational(self._m, 1 / self.as_rational())
        m = self._m
        ctx = _ctx(m)
        pv = None
        for j in range(2, m):
            if math.gcd(j, m) == 1:
                gj = ctx.galois_vec(self._num, j)
                pv = gj if pv is None else ctx.mul_vec(pv, gj)
        nv = ctx.mul_vec(self._num, pv)
        if any(nv[1:]):
            raise ArithmeticError("field norm did not reduce to a rational")
        num = [self._den * c for c in pv]
        return CyclotomicNumber._raw(m, num, nv[0])

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
    return CyclotomicNumber._raw(m, list(_ctx(m).monomial(j % m)), 1)


def embed_conductor(a: CyclotomicNumber, M: int) -> CyclotomicNumber:
    """Rewrite a in Q(zeta_M) via zeta_m = zeta_M^{M/m}; requires m | M."""
    m = a.conductor
    if M % m != 0:
        raise ConductorError(f"{m} does not divide {M}")
    if M == m:
        return a
    return CyclotomicNumber._raw(M, _ctx(M).galois_vec(a._num, M // m), a._den)


def _inv_one_minus(ctx: _Ctx, e: int) -> tuple[list[int], int]:
    """(1 - zeta^e)^{-1} as (redundant coefficient vector, denominator).

    Uses prod_{j=1}^{r-1} (1 - w^j) = r for w = zeta^e of order r, so the
    inverse is the product over j >= 2 divided by r.
    """
    m = ctx.m
    e %= m
    if e == 0:
        raise ZeroDivisionError("1 - zeta^0 is zero")
    r = m // math.gcd(e, m)
    acc = [0] * m
    acc[0] = 1
    for j in range(2, r):
        c = (e * j) % m
        rot = acc[m - c:] + acc[:m - c]
        acc = [x - y for x, y in zip(acc, rot)]
    return acc, r


def _inv_one_plus(ctx: _Ctx, e: int) -> tuple[list[int], int]:
    """(1 + zeta^e)^{-1} as (redundant coefficient vector, denominator)."""
    m = ctx.m
    e %= m
    r = m // math.gcd(e, m)
    if r == 1:
        v = [0] * m
        v[0] = 1
        return v, 2
    if r == 2:
        raise PoleError("1 + zeta^e vanishes (zeta^e = -1)")
    if r % 2:
        # (1+w) * sum_j (-w)^j = 1 + w^r = 2 for odd r
        v = [0] * m
        for j in range(r):
            v[(e * j) % m] += -1 if j % 2 else 1
        return v, 2
    # even r >= 4: (1+w)^{-1} = (1-w) * (1-w^2)^{-1}; e != 0 here
    inner, den = _inv_one_minus(ctx, 2 * e)
    rot = inner[m - e:] + inner[:m - e]
    return [x - y for x, y in zip(inner, rot)], den


def trig_value(kind: str, p: int, q: int) -> CyclotomicNumber:
    """Exact sin/cos/tan of p*pi/q inside Q(zeta_lcm(2q,4)).

    sin = (zeta - zeta^{-1}) / (2i) and cos = (zeta + zeta^{-1}) / 2 with
    zeta = zeta_{2q}^p; tan divides them, using a closed-form inverse of
    the binomial 1 + zeta^{2p} so no generic field inversion is needed.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    M = math.lcm(2 * q, 4)
    ctx = _ctx(M)
    rows = ctx.rows()
    u = (p * (M // (2 * q))) % M
    i_exp = M // 4
    if kind == "cos":
        num = [x + y for x, y in zip(rows[u], rows[(-u) % M])]
        return CyclotomicNumber._raw(M, num, 2)
    if kind == "sin":
        # (zeta^u - zeta^{-u})/(2i) = (zeta^{-u+M/4} - zeta^{u+M/4})/2
        a, b = (-u + i_exp) % M, (u + i_exp) % M
        num = [x - y for x, y in zip(rows[a], rows[b])]
        return CyclotomicNumber._raw(M, num, 2)
    if kind == "tan":
        # cos = zeta^{-u} (1 + zeta^{2u}) / 2, so
        # 1/cos = 2 zeta^{u} (1 + zeta^{2u})^{-1}
        inv_red, den = _inv_one_plus(ctx, 2 * u)
        shifted = [0] * M
        for e, c in enumerate(inv_red):
            if c:
                shifted[(e + u) % M] += c
        inv_cos = CyclotomicNumber._raw(M, ctx.reduce(shifted), den) * 2
        return trig_value("sin", p, q) * inv_cos
    raise ValueError(f"unknown trig kind {kind!r}")
