"""Truncated q-expansions with a rational base exponent.

A QExpansion stores sum_{t < L} c_t q^(base+t) + O(q^precision): integer
exponent steps on top of one fractional base, which covers everything
built here (the q^{1/8} and q^{alpha/24} prefactors factor out exactly).
Precision is an absolute exponent bound and only ever decreases through
arithmetic.  Coefficients are ints, Fractions, or CyclotomicNumbers of a
single conductor per series.

Multiplication is schoolbook convolution in q.  Cyclotomic coefficient
vectors always take one packed path: they are packed into bigints lane by
lane first, so the inner loop is one bignum multiply per coefficient pair
instead of a D^2 vector product.

Division a / b is the product a * b.inverse().  The inverse is computed
once per divisor object by schoolbook division of 1 by b, and cached on
it, so every quotient by the same series (all the slots of a jet quotient,
say) shares one inversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import _kernels as K
from ._pack import lane_width, pack_signed
from .cyclotomic import ConductorError, CyclotomicNumber, _ctx, embed_conductor


class PrecisionError(ValueError):
    """A comparison was requested beyond the certified precision."""


@dataclass(frozen=True)
class Mismatch:
    """First mismatching coefficient of a failed series comparison."""

    exponent: Fraction
    lhs: object
    rhs: object

    def __str__(self):
        return f"q^({self.exponent}): {self.lhs} != {self.rhs}"


def _values_equal(x, y) -> bool:
    if (
        isinstance(x, CyclotomicNumber)
        and isinstance(y, CyclotomicNumber)
        and x.conductor != y.conductor
    ):
        m = math.lcm(x.conductor, y.conductor)
        return embed_conductor(x, m) == embed_conductor(y, m)
    return x == y


class QExpansion:
    __slots__ = ("base", "coeffs", "precision", "_inv")

    def __init__(self, base, coeffs, precision):
        base = Fraction(base)
        precision = Fraction(precision)
        cs = list(coeffs)
        i = 0
        while i < len(cs) and not cs[i]:
            i += 1
        j = len(cs)
        while j > i and not cs[j - 1]:
            j -= 1
        cs = cs[i:j]
        base += i
        if cs:
            room = precision - base
            if room <= 0:
                cs = []
            else:
                keep = math.ceil(room)
                if keep < len(cs):
                    cs = cs[:keep]
                    while cs and not cs[-1]:
                        cs.pop()
        if not cs:
            base = precision  # exponent of the first unknown term
        self.base = base
        self.coeffs = tuple(cs)
        self.precision = precision
        self._inv = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, precision) -> "QExpansion":
        return cls(0, (), precision)

    @classmethod
    def constant(cls, value, precision) -> "QExpansion":
        return cls(0, (value,), precision)

    @classmethod
    def one(cls, precision) -> "QExpansion":
        return cls.constant(1, precision)

    @classmethod
    def monomial(cls, coeff, exponent, precision) -> "QExpansion":
        return cls(exponent, (coeff,), precision)

    # -- inspection ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def field(self) -> int | None:
        """Conductor of the coefficient field, or None for plain rationals."""
        for c in self.coeffs:
            if isinstance(c, CyclotomicNumber):
                return c.conductor
        return None

    def exponents(self):
        return [self.base + t for t in range(len(self.coeffs))]

    def coefficient(self, e):
        e = Fraction(e)
        if e >= self.precision:
            raise PrecisionError(f"exponent {e} is beyond O(q^{self.precision})")
        t = e - self.base
        if t.denominator != 1 or t < 0 or t >= len(self.coeffs):
            return 0
        return self.coeffs[int(t)]

    def truncate(self, precision) -> "QExpansion":
        p = min(Fraction(precision), self.precision)
        return QExpansion(self.base if self.coeffs else p, self.coeffs, p)

    def __repr__(self):
        if self.is_zero:
            return f"QExp(O(q^({self.precision})))"
        terms = []
        for t, c in enumerate(self.coeffs):
            if not c:
                continue
            if len(terms) == 6:
                terms.append("...")
                break
            terms.append(f"({c})*q^({self.base + t})")
        return f"QExp({' + '.join(terms)} + O(q^({self.precision})))"

    def __eq__(self, other):
        if not isinstance(other, QExpansion):
            return NotImplemented
        return (
            self.base == other.base
            and self.precision == other.precision
            and len(self.coeffs) == len(other.coeffs)
            and all(_values_equal(x, y) for x, y in zip(self.coeffs, other.coeffs))
        )

    def __hash__(self):
        # __eq__ compares non-rational coefficients across conductors by
        # embedding, so only rational values may enter the hash.
        return hash((self.base, self.precision, len(self.coeffs), tuple(
            None if isinstance(c, CyclotomicNumber) and not c.is_rational()
            else c for c in self.coeffs)))

    # -- ring operations ----------------------------------------------

    def _scalar(self, value) -> "QExpansion":
        return QExpansion.constant(value, self.precision)

    def __add__(self, other):
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            other = self._scalar(other)
        if not isinstance(other, QExpansion):
            return NotImplemented
        prec = min(self.precision, other.precision)
        if self.is_zero:
            return other.truncate(prec)
        if other.is_zero:
            return self.truncate(prec)
        step = self.base - other.base
        if step.denominator != 1:
            raise ValueError(
                f"incompatible base classes: {self.base} vs {other.base}"
            )
        base = min(self.base, other.base)
        length = max(
            len(self.coeffs) + int(self.base - base),
            len(other.coeffs) + int(other.base - base),
        )
        out = [0] * length
        off = int(self.base - base)
        for t, c in enumerate(self.coeffs):
            out[off + t] = c
        off = int(other.base - base)
        for t, c in enumerate(other.coeffs):
            out[off + t] = out[off + t] + c
        return QExpansion(base, out, prec)

    __radd__ = __add__

    def __neg__(self):
        return QExpansion(self.base, [-c for c in self.coeffs], self.precision)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            other = self._scalar(other)
        if not isinstance(other, QExpansion):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            if not other:
                return QExpansion.zero(self.precision)
            return QExpansion(
                self.base, [c * other for c in self.coeffs], self.precision
            )
        if not isinstance(other, QExpansion):
            return NotImplemented
        return _series_mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        if isinstance(other, CyclotomicNumber):
            return self * other.invert()
        if not isinstance(other, QExpansion):
            return NotImplemented
        return self * other.inverse()

    def inverse(self) -> "QExpansion":
        """1/self to the precision its own terms certify, computed once.

        The result has base -base and precision precision - 2*base, so
        a * b.inverse() has exactly the base and precision of a / b.
        """
        if self._inv is None:
            self._inv = _series_div(QExpansion.one(self.precision - self.base), self)
        return self._inv

    def q_ddq(self) -> "QExpansion":
        """Apply q d/dq: multiply each coefficient by its full exponent."""
        new = [c * (self.base + t) for t, c in enumerate(self.coeffs)]
        return QExpansion(self.base, new, self.precision)

    def scale_q(self, s: int) -> "QExpansion":
        """Substitute q -> q^s (s >= 1)."""
        if not isinstance(s, int) or s < 1:
            raise ValueError("scale factor must be a positive integer")
        if self.is_zero or s == 1:
            return QExpansion(self.base * s, self.coeffs, self.precision * s)
        out = [0] * ((len(self.coeffs) - 1) * s + 1)
        for t, c in enumerate(self.coeffs):
            out[t * s] = c
        return QExpansion(self.base * s, out, self.precision * s)

    def shift(self, e) -> "QExpansion":
        """Multiply by the exact monomial q^e."""
        e = Fraction(e)
        return QExpansion(self.base + e, self.coeffs, self.precision + e)

    def map_coeffs(self, fn) -> "QExpansion":
        return QExpansion(self.base, [fn(c) for c in self.coeffs], self.precision)


# -- multiplication ----------------------------------------------------


def _gather_vectors(ctx, coeffs):
    """Common-denominator integer coordinate matrix of a coefficient list."""
    dens = []
    for c in coeffs:
        if isinstance(c, CyclotomicNumber):
            if c.conductor != ctx.m:
                raise ConductorError(
                    f"conductor mismatch in series product: {c.conductor} vs {ctx.m}"
                )
            dens.append(c._den)
        else:
            dens.append(Fraction(c).denominator)
    den = math.lcm(*dens) if dens else 1
    vecs = []
    amax = 1
    for c, dc in zip(coeffs, dens):
        f = den // dc
        if isinstance(c, CyclotomicNumber):
            v = [f * x for x in c._num]
        else:
            fc = Fraction(c)
            v = [0] * ctx.D
            v[0] = fc.numerator * f
        vecs.append(v)
        for x in v:
            if x > amax:
                amax = x
            elif -x > amax:
                amax = -x
    return vecs, den, amax


def _mul_rational(A, B, n):
    da = math.lcm(*(Fraction(c).denominator for c in A))
    db = math.lcm(*(Fraction(c).denominator for c in B))
    if da.bit_length() + db.bit_length() > 128:
        return K.convolve_trunc([Fraction(c) for c in A], [Fraction(c) for c in B], n)
    ia = [int(c * da) for c in A]
    ib = [int(c * db) for c in B]
    prod = K.convolve_trunc(ia, ib, n)
    dd = da * db
    if dd == 1:
        return prod
    return [Fraction(p, dd) for p in prod]


def _mul_cyclo(m, A, B, n):
    ctx = _ctx(m)
    D = ctx.D
    va, da, amax = _gather_vectors(ctx, A)
    vb, db, bmax = _gather_vectors(ctx, B)
    b = lane_width(min(len(A), len(B)) * D * amax * bmax * (1 + D * ctx.row_abs))
    pa = [pack_signed(v, b) for v in va]
    pb = [pack_signed(v, b) for v in vb]
    prod = K.convolve_trunc(pa, pb, n)
    dd = da * db
    return [
        CyclotomicNumber._raw(m, ctx.reduce_packed(x, b), dd) if x else 0
        for x in prod
    ]


def _series_mul(a: QExpansion, b: QExpansion) -> QExpansion:
    prec = min(a.precision + b.base, b.precision + a.base)
    if a.is_zero or b.is_zero:
        return QExpansion.zero(prec)
    base = a.base + b.base
    room = prec - base
    if room <= 0:
        return QExpansion.zero(prec)
    n = min(math.ceil(room), len(a.coeffs) + len(b.coeffs) - 1)
    fa, fb = a.field(), b.field()
    if fa is None and fb is None:
        coeffs = _mul_rational(a.coeffs, b.coeffs, n)
    else:
        if fa is not None and fb is not None and fa != fb:
            raise ConductorError(f"conductor mismatch: {fa} vs {fb}")
        coeffs = _mul_cyclo(fa or fb, a.coeffs, b.coeffs, n)
    return QExpansion(base, coeffs, prec)


def _series_div(a: QExpansion, b: QExpansion) -> QExpansion:
    if b.is_zero:
        raise ZeroDivisionError("division by the zero series")
    prec = min(a.precision - b.base, b.precision + a.base - 2 * b.base)
    base = a.base - b.base
    if a.is_zero:
        return QExpansion.zero(prec)
    room = prec - base
    if room <= 0:
        return QExpansion.zero(prec)
    n = math.ceil(room)
    lead = b.coeffs[0]
    if isinstance(lead, CyclotomicNumber):
        linv = lead.invert()
    else:
        linv = Fraction(1) / Fraction(lead)
    rem = list(a.coeffs[:n]) + [0] * max(0, n - len(a.coeffs))
    out = [0] * n
    bc = b.coeffs
    for i in range(n):
        ri = rem[i]
        qi = ri * linv if ri else ri
        out[i] = qi
        if qi:
            jmax = min(len(bc), n - i)
            for j in range(1, jmax):
                if bc[j]:
                    rem[i + j] = rem[i + j] - qi * bc[j]
    return QExpansion(base, out, prec)


# -- named operations ----------------------------------------------------


def lambert(a: int, b: int, order) -> QExpansion:
    """sum_{n>=1} q^{an} / (1 - q^{bn}) to absolute precision `order`.

    The coefficient of q^M counts divisors d | M with d ≡ a (mod b) and
    d >= a, which is how it is computed (exact divisor enumeration).
    """
    if a < 1 or b < 1:
        raise ValueError("lambert parameters must be positive integers")
    n = math.ceil(Fraction(order))
    coeffs = [0] * max(n, 0)
    for mm in range(1, n):
        cnt = 0
        d = 1
        while d * d <= mm:
            if mm % d == 0:
                if d >= a and (d - a) % b == 0:
                    cnt += 1
                e = mm // d
                if e != d and e >= a and (e - a) % b == 0:
                    cnt += 1
            d += 1
        coeffs[mm] = cnt
    return QExpansion(0, coeffs, order)


def compare(a: QExpansion, b: QExpansion, order) -> Mismatch | None:
    """First mismatching coefficient below `order`, or None if equal.

    Raises PrecisionError unless both operands certify every exponent
    below `order`; silent undercomparison is never allowed.
    """
    order = Fraction(order)
    if a.precision < order or b.precision < order:
        raise PrecisionError(
            f"compare to O(q^{order}) needs precision >= {order}; "
            f"operands have {a.precision} and {b.precision}"
        )
    exps = sorted(
        {e for e in a.exponents() if e < order} | {e for e in b.exponents() if e < order}
    )
    for e in exps:
        va, vb = a.coefficient(e), b.coefficient(e)
        if not _values_equal(va, vb):
            return Mismatch(e, va, vb)
    return None


def equal_to(a: QExpansion, b: QExpansion, order) -> tuple[bool, Mismatch | None]:
    mm = compare(a, b, order)
    return mm is None, mm
