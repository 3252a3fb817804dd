"""Truncated q-expansions with a rational base exponent.

A QExpansion stores sum_{t < L} c_t q^(base+t) + O(q^precision): integer
exponent steps on top of one fractional base, which covers everything
built here (the q^{1/8} and q^{alpha/24} prefactors factor out exactly).
Precision is an absolute exponent bound and only ever decreases through
arithmetic.

A series lies in one of three fields: Q, the real subfield K+ of
Q(zeta_m), or Q(zeta_m) itself.  It holds its conductor m, whether it is
real, one canonical integer vector per coefficient (power-basis
coordinates, mod Phi_m over zeta or mod psi_m over theta = zeta +
zeta^-1 for a real series, None for a zero coefficient) and one common
denominator, in lowest terms after one gcd pass per series; the largest
vector entry is found once, when a product first needs it.  A rational
series is the case m = 1, with vectors of length one.  A real series
(theta2 jets and Lambert forms, built so by modular) has half the lanes
of a full one, and every sum, product and division of real series stays
in K+.  Sums, scalar products, q d/dq, shifts, truncation, products,
division and comparison all work on those vectors.  Coefficient objects
are built only where a caller reads a coefficient: `coeffs` is a tuple
built on first read and cached (ints and Fractions for a rational
series, CyclotomicNumbers in the zeta basis otherwise, a real series
lifted), and coefficient() and a Mismatch read it.  Coefficients are
exact: int, Fraction or CyclotomicNumber, anything else is a TypeError.
A series has a single conductor: building one from two conductors, or
adding two, raises ConductorError; conductor 1 joins any field, a real
series joins a full one of its conductor (it is lifted, _Ctx.lift), and
the zero series is rational.  field() is the conductor in both cases.  A
sum or product whose coefficients are all rational is rational too, so
its field depends only on its values, not on the order of the sums and
products that formed it nor on the terms that cancel or fall beyond its
precision.

Multiplication is schoolbook convolution in q, and its one entry point,
_series_mul, forms a sum of products sum c*a*b (a plain product is the
one-term sum).  The vectors are packed into bigints lane by lane, at the
lane width _Ctx.product_lane gives for the whole sum, so the inner loop
is one bignum multiply per coefficient pair.  The packed products of all
the terms are added lane-wise, and each coefficient of the sum is
reduced once, mod Phi_m or psi_m (unpacked, then divided,
_Ctx.reduce_packed): reduction is linear, so reducing the sum gives the
sum of the reduced products, and one lowest-terms pass makes the result
canonical, equal to the chain of single products and sums (the proof
and the lane bound are in _series_mul).  A jet slot of a
product or a square is one such sum.  A packed operand is reused across the
convolution, which is what pays for the packing; a single product of
two field elements (CyclotomicNumber __mul__, or a series times a field
element) is schoolbook.

Division is long division on the same packed vectors, and no series is
ever inverted on its own.  One routine, _long_div, divides a z-jet by a
z-jet over all its slots at once (ZJet.div), and a series division a / b
is its one-slot case (_series_div).  The inverse of the divisor's lead
(computed once per series) is folded into the integer vectors of both
operands once, which makes that lead a positive integer.  The quotient
then follows the recurrence c_t = (a_t - sum_{s>=1} c_{t-s} b_s) / b_0
one coefficient at a time: each is one packed sum over every divisor
slot, the slot's own earlier coefficients included, reduced once and
packed once for the later sums.  All quotient slots share one
common denominator, and the lanes widen only when growing quotients
outrun their bound (the proof is in _long_div).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import _kernels as K
from ._pack import pack_signed
from .cyclotomic import (
    ConductorError,
    CyclotomicNumber,
    _ctx,
    _field_of,
    _lowest_terms,
)


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


def _lane_max(vecs) -> int:
    return max(max(max(v), -min(v)) for v in vecs if v is not None)


def _scaled(vecs, f: int):
    if f == 1:
        return vecs
    return [None if v is None else [f * x for x in v] for v in vecs]


def _narrowed(s: "QExpansion") -> "QExpansion":
    """s over Q if every coefficient is rational, else s."""
    if s._m == 1 or any(any(v[1:]) for v in s._vecs if v is not None):
        return s
    vecs = [None if v is None else v[:1] for v in s._vecs]
    return QExpansion._from_vectors(1, s.base, vecs, s._den, s.precision, True)


class QExpansion:
    __slots__ = ("base", "precision", "_m", "_real", "_vecs", "_den", "_amax",
                 "_coeffs", "_lead_inv")

    def __init__(self, base, coeffs, precision):
        m = 1
        parts = []
        for c in coeffs:
            if isinstance(c, CyclotomicNumber):
                m, _ = _field_of(((m, False), (c.conductor, False)))
                parts.append((c._num, c._den) if c else None)
            elif isinstance(c, (int, Fraction)):
                parts.append(((c.numerator,), c.denominator) if c else None)
            else:
                raise TypeError(
                    f"series coefficients are int, Fraction or CyclotomicNumber, "
                    f"not {type(c).__name__}"
                )
        D = _ctx(m).D
        den = math.lcm(*(p[1] for p in parts if p is not None))
        # a rational value in a larger field is padded with zero coordinates
        vecs = [None if p is None else
                [den // p[1] * x for x in p[0]] + [0] * (D - len(p[0]))
                for p in parts]
        # each part is in lowest terms, so the vectors over their lcm are too
        self._init_vectors(m, base, vecs, den, precision, True)

    def _init_vectors(self, m, base, vecs, den, precision, lowest, real=False):
        base = Fraction(base)
        precision = Fraction(precision)
        i, j = 0, len(vecs)
        while i < j and vecs[i] is None:
            i += 1
        while j > i and vecs[j - 1] is None:
            j -= 1
        base += i
        room = precision - base
        keep = math.ceil(room) if room > 0 else 0
        if j - i > keep:
            j = i + keep
            while j > i and vecs[j - 1] is None:
                j -= 1
            lowest = False
        if i == j:
            # the zero series is rational; its base is the first unknown exponent
            m, vecs, den, base, real = 1, [], 1, precision, False
        elif i or j < len(vecs):
            vecs = vecs[i:j]
        if not lowest:
            vecs, den = _lowest_terms(vecs, den)
        self.base = base
        self.precision = precision
        self._m = m
        self._real = real
        self._vecs = vecs
        self._den = den
        self._amax = None
        self._coeffs = None
        self._lead_inv = None

    @classmethod
    def _from_vectors(cls, m, base, vecs, den, precision, lowest=False,
                      real=False):
        """A series over Q(zeta_m), or over its real subfield K+ when real
        is true, from canonical vectors (lists of ints, None for zero) over
        the positive denominator den.  The lists are kept, not copied, so
        the caller must not change them afterwards."""
        self = object.__new__(cls)
        self._init_vectors(m, base, vecs, den, precision, lowest, real)
        return self

    def _rebuilt(self, base, vecs, precision):
        """A series over this field from vectors in lowest terms over this
        denominator."""
        return QExpansion._from_vectors(
            self._m, base, vecs, self._den, precision, True, self._real
        )

    def _operand(self):
        """(vectors, denominator, largest entry) for a packed product."""
        if self._amax is None:
            self._amax = _lane_max(self._vecs)
        return self._vecs, self._den, self._amax

    def _lead_inverse(self) -> CyclotomicNumber:
        """1/c for the lead coefficient c, computed once per series (a
        division by a series with a rational lead needs no inverse), in
        the zeta basis: a real lead is lifted first."""
        if self._lead_inv is None:
            if self.is_zero:
                raise ZeroDivisionError("the zero series has no lead coefficient")
            lead = self._vecs[0]
            if self._real:
                lead = _ctx(self._m, True).lift(lead)
            self._lead_inv = CyclotomicNumber._raw(self._m, lead, self._den).invert()
        return self._lead_inv

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
    def coeffs(self) -> tuple:
        """The coefficients c_t: CyclotomicNumbers (0 for a zero) over
        Q(zeta_m), in the zeta basis for a real series too, ints and
        Fractions over Q."""
        cs = self._coeffs
        if cs is None:
            m, den = self._m, self._den
            if m == 1:
                cs = tuple(0 if v is None else v[0] // den if v[0] % den == 0
                           else Fraction(v[0], den) for v in self._vecs)
            else:
                lift = _ctx(m, True).lift if self._real else list
                cs = tuple(0 if v is None else CyclotomicNumber._raw(m, lift(v), den)
                           for v in self._vecs)
            self._coeffs = cs
        return cs

    @property
    def is_zero(self) -> bool:
        return not self._vecs

    def field(self) -> int | None:
        """Conductor m of the coefficient field, Q(zeta_m) or its real
        subfield, or None for plain rationals."""
        return None if self._m == 1 else self._m

    def exponents(self):
        return [self.base + t for t in range(len(self._vecs))]

    def coefficient(self, e):
        e = Fraction(e)
        if e >= self.precision:
            raise PrecisionError(f"exponent {e} is beyond O(q^{self.precision})")
        t = e - self.base
        if t.denominator != 1 or t < 0 or t >= len(self._vecs):
            return 0
        return self.coeffs[int(t)]

    def truncate(self, precision) -> "QExpansion":
        p = min(Fraction(precision), self.precision)
        return self._rebuilt(self.base, self._vecs, p)

    def embed(self, M: int) -> "QExpansion":
        """The same series over Q(zeta_M), m | M; a rational series is the
        case m = 1.  A real series is lifted at m first."""
        m = self._m
        if m == M and not self._real:
            return self
        if M % m:
            raise ConductorError(f"{m} does not divide {M}")
        vecs = self._vecs
        if self._real:
            lift = _ctx(m, True).lift
            vecs = [None if v is None else lift(v) for v in vecs]
        if M != m:
            ctx = _ctx(M)
            vecs = [None if v is None else ctx.galois_vec(v, M // m) for v in vecs]
        return QExpansion._from_vectors(M, self.base, vecs, self._den, self.precision)

    def _over(self, m: int, real: bool) -> "QExpansion":
        """The same series over K+ of conductor m (real) or over
        Q(zeta_m), a field _field_of joined it into."""
        if not real:
            return self.embed(m)
        if self._m == m:
            return self
        # a rational vector [x] is x theta^0, padded
        pad = [0] * (_ctx(m, True).D - 1)
        vecs = [None if v is None else v + pad for v in self._vecs]
        return QExpansion._from_vectors(m, self.base, vecs, self._den,
                                        self.precision, True, True)

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
        if (self.base != other.base or self.precision != other.precision
                or len(self._vecs) != len(other._vecs)):
            return False
        # lowest terms make (vectors, denominator) canonical in one field
        a, b = _common_field(self, other)
        return a._den == b._den and a._vecs == b._vecs

    def __hash__(self):
        # __eq__ compares non-rational coefficients across conductors by
        # embedding, so only rational values may enter the hash.
        den = self._den
        vals = tuple(
            0 if v is None else None if any(v[1:]) else Fraction(v[0], den)
            for v in self._vecs
        )
        return hash((self.base, self.precision, len(vals), vals))

    # -- ring operations ----------------------------------------------

    def _scalar(self, value) -> "QExpansion":
        return QExpansion.constant(value, self.precision)

    def __add__(self, other):
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            other = self._scalar(other)
        if not isinstance(other, QExpansion):
            return NotImplemented
        prec = min(self.precision, other.precision)
        m, real = _field_of(((self._m, self._real), (other._m, other._real)))
        if self.is_zero:
            return _narrowed(other.truncate(prec))
        if other.is_zero:
            return _narrowed(self.truncate(prec))
        step = self.base - other.base
        if step.denominator != 1:
            raise ValueError(
                f"incompatible base classes: {self.base} vs {other.base}"
            )
        base = min(self.base, other.base)
        oa, ob = int(self.base - base), int(other.base - base)
        a, b = self._over(m, real), other._over(m, real)
        den = math.lcm(a._den, b._den)
        va, vb = _scaled(a._vecs, den // a._den), _scaled(b._vecs, den // b._den)
        out = [None] * max(len(va) + oa, len(vb) + ob)
        out[oa:oa + len(va)] = va
        for t, v in enumerate(vb):
            if v is not None:
                w = out[ob + t]
                if w is not None:
                    v = [x + y for x, y in zip(w, v)]
                    if not any(v):
                        v = None
                out[ob + t] = v
        return _narrowed(QExpansion._from_vectors(m, base, out, den, prec,
                                                  real=real))

    __radd__ = __add__

    def __neg__(self):
        return self._rebuilt(self.base, _scaled(self._vecs, -1), self.precision)

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
            return self._times(other)
        if not isinstance(other, QExpansion):
            return NotImplemented
        return _series_mul(((1, self, other),))

    __rmul__ = __mul__

    def _times(self, c) -> "QExpansion":
        """self * c for a nonzero int, Fraction or CyclotomicNumber c; a
        rational c keeps a real series real."""
        m, real = self._m, self._real
        if isinstance(c, CyclotomicNumber):
            m, real = _field_of(((m, real), (c.conductor, c.is_rational())))
            if c.is_rational():
                c = c.as_rational()
        s = self._over(m, real)
        if isinstance(c, CyclotomicNumber):
            mul = _ctx(m).mul_vec
            vecs = [None if v is None else mul(v, c._num) for v in s._vecs]
            den = s._den * c._den
        else:
            vecs, den = _scaled(s._vecs, c.numerator), s._den * c.denominator
        return QExpansion._from_vectors(m, self.base, vecs, den, self.precision,
                                        real=real)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        if isinstance(other, CyclotomicNumber):
            return self * other.invert()
        if not isinstance(other, QExpansion):
            return NotImplemented
        return _series_div(self, other)

    def q_ddq(self) -> "QExpansion":
        """Apply q d/dq: multiply each coefficient by its full exponent."""
        p, q = self.base.numerator, self.base.denominator
        vecs = [None if v is None or p + t * q == 0 else [(p + t * q) * x for x in v]
                for t, v in enumerate(self._vecs)]
        return QExpansion._from_vectors(
            self._m, self.base, vecs, self._den * q, self.precision, real=self._real
        )

    def scale_q(self, s: int) -> "QExpansion":
        """Substitute q -> q^s (s >= 1)."""
        if not isinstance(s, int) or s < 1:
            raise ValueError("scale factor must be a positive integer")
        vecs = self._vecs
        if vecs and s > 1:
            out = [None] * ((len(vecs) - 1) * s + 1)
            out[::s] = vecs
            vecs = out
        return self._rebuilt(self.base * s, vecs, self.precision * s)

    def shift(self, e) -> "QExpansion":
        """Multiply by the exact monomial q^e."""
        e = Fraction(e)
        return self._rebuilt(self.base + e, self._vecs, self.precision + e)


def _common_field(a: QExpansion, b: QExpansion):
    """a and b over one field: K+ when both are real or rational, of one
    conductor, else Q(zeta) of the lcm of their conductors."""
    if 1 in (a._m, b._m) or a._m == b._m:
        f = _field_of(((a._m, a._real), (b._m, b._real)))
        return a._over(*f), b._over(*f)
    m = math.lcm(a._m, b._m)
    return a.embed(m), b.embed(m)


def _join(series):
    """(the _Ctx of the one field of the series, _field_of; each series
    over that field, QExpansion._over), as a sum joins its operands.  Each
    distinct series is converted once, so that an operand read twice, as
    in a square, stays one object."""
    m, real = _field_of((s._m, s._real) for s in series)
    over = {id(s): s for s in series}
    over = {i: s._over(m, real) for i, s in over.items()}
    # _ctx(m) for Q(zeta_m), its one cache key
    return _ctx(m, True) if real else _ctx(m), [over[id(s)] for s in series]


# -- multiplication ----------------------------------------------------


def _series_mul(terms) -> QExpansion:
    """The sum of products sum c*a*b over the triples (c, a, b) of terms,
    c a nonzero int; a plain product a*b is the one term (1, a, b).

    The precision is the least of the terms' product precisions, and the
    field the one field of the terms with nonzero operands, each operand
    put over it as a sum puts it (_join), or Q when every coefficient of
    the sum is rational, as a chain of products and sums gives in any
    order.  A term that is zero, or lies wholly at or above that
    precision, adds nothing to the coefficients.
    Every other term is convolved from packed operands (each distinct
    operand packed once, one list for a square), scaled by c*den/(da*db)
    onto the common denominator den, the lcm of the da*db, and added
    lane-wise into the packed sum at its offset from the least base.
    Each coefficient of the sum is then reduced once (mod Phi_m, or psi_m
    over K+), and the series takes one lowest-terms pass.

    Why one reduction suffices: reduction mod Phi_m or psi_m is linear, so
    the reduced sum is the sum of the reduced products; and lowest terms
    make the (vectors, denominator) form canonical, so the result equals the
    chain c_1*a_1*b_1 + c_2*a_2*b_2 + ... exactly.  Why one lane width
    suffices: a coefficient of a_t*b_t is a sum of at most min(la, lb)
    vector products with lanes below amax and bmax, so the packed sum is
    a sum of at most sum_t |c_t| den/(da_t db_t) min(la_t, lb_t) amax_t
    bmax_t products of vectors with unit lanes, the count from which
    _Ctx.product_lane sizes the lanes.
    """
    prec = min(min(a.precision + b.base, b.precision + a.base)
               for _, a, b in terms)
    nonzero = [(c, a, b) for c, a, b in terms if not a.is_zero and not b.is_zero]
    if not nonzero:
        return QExpansion.zero(prec)
    ctx, ops = _join([s for _, a, b in nonzero for s in (a, b)])
    nonzero = [(c, a, b) for (c, _, _), a, b in zip(nonzero, ops[::2], ops[1::2])]
    bases = [a.base + b.base for _, a, b in nonzero]
    if any((e - bases[0]).denominator != 1 for e in bases):
        raise ValueError(f"incompatible base classes: {sorted(set(bases))}")
    live = [(t, e) for t, e in zip(nonzero, bases) if e < prec]
    if not live:
        return QExpansion.zero(prec)
    base = min(e for _, e in live)
    den = math.lcm(*(a._den * b._den for (_, a, b), _ in live))
    units = 0
    for (c, a, b), _ in live:
        va, da, amax = a._operand()
        vb, db, bmax = b._operand()
        units += abs(c) * (den // (da * db)) * min(len(va), len(vb)) * amax * bmax
    lane = ctx.product_lane(units)
    packed = {}
    for (_, a, b), _ in live:
        for s in (a, b):
            if id(s) not in packed:
                packed[id(s)] = [0 if v is None else pack_signed(v, lane)
                                 for v in s._vecs]
    n = math.ceil(prec - base)
    acc = [0] * n
    for (c, a, b), e in live:
        off = int(e - base)
        f = c * (den // (a._den * b._den))
        pa, pb = packed[id(a)], packed[id(b)]
        top = min(n - off, len(pa) + len(pb) - 1)
        for t, x in enumerate(K.convolve_trunc(pa, pb, top), off):
            if x:
                acc[t] += x if f == 1 else f * x
    out = []
    for x in acc:
        v = ctx.reduce_packed(x, lane) if x else None
        out.append(v if v is not None and any(v) else None)
    return _narrowed(QExpansion._from_vectors(ctx.m, base, out, den, prec,
                                              real=ctx.real))


def _series_div(a: QExpansion, b: QExpansion) -> QExpansion:
    """a / b by long division on packed vectors: the one-slot case of
    _long_div, which holds the proof and the lane bound (with one slot, S
    is the nonzero coefficients of b past its lead)."""
    return _long_div((a,), (b,))[0]


def _long_div(a, b) -> list:
    """The slots of the z-jet quotient a / b, by one long division over
    (slot, q) on packed vectors.

    a and b are the q-series slots of two jets, a_t and b_s the
    coefficients of z^t and z^s, and b_0 must be nonzero.  The quotient
    has min(len(a), len(b)) slots, c_t = (a_t - sum_{s>=1} c_{t-s} b_s) / b_0,
    and each has the base, precision, conductor and values that this
    chain of series sums, products and divisions gives slot by slot: the
    numerator's precision is the least of a_t's and each product's, its
    base its first nonzero exponent, and c_t's precision then that of a
    series division by b_0.

    The inverse L/Ld of b_0's lead (computed once per series,
    QExpansion._lead_inverse) is folded into the integer vectors once:
    each nonzero vector of a and b is multiplied by L (by a sign for a
    rational lead), and each jet is put over one denominator, a = A/ad and
    b = B/bd.  The lead of B_0 is then a positive integer lam, and
    c = (bd/ad) A/B.  Over K+ the inverse, real as the lead is, comes in
    the zeta basis, and L is its cosine map (_Ctx.cosines), 2L/Ld: any
    positive rational multiple of the inverse serves.  The division works
    in the one field of its operands, over theta for real jets, with every
    slot put over it as a sum puts it (_join).

    Coefficient i of slot t of A/B is C_{t,i}/E, over one common
    denominator E for all slots that grows as the division goes on, and
    the C are kept as integer vectors over the current E.  The textbook
    recurrence C_t B_0 = E A_t - sum_{s>=1} C_{t-s} B_s gives it one
    coefficient at a time: step i forms one packed sum

        E A_{t,i} - sum_{s>=0} sum_{j in S_s, j <= r} C_{t-s,r-j} B_{s,j},

    S_s the nonzero coefficients of B_s and r = i less the offset of the
    product c_{t-s} b_s from the numerator's base.  The s = 0 term reads
    the slot's own packed coefficients, where C_{t,i} is still 0, so the
    lead of B_0 adds nothing.  The sum is reduced once
    (_Ctx.reduce_packed), which gives lam E times coefficient i.  When
    lam does not divide that vector, E becomes f E for the least f that
    makes f/lam times it integral (f divides lam, so this happens only for
    lam > 1, as for a lead sqrt 2 or 3), and every C so far, vector and
    packed value, is multiplied by f.  C_{t,i} is then packed once, for
    the later sums.  The first nonzero C_{t,i} fixes the slot's base
    beta_t, and with it where b_0's precision ends the slot.

    No index is checked in the inner loop: r - j < len(C_u) for the
    stored slot u = t-s.  Slot u keeps l_u = min(N_u - first_u,
    ceil(prec0 - beta0)) coefficients, N_u = ceil(prec_u - nu_u) for its
    numerator's precision prec_u and base nu_u, and its precision p_u =
    min(prec_u - beta0, prec0 + beta_u - beta0) has ceil(p_u - beta_u) =
    l_u.  _slot_terms caps slot t's numerator precision at p_u + base(b_s),
    and C_{u,r-j} B_{s,j} lies at exponent beta_u + base(b_s) + r, below
    it, so r - j <= r < p_u - beta_u <= l_u.  An overrun would raise
    IndexError, never read a wrong value: the break keeps r - j >= 0.

    Lanes: each of the 2D-1 lanes of a packed sum is at most
    E amax + |S| D Cmax bmax, amax, bmax and Cmax the largest entries of
    A, B and the C so far, and S the nonzero coefficients of all divisor
    slots but the lead of B_0: each meets at most one C in a sum.
    _Ctx.product_lane(bound) sizes the lane for D times
    E amax + |S| Cmax bmax, which is more.  Before each step the bound is
    checked against the one the lane was sized for; when growing quotients
    outrun it, B and the C are packed again from their vectors at a lane
    sized for 2**_HEADROOM times the new bound.  Over Q (D = 1) the same path and bound serve: a
    one-lane vector packs to itself, and reduce_packed unpacks the one
    lane of a sum, which reduce returns as it is.
    """
    b0 = b[0]
    if b0.is_zero:
        raise ZeroDivisionError("division by the zero series")
    n = min(len(a), len(b))
    ctx, ops = _join([*a[:n], *b[:n]])
    a, b = ops[:n], ops[n:]
    b0 = b[0]
    # a zero numerator needs no fold: every quotient slot is zero
    if any(not s.is_zero for s in a):
        lead = b0._vecs[0]
        if any(lead[1:]):
            inv = b0._lead_inverse()._num
            # over K+, the cosine map of the real 1/lead's zeta coordinates
            # is 2/lead: a positive multiple serves as well
            L = ctx.cosines(enumerate(inv)) if ctx.real else inv
        else:
            L = -1 if lead[0] < 0 else 1
        A, ad, amax = _folded(a, L, ctx)
        B, bd, bmax = _folded(b, L, ctx)
        lam = B[0][0][0]
        nS = sum(v is not None for vecs in B for v in vecs) - 1
    beta0, prec0 = b0.base, b0.precision
    # per slot: [base, precision, C vector or None per coefficient, the C
    # packed at the current lane]; no lists for a zero slot
    done = []
    E, cmax, cap, lane, pb = 1, 0, -1, 0, None
    for t in range(n):
        prec, live = _slot_terms(a[t], b, done)
        first = None
        if live:
            nu = min(e for e, _, _ in live)
            N = stop = math.ceil(prec - nu)
            cs, pc = [None] * N, [0] * N
            # A_t at the exponents nu + i, and per product c_u b_s its
            # offset, u's packed coefficients and s; the slot itself is s = 0
            at, terms = [], [(0, pc, 0)]
            for e, u, s in live:
                if u is None:
                    at = [None] * int(e - nu) + A[t]
                else:
                    terms.append((int(e - nu), done[u][3], s))
            for i in range(N):
                if i == stop:
                    break
                bound = E * amax + nS * cmax * bmax
                if bound > cap:
                    cap = bound << _HEADROOM
                    lane = ctx.product_lane(cap)
                    pb = [[(j, pack_signed(v, lane)) for j, v in enumerate(vecs)
                           if v is not None] for vecs in B]
                    for vs, ps in [d[2:] for d in done if d[2]] + [(cs, pc)]:
                        for k, v in enumerate(vs):
                            if v is not None:
                                ps[k] = pack_signed(v, lane)
                v = at[i] if i < len(at) else None
                x = 0 if v is None else E * pack_signed(v, lane)
                for off, ps, s in terms:
                    r = i - off
                    for j, y in pb[s]:
                        if j > r:
                            break
                        c = ps[r - j]
                        if c:
                            x -= c * y
                if not x:
                    continue
                w = ctx.reduce_packed(x, lane)
                if not any(w):
                    continue
                if first is None:
                    first, stop = i, min(N, i + math.ceil(prec0 - beta0))
                # coefficient i is w/(lam E): E grows by the least f with
                # f w/lam integral
                f = lam // math.gcd(lam, *w)
                if f > 1:
                    E *= f
                    cmax *= f
                    for vs, ps in [d[2:] for d in done if d[2]] + [(cs, pc)]:
                        for k, v in enumerate(vs):
                            if v is not None:
                                vs[k] = [f * y for y in v]
                                ps[k] *= f
                w = [y * f // lam for y in w]
                cmax = max(cmax, max(w), -min(w))
                cs[i] = w
                pc[i] = pack_signed(w, lane)
        if first is None:
            # a_t - sum_s c_{t-s} b_s is zero below prec: so is c_t
            p = min(prec - beta0, prec0 + prec - 2 * beta0)
            done.append([p, p, None, None])
        else:
            p = min(prec - beta0, prec0 + nu + first - 2 * beta0)
            done.append([nu + first - beta0, p, cs[first:stop], pc[first:stop]])
    quotient = []
    for base, p, cs, _ in done:
        if cs is None:
            quotient.append(QExpansion.zero(p))
        else:
            quotient.append(_narrowed(QExpansion._from_vectors(
                ctx.m, base, _scaled(cs, bd), E * ad, p, real=ctx.real)))
    return quotient


def _slot_terms(at, b, done):
    """(precision, live terms) of the numerator a_t - sum_{s>=1} c_{t-s} b_s
    of the next quotient slot, t = len(done): its precision is the least
    of a_t's and each product's, and a term (base, quotient slot or None
    for a_t, divisor slot) is live when nonzero below it."""
    prec = at.precision
    terms = [] if at.is_zero else [(at.base, None, 0)]
    t = len(done)
    for s in range(1, t + 1):
        base, p, cs, _ = done[t - s]
        bs = b[s]
        prec = min(prec, p + bs.base, bs.precision + base)
        if cs is not None and not bs.is_zero:
            terms.append((base + bs.base, t - s, s))
    if any((e - terms[0][0]).denominator != 1 for e, _, _ in terms):
        raise ValueError(
            f"incompatible base classes: {sorted({e for e, _, _ in terms})}"
        )
    return prec, [x for x in terms if x[0] < prec]


def _folded(slots, L, ctx):
    """(the vectors of every slot times L, over one denominator; that
    denominator; their largest entry), for L +-1 or a canonical vector."""
    den = math.lcm(*(s._den for s in slots))
    out = []
    for s in slots:
        if isinstance(L, int):
            out.append(_scaled(s._vecs, den // s._den * L))
        else:
            vecs = [None if v is None else ctx.mul_vec(v, L) for v in s._vecs]
            out.append(_scaled(vecs, den // s._den))
    return out, den, _lane_max(v for vecs in out for v in vecs)


# Bits of slack a packed division lane keeps above its current bound, so
# that quotients whose entries grow are repacked only now and then.
_HEADROOM = 16


# -- named operations ----------------------------------------------------


def lambert(a: int, b: int, order) -> QExpansion:
    """sum_{n>=1} q^{an} / (1 - q^{bn}) to absolute precision `order`.

    The coefficient of q^M counts divisors d | M with d ≡ a (mod b) and
    d >= a.  It is computed by a divisor sieve: each such d adds one to
    every multiple of itself below the order.
    """
    if a < 1 or b < 1:
        raise ValueError("lambert parameters must be positive integers")
    n = math.ceil(Fraction(order))
    coeffs = [0] * max(n, 0)
    for d in range(a, n, b):
        for mm in range(d, n, d):
            coeffs[mm] += 1
    return QExpansion(0, coeffs, order)


def _first_difference(a: QExpansion, b: QExpansion, order):
    """Least exponent below `order` where a and b differ, or None."""
    if (a.base - b.base).denominator != 1:
        # no exponent is shared, and a nonzero series is nonzero at its base
        firsts = [s.base for s in (a, b) if not s.is_zero and s.base < order]
        return min(firsts, default=None)
    a, b = _common_field(a, b)
    (va, da), (vb, db) = (a._vecs, a._den), (b._vecs, b._den)
    base = min(a.base, b.base)
    oa, ob = int(a.base - base), int(b.base - base)
    top = min(math.ceil(order - base), max(oa + len(va), ob + len(vb)))
    for t in range(top):
        x = va[t - oa] if 0 <= t - oa < len(va) else None
        y = vb[t - ob] if 0 <= t - ob < len(vb) else None
        if not x and not y:
            continue
        if not x or not y:
            return base + t
        if da == db:
            if x != y:
                return base + t
        elif any(u * db != w * da for u, w in zip(x, y)):
            return base + t
    return None


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
    e = _first_difference(a, b, order)
    return None if e is None else Mismatch(e, a.coefficient(e), b.coefficient(e))


def equal_to(a: QExpansion, b: QExpansion, order) -> tuple[bool, Mismatch | None]:
    mm = compare(a, b, order)
    return mm is None, mm
