"""Truncated q-expansions with a rational base exponent.

A QExpansion stores sum_{t < L} c_t q^(base+t) + O(q^precision): integer
exponent steps on top of one fractional base, which covers everything
built here (the q^{1/8} and q^{alpha/24} prefactors factor out exactly).
Precision is an absolute exponent bound and only ever decreases through
arithmetic.

A series lies in one of three fields: Q, the real subfield K+ of
Q(zeta_m), or Q(zeta_m) itself.  It holds that field as one _Ctx
(cyclotomic._ctx; Q is _ctx(1)), one integer vector per coefficient
(power-basis coordinates, mod Phi_m over zeta or mod psi_m over
theta = zeta + zeta^-1 for a real series, None for a zero coefficient)
and one common denominator; the largest vector entry is found once, when
a product first needs it.  A real series (theta2 jets and Lambert forms,
built so by modular) has half the lanes of a full one, and every sum,
product and division of real series stays in K+.  Sums, scalar
products, q d/dq, shifts, truncation, products, division and comparison
all work on those vectors.  Coefficient objects are built only where a
caller reads a coefficient: `coeffs` is a tuple built on first read and
cached (ints and Fractions for a rational series, CyclotomicNumbers in
the zeta basis otherwise, a real series embedded, _Ctx.embed), and
coefficient() and a Mismatch read it.  Coefficients are exact: int,
Fraction or CyclotomicNumber, anything else is a TypeError.

One rule makes a series canonical, and one constructor applies it to
every series, whatever built it (QExpansion._init_vectors): the series
is in lowest terms, and it is over Q, with vectors of one lane, when
every vector is zero past lane 0.  So its field, vectors and
denominator depend on its values alone, not on the sums and products
that formed it nor on the terms that cancel or fall beyond its
precision; the zero series is rational, and so is a series in K+ of
degree 1 (m = 3, 4, 6).  A series has a single conductor, field():
building one from two conductors, or adding two, raises ConductorError.
Q joins any field, with its one-lane vectors as they are (x in lane 0;
a sum pads them to the field's lanes), and a real series joins a full
one of its conductor, embedded (_Ctx.embed).

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
is its one-slot case (_series_div).  The inverse of the divisor's lead,
one _Ctx.inverse in the lead's own field (over theta for a real one),
computed once per series, is folded into the integer vectors of both
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
from itertools import zip_longest

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


def _lanes(s: "QExpansion", f: int, ctx):
    """The vectors of s, an operand over the field ctx (QExpansion._over),
    times f, each with the D lanes of ctx: a rational one-lane [x] is x in
    lane 0, padded with zeros."""
    vecs = _scaled(s._vecs, f)
    if s._ctx.m == ctx.m:
        return vecs
    pad = [0] * (ctx.D - 1)
    return [None if v is None else v + pad for v in vecs]


def _lane_max(vecs) -> int:
    return max(max(max(v), -min(v)) for v in vecs if v is not None)


def _scaled(vecs, f: int):
    if f == 1:
        return vecs
    return [None if v is None else [f * x for x in v] for v in vecs]


class QExpansion:
    __slots__ = ("base", "precision", "_ctx", "_vecs", "_den", "_amax",
                 "_coeffs", "_lead_inv")

    def __init__(self, base, coeffs, precision):
        ctx = _ctx(1)
        parts = []
        for c in coeffs:
            if isinstance(c, CyclotomicNumber):
                ctx = _field_of((ctx, _ctx(c.conductor)))
                parts.append((c._num, c._den) if c else None)
            elif isinstance(c, (int, Fraction)):
                parts.append(((c.numerator,), c.denominator) if c else None)
            else:
                raise TypeError(
                    f"series coefficients are int, Fraction or CyclotomicNumber, "
                    f"not {type(c).__name__}"
                )
        D = ctx.D
        den = math.lcm(*(p[1] for p in parts if p is not None))
        # a rational value in a larger field is padded with zero coordinates
        vecs = [None if p is None else
                [den // p[1] * x for x in p[0]] + [0] * (D - len(p[0]))
                for p in parts]
        self._init_vectors(ctx, base, vecs, den, precision)

    def _init_vectors(self, ctx, base, vecs, den, precision):
        """Hold the series canonically, whatever built it: the zero
        coefficients at either end trimmed and the terms at or beyond the
        precision cut, over Q when every vector is zero past lane 0 (a
        rational value has no other coordinate, over zeta or theta), and
        in lowest terms.  So the field, the vectors and the denominator
        depend on the values alone."""
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
        if i == j:
            # the zero series, rational with no vector below: its base is the
            # first unknown exponent
            vecs, base = [], precision
        elif i or j < len(vecs):
            vecs = vecs[i:j]
        if ctx.m != 1 and not any(any(v[1:]) for v in vecs if v is not None):
            ctx, vecs = _ctx(1), [None if v is None else v[:1] for v in vecs]
        vecs, den = _lowest_terms(vecs, den)
        self.base = base
        self.precision = precision
        self._ctx = ctx
        self._vecs = vecs
        self._den = den
        self._amax = None
        self._coeffs = None
        self._lead_inv = None

    @classmethod
    def _from_vectors(cls, ctx, base, vecs, den, precision):
        """A series from canonical vectors of the field ctx, Q(zeta_m) or
        its real subfield K+ (lists of D ints, None for zero), or of Q
        (lists of one int), over the positive denominator den, in any
        terms; _init_vectors makes it canonical.  The lists may be kept,
        not copied, so the caller must not change them afterwards."""
        self = object.__new__(cls)
        self._init_vectors(ctx, base, vecs, den, precision)
        return self

    def _rebuilt(self, base, vecs, precision):
        """A series over this field from vectors over this denominator."""
        return QExpansion._from_vectors(self._ctx, base, vecs, self._den,
                                        precision)

    def _operand(self):
        """(vectors, denominator, largest entry) for a packed product."""
        if self._amax is None:
            self._amax = _lane_max(self._vecs)
        return self._vecs, self._den, self._amax

    def _lead_inverse(self) -> list[int]:
        """An integer vector L of this series' field, with c L a positive
        rational for the lead coefficient c: one _Ctx.inverse of c's
        vector, computed once per series, and [+-1] for a rational c."""
        if self._lead_inv is None:
            if self.is_zero:
                raise ZeroDivisionError("the zero series has no lead coefficient")
            self._lead_inv = self._ctx.inverse(self._vecs[0])[0]
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
            ctx, den = self._ctx, self._den
            m = ctx.m
            if m == 1:
                cs = tuple(0 if v is None else v[0] // den if v[0] % den == 0
                           else Fraction(v[0], den) for v in self._vecs)
            else:
                cs = tuple(0 if v is None else
                           CyclotomicNumber._raw(m, ctx.embed(v, m), den)
                           for v in self._vecs)
            self._coeffs = cs
        return cs

    @property
    def is_zero(self) -> bool:
        return not self._vecs

    def field(self) -> int | None:
        """Conductor m of the coefficient field, Q(zeta_m) or its real
        subfield, or None for plain rationals."""
        return None if self._ctx.m == 1 else self._ctx.m

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
        """The same series over Q(zeta_M), m | M, each coefficient through
        one exponent map (_Ctx.embed), a real one even for M = m.  A
        rational series is returned as it is: it is held over Q, and its
        one-lane vectors serve in any field."""
        ctx = self._ctx
        if ctx.m == 1 or (ctx.m == M and not ctx.real):
            return self
        if M % ctx.m:
            raise ConductorError(f"{ctx.m} does not divide {M}")
        vecs = [None if v is None else ctx.embed(v, M) for v in self._vecs]
        return QExpansion._from_vectors(_ctx(M), self.base, vecs, self._den,
                                        self.precision)

    def _over(self, ctx) -> "QExpansion":
        """The series as an operand in the field ctx that _field_of joined
        it into: a real series embedded when ctx is Q(zeta_m), any other
        as it is (a rational one keeps its one-lane vectors)."""
        return self if ctx.real else self.embed(ctx.m)

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
        # the constructor makes (field, vectors, denominator) canonical: a
        # rational series equals no series over a larger field
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
        ctx = _field_of((self._ctx, other._ctx))
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
        oa, ob = int(self.base - base), int(other.base - base)
        a, b = self._over(ctx), other._over(ctx)
        den = math.lcm(a._den, b._den)
        va, vb = _lanes(a, den // a._den, ctx), _lanes(b, den // b._den, ctx)
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
        return QExpansion._from_vectors(ctx, base, out, den, prec)

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
        rational c of any type scales the vectors, and only an irrational
        one joins its field."""
        if isinstance(c, CyclotomicNumber) and c.is_rational():
            c = c.as_rational()
        if isinstance(c, CyclotomicNumber):
            ctx = _field_of((self._ctx, _ctx(c.conductor)))
            s = self._over(ctx)
            vecs = [None if v is None else ctx.mul_vec(v, c._num) for v in s._vecs]
            den = s._den * c._den
        else:
            ctx, vecs = self._ctx, _scaled(self._vecs, c.numerator)
            den = self._den * c.denominator
        return QExpansion._from_vectors(ctx, self.base, vecs, den, self.precision)

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
        return QExpansion._from_vectors(self._ctx, self.base, vecs, self._den * q,
                                        self.precision)

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
    """a and b as operands of one field (_join): K+ when both are real or
    rational, of one conductor, else Q(zeta) of the lcm of their
    conductors; a rational series keeps its one-lane vectors."""
    ma, mb = a._ctx.m, b._ctx.m
    if ma != mb and 1 not in (ma, mb):
        a, b = (s.embed(math.lcm(ma, mb)) for s in (a, b))
    return _join((a, b))[1]


def _join(series):
    """(the _Ctx of the one field of the series, _field_of; each series
    over that field, QExpansion._over), as a sum joins its operands.  Each
    distinct series is converted once, so that an operand read twice, as
    in a square, stays one object."""
    ctx = _field_of(s._ctx for s in series)
    over = {id(s): s for s in series}
    over = {i: s._over(ctx) for i, s in over.items()}
    return ctx, [over[id(s)] for s in series]


# -- multiplication ----------------------------------------------------


def _series_mul(terms) -> QExpansion:
    """The sum of products sum c*a*b over the triples (c, a, b) of terms,
    c a nonzero int; a plain product a*b is the one term (1, a, b).

    The precision is the least of the terms' product precisions, and the
    field the one field of the terms with nonzero operands, each operand
    put over it as a sum puts it (_join): a rational operand's one-lane
    vectors pack as they are, to x in lane 0.  A term that is zero, or
    lies wholly at or above that precision, adds nothing to the
    coefficients.
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
    return QExpansion._from_vectors(ctx, base, out, den, prec)


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

    The division works in the one field of its operands, over theta for
    real jets, with every slot put over it as a sum puts it (_join).  A
    vector L of b_0's field with lead(b_0) L a positive rational (one
    _Ctx.inverse, computed once per series, QExpansion._lead_inverse; the
    one lane [+-1] for a rational lead) is folded into the integer vectors
    once: each nonzero vector of a and b is multiplied by L, and each jet
    is put over one denominator, a = A/ad and b = B/bd.  The lead of B_0
    is then a positive integer lam, and c = (bd/ad) A/B.

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
    sized for 2**_HEADROOM times the new bound.  Over Q (D = 1) the same
    path and bound serve: a one-lane vector packs to itself, and
    reduce_packed unpacks the one lane of a sum, which reduce returns as
    it is.  A rational slot in a larger field keeps its one-lane vectors:
    [x] packs to x in lane 0, and a sum with it has no more lanes, and
    entries no larger, than the bound allows for D-lane vectors.
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
        L = b0._lead_inverse()
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
            quotient.append(QExpansion._from_vectors(
                ctx, base, _scaled(cs, bd), E * ad, p))
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
    denominator; their largest entry), for an integer vector L.  A
    one-lane L, a rational lead's sign, scales the vectors as they are:
    a product by it cost the benchmark's jet-sweep about 2 % of its wall
    time."""
    den = math.lcm(*(s._den for s in slots))
    out = []
    for s in slots:
        if len(L) == 1:
            out.append(_scaled(s._vecs, den // s._den * L[0]))
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
    # over one conductor the vectors have one length; else one side is
    # rational, and its one-lane vectors read their missing lanes as 0
    same = da == db and a._ctx.m == b._ctx.m
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
        if same:
            if x != y:
                return base + t
        elif any(u * db != w * da for u, w in zip_longest(x, y, fillvalue=0)):
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
