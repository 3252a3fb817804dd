"""Truncated Taylor expansions in z with q-series coefficients.

A ZJet holds f(z0 + z) = sum_{j<=J} a_j z^j + O(z^{J+1}) at a fixed base
point, with each a_j a QExpansion.  Logarithms are never materialized:
everything stated through log f is computed from g = f'/f and slot 0 of
h = (q d/dq f)/f (T_of_log), and analytic limits z -> 0 become
shift_zero plus slot extraction.  meq1's log jet of the theta series
takes no division: modular.log_deriv_lambert gives every slot of its g
and of -8 q d/dq log f - d/dz g from the product form.
Each slot of a product and a square is one q-series sum of products
(series._series_mul), reduced once per coefficient rather than once per
term.  A quotient follows its slot recurrence
c_t = (a_t - sum_{s>=1} c_{t-s} b_s) / b_0: per slot one such sum and one
series division by b_0 (series._series_div).  No verifier divides a jet:
meq1 reads the product form, and lem22 compares its sides multiplied
out.  A theta jet is real, so all of this runs in the real subfield K+
of its field, mod psi_m over theta = zeta + zeta^-1, on half the lanes
of Q(zeta_m).
"""

from __future__ import annotations

from fractions import Fraction

from .series import QExpansion, _series_div, _series_mul, compare


class ZJet:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple(coeffs)
        if not cs:
            raise ValueError("a jet needs at least the constant slot")
        self.coeffs = cs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def slot(self, j: int) -> QExpansion:
        return self.coeffs[j]

    @property
    def precision(self) -> Fraction:
        return min(c.precision for c in self.coeffs)

    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    def __repr__(self):
        inner = ", ".join(repr(c) for c in self.coeffs)
        return f"ZJet[{inner}]"

    # -- arithmetic ----------------------------------------------------

    def _zero_like(self) -> QExpansion:
        return QExpansion.zero(self.precision)

    def __add__(self, other):
        if not isinstance(other, ZJet):
            return NotImplemented
        j = min(self.degree, other.degree)
        return ZJet([self.coeffs[t] + other.coeffs[t] for t in range(j + 1)])

    def __neg__(self):
        return ZJet([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, ZJet):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, ZJet):
            if other is self:
                return self._square()
            a, b = self.coeffs, other.coeffs
            return ZJet([_series_mul([(1, a[i], b[t - i]) for i in range(t + 1)])
                         for t in range(min(self.degree, other.degree) + 1)])
        # scalar (exact constant in z and q)
        return ZJet([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def _square(self) -> "ZJet":
        """self * self, each cross product formed once.

        Slot t is 2 sum_{i < t-i} a_i a_{t-i} + a_{t/2}^2, the last term
        for even t only.
        """
        a = self.coeffs
        out = []
        for t in range(len(a)):
            terms = [(2, a[i], a[t - i]) for i in range((t + 1) // 2)]
            if t % 2 == 0:
                terms.append((1, a[t // 2], a[t // 2]))
            out.append(_series_mul(terms))
        return ZJet(out)

    def truncate(self, degree: int) -> "ZJet":
        """The jet to z^degree: slots 0..degree."""
        if degree < 0 or degree > self.degree:
            raise ValueError(f"cannot truncate a degree-{self.degree} jet to {degree}")
        return ZJet(self.coeffs[:degree + 1])

    def div(self, other: "ZJet") -> "ZJet":
        """Quotient by a unit jet (invertible constant slot), to the lower
        of the two degrees, slot by slot:
        c_t = (a_t - sum_{s>=1} c_{t-s} b_s) / b_0, one series sum of
        products and one series division by b_0 per slot."""
        if not isinstance(other, ZJet):
            raise TypeError("jet division needs a jet divisor")
        a, b = self.coeffs, other.coeffs
        if b[0].is_zero:
            raise ZeroDivisionError(
                "jet division by a non-unit (zero constant slot)"
            )
        c = []
        for t in range(min(len(a), len(b))):
            num = a[t]
            if t:
                num = num - _series_mul([(1, c[t - s], b[s]) for s in range(1, t + 1)])
            c.append(_series_div(num, b[0]))
        return ZJet(c)

    def __truediv__(self, other):
        if isinstance(other, ZJet):
            return self.div(other)
        return ZJet([c / other for c in self.coeffs])

    # -- calculus --------------------------------------------------------

    def log_dz(self) -> "ZJet":
        """d/dz log f = f'/f (f must be a unit)."""
        return self.d_dz().div(self)

    def d_dz(self) -> "ZJet":
        """Formal z-derivative: (a_0, ..., a_J) -> (a_1, 2 a_2, ..., J a_J)."""
        if self.degree == 0:
            return ZJet([self._zero_like()])
        return ZJet([self.coeffs[j] * j for j in range(1, self.degree + 1)])

    def q_ddq(self) -> "ZJet":
        """Apply q d/dq to every slot (fractional exponents included)."""
        return ZJet([c.q_ddq() for c in self.coeffs])

    def shift_zero(self, r: int) -> "ZJet":
        """Divide out an exact zero of order r at the base point.

        The first r slots must vanish identically (to stated precision);
        otherwise the claimed zero order is wrong and this raises.
        """
        if r < 0 or r > self.degree:
            raise ValueError(f"cannot shift {r} slots of a degree-{self.degree} jet")
        for j in range(r):
            if not self.coeffs[j].is_zero:
                raise ValueError(
                    f"slot {j} is nonzero: the jet does not vanish to order {r}"
                )
        return ZJet(self.coeffs[r:])

    def scale_z(self, c) -> "ZJet":
        """Substitute z -> c*z (jet of f(c z))."""
        out, fac = [], Fraction(1)
        for j, a in enumerate(self.coeffs):
            if j:
                fac *= c
            out.append(a * fac)
        return ZJet(out)


def T_of_log(f: ZJet) -> ZJet:
    """Slot 0 of the heat-type operator -8 q d/dq - d^2/dz^2 applied to
    log f, as a jet of degree 0, for f of degree J >= 2 (f a unit jet).

    Computed without any logarithm as -8 h_0 - g_1, with g = f'/f and
    h_0 = (q d/dq f_0)/f_0.  Slot 1 of g reads only slots 0..2 of f, so g
    is taken of f truncated to degree 2 (two series divisions by f_0),
    and h_0 is one more: three for any J.
    """
    if f.degree < 2:
        raise ValueError("T_of_log needs jet degree >= 2")
    g1 = f.truncate(2).log_dz().slot(1)
    return ZJet([f.truncate(0).q_ddq().div(f).slot(0) * -8 - g1])


def compare_jets(f: ZJet, g: ZJet, order):
    """First mismatch between two jets, slot by slot, below q-order.

    The jets must have one degree: comparing only the slots both hold
    would verify less than one side states.
    """
    if f.degree != g.degree:
        raise ValueError(
            f"cannot compare a degree-{f.degree} jet with a degree-{g.degree} jet"
        )
    for t in range(f.degree + 1):
        mm = compare(f.coeffs[t], g.coeffs[t], order)
        if mm is not None:
            return t, mm
    return None
