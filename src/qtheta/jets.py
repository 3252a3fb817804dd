"""Truncated Taylor expansions in z with q-series coefficients.

A ZJet holds f(z0 + z) = sum_{j<=J} a_j z^j + O(z^{J+1}) at a fixed base
point, with each a_j a QExpansion.  Logarithms are never materialized:
everything stated through log f is computed from g = f'/f and
h = (q d/dq f)/f, and analytic limits z -> 0 become shift_zero plus slot
extraction.  Only g and slot 0 of h take a division by f: q d/dq and
d/dz commute, so d/dz h = q d/dq g, and slot t >= 1 of h is
q d/dq g_{t-1} / t (the proof is in T_of_log).
Each slot of a product and a square is one q-series sum of products
(series._series_mul), reduced once per coefficient rather than once per
term.  A quotient is one long division over all its slots
(series._long_div): each quotient coefficient is one packed sum over
every divisor slot, reduced once.  A theta jet is real, so all of this
runs in the real subfield K+ of its field, mod psi_m over
theta = zeta + zeta^-1, on half the lanes of Q(zeta_m).
"""

from __future__ import annotations

from fractions import Fraction

from .series import QExpansion, _long_div, _series_mul, compare


class ZJet:
    __slots__ = ("coeffs", "_log_dz")

    def __init__(self, coeffs):
        cs = tuple(coeffs)
        if not cs:
            raise ValueError("a jet needs at least the constant slot")
        self.coeffs = cs
        self._log_dz = None

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
        of the two degrees: one long division over all slots
        (series._long_div)."""
        if not isinstance(other, ZJet):
            raise TypeError("jet division needs a jet divisor")
        if other.coeffs[0].is_zero:
            raise ZeroDivisionError(
                "jet division by a non-unit (zero constant slot)"
            )
        return ZJet(_long_div(self.coeffs, other.coeffs))

    def __truediv__(self, other):
        if isinstance(other, ZJet):
            return self.div(other)
        return ZJet([c / other for c in self.coeffs])

    # -- calculus --------------------------------------------------------

    def log_dz(self) -> "ZJet":
        """d/dz log f = f'/f, computed once per jet (f must be a unit)."""
        if self._log_dz is None:
            self._log_dz = self.d_dz().div(self)
        return self._log_dz

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
    """Heat-type operator -8 q d/dq - d^2/dz^2 applied to log f, to degree
    J-2 for f of degree J >= 2 (f a unit jet).

    Computed without any logarithm as -8 h - d/dz g, with g = f'/f
    (f.log_dz, one division of J slots) and h = (q d/dq f)/f, so slot t
    is -8 h_t - (t+1) g_{t+1}.  Only h_0 is divided, a one-slot division
    by f itself, which reads the lead inverse that f'/f cached; slot
    t >= 1 of h is q d/dq g_{t-1} / t, because d/dz h = q d/dq g:

        h f = q d/dq f and g f = d/dz f.  Apply d/dz to the first and
        q d/dq to the second: both left sides become d/dz q d/dq f, since
        q d/dq and d/dz commute on the jet's double series, so
        (d/dz h) f + h f' = (q d/dq g) f + g (q d/dq f).  The second
        terms are equal (h f' = h g f = g h f), so f d/dz h = f q d/dq g,
        and f is a unit.

    q d/dq keeps a series' precision, so h_t has g_{t-1}'s.  No heat
    equation is used, so meq1 is not true by construction: for t >= 1
    the slots of (f'/f)^2 = T(log f) are the z-derivative of the slot-0
    identity, which holds only where the heat equation holds.
    """
    if f.degree < 2:
        raise ValueError("T_of_log needs jet degree >= 2")
    g = f.log_dz()
    h0 = f.truncate(0).q_ddq().div(f).slot(0)
    out = []
    for t in range(f.degree - 1):
        qpart = h0 * -8 if t == 0 else g.slot(t - 1).q_ddq() * Fraction(-8, t)
        out.append(qpart - g.slot(t + 1) * (t + 1))
    return ZJet(out)


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
