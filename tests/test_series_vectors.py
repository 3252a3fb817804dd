"""Series over Q(zeta_m) are integer vectors over one denominator, a
rational series the case m = 1 and a real one held over theta = zeta +
zeta^-1 in the real subfield; every operation on them must agree with
coefficient-wise CyclotomicNumber and Fraction arithmetic, which here is
the oracle: a dict from exponent to value."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtheta import (
    CyclotomicNumber,
    Mismatch,
    QExpansion,
    T_of_log,
    ThetaPoint,
    ZJet,
    compare,
    embed_conductor,
    root_of_unity,
)
from qtheta import series
from qtheta.cyclotomic import _Ctx, _ctx
from qtheta.modular import theta2_jet
from qtheta.series import _series_div, _series_mul

CONDUCTORS = [1, 4, 8, 12, 20, 40]
small_fraction = st.fractions(min_value=-5, max_value=5, max_denominator=4)


class Ref:
    """A truncated series as {exponent: nonzero value} below a precision."""

    def __init__(self, terms, prec):
        self.prec = Fraction(prec)
        self.terms = {Fraction(e): v for e, v in terms.items() if v and e < self.prec}

    @classmethod
    def of(cls, base, coeffs, prec):
        return cls({Fraction(base) + t: c for t, c in enumerate(coeffs)}, prec)

    @property
    def base(self):
        return min(self.terms, default=self.prec)

    def at(self, e):
        return self.terms.get(e, 0)

    def check(self, s):
        assert (s.base, s.precision) == (self.base, self.prec)
        if not self.terms:
            assert s.is_zero and s.coeffs == ()
            return
        assert len(s.coeffs) == int(max(self.terms) - self.base) + 1
        for t, c in enumerate(s.coeffs):
            assert c == self.at(self.base + t), (t, c, self.at(self.base + t))

    def add(self, o):
        terms = dict(self.terms)
        for e, v in o.terms.items():
            terms[e] = terms[e] + v if e in terms else v
        return Ref(terms, min(self.prec, o.prec))

    def scale(self, c):
        return Ref({e: v * c for e, v in self.terms.items()}, self.prec)

    def mul(self, o):
        prec = min(self.prec + o.base, o.prec + self.base)
        terms = {}
        for e1, v1 in self.terms.items():
            for e2, v2 in o.terms.items():
                e = e1 + e2
                terms[e] = terms[e] + v1 * v2 if e in terms else v1 * v2
        return Ref(terms, prec)

    def div(self, o):
        # the schoolbook division on coefficient objects
        prec = min(self.prec - o.base, o.prec + self.base - 2 * o.base)
        base = self.base - o.base
        if not self.terms or prec <= base:
            return Ref({}, prec)
        n = math.ceil(prec - base)
        rem = [self.at(self.base + i) for i in range(n)]
        bc = [o.at(o.base + j) for j in range(n)]
        lead = bc[0]
        if isinstance(lead, CyclotomicNumber):
            linv = lead.invert()
        else:
            linv = 1 / Fraction(lead)
        out = {}
        for i in range(n):
            q = rem[i] * linv
            out[base + i] = q
            for j in range(1, n - i):
                rem[i + j] = rem[i + j] - q * bc[j]
        return Ref(out, prec)

    def first_mismatch(self, o, order):
        for e in sorted(set(self.terms) | set(o.terms)):
            if e < order and self.at(e) != o.at(e):
                return e, self.at(e), o.at(e)
        return None


@st.composite
def value(draw, m, rational):
    kinds = ["zero", "int", "fraction"] + ([] if rational else ["cyc", "cyc", "cyc"])
    kind = draw(st.sampled_from(kinds))
    if kind == "zero":
        return draw(st.sampled_from([0, CyclotomicNumber.zero(m)]))
    if kind == "int":
        return draw(st.integers(-4, 4))
    if kind == "fraction":
        return draw(small_fraction)
    coords = st.one_of(st.just(0), st.just(0), small_fraction)
    D = _ctx(m).D
    return CyclotomicNumber(m, draw(st.lists(coords, min_size=D, max_size=D)))


@st.composite
def series_pair(draw):
    """(m, (series, Ref), (series, Ref)): one conductor, one base class;
    either side may hold only rational values, or be zero."""
    m = draw(st.sampled_from(CONDUCTORS))
    cls = Fraction(draw(st.integers(0, 7)), 8)

    def one():
        base = cls + draw(st.integers(-2, 3))
        rational = draw(st.integers(0, 4)) == 0
        coeffs = draw(st.lists(value(m, rational), max_size=7))
        prec = base + draw(st.integers(0, 9))
        return QExpansion(base, coeffs, prec), Ref.of(base, coeffs, prec)

    a = one()
    if draw(st.booleans()):
        # a near copy of a, so that comparisons reach deep mismatches
        s, r = a
        terms = dict(r.terms)
        if terms and draw(st.booleans()):
            e = draw(st.sampled_from(sorted(terms)))
            terms[e] = terms[e] + draw(value(m, False))
        coeffs = [terms.get(r.base + t, 0) for t in range(len(s.coeffs))]
        b = QExpansion(r.base, coeffs, r.prec), Ref(terms, r.prec)
    else:
        b = one()
    return m, a, b


@settings(max_examples=150, deadline=None)
@given(data=series_pair(), c=st.data())
def test_vector_operations_match_object_arithmetic(data, c):
    m, (a, ra), (b, rb) = data
    ra.check(a)
    rb.check(b)
    ra.add(rb).check(a + b)
    ra.add(rb.scale(-1)).check(a - b)
    ra.scale(-1).check(-a)
    ra.mul(rb).check(a * b)
    ra.mul(ra).check(a * a)
    scalars = (c.draw(st.integers(-3, 3)), c.draw(small_fraction),
               c.draw(value(m, False)))
    for k in scalars:
        ra.scale(k).check(a * k)
        ra.scale(k).check(k * a)
    if a.base.denominator == 1:
        ra.add(Ref({0: 2}, ra.prec)).check(a + 2)
    Ref({e: v * e for e, v in ra.terms.items()}, ra.prec).check(a.q_ddq())
    sh = Fraction(c.draw(st.integers(-9, 9)), 8)
    Ref({e + sh: v for e, v in ra.terms.items()}, ra.prec + sh).check(a.shift(sh))
    p = ra.prec - c.draw(st.integers(0, 4))
    Ref(ra.terms, min(p, ra.prec)).check(a.truncate(p))
    s = c.draw(st.integers(1, 3))
    Ref({e * s: v for e, v in ra.terms.items()}, ra.prec * s).check(a.scale_q(s))
    if b.is_zero:
        with pytest.raises(ZeroDivisionError):
            a / b
    else:
        ref = ra.div(rb)
        ref.check(a / b)
        ref.check(_series_div(a, b))
    order = min(a.precision, b.precision) - c.draw(st.integers(0, 2))
    mm, want = compare(a, b, order), ra.first_mismatch(rb, order)
    if want is None:
        assert mm is None
    else:
        assert (mm.exponent, mm.lhs, mm.rhs) == want
        assert mm.lhs == a.coefficient(mm.exponent)


@st.composite
def division_pair(draw):
    """(a, b) over Q or Q(zeta_m), m in {4, 8, 12, 20}: fractional bases,
    a possibly zero numerator, a divisor with any base and any precision."""
    m = draw(st.sampled_from([None, 4, 8, 12, 20]))

    def coeff():
        if m is None or draw(st.booleans()):
            return draw(small_fraction)
        return CyclotomicNumber(m, draw(st.lists(small_fraction, min_size=_ctx(m).D,
                                                 max_size=_ctx(m).D)))

    def series(coeffs):
        base = Fraction(draw(st.integers(-16, 16)), 8)
        return QExpansion(base, coeffs, base + draw(st.integers(1, 8)))

    a = series([coeff() for _ in range(draw(st.integers(0, 6)))])
    lead = coeff() or 1
    b = series([lead] + [coeff() for _ in range(draw(st.integers(0, 5)))])
    return a, b


def _ref(s):
    return Ref.of(s.base, s.coeffs, s.precision)


@settings(deadline=None)
@given(pair=division_pair())
def test_division_matches_schoolbook(pair):
    a, b = pair
    _ref(a).div(_ref(b)).check(a / b)


_DIVISION_CASES = ("widening", "sqrt2-lead", "growing-denominator",
                   "fractional-base", "dense-rational", "dense-cyclotomic")


def _division_case(name):
    """The operands (a, b) of the named case of _DIVISION_CASES, built when
    its test runs, so that a fault in division fails that case alone."""
    if name == "dense-rational":
        # a dense rational divisor: slot 0 of a quotient of two theta jets
        nj = theta2_jet(ThetaPoint(-1, 2, q_power=3), 3, 24).scale_z(3).shift_zero(1)
        ratio = nj.div(theta2_jet(ThetaPoint(-1, 2), 3, 24).shift_zero(1))
        return ratio.slot(2), ratio.slot(0)
    if name == "dense-cyclotomic":
        # a dense slot of f'/f over Q(zeta_20)
        f = theta2_jet(ThetaPoint(1, 10), 3, 30)
        return f.slot(1), f.d_dz().div(f).slot(0)
    z8 = root_of_unity(8, 1)
    sqrt2 = z8 + z8 ** 7
    z12 = root_of_unity(12, 1)
    return {
        # entries of 7^79 z^79: the quotient's entries reach 222 bits
        "widening": (QExpansion(0, [1 + z8 ** 3], 80),
                     QExpansion(0, [1, -7 * z8], 80)),
        # sqrt 2 = z + z^7 is no unit: the quotient denominator grows
        "sqrt2-lead": (QExpansion(0, [z8, 0, 3, Fraction(1, 2)], 30),
                       QExpansion(0, [sqrt2, 1, 0, z8 ** 2], 30)),
        "growing-denominator": (QExpansion(0, [1, z8 ** 3], 70),
                                QExpansion(0, [Fraction(2, 3) * sqrt2, z8, 0, -1], 70)),
        "fractional-base": (QExpansion(Fraction(3, 8), [z12, 2, 0, z12 ** 5], 20),
                            QExpansion(Fraction(5, 8), [3 - z12, 0, z12 ** 2], 21)),
    }[name]


@pytest.mark.parametrize("name", _DIVISION_CASES)
def test_division_branches_match_schoolbook(name):
    a, b = _division_case(name)
    q = a / b
    _ref(a).div(_ref(b)).check(q)
    if name == "widening":
        assert max(abs(x) for v in q._vecs for x in v).bit_length() >= 222
    if name == "growing-denominator":
        assert q._den.bit_length() > 100


def test_series_division_packs_nothing(monkeypatch):
    # a division is plain integer sums of field vectors, each reduced once:
    # no packed lanes, even for a lead sqrt 2 over Q(zeta_8), which grows
    # the quotient's denominator
    calls = []

    def recording(name, real):
        def call(*args):
            calls.append(name)
            return real(*args)
        return call

    monkeypatch.setattr(series, "pack_signed", recording("pack_signed", series.pack_signed))
    for name in ("product_lane", "reduce_packed"):
        monkeypatch.setattr(_Ctx, name, recording(name, getattr(_Ctx, name)))
    a, b = _division_case("sqrt2-lead")
    _ref(a).div(_ref(b)).check(_series_div(a, b))
    assert calls == []


def _jet_ref(a, b):
    """The quotient slots of the jets a / b (lists of Refs), slot by slot:
    c_t = (a_t - sum_{s>=1} c_{t-s} b_s) / b_0."""
    out = []
    for t in range(min(len(a), len(b))):
        acc = a[t]
        for s in range(1, t + 1):
            acc = acc.add(out[t - s].mul(b[s]).scale(-1))
        out.append(acc.div(b[0]))
    return out


def _check_jet_quotient(a, b):
    q = a.div(b)
    want = _jet_ref([_ref(s) for s in a.coeffs], [_ref(s) for s in b.coeffs])
    assert q.degree + 1 == len(want)
    m = max((s.field() or 1 for s in a.coeffs + b.coeffs), default=1)
    for r, s in zip(want, q.coeffs):
        r.check(s)
        rational = all(not isinstance(v, CyclotomicNumber) or v.is_rational()
                       for v in r.terms.values())
        assert s.field() == (None if rational else m)
    return q


@st.composite
def jet_division_pair(draw):
    """(a, b) z-jets over Q or Q(zeta_m), m in {4, 8, 12, 20}, whose
    quotient exercises every branch of the long division: a divisor lead
    that is no unit (sqrt 2, 1 + i, 3/2, or dense of large norm), so that
    the quotient denominator grows; in long slots a second divisor
    coefficient with a factor 7, so that the entries grow in the middle of
    a slot; zero slots, rational slots inside a cyclotomic jet, and
    fractional slot bases that differ from slot to slot (in one base
    class per jet)."""
    m = draw(st.sampled_from([None, 4, 8, 12, 20]))
    long = draw(st.integers(0, 2)) == 0

    def coeff(rational=False):
        if m is None or rational or draw(st.booleans()):
            return draw(small_fraction)
        return CyclotomicNumber(m, draw(st.lists(small_fraction, min_size=_ctx(m).D,
                                                 max_size=_ctx(m).D)))

    def slot(cls, head=()):
        kind = draw(st.sampled_from(["zero", "rational", "any", "any"]))
        if kind == "zero" and not head:
            coeffs = []
        else:
            size = draw(st.integers(0, 4 if long else 5))
            coeffs = list(head) + [coeff(kind == "rational") for _ in range(size)]
        base = cls + draw(st.integers(-2, 2))
        span = draw(st.integers(12, 22) if long else st.integers(1, 8))
        return QExpansion(base, coeffs, base + span)

    cls_a, cls_b = (Fraction(draw(st.integers(0, 7)), 8) for _ in range(2))
    leads = [coeff() or 1, Fraction(3, 2)]
    if m is not None:
        # a dense lead of large norm: the denominator jumps at one step
        leads.append(CyclotomicNumber(m, draw(st.lists(
            small_fraction.filter(bool), min_size=_ctx(m).D, max_size=_ctx(m).D))))
    if m == 8:
        leads.append(root_of_unity(8, 1) + root_of_unity(8, 7))
    if m == 4:
        leads.append(1 + root_of_unity(4, 1))
    head = [draw(st.sampled_from(leads))]
    if long:
        head.append(7 * (coeff() or 1))
    a = ZJet([slot(cls_a) for _ in range(draw(st.integers(1, 4)))])
    b = ZJet([slot(cls_b, head)] + [slot(cls_b) for _ in range(draw(st.integers(0, 3)))])
    return a, b


@settings(max_examples=60, deadline=None)
@given(pair=jet_division_pair())
def test_jet_division_matches_slot_by_slot_reference(pair):
    _check_jet_quotient(*pair)


_JET_DIVISION_CASES = ("growth-and-widening", "rational-growth", "fractional-bases",
                       "zero-and-rational-slots", "large-norm-lead", "zero-numerator")


def _jet_division_case(name):
    """The jets (a, b) of the named case of _JET_DIVISION_CASES, built when
    its test runs."""
    z8, z12, z20 = root_of_unity(8, 1), root_of_unity(12, 1), root_of_unity(20, 1)
    i = root_of_unity(4, 1)
    sqrt2 = z8 + z8 ** 7
    r8 = Fraction(1, 8)
    return {
        # lead sqrt 2: the denominator of the quotient grows at most steps,
        # and the factor 7 makes the entries grow at every step, within
        # slots whose earlier coefficients are still being read
        "growth-and-widening": (
            ZJet([QExpansion(0, [1, z8], 30), QExpansion(0, [z8 ** 3, 0, 2], 30),
                  QExpansion(1, [Fraction(1, 3), z8], 30)]),
            ZJet([QExpansion(0, [sqrt2, -7 * z8, 0, 1], 30),
                  QExpansion(0, [1, z8 ** 2], 30), QExpansion(0, [z8], 30)])),
        # a rational lead 3 grows the denominator over Q too
        "rational-growth": (
            ZJet([QExpansion(0, [1, 2], 40), QExpansion(0, [0, 5], 40)]),
            ZJet([QExpansion(0, [3, -7, 1], 40), QExpansion(0, [2], 40)])),
        "fractional-bases": (
            ZJet([QExpansion(3 * r8, [z12, 2, 0, z12 ** 5], 20),
                  QExpansion(3 * r8 + 2, [1, z12], 19),
                  QExpansion(3 * r8 - 1, [z12 ** 2], 21)]),
            ZJet([QExpansion(5 * r8, [3 - z12, 0, z12 ** 2], 21),
                  QExpansion(5 * r8 + 1, [z12], 22),
                  QExpansion(5 * r8 - 2, [1, 1], 18)])),
        # zero slots in both jets and rational slots in a jet over Q(zeta_4)
        "zero-and-rational-slots": (
            ZJet([QExpansion(0, [1 + i, 0, 2], 16), QExpansion.zero(16),
                  QExpansion(0, [Fraction(1, 2), 3], 16), QExpansion(0, [i], 16)]),
            ZJet([QExpansion(0, [1 + i, 1], 16), QExpansion(0, [2, 0, 1], 16),
                  QExpansion.zero(16), QExpansion(0, [0, i], 16)])),
        # a dense lead of large norm over Q(zeta_20): the denominator jumps
        # by a large factor while the rest of a numerator waits
        "large-norm-lead": (
            ZJet([QExpansion(0, [1, z20, z20 ** 3], 12), QExpansion(0, [z20 ** 2], 12)]),
            ZJet([QExpansion(0, [2 + Fraction(2, 3) * z20 + z20 ** 4 - z20 ** 5
                                 - 4 * z20 ** 6 + Fraction(1, 4) * z20 ** 7, 3 - z20], 12),
                  QExpansion(0, [z20 ** 3], 12)])),
        "zero-numerator": (
            ZJet([QExpansion.zero(10), QExpansion.zero(12)]),
            ZJet([QExpansion(0, [sqrt2, 1], 10), QExpansion(0, [z8], 10)])),
    }[name]


@pytest.mark.parametrize("name", _JET_DIVISION_CASES)
def test_jet_division_branches_match_slot_by_slot_reference(name):
    q = _check_jet_quotient(*_jet_division_case(name))
    if name == "growth-and-widening":
        # 1/sqrt 2^30 needs 2^15
        assert all(s._den % 2 ** 15 == 0 for s in q.coeffs)


@st.composite
def product_terms(draw):
    """Terms (c, a, b) over one conductor, rational operands mixed in, whose
    products share one base class but not their bases, denominators or
    precisions; one operand recurs and one term is a square."""
    m = draw(st.sampled_from([1, 4, 8, 12, 20]))
    cls_a = Fraction(draw(st.integers(0, 7)), 8)
    cls_b = cls_a if draw(st.booleans()) else Fraction(draw(st.integers(0, 7)), 8)

    def one(cls):
        base = cls + draw(st.integers(-2, 3))
        rational = m == 1 or draw(st.integers(0, 3)) == 0
        coeffs = draw(st.lists(value(m, rational), max_size=6))
        return QExpansion(base, coeffs, base + draw(st.integers(0, 8)))

    coef = st.sampled_from([1, -1, 2])
    a = one(cls_a)
    terms = [(draw(coef), a, one(cls_b))]
    for _ in range(draw(st.integers(0, 3))):
        terms.append((draw(coef), draw(st.sampled_from([a, one(cls_a)])), one(cls_b)))
    # the square of a series of base class (cls_a + cls_b)/2 joins the sum
    sq = one((cls_a + cls_b) / 2)
    terms.insert(draw(st.integers(0, len(terms))), (draw(coef), sq, sq))
    return terms


@settings(max_examples=150, deadline=None)
@given(terms=product_terms())
def test_sum_of_products_matches_its_single_products(terms):
    want = None
    for c, a, b in terms:
        p = _series_mul([(1, a, b)]) * c
        want = p if want is None else want + p
    got = _series_mul(terms)
    assert got == want
    assert (got.base, got.precision, got.field()) == (want.base, want.precision,
                                                     want.field())
    assert _series_mul([(1, a, b)]) == a * b


@settings(max_examples=100, deadline=None)
@given(data=series_pair())
def test_equality_and_hash_agree(data):
    m, (a, ra), (b, rb) = data
    same = (ra.prec, ra.base, ra.terms) == (rb.prec, rb.base, rb.terms)
    assert (a == b) == same
    if same:
        assert hash(a) == hash(b)
    # the same values as other objects: rationals lifted, or one field up
    lifted = QExpansion(
        a.base, [CyclotomicNumber.rational(m, x) if not isinstance(x, CyclotomicNumber)
                 else x for x in a.coeffs], a.precision)
    up = a.embed(3 * m)
    assert a == lifted == up and lifted == a and up == a
    assert hash(a) == hash(lifted) == hash(up)
    if a.field() is not None:
        assert up.field() == 3 * m
        assert up.coeffs == tuple(embed_conductor(x, 3 * m) if x else 0
                                  for x in a.coeffs)


def test_cyclotomic_products_build_no_coefficient_objects(monkeypatch):
    f = theta2_jet(ThetaPoint(1, 10), 3, 30)
    a, b = f.slot(2), f.slot(3)  # denominators 2 and 6, conductor 20
    r = QExpansion(Fraction(1, 8), [Fraction(1, 3), 0, -2], 30)
    raw = CyclotomicNumber._raw
    calls = []

    def counted(cls, *args):
        calls.append(args)
        return raw(*args)

    monkeypatch.setattr(CyclotomicNumber, "_raw", classmethod(counted))
    prod = a * b
    square = a * a
    mixed = r * b
    rest = [a + b, a - r, a * 3, a * Fraction(-2, 5), a.q_ddq(), a.shift(2),
            a.truncate(10), compare(prod, b * a, 30)]
    assert calls == []
    monkeypatch.undo()
    assert compare(square, a * a, 30) is None and rest[-1] is None
    assert mixed.field() == 20 and prod.field() == 20


def test_compare_across_base_classes_and_conductors():
    z4, z8 = CyclotomicNumber(4, [0, Fraction(1, 3)]), root_of_unity(8, 3)
    a = QExpansion(Fraction(1, 8), [z4, 1], 6)
    b = QExpansion(0, [0, 0, 1], 6)
    # no exponent is shared: the first mismatch is the lower base
    assert compare(a, b, 6) == Mismatch(Fraction(1, 8), z4, 0)
    assert compare(b, a.shift(3), 5) == Mismatch(2, 1, 0)
    assert compare(a, b, Fraction(1, 8)) is None
    # across conductors both sides are compared in Q(zeta_8), and the
    # mismatch reports each side's own coefficient
    c = QExpansion(Fraction(1, 8), [embed_conductor(z4, 8), 1, z8], 6)
    assert compare(a, c, Fraction(17, 8)) is None
    assert compare(a, c, 6) == Mismatch(Fraction(17, 8), 0, z8)
    low_a, low_c = a.truncate(Fraction(17, 8)), c.truncate(Fraction(17, 8))
    assert a != c and low_a == low_c and hash(low_a) == hash(low_c)
    # equal coefficients over different common denominators (6 and 3)
    d = QExpansion(0, [z4, Fraction(1, 2)], 6)
    e = QExpansion(0, [z4, Fraction(1, 3)], 6)
    assert compare(d, e, 6) == Mismatch(1, Fraction(1, 2), Fraction(1, 3))


def _real_series(rng, m, prec=10, lead=True):
    """A random series over the real subfield of conductor m, from theta
    coordinates, with an irrational lead when asked."""
    D = _ctx(m, True).D
    vecs = [[rng.randint(-6, 6) for _ in range(D)] for _ in range(prec)]
    if lead:
        vecs[0][D - 1] = rng.choice((1, -1, 2))
    vecs = [v if any(v) else None for v in vecs]
    return QExpansion._from_vectors(_ctx(m, True), 0, vecs, rng.choice((1, 2, 6)),
                                    prec)


def _lifted(jet):
    return ZJet([s.embed(s.field() or 1) for s in jet.coeffs])


@pytest.mark.parametrize("m", [5, 8, 12, 20, 40, 76])
def test_mixed_real_and_full_sums_equality_and_hash(m):
    # a real series and its lift are one value: equal, of one hash and one
    # field(); a sum or product with a full series is full, and equals
    # the one formed from the lift; among real and rational ones it stays
    # real
    rng = random.Random(m)
    r = _real_series(rng, m)
    f = r.embed(m)
    assert r._ctx.real and not f._ctx.real
    assert r.field() == f.field() == m
    assert r == f and f == r and hash(r) == hash(f)
    assert r.coeffs == f.coeffs and compare(r, f, 10) is None
    g = QExpansion(0, [root_of_unity(m, j) for j in range(6)], 10)
    q = QExpansion(0, [Fraction(1, 3), 0, 5], 10)
    for x, y in ((r, g), (g, r), (r, q), (q, r), (r, r), (r, f), (f, r)):
        xf, yf = (s.embed(m) for s in (x, y))
        assert x + y == xf + yf and x - y == xf - yf
        assert x * y == xf * yf
    assert (r + q)._ctx.real and (r * r)._ctx.real and (r * q)._ctx.real
    assert not (r + g)._ctx.real and not (r * f)._ctx.real
    assert (r - f).is_zero and (f - r).is_zero
    bumped = r + QExpansion.monomial(1, 3, 10)
    assert bumped != f and f != bumped
    assert compare(bumped, f, 10) == Mismatch(3, bumped.coefficient(3),
                                              f.coefficient(3))
    mixed = _series_mul([(2, r, g), (1, r, r), (-3, q, r)])
    assert mixed == _series_mul([(2, f, g), (1, f, f), (-3, q, f)])
    # times a field element: a rational one keeps the series real
    assert (r * root_of_unity(m, 1)) == f * root_of_unity(m, 1)
    assert (r * CyclotomicNumber.rational(m, 3))._ctx.real


@pytest.mark.parametrize("m", [5, 8, 12, 40])
def test_real_jet_division_equals_the_full_one(m):
    # division over theta, with a real lead that is no unit, against the
    # same division of the lifted jets over zeta, and a mixed one
    rng = random.Random(50 + m)
    for _ in range(3):
        a = ZJet([_real_series(rng, m, lead=False) for _ in range(4)])
        b = ZJet([_real_series(rng, m) for _ in range(4)])
        A, B = _lifted(a), _lifted(b)
        q = a.div(b)
        assert all(s._ctx.real or s.field() is None for s in q.coeffs)
        for got, want in zip(q.coeffs, A.div(B).coeffs):
            assert got == want and got.precision == want.precision
        for got, want in zip(a.div(B).coeffs, A.div(B).coeffs):
            assert got == want


@pytest.mark.parametrize("l,k", [(1, 5), (2, 7), (1, 19), (2, 3), (1, 3)])
def test_real_theta_jets_divide_as_their_lifts(l, k):
    # the verifiers' two jet divisions over theta and over zeta; at pi/3
    # and pi/6 the jet mixes slots over Q with slots over K+
    f = theta2_jet(ThetaPoint(l, 2 * k), 4, 12)
    F = _lifted(f)
    for s in f.coeffs:
        rational = all(not isinstance(c, CyclotomicNumber) or c.is_rational()
                       for c in s.coeffs)
        assert s._ctx.real != rational and (s.field() is None) == rational
    assert not any(s._ctx.real for s in F.coeffs)
    for got, want in zip(T_of_log(f).coeffs + f.log_dz().coeffs,
                         T_of_log(F).coeffs + F.log_dz().coeffs):
        assert got == want and got.precision == want.precision
