"""A pinned corpus of divisions: series divisions over Q and Q(zeta_m),
jet divisions, and log_dz and T_of_log at theta points, built from one
fixed seed and hashed into one digest.  A change to division that keeps
its results bit for bit, in base, precision, field, vectors and
denominator, keeps the digest."""

import hashlib
import random
from fractions import Fraction

from qtheta import CyclotomicNumber, QExpansion, T_of_log, ThetaPoint, ZJet
from qtheta.cyclotomic import _ctx
from qtheta.modular import theta2_jet

DIGEST = "7d7c5ac3fb9b0903"

CONDUCTORS = (None, 5, 8, 12, 20)
THETA_POINTS = ((1, 10), (1, 3), (3, 16), (1, 6), (1, 5), (2, 7))


def _value(rng, m):
    """A random coefficient: zero, or a small Fraction, or over Q(zeta_m)
    a dense or sparse CyclotomicNumber."""
    kind = rng.choice(("zero", "rational", "field", "field"))
    if kind == "zero":
        return 0
    if kind == "rational" or m is None:
        return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4)))
    D = _ctx(m).D
    return CyclotomicNumber(m, [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
                                if rng.random() < 0.6 else 0 for _ in range(D)])


def _series(rng, m, cls, lead=False):
    """A series of base class cls over Q(zeta_m) or Q, with a nonzero lead
    when asked; without one it may be the zero series."""
    base = cls + rng.randint(-2, 2)
    coeffs = [_value(rng, m) for _ in range(rng.randint(0, 7))]
    if lead:
        coeffs.insert(0, _value(rng, m) or Fraction(rng.choice((-3, -1, 2, 5)),
                                                     rng.choice((1, 2))))
    return QExpansion(base, coeffs, base + rng.randint(1, 10))


def _key(s: QExpansion):
    return (s.base, s.precision, s._ctx.m, s._ctx.real,
            tuple(None if v is None else tuple(v) for v in s._vecs), s._den)


def _outcomes():
    """(label, result key or exception name) for every division of the
    corpus, in a fixed order."""
    rng = random.Random(43)
    out = []

    def run(label, op):
        try:
            r = op()
        except ZeroDivisionError:
            out.append((label, "ZeroDivisionError"))
            return
        if isinstance(r, ZJet):
            out.append((label, tuple(_key(s) for s in r.coeffs)))
        else:
            out.append((label, _key(r)))

    for m in CONDUCTORS:
        for _ in range(40):
            cls = Fraction(rng.randint(0, 7), 8)
            a = _series(rng, m, cls)
            b = _series(rng, rng.choice((m, None)), Fraction(rng.randint(0, 7), 8),
                        lead=rng.random() < 0.9)
            run("series", lambda: a / b)
        for _ in range(6):
            cls_a, cls_b = (Fraction(rng.randint(0, 7), 8) for _ in range(2))
            a = ZJet([_series(rng, m, cls_a) for _ in range(rng.randint(1, 4))])
            b = ZJet([_series(rng, m, cls_b, lead=rng.random() < 0.8)]
                     + [_series(rng, m, cls_b) for _ in range(rng.randint(0, 3))])
            run("jet", lambda: a.div(b))
    # a zero divisor and a jet that is no unit raise
    one = QExpansion.one(8)
    run("zero divisor", lambda: one / QExpansion.zero(8))
    run("non-unit jet", lambda: ZJet([one, one]).div(ZJet([QExpansion.zero(8), one])))
    for l, d in THETA_POINTS:
        for J in (2, 4, 5):
            f = theta2_jet(ThetaPoint(l, d), J, 12)
            run("log_dz", f.log_dz)
            run("T_of_log", lambda: T_of_log(f))
    # real series over theta against full ones of their conductor
    f = theta2_jet(ThetaPoint(1, 10), 2, 12)
    for s in f.coeffs:
        g = _series(rng, 20, Fraction(1, 8), lead=True)
        run("real by full", lambda: s / g)
        run("full by real", lambda: g / s)
    return out


def test_division_corpus_digest():
    outcomes = _outcomes()
    assert len(outcomes) == 5 * 46 + 2 + 6 * 3 * 2 + 6
    raised = {k for k, r in outcomes if isinstance(r, str)}
    # the two raising cases, and the random zero divisors of the corpus
    assert raised == {"zero divisor", "non-unit jet", "series"}
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()[:16]
    assert digest == DIGEST
