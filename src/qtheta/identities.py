"""The verification layer: assemble both sides of each identity and
certify exact coefficient equality to a requested order.

Every check is zero tolerance: comparisons are exact equalities of
rationals or cyclotomic numbers, and a comparison silently below the
requested order is impossible (PrecisionError instead).  Failures are
data (VerificationReport), not exceptions.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

from ._pack import lane_width, pack_signed, unpack_signed
from .cyclotomic import _ctx
from .jets import T_of_log, compare_jets
from .modular import (
    ThetaPoint,
    _bracket_data,
    eta_quotient,
    eta_quotient_log_ddq,
    halfprod_constant,
    log_deriv_lambert,
    point_orbit,
    reduced_point,
    theta2_jet,
    theta2_product,
)
from .series import Mismatch, QExpansion, compare, lambert


@dataclass(frozen=True)
class HalfSumSpec:
    """Residues 0 <= l < k with l - k = delta (mod 2): the half-sum index set."""

    k: int
    delta: int

    def __post_init__(self):
        if self.k < 1 or self.delta not in (0, 1):
            raise ValueError("need k >= 1 and delta in {0, 1}")

    @property
    def index_set(self) -> tuple[int, ...]:
        return tuple(
            l for l in range(self.k) if (l - self.k) % 2 == self.delta
        )


@dataclass
class VerificationReport:
    identity: str
    params: dict
    status: str
    first_mismatch: Mismatch | None
    elapsed: float
    order: int
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def text_line(self) -> str:
        ps = " ".join(f"{k}={v}" for k, v in self.params.items())
        line = f"{self.status.upper():4s} {self.identity:9s} {ps}"
        if self.first_mismatch is not None:
            line += f"  [{self.first_mismatch}]"
        if self.note:
            line += f"  ({self.note})"
        line += f"  [{self.elapsed * 1000:.1f} ms]"
        return line

    def to_json_obj(self) -> dict:
        if self.first_mismatch is None:
            mm = None
        else:
            e = Fraction(self.first_mismatch.exponent)
            mm = {
                "exponent_num": e.numerator,
                "exponent_den": e.denominator,
                "lhs": str(self.first_mismatch.lhs),
                "rhs": str(self.first_mismatch.rhs),
            }
        return {
            "identity": self.identity,
            "params": self.params,
            "status": self.status,
            "first_mismatch": mm,
            "elapsed_ms": self.elapsed * 1000.0,
            "order": self.order,
        }


def _finish(identity, params, order, t0, mm, note="") -> VerificationReport:
    return VerificationReport(
        identity=identity,
        params=params,
        status="pass" if mm is None else "fail",
        first_mismatch=mm,
        elapsed=time.perf_counter() - t0,
        order=int(order),
        note=note,
    )


def _raised(identity, params, order, t0, exc) -> VerificationReport:
    """A `fail` report for a check that raised exc, naming where it did."""
    from traceback import extract_tb  # only on failure: keeps import time

    where = extract_tb(exc.__traceback__)[-1]
    return _failed(identity, params, order, time.perf_counter() - t0,
                   f"{type(exc).__name__}: {exc} (in {where.name}, "
                   f"{os.path.basename(where.filename)}:{where.lineno})")


def _failed(identity, params, order, elapsed, note) -> VerificationReport:
    """A `fail` report with no mismatch, its reason in the note."""
    return VerificationReport(identity, params, "fail", None, elapsed, int(order), note)


def _job_fields(job):
    """The identity, params and order of a report that stands for a whole
    job: the params are the job's arguments less `order`, and the order
    is that argument (0 for a job without one)."""
    kind, kwargs = job
    params = {n: v for n, v in kwargs.items() if n != "order"}
    return kind, params, kwargs.get("order", 0)


def _part(identity, params, order, check) -> VerificationReport:
    """One report of a verifier that makes several: check() returns the
    first mismatch or None, and an exception it raises fails this report
    only, so the verifier's other reports are still made."""
    t0 = time.perf_counter()
    try:
        mm = check()
    except Exception as exc:
        return _raised(identity, params, order, t0, exc)
    return _finish(identity, params, order, t0, mm)


# The point checks made so far in the open _check_scope, by key (the
# check's kind, its reduced_point and its other arguments), and the passes
# shared by an orbit key; None outside one, where every check runs.
_point_checks: dict | None = None


@contextmanager
def _check_scope():
    """A fresh table of point checks for the jobs run inside, and the
    caller's back after.  run_jobs opens one around a serial run, and
    _run_group around each pool task, so a worker shares checks within its
    task whatever state its start method gave it."""
    global _point_checks
    outer, _point_checks = _point_checks, {}
    try:
        yield
    finally:
        _point_checks = outer


def _orbit_key(kind, l, k, *rest):
    """The key of the `kind` checks that one pass at (l, k) covers: its
    Galois orbit (point_orbit) with the check's other arguments.  It keys
    the shared pass in _checked_once and a meq1 pool task in _share_key."""
    return (kind, point_orbit(l, k), *rest)


def _checked_once(kind, l, k, check, *rest):
    """check(lr, kr, *rest) at the reduced point (lr, kr) of (l, k), the
    point in its smallest field (reduced_point): None for a pass, else the
    failure.  In an open _check_scope it runs once per point key
    (kind, lr, kr, *rest) and, while it passes, once per orbit key
    (_orbit_key), which is one entry shorter, so the two never collide.

    A pass is stored under both keys, and a later point of the orbit
    reuses it.  A failure is stored under its point key only, so each
    point of a failing orbit runs its own check and reports its own
    mismatch.  A check that raises stores nothing, so each report at its
    point runs it again and fails alone.  Outside a scope every check
    runs.

    One pass proves the orbit.  Let n = point_orbit(l, k), m = 4 kr and
    chi(a) = (-1)^((a-1)/2) for a unit a mod m; sigma_a: zeta_m ->
    zeta_m^a fixes q and Q.  The check's own docstring (_meq1_at,
    _lemd_at) shows that sigma_a turns what it compares at lr into a sign
    times the same at a lr, and that a shift by pi does so too.
    1. The reduced points with one n have one kr (reduced_point), and each
       is reached from another by some sigma_a and at most one shift by
       pi.  For even n, lr = u is a unit mod 2n = m, and a = u2/u1 mod m.
       For odd n, lr = 2u with u a unit mod n, and a lr = 2(a u mod 2n)
       with a u = u (mod 2), as a is odd: sigma_a reaches 2 u2 when
       u2 = u1 (mod 2), with a = u2/u1 mod n and a = 1 mod 4 (n is odd,
       so such an a exists mod 4n), and otherwise u2 + n, whose point
       2 u2 + 2kr is the shift of 2 u2 by pi, has u1's parity.
    2. sigma_a is one-to-one, so each compared quantity agrees, or is
       zero, at one point of the orbit exactly when it does at every
       other (Washington, Introduction to Cyclotomic Fields, GTM 83,
       ch. 2).
    3. The mismatch of a failure is the conjugate's, another value, so
       only a pass is shared.
    """
    lr, kr = reduced_point(l, k)
    table = _point_checks
    if table is None:
        return check(lr, kr, *rest)
    key, orbit = (kind, lr, kr, *rest), _orbit_key(kind, l, k, *rest)
    if key not in table:
        if orbit in table:
            return table[orbit]
        table[key] = check(lr, kr, *rest)
        if table[key] is None:
            table[orbit] = None
    return table[key]


# -- the half sum and the main modular equation -------------------------


def half_sum(spec: HalfSumSpec, order) -> QExpansion:
    """Sum over the index set of squared log-derivative brackets, over Q.

    Write x_l = l pi/2k, p = (k + delta) mod 2 and
    I = {0 < l < k : l = p (mod 2)}, the index set less l = 0, whose
    bracket is 0.  The brackets at l = p (mod 2) are, by _bracket_data,

        F_l = sum_j (2/(k w_j)) Y_j sin(r_j l pi/k)

    with integer series Y_j, and the sines at the representatives r_j
    are an orthogonal basis of the functions on I with squared norms
    (k/4) w_j.

    Parseval.  Summing the squares over I with these norms,

        sum_{l in I} F_l^2 = sum_j (4/(k^2 w_j^2)) Y_j^2 (k/4) w_j
                           = sum_j (2/w_j) Y_j^2 / (2k),

    whose constant term is T0 = sum_{l in I} tan^2 x_l
    = sum_j (2 tau(r_j))^2 / (k w_j), since Y_j[0] = -2 tau(r_j), and
    2 tau(r) = (-1)^(r+1) (k - 2 r [k = p (mod 2)]) in closed form.
    tan-sum reads only this term: at order 1 the room is 1, and the
    sieve asks for no class.

    Packed squares.  The half sum is sum_j (2/w_j) Y_j^2 over the
    denominator 2k.  By Cauchy-Schwarz, |sum_a Y_j[a] Y_j[n-a]| <= |Y_j|^2,
    the sum of the squares of Y_j's room coefficients, so every lane n of
    sum_j (2/w_j) Y_j^2, at n >= room too, is at most
    sum_j (2/w_j) |Y_j|^2 = sum_a E(a) in absolute value, where
    E(a) = sum_j (2/w_j) Y_j[a]^2.  Each Y_j is packed in q as X_j at a
    lane width b holding that bound, and the sum of the (2/w_j) X_j^2 is
    formed.  Its lanes at n >= room only add a multiple of 2^(b room),
    so one unpack_signed reads the room low lanes, and lane n is 2k
    times the coefficient of q^n.
    """
    order = Fraction(order)
    k = spec.k
    room = math.ceil(order)
    if room <= 0:
        return QExpansion.zero(order)
    _, weights, ys = _bracket_data(k, (k + spec.delta) % 2, room)
    b = lane_width(sum((2 // w) * sum(map(operator.mul, y, y))
                       for y, w in zip(ys, weights)))
    total = 0
    for y, w in zip(ys, weights):
        x = pack_signed(y, b)
        total += (2 // w) * x * x
    vecs = [[c] if c else None for c in unpack_signed(total, b, room)]
    return QExpansion._from_vectors(_ctx(1), 0, vecs, 2 * k, order)


def theorem_rhs(k: int, delta: int, order) -> QExpansion:
    """Eta-quotient side of the modular equation, eta_a = eta(a tau):

    delta=0:  4(k-2) q d/dq log(eta_k / eta_1)
    delta=1:  4 q d/dq log(eta_{2k}^{2k-2} / (eta_1^k eta_k^{k-2}))

    One eta_quotient_log_ddq call with the exponents e_a taken times 4(k-2)
    or 4: {k: 4(k-2), 1: -4(k-2)} and {2k: 8(k-1), 1: -4k, k: -4(k-2)}.
    Since eta_a = q^{a/24} prod (1 - q^{an}), the side is
    sum e_a a/24 - sum_M (sum_{a | M} e_a a sigma(M/a)) q^M (derivation
    there); the exponents are integers, so its denominator is 24.  For
    k = 1 (where 1 and k repeat) and for k = 2, delta = 0 the exponents
    cancel and the side is the zero series.
    """
    if k < 1 or delta not in (0, 1):
        raise ValueError("need k >= 1 and delta in {0, 1}")
    if delta == 0:
        return eta_quotient_log_ddq(((k, 4 * (k - 2)), (1, -4 * (k - 2))), order)
    return eta_quotient_log_ddq(
        ((2 * k, 8 * (k - 1)), (1, -4 * k), (k, -4 * (k - 2))), order)


def verify_theorem(k: int, delta: int, order) -> VerificationReport:
    """half_sum(k, delta) == theorem_rhs(k, delta) exactly below `order`."""
    t0 = time.perf_counter()
    lhs = half_sum(HalfSumSpec(k, delta), order)
    rhs = theorem_rhs(k, delta, order)
    mm = compare(lhs, rhs, order)
    return _finish("theorem", {"k": k, "delta": delta}, order, t0, mm)


# -- lemma-level verifiers ----------------------------------------------


def verify_lemd(k: int, order) -> list[VerificationReport]:
    """Lambert form vs jet ratio of d/dz log theta2, one report per l.

    Cross-multiplied: a1 = S * a0 with (a0, a1) from the theta jet and S
    the Lambert-form series; the two routes are fully independent.  Each
    point is checked by _lemd_at through _checked_once: once per
    _check_scope (a serial run, or a pool task: every lemd job of one
    order) at a given order, and a pass once per Galois orbit.  A point
    whose check raises fails alone.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return [_part("lemd", {"k": k, "l": l}, order,
                  functools.partial(_checked_once, "lemd", l, k, _lemd_at, order))
            for l in range(2 * k) if l != k]


def _lemd_at(lr: int, kr: int, order):
    """verify_lemd's check at the reduced point (lr, kr): the first
    mismatch of a1 = S * a0, or None.

    Both routes work at precision P = order + 1/8, the compare order.
    The one divisor of S = a1/a0 is a0, of q-valuation 1/8, so a1 = S * a0
    below q^P is S = a1/a0 below q^order.  a1 has base 1/8 and precision
    P, and S * a0, with S of base 0 and a0 of base 1/8, has precision
    min(P + 1/8, P) = P: both sides hold every term below q^P.

    A pass covers the orbit (_checked_once has the part of the proof the
    checks share).  Let zeta = e^{i pi/2kr} and x = lr pi/2kr, and write
    S_lr for log_deriv_lambert(lr, kr).
    1. sigma_a sends jet slot j at lr to chi(a)^j times slot j at a lr
       (_meq1_at, step 1).  S_lr is
       -tan x + 4 sum_d (-1)^d sin(2 d x) q^d/(1 - q^d), and with
       i = zeta^{m/4}, 2 sin(e pi/2kr) = i (zeta^{-e} - zeta^e) goes to
       i^a (zeta^{-a e} - zeta^{a e}) = chi(a) 2 sin(a e pi/2kr), while
       2 cos(e pi/2kr) = zeta^e + zeta^{-e} goes to 2 cos(a e pi/2kr).
       So sigma_a sends every sine, and tan x, to chi(a) times its value
       at a x, and S_lr to chi(a) S_{a lr}, coefficient by coefficient,
       and a1 - S a0 at lr to chi(a) (a1 - S a0) at a lr.
    2. A shift by pi negates both jet slots (theta2(z + pi) = -theta2(z))
       and leaves S unchanged: tan x and every sin(2 d x) have period pi.
       So it negates a1 - S a0.
    """
    prec = Fraction(order) + Fraction(1, 8)
    jet = theta2_jet(ThetaPoint(lr, 2 * kr), 1, prec)
    return compare(jet.slot(1), log_deriv_lambert(lr, kr, prec) * jet.slot(0), prec)


def verify_lem2(k: int, delta: int, order, base_den: int = 8) -> VerificationReport:
    """Half product of theta factors vs its eta-quotient closed form.

    Verified at the generic base point z0 = pi/(base_den * k), where both
    sides are nonzero for every parity; conductor 2*base_den*k.  The
    report's `base_den` param holds base_den*k, the denominator of z0
    (renaming it would change every report).  A side
    that is zero below `order` raises ValueError, since 0 = 0 proves
    nothing.  That happens when base_den = 2 with delta = 1 puts the
    factor l = k - 1 and the right side's point at pi/2, a zero of theta2,
    and when order <= k/8, the q-valuation of both sides.

    The left side is the k-fold product itself, not its closed form:
    theta2_product multiplies the k theta series, whose coefficients
    are sums of roots of unity, by shifts in Z[x]/(x^{m/2} + 1) and
    reduces mod Phi_m once (modular.root_product has the proof).  The
    right side's eta quotient eta_1^k/eta_k is one eta_quotient call, an
    integer Euler product with no series product or division.  The right
    side is multiplied in the real subfield K+ of conductor
    lcm(2*base_den, 4), where theta2_jet builds the theta factor: the
    quotient is rational and C = +-1 an int.  compare then embeds both
    sides in Q(zeta_{2*base_den*k}).

    Both sides work at `order` itself, with no margin: the quotient has
    base 0 and precision `order`, and the theta series in q^k base k/8
    and precision `order`, so their product has precision
    min(order + 0, order + k/8) = order; theta2_product's precision is
    order + sum of bases - largest base >= order.
    """
    if k < 1 or delta not in (0, 1):
        raise ValueError("need k >= 1 and delta in {0, 1}")
    if base_den % 2:
        raise ValueError("base_den must be even")
    t0 = time.perf_counter()
    bd = base_den
    lhs = theta2_product([ThetaPoint(1 + (bd // 2) * l, bd * k)
                          for l in range(2 * k) if (l - k) % 2 == delta], order)
    ratio = eta_quotient(((1, k), (k, -1)), order)
    th = theta2_jet(
        ThetaPoint((bd // 2) * (delta - 1) + 1, bd, q_power=k), 0, order
    ).slot(0)
    rhs = th * ratio * halfprod_constant(k, delta)
    for side, series in (("left", lhs), ("right", rhs)):
        if series.truncate(order).is_zero:
            raise ValueError(f"the {side} side is zero below q^{order}")
    mm = compare(lhs, rhs, order)
    return _finish("lem2", {"k": k, "delta": delta, "base_den": bd * k}, order, t0, mm)


def verify_meq1(l: int, k: int, jet_degree: int, order) -> VerificationReport:
    """(d/dz log theta2)^2 == (-8 q d/dq - d2/dz2) log theta2 as jets.

    Also checks the termwise heat cancellation 8 q d/dq f + f'' = 0 at
    the same base point (q unsubstituted).  The point is checked by
    _meq1_at through _checked_once: once per _check_scope (a serial run,
    or a pool task: one orbit) at a given degree and order, and a pass
    once per Galois orbit.
    """
    pt = ThetaPoint(l, 2 * k)
    if pt.is_theta_zero:
        raise ValueError("base point is a zero of the theta series (l = k)")
    if jet_degree < 2:
        raise ValueError("need jet degree >= 2")
    t0 = time.perf_counter()
    hit = _checked_once("meq1", l, k, _meq1_at, jet_degree, order)
    mm, note = (None, "") if hit is None else hit
    return _finish("meq1", {"k": k, "l": l, "J": jet_degree}, order, t0, mm, note)


def _meq1_at(lr: int, kr: int, jet_degree: int, order):
    """verify_meq1's check at the reduced point (lr, kr): None for a pass,
    else (mismatch, note).

    The jet works at precision P = order + 1/8, the least the compare
    needs.  Its slots have base 1/8 and precision P, and the only divisor
    is slot 0, of q-valuation 1/8: the quotients g = f'/f and h_0 =
    (q d/dq f_0)/f_0 have precision P - 1/8, and h_t for t >= 1, which is
    q d/dq g_{t-1} / t (T_of_log), inherits g_{t-1}'s precision P - 1/8.
    So every slot of T_of_log(f) and of the square of g has precision
    P - 1/8, and both sides hold every term below q^order.

    The heat residue is read slot by slot:
    8 q d/dq f_t + (t+1)(t+2) f_{t+2} = 0 for t <= J-2.

    A pass covers the orbit (_checked_once has the part of the proof the
    checks share).  Let zeta = e^{i pi/2kr}, so that slot j of f at lr is
    sum_s (i(2s+1))^j / j! q^{(2s+1)^2/8} zeta^{lr(2s+1)} (theta2_jet).
    1. sigma_a sends zeta^{lr(2s+1)} to zeta^{a lr(2s+1)} and
       i = zeta^{m/4} to i^a = chi(a) i (a is odd).  So it sends slot j
       at lr to chi(a)^j times slot j at a lr, coefficient by coefficient.
    2. theta2(z + pi) = -theta2(z), as zeta^{2kr(2s+1)} = -1: the jet at
       lr + 2kr is minus the jet at lr.
    3. Every quantity compared is built from f by field operations,
       q d/dq and d/dz, each of which commutes with sigma_a.  With
       chi = chi(a) = +-1, slot j times chi^j is the jet of f(chi z), so
       g = f'/f has slot j times chi^(j+1), and g^2, T(log f) and the
       heat residue have slot j times chi^j; -f has the same g, g^2 and
       T(log f) (log(-f) - log f is a constant) and minus the residue.
       So, slot by slot, each side of meq1 and the residue at one point
       of the orbit is a sign times sigma_a of the same slot at another.
    """
    J = jet_degree
    f = theta2_jet(ThetaPoint(lr, 2 * kr), J, Fraction(order) + Fraction(1, 8))
    rhs = T_of_log(f)  # degree J-2; caches f'/f, of degree J-1
    ratio = f.log_dz().truncate(rhs.degree)
    lhs = ratio * ratio
    hit = compare_jets(lhs, rhs, order)
    if hit is not None:
        slot, mm = hit
        return mm, f"slot {slot}"
    for t in range(J - 1):
        if not (f.slot(t).q_ddq() * 8 + f.slot(t + 2) * ((t + 1) * (t + 2))).is_zero:
            return Mismatch(Fraction(0), "nonzero", 0), "heat-equation residue"
    return None


def _lem22_margin(k: int) -> int:
    """Precision lem22 works above the order: the q-valuation it divides by.

    A quotient by a series of valuation v certifies v less than its
    operands.  d2-origin divides by the theta series at 0 (valuation 1/8);
    T-scaled by the theta series in q^k (k/8); both ratio parts by the
    constant slots of the shifted jets at -pi/2 in q^k (k/8) and in q
    (1/8): k/8 at most, so ceil(k/8) suffices.  A margin too small could
    only make a comparison raise PrecisionError, never let a report pass
    below its order.
    """
    return -(-k // 8)


def verify_second_derivatives(k: int, order) -> list[VerificationReport]:
    """The z=0 second-derivative bridges and both operator identities.

    Four parts per k: the plain second log-derivative, the ratio variant
    with the simple zero shifted out, and the two T-operator evaluations
    against their eta combinations.  A part that raises fails alone.

    (log theta)'' at z = 0 is slot 1 of the jet's log_dz, the one jet
    division f'/f: (f'/f)' = 2 a2/a0 - (a1/a0)^2 there.  The ratio parts
    read log(nj/dj) as log nj - log dj: d2-ratio is nj'/nj - dj'/dj, and
    T-ratio is T(log nj) - T(log dj), T being linear in log f.  T_of_log
    reads the same cached log_dz of each jet, so d2-ratio and T-ratio
    share them, and no quotient jet is formed.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    nw = Fraction(order) + _lem22_margin(k)

    def d2_origin():
        f = theta2_jet(ThetaPoint(0, 1), 2, nw)
        rhs = eta_quotient_log_ddq(((1, 8), (2, -16)), nw)
        return compare(f.log_dz().slot(1), rhs, order)

    @functools.cache
    def ratio_jets():
        # the numerator and denominator jets of the ratio, whose log_dz
        # both ratio parts share: each reads slots 0..2 (slot 0 of T
        # depends on slots 0..2 only)
        nj = theta2_jet(ThetaPoint(-1, 2, q_power=k), 3, nw).scale_z(k).shift_zero(1)
        return nj, theta2_jet(ThetaPoint(-1, 2), 3, nw).shift_zero(1)

    def d2_ratio():
        nj, dj = ratio_jets()
        rhs = eta_quotient_log_ddq(((1, 8), (k, -8 * k)), nw)
        return compare(nj.log_dz().slot(1) - dj.log_dz().slot(1), rhs, order)

    def t_scaled():
        g = theta2_jet(ThetaPoint(0, 1, q_power=k), 2, nw).scale_z(k)
        val = T_of_log(g).slot(0)
        rhs = eta_quotient_log_ddq(((2 * k, 16 * (k - 1)), (k, -8 * (k - 1))), nw)
        return compare(val, rhs, order)

    def t_ratio():
        nj, dj = ratio_jets()
        val = T_of_log(nj).slot(0) - T_of_log(dj).slot(0)
        rhs = eta_quotient_log_ddq(((k, 8 * (k - 3)), (1, 16)), nw)
        return compare(val, rhs, order)

    parts = (("d2-origin", d2_origin), ("d2-ratio", d2_ratio),
             ("T-scaled", t_scaled), ("T-ratio", t_ratio))
    return [_part("lem22", {"k": k, "part": name}, order, check)
            for name, check in parts]


def verify_eta_theta_bridges(order) -> list[VerificationReport]:
    """theta2(0,q) = 2 eta_2^2/eta_1 and lim theta2(z-pi/2,q)/z = 2 eta_1^3.

    Each eta side is one eta_quotient call, and both parts work at `order`
    itself: the quotients (base 1/8 for t0) and the theta slots have
    precision `order`, and shift_zero keeps it.  A part that raises fails
    alone.
    """

    def t0():
        lhs = theta2_jet(ThetaPoint(0, 1), 0, order).slot(0)
        return compare(lhs, eta_quotient(((2, 2), (1, -1)), order) * 2, order)

    def t1():
        val = theta2_jet(ThetaPoint(-1, 2), 1, order).shift_zero(1).slot(0)
        return compare(val, eta_quotient(((1, 3),), order) * 2, order)

    return [_part(name, {}, order, check)
            for name, check in (("bridge-t0", t0), ("bridge-t1", t1))]


# -- tangent sums ---------------------------------------------------------


def _tan_square_sum_exact(k: int, delta: int) -> Fraction:
    """Sum of tan^2(l pi/2k) over the half-sum index set, exactly.

    Each bracket of the half sum has constant term -tan(l pi/2k), so this
    sum is the constant term of half_sum(HalfSumSpec(k, delta), 1): a sum
    of integer squares over 2k, by Parseval's identity on the sine basis
    (half_sum gives the proof).
    """
    return Fraction(half_sum(HalfSumSpec(k, delta), 1).coefficient(0))


_TAN_SUM_NOTE = (
    "delta=1 closed form k(k-1)/2; the variant k(k-1)/6 fails enumeration "
    "already at k=2 (tan^2(pi/4) = 1)"
)


def tan_square_sum(k: int, delta: int) -> tuple[Fraction, VerificationReport]:
    """Exact cyclotomic tangent-square sum and its closed-form check.

    Closed forms: (k-1)(k-2)/6 for delta=0 and k(k-1)/2 for delta=1.
    The delta=1 constant is pinned by brute-force index-set enumeration
    and by the constant term of the modular equation itself; see note.
    """
    t0 = time.perf_counter()
    value = _tan_square_sum_exact(k, delta)
    if delta == 0:
        expect = Fraction((k - 1) * (k - 2), 6)
        note = ""
    else:
        expect = Fraction(k * (k - 1), 2)
        note = _TAN_SUM_NOTE
    mm = None if value == expect else Mismatch(Fraction(0), value, expect)
    report = _finish("tan-sum", {"k": k, "delta": delta}, 0, t0, mm, note)
    return value, report


# -- the (3,1) Lambert identity -------------------------------------------


def verify_k3_corollary(order) -> VerificationReport:
    """(1 + 2 sum (q^n+q^2n-q^4n-q^5n)/(1-q^6n))^2 as a divisor-sum series.

    The right side 1 + 4 sum(n q^n/(1-q^n) + n q^3n/(1-q^3n) - 8n q^6n/(1-q^6n))
    is -4 (L_1 + L_3/3 - (4/3) L_6) with L_a = q d/dq log eta(a tau),
    whose constant terms 1/24 + 1/24 - 8/24 give the 1: the log-derivative
    of eta_1^-4 eta_3^(-4/3) eta_6^(16/3), one eta_quotient_log_ddq call
    over the denominator 72.  It comes from that function's sigma sieve
    and not from lambert, so the two sides share no divisor sum.
    """
    t0 = time.perf_counter()
    order = Fraction(order)
    inner = (
        lambert(1, 6, order)
        + lambert(2, 6, order)
        - lambert(4, 6, order)
        - lambert(5, 6, order)
    ) * 2 + 1
    lhs = inner * inner
    rhs = eta_quotient_log_ddq(
        ((1, -4), (3, Fraction(-4, 3)), (6, Fraction(16, 3))), order)
    mm = compare(lhs, rhs, order)
    return _finish("k3", {}, order, t0, mm)


# -- suite orchestration --------------------------------------------------

def _tan_sum_report(k, delta):
    return tan_square_sum(k, delta)[1]


# Each job kind names its verifier, a module attribute that _run_job looks
# up per call, so a rebinding of that attribute (a tracing wrapper, a test's
# stand-in) is what runs.
_SUITE_JOBS = {
    "theorem": "verify_theorem",
    "lemd": "verify_lemd",
    "lem2": "verify_lem2",
    "meq1": "verify_meq1",
    "lem22": "verify_second_derivatives",
    "bridges": "verify_eta_theta_bridges",
    "tan-sum": "_tan_sum_report",
    "k3": "verify_k3_corollary",
}

WHICH_TOKENS = (*_SUITE_JOBS, "all")


def meq1_points(k: int) -> list[int]:
    """Up to five admissible base-point residues l for a given k."""
    return [l for l in range(2 * k) if l != k][:5]


def enumerate_jobs(
    k_min: int,
    k_max: int,
    deltas: tuple[int, ...],
    order: int,
    jet_degree: int,
    which: frozenset[str],
) -> list[tuple[str, dict]]:
    ks = range(k_min, k_max + 1)
    grids = {
        "theorem": [{"k": k, "delta": d, "order": order} for k in ks for d in deltas],
        "lemd": [{"k": k, "order": order} for k in ks],
        "lem2": [{"k": k, "delta": d, "order": order} for k in ks for d in deltas],
        "meq1": [{"k": k, "l": l, "jet_degree": jet_degree, "order": order}
                 for k in ks for l in meq1_points(k)],
        "lem22": [{"k": k, "order": order} for k in ks],
        "bridges": [{"order": order}],
        "tan-sum": [{"k": k, "delta": d} for k in ks for d in deltas],
        "k3": [{"order": order}],
    }
    return [(kind, params) for kind in _SUITE_JOBS
            if kind in which or "all" in which for params in grids[kind]]


# The note of each job a dead pool worker left without a report.
_DEAD_WORKER = "BrokenProcessPool: a worker process died before this job reported"


def _run_job(job) -> list[VerificationReport]:
    """Run one job; an exception it raises becomes one `fail` report."""
    kind, kwargs = job
    t0 = time.perf_counter()
    try:
        out = globals()[_SUITE_JOBS[kind]](**kwargs)
        return out if isinstance(out, list) else [out]
    except Exception as exc:
        return [_raised(*_job_fields(job), t0, exc)]


def _share_key(job):
    """The key of the jobs that can share a point check with this one, or
    None for a job that shares none and runs in a pool task of its own.

    A meq1 job's key is _orbit_key of its arguments, the key under which
    _checked_once stores its pass: two jobs at one reduced_point have one
    orbit, so point reuse falls inside orbit reuse.  A lemd job's key is
    its order: a lemd job checks every orbit of its k, and every k has the
    orbit n = 1 (l = 0), so orbit keys cannot split lemd jobs across
    tasks, and every lemd job of one order is one task.  A job whose key
    cannot be formed from its params (a meq1 or lemd k < 1) fails when it
    runs, in a task of its own.
    """
    kind, kwargs = job
    try:
        if kind == "meq1" and kwargs["k"] >= 1:
            return _orbit_key("meq1", kwargs["l"], kwargs["k"],
                              kwargs["jet_degree"], kwargs["order"])
        if kind == "lemd" and kwargs["k"] >= 1:
            return ("lemd", kwargs["order"])
    except (KeyError, TypeError):
        pass
    return None


def _run_group(batch) -> list[list[VerificationReport]]:
    """One pool task: each job's reports, in order, in one _check_scope of
    its own, so the jobs share point checks whatever the worker's start
    method.  The module attribute _run_job runs once per job."""
    with _check_scope():
        return [_run_job(job) for job in batch]


def run_jobs(jobs, parallelism: int = 1, emit=None) -> list[VerificationReport]:
    """Execute verification jobs, optionally across a process pool.

    Jobs are independent pure computations; results are re-serialized in
    submission order regardless of completion order, and emit sees each
    report as soon as every job before it has reported.  A job that raises
    yields one `fail` report with the exception in its note, so the rest
    of the sweep still runs.  When a pool worker dies (killed, or exiting
    without raising), the reports already received are kept and every
    job not yet reported gets one `fail` report saying so; none is rerun.

    meq1 and lemd check each reduced point once per _check_scope, and a
    passing Galois orbit once.  A serial run is one scope.  The pool sends
    each group of jobs that can share a check (a meq1 orbit, every lemd
    job of one order: _share_key) to one worker as one task, and each task
    is a scope: a run makes the same meq1 and lemd checks on any number of
    workers.  A repeated point still gets its own report, with its own
    params.
    """
    reports: list[VerificationReport] = []

    def add(batch):
        for rep in batch:
            reports.append(rep)
            if emit is not None:
                emit(rep)

    if parallelism <= 1 or len(jobs) <= 1:
        with _check_scope():
            for job in jobs:
                add(_run_job(job))
        return reports
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    groups: dict = {}
    for i, job in enumerate(jobs):
        key = _share_key(job)
        groups.setdefault(i if key is None else key, []).append(i)
    tasks = list(groups.values())  # in the order of their first jobs
    slots: list = [None] * len(jobs)
    done = 0

    def flush():
        nonlocal done
        while done < len(jobs) and slots[done] is not None:
            add(slots[done])
            done += 1

    # a fork pool starts all its workers at the first submit
    with ProcessPoolExecutor(max_workers=min(parallelism, len(tasks))) as pool:
        futures = []
        try:
            for task in tasks:
                futures.append(pool.submit(_run_group, [jobs[i] for i in task]))
        except BrokenProcessPool:
            pass  # the tasks left unsubmitted keep empty slots
        # a task's first job comes after every earlier task's, so taking
        # the tasks in order delays no report
        for task, future in zip(tasks, futures):
            try:
                batches = future.result()
            except BrokenProcessPool:
                continue
            for i, batch in zip(task, batches):
                slots[i] = batch
            flush()
    for i, job in enumerate(jobs):
        if slots[i] is None:
            slots[i] = [_failed(*_job_fields(job), 0.0, _DEAD_WORKER)]
    flush()
    return reports
