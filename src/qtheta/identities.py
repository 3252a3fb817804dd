"""The verification layer: assemble both sides of each identity and
certify exact coefficient equality to a requested order.

Every check is zero tolerance: comparisons are exact equalities of
rationals or cyclotomic numbers, and a comparison silently below the
requested order is impossible (PrecisionError instead).  Failures are
data (VerificationReport), not exceptions.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from fractions import Fraction

from . import _kernels as K
from ._pack import (
    bignum,
    lane_width,
    pack_signed,
    split_low,
    unpack_signed,
    widen_signed,
)
from .cyclotomic import CyclotomicNumber, _ctx, embed_conductor
from .jets import T_of_log, compare_jets
from .modular import (
    ThetaPoint,
    _bracket_data,
    eta_log_ddq,
    eta_product,
    halfprod_constant,
    log_deriv_lambert,
    theta2_jet,
)
from .series import Mismatch, QExpansion, compare, lambert


class NonRationalError(ArithmeticError):
    """A sum that must collapse to rational coefficients failed to."""


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
    precision_certified: Fraction
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


def _finish(identity, params, order, t0, mm, precision, note="") -> VerificationReport:
    return VerificationReport(
        identity=identity,
        params=params,
        status="pass" if mm is None else "fail",
        first_mismatch=mm,
        elapsed=time.perf_counter() - t0,
        precision_certified=Fraction(precision),
        order=int(order),
        note=note,
    )


# -- the half sum and the main modular equation -------------------------


def half_sum(spec: HalfSumSpec, order) -> QExpansion:
    """Sum over the index set of squared log-derivative brackets.

    Each bracket is the Lambert form of d/dz log theta2(l pi/2k, q); the
    squares are convolved over Q(zeta_4k) with packed coefficient
    vectors, and the sum must collapse to rational coefficients, which
    is asserted (a non-rational residue would disprove the bracket
    decomposition itself).
    """
    order = Fraction(order)
    idx = spec.index_set
    if not idx:
        return QExpansion.zero(order)
    k = spec.k
    room = math.ceil(order)
    acc: list[list[int] | None] = [None] * room
    data = [_bracket_data(l, k, order) for l in idx]
    ctx = data[0][0]
    D = ctx.D
    dcom = math.lcm(*(den for _, den, _ in data))
    for _, den, vecs in data:
        w = [vecs[0]] + [[den * x for x in v] for v in vecs[1:]]
        amax = 1
        for v in w:
            for x in v:
                if x > amax:
                    amax = x
                elif -x > amax:
                    amax = -x
        b = ctx.product_lane(room, amax, amax)
        packed = [pack_signed(v, b) for v in w]
        sq = K.convolve_trunc(packed, packed, room)
        scale = (dcom // den) ** 2
        for mm in range(room):
            x = sq[mm]
            if not x:
                continue
            vec = ctx.reduce_packed(x, b)
            if scale != 1:
                vec = [scale * t for t in vec]
            cur = acc[mm]
            if cur is None:
                acc[mm] = vec
            else:
                for t in range(D):
                    cur[t] += vec[t]
    d2 = dcom * dcom
    coeffs: list = []
    for mm in range(room):
        v = acc[mm]
        if v is None:
            coeffs.append(0)
            continue
        if any(v[1:]):
            raise NonRationalError(
                f"half sum k={k} delta={spec.delta}: coefficient of q^{mm} "
                f"did not reduce to a rational"
            )
        coeffs.append(Fraction(v[0], d2))
    return QExpansion(0, coeffs, order)


def theorem_rhs(k: int, delta: int, order) -> QExpansion:
    """Eta-quotient side of the modular equation.

    delta=0:  4(k-2) q d/dq log(eta_k / eta_1)
    delta=1:  4 q d/dq log(eta_{2k}^{2k-2} / (eta_1^k eta_k^{k-2}))
    """
    if k < 1 or delta not in (0, 1):
        raise ValueError("need k >= 1 and delta in {0, 1}")
    if delta == 0:
        if k == 2:
            return QExpansion.zero(order)
        return (eta_log_ddq(k, order) - eta_log_ddq(1, order)) * (4 * (k - 2))
    return (
        eta_log_ddq(2 * k, order) * (2 * k - 2)
        - eta_log_ddq(1, order) * k
        - eta_log_ddq(k, order) * (k - 2)
    ) * 4


def verify_theorem(k: int, delta: int, order) -> VerificationReport:
    """half_sum(k, delta) == theorem_rhs(k, delta) exactly below `order`.

    If the half sum does not collapse to rational coefficients, the report
    fails with a sentinel mismatch: exponent -1, lhs "non-rational", rhs
    "rational", and the NonRationalError message in its note.
    """
    t0 = time.perf_counter()
    spec = HalfSumSpec(k, delta)
    try:
        lhs = half_sum(spec, order)
    except NonRationalError as exc:
        mm = Mismatch(Fraction(-1), "non-rational", "rational")
        return _finish("theorem", {"k": k, "delta": delta}, order, t0, mm,
                       0, note=str(exc))
    rhs = theorem_rhs(k, delta, order)
    mm = compare(lhs, rhs, order)
    return _finish("theorem", {"k": k, "delta": delta}, order, t0, mm, order)


# -- lemma-level verifiers ----------------------------------------------


def verify_lemd(k: int, order) -> list[VerificationReport]:
    """Lambert form vs jet ratio of d/dz log theta2, one report per l.

    Cross-multiplied: a1 = S * a0 with (a0, a1) from the theta jet and S
    the Lambert-form series; the two routes are fully independent.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    reports = []
    for l in range(2 * k):
        if l == k:
            continue
        t0 = time.perf_counter()
        jet = theta2_jet(ThetaPoint(l, 2 * k), 1, order + 1)
        S = log_deriv_lambert(l, k, order + 1)
        lhs = jet.slot(1)
        rhs = S * jet.slot(0)
        mm = compare(lhs, rhs, Fraction(order) + Fraction(1, 8))
        reports.append(
            _finish("lemd", {"k": k, "l": l}, order, t0, mm, order)
        )
    return reports


def _embed_series(s: QExpansion, M: int) -> QExpansion:
    return s.map_coeffs(
        lambda c: embed_conductor(c, M) if isinstance(c, CyclotomicNumber) else c
    )


def verify_lem2(k: int, delta: int, order, base_den: int = 8) -> VerificationReport:
    """Half product of theta factors vs its eta-quotient closed form.

    Verified at the generic base point z0 = pi/(base_den * k), where both
    sides are nonzero for every parity; conductor 2*base_den*k.
    """
    if k < 1 or delta not in (0, 1):
        raise ValueError("need k >= 1 and delta in {0, 1}")
    if base_den % 2:
        raise ValueError("base_den must be even")
    t0 = time.perf_counter()
    bd = base_den
    margin = k // 24 + 2
    nw = Fraction(order) + margin
    m_full = 2 * bd * k
    lhs = None
    for l in range(2 * k):
        if (l - k) % 2 != delta:
            continue
        a0 = theta2_jet(ThetaPoint(1 + (bd // 2) * l, bd * k), 0, nw).slot(0)
        lhs = a0 if lhs is None else lhs * a0
    e1 = eta_product(1, nw)
    ek = eta_product(k, nw)
    ratio = e1
    for _ in range(k - 1):
        ratio = ratio * e1
    ratio = ratio / ek
    th = theta2_jet(
        ThetaPoint((bd // 2) * (delta - 1) + 1, bd, q_power=k), 0, nw
    ).slot(0)
    rhs = _embed_series(th, m_full) * ratio
    rhs = rhs * embed_conductor(halfprod_constant(k, delta), m_full)
    mm = compare(lhs, rhs, order)
    return _finish(
        "lem2",
        {"k": k, "delta": delta, "base_den": bd * k},
        order,
        t0,
        mm,
        order,
    )


def verify_meq1(l: int, k: int, jet_degree: int, order) -> VerificationReport:
    """(d/dz log theta2)^2 == (-8 q d/dq - d2/dz2) log theta2 as jets.

    Also checks the termwise heat cancellation 8 q d/dq f + f'' = 0 at
    the same base point (q unsubstituted).
    """
    pt = ThetaPoint(l, 2 * k)
    if pt.is_theta_zero:
        raise ValueError("base point is a zero of the theta series (l = k)")
    if jet_degree < 2:
        raise ValueError("need jet degree >= 2")
    t0 = time.perf_counter()
    f = theta2_jet(pt, jet_degree, Fraction(order) + 2)
    ratio = f.log_dz()
    lhs = ratio * ratio
    rhs = T_of_log(f)  # shares f'/f with ratio
    note = ""
    hit = compare_jets(lhs, rhs, order)
    if hit is not None:
        slot, mm = hit
        note = f"slot {slot}"
    else:
        mm = None
        heat = f.q_ddq() * 8 + f.d_dz().d_dz()
        if not heat.is_zero():
            mm = Mismatch(Fraction(0), "nonzero", 0)
            note = "heat-equation residue"
    return _finish(
        "meq1", {"k": k, "l": l, "J": jet_degree}, order, t0, mm, order, note
    )


def verify_second_derivatives(k: int, order) -> list[VerificationReport]:
    """The z=0 second-derivative bridges and both operator identities.

    Four parts per k: the plain second log-derivative, the ratio variant
    with the simple zero shifted out, and the two T-operator evaluations
    against their eta combinations.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    nw = Fraction(order) + 3
    out = []

    def log_d2(jet):
        a0, a1, a2 = jet.slot(0), jet.slot(1), jet.slot(2)
        r1 = a1 / a0
        return (a2 * 2) / a0 - r1 * r1

    t0 = time.perf_counter()
    f = theta2_jet(ThetaPoint(0, 1), 2, nw)
    rhs = (eta_log_ddq(1, nw) - eta_log_ddq(2, nw) * 2) * 8
    mm = compare(log_d2(f), rhs, order)
    out.append(_finish("lem22", {"k": k, "part": "d2-origin"}, order, t0, mm, order))

    t0 = time.perf_counter()
    # one quotient jet for both ratio parts: d2-ratio reads slots 0..2,
    # T-ratio all four, and slot t of a jet quotient depends on slots <= t
    nj = theta2_jet(ThetaPoint(-1, 2, q_power=k), 4, nw).scale_z(k).shift_zero(1)
    dj = theta2_jet(ThetaPoint(-1, 2), 4, nw).shift_zero(1)
    r = nj.div(dj)
    rhs = (eta_log_ddq(1, nw) - eta_log_ddq(k, nw) * k) * 8
    mm = compare(log_d2(r), rhs, order)
    out.append(_finish("lem22", {"k": k, "part": "d2-ratio"}, order, t0, mm, order))

    t0 = time.perf_counter()
    g = theta2_jet(ThetaPoint(0, 1, q_power=k), 4, nw).scale_z(k)
    val = T_of_log(g).slot(0)
    rhs = (eta_log_ddq(2 * k, nw) * 2 - eta_log_ddq(k, nw)) * (8 * (k - 1))
    mm = compare(val, rhs, order)
    out.append(_finish("lem22", {"k": k, "part": "T-scaled"}, order, t0, mm, order))

    t0 = time.perf_counter()
    val = T_of_log(r).slot(0)
    rhs = (eta_log_ddq(k, nw) * (k - 3) + eta_log_ddq(1, nw) * 2) * 8
    mm = compare(val, rhs, order)
    out.append(_finish("lem22", {"k": k, "part": "T-ratio"}, order, t0, mm, order))
    return out


def verify_eta_theta_bridges(order) -> list[VerificationReport]:
    """theta2(0,q) = 2 eta_2^2/eta_1 and lim theta2(z-pi/2,q)/z = 2 eta_1^3."""
    nw = Fraction(order) + 2
    out = []

    t0 = time.perf_counter()
    lhs = theta2_jet(ThetaPoint(0, 1), 0, nw).slot(0)
    e2 = eta_product(2, nw)
    rhs = (e2 * e2) / eta_product(1, nw) * 2
    mm = compare(lhs, rhs, order)
    out.append(_finish("bridge-t0", {}, order, t0, mm, order))

    t0 = time.perf_counter()
    val = theta2_jet(ThetaPoint(-1, 2), 1, nw).shift_zero(1).slot(0)
    e1 = eta_product(1, nw)
    rhs = e1 * e1 * e1 * 2
    mm = compare(val, rhs, order)
    out.append(_finish("bridge-t1", {}, order, t0, mm, order))
    return out


# -- tangent sums ---------------------------------------------------------


def _tan_square_sum_exact(k: int, delta: int) -> Fraction:
    """Sum of tan^2(l pi/2k) over the half-sum index set, in Q(zeta_2k).

    tan^2(l pi/2k) = u/v with u = 2 - y^l - y^-l and v = 2 + y^l + y^-l
    at y = zeta_2k.  The fractions u/v are added pairwise up a tree,
    (n1, d1) + (n2, d2) = (n1 d2 + n2 d1, d1 d2), as packed vectors in
    the cyclic ring Z[y]/(y^2k - 1); an unpaired node goes up a level
    unchanged.  The root is folded to k lanes mod y^k + 1 (a multiple of
    Phi_2k) and reduced once mod Phi_2k, and the rational quotient is
    extracted by coordinate ratio with an exact cross-check.

    Lanes are sized per node: a leaf has l1-norm <= 4, products multiply
    l1-norms, cyclic folding does not raise them, and a numerator over s
    leaves is a sum of s products, so (s+1) 4^s bounds every lane.  A
    child is widened only where its parent's lanes are wider.
    """
    idx = HalfSumSpec(k, delta).index_set
    if not idx:
        return Fraction(0)
    m = 2 * k

    def cyc(x, b):
        # fold lanes >= m back onto the low lanes: x mod y^m - 1
        lo, hi = split_low(x, b, m)
        return lo + hi

    b = lane_width(2 * 4)  # (s+1) 4^s at s = 1
    nodes = []
    for l in idx:
        a = bignum((1 << (b * l)) + (1 << (b * (-l % m))))
        nodes.append((2 - a, 2 + a, 1, b))
    while len(nodes) > 1:
        up = []
        for (n1, d1, s1, b1), (n2, d2, s2, b2) in zip(nodes[::2], nodes[1::2]):
            s = s1 + s2
            b = lane_width((s + 1) * 4**s)
            if b1 < b:
                n1, d1 = widen_signed(n1, b1, b, m), widen_signed(d1, b1, b, m)
            if b2 < b:
                n2, d2 = widen_signed(n2, b2, b, m), widen_signed(d2, b2, b, m)
            up.append((cyc(n1 * d2 + n2 * d1, b), cyc(d1 * d2, b), s, b))
        if len(nodes) % 2:
            up.append(nodes[-1])
        nodes = up
    num, den, _, b = nodes[0]
    ctx = _ctx(m)
    lo, hi = split_low(num, b, k)
    num_vec = ctx.reduce(unpack_signed(lo - hi, b, k))
    lo, hi = split_low(den, b, k)
    den_vec = ctx.reduce(unpack_signed(lo - hi, b, k))
    pivot = next(i for i, c in enumerate(den_vec) if c)
    np_, dp = num_vec[pivot], den_vec[pivot]
    for i in range(ctx.D):
        if num_vec[i] * dp != np_ * den_vec[i]:
            raise NonRationalError(
                f"tan-square sum k={k} delta={delta} is not rational"
            )
    return Fraction(np_, dp)


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
    report = _finish(
        "tan-sum", {"k": k, "delta": delta}, 0, t0, mm, 0, note
    )
    return value, report


# -- the (3,1) Lambert identity -------------------------------------------


def verify_k3_corollary(order) -> VerificationReport:
    """(1 + 2 sum (q^n+q^2n-q^4n-q^5n)/(1-q^6n))^2 as a divisor-sum series.

    The right side 1 + 4 sum(n q^n/(1-q^n) + n q^3n/(1-q^3n) - 8n q^6n/(1-q^6n))
    is -4 (L_1 + L_3/3 - (4/3) L_6) with L_a = eta_log_ddq(a), whose
    constant terms 1/24 + 1/24 - 8/24 give the 1.  It comes from the
    sigma sieve of eta_log_ddq and not from lambert, so the two sides
    share no divisor sum.
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
    rhs = (
        eta_log_ddq(1, order)
        + eta_log_ddq(3, order) / 3
        - eta_log_ddq(6, order) * Fraction(4, 3)
    ) * -4
    mm = compare(lhs, rhs, order)
    return _finish("k3", {}, order, t0, mm, order)


# -- suite orchestration --------------------------------------------------

WHICH_TOKENS = (
    "theorem",
    "lemd",
    "lem2",
    "meq1",
    "lem22",
    "bridges",
    "tan-sum",
    "k3",
    "all",
)


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


# lemd, lem2, meq1 and lem22 run only for k <= SMALL_K_MAX; their cost
# grows fastest with k (conductors up to 16k, jets, series division)
SMALL_K_MAX = 12
SMALL_K_ONLY = ("lemd", "lem2", "meq1", "lem22")


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
    if "all" in which:
        which = frozenset(WHICH_TOKENS) - {"all"}
    jobs: list[tuple[str, dict]] = []
    small_max = min(k_max, SMALL_K_MAX)
    if "theorem" in which:
        for k in range(k_min, k_max + 1):
            for d in deltas:
                jobs.append(("theorem", {"k": k, "delta": d, "order": order}))
    if "lemd" in which:
        for k in range(k_min, small_max + 1):
            jobs.append(("lemd", {"k": k, "order": order}))
    if "lem2" in which:
        for k in range(k_min, small_max + 1):
            for d in deltas:
                jobs.append(("lem2", {"k": k, "delta": d, "order": order}))
    if "meq1" in which:
        for k in range(k_min, small_max + 1):
            for l in meq1_points(k):
                jobs.append(
                    ("meq1", {"k": k, "l": l, "jet_degree": jet_degree, "order": order})
                )
    if "lem22" in which:
        for k in range(k_min, small_max + 1):
            jobs.append(("lem22", {"k": k, "order": order}))
    if "bridges" in which:
        jobs.append(("bridges", {"order": order}))
    if "tan-sum" in which:
        for k in range(k_min, k_max + 1):
            for d in deltas:
                jobs.append(("tan-sum", {"k": k, "delta": d}))
    if "k3" in which:
        jobs.append(("k3", {"order": order}))
    return jobs


def _run_job(job) -> list[VerificationReport]:
    """Run one job; an exception it raises becomes one `fail` report."""
    kind, kwargs = job
    t0 = time.perf_counter()
    try:
        out = globals()[_SUITE_JOBS[kind]](**kwargs)
        return out if isinstance(out, list) else [out]
    except Exception as exc:
        from traceback import extract_tb  # only on failure: keeps import time

        where = extract_tb(exc.__traceback__)[-1]
        return [VerificationReport(
            identity=kind,
            params={n: v for n, v in kwargs.items() if n != "order"},
            status="fail",
            first_mismatch=None,
            elapsed=time.perf_counter() - t0,
            precision_certified=Fraction(0),
            order=int(kwargs.get("order", 0)),
            note=f"{type(exc).__name__}: {exc} (in {where.name}, "
                 f"{os.path.basename(where.filename)}:{where.lineno})",
        )]


def run_jobs(jobs, parallelism: int = 1, emit=None) -> list[VerificationReport]:
    """Execute verification jobs, optionally across a process pool.

    Jobs are independent pure computations; results are re-serialized in
    submission order regardless of completion order.  A job that raises
    yields one `fail` report with the exception in its note, so the rest
    of the sweep still runs.
    """
    reports: list[VerificationReport] = []
    if parallelism <= 1 or len(jobs) <= 1:
        for job in jobs:
            for rep in _run_job(job):
                reports.append(rep)
                if emit is not None:
                    emit(rep)
        return reports
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=parallelism) as pool:
        for batch in pool.map(_run_job, jobs):
            for rep in batch:
                reports.append(rep)
                if emit is not None:
                    emit(rep)
    return reports


def full_suite(
    k_max: int,
    order: int = 100,
    jet_degree: int = 4,
    k_min: int = 1,
    deltas: tuple[int, ...] = (0, 1),
    which: frozenset[str] = frozenset({"all"}),
    parallelism: int = 1,
    emit=None,
) -> list[VerificationReport]:
    jobs = enumerate_jobs(k_min, k_max, deltas, order, jet_degree, which)
    return run_jobs(jobs, parallelism, emit)
