"""Which identities catch a fault in which layer: one deterministic fault
per layer, each monkeypatched into one function, and the failing reports
of one small sweep per identity, pinned as one table.

A row of zeros is a layer fault that no identity catches: series
division and T_of_log, which no verifier reads (meq1 takes the product
form, lem22 compares its sides multiplied out), and an inverse off by a
rational factor, which division folds into both of its operands.  The
selftest's division round trips catch the first; only the inverse
contract tests of tests/test_cyclotomic.py catch the last.  A change that moves a fault's catchers
changes its row here, and README's fault table shows MATRIX as it is
(test_readme_table_is_the_matrix).
"""

import re
from collections import Counter
from pathlib import Path

import pytest

from qtheta import _kernels, cyclotomic, identities, jets, modular, series
from qtheta.identities import enumerate_jobs, run_jobs
from qtheta.jets import ZJet
from qtheta.selftest import run_selftest

IDENTITIES = ("theorem", "lemd", "lem2", "meq1", "lem22", "bridges", "tan-sum", "k3")


def _patch(monkeypatch, modules, name, fault):
    """fault(real) in place of the attribute `name` of every module, each
    of which binds the same function."""
    real = getattr(modules[0], name)
    for module in modules:
        monkeypatch.setattr(module, name, fault(real))


def _series_div(monkeypatch):
    # every series quotient, plus 1
    def fault(real):
        return lambda a, b: real(a, b) + 1
    _patch(monkeypatch, (series, jets), "_series_div", fault)


def _split_low(monkeypatch):
    # the high lanes negated
    def fault(real):
        def negated(x, b, d):
            low, high = real(x, b, d)
            return low, -high
        return negated
    _patch(monkeypatch, (modular,), "split_low", fault)


def _convolve_trunc(monkeypatch):
    # a square (b is a) without its diagonal a_i^2
    def fault(real):
        def off_diagonal(a, b, n):
            out = real(a, b, n)
            if b is a:
                for i, x in enumerate(a[:(n + 1) // 2]):
                    out[2 * i] -= x * x
            return out
        return off_diagonal
    _patch(monkeypatch, (_kernels,), "convolve_trunc", fault)


def _theta_terms(monkeypatch):
    # the last term dropped
    def fault(real):
        return lambda pt, room: list(real(pt, room))[:-1]
    _patch(monkeypatch, (modular,), "_theta_terms", fault)


def _inverse(monkeypatch):
    # (2L, n): twice the inverse
    def fault(real):
        def doubled(self, vec):
            L, n = real(self, vec)
            return [2 * x for x in L], n
        return doubled
    _patch(monkeypatch, (cyclotomic._Ctx,), "inverse", fault)


def _t_of_log(monkeypatch):
    # +8 h in place of -8 h: -T - 2 d/dz g is 8 h - d/dz g, slot by slot
    def fault(real):
        def flipped(f):
            t = real(f)
            return -t - f.log_dz().d_dz().truncate(t.degree) * 2
        return flipped
    _patch(monkeypatch, (jets,), "T_of_log", fault)


def _theta2_jet(monkeypatch):
    # every odd slot negated
    def fault(real):
        def negated(pt, degree, order):
            f = real(pt, degree, order)
            return ZJet([-c if j % 2 else c for j, c in enumerate(f.coeffs)])
        return negated
    _patch(monkeypatch, (modular, identities), "theta2_jet", fault)


def _bracket_data(monkeypatch):
    # the sieve's sign (-1)^d taken as (-1)^(d+1): every Y_j past q^0 negated
    def fault(real):
        def flipped(k, p, room):
            reps, weights, ys = real(k, p, room)
            return reps, weights, [y[:1] + [-x for x in y[1:]] for y in ys]
        return flipped
    _patch(monkeypatch, (modular, identities), "_bracket_data", fault)


def _root_product(monkeypatch):
    # the sign of the first factor's first monomial flipped
    def fault(real):
        def flipped(m, factors, room):
            factors = [list(f) for f in factors]
            o, s, e = factors[0][0]
            factors[0][0] = (o, -s, e)
            return real(m, factors, room)
        return flipped
    _patch(monkeypatch, (modular,), "root_product", fault)


def _eta_quotient(monkeypatch):
    # the first exponent plus 1
    def fault(real):
        def raised(exponents, order):
            (alpha, e), *rest = exponents
            return real(((alpha, e + 1), *rest), order)
        return raised
    _patch(monkeypatch, (modular, identities), "eta_quotient", fault)


def _halfprod_constant(monkeypatch):
    # the constant negated
    def fault(real):
        return lambda k, delta: -real(k, delta)
    _patch(monkeypatch, (modular, identities), "halfprod_constant", fault)


def _lambert_exponent(monkeypatch):
    # the Lambert form's sieve reads the cosine class of e + k for c_e
    def fault(real):
        return lambda e, k: real(e + k, k)
    _patch(monkeypatch, (modular,), "_cosine_class", fault)


# per fault, the failing reports of each identity, in IDENTITIES order,
# of the sweep enumerate_jobs(2, 8, (0, 1), 30, 4, every identity): 169
# reports, of them 14 theorem, 63 lemd, 14 lem2, 33 meq1, 28 lem22,
# 2 bridges, 14 tan-sum and 1 k3
MATRIX = {
    "series._series_div": (0, 0, 0, 0, 0, 0, 0, 0),
    "jets.T_of_log": (0, 0, 0, 0, 0, 0, 0, 0),
    "modular.theta2_jet": (0, 56, 0, 0, 0, 1, 0, 0),
    "modular._bracket_data": (13, 0, 0, 0, 0, 0, 0, 0),
    "modular._cosine_class": (0, 63, 0, 33, 0, 0, 0, 0),
    "modular.root_product": (0, 0, 14, 0, 0, 0, 0, 0),
    "modular.eta_quotient": (0, 0, 14, 0, 0, 2, 0, 0),
    "modular.halfprod_constant": (0, 0, 14, 0, 0, 0, 0, 0),
    "_pack.split_low": (0, 0, 14, 0, 0, 0, 0, 0),
    "_kernels.convolve_trunc": (0, 0, 0, 33, 0, 0, 0, 1),
    "modular._theta_terms": (0, 56, 14, 0, 28, 2, 0, 0),
    "cyclotomic._Ctx.inverse": (0, 0, 0, 0, 0, 0, 0, 0),
}
FAULTS = {
    "series._series_div": _series_div,
    "jets.T_of_log": _t_of_log,
    "modular.theta2_jet": _theta2_jet,
    "modular._bracket_data": _bracket_data,
    "modular._cosine_class": _lambert_exponent,
    "modular.root_product": _root_product,
    "modular.eta_quotient": _eta_quotient,
    "modular.halfprod_constant": _halfprod_constant,
    "_pack.split_low": _split_low,
    "_kernels.convolve_trunc": _convolve_trunc,
    "modular._theta_terms": _theta_terms,
    "cyclotomic._Ctx.inverse": _inverse,
}


def _failures() -> tuple:
    reports = run_jobs(enumerate_jobs(2, 8, (0, 1), 30, 4, frozenset({"all"})))
    assert len(reports) == 169
    failed = Counter("bridges" if r.identity.startswith("bridge-") else r.identity
                     for r in reports if not r.passed)
    return tuple(failed[name] for name in IDENTITIES)


def test_sweep_passes_without_a_fault():
    assert _failures() == (0,) * len(IDENTITIES)


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fault_matrix_row(monkeypatch, fault):
    FAULTS[fault](monkeypatch)
    assert _failures() == MATRIX[fault]


def test_selftest_catches_a_series_division_fault(monkeypatch):
    # no report divides, so the selftest's division round trips are what
    # catch a fault in series division
    assert run_selftest(out=lambda line: None) == 0
    _series_div(monkeypatch)
    assert run_selftest(out=lambda line: None) == 1


def test_readme_table_is_the_matrix():
    # README's fault table, one row per fault: `layer.name`: what the fault
    # does | failing reports per identity, in IDENTITIES order
    text = (Path(__file__).parents[1] / "README.md").read_text()
    header = "| fault | " + " | ".join(IDENTITIES) + " |"
    assert text.count(header) == 1
    rows = {}
    for line in text.split(header)[1].splitlines()[2:]:
        if not line.startswith("|"):
            break
        cells = [c.strip() for c in line.strip("|").split("|")]
        name = re.match(r"`([\w.]+)`", cells[0]).group(1)
        assert name not in rows
        rows[name] = tuple(int(c) for c in cells[1:])
    assert list(rows.items()) == list(MATRIX.items())
