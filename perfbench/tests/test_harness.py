"""Self-tests of the benchmark harness (not of qtheta).

    python3 -m pytest perfbench/tests
"""

import json
import os
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import qtheta  # noqa: E402
import qtheta.cli  # noqa: E402
from qtheta import _pack, cyclotomic, identities, jets, series  # noqa: E402
from qtheta.identities import enumerate_jobs, run_jobs  # noqa: E402

from spans import TARGETS, JobClock, Tracer, resolve  # noqa: E402
from speed import REFERENCE_S, SpeedLog, burst_time, scaled, segments  # noqa: E402
from workloads import (  # noqa: E402
    JOB_PERCENTILE,
    MIN_BEYOND,
    WORKLOADS,
    beyond,
    build_jobs,
    count_bad,
    digest,
    highest_percentile,
    quantile,
    report_hash,
)


# -- percentile and sample-count rule -------------------------------------


def test_quantile_is_harrell_davis():
    assert quantile(range(1, 11), 50) == pytest.approx(5.5)
    assert quantile(reversed(range(1, 11)), 50) == pytest.approx(5.5)
    assert quantile([7.0] * 5, 80) == pytest.approx(7.0)
    assert quantile([7.0], 80) == 7.0
    # reference values from scipy.stats.beta weights
    xs = [1, 2, 4, 8, 16, 32, 64]
    assert quantile(xs, 50) == pytest.approx(11.2181, abs=1e-2)
    assert quantile(xs, 80) == pytest.approx(40.5268, abs=1e-2)
    # smooth across a gap: one sample moving does not move the median far
    lo, hi = [10.0] * 30 + [20.0] * 31, [10.0] * 31 + [20.0] * 30
    assert abs(quantile(lo, 50) - quantile(hi, 50)) < 2.0


def test_highest_percentile_leaves_ten_samples_beyond():
    assert beyond(61, 80) == 12
    assert beyond(61, 90) == 6
    assert highest_percentile(61) == 80
    assert highest_percentile(117) == 90
    assert highest_percentile(100) == 90
    assert highest_percentile(20) == 50
    assert highest_percentile(19) is None


def test_job_percentile_fits_the_smallest_workload():
    counts = {name: len(build_jobs(w, 0)) for name, w in WORKLOADS.items()}
    assert highest_percentile(min(counts.values())) == JOB_PERCENTILE
    for name, n in counts.items():
        assert beyond(n, JOB_PERCENTILE) >= MIN_BEYOND, name


# -- self time with nested spans ----------------------------------------


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_subtracts_covered_child_intervals():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    ns = {}

    def leaf():
        clock.t += 2

    def mid():
        clock.t += 1
        ns["leaf"]()
        clock.t += 3
        ns["leaf"]()

    def top():
        clock.t += 5
        ns["mid"]()

    def rec(n):
        clock.t += 1
        if n:
            ns["rec"](n - 1)

    for name, fn in (("leaf", leaf), ("mid", mid), ("top", top), ("rec", rec)):
        ns[name] = tr.wrap(name, fn)
    ns["top"]()
    ns["rec"](2)
    assert tr.stats["leaf"] == [2, 4.0, 4.0]
    assert tr.stats["mid"] == [1, 4.0, 8.0]
    assert tr.stats["top"] == [1, 5.0, 13.0]
    # a recursive callable: self time per level, total once for the outermost
    assert tr.stats["rec"] == [3, 3.0, 3.0]
    # all four are top-level (no orchestration parent), so their spans cover
    assert tr.covered[0] == 13.0 + 3.0


def test_hook_time_is_charged_to_no_span_and_orchestration_is_not_covered():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    ns = {}

    def hook(tracer, args):
        clock.t += 10

    def leaf():
        clock.t += 2

    def job():
        clock.t += 1
        ns["leaf"]()

    ns["leaf"] = tr.wrap("leaf", leaf, hook)
    ns["job"] = tr.wrap("qtheta.identities._run_job", job)
    ns["job"]()
    assert tr.stats["leaf"] == [1, 2.0, 2.0]
    assert tr.stats["qtheta.identities._run_job"] == [1, 1.0, 13.0]
    assert tr.covered[0] == 2.0


# -- wrappers reach every import site -------------------------------------


def test_wrappers_reach_every_binding_and_uninstall_restores():
    originals = {path: resolve(module, path)[2] for module, path, _ in TARGETS}
    tr = Tracer()
    tr.install()
    try:
        wrapped = _pack.pack_signed
        assert wrapped is not originals["pack_signed"]
        assert series.pack_signed is wrapped
        assert identities.pack_signed is wrapped
        assert cyclotomic.pack_signed is wrapped
        assert identities.T_of_log is jets.T_of_log is qtheta.T_of_log
        assert jets.T_of_log is not originals["T_of_log"]
        num = cyclotomic.CyclotomicNumber
        assert num.__rmul__ is num.__mul__ is not originals["CyclotomicNumber.__mul__"]
        run_jobs([("meq1", {"k": 3, "l": 1, "jet_degree": 2, "order": 8}),
                  ("theorem", {"k": 5, "delta": 1, "order": 12}),
                  ("tan-sum", {"k": 4, "delta": 0})])
        for name in ("qtheta._pack.pack_signed", "qtheta.jets.T_of_log",
                     "qtheta.identities._tan_square_sum_exact",
                     "qtheta.cyclotomic.CyclotomicNumber.mul",
                     "qtheta.identities._run_job"):
            assert tr.stats[name][0] > 0, name
        assert tr.counters["qtheta._kernels.convolve_trunc.mults"] > 0
    finally:
        tr.uninstall()
    for module, path, _ in TARGETS:
        assert resolve(module, path)[2] is originals[path], path
    assert series.pack_signed is identities.pack_signed is originals["pack_signed"]


# -- the _run_job wrapper survives the fork pool -----------------------------


def test_job_clock_and_tracer_survive_the_fork_pool(tmp_path):
    jobs = enumerate_jobs(2, 5, (0, 1), 10, 4, frozenset({"tan-sum"}))
    tr = Tracer()
    tr.install()
    clock = JobClock(str(tmp_path), [lambda pid: _dump_snapshot(tr, tmp_path, pid)],
                     SpeedLog(every=0.02))
    clock.install()
    try:
        identities._tan_square_sum_exact(3, 1)  # parent state the workers must drop
        reports = run_jobs(jobs, 2)
    finally:
        clock.uninstall()
        tr.uninstall()
    assert len(reports) == len(jobs)
    records = clock.worker_records()
    spans = [s for r in records.values() for s in r["spans"]]
    assert len(spans) == len(jobs)
    assert all(pid != os.getpid() and end >= start for start, end, pid in spans)
    assert clock.spans == [] and clock.speed.bursts == []
    for rec in records.values():  # each worker bursts as it starts
        assert rec["bursts"] and rec["bursts"][0][1] <= min(s[0] for s in rec["spans"])
    snaps = [json.loads(p.read_text()) for p in sorted(tmp_path.glob("trace-*.json"))]
    assert snaps, "no worker wrote a trace snapshot"
    name = "qtheta.identities._tan_square_sum_exact"
    assert sum(s["stats"][name][0] for s in snaps) == len(jobs)
    assert tr.stats[name][0] == 1


def _dump_snapshot(tracer, outdir, pid):
    (outdir / f"trace-{pid}.json").write_text(json.dumps(tracer.snapshot()))


# -- rescaling to the nominal host speed ------------------------------------


def test_speed_timer_bursts_until_stopped():
    log = SpeedLog(every=0.05)
    log.start()
    try:
        end = time.monotonic() + 0.5
        while time.monotonic() < end:
            sum(range(1000))
    finally:
        log.stop()
    count = len(log.bursts)
    assert 5 <= count <= 11
    time.sleep(0.1)
    assert len(log.bursts) == count
    # the span clock stands still during a burst
    c0 = log.clock()
    log.burst()
    b0, b1, _ = log.bursts[-1]
    assert log.clock() - c0 < (b1 - b0) / 2
    assert all(b0 < b1 <= c0 for (b0, b1, _), (c0, _, _) in zip(log.bursts, log.bursts[1:]))


def test_stretches_are_rescaled_by_their_bursts_and_bursts_left_out():
    r = REFERENCE_S
    # host at half speed around [0, 10], at full speed after 12 + r
    bursts = [[-2 * r, 0.0, 0.0], [10.0, 10.0 + 2 * r, 0.0],
              [12.0, 12.0 + r, 0.0]]
    segs = segments(bursts)
    assert scaled(segs, 0.0, 10.0) == pytest.approx(5.0)
    assert scaled(segs, -2.0, -1.0) == pytest.approx(0.5)  # before the first burst
    assert scaled(segs, 13.0, 14.0) == pytest.approx(1.0)  # after the last burst
    # the burst's own time counts nowhere; [10 + 2r, 12] is scaled by the
    # mean factor (0.5 + 1) / 2
    span = (5.0, 12.0 + r)
    assert scaled(segs, *span) == pytest.approx(2.5 + (2 - 2 * r) * 0.75)
    assert burst_time(bursts, *span) == pytest.approx(3 * r)
    with pytest.raises(ValueError):
        segments([])


# -- the digest does not depend on job order -------------------------------


def test_digest_ignores_job_order_and_timing_but_not_content():
    jobs = enumerate_jobs(2, 4, (0, 1), 10, 4, frozenset({"theorem", "tan-sum", "k3"}))
    first = [report_hash(r.to_json_obj()) for r in run_jobs(jobs)]
    second = [report_hash(r.to_json_obj()) for r in run_jobs(list(reversed(jobs)))]
    assert first != second
    assert digest(first) == digest(second)
    assert count_bad(first, second) == 0

    obj = run_jobs(jobs[:1])[0].to_json_obj()
    assert report_hash(obj) == report_hash(dict(obj, elapsed_ms=-1.0))
    assert report_hash(obj) != report_hash(dict(obj, status="fail"))
    tampered = [report_hash(dict(obj, status="fail"))] + first[1:]
    assert count_bad(first, tampered) == 2  # one expected report missing, one extra
    assert count_bad(first, first[1:]) == 1
    assert digest(tampered) != digest(first)


def test_seed_permutes_serial_jobs_only():
    w = WORKLOADS["theorem-sweep"]
    a, b = build_jobs(w, 1), build_jobs(w, 2)
    assert a != b and sorted(map(repr, a)) == sorted(map(repr, b))
    pool = WORKLOADS["pool-all"]
    assert build_jobs(pool, 1) == build_jobs(pool, 2)
