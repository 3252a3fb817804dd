"""Batch front end: configure sweeps, run verifiers, emit reports.

Exit status: 0 when every selected identity verifies, otherwise the
number of failed reports (capped at 125); invalid usage exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from ._kernels import BACKEND as KERNEL_BACKEND
from .identities import WHICH_TOKENS, enumerate_jobs, run_jobs
from .modular import point_orbit, reduced_point
from .selftest import run_selftest

DEFAULT_K_MIN = 2
DEFAULT_K_MAX = 20
DEFAULT_ORDER = 100
DEFAULT_JET_DEGREE = 4


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qtheta",
        description="Exact q-series verification of theta/eta modular equations.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser(
        "verify",
        help="run identity verifiers over a parameter sweep",
        description="Verify the selected identities with exact arithmetic.",
    )
    v.add_argument(
        "which",
        help="comma-separated subset of: " + ", ".join(WHICH_TOKENS),
    )
    v.add_argument("--k-min", type=int, default=None,
                   help=f"lowest k (default {DEFAULT_K_MIN}, clamped to --k-max)")
    v.add_argument("--k-max", type=int, default=DEFAULT_K_MAX,
                   help=f"highest k (default {DEFAULT_K_MAX})")
    v.add_argument("--delta", choices=["0", "1", "both"], default="both",
                   help="parity selector (default both)")
    v.add_argument("--order", type=int, default=DEFAULT_ORDER,
                   help=f"q-expansion order N (default {DEFAULT_ORDER})")
    v.add_argument("--jet-degree", type=int, default=DEFAULT_JET_DEGREE,
                   help=f"z-jet degree J of meq1 (default {DEFAULT_JET_DEGREE})")
    v.add_argument("--jobs", type=int, default=None,
                   help="parallel worker processes (default: QTHETA_JOBS or CPU count)")
    v.add_argument("--format", choices=["text", "json"], default="text",
                   dest="fmt", help="report format (default text)")
    v.add_argument("--output", default=None,
                   help="write the report stream to this path instead of stdout")

    sub.add_parser(
        "selftest",
        help="run the module-level invariant suites",
        description="Run the named invariant groups and report pass/fail.",
    )
    return p


def _usage_error(msg: str) -> int:
    print(f"qtheta verify: error: {msg}", file=sys.stderr)
    return 2


def _resolve_jobs(flag_value: int | None) -> int:
    """Worker count from --jobs, else QTHETA_JOBS, else the CPU count.

    A count that is not a positive integer raises ValueError with the
    usage message.
    """
    if flag_value is not None:
        if flag_value < 1:
            raise ValueError(f"--jobs must be >= 1, got {flag_value}")
        return flag_value
    env = os.environ.get("QTHETA_JOBS", "").strip()
    if not env:
        return os.cpu_count() or 1
    try:
        count = int(env)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"QTHETA_JOBS must be a positive integer, got {env!r}")
    return count


def _summary_lines(reports, elapsed: float) -> list[str]:
    """The stderr summary: totals, time by identity, the distinct base
    points of the meq1 and lemd reports and the Galois orbits of the meq1
    ones, the slowest report, then one line per failing report with its
    reason."""
    failing = [r for r in reports if not r.passed]
    line = (
        f"# {len(reports)} reports, {len(failing)} failures, {elapsed:.1f} s; "
        f"kernel {KERNEL_BACKEND}"
    )
    if reports:
        by_identity: dict[str, list] = {}
        for r in reports:
            count_time = by_identity.setdefault(r.identity, [0, 0.0])
            count_time[0] += 1
            count_time[1] += r.elapsed
        ranked = sorted(by_identity.items(), key=lambda kv: -kv[1][1])
        line += "; time by identity: " + ", ".join(
            f"{name} {n} in {t:.2f} s" for name, (n, t) in ranked
        )
        # a passing meq1 point covers its Galois orbit, so a run checks a
        # passing orbit once on any number of workers; a lemd point is
        # checked once per run serially, and on a pool once per worker
        # that runs a k-chain holding it
        points: dict[str, set] = {"meq1": set(), "lemd": set()}
        orbits = set()
        for r in reports:
            if r.identity in points and "l" in r.params:
                l, k = r.params["l"], r.params["k"]
                points[r.identity].add(reduced_point(l, k))
                if r.identity == "meq1":
                    orbits.add(point_orbit(l, k))
        counted = [f"{name} {len(p)}" for name, p in points.items() if p]
        if orbits:  # meq1 comes first
            counted[0] += f" in {len(orbits)} orbits"
        if counted:
            line += "; points " + ", ".join(counted)
        slow = max(reports, key=lambda r: r.elapsed)
        line += f"; slowest {_label(slow)} {slow.elapsed * 1000:.1f} ms"
    return [line] + [
        f"# fail {_label(r)}: {r.note or r.first_mismatch}" for r in failing
    ]


def _label(report) -> str:
    return " ".join([report.identity] + [f"{k}={v}" for k, v in report.params.items()])


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    if args.command == "selftest":
        return run_selftest(fault=bool(os.environ.get("QTHETA_SELFTEST_FAULT")))

    which = frozenset(tok.strip() for tok in args.which.split(",") if tok.strip())
    if not which:
        return _usage_error("empty identity selection")
    unknown = which - set(WHICH_TOKENS)
    if unknown:
        return _usage_error(
            f"unknown identity selector(s) {sorted(unknown)}; "
            f"choose from {', '.join(WHICH_TOKENS)}"
        )
    if args.k_max < 1:
        return _usage_error("--k-max must be >= 1")
    k_min = args.k_min if args.k_min is not None else min(DEFAULT_K_MIN, args.k_max)
    if k_min < 1:
        return _usage_error("--k-min must be >= 1")
    if k_min > args.k_max:
        return _usage_error(f"--k-min {k_min} exceeds --k-max {args.k_max}")
    if args.order < 1:
        return _usage_error("--order must be >= 1")
    if which & {"meq1", "all"} and args.jet_degree < 2:
        return _usage_error("--jet-degree must be >= 2 for meq1")
    deltas = {"0": (0,), "1": (1,), "both": (0, 1)}[args.delta]
    try:
        jobs = _resolve_jobs(args.jobs)
    except ValueError as exc:
        return _usage_error(str(exc))

    job_list = enumerate_jobs(
        k_min, args.k_max, deltas, args.order, args.jet_degree, which
    )
    try:
        sink = open(args.output, "w") if args.output else sys.stdout
    except OSError as exc:
        return _usage_error(f"cannot open --output {args.output!r}: {exc.strerror}")
    t0 = time.perf_counter()
    try:
        if args.fmt == "text":
            emit = lambda rep: print(rep.text_line(), file=sink, flush=True)
            reports = run_jobs(job_list, jobs, emit=emit)
        else:
            reports = run_jobs(job_list, jobs)
            json.dump([r.to_json_obj() for r in reports], sink, indent=1)
            sink.write("\n")
    finally:
        if args.output:
            sink.close()
    elapsed = time.perf_counter() - t0
    failures = sum(1 for r in reports if not r.passed)
    print("\n".join(_summary_lines(reports, elapsed)), file=sys.stderr)
    return 0 if failures == 0 else min(failures, 125)


if __name__ == "__main__":
    sys.exit(main())
