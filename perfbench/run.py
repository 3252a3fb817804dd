#!/usr/bin/env python3
"""qtheta's benchmark: time a verification sweep end to end, check every
report, and (with --trace 1) break the time down by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it measures the qtheta in `src/` next to this
directory.  Every sweep runs in a fresh interpreter (`sweep.py`), so caches
never carry over from one sweep to the next.

--trace 0: set-up is sampled in several fresh interpreters, then sweeps
  are repeated while they fit in S seconds (at least one).  Medians over
  the repetitions are reported as the end-to-end metrics, with every time
  rescaled to a nominal host speed (see `speed.py`).
--trace 1: one untraced and one traced sweep with the same seed; prints
  per-layer metrics and the tracing overhead.

Every report is checked against `expected.json`, by an order-independent
hash of each report with `elapsed_ms` removed.  A missing, failing or
differing report makes the run incorrect and the exit code 1.  The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import COUNTERS, TARGETS, now  # noqa: E402
from speed import burst_time, scaled, segments  # noqa: E402
from workloads import (  # noqa: E402
    JOB_PERCENTILE,
    WORKLOADS,
    beyond,
    count_bad,
    digest,
    quantile,
)

ROOT = HERE.parent
SETUP_BEFORE, SETUP_AFTER = 4, 3  # set-up samples around the sweeps
DEADLINE_S = 170.0  # the whole run, children included

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "job_ms_p50": "ms",
    f"job_ms_p{JOB_PERCENTILE}": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
    "pool_efficiency": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for _, _, name in TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.total_s"] = "s"
    units["qtheta._pack.pack_signed.lane_bits"] = "bit"
    units["qtheta._kernels.convolve_trunc.mults"] = "count"
    units["qtheta._kernels.convolve_trunc.operand_bits"] = "bit"
    units["qtheta.cyclotomic.ctx.misses"] = "count"
    units["qtheta.cyclotomic.ctx.hit_ratio"] = "ratio"
    units["qtheta.series._series_div.distinct_divisor_ratio"] = "ratio"
    units["qtheta.identities.run_jobs.worker_busy_s"] = "s"
    units["qtheta.identities.run_jobs.worker_idle_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.covered_share"] = "ratio"
    return units


class ChildFailed(Exception):
    pass


class Runner:
    """Starts sweep children in fresh interpreters, one at a time."""

    def __init__(self, workload: str, seed: int, tmp: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.deadline = deadline
        self.count = 0
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        env["PYTHONHASHSEED"] = "0"
        self.env = env

    def child(self, mode: str) -> dict:
        self.count += 1
        outdir = self.tmp / f"{self.count:03d}-{mode}"
        outdir.mkdir()
        cmd = [sys.executable, str(HERE / "sweep.py"), self.workload,
               str(self.seed), mode, str(outdir)]
        t_spawn = now()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                stdout=sys.stderr, start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, self.deadline - now()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise ChildFailed(f"{mode} sweep did not finish before the deadline")
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        result_path = outdir / "result.json"
        if code != 0 or not result_path.is_file():
            raise ChildFailed(f"{mode} sweep exited with code {code}")
        result = json.loads(result_path.read_text())
        result["t_spawn"] = t_spawn
        result["setup_s"] = result["t_ready"] - t_spawn
        src = str(ROOT / "src")
        if not result["env"]["qtheta_file"].startswith(src + os.sep):
            raise ChildFailed(f"imported {result['env']['qtheta_file']}, not {src}")
        return result


class Check:
    """Tallies reports against the expected set across every sweep of a run."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.bad = 0
        self.problems: list[str] = []

    def lost(self, reason: str) -> None:
        """A sweep that produced no reports: all of them count as missing."""
        self.attempted += len(self.expected["hashes"])
        self.bad += len(self.expected["hashes"])
        self.problems.append(reason)

    def sweep(self, result: dict, label: str) -> None:
        want = self.expected["hashes"]
        self.attempted += len(want)
        bad = count_bad(want, result["hashes"])
        self.bad += bad
        got = digest(result["hashes"])
        if bad or got != self.expected["digest"]:
            self.problems.append(
                f"{label}: {bad} missing, failing or differing of {len(want)} "
                f"reports ({result['failed']} failed); digest {got}, "
                f"expected {self.expected['digest']}")
        if result["exit_code"] != 0:
            self.problems.append(f"{label}: CLI exit code {result['exit_code']}")
        if len(result["job_spans"]) != result["jobs"]:
            self.problems.append(f"{label}: {len(result['job_spans'])} job timings "
                                 f"for {result['jobs']} jobs")

    @property
    def correct(self) -> bool:
        return not self.problems and self.attempted > 0


def rescale(result: dict) -> dict:
    """A sweep's times rescaled to the nominal host speed (`speed.py`).

    Each job is rescaled by the bursts its own process ran; the sweep's wall
    and CPU time, with the bursts' time taken out, by the jobs' mean
    factor.  Bursts in a pool worker delay the sweep only while the worker
    runs a job, and the workers run side by side, so a sweep's wall time
    loses the burst time inside jobs divided by the number of workers.
    """
    segs = {pid: segments(b) for pid, b in result["bursts"].items()}
    jobs, unscaled_jobs, in_jobs = [], 0.0, 0.0  # in_jobs: burst time inside jobs
    for start, end, pid in result["job_spans"]:
        jobs.append(scaled(segs[str(pid)], start, end))
        inside = burst_time(result["bursts"][str(pid)], start, end)
        unscaled_jobs += end - start - inside
        in_jobs += inside
    factor = sum(jobs) / unscaled_jobs
    t0, t1 = result["t0"], result["t1"]
    burst_cpu = sum(cpu for bs in result["bursts"].values()
                    for start, _, cpu in bs if t0 <= start <= t1)
    unscaled = result["wall_s"] - in_jobs / result["workers"]
    wall = unscaled * factor
    return {
        "factor": factor,
        "unscaled_wall_s": unscaled,
        "unscaled_busy_s": unscaled_jobs,
        "wall_s": wall,
        "cpu_s": (result["cpu_s"] - burst_cpu) * factor,
        "job_ms": [j * 1000 for j in jobs],
        "pool_efficiency": sum(jobs) / (result["workers"] * wall),
    }


def scaled_setup(result: dict) -> float:
    """Set-up time rescaled by the bursts the child ran during it."""
    return scaled(segments(result["setup_bursts"]), result["t_spawn"], result["t_ready"])


def end_to_end(reps: list[dict], setup: list[float], check: Check) -> dict:
    scaled_reps = [rescale(r) for r in reps]

    def med(fn):
        return statistics.median(fn(r) for r in scaled_reps)

    return {
        "wall_s": med(lambda r: r["wall_s"]),
        "cpu_s": med(lambda r: r["cpu_s"]),
        "job_ms_p50": med(lambda r: quantile(r["job_ms"], 50)),
        f"job_ms_p{JOB_PERCENTILE}": med(lambda r: quantile(r["job_ms"], JOB_PERCENTILE)),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "pass_ratio": 1 - check.bad / check.attempted,
        "pool_efficiency": med(lambda r: r["pool_efficiency"]),
    }


def per_layer(plain: dict, traced: dict) -> dict:
    """Per-layer metrics of a traced sweep, summed over its processes."""
    out = {}
    for _, _, name in TARGETS:
        calls = self_s = total_s = 0
        for snap in traced["trace"]:
            c, s, t = snap["stats"].get(name, (0, 0.0, 0.0))
            calls, self_s, total_s = calls + c, self_s + s, total_s + t
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
        out[f"{name}.total_s"] = total_s
    counts = dict.fromkeys(COUNTERS, 0)
    hits = misses = 0
    covered = 0.0
    for snap in traced["trace"]:
        for key in COUNTERS:
            counts[key] += snap["counters"][key]
        hits += snap["ctx_hits"]
        misses += snap["ctx_misses"]
        covered += snap["covered_s"]
    divisions = counts["qtheta.series._series_div.divisions"]
    distinct = counts["qtheta.series._series_div.distinct_divisors"]
    workers = traced["workers"]
    scaled_traced = rescale(traced)
    wall = scaled_traced["unscaled_wall_s"]
    busy = scaled_traced["unscaled_busy_s"]
    out.update({
        "qtheta._pack.pack_signed.lane_bits": counts["qtheta._pack.pack_signed.lane_bits"],
        "qtheta._kernels.convolve_trunc.mults": counts["qtheta._kernels.convolve_trunc.mults"],
        "qtheta._kernels.convolve_trunc.operand_bits":
            counts["qtheta._kernels.convolve_trunc.operand_bits"],
        "qtheta.cyclotomic.ctx.misses": misses,
        "qtheta.cyclotomic.ctx.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "qtheta.series._series_div.distinct_divisor_ratio":
            distinct / divisions if divisions else 0.0,
        "qtheta.identities.run_jobs.worker_busy_s": busy,
        "qtheta.identities.run_jobs.worker_idle_s": workers * wall - busy,
        "trace.overhead_s": scaled_traced["wall_s"] - rescale(plain)["wall_s"],
        "trace.covered_share": covered / (workers * wall),
    })
    return out


def read_loadavg() -> str:
    try:
        with open("/proc/loadavg") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return "unavailable"


def environment_flags(env: dict, baseline: dict) -> list[str]:
    flags = []
    for key in ("python", "kernel_backend", "bignum", "cpu_count"):
        if key in baseline and env.get(key) != baseline[key]:
            flags.append(f"{key} is {env.get(key)}, baseline has {baseline[key]}")
    for when in ("loadavg_start", "loadavg_end"):
        try:
            one_min = float(env[when].split()[0])
        except (ValueError, IndexError):
            continue
        # the benchmark itself keeps up to cpu_count CPUs busy (pool-all)
        if one_min > (env["cpu_count"] or 1) + 1:
            flags.append(f"{when} {one_min} exceeds the CPU count + 1: the box is loaded")
    return flags


def measure(args, runner: Runner, check: Check):
    """Run the sweeps; returns (environment, metrics, notes)."""
    warm = runner.child("setup")  # fills the bytecode cache; not timed
    notes = []
    if args.trace:
        plain = runner.child("run")
        check.sweep(plain, "untraced sweep")
        traced = runner.child("trace")
        check.sweep(traced, "traced sweep")
        if digest(traced["hashes"]) != digest(plain["hashes"]):
            check.problems.append("traced and untraced digests differ")
        metrics = per_layer(plain, traced)
        notes.append(f"digest {digest(traced['hashes'])} traced, "
                     f"{digest(plain['hashes'])} untraced")
        return warm["env"], metrics, notes

    # set-up is sampled before and after the sweeps, so that one slow moment
    # of the machine does not set every sample
    setup = [scaled_setup(runner.child("setup")) for _ in range(SETUP_BEFORE)]
    reps: list[dict] = []
    start = now()
    while True:
        rep = runner.child("run")
        check.sweep(rep, f"sweep {len(reps) + 1}")
        reps.append(rep)
        setup.append(scaled_setup(rep))
        typical = statistics.median(r["wall_s"] + r["setup_s"] for r in reps)
        elapsed = now() - start
        if elapsed + typical > args.seconds or now() + typical > runner.deadline - 5:
            break
    setup += [scaled_setup(runner.child("setup")) for _ in range(SETUP_AFTER)]
    metrics = end_to_end(reps, setup, check)
    n = len(reps[0]["job_spans"])
    notes.append(f"{len(reps)} sweep(s) of {n} jobs; job_ms_p{JOB_PERCENTILE} leaves "
                 f"{beyond(n, JOB_PERCENTILE)} jobs beyond it; {len(setup)} set-up samples")
    notes.append(f"fail_ratio {check.bad / check.attempted} ratio "
                 f"({check.bad} of {check.attempted} reports)")
    notes.append(f"digest {digest(reps[0]['hashes'])}")
    notes.append("unscaled wall_s "
                 + " ".join(f"{rescale(r)['unscaled_wall_s']:.4f}" for r in reps)
                 + "; host speed factor "
                 + " ".join(f"{rescale(r)['factor']:.4f}" for r in reps))
    return warm["env"], metrics, notes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "qtheta" / "__init__.py").is_file():
        print(f"perfbench: no qtheta sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text())[args.workload]
    baseline_path = HERE / "baseline.json"
    baseline = (json.loads(baseline_path.read_text()).get("environment", {})
                if baseline_path.is_file() else {})

    deadline = now() + DEADLINE_S
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True)
    check = Check(expected)
    env: dict = {"loadavg_start": read_loadavg(), "cpu_count": os.cpu_count()}
    metrics: dict = {}
    notes: list[str] = []
    try:
        child_env, metrics, notes = measure(args, Runner(args.workload, args.seed, tmp,
                                                         deadline), check)
        env.update(child_env)
    except ChildFailed as exc:
        check.lost(str(exc))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    env["loadavg_end"] = read_loadavg()
    env.pop("qtheta_file", None)
    env["flags"] = environment_flags(env, baseline)

    units = per_layer_units() if args.trace else END_TO_END_UNITS
    print(f"# perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    for flag in env["flags"]:
        print(f"# WARNING: {flag}")
    for note in notes:
        print("# " + note)
    for problem in check.problems:
        print("# FAIL: " + problem)
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(json.dumps({
        "correct": check.correct,
        "attempted": check.attempted,
        "failed": check.bad,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if check.correct else 1


if __name__ == "__main__":
    sys.exit(main())
