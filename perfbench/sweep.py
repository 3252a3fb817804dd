"""One sweep in a fresh interpreter: the process that `run.py` measures.

    python3 perfbench/sweep.py WORKLOAD SEED MODE OUTDIR

MODE is `setup` (import qtheta and build the job list, then stop), `run`
(also run the sweep with per-job timing) or `trace` (as `run`, with every
layer's callables wrapped by `spans.Tracer`).  Every process that runs
jobs, and the set-up, also runs speed reference bursts on a timer (see
`speed.py`); the tracer's clock stands still during them.  The result is written to
OUTDIR/result.json; pool workers write their job spans and trace
snapshots into OUTDIR as well.  qtheta must be importable (run.py puts the
checkout's `src` on PYTHONPATH).
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys

from spans import JobClock, Tracer, now
from speed import SpeedLog
from workloads import WORKLOADS, build_jobs, report_hash


def _cpu(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def _environment(qtheta) -> dict:
    return {
        "python": platform.python_version(),
        "kernel_backend": qtheta.kernel_backend,
        "bignum": "gmpy2" if "gmpy2" in sys.modules else "int",
        "qtheta_file": qtheta.__file__,
    }


def _dump(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _read_worker_traces(outdir: str) -> list[dict]:
    own = f"trace-{os.getpid()}.json"
    out = []
    for entry in sorted(os.listdir(outdir)):
        if entry.startswith("trace-") and entry != own:
            with open(os.path.join(outdir, entry)) as fh:
                out.append(json.load(fh))
    return out


def run_sweep(workload, jobs, outdir: str, traced: bool, speed) -> dict:
    import qtheta.cli
    import qtheta.identities

    tracer = None
    hooks = []
    if traced:
        tracer = Tracer(clock=speed.clock)
        tracer.install()
        hooks.append(lambda pid: _dump(os.path.join(outdir, f"trace-{pid}.json"),
                                       tracer.snapshot()))
    clock = JobClock(outdir, hooks, speed)
    clock.install()

    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = now()
    if workload.workers == 1:
        speed.start()
        reports = qtheta.identities.run_jobs(jobs, 1)
        t1 = now()
        speed.stop()
        exit_code = 0
        objs = [r.to_json_obj() for r in reports]
    else:
        path = os.path.join(outdir, "reports.json")
        exit_code = qtheta.cli.main(workload.cli_argv(path))
        t1 = now()
        with open(path) as fh:
            objs = json.load(fh)
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    speed.burst()  # closes the last stretch of the sweep process
    workers = clock.worker_records()

    result = {
        "t0": t0,
        "t1": t1,
        "wall_s": t1 - t0,
        "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
        # ru_maxrss is in KiB on Linux; the pool workers are reaped children
        "peak_rss_mb": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024,
        "exit_code": exit_code,
        "hashes": [report_hash(o) for o in objs],
        "failed": sum(1 for o in objs if o.get("status") != "pass"),
        "job_spans": clock.spans + [s for w in workers.values() for s in w["spans"]],
        "bursts": {str(os.getpid()): speed.bursts,
                   **{str(pid): w["bursts"] for pid, w in workers.items()}},
        "workers": workload.workers,
    }
    if tracer is not None:
        result["trace"] = [tracer.snapshot()] + _read_worker_traces(outdir)
    clock.uninstall()
    if tracer is not None:
        tracer.uninstall()
    return result


def main(argv) -> int:
    name, seed, mode, outdir = argv
    if mode not in ("setup", "run", "trace"):
        raise SystemExit(f"unknown mode {mode!r}")
    workload = WORKLOADS[name]
    speed = SpeedLog()  # the host's speed during set-up too
    speed.burst()
    speed.start()
    import qtheta
    import qtheta.cli  # noqa: F401  (the same set-up for every workload)

    jobs = build_jobs(workload, int(seed))
    t_ready = now()
    speed.stop()
    speed.burst()  # closes the set-up, and opens the sweep
    result = {"t_ready": t_ready, "jobs": len(jobs), "env": _environment(qtheta),
              "setup_bursts": list(speed.bursts)}
    if mode != "setup":
        result.update(run_sweep(workload, jobs, outdir, mode == "trace", speed))
    _dump(os.path.join(outdir, "result.json"), result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
