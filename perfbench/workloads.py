"""The benchmark's workloads, its correctness digest and its percentile rule.

Each workload is a sweep over (identity, k, delta, order) that a user would
run to certify a range of the paper's identities.  The four are chosen so
that each layer is exercised by one workload and bypassed by another:

* theorem-sweep: packed half-sum squares (`_kernels.convolve_trunc` on
  packed bignums, `_pack`, `_Ctx.reduce_packed`); no series division and
  no jets.
* jet-sweep: series division and z-jets over scalar CyclotomicNumber
  arithmetic (`series._series_div`, `ZJet.div`, `T_of_log`); the object
  path of `convolve_trunc`, not the packed one.
* tan-sum: wide bignum products in Z[x]/(x^4k - 1) (`_tan_square_sum_exact`,
  `split_low`) and one new conductor per k (`cyclotomic_polynomial`); no
  q-series at all.
* pool-all: the CLI over every identity with a two-worker process pool and
  JSON output; the only workload that uses the pool path of `run_jobs`.

The seed permutes the job order of the three serial sweeps; the program
receives only the permuted job list.  pool-all runs the CLI as a user types
it, so its input does not depend on the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    which: tuple[str, ...]
    k_min: int
    k_max: int
    order: int
    jet_degree: int = 4
    deltas: tuple[int, ...] = (0, 1)
    workers: int = 1  # > 1: run through `qtheta.cli.main` with a process pool
    why: str = ""

    def cli_argv(self, output: str) -> list[str]:
        return ["verify", ",".join(self.which), "--k-min", str(self.k_min),
                "--k-max", str(self.k_max), "--order", str(self.order),
                "--jet-degree", str(self.jet_degree), "--jobs", str(self.workers),
                "--format", "json", "--output", output]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("theorem-sweep", ("theorem",), 2, 40, 80,
                 why="packed half-sum squares: convolve_trunc on packed bignums, "
                     "_pack and reduce_packed; no series division, no jets"),
        Workload("jet-sweep", ("meq1", "lem22", "lemd"), 2, 10, 64,
                 why="series division and z-jets over scalar CyclotomicNumber "
                     "arithmetic; convolve_trunc on its object path"),
        Workload("tan-sum", ("tan-sum",), 2, 125, 100,
                 why="wide bignum products in Z[x]/(x^4k-1) and one new conductor "
                     "per k; no q-series at all"),
        Workload("pool-all", ("all",), 2, 10, 64, workers=2,
                 why="the CLI over every identity on a 2-worker process pool with "
                     "JSON output; the only workload on the pool path"),
    )
}


def build_jobs(workload: Workload, seed: int) -> list:
    """The workload's job list from `qtheta.identities.enumerate_jobs`,
    permuted by `seed` for the serial sweeps."""
    from qtheta.identities import enumerate_jobs

    jobs = enumerate_jobs(workload.k_min, workload.k_max, workload.deltas,
                          workload.order, workload.jet_degree,
                          frozenset(workload.which))
    if workload.workers == 1:
        random.Random(seed).shuffle(jobs)
    return jobs


# -- correctness ----------------------------------------------------------


def report_hash(obj: dict) -> str:
    """Hash of one JSON report object with its timing field removed."""
    body = {k: v for k, v in obj.items() if k != "elapsed_ms"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digest(hashes) -> str:
    """Order-independent digest of a collection of report hashes."""
    return hashlib.sha256(",".join(sorted(hashes)).encode()).hexdigest()[:16]


def count_bad(expected: list[str], got: list[str]) -> int:
    """Expected reports that are missing or differ, plus unexpected extras.

    A failing report hashes differently from the passing one the expected
    set holds, so it counts here too.
    """
    remaining: dict[str, int] = {}
    for h in expected:
        remaining[h] = remaining.get(h, 0) + 1
    extra = 0
    for h in got:
        if remaining.get(h):
            remaining[h] -= 1
        else:
            extra += 1
    return sum(remaining.values()) + extra


# -- percentiles ----------------------------------------------------------

MIN_BEYOND = 10
JOB_PERCENTILE = 80


def beyond(n: int, p: float) -> int:
    """Samples above the rank of the p-th percentile of n samples."""
    return n - math.ceil(p / 100 * n)


def highest_percentile(n: int, candidates=(99, 95, 90, 80, 75, 50)) -> int | None:
    """Highest candidate percentile that leaves at least MIN_BEYOND samples
    above it, or None when even the lowest does not."""
    for p in candidates:
        if beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def quantile(values, p: float, steps: int = 32) -> float:
    """Harrell-Davis estimate of the p-th percentile (0 < p < 100).

    A weighted mean of all order statistics with Beta(p(n+1), (1-p)(n+1))
    weights, so the estimate does not jump between neighbouring jobs when
    the job times near the percentile are sparse (Harrell and Davis, "A new
    distribution-free quantile estimator", Biometrika 69, 1982).  The
    weights are integrated with the midpoint rule, `steps` points per rank.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("percentile of no samples")
    if n == 1:
        return xs[0]
    q = p / 100
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    h = 1 / (n * steps)

    def density(x):
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    weights = [sum(density((i * steps + j + 0.5) * h) for j in range(steps))
               for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)
