"""Spans recorded from outside the program, by wrapping its public callables.

Nothing here edits qtheta: `Tracer.install` replaces every binding of a
target callable (module attributes in every loaded ``qtheta`` module, and
class attributes for methods) with a timing wrapper, and `uninstall` puts
the originals back.  Because the wrapper replaces the binding, callers that
imported the name (``from ._pack import pack_signed``) and callers that look
it up through the module (``K.convolve_trunc``) are both reached.

Self time of a span is its duration minus the part covered by the spans it
caused; it is accumulated online, so no per-call records are kept.  Total
time is counted for the outermost active call of a name only, so a
recursive callable is not counted twice.

Worker processes of the fork pool inherit the wrappers.  `os.register_at_fork`
clears the inherited state in the child, and `JobClock` makes each worker
write its job spans (and the tracer's snapshot) after every job, because a
pool worker exits without running ``atexit`` handlers.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# Cross-process timestamps (job spans, set-up) use the system-wide monotonic
# clock; in-process spans use perf_counter.
now = time.monotonic

ORCHESTRATION = ("qtheta.identities.run_jobs", "qtheta.identities._run_job",
                 "qtheta.cli.main")

# (module, attribute path, metric name).  A method is named by its class and
# method; `CyclotomicNumber.mul` and `ZJet.mul` are the `__mul__` operators.
TARGETS = (
    ("qtheta._pack", "pack_signed", "qtheta._pack.pack_signed"),
    ("qtheta._pack", "unpack_signed", "qtheta._pack.unpack_signed"),
    ("qtheta._pack", "split_low", "qtheta._pack.split_low"),
    ("qtheta._kernels", "convolve_trunc", "qtheta._kernels.convolve_trunc"),
    ("qtheta._kernels", "convolve", "qtheta._kernels.convolve"),
    ("qtheta._kernels", "cyclo_rem", "qtheta._kernels.cyclo_rem"),
    ("qtheta._kernels", "scaled_add", "qtheta._kernels.scaled_add"),
    ("qtheta.cyclotomic", "_Ctx.reduce_packed", "qtheta.cyclotomic._Ctx.reduce_packed"),
    ("qtheta.cyclotomic", "_Ctx.mul_vec", "qtheta.cyclotomic._Ctx.mul_vec"),
    ("qtheta.cyclotomic", "_Ctx.reduce", "qtheta.cyclotomic._Ctx.reduce"),
    ("qtheta.cyclotomic", "CyclotomicNumber.__mul__", "qtheta.cyclotomic.CyclotomicNumber.mul"),
    ("qtheta.cyclotomic", "CyclotomicNumber.invert", "qtheta.cyclotomic.CyclotomicNumber.invert"),
    ("qtheta.cyclotomic", "cyclotomic_polynomial", "qtheta.cyclotomic.cyclotomic_polynomial"),
    ("qtheta.series", "_series_mul", "qtheta.series._series_mul"),
    ("qtheta.series", "_series_div", "qtheta.series._series_div"),
    ("qtheta.series", "compare", "qtheta.series.compare"),
    ("qtheta.jets", "ZJet.div", "qtheta.jets.ZJet.div"),
    ("qtheta.jets", "ZJet.__mul__", "qtheta.jets.ZJet.mul"),
    ("qtheta.jets", "T_of_log", "qtheta.jets.T_of_log"),
    ("qtheta.modular", "theta2_jet", "qtheta.modular.theta2_jet"),
    ("qtheta.modular", "_bracket_data", "qtheta.modular._bracket_data"),
    ("qtheta.modular", "eta_product", "qtheta.modular.eta_product"),
    ("qtheta.modular", "eta_log_ddq", "qtheta.modular.eta_log_ddq"),
    ("qtheta.identities", "half_sum", "qtheta.identities.half_sum"),
    ("qtheta.identities", "theorem_rhs", "qtheta.identities.theorem_rhs"),
    ("qtheta.identities", "_tan_square_sum_exact", "qtheta.identities._tan_square_sum_exact"),
    ("qtheta.identities", "verify_theorem", "qtheta.identities.verify_theorem"),
    ("qtheta.identities", "verify_lemd", "qtheta.identities.verify_lemd"),
    ("qtheta.identities", "verify_lem2", "qtheta.identities.verify_lem2"),
    ("qtheta.identities", "verify_meq1", "qtheta.identities.verify_meq1"),
    ("qtheta.identities", "verify_second_derivatives",
     "qtheta.identities.verify_second_derivatives"),
    ("qtheta.identities", "run_jobs", "qtheta.identities.run_jobs"),
    ("qtheta.identities", "_run_job", "qtheta.identities._run_job"),
    ("qtheta.cli", "main", "qtheta.cli.main"),
)

COUNTERS = (
    "qtheta._pack.pack_signed.lane_bits",
    "qtheta._kernels.convolve_trunc.mults",
    "qtheta._kernels.convolve_trunc.operand_bits",
    "qtheta.series._series_div.divisions",
    "qtheta.series._series_div.distinct_divisors",
)


def resolve(module: str, path: str):
    """(owner, attribute name, current value) of a dotted attribute path."""
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


class Patches:
    """Replaces every binding of a callable and restores them on `undo`."""

    def __init__(self):
        self._done: list[tuple[object, str, object]] = []

    def replace(self, owner, original, wrapper) -> int:
        """Rebind `original` to `wrapper` wherever it is bound.

        For a class owner only the class namespace is scanned (so ``__rmul__``
        follows ``__mul__``); otherwise every loaded ``qtheta`` module is.
        Returns the number of bindings replaced.
        """
        if isinstance(owner, type):
            owners = [owner]
        else:
            owners = [mod for name, mod in sorted(sys.modules.items())
                      if mod is not None and (name == "qtheta" or name.startswith("qtheta."))]
        hits = 0
        for obj in owners:
            for attr, value in list(vars(obj).items()):
                if value is original:
                    setattr(obj, attr, wrapper)
                    self._done.append((obj, attr, original))
                    hits += 1
        return hits

    def undo(self) -> None:
        while self._done:
            obj, attr, original = self._done.pop()
            setattr(obj, attr, original)


def _bits(x) -> int:
    """Size of a ring element in bits: int, gmpy2 mpz, Fraction or
    CyclotomicNumber (its coordinates over one denominator)."""
    if hasattr(x, "bit_length"):
        return x.bit_length()
    if hasattr(x, "_num"):
        return sum(c.bit_length() for c in x._num) + x._den.bit_length()
    return x.numerator.bit_length() + x.denominator.bit_length()


def convolve_trunc_work(a, b, n) -> tuple[int, int]:
    """(products, operand bits) that the truncated schoolbook product performs.

    Mirrors the kernel's loop: a product a[i]*b[j] is formed for i + j < n
    when both factors are nonzero.
    """
    lb = len(b)
    nz_prefix = [0]
    bits_prefix = [0]
    for y in b:
        if y:
            nz_prefix.append(nz_prefix[-1] + 1)
            bits_prefix.append(bits_prefix[-1] + _bits(y))
        else:
            nz_prefix.append(nz_prefix[-1])
            bits_prefix.append(bits_prefix[-1])
    mults = 0
    bits = 0
    for i, x in enumerate(a):
        if i >= n:
            break
        if not x:
            continue
        jmax = min(lb, n - i)
        cnt = nz_prefix[jmax]
        mults += cnt
        bits += _bits(x) * cnt + bits_prefix[jmax]
    return mults, bits


class Tracer:
    """Per-callable call count, self time and total time, plus work counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, list] = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.covered = [0.0]
        self._stack: list[list] = []
        self._depths: list[list[int]] = []
        self._divisors: set = set()
        self._ctx_base = (0, 0)
        self._patches = Patches()

    # -- state -----------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (in place: wrappers hold refs)."""
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0]
        for key in self.counters:
            self.counters[key] = 0
        self.covered[0] = 0.0
        self._stack.clear()
        for depth in self._depths:
            depth[0] = 0
        self._divisors = set()
        self._ctx_base = self._ctx_counts()

    @staticmethod
    def _ctx_counts() -> tuple[int, int]:
        mod = sys.modules.get("qtheta.cyclotomic")
        if mod is None:
            return (0, 0)
        info = mod._ctx.cache_info()
        return info.hits, info.misses

    def snapshot(self) -> dict:
        hits, misses = self._ctx_counts()
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counters": dict(self.counters),
            "covered_s": self.covered[0],
            "ctx_hits": hits - self._ctx_base[0],
            "ctx_misses": misses - self._ctx_base[1],
        }

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        """A wrapper of `fn` that records spans under `name`.

        `hook(tracer, args)` runs before the span opens; its time is charged
        to no span, so counters do not inflate anyone's self time.
        """
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        depth = [0]
        self._depths.append(depth)
        stack = self._stack
        covered = self.covered
        clock = self.clock
        orch = name in ORCHESTRATION
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                h0 = clock()
                hook(tracer, args)
                if stack:
                    stack[-1][0] += clock() - h0
            frame = [0.0, orch]
            stack.append(frame)
            depth[0] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[0] -= 1
                st[0] += 1
                st[1] += dt - frame[0]
                if not depth[0]:
                    st[2] += dt
                if stack:
                    parent = stack[-1]
                    parent[0] += dt
                    if parent[1] and not orch:
                        covered[0] += dt
                elif not orch:
                    covered[0] += dt

        return wrapper

    def install(self) -> None:
        """Wrap every target callable at every binding site in qtheta."""
        for module, _, _ in TARGETS:  # load every binding site first
            importlib.import_module(module)
        for module, path, name in TARGETS:
            owner, _, original = resolve(module, path)
            wrapper = self.wrap(name, original, _HOOKS.get(name))
            if not self._patches.replace(owner, original, wrapper):
                raise RuntimeError(f"no binding of {module}.{path} found")
        self._ctx_base = self._ctx_counts()
        os.register_at_fork(after_in_child=self.reset)

    def uninstall(self) -> None:
        self._patches.undo()


def _hook_pack_signed(tracer, args):
    vec, b = args[0], args[1]
    tracer.counters["qtheta._pack.pack_signed.lane_bits"] += len(vec) * b


def _hook_convolve_trunc(tracer, args):
    mults, bits = convolve_trunc_work(*args[:3])
    tracer.counters["qtheta._kernels.convolve_trunc.mults"] += mults
    tracer.counters["qtheta._kernels.convolve_trunc.operand_bits"] += bits


def _hook_series_div(tracer, args):
    divisor = args[1]
    tracer.counters["qtheta.series._series_div.divisions"] += 1
    if divisor not in tracer._divisors:
        tracer._divisors.add(divisor)
        tracer.counters["qtheta.series._series_div.distinct_divisors"] += 1


def _hook_run_job(tracer, args):
    tracer._divisors = set()  # distinct divisors are counted per job


_HOOKS = {
    "qtheta._pack.pack_signed": _hook_pack_signed,
    "qtheta._kernels.convolve_trunc": _hook_convolve_trunc,
    "qtheta.series._series_div": _hook_series_div,
    "qtheta.identities._run_job": _hook_run_job,
}


class JobClock:
    """Times every `identities._run_job` call, in the sweep process and in
    each fork-pool worker; workers write their spans to `outdir`.

    With a `speed` log (`speed.SpeedLog`), each pool worker runs a speed
    reference burst as it starts and then on the log's timer; the bursts
    are written with the spans.
    """

    def __init__(self, outdir: str, flush_hooks=(), speed=None):
        self.outdir = outdir
        self.spans: list[list] = []
        self.worker = False
        self.flush_hooks = list(flush_hooks)
        self.speed = speed
        self._patches = Patches()

    def _after_fork(self) -> None:
        self.spans = []
        self.worker = True
        if self.speed is not None:
            self.speed.bursts = []
            self.speed.burst()
            self.speed.start()

    def install(self) -> None:
        owner, _, original = resolve("qtheta.identities", "_run_job")
        clock = self

        @functools.wraps(original)
        def timed_run_job(job):
            t0 = now()
            try:
                return original(job)
            finally:
                clock.spans.append([t0, now(), os.getpid()])
                if clock.worker:
                    clock.flush()

        self._patches.replace(owner, original, timed_run_job)
        os.register_at_fork(after_in_child=self._after_fork)

    def bursts(self) -> list:
        return self.speed.bursts if self.speed is not None else []

    def flush(self) -> None:
        pid = os.getpid()
        with open(os.path.join(self.outdir, f"jobs-{pid}.json"), "w") as fh:
            json.dump({"spans": self.spans, "bursts": self.bursts()}, fh)
        for hook in self.flush_hooks:
            hook(pid)

    def uninstall(self) -> None:
        self._patches.undo()

    def worker_records(self) -> dict[int, dict]:
        """{pid: {"spans", "bursts"}} written by pool workers (not this
        process)."""
        out = {}
        for entry in sorted(os.listdir(self.outdir)):
            if entry.startswith("jobs-") and entry != f"jobs-{os.getpid()}.json":
                with open(os.path.join(self.outdir, entry)) as fh:
                    out[int(entry[5:-5])] = json.load(fh)
        return out
