#!/usr/bin/env python3
"""shiftlab benchmark: one seeded workload, checked outputs, end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload zn-tables --seed 1 --seconds 40 --trace 0

Workloads: BENCHMARK.json gates zn-tables and cli; zn-estimates,
induce-transport and spectral-measure run the same way but are not gated
(they fail on program defects, or are too unsteady here).
perfbench/workloads.json says why each exists, its operation mix and size
bands, and which layers it loads and bypasses.

Each run is a single closed-loop client in one worker process: the next
operation starts when the previous one returns, and no helper threads start
(BLAS is pinned to one thread).  The worker, and every command it starts,
runs on one CPU.  Every output is checked against a reference
from perfbench/reference.py; a failed check, an exception, an unexpected exit
code or a truncated table counts the operation as failed, and so does a
change of the exact-output digest at the default seed.

Both modes run whole passes over the inputs, as many as fit in --seconds
(at least one), so every run measures each input equally often.

Timings are reported at a nominal host speed.  The speed of a shared host
drifts by 20% and more over seconds to minutes, far more than any single run
can average out, so after every operation the worker times a fixed yardstick
that does not touch shiftlab but does the same kind of work: a computation
in-process (yardstick()), or on cli a fresh interpreter that imports numpy
and scipy (process_yardstick()).  Each operation's latency is scaled by the
yardstick's nominal time over its median time within YARDSTICK_REACH_S of
the operation, and setup_s likewise by the yardstick runs that follow each
set-up: on a host where the yardstick takes its nominal time, a metric is
the wall time.  The human-readable lines also print the unscaled
wall times.

--trace 0 reports the end-to-end metrics of an untraced run:
  ops_per_s       operations per second of the workload's mix, from each
                  operation kind's median latency weighted by its share
  latency_p50_ms, latency_p90_ms   percentiles over every operation
  setup_s         median over three fresh processes of the time from process
                  start through importing shiftlab, generating the inputs and
                  one warm-up operation of each kind
  peak_rss_mb     peak resident memory of the worker (of its largest child on cli)
--trace 1 runs passes untraced for half the time and then traced, and
reports per-layer metrics of one pass (self times and counts; import.self_s
is one fresh interpreter's import) plus the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("zn-tables", "zn-estimates", "spectral-measure", "induce-transport", "cli")
DEFAULT_SEED = 1
SETUPS = 3
CHILD_TIMEOUT_S = 150
# One thread per process: the machine has two cores and the client is single.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


# After each operation the yardstick runs for about this share of the
# operation's wall time (at least once).  The host's speed can step by 1.8x
# from one second to the next, so each operation is scaled by the yardstick
# runs of the second either side of it.
YARDSTICK_SHARE = 0.05
YARDSTICK_REACH_S = 1.0


def yardstick() -> float:
    """Seconds taken by a fixed computation independent of shiftlab: Fraction
    sums, tuple-keyed dict inserts, a keyed sort and small integer matrix
    products, the kinds of work shiftlab's operations do.  About 2 ms.

    The garbage collector is off while it runs, so that its allocations do
    not start a collection of the workload's heap, whose cost has nothing to
    do with the speed of the host.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc, d = Fraction(0), {}
        for i in range(1, 400):
            acc += Fraction(i % 7 - 3, i % 5 + 1)
            d[(i, i % 13)] = acc
        sorted(d, key=lambda k: (k[1], -k[0]))
        a = np.arange(4096, dtype=np.int64).reshape(64, 64)
        for _ in range(5):
            a = (a @ a) % 1000003
        return time.perf_counter() - t0
    finally:
        gc.enable()


def process_yardstick() -> float:
    """Seconds a fresh interpreter takes to import numpy and scipy.sparse:
    what every cli command pays before shiftlab's own code.  About 0.4 s."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, scipy.sparse"], env=dict(os.environ, **THREAD_ENV),
                   check=True)
    return time.perf_counter() - t0


# workload -> (yardstick, its nominal seconds, runs after each set-up); metrics
# are reported as on a host where the yardstick takes its nominal time
YARDSTICKS = {"cli": (process_yardstick, 0.4, 3)}
DEFAULT_YARDSTICK = (yardstick, 0.002, 25)


def clock() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="one input per kind and one set-up (smoke test)")
    p.add_argument("--role", choices=("main", "worker", "setup"), default="main", help=argparse.SUPPRESS)
    p.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    return p.parse_args(argv)


# --------------------------------------------------------------------------
# worker: set-up, warm-up, timed or traced phase


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q * 100) - 1]


class Runner:
    """The closed loop over one workload's operations."""

    def __init__(self, ops, refs, yard=None):
        """``yard`` is the workload's (yardstick, nominal seconds, set-up runs),
        or None where no end-to-end time is reported (the traced run)."""
        self.ops, self.refs, self.yard = ops, refs, yard
        self.latencies: list[float] = []
        self.kinds: list[str] = []
        self.failures: list[str] = []
        self.spans: list[tuple[float, float]] = []  # each operation's start and end
        self.yard_at: list[float] = []  # each yardstick run's end, ascending
        self.yard_s: list[float] = []

    def one(self, i: int, call=None) -> float:
        op = self.ops[i % len(self.ops)]
        t0 = time.perf_counter()
        try:
            out = call(op.run) if call else op.run()
            err = None
        except Exception:  # an operation that raises has failed; keep measuring
            err = traceback.format_exc(limit=3)
        wall = time.perf_counter() - t0
        ref = self.refs[i % len(self.ops)]
        if err is None and isinstance(ref, Exception):
            err = str(ref)
        if err is None:
            try:
                op.check(out, ref)
            except Exception as e:
                err = f"{type(e).__name__}: {e}"
        if err is not None:
            self.failures.append(f"{op.kind} #{i % len(self.ops)}: {err}")
        self.latencies.append(wall)
        self.kinds.append(op.kind)
        self.spans.append((t0, t0 + wall))
        if self.yard:
            run, nominal, _ = self.yard
            for _ in range(max(1, round(YARDSTICK_SHARE * wall / nominal))):
                self.yard_s.append(run())
                self.yard_at.append(time.perf_counter())
        return wall

    def nominal(self) -> list[float]:
        """Each latency as on a host where the yardstick takes its nominal time."""
        out = []
        for wall, (t0, t1) in zip(self.latencies, self.spans):
            lo = bisect.bisect_left(self.yard_at, t0 - YARDSTICK_REACH_S)
            hi = bisect.bisect_right(self.yard_at, t1 + YARDSTICK_REACH_S)
            out.append(wall * self.yard[1] / statistics.median(self.yard_s[lo:hi]))
        return out

    def passes(self, seconds: float, call=None, walls=None) -> int:
        """Whole passes over the inputs, at least one, while the next pass is
        expected (from the last one) to end within ``seconds``.

        Every run then measures each input equally often: a partial pass
        would tilt the percentiles toward whichever commands it reached,
        which on cli (15 commands of 0.6-1.6 s) moves p90 from run to run.
        """
        start = time.perf_counter()
        done = 0
        while True:
            t0 = time.perf_counter()
            for i in range(len(self.ops)):
                op_id = done * len(self.ops) + i
                wall = self.one(i, (lambda fn: call(op_id, fn)) if call else None)
                if walls is not None:
                    walls[op_id] = wall
            done += 1
            now = time.perf_counter()
            if now + (now - t0) > start + seconds:
                return done


def median_rate(runner: Runner, latencies: list[float]) -> float:
    """Operations per second of the workload's mix at each kind's median cost.

    A few inputs hit iteration caps and cost 100 times the rest; a mean
    would follow how many of them a seed happens to draw.
    """
    share: dict[str, int] = {}
    for op in runner.ops:
        share[op.kind] = share.get(op.kind, 0) + 1
    by_kind: dict[str, list[float]] = {}
    for kind, lat in zip(runner.kinds, latencies):
        by_kind.setdefault(kind, []).append(lat)
    cost = sum(n * statistics.median(by_kind[k]) for k, n in share.items() if k in by_kind)
    return sum(n for k, n in share.items() if k in by_kind) / cost


def end_to_end(runner: Runner, cli_children: bool) -> dict:
    """Time metrics at the nominal host speed; the "_wall" entries unscaled."""
    lat, nominal = runner.latencies, runner.nominal()
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli_children else resource.RUSAGE_SELF)
    p90 = quantile(nominal, 0.9)
    return {
        "ops_per_s": median_rate(runner, nominal),
        "latency_p50_ms": statistics.median(nominal) * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "_wall": {"ops_per_s": median_rate(runner, lat), "latency_p50_ms": statistics.median(lat) * 1e3,
                  "latency_p90_ms": quantile(lat, 0.9) * 1e3},
        "_slow": statistics.median(runner.yard_s) / runner.yard[1],
        "_samples": len(lat),
        "_beyond_p90": sum(x > p90 for x in nominal),
        "_op_seconds": sum(lat),
    }


def import_seconds(repeats: int = 3) -> float:
    """A fresh interpreter's ``import shiftlab`` minus a bare interpreter start."""
    env = dict(os.environ, **THREAD_ENV)
    pre = f"import sys; sys.path.insert(0, {str(SRC)!r})"

    def run(code):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        return time.perf_counter() - t0

    diffs = [run(pre + "; import shiftlab") - run(pre) for _ in range(repeats)]
    return statistics.median(diffs)


def traced(runner: Runner, seconds: float, tag: str) -> dict:
    from tracer import Tracer, layer_metrics

    untraced_passes = runner.passes(seconds / 2)
    n_untraced = len(runner.latencies)
    untraced_rate = n_untraced / sum(runner.latencies)
    tracer = Tracer()
    walls: dict[int, float] = {}
    tracer.install()
    try:
        passes = runner.passes(seconds / 2, tracer.run_op, walls)
    finally:
        tracer.remove()
    lat = runner.latencies[n_untraced:]
    for op_id, self_s in tracer.self_by_op().items():
        # spans partition each operation, so their self times cannot exceed its wall time
        if op_id >= 0 and self_s > walls[op_id] + 1e-6:
            runner.failures.append(f"traced self time {self_s:.6f} s exceeds wall {walls[op_id]:.6f} s in op {op_id}")
    metrics = layer_metrics(tracer, passes)
    metrics["import.self_s"] = import_seconds()
    metrics["trace.overhead_ops_per_s"] = len(lat) / sum(lat) - untraced_rate
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{tag}.npz")
    metrics["_passes"] = passes
    metrics["_untraced_passes"] = untraced_passes
    return metrics


def provenance(seed: int) -> dict:
    import numpy
    import scipy
    import shiftlab

    try:
        from shiftlab.backend import backend_name
        backend = backend_name()
    except ImportError:
        backend = "numpy"  # no backend switch in this tree
    except (RuntimeError, ValueError) as e:
        backend = f"unresolved: {e}"
    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_imports": numba_imports,
        "backend": backend,
        "seed": seed,
        "commit": git_commit(),
        "shiftlab": shiftlab.__file__,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (the
    benchmark may run in a tree that is not a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def reference(op):
    """The operation's reference; an exception (the sampling reference is the
    program's own first run) is kept and fails every check of the operation."""
    try:
        return op.ref()
    except Exception:
        return RuntimeError("no reference: " + traceback.format_exc(limit=3))


def digest_of(items) -> str:
    return hashlib.sha256(json.dumps(items, sort_keys=True, default=str).encode()).hexdigest()


def worker(args) -> int:
    os.environ.update(THREAD_ENV)
    # One CPU for the worker and the commands it starts, so that the
    # yardstick times the CPU the operations ran on: the host's slow spells
    # strike one CPU at a time.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path[:0] = [str(SRC), str(HERE)]
    import shiftlab

    if Path(shiftlab.__file__).resolve().parent != SRC / "shiftlab":
        print(f"imported shiftlab from {shiftlab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.build(args.workload, args.seed, args.tiny, work, trace=bool(args.trace))
        seen, exact = set(), []
        for op in ops:  # one warm-up operation of each kind; their exact outputs form the digest
            if op.kind not in seen:
                seen.add(op.kind)
                try:
                    exact.append(op.exact(op.run()))
                except Exception as e:  # the timed phase counts it; the digest records it
                    exact.append(["raised", type(e).__name__])
        ready = clock() - args.t0
        yard_fn, yard_nominal, yard_runs = YARDSTICKS.get(args.workload, DEFAULT_YARDSTICK)
        slow = statistics.median(yard_fn() for _ in range(yard_runs)) / yard_nominal
        print(f"READY {ready!r} {digest_of(exact)} {slow!r}", flush=True)
        if args.role == "setup":
            return 0
        runner = Runner(ops, [reference(op) for op in ops],
                        None if args.trace else YARDSTICKS.get(args.workload, DEFAULT_YARDSTICK))
        tag = f"{args.workload}-{args.seed}"
        if args.trace:
            metrics = traced(runner, args.seconds, tag)
        else:
            runner.passes(args.seconds)
            metrics = end_to_end(runner, cli_children=args.workload == "cli")
        by_kind: dict[str, list[float]] = {}
        for kind, lat in zip(runner.kinds, runner.latencies):
            by_kind.setdefault(kind, []).append(lat)
        result = {
            "metrics": metrics,
            "attempted": len(runner.latencies),
            "failures": runner.failures,
            "kinds": {k: [len(v), statistics.median(v)] for k, v in by_kind.items()},
            "provenance": provenance(args.seed),
        }
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


# --------------------------------------------------------------------------
# parent: spawns the worker and the extra set-up processes, reports


def spawn(args, role: str) -> tuple[float, float, str, dict | None]:
    """Runs a worker or set-up process; returns its wall set-up time, how much
    slower than nominal its yardstick ran, its exact-output digest and (for a
    worker) its result."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    cmd += ["--t0", repr(clock())]
    proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, **THREAD_ENV), stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S, check=False)
    ready, result = None, None
    for line in proc.stdout.splitlines():
        if line.startswith("READY "):
            ready = line.split()[1:]
        elif line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    if proc.returncode != 0 or ready is None or (role == "worker" and result is None):
        raise RuntimeError(f"{role} process exited {proc.returncode} without its report")
    return float(ready[0]), float(ready[2]), ready[1], result


def recorded_digest(workload: str) -> str | None:
    path = HERE / "digests.json"
    return json.loads(path.read_text()).get(workload) if path.is_file() else None


def main_role(args) -> int:
    setup_s, slow, digest, result = spawn(args, "worker")
    setups, slows, digests = [setup_s], [slow], [digest]
    for _ in range(0 if args.tiny or args.trace else SETUPS - 1):
        s, sl, d, _ = spawn(args, "setup")
        setups.append(s)
        slows.append(sl)
        digests.append(d)

    m = result["metrics"]
    failures = list(result["failures"])
    if len(set(digests)) != 1:
        failures.append(f"set-up processes disagree on the exact outputs: {digests}")
    want = recorded_digest(args.workload)
    digest_note = "not recorded for this seed"
    if args.seed == DEFAULT_SEED:  # --tiny keeps the first input of each kind, so the digest is the same
        digest_note = "matches the recorded digest" if digest == want else f"CHANGED (recorded {want})"
        if digest != want:
            failures.append(f"exact-output digest changed: {digest} != recorded {want}")
    attempted = result["attempted"]
    failed = len(failures)
    prov = result["provenance"]

    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}, "
          f"backend {prov['backend']}, single closed-loop client")
    if args.trace:
        metrics = {k: v for k, v in m.items() if not k.startswith("_")}
        print(f"  {m['_untraced_passes']} untraced and {m['_passes']} traced passes; per-layer values are per pass")
        for k, v in sorted(metrics.items()):
            print(f"  {k:44s} {v:.6g}")
    else:
        metrics = {k: m[k] for k in ("ops_per_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(s / sl for s, sl in zip(setups, slows))
        wall = m["_wall"]
        print(f"  host: yardstick at {m['_slow']:.3f}x its nominal time; times below are at nominal "
              f"speed, wall times in brackets")
        print(f"  ops_per_s        {m['ops_per_s']:.4f} 1/s  [{wall['ops_per_s']:.4f}]  (mix at per-kind median "
              f"latency; {m['_samples']} ops, {m['_samples'] / m['_op_seconds']:.4f} per wall second inside operations)")
        print(f"  latency_p50_ms   {m['latency_p50_ms']:.3f} ms  [{wall['latency_p50_ms']:.3f}]  ({m['_samples']} samples)")
        print(f"  latency_p90_ms   {m['latency_p90_ms']:.3f} ms  [{wall['latency_p90_ms']:.3f}]  ({m['_samples']} samples, "
              f"{m['_beyond_p90']} above p90)")
        print(f"  setup_s          {metrics['setup_s']:.4f} s  [{statistics.median(setups):.4f}]  (median of "
              f"{len(setups)}; wall " + ", ".join(f"{s:.3f}" for s in setups)
              + "; yardstick x " + ", ".join(f"{sl:.3f}" for sl in slows) + ")")
        print(f"  peak_rss_mb      {m['peak_rss_mb']:.1f} MB" + ("  (largest child)" if args.workload == "cli" else ""))
    print(f"  error_rate       {failed / attempted:.4f}  ({failed} failed of {attempted} attempted)")
    for kind, (n, p50) in result["kinds"].items():
        print(f"    kind {kind:28s} n={n:<5d} p50 {p50 * 1e3:10.3f} ms")
    print(f"  digest {digest} ({digest_note})")
    for f in failures[:10]:
        print(f"  FAILED {f}")
    print("provenance " + json.dumps(prov, sort_keys=True))

    report = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**report, "digest": digest, "setups": setups, "failures": failures,
                    "kinds": result["kinds"], "provenance": prov}, indent=1))
    print(json.dumps(report))
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("ops_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric == "documents.bytes_out":
        return "B"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "shiftlab" / "__init__.py").is_file():
        print(f"no shiftlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.role != "main":
        return worker(args)
    try:
        return main_role(args)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
