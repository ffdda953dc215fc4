#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the `fcw` command line.

    python3 fcwbench/run.py --workload grid-barcode --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The benchmark generates the workload's
inputs from the seed in `.fcwbench/`, warms up, then runs a closed loop with
one client: each operation is one `python -m fcw.cli ...` process of this
checkout's `src`, started after the previous one ended, for whole rounds of
the workload's operations until `--seconds` have passed.  Every output is
checked afterwards, outside the timed region.  A fixed reference process,
timed between operations, scales the run's times to one host speed.

With `--trace 0` it reports the end-to-end metrics.  With `--trace 1` it
replays the same operations in this process through `fcw.cli.run`, without
and then with timing wrappers around each layer, and reports per-layer
metrics per round.  The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.  Nothing waits on a queue
or lock: fcw is single-threaded and the loop is sequential.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("grid-barcode", "bottleneck-pairs", "algebra-io", "morse-batch")
SETUP_REPEATS = 3
HARD_LIMIT_S = 120  # stop starting rounds here, whatever --seconds says


# The speed of a shared host swings by 10-25% within seconds and for minutes,
# and every timing moves with it.  So a fixed reference process that owes
# nothing to fcw (interpreter start, the numpy import, Fraction arithmetic, a
# dict sort; 0.2 s) runs between operations, and each operation's time is
# reported at the host speed at which the reference takes CALIBRATION_REF_S,
# judged from the reference runs nearest to it.
CALIBRATION = (
    "import argparse, fractions, json, re, numpy\n"
    "s = fractions.Fraction(0)\n"
    "for i in range(1, 6000):\n"
    "    s += fractions.Fraction(i % 97, i % 13 + 1)\n"
    "d = {str(i): i for i in range(60000)}\n"
    "print(len(sorted(d, key=d.get)), s)\n"
)
CALIBRATION_OUT = "60000 25357104359/360360\n"
CALIBRATION_REF_S = 0.2
CALIBRATE_EVERY_S = 1.5  # of operations between two reference runs
NEIGHBOURS = 2  # reference runs on each side of an operation that scale it


class Calibration:
    """Wall times of the reference process, each with the number of loop
    operations run before it."""

    def __init__(self, env):
        self.env = env
        self.times = []
        self.done = []
        self.last = perf_counter()

    def take(self, done: int) -> float:
        result = run_child([sys.executable, "-c", CALIBRATION], self.env, "calibration.txt")
        if (result.code, result.out) != (0, CALIBRATION_OUT):
            raise RuntimeError(f"reference process: exit code {result.code}, output {result.out!r}, {result.err.strip()[:200]}")
        self.times.append(result.latency)
        self.done.append(done)
        self.last = perf_counter()
        return result.latency

    def due(self, done: int) -> None:
        if perf_counter() - self.last >= CALIBRATE_EVERY_S:
            self.take(done)

    def scale(self, k: int) -> float:
        """Factor from the wall time of loop operation `k` (from 0) to its time
        at the reference speed, by the mean of the reference runs nearest to it."""
        i = bisect.bisect_right(self.done, k)  # reference runs before operation k
        return CALIBRATION_REF_S / statistics.fmean(self.times[max(0, i - NEIGHBOURS) : i + NEIGHBOURS])


def min_ops(tail_q: int) -> int:
    """Operations a run needs for ten of them to lie beyond the tail percentile."""
    return math.ceil(10 / (1 - tail_q / 100))


@dataclass
class Result:
    code: int
    out: str
    err: str
    latency: float = 0.0
    rss_kb: int = 0


def spawn(op, env) -> Result:
    """Run one operation as a child process in the current directory."""
    return run_child([sys.executable, "-m", "fcw.cli", *op.args], env, op.out or "stdout.txt")


def run_child(argv, env, stdout) -> Result:
    """Run `argv` to its end, stdout to the file `stdout`, and time it."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, stdout, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, "stderr.txt", flags, 0o644),
    ]
    start = perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        # the child may already be reaped when the interruption lands
        with contextlib.suppress(ProcessLookupError, ChildProcessError):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    latency = perf_counter() - start
    out = Path(stdout).read_text(encoding="utf-8")
    err = Path("stderr.txt").read_text(encoding="utf-8")
    return Result(os.waitstatus_to_exitcode(status), out, err, latency, usage.ru_maxrss)


def replay(op) -> Result:
    """Run one operation in this process, as `fcw` would, through cli.run."""
    from fcw import cli

    result = cli.run(list(op.args))
    if op.out:
        Path(op.out).write_text(result.payload, encoding="utf-8")
    err = result.error + "\n" if result.error else ""
    return Result(result.exit_code, result.payload, err)


class Ledger:
    """Every operation's result against the first result of the same slot."""

    def __init__(self, workload):
        self.workload = workload
        self.first = {}
        self.slots = []  # slot index of each attempted operation
        self.differs = set()  # positions whose output differs from the slot's first

    def add(self, slot: int, result: Result) -> None:
        position = len(self.slots)
        self.slots.append(slot)
        first = self.first.setdefault(slot, result)
        if (result.code, result.out) != (first.code, first.out):
            self.differs.add(position)

    def failures(self) -> tuple[int, list]:
        """(failed operations, reasons) after checking each slot's first output."""
        outputs = {self.workload.ops[i].label: r.out for i, r in self.first.items()}
        bad, reasons = {}, []
        for slot, result in sorted(self.first.items()):
            op = self.workload.ops[slot]
            if result.code != op.exit_code:
                problem = f"exit code {result.code}, expected {op.exit_code}: {result.err.strip()[:120]}"
            else:
                try:
                    problem = op.check(result.out, result.err, outputs)
                except Exception as exc:  # a malformed output must fail the check, not the run
                    problem = f"{type(exc).__name__}: {exc}"
            if problem:
                bad[slot] = problem
                reasons.append(f"{op.label}: {problem}")
        failed = sum(1 for k, slot in enumerate(self.slots) if slot in bad or k in self.differs)
        if self.differs:
            reasons.append(f"{len(self.differs)} repeated operations gave different output")
        return failed, reasons


def setup(name, seed, workdir, env):
    """Generate the inputs into a fresh `workdir`, enter it, and run the
    warm-up operations, so that bytecode and kernel caches are filled."""
    import workloads

    os.chdir(ROOT)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    os.chdir(workdir)
    workload = workloads.build(name, seed, ROOT)
    workload.write(workdir)
    problems = []
    for op in workload.warmup:
        result = spawn(op, env)
        if result.code != op.exit_code:
            problems.append(f"warm-up {op.label}: exit code {result.code}: {result.err.strip()[:120]}")
    return workload, problems


def closed_loop(workload, env, seconds, calibration):
    """Whole rounds of spawned operations, with the reference process between
    them, until the round boundary nearest to `seconds` and at least enough
    operations for the tail percentile."""
    ledger, latencies, peak_kb = Ledger(workload), [], 0
    need = min_ops(workload.tail_q)
    start = perf_counter()
    while True:
        for slot, op in enumerate(workload.ops):
            result = spawn(op, env)
            ledger.add(slot, result)
            latencies.append(result.latency)
            peak_kb = max(peak_kb, result.rss_kb)
            calibration.due(len(latencies))
        wall = perf_counter() - start
        rounds = len(latencies) // len(workload.ops)
        if (wall + wall / rounds / 2 >= seconds and len(latencies) >= need) or wall >= HARD_LIMIT_S:
            break
    calibration.take(len(latencies))
    scaled = [latency * calibration.scale(k) for k, latency in enumerate(latencies)]

    def timings(times):
        per_round = [sum(times[k : k + len(workload.ops)]) for k in range(0, len(times), len(workload.ops))]
        return {
            # a round is the workload's fixed mix, so its median rate is the
            # run's rate without the odd round the host slowed
            "ops_per_s": len(workload.ops) / statistics.median(per_round),
            "latency_p50_s": statistics.median(times),
            "latency_tail_s": statistics.quantiles(times, n=100, method="inclusive")[workload.tail_q - 1],
        }

    raw = timings(latencies)
    metrics = {name: (value, "op/s" if name == "ops_per_s" else "s") for name, value in timings(scaled).items()}
    metrics["peak_rss_mb"] = (peak_kb / 1024, "MB")
    notes = [
        f"closed loop, 1 client: {rounds} x {len(workload.ops)} operations in {wall:.2f} s",
        f"latency_tail_s is p{workload.tail_q} of {len(latencies)} operations",
        f"reference process: {len(calibration.times)} runs, median {statistics.median(calibration.times):.4f} s; "
        "as measured: " + ", ".join(f"{k}={v:.6g}" for k, v in raw.items()),
    ]
    by_op = {op.label: [] for op in workload.ops}
    for slot, latency in zip(ledger.slots, latencies):
        by_op[workload.ops[slot].label].append(latency)
    return ledger, metrics, notes, by_op, raw


def traced_replay(workload, env, seconds):
    import tracing

    ledger = Ledger(workload)
    rounds, start = 0, perf_counter()
    while rounds == 0 or perf_counter() - start < seconds / 4:
        for slot, op in enumerate(workload.ops):
            ledger.add(slot, replay(op))
        rounds += 1
    untraced = perf_counter() - start

    tracer = tracing.Tracer()
    start = perf_counter()
    with tracing.installed(tracer):
        for _ in range(rounds):
            for slot, op in enumerate(workload.ops):
                tracer.op += 1
                ledger.add(slot, replay(op))
    traced = perf_counter() - start

    peaks = tracing.AllocPeaks()
    with tracing.installed(peaks):
        for slot, op in enumerate(workload.ops):
            if workload.alloc_ops is None or op.label in workload.alloc_ops:
                ledger.add(slot, replay(op))

    metrics = per_layer(tracer, peaks, rounds)
    metrics.update(tracing.import_times(env))
    metrics["trace.overhead_ratio"] = traced / untraced
    units = {name: unit for name, unit in PER_LAYER}
    notes = [
        f"in-process replay of {rounds} x {len(workload.ops)} operations, "
        f"{untraced:.2f} s untraced, {traced:.2f} s traced; per-layer figures are per round",
    ]
    return ledger, {name: (metrics[name], units[name]) for name, _ in PER_LAYER}, notes, tracer.spans


# (name, unit) of every per-layer metric, in BENCHMARK.json order
PER_LAYER = [
    ("cli.interpreter_s", "s"),
    ("cli.import_s", "s"),
    ("cli.import.numpy_s", "s"),
    ("cli.run.self_s", "s"),
    ("fileformat.parse_document.s", "s"),
    ("fileformat.parse_document.bytes", "B"),
    ("fileformat.serialize_complex.s", "s"),
    ("fileformat.serialize_complex.bytes", "B"),
    ("complexes.validate.s", "s"),
    ("complexes.cells.calls", "count"),
    ("complexes.cells.s", "s"),
    ("complexes.construct.s", "s"),
    ("complexes.construct.cells_out", "count"),
    ("invariants.euler_polynomial.s", "s"),
    ("invariants.size_polynomial.s", "s"),
    ("invariants.matching_number.s", "s"),
    ("polynomial.add.calls", "count"),
    ("polynomial.terms_max", "count"),
    ("morse.s", "s"),
    ("morse.points", "count"),
    ("persistence.barcode.self_s", "s"),
    ("persistence.barcode.cells", "count"),
    ("persistence.barcode.bars", "count"),
    ("kernels.reduce_pairing.s", "s"),
    ("kernels.reduce_pairing.columns", "count"),
    ("kernels.reduce_pairing.nnz", "count"),
    ("kernels.reduce_pairing.computed_bytes", "B"),
    ("persistence.euler_from_barcode.s", "s"),
    ("persistence.euler_from_barcode.calls", "count"),
    ("persistence.bottleneck.self_s", "s"),
    ("persistence.bottleneck.bar_pairs", "count"),
    ("kernels.max_bipartite_matching.s", "s"),
    ("kernels.max_bipartite_matching.calls", "count"),
    ("kernels.max_bipartite_matching.edges", "count"),
    ("fileformat.parse_document.alloc_peak_mb", "MB"),
    ("kernels.reduce_pairing.alloc_peak_mb", "MB"),
    ("persistence.bottleneck.alloc_peak_mb", "MB"),
    ("complexes.construct.alloc_peak_mb", "MB"),
    ("trace.overhead_ratio", "ratio"),
]


def per_layer(tracer, peaks, rounds) -> dict:
    """Self times and counts per round, allocation peaks per call; the import
    figures and the overhead ratio are filled in by the caller."""
    self_s = tracer.self_times()
    out = {}
    for name, unit in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field in ("s", "self_s"):
            out[name] = self_s[span] / rounds
        elif field == "alloc_peak_mb":
            out[name] = peaks.peak[span] / 2**20
        else:
            out[name] = tracer.counts[name] / rounds
    out["polynomial.terms_max"] = max(
        tracer.maxima["invariants.euler_polynomial.terms"], tracer.maxima["invariants.size_polynomial.terms"]
    )
    return out


def environment() -> dict:
    import numpy
    from fcw import _kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "using_numba": _kernels.USING_NUMBA,
        "FCW_NO_NUMBA": os.environ.get("FCW_NO_NUMBA", ""),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so that the running child
    # is killed and reaped and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    missing = [p for p in ("src/fcw/cli.py", "tests/helpers.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"fcwbench: not a checkout of fcw, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    src = str(ROOT / "src")
    sys.path[:0] = [src, str(ROOT / "tests")]
    # fcw does no BLAS work; idle OpenBLAS threads spinning on the other core
    # would only add noise.
    base_env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env = dict(base_env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    results = ROOT / ".fcwbench"
    workdir = results / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        calibration = Calibration(base_env)
        setup_times, setup_scaled = [], []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            workload, problems = setup(args.workload, args.seed, workdir, env)
            setup_times.append(perf_counter() - start)
            if not args.trace:
                # each set-up is scaled by the reference run right after it
                setup_scaled.append(setup_times[-1] * CALIBRATION_REF_S / calibration.take(0))
        if args.trace:
            ledger, metrics, notes, spans = traced_replay(workload, env, args.seconds)
        else:
            ledger, metrics, notes, by_op, raw = closed_loop(workload, env, args.seconds, calibration)
            raw["setup_s"] = statistics.median(setup_times)
            metrics["setup_s"] = (statistics.median(setup_scaled), "s")
            notes.append(f"setup_s is the median of {SETUP_REPEATS} set-ups, {raw['setup_s']:.6g} s as measured")
        failed, reasons = ledger.failures()
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    failed += len(problems)
    reasons = problems + reasons
    attempted = len(ledger.slots)

    env_stamp = environment()
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": env_stamp,
        "notes": notes,
        "failures": reasons,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if not args.trace:
        report["as_measured"] = raw
        report["reference_s"] = calibration.times
        report["reference_after_operations"] = calibration.done
        report["latency_s_by_operation"] = by_op
    (results / f"BENCH_{stem}.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    if args.trace:
        with open(results / f"spans_{stem}.jsonl", "w", encoding="utf-8") as f:
            for span in spans:
                f.write(json.dumps(span) + "\n")

    print(f"fcwbench {args.workload} seed={args.seed} trace={args.trace}: " + ", ".join(f"{k}={v}" for k, v in env_stamp.items()))
    for note in notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    if not args.trace:
        print(f"  {'error_rate':42s} {failed / attempted:14.6g} ratio ({failed} of {attempted} operations)")
    for reason in reasons:
        print(f"  FAILED {reason}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": report["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
