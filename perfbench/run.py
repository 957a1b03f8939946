"""Benchmark of the surety settlement kernel and market simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout: the program is imported from
``src/`` next to this directory, and the command fails without printing a
result when it is not there. Workloads are listed in ``workloads.py``.

With ``--trace 0`` one caller drives the workload's operation in a closed
loop until the operations have taken ``--seconds`` seconds, checking each
output as it comes, and the end-to-end metrics are printed. With
``--trace 1`` the loop runs untraced for half that time, then again over
the same inputs with spans recorded around the program's public
functions; the traced outputs must equal the untraced ones. The
per-layer metrics are printed and the spans are written to
``.perfbench_out/`` at exit. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
every output was correct.
"""

from time import perf_counter, perf_counter_ns

T0 = perf_counter()  # set-up time runs from here: imports plus input generation

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
OUTDIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5  # set-up is timed this many times per run; the median is reported
SETUP_TIMEOUT_S = 120
WALL_LIMIT = 4  # a pass stops after this many times --seconds of wall time
tracing = None  # the tracing module, imported by main() once the program is importable

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every input, for smoke tests")
    parser.add_argument("--setup-only", action="store_true", help="time set-up once, print it and exit")
    return parser.parse_args(argv)


class Pass:
    """Timings, failures and (when kept) outputs of one closed-loop pass."""

    def __init__(self) -> None:
        self.ops = 0
        self.outputs = []  # per operation, when kept: its output, or None if it raised
        self.failed = 0
        self.reasons = []  # the first few failure reasons
        self.latencies_ns = []  # successful operations only
        self.units = 0
        self.busy_ns = 0  # time spent inside operations

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)


def _check(bench, i, output):
    try:
        return bench.check(i, output)
    except Exception as exc:  # a check that cannot complete is a failed check
        return f"check raised {type(exc).__name__}: {exc}"


def run_pass(bench, seconds=None, count=None, tracer=None, keep=False) -> Pass:
    """Run operations back to back until they have taken ``seconds`` or
    ``count`` are done. Untraced operations are checked as they finish;
    staging, checks and bookkeeping stay outside the timed interval."""
    result = Pass()
    budget_ns = int((seconds or 0) * 1e9)
    # operations that fail at once take almost no time; stop them on the clock
    deadline_ns = perf_counter_ns() + WALL_LIMIT * budget_ns
    stage = getattr(bench, "stage", None)
    while (
        (result.ops < count)
        if count is not None
        else (result.busy_ns < budget_ns and perf_counter_ns() < deadline_ns)
    ):
        i = result.ops
        if stage:
            stage(i)
        t = perf_counter_ns()
        try:
            if tracer is None:
                output, units = bench.op(i)
            else:
                tracer.run_id = i
                output, units = tracer.span(tracing.ROOT, bench.op, (i,))
        except Exception as exc:  # counted as a failed operation
            result.busy_ns += perf_counter_ns() - t
            output, reason = None, f"raised {type(exc).__name__}: {exc}"
        else:
            elapsed = perf_counter_ns() - t
            result.busy_ns += elapsed
            result.latencies_ns.append(elapsed)
            result.units += units
            reason = _check(bench, i, output) if tracer is None else None
        if reason:
            result.fail(f"op {i}: {reason}")
        if keep:
            result.outputs.append(output)
        result.ops += 1
    return result


def setup_samples(args, first_s: float) -> list:
    """``first_s`` plus set-up timed again in fresh interpreters."""
    samples = [first_s]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"] + (["--tiny"] if args.tiny else [])
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def end_to_end(args, bench, setup_s: float):
    result = run_pass(bench, seconds=args.seconds)
    # self plus the largest waited-for child (a sweep pool worker)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    samples = setup_samples(args, setup_s)
    lat = result.latencies_ns
    metrics = {
        "setup_s": statistics.median(samples),
        "throughput_per_s": result.units / (result.busy_ns / 1e9),
        "latency_ms_p50": tracing.percentile(lat, 0.5) / 1e6,
        "latency_ms_p90": tracing.percentile(lat, 0.9) / 1e6,
        "peak_rss_mb": rss_kib / 1024,
    }
    notes = {
        "setup_s": f"median of {len(samples)}",
        "throughput_per_s": f"{result.units} {'episodes' if bench.sweep else 'jobs'} in {result.busy_ns / 1e9:.2f} s",
        "latency_ms_p50": f"n={len(lat)}",
        "latency_ms_p90": f"n={len(lat)}",
    }
    return metrics, END_TO_END_UNITS, notes, result.ops, result.failed, result.reasons


def per_layer(args, bench):
    if hasattr(bench, "workers"):
        bench.workers = 1  # pool workers cannot be traced from here
    untraced = run_pass(bench, seconds=args.seconds / 2, keep=True)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_pass(bench, count=untraced.ops, tracer=tracer, keep=True)
    finally:
        tracer.uninstall()
    for i, (a, b) in enumerate(zip(traced.outputs, untraced.outputs)):
        if a is not None and b is not None and a != b:
            traced.fail(f"op {i}: traced output differs from untraced output")
    metrics = tracing.layer_metrics(tracer.spans, traced.busy_ns, untraced.busy_ns, traced.units if bench.sweep else 0)
    OUTDIR.mkdir(exist_ok=True)
    spans_path = OUTDIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    notes = {"trace.overhead_share": f"{untraced.ops} ops each pass; spans in {spans_path.name}"}
    failed = untraced.failed + traced.failed
    return metrics, tracing.PER_LAYER_UNITS, notes, untraced.ops + traced.ops, failed, untraced.reasons + traced.reasons


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "surety" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    global tracing
    import tracing  # noqa: E402
    import workloads  # noqa: E402

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 1
    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    try:
        bench = workloads.WORKLOADS[args.workload](args.seed, args.tiny, workdir)
        setup_s = perf_counter() - T0
        if args.setup_only:
            print(setup_s)
            return 0
        if args.trace:
            metrics, units, notes, attempted, failed, reasons = per_layer(args, bench)
        else:
            metrics, units, notes, attempted, failed, reasons = end_to_end(args, bench, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:  # another run still has its directory there
            pass

    for reason in reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, value in metrics.items():
        print(f"  {name:<42} {value:>16.6f} {units[name]:<6} {notes.get(name, '')}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
