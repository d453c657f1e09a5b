"""Benchmark runner for the quiverdim command-line interface.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One closed-loop client with no threads calls ``cli.main(argv)``
in this process, with output captured, on QV1 files generated from the
seed.  The operations run round-robin: one full pass, then more while the
next one is expected to end within ``--seconds``.  Each run is also timed
against a calibration loop, and latency and throughput use each
operation's (lower) median run at the calibration's reference speed.
Afterwards every run's exit code and JSON answer are checked against the
expected answers in ``workloads``, and the inputs are regenerated to check
that the seed alone determines them.

With ``--trace 0`` the last line of output reports the end-to-end metrics.
With ``--trace 1`` one traced pass runs between two untraced ones, and the
last line reports per-layer metrics for the traced pass (see ``tracing``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)

import workloads  # noqa: E402

SETUP_REPEATS = 9

# A fresh interpreter that imports the package and writes the inputs.  It
# times the calibration loop before and after that, and prints the seconds
# spent on its own work: the two calibrations and choosing the instances,
# which for chains-long includes the brute-force admissibility filter.
SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import run
start = time.perf_counter()
before = run.calibrate()
side = time.perf_counter() - start
run.import_package()
start = time.perf_counter()
ops = run.workloads.build(sys.argv[2], int(sys.argv[3]))
side += time.perf_counter() - start
run.write_inputs(ops, sys.argv[4])
start = time.perf_counter()
after = run.calibrate()
side += time.perf_counter() - start
print(side, before, after)
"""


def import_package():
    """Import ``quiverdim.cli`` from this checkout's ``src``, nowhere else."""
    sys.path.insert(0, SRC)
    from quiverdim import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"quiverdim imported from {cli.__file__}, not from {SRC}")
    return cli


def write_inputs(ops: list, directory: str) -> dict[str, str]:
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for case in workloads.cases(ops):
        path = os.path.join(directory, case.name + ".qv")
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(case.text)
        paths[case.name] = path
    return paths


# On a shared virtual machine wall time can swing by 2x over minutes (seen
# on a 2-vCPU Xeon VM), alike for all pure-Python work and imports.  Each
# run of an operation, and each set-up interpreter, is therefore also timed
# against a fixed calibration loop measured right before and after it, and
# the end-to-end metrics report times at the speed where that loop takes
# REFERENCE_MS.
REFERENCE_MS = 0.7
_FORBIDDEN = (("a", "a"), ("b", "c", "b"), ("c", "c", "a"), ("b", "b", "b"))


def calibrate() -> float:
    """Best of three runs of a fixed word enumeration with suffix tests,
    the same kind of work as the package's inner loops; returns ms."""
    times = []
    for _ in range(3):
        start = time.perf_counter_ns()
        level = [()]
        for _ in range(6):
            level = [
                w + (x,)
                for w in level
                for x in "abc"
                if not any((w + (x,))[-len(f):] == f for f in _FORBIDDEN)
            ]
        times.append((time.perf_counter_ns() - start) / 1e6)
    return min(times)


def measure_setup(workload: str, seed: int, directory: str) -> list[tuple[float, float]]:
    """Seconds from starting a fresh interpreter to its exit, less the
    benchmark's own work in it, as (wall, at reference speed), once per
    repeat.

    The interpreter times its own calibrations: one timed in this process
    right after a child exits swung 2x within seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, BENCH, workload, str(seed), directory],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        side, before, after = map(float, proc.stdout.split())
        wall -= side
        times.append((wall, wall * 2 * REFERENCE_MS / (before + after)))
    return times


def run_op(cli, argv: list[str]) -> tuple[object, str, float]:
    """One call of ``cli.main``; returns (exit code or exception, stdout, ms)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an escaped exception is a failed operation
            code = exc
        elapsed = time.perf_counter_ns() - start
    return code, out.getvalue(), elapsed / 1e6


def closed_loop(cli, ops: list, paths: dict[str, str], seconds: float) -> list[tuple]:
    """Run the operations round-robin: one full pass, then more while the
    next operation, at its best time so far, still ends within ``seconds``.
    Returns (operation index, exit code or exception, stdout, wall ms,
    wall ms at reference speed) per run."""
    results = []
    best = [math.inf] * len(ops)
    start = time.perf_counter()
    before = calibrate()
    k = 0
    while k < len(ops) or time.perf_counter() - start + best[k % len(ops)] / 1e3 <= seconds:
        i = k % len(ops)
        code, stdout, ms = run_op(cli, ops[i].argv(paths[ops[i].case.name]))
        after = calibrate()
        results.append((i, code, stdout, ms, ms * 2 * REFERENCE_MS / (before + after)))
        best[i] = min(best[i], ms)
        before = after
        k += 1
    return results


def check(op, code, stdout: str) -> str | None:
    """Why the result is wrong, or None when it matches the expected one."""
    if isinstance(code, BaseException):
        return f"raised {type(code).__name__}: {code}"
    expect = op.expected
    if code != expect.exit_code:
        return f"exit code {code}, expected {expect.exit_code}"
    if expect.answer is None:
        return None
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return "output is not JSON"
    digest = hashlib.sha256(op.case.text.encode("ascii")).hexdigest()
    if payload.get("input_hash") != digest:
        return "input_hash differs from the generated file"
    for key, want in expect.answer.items():
        if payload.get(key) != want:
            return f"{key} = {payload.get(key)!r}, expected {want!r}"
    return expect.audit(payload) if expect.audit else None


def determinism(workload: str, seed: int, ops: list) -> str | None:
    """The same seed gives byte-identical files; another seed changes the
    random instances."""
    texts = {c.name: c.text for c in workloads.cases(ops)}
    again = {c.name: c.text for c in workloads.cases(workloads.build(workload, seed))}
    if again != texts:
        return "the same seed gave different inputs"
    random_cases = {k: v for k, v in texts.items() if k.startswith("rand")}
    if random_cases:
        other = workloads.cases(workloads.build(workload, seed + 1))
        if {c.text for c in other if c.name.startswith("rand")} == set(random_cases.values()):
            return "another seed gave the same random instances"
    return None


def nearest_rank(values: list[float], q: float) -> float:
    """The smallest sample with at least a share q of samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = import_package()
    except ImportError as exc:
        print(f"error: cannot import the package: {exc}", file=sys.stderr)
        return 1

    directory = os.path.join(ROOT, ".bench_inputs", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        return measure(cli, args, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(directory))


def measure(cli, args, directory: str) -> int:
    setup_times = [] if args.trace else measure_setup(args.workload, args.seed, directory)
    ops = workloads.build(args.workload, args.seed)
    paths = write_inputs(ops, directory)

    if args.trace:
        import tracing

        # Untraced passes before and after the traced one, so that drift in
        # machine speed does not land on the overhead ratio.
        tracer = tracing.Tracer()
        results, seconds = [], []
        for traced in (False, True, False):
            if traced:
                tracer.install()
            start = time.perf_counter()
            try:
                results += closed_loop(cli, ops, paths, 0)
            finally:
                tracer.uninstall()
            seconds.append(time.perf_counter() - start)
    else:
        results = closed_loop(cli, ops, paths, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures: Counter = Counter()
    bad: Counter = Counter()
    wrong = 0
    verdicts: dict[tuple, str | None] = {}  # runs of one operation mostly print the same
    for i, code, stdout, *_ in results:
        key = (i, repr(code), stdout)
        if key not in verdicts:
            verdicts[key] = check(ops[i], code, stdout)
        problem = verdicts[key]
        if problem is not None:
            failures[f"{ops[i].label}: {problem}"] += 1
            bad[i] += 1
            known = ops[i].expected.known_failure
            wrong += not (isinstance(code, BaseException) and type(code).__name__ == known)
    nondeterministic = determinism(args.workload, args.seed, ops)
    # The counts are per operation, not per run: how many runs fit into the
    # time varies, and would make a failing operation's share vary with it.
    attempted, failed = len(ops), len(bad)
    runs = Counter(i for i, *_ in results)

    print(f"workload: {args.workload}  seed: {args.seed}  operations: {len(ops)}  "
          f"runs per operation: {min(runs.values())}-{max(runs.values())}  runs: {len(results)}")
    sources = Counter(op.expected.source for op in ops)
    for source, count in sorted(sources.items()):
        print(f"expected answers: {count:4d} operations from {source}")
    for problem, count in sorted(failures.items()):
        print(f"FAILED x{count}: {problem}")
    if nondeterministic:
        print(f"FAILED determinism: {nondeterministic}")
    else:
        print("determinism: same seed, same bytes; another seed, other random instances")

    if args.trace:
        metrics = tracer.report()
        metrics["trace.overhead_ratio"] = 2 * seconds[1] / (seconds[0] + seconds[2])
        units = {}
        for missing in tracer.missing:
            print(f"missing: {missing} is not in the package; metrics that need it are omitted")
        for name, value in metrics.items():
            units[name] = "ms" if name.endswith("_ms") else "ratio" if "ratio" in name else "count"
            print(f"{name:34s} {value:14.3f} {units[name]}")
    else:
        # Interference only ever slows a run down, so an even number of runs
        # takes the lower middle one, and set-up its fastest repeat.
        def per_operation(column: int) -> list[float]:
            return [statistics.median_low(r[column] for r in results if r[0] == i)
                    for i in range(len(ops))]

        wall, scaled = per_operation(3), per_operation(4)
        metrics = {
            "setup_s": min(t for _, t in setup_times),
            "ops_per_s": len(ops) / (sum(scaled) / 1e3),
            "op_ms_p50": nearest_rank(scaled, 0.5),
            "op_ms_p90": nearest_rank(scaled, 0.9),
            "ok_ratio": statistics.mean(1 - bad[i] / runs[i] for i in range(len(ops))),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms",
                 "ok_ratio": "ratio", "peak_rss_mb": "MB"}
        for name, value in metrics.items():
            print(f"{name:12s} {value:12.4f} {units[name]}")
        print(f"fail_ratio   {sum(failures.values()) / len(results):12.4f} ratio "
              f"({sum(failures.values())} of {len(results)} runs; "
              f"{failed} of {attempted} operations failed)")
        print(f"latency percentiles over {len(ops)} operations, each the median of its runs; "
              f"set-up fastest of {len(setup_times)}")
        print(f"wall time, not scaled: setup_s {min(t for t, _ in setup_times):.4f}  "
              f"ops_per_s {len(ops) / (sum(wall) / 1e3):.4f}  "
              f"op_ms_p50 {nearest_rank(wall, 0.5):.4f}  op_ms_p90 {nearest_rank(wall, 0.9):.4f}")

    print(json.dumps({
        "correct": wrong == 0 and nondeterministic is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
