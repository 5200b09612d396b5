"""The ilattice benchmark.

    python3 perfbench/run.py --workload audit --seed 1 --seconds 20 --trace 0

Runs one workload in this single-threaded interpreter as a closed loop with
one client: each request is an ``ilattice.cli.main(argv)`` call made
in-process with stdout captured, and the next is sent when it returns.  The
seed picks and orders the inputs (see workloads.py), which are written to
files before timing starts.  The loop runs whole passes over the request
list until ``--seconds`` have elapsed and at least ten latency samples lie
beyond p90.  Times are scaled to a machine of fixed speed (see clock.py);
the raw figures are printed next to them.

With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
the per-layer metrics (see layers.py), with spans written to a sidecar file.
Every request's exit code and stdout digest are checked against
reference.json, and the audit and search verdicts are re-derived through
tests/naive_oracle.py.  The last line of stdout is one JSON object; the
exit code is non-zero if any check fails.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median

import gate
import layers
import workloads
from clock import Clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SETUPS_PER_PASS = 3
P50, P90 = 50, 90
MIN_BEYOND = 10

# verdict_s.p90 is printed but not reported: on audit the 90th rank falls in
# a gap of the cost distribution (9 ms, then 62 ms), and over ten seeds its
# spread was 0.20, against 0.06 for p50.
END_TO_END = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "verdict_s.p50": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# --------------------------------------------------------------------------
# Percentiles
# --------------------------------------------------------------------------


def rank(n: int, q: int) -> int:
    """1-based nearest rank of the q-th percentile of n samples: ceil(q*n/100)."""
    return -(-q * n // 100)


def percentile(values, q: int) -> float:
    ordered = sorted(values)
    return ordered[rank(len(ordered), q) - 1]


def beyond(n: int, q: int) -> int:
    """How many of n samples lie strictly above the q-th percentile's rank."""
    return n - rank(n, q)


# --------------------------------------------------------------------------
# Set-up
# --------------------------------------------------------------------------


def import_ilattice():
    """Import the checkout's ilattice afresh; refuse any other copy."""
    for name in [m for m in sys.modules if m == "ilattice" or m.startswith("ilattice.")]:
        del sys.modules[name]
    cli = importlib.import_module("ilattice.cli")
    origin = Path(cli.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise BenchError(f"imported ilattice from {origin}, not from this checkout")
    return sys.modules["ilattice"]


def set_up(workload, paths) -> tuple[float, object]:
    """One set-up: import ilattice afresh, load the workload's universe files
    and build its formula universes.  Returns its time and the package."""
    start = time.perf_counter()
    il = import_ilattice()
    for name in workload.universe_files:
        il.load_universe(paths[name])
    for atoms, depth in workload.formula_universes:
        il.generate_formulas(atoms, depth)
    return time.perf_counter() - start, il


def write_files(files: dict[str, str], directory: Path) -> dict[str, str]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, text in files.items():
        path = directory / f"{name}.txt" if name.startswith("gamma") else directory / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return paths


def resolve(argv, paths) -> list[str]:
    return [paths[arg[1:]] if arg.startswith("@") else arg for arg in argv]


# --------------------------------------------------------------------------
# The request loop
# --------------------------------------------------------------------------


class Loop:
    """Sends requests one at a time and keeps what the gate and metrics need."""

    def __init__(self, main, reference, paths, clock: Clock | None = None):
        self.main = main
        self.reference = reference
        self.paths = paths
        self.clock = clock or Clock()
        # (start_ns, end_ns, completed) of every recorded request
        self.timings: list[tuple[int, int, bool]] = []
        self.failed = 0
        self.problems: list[str] = []
        self.first_output: dict[str, tuple] = {}

    @property
    def attempted(self) -> int:
        return len(self.timings)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def call(self, request):
        """One request: returns (exit code, stdout, start_ns, end_ns)."""
        out, err = io.StringIO(), io.StringIO()
        argv = resolve(request.argv, self.paths)
        self.clock.maybe_calibrate()
        start = time.perf_counter_ns()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.main(argv)
        except Exception:  # a crash is a failed request, not a crashed benchmark
            code = None
            err.write(traceback.format_exc())
        end = time.perf_counter_ns()
        return code, out.getvalue(), start, end

    def record(self, request, code, stdout, start, end) -> None:
        reason = gate.failure(self.reference, request.key, code, stdout)
        self.timings.append((start, end, reason is None))
        if reason is None:
            self.first_output.setdefault(request.key, (request, stdout))
        else:
            self.failed += 1
            self.problems.append(f"{request.key}: {reason}")

    def run_pass(self, requests, on_request=None) -> float:
        start = time.perf_counter()
        for request in requests:
            code, stdout, t0, t1 = self.call(request)
            self.record(request, code, stdout, t0, t1)
            if on_request is not None:
                on_request(request, stdout, t0, t1)
        return time.perf_counter() - start


def measure(loop: Loop, requests, seconds: float, between) -> tuple[float, int]:
    """Whole passes, so every run measures the same mix of requests.

    Another pass starts while it would end less than half a pass after
    ``seconds``, and always while p90 has too few samples beyond it.
    ``between`` runs untimed after each pass.
    """
    wall = 0.0
    passes = 0
    while True:
        last = loop.run_pass(requests)
        wall += last
        passes += 1
        between()
        enough = beyond(loop.completed, P90) >= MIN_BEYOND
        if enough and wall + last / 2 >= seconds:
            return wall, passes
        if not loop.completed:
            raise BenchError("every request failed; " + "; ".join(loop.problems[:3]))


def run_outside(loop: Loop, requests) -> int:
    """Rows that exit 2 at this commit: run once, compare with the reference,
    and count those that still exit 2."""
    exits = 0
    for request in requests:
        code, stdout, _, _ = loop.call(request)
        if code == 2:
            exits += 1
        problem = gate.mismatch(loop.reference, request.key, code, stdout)
        if problem is not None:
            loop.problems.append(f"{request.key}: {problem}")
    return exits


# --------------------------------------------------------------------------
# The two kinds of run
# --------------------------------------------------------------------------


def end_to_end(loop, workload, seconds, paths, setups) -> tuple[dict, dict]:
    """``setups`` holds (start_ns, seconds) of the set-ups made so far."""
    clock = loop.clock

    # More set-ups run between the passes, so that their median reflects the
    # whole run rather than its first half second.
    def set_up_again():
        clock.calibrate()
        for _ in range(SETUPS_PER_PASS):
            start = time.perf_counter_ns()
            setups.append((start, set_up(workload, paths)[0]))
        clock.calibrate()
        # Free the discarded copies of the package now, so that peak RSS
        # does not grow with the number of passes.
        gc.collect()

    wall, passes = measure(loop, workload.requests, seconds, set_up_again)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scaled = [clock.scaled_s(start, end) for start, end, _ in loop.timings]
    latencies = [t for t, (_, _, ok) in zip(scaled, loop.timings) if ok]
    raw = sorted((end - start) / 1e9 for start, end, ok in loop.timings if ok)
    n = len(latencies)
    metrics = {
        "setup_s": median(seconds * clock.factor(start) for start, seconds in setups),
        "verdicts_per_s": n / sum(scaled),
        "verdict_s.p50": percentile(latencies, P50),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups; raw {median(s for _, s in setups):.6g} s",
        "verdicts_per_s": f"{n} verdicts in {passes} passes of {len(workload.requests)} requests; "
                          f"raw {n / wall:.6g} over {wall:.2f} s of wall time",
        "verdict_s.p50": f"n={n}, {beyond(n, P50)} samples beyond; raw {percentile(raw, P50):.6g} s; "
                         f"p90 {percentile(latencies, P90):.6g} s, {beyond(n, P90)} beyond",
    }
    return metrics, notes


def traced(loop, workload, seconds, il, paths, spans_path) -> tuple[dict, dict]:
    tracer = layers.Tracer()
    untraced_s = traced_s = 0.0
    request_ids = {}

    def on_request(request, stdout, t0, t1):
        request_ids.setdefault(request.key, len(request_ids))
        tracer.request = request_ids[request.key]
        tracer.spans.append([len(tracer.spans), "cli.main", t0, t1, None, tracer.request,
                             {"bytes": len(stdout.encode("utf-8"))}])

    def scaled_since(index):
        return sum(loop.clock.scaled_s(start, end) for start, end, _ in loop.timings[index:])

    # Alternate untraced and traced passes for the overhead figure, swapping
    # their order each round so that warm-up is not charged to one side.
    # Only the last traced pass keeps its spans; the replay below follows it.
    elapsed = 0.0
    rounds = 0
    while rounds == 0 or elapsed < seconds:
        for traced_pass in ((False, True) if rounds % 2 == 0 else (True, False)):
            index = len(loop.timings)
            if traced_pass:
                tracer.spans.clear()
            elapsed += loop.run_pass(workload.requests, on_request if traced_pass else None)
            if traced_pass:
                traced_s += scaled_since(index)
            else:
                untraced_s += scaled_since(index)
        rounds += 1
    clock = loop.clock
    replayer = layers.Replayer(il, tracer, paths)
    with replayer.wrapped():
        for request in workload.requests:
            clock.maybe_calibrate()
            tracer.request = request_ids[request.key]
            replayer.replay(request)
    fallback = layers.Tracer()
    fallback_replayer = layers.Replayer(il, fallback, paths)
    with fallback_replayer.wrapped():
        for request in workload.fallback:
            clock.maybe_calibrate()
            fallback_replayer.replay(request)
    clock.calibrate()
    tracer.write(spans_path)

    metrics = layers.replay_metrics(fallback.spans, clock)
    metrics.update(layers.replay_metrics(tracer.spans, clock))
    primary = il.load_universe(paths[workload.primary])
    start = time.perf_counter_ns()
    kernels = layers.kernel_metrics(il, primary, workloads.valid_templates())
    clock.calibrate()
    metrics.update({name: value * clock.factor(start) for name, value in kernels.items()})
    metrics["cli.main.self_s"] = layers.cli_self_s(tracer.spans, clock)
    metrics["cli.output_bytes"] = sum(s[6]["bytes"] for s in tracer.spans if s[1] == "cli.main")
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1
    notes = {"trace.overhead_frac": f"traced {traced_s:.2f} s vs untraced {untraced_s:.2f} s",
             "spans": str(spans_path.relative_to(ROOT))}
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="the ilattice benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "ilattice" / "__init__.py",
                   ROOT / "tests" / "naive_oracle.py", HERE / "reference.json"):
        if not needed.is_file():
            print(f"benchmark: {needed.relative_to(ROOT)} is missing; run from a full checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        il = import_ilattice()
        workload = workloads.generate(args.workload, args.seed, il.law_registry())
        run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
        paths = write_files(workload.files, run_dir)
        try:
            clock = Clock()
            clock.calibrate()
            start = time.perf_counter_ns()
            setup_s, il = set_up(workload, paths)
            clock.calibrate()
            loop = Loop(il.cli.main, gate.load_reference(HERE / "reference.json"), paths, clock)
            if args.trace:
                spans_path = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
                metrics, notes = traced(loop, workload, args.seconds, il, paths, spans_path)
            else:
                metrics, notes = end_to_end(loop, workload, args.seconds, paths, [(start, setup_s)])
            budget_exits = run_outside(loop, workload.outside)
            if args.trace:
                metrics["cli.budget_exits"] = budget_exits
            disputed = []
            if args.workload in ("audit", "search"):
                oracle = gate.Oracle(gate.load_oracle(ROOT))
                disputed = gate.check_verdicts(oracle, loop.first_output.values(), workload.files)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2

    # A request whose verdict the oracle disputes counts as failed.
    failed = loop.failed + len({key for key, _ in disputed})
    problems = loop.problems + [f"{key}: {problem}" for key, problem in disputed]
    correct = not problems
    units = layers.METRICS if args.trace else END_TO_END

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, unit in units.items():
        note = notes.get(name)
        print(f"  {name:42} {metrics[name]:>16.6g} {unit:6}" + (f"  ({note})" if note else ""))
    print(f"  {'failed_frac':42} {failed / loop.attempted:>16.6g} {'':6}  "
          f"({failed} of {loop.attempted} requests)")
    print(f"  {'budget exits outside the loop':42} {budget_exits:>16d}")
    if "spans" in notes:
        print(f"  spans written to {notes['spans']}")
    for line in problems[:20]:
        print(f"  FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
