"""Benchmark runner for decmin.

    python3 perfbench/run.py --workload orient --seed 1 --seconds 38 --trace 0

Run from the repository root; decmin is imported from ./src.  One client
solves one instance after another (closed loop, one process, no threads)
for about --seconds seconds, in whole rounds of the workload's slots.
With tracing off the instances of the first third of the run are solved
again in the second and the last third, and each instance's solve time is
the best of its three.
Answers are checked after the timed loop.  The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics per traced solve, plus the tracing overhead; its spans are
written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("orient", "table", "exchange")
# Passes over the instances in the untraced run; each instance's time is
# the best of its passes.
PASSES = 3
# Set-up probes made at each break, before each pass and after the last
# one, so that the probes, like the passes, sample the host over the run.
SETUP_PROBES = 2

# Times import and set-up in a fresh interpreter, so the import is cold
# each time; the parent reports the median of all the probes of a run.
_SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import workloads
workloads.build_rounds({workload!r}, {seed})
print(time.perf_counter() - t0)
"""


@dataclass
class Record:
    job: object
    answer: object
    seconds: float
    error: Exception | None
    ok: bool = False


def run_round(jobs, solve) -> list:
    """Solve each job once, timing each solve; a raised exception is
    recorded as a failed solve."""
    out = []
    for job in jobs:
        t0 = perf_counter()
        try:
            answer, error = solve(job), None
        except Exception as exc:  # counted in failed, never fatal to the run
            answer, error = None, exc
        out.append(Record(job, answer, perf_counter() - t0, error))
    return out


def closed_loop(rounds, seconds: float, step) -> list:
    """Call ``step(round_jobs)`` on whole rounds, cycling through them, until
    the next round would end more than half a round past ``seconds``; at
    least one round always runs."""
    start = perf_counter()
    done = 0
    records = []
    while True:
        records.extend(step(rounds[done % len(rounds)]))
        done += 1
        elapsed = perf_counter() - start
        if elapsed + 0.5 * elapsed / done >= seconds:
            return records


def best_of_passes(rounds, seconds: float, passes: int, solve,
                   between=lambda: None) -> list:
    """Solve whole rounds in a closed loop for ``seconds / passes``, then
    solve the same instances again ``passes - 1`` times in the same order.
    An instance's time is its best pass, and it fails if any pass fails.
    Load from other tenants of a shared host only ever adds time, in bursts
    and in phases; passes spread over the run time each instance at
    different moments, and the best of them drops the bursts and the
    phases shorter than the run.
    ``between()`` runs before each pass and after the last one."""
    between()
    best = closed_loop(rounds, seconds / passes, lambda jobs: run_round(jobs, solve))
    jobs = [r.job for r in best]
    for _ in range(passes - 1):
        between()
        for r, again in zip(best, run_round(jobs, solve)):
            r.seconds = min(r.seconds, again.seconds)
            if again.error is not None and r.error is None:
                r.answer, r.error = None, again.error
    between()
    return best


def check_records(records) -> None:
    import checks  # networkx loads only after the timed loop

    for r in records:
        if r.error is not None:
            continue
        try:
            r.ok = checks.check(r.job, r.answer)
        except Exception:  # a malformed answer fails its check
            r.ok = False


def tally(records) -> dict:
    failed = sum(not r.ok for r in records)
    return {"attempted": len(records), "failed": failed,
            "failed_frac": failed / len(records)}


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


def end_to_end(records, setup_s: float, rss_mb: float) -> dict:
    """One record per instance, timed as the best of its passes.
    Failed solves count as infinitely slow in the percentiles.
    ``rss_mb`` is the peak resident memory of the whole process."""
    times = sorted(r.seconds if r.ok else math.inf for r in records)
    done = sum(r.ok for r in records)
    total = sum(r.seconds for r in records)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "solves_per_s": {"value": done / total, "unit": "1/s"},
        "solve_s.p50": {"value": nearest_rank(times, 0.5), "unit": "s"},
        "solve_s.p90": {"value": nearest_rank(times, 0.9), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup(workload: str, seed: int) -> float:
    code = _SETUP_PROBE.format(src=SRC, here=HERE, workload=workload, seed=seed)
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def traced_run(rounds, seconds: float, workload: str, seed: int):
    """Alternate an untraced and a traced pass over each round; per-layer
    metrics come from the traced passes."""
    from tracing import Tracer

    tracer = Tracer()
    plain, traced = [], []

    def step(jobs):
        first = run_round(jobs, lambda job: job.solve())
        with tracer.installed():
            second = run_round(jobs, tracer.run_solve)
        plain.extend(first)
        traced.extend(second)
        return first + second

    records = closed_loop(rounds, seconds, step)
    overhead = (
        statistics.fmean(r.seconds for r in traced)
        - statistics.fmean(r.seconds for r in plain)
    )
    os.makedirs(OUT, exist_ok=True)
    tracer.write_spans(os.path.join(OUT, f"spans-{workload}.jsonl"),
                       {"workload": workload, "seed": seed, "solves": tracer.solves})
    return records, tracer.metrics(overhead)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "decmin", "__init__.py")):
        print(f"perfbench: no decmin sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import decmin
    import workloads

    if os.path.dirname(os.path.abspath(decmin.__file__)) != os.path.join(SRC, "decmin"):
        print(f"perfbench: decmin was imported from {decmin.__file__}", file=sys.stderr)
        return 2

    rounds = workloads.build_rounds(args.workload, args.seed)
    if args.trace:
        records, metrics = traced_run(rounds, args.seconds, args.workload, args.seed)
        check_records(records)
    else:
        setup_times = []

        def probe():
            setup_times.extend(measure_setup(args.workload, args.seed)
                               for _ in range(SETUP_PROBES))

        records = best_of_passes(rounds, args.seconds, PASSES,
                                 lambda job: job.solve(), probe)
        rss_mb = peak_rss_mb()  # before the checks load networkx
        check_records(records)
        metrics = end_to_end(records, statistics.median(setup_times), rss_mb)

    counts = tally(records)
    print(f"perfbench: {args.workload} seed={args.seed} {counts}", file=sys.stderr)
    for r in records:
        if not r.ok:
            print(f"perfbench: failed {r.job.family} {r.job.size}: {r.error!r}", file=sys.stderr)
    print(json.dumps({"correct": counts["failed"] == 0, "attempted": counts["attempted"],
                      "failed": counts["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
