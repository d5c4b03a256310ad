"""Tests of the benchmark itself: tracing coverage, cache isolation between
solves, answer checks and failure accounting.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import math
import os
import random
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import run
import tracing
import workloads
from decmin import applications, orientation

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO = os.path.dirname(BENCH_DIR)


def tiny_jobs() -> dict:
    """One tiny instance per workload, made by the workloads' own makers."""
    rng = random.Random("tiny")
    return {
        "orient": workloads.Job(
            "orient.cheapest", "n=8", workloads.make_orient(rng, "orient.cheapest", 8)
        ),
        "table": workloads.Job("table.explicit", "n=5", workloads.make_table(rng, 5)),
        "exchange": workloads.Job(
            "exchange.semimatching", "n_left=3", workloads.make_semimatching(rng, 3, 6, 10)
        ),
    }


def traced_totals(job) -> dict:
    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.run_solve(job)
    return tracer.totals()


# Exact counter totals for one solve of each tiny instance.  A binding the
# tracer misses changes these numbers.
PINNED = {
    "orient": {
        "netflow.max_flow_calls": 1,
        "netflow.feasible_flow_calls": 1,
        "netflow.min_cost_flow_calls": 1,
        "orientation.arcs_rebuilds": 7,
        "orientation.indeg_reads": 8,
    },
    "table": {
        "core.value_calls.explicit-table": 74,
        "core.value_calls.contracted": 18,
        "core.value_calls.cardinality": 5,
        "core.table_builds": 2,
        "core.tight_set_calls": 18,
        "core.tight_set_calls.table": 18,
        "core.membership_calls": 1,
        "engine.tightening_steps": 1,
        "engine.nd_iterations": 3,
        "canonical.decompositions": 1,
        "canonical.value_fixed_calls": 2,
    },
    "exchange": {
        "core.value_calls.semimatching": 8,
        "core.table_builds": 1,
        "core.tight_set_calls": 5,
        "core.tight_set_calls.table": 5,
        "engine.tightening_steps": 3,
        "netflow.max_flow_calls": 2,
        "netflow.feasible_flow_calls": 2,
        "netflow.min_cost_flow_calls": 8,
    },
}


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_pinned_counts(workload):
    totals = traced_totals(tiny_jobs()[workload])
    assert {k: v for k, v in totals.items() if v} == PINNED[workload]


def test_core_and_engine_idle_on_orient():
    totals = traced_totals(tiny_jobs()["orient"])
    assert all(v == 0 for k, v in totals.items() if k.startswith(("core.", "engine.")))


def test_every_layer_binding_is_wrapped():
    """Each layer function is wrapped in every module that binds it."""
    bound = {}
    for b in tracing.discover():
        bound.setdefault(b.name, set()).add(getattr(b.owner, "__name__", None))
    assert {"decmin.core", "decmin.engine", "decmin.canonical", "decmin"} <= bound["smallest_tight_set"]
    assert {"decmin.engine", "decmin.applications", "decmin.matroid", "decmin"} <= bound["basic_decmin"]
    assert {"SemiMatchingOracle.value", "TableOracle.value", "_CardinalityOracle.value",
            "MatroidOracle.rank", "Orientation.arcs", "Orientation.indeg"} <= set(bound)
    # routines reachable only through core's fast-path registry
    assert {"_sm_exchange", "_graph_exchange", "_sum_membership"} <= set(bound)


def test_untraced_runs_see_original_functions():
    bindings = tracing.discover()

    def all_original():
        return all(b.current() is b.original for b in bindings)

    assert all_original()
    seen = []

    def solve(job):
        seen.append(all_original())
        return job.solve()

    jobs = list(tiny_jobs().values())
    run.run_round(jobs, solve)
    assert seen == [True] * len(jobs)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert not all_original()
        run.run_round(jobs, tracer.run_solve)
    assert all_original()
    run.run_round(jobs, solve)
    assert seen == [True] * (2 * len(jobs))


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_no_cache_carries_between_solves(workload):
    job = tiny_jobs()[workload]
    first, second = traced_totals(job), traced_totals(job)
    assert first == second
    assert first["netflow.max_flow_calls"] + first["netflow.min_cost_flow_calls"] + sum(
        v for k, v in first.items() if k.startswith("core.value_calls.")
    ) > 0


# ---------------------------------------------------------------------------
# answer checks
# ---------------------------------------------------------------------------


def _solved(family, instance):
    job = workloads.Job(family, "tiny", instance)
    answer = job.solve()
    assert checks.check(job, answer)
    return job, answer


def _spread_unit(m):
    """Move one unit from a smallest to a largest component: the square-sum
    rises by 2(max - min) + 2, so the result is never dec-min."""
    m = np.array(m, dtype=np.int64)
    hi, lo = int(np.argmax(m)), int(np.argmin(m))
    if hi == lo:
        lo = (hi + 1) % len(m)
    m[hi] += 1
    m[lo] -= 1
    return m


@pytest.mark.parametrize("family", ["orient.plain", "orient.bounded", "orient.minT", "orient.cheapest"])
def test_orientation_check_rejects_one_flip(family):
    job, answer = _solved(family, workloads.make_orient(random.Random(family), family, 10))
    indeg = answer.indeg
    heads = answer.heads.copy()
    edges = job.instance["edges"]
    # turn an edge whose tail has in-degree at least its head's: the
    # square-sum rises by 2(d_tail - d_head + 1) > 0
    j = next(j for j, (u, v) in enumerate(edges)
             if indeg[u + v - heads[j]] >= indeg[heads[j]])
    u, v = edges[j]
    heads[j] = u + v - heads[j]
    assert not checks.check(job, orientation.Orientation(answer.graph, heads))


@pytest.mark.parametrize("family", ["table.explicit", "table.induced"])
def test_table_check_rejects_one_unit(family):
    rng = random.Random(family)
    inst = workloads.make_table(rng, 6) if family == "table.explicit" else workloads.make_induced(rng, 7, 21)
    job, (m, D, report) = _solved(family, inst)
    assert not checks.check(job, (_spread_unit(m), D, report))


def test_capacitated_check_rejects_one_copy():
    job, answer = _solved("table.capacitated", workloads.make_capacitated(random.Random(3), 8))
    z = answer.toward_head.copy()
    d = answer.indeg
    ell = job.instance["ell"]
    for j, (u, v) in enumerate(job.instance["edges"]):
        step = 1 if d[v] >= d[u] else -1  # either way the square-sum rises
        if 0 <= z[j] + step <= ell[j]:
            z[j] += step
            break
    assert not checks.check(job, orientation.CapacitatedOrientation(answer.graph, z))


def test_semimatching_check_rejects_one_move():
    job, answer = _solved("exchange.semimatching", workloads.make_semimatching(random.Random(4), 4, 8, 16))
    edges = job.instance["edges"]
    z = answer.multiplicity.copy()
    left = answer.left_degrees
    # re-assign one right node to a neighbour at least as loaded
    for j, (s, t) in enumerate(edges):
        if not z[j]:
            continue
        alt = [k for k, (s2, t2) in enumerate(edges) if t2 == t and s2 != s and left[s2] >= left[s]]
        if alt:
            z[j], z[alt[0]] = 0, 1
            break
    moved = applications.SemiMatchingResult(
        z, np.bincount([s for (s, _), c in zip(edges, z) if c], minlength=4),
        answer.right_degrees,
    )
    assert not checks.check(job, moved)


def test_megiddo_check_rejects_one_unit():
    job, answer = _solved("exchange.megiddo", workloads.make_megiddo(random.Random(5), 12, 3, 2))
    flow = answer.flow.copy()
    flow[int(np.argmax(flow))] -= 1
    assert not checks.check(job, applications.MegiddoResult(flow, answer.outflow, answer.sources))
    assert not checks.check(
        job, applications.MegiddoResult(answer.flow, _spread_unit(answer.outflow), answer.sources)
    )


def test_induced_vector_check_rejects_one_unit():
    job, m = _solved("exchange.induced", workloads.make_induced(random.Random(6), 9, 27))
    assert not checks.check(job, _spread_unit(m))


def test_basis_sum_check_rejects_unbalanced_bases():
    job, (bases, m) = _solved("exchange.basis_sum", workloads.make_basis_sum(random.Random(7), 5, 10))
    assert not checks.check(job, (bases, _spread_unit(m)))
    # one spanning tree taken twice is a member, but not a dec-min one
    tree = bases[0]
    doubled = np.array([2 if j in tree else 0 for j in range(len(m))])
    assert not checks.check(job, ([tree, tree], doubled))


def test_partition_check_rejects_one_unit():
    job, (basis, y) = _solved("exchange.partition", workloads.make_partition(random.Random(8), 8, 4))
    assert not checks.check(job, (basis, _spread_unit(y)))


def test_square_gap_is_positive_off_the_optimum():
    job, (m, _, _) = _solved("table.explicit", workloads.make_table(random.Random(9), 5))
    tab = job.instance["values"]
    pi = checks.canonical_dual(tab, m)
    assert checks.square_gap(tab, m, pi) == 0
    assert checks.square_gap(tab, _spread_unit(m), pi) > 0


# ---------------------------------------------------------------------------
# failure accounting and the command line
# ---------------------------------------------------------------------------


def test_raised_exception_counts_as_failed():
    jobs = list(tiny_jobs().values())

    def solve(job):
        if job.family.startswith("table."):
            raise RuntimeError("solver failure")
        return job.solve()

    records = run.run_round(jobs, solve)
    run.check_records(records)
    tally = run.tally(records)
    assert tally == {"attempted": 3, "failed": 1, "failed_frac": 1 / 3}
    metrics = run.end_to_end(records, setup_s=1.0, rss_mb=1.0)
    assert metrics["solve_s.p90"]["value"] == math.inf
    total = sum(r.seconds for r in records)
    assert metrics["solves_per_s"]["value"] == pytest.approx(2 / total)


def test_best_of_passes_fails_an_instance_that_fails_any_pass():
    jobs = list(tiny_jobs().values())
    calls = {}

    def solve(job):
        calls[job.family] = calls.get(job.family, 0) + 1
        if job.family.startswith("table.") and calls[job.family] == 2:
            raise RuntimeError("solver failure on the second pass")
        return job.solve()

    records = run.best_of_passes([jobs], 0.0, 3, solve)
    assert sorted(calls.values()) == [3, 3, 3]
    run.check_records(records)
    assert run.tally(records) == {"attempted": 3, "failed": 1, "failed_frac": 1 / 3}
    assert [r.ok for r in records] == [not j.family.startswith("table.") for j in jobs]


def _bench_json():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_declared_metrics(trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exchange", "--seed", "3",
         "--seconds", "0.01", "--trace", str(trace)],
        cwd=REPO, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _bench_json()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "orient", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout == ""
