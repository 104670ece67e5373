"""The process under test for the batch workloads, and the in-process
layer split of every workload.

Run by ``run.py`` as ``python3 perfbench/worker.py SPEC.json OUT.json``.
It prints ``READY`` once the engine is imported, which ends the set-up
time the harness measures, then does what ``SPEC["mode"]`` says:

* ``e2e`` — untraced samples of one batch workload, each from a fresh
  ``Database`` through ``solve()`` returning, until ``seconds`` pass;
  every model is checked against the oracle in ``SPEC["expected"]``;
* ``layers`` — the traced split: each public call a solve makes, timed
  from outside (see ``pipeline``), plus the Tracer counts;
* ``serve_layers`` — the same split for each database ``repro serve``
  hosts, as one request pays it.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc
from typing import Any, Callable, Dict, List, Tuple

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

from repro.analysis.classify import classify_program  # noqa: E402
from repro.analysis.report import analyze_program  # noqa: E402
from repro.core.database import Database  # noqa: E402
from repro.engine import solver  # noqa: E402
from repro.engine.exec import get_pushdown  # noqa: E402
from repro.engine.supervisor import Budget, CancelToken  # noqa: E402
from repro.obs import FlightRecorder, Tracer  # noqa: E402
from repro.serve.hosting import HostedDatabase  # noqa: E402
from repro.serve.supervise import RequestSupervisor  # noqa: E402
from repro.workloads import ROAD_NETWORK_PROGRAM  # noqa: E402

from gen import same_costs  # noqa: E402
from speed import probe  # noqa: E402

#: The selective, non-recursive aggregate of ``bulk_ingest``: the cheapest
#: outgoing road of each probed junction.
BULK_PROGRAM = """
    @cost arc/3 : reals_ge.
    @pred probe/1.
    @cost cheapest/2 : reals_ge.
    cheapest(U, C) <- probe(U), C =r min{W : arc(U, V, W)}.
"""

#: workload -> (rule text, seed predicate, answer predicate)
BATCH = {
    "road_paths": (ROAD_NETWORK_PROGRAM, "source", "d"),
    "bulk_ingest": (BULK_PROGRAM, "probe", "cheapest"),
}

#: Layers that partition one solve; their sum is compared with the
#: untraced wall.  ``analysis.classify_s`` and ``engine.edb_copy_s`` are
#: repeated inside ``engine.solve_s`` and so are reported, not summed.
DISJOINT = (
    "datalog.load_s",
    "data.scan_s",
    "analysis.analyze_s",
    "analysis.pushdown_s",
    "data.edb_s",
    "engine.solve_s",
)


def timed(fn: Callable[[], Any]) -> Tuple[Any, float]:
    t0 = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - t0


def wall(fn: Callable[[], Any]) -> float:
    """Seconds ``fn`` takes; its result is dropped before the next
    timing, so it cannot slow the collector there."""
    return timed(fn)[1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sorted_rows(model, predicate: str) -> List[list]:
    """A relation's rows, sorted as ``repro serve`` returns them."""
    return sorted((list(row) for row in model.relation(predicate).rows()), key=repr)


# -- batch workloads ---------------------------------------------------------


def build(spec: Dict[str, Any]) -> Database:
    rules, seed_predicate, _ = BATCH[spec["workload"]]
    db = Database(name=spec["workload"])
    db.load(rules)
    db.load_csv("arc", spec["csv"])
    db.add_facts(seed_predicate, [(x,) for x in spec["seeds"]])
    return db


def matches(model, spec: Dict[str, Any]) -> bool:
    answer = BATCH[spec["workload"]][2]
    want = {tuple(row[:-1]): row[-1] for row in spec["expected"]}
    return same_costs(model[answer], want)


def run_e2e(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Solves, each between two host-speed probes: ``walls[i]`` ran
    between ``probes[i]`` and ``probes[i + 1]``."""
    walls: List[float] = []
    attempted = failed = 0
    deadline = time.perf_counter() + spec["seconds"]
    gc.collect()
    probes = [probe()]
    # stop when the next sample would likely end past the deadline
    while not attempted or time.perf_counter() + (walls[-1] if walls else 0.0) < deadline:
        attempted += 1
        try:
            result, wall = timed(lambda: build(spec).solve(method="auto"))
        except Exception as exc:  # a failed operation, counted not raised
            print(f"solve raised {type(exc).__name__}: {exc}", file=sys.stderr)
            failed += 1
            gc.collect()
            probes[-1] = probe()
            continue
        failed += not (result.complete and matches(result.model, spec))
        del result
        gc.collect()
        walls.append(wall)
        probes.append(probe())
    return {"walls": walls, "probes": probes, "attempted": attempted, "failed": failed}


def pipeline(db: Database, program, over=None) -> Dict[str, float]:
    """The calls ``Database.solve`` makes, in its order, each timed.
    ``db`` is fresh: its program object has cold plan and pushdown
    caches.  The solve reads ``over`` when given (a server's warm
    snapshot), else the EDB materialized here."""
    t: Dict[str, float] = {}
    analysis, t["analysis.analyze_s"] = timed(lambda: analyze_program(program))
    t["analysis.pushdown_s"] = wall(lambda: get_pushdown(program, analysis.classification))
    edb, t["data.edb_s"] = timed(db.edb)
    t["data.edb_rows_per_s"] = edb.total_size() / t["data.edb_s"]
    if over is None:
        over = edb
    result, t["engine.solve_s"] = timed(
        lambda: solver.solve(program, over, check="none", method="auto")
    )
    t["engine.atoms_per_s"] = (
        result.model.total_size() - over.total_size()
    ) / t["engine.solve_s"]
    return t


def inner_layers(db: Database, program, over) -> Dict[str, float]:
    """Parts ``engine.solve_s`` repeats inside it, and variants of that
    solve, each timed after a garbage collection.  The pushdown rewrite
    is cached on ``program`` by now."""
    t: Dict[str, float] = {}
    rewrite = get_pushdown(program)
    evaluated = rewrite.program if rewrite.changed else program
    gc.collect()
    t["analysis.classify_s"] = wall(lambda: classify_program(evaluated))
    t["engine.edb_copy_s"] = wall(lambda: over.with_storage("boxed"))
    gc.collect()
    boxed = wall(lambda: solver.solve(program, over, check="none", method="auto"))
    columnar = db.edb(storage="columnar")
    gc.collect()
    columnar_s = wall(
        lambda: solver.solve(
            program, columnar, check="none", method="auto", storage="columnar"
        )
    )
    t["engine.columnar_over_boxed"] = columnar_s / boxed
    del columnar
    gc.collect()
    untraced = wall(lambda: solver.solve(program, over, method="auto"))
    gc.collect()
    traced = wall(
        lambda: solver.solve(
            program,
            over,
            method="auto",
            tracer=Tracer(FlightRecorder(256), collect=False),
            budget=Budget(timeout=30.0),
        )
    )
    t["serve.request_trace_ms"] = (traced - untraced) * 1000.0
    return t


def counts(result, tracer: Tracer) -> Dict[str, float]:
    """Counts of one traced solve; they must repeat exactly."""
    derived = calls = fresh = 0
    scc_walls = [0.0]
    solve_wall = 0.0
    for event in tracer.events:
        kind = event["type"]
        if kind == "rule_profile":
            derived += event["derived"]
            calls += event["calls"]
        elif kind == "iteration":
            fresh += event["new_atoms"] + event["changed_atoms"]
        elif kind == "scc_end":
            scc_walls.append(event["wall_s"])
        elif kind == "solve_end":
            solve_wall = event["wall_s"]
    index = tracer.index_stats
    probes = index.hits + index.misses
    return {
        "engine.rounds": result.total_iterations,
        "engine.sccs": len(result.components),
        "engine.derived_atoms": derived,
        "engine.rule_calls": calls,
        "engine.new_per_derived": fresh / derived if derived else 1.0,
        "engine.index_hits": index.hits,
        "engine.index_misses": index.misses,
        "engine.index_builds": index.builds,
        "engine.index_hit_ratio": index.hits / probes if probes else 1.0,
        # timing share, from the same traced solve as its denominator
        "engine.scc_max_share": max(scc_walls) / solve_wall if solve_wall else 1.0,
    }


def bytes_per_atom(db: Database) -> float:
    tracemalloc.start()
    try:
        edb = db.edb()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / max(1, edb.total_size())


def medians(rounds: List[Dict[str, float]]) -> Dict[str, float]:
    return {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}


def run_layers(spec: Dict[str, Any]) -> Dict[str, Any]:
    """The first half of the time: rounds of the solve split into its
    calls, each compared with the mean of two untraced
    ``Database.solve`` walls timed just before and just after it, so
    that a drift in the host's speed cancels out.  The second half:
    rounds of the inner layers, and of a traced solve next to an
    untraced one."""
    rules, seed_predicate, answer = BATCH[spec["workload"]]
    failed = attempted = 0

    def untraced() -> Tuple[float, float]:
        """(wall, seconds to extract the answer's rows)"""
        nonlocal failed, attempted
        gc.collect()
        result, seconds = timed(lambda: build(spec).solve(method="auto"))
        extract = wall(lambda: sorted_rows(result.model, answer))
        attempted += 1
        failed += not (result.complete and matches(result.model, spec))
        return seconds, extract

    def fresh() -> Database:
        db = Database(name=spec["workload"])
        db.load(rules)
        db.load_csv("arc", spec["csv"])
        db.add_facts(seed_predicate, [(x,) for x in spec["seeds"]])
        return db

    def split() -> Dict[str, float]:
        before, _ = untraced()
        gc.collect()
        db = Database(name=spec["workload"])

        def load() -> Any:
            db.load(rules)
            return db.program

        t = {"datalog.load_s": wall(load)}

        def scan() -> None:
            db.load_csv("arc", spec["csv"])
            db.add_facts(seed_predicate, [(x,) for x in spec["seeds"]])

        t["data.scan_s"] = wall(scan)
        t.update(pipeline(db, db.program))
        del db
        after, t["engine.extract_s"] = untraced()
        t["e2e.untraced_s"] = (before + after) / 2.0
        t["layers.sum_s"] = sum(t[name] for name in DISJOINT)
        t["layers.unattributed_share"] = 1.0 - t["layers.sum_s"] / t["e2e.untraced_s"]
        t["layers.max_share"] = max(t[name] for name in DISJOINT) / t["e2e.untraced_s"]
        t["engine.solve_share"] = t["engine.solve_s"] / t["e2e.untraced_s"]
        return t

    def inner() -> Dict[str, float]:
        nonlocal failed, attempted, last
        db = fresh()
        t = inner_layers(db, db.program, db.edb())
        del db
        plain, _ = untraced()
        tracer = Tracer()
        gc.collect()
        traced, seconds = timed(lambda: build(spec).solve(method="auto", tracer=tracer))
        attempted += 1
        failed += not (traced.complete and matches(traced.model, spec))
        last = counts(traced, tracer)
        t["obs.trace_overhead"] = seconds / plain - 1.0
        return t

    last: Dict[str, float] = {}
    out = {}
    half = spec["seconds"] / 2.0
    for step, least in ((split, 3), (inner, 2)):
        rounds: List[Dict[str, float]] = []
        deadline = time.perf_counter() + half
        last_round = 0.0
        while len(rounds) < least or time.perf_counter() + last_round < deadline:
            started = time.perf_counter()
            rounds.append(step())
            last_round = time.perf_counter() - started
        out.update(medians(rounds))
        out[f"rounds.{step.__name__}"] = len(rounds)
    out.update(last)
    largest = max(DISJOINT, key=out.get)
    out["data.edb_bytes_per_atom"] = bytes_per_atom(build(spec))
    return {
        "layers": out,
        "largest_layer": largest,
        "rounds": out["rounds.split"],
        "failed": failed,
        "attempted": attempted,
    }


# -- hosted databases, one request at a time ----------------------------------


def run_serve_layers(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Each hosted database's layers as one request pays them, next to
    ``RequestSupervisor.execute`` — the call a server thread makes per
    request — timed in the same round.  Per-database medians are then
    averaged: the request mix picks databases uniformly."""
    per_db: List[Dict[str, float]] = []
    count_sums: Dict[str, List[float]] = {}
    supervisor = RequestSupervisor(checkpoint_dir=None, flight_dir=spec["workdir"])
    share = spec["seconds"] / len(spec["databases"])
    failed = attempted = 0
    for spec_db in spec["databases"]:
        served = Database(name=spec_db["name"])
        served.load(spec_db["text"])
        hosted = HostedDatabase(spec_db["name"], served)
        snapshot = hosted.snapshot()
        query, want = spec_db["query"], spec_db["rows"]
        rounds = []
        stop = time.perf_counter() + share
        while len(rounds) < 3 or time.perf_counter() < stop:
            t: Dict[str, float] = {}
            db = Database(name=spec_db["name"])

            def load() -> Any:
                db.load(spec_db["text"])
                return db.program

            program, t["datalog.load_s"] = timed(load)
            t.update(pipeline(db, program, over=snapshot))
            t.update(inner_layers(db, program, snapshot))
            result = solver.solve(program, snapshot, method="auto")
            rows, t["engine.extract_s"] = timed(lambda: sorted_rows(result.model, query))
            t["e2e.untraced_s"] = wall(lambda: solver.solve(program, snapshot, method="auto"))
            t["e2e.traced_s"] = wall(
                lambda: solver.solve(program, snapshot, method="auto", tracer=Tracer())
            )
            outcome, t["e2e.request_s"] = timed(
                lambda: supervisor.execute(
                    hosted, {"query": query}, request_id="bench", cancel=CancelToken()
                )
            )
            t["layers.sum_s"] = (
                t["analysis.analyze_s"]
                + t["engine.solve_s"]
                + t["engine.extract_s"]
                + t["serve.request_trace_ms"] / 1000.0
            )
            t["layers.unattributed_share"] = 1.0 - t["layers.sum_s"] / t["e2e.request_s"]
            t["layers.max_share"] = (
                max(t["analysis.analyze_s"], t["engine.solve_s"], t["engine.extract_s"])
                / t["e2e.request_s"]
            )
            attempted += 2
            failed += not (result.complete and _same_rows(rows, want))
            failed += not (outcome.http_status == 200 and _same_rows(outcome.body["rows"], want))
            rounds.append(t)
        tracer = Tracer()
        traced = solver.solve(hosted.program, snapshot, method="auto", tracer=tracer)
        for key, value in counts(traced, tracer).items():
            count_sums.setdefault(key, []).append(value)
        summary = medians(rounds)
        fresh = Database(name=spec_db["name"])
        fresh.load(spec_db["text"])
        summary["data.edb_bytes_per_atom"] = bytes_per_atom(fresh)
        per_db.append(summary)
    out = {key: statistics.fmean(d[key] for d in per_db) for key in per_db[0]}
    for key, values in count_sums.items():
        # counts add up over the hosted databases; ratios average
        ratio = key.endswith(("_ratio", "_share", "_per_derived"))
        out[key] = statistics.fmean(values) if ratio else sum(values)
    out["obs.trace_overhead"] = out["e2e.traced_s"] / out["e2e.untraced_s"] - 1.0
    return {"layers": out, "failed": failed, "attempted": attempted}


def _same_rows(got: List[list], want: List[list]) -> bool:
    return sorted(map(tuple, got), key=repr) == sorted(map(tuple, want), key=repr)


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    print("READY", flush=True)
    mode = {"e2e": run_e2e, "layers": run_layers, "serve_layers": run_serve_layers}
    out = mode[spec["mode"]](spec)
    out["peak_rss_mb"] = peak_rss_mb()
    with open(sys.argv[2], "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
