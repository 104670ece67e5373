"""Round-batched telemetry: same counts, bounded instrumentation work.

The evaluators account rule firings per fixpoint round and the tracer
folds the batches into its registry when the registry is read
(docs/OBSERVABILITY.md §6).  This suite pins the change down without
timing anything:

* **golden metrics** — every count-valued instrument of the solve's
  registry (all but the ``*wall_s`` timers), the ``rule_profile``
  calls/derived, the ``counters`` event and the non-timing fields of
  every ``iteration`` event, for the paper's catalog × evaluator, equal
  a golden file captured before the change
  (``tests/golden/round_telemetry.json``);
* **op counts** — registry lookups, histogram observations and emitted
  events during a traced solve are bounded by rounds, rules and
  components, not by rule firings: a denser graph with several times
  the firings in a similar number of rounds costs the same;
* **atom counts** — the running model size the evaluators keep
  (trajectory, ``iteration.total_atoms``, the budget checks) equals
  ``Interpretation.total_size()`` at every round boundary.

Regenerate the golden file (only when a change is *meant* to alter the
counts) with ``PYTHONPATH=src python tests/test_round_telemetry.py``.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List, Optional, Tuple

import pytest

from repro.datalog.errors import ReproError
from repro.engine.supervisor import Budget
from repro.obs import Tracer
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.programs import ALL_PROGRAMS, PaperProgram, shortest_path
from repro.workloads import (
    layered_digraph,
    random_digraph,
    random_ownership,
    random_party,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "round_telemetry.json")

METHODS = ("naive", "seminaive", "greedy", "auto")

ARCS = [("a", "b", 1.0), ("b", "c", 2.0), ("a", "c", 5.0), ("c", "a", 1.0)]
SHARES = [("a", "b", 0.6), ("b", "c", 0.3), ("a", "c", 0.3)]
#: EDB per catalog program; programs absent here carry their facts inline.
FACTS: Dict[str, Dict[str, List[Tuple[Any, ...]]]] = {
    "shortest-path": {"arc": ARCS},
    "company-control": {"s": SHARES},
    "company-control-r-monotonic": {"s": SHARES},
    "party-invitations": {
        "requires": [("a", 0), ("b", 1), ("c", 2)],
        "knows": [("b", "a"), ("c", "a"), ("c", "b")],
    },
    "circuit": {
        "gate": [("g", "or"), ("h", "and")],
        "connect": [("g", "w1"), ("g", "w2"), ("h", "g"), ("h", "w1")],
        "input": [("w1", True), ("w2", False)],
    },
    "student-averages": {
        "record": [("s1", "c1", 3.0), ("s2", "c1", 4.0), ("s1", "c2", 2.0)],
        "courses": [("c1",), ("c2",), ("c3",)],
    },
}

#: Evaluation caps: halfsum ascends forever and two-minimal-models may
#: oscillate, so every solve is bounded (converging ones finish far
#: below the cap).
MAX_ITERATIONS = 60


def _by_name(name: str) -> PaperProgram:
    return next(p for p in ALL_PROGRAMS if p.name == name)


def _random_party_facts() -> Dict[str, List[Tuple[Any, ...]]]:
    knows, requires = random_party(14, seed=2)
    return {"knows": knows, "requires": sorted(requires.items())}


def cases() -> List[Tuple[str, PaperProgram, Dict[str, List[Tuple[Any, ...]]]]]:
    """``(label, program, facts)``: the catalog on its small instances,
    plus three random instances large enough for many firings per round."""
    out = [(p.name, p, FACTS.get(p.name, {})) for p in ALL_PROGRAMS]
    out.append(
        (
            "shortest-path/digraph",
            shortest_path,
            {"arc": random_digraph(16, arcs_per_node=2.5, seed=7)},
        )
    )
    out.append(
        (
            "company-control/ownership",
            _by_name("company-control"),
            {"s": random_ownership(12, seed=5)},
        )
    )
    out.append(
        (
            "party-invitations/random",
            _by_name("party-invitations"),
            _random_party_facts(),
        )
    )
    return out


def traced_solve(
    program: PaperProgram,
    facts: Dict[str, List[Tuple[Any, ...]]],
    method: str,
    budget: Optional[Budget] = None,
) -> Tuple[Any, Tracer]:
    tracer = Tracer()
    result = program.database(facts).solve(
        method=method,  # type: ignore[arg-type]
        check="lenient",
        max_iterations=MAX_ITERATIONS,
        tracer=tracer,
        budget=budget,
    )
    return result, tracer


def counts_of(tracer: Tracer, result: Any) -> Dict[str, Any]:
    """Everything count-valued a traced solve reports."""
    metrics = {
        name: state
        for name, state in tracer.metrics.snapshot().items()
        if not name.endswith("wall_s")
    }
    profile = [
        [e["rule_index"], e["rule"], e["calls"], e["derived"]]
        for e in tracer.events
        if e["type"] == "rule_profile"
    ]
    counters = [
        {"index": e["index"], "plan_cache": e["plan_cache"]}
        for e in tracer.events
        if e["type"] == "counters"
    ]
    iterations = [
        [
            e["scc"],
            e["iteration"],
            e["delta_atoms"],
            e["new_atoms"],
            e["changed_atoms"],
            e["total_atoms"],
        ]
        for e in tracer.events
        if e["type"] == "iteration"
    ]
    return {
        "status": result.status,
        "trajectories": [list(r.trajectory) for r in result.component_results],
        "metrics": metrics,
        "rule_profile": profile,
        "counters": counters,
        "iterations": iterations,
    }


def capture_case(
    program: PaperProgram, facts: Dict[str, List[Tuple[Any, ...]]]
) -> Dict[str, Any]:
    """One case's golden payload: ``method[/budget]`` → counts or error."""
    out: Dict[str, Any] = {}
    for method in METHODS:
        for variant, budget in (("", None), ("/budget", Budget(max_iterations=3))):
            try:
                result, tracer = traced_solve(program, facts, method, budget)
            except ReproError as exc:
                out[method + variant] = {"error": type(exc).__name__}
                continue
            # Round-trip through JSON so tuples compare as lists.
            out[method + variant] = json.loads(
                json.dumps(counts_of(tracer, result))
            )
    return out


def capture() -> Dict[str, Any]:
    """The whole golden file: case label → :func:`capture_case`."""
    return {label: capture_case(program, facts) for label, program, facts in cases()}


CASES = cases()


def _golden() -> Dict[str, Any]:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


class TestGoldenMetrics:
    def test_case_set_matches(self):
        assert sorted(_golden()) == sorted(label for label, _, _ in CASES)

    @pytest.mark.parametrize(
        "label,program,facts", CASES, ids=[label for label, _, _ in CASES]
    )
    def test_counts_equal_the_golden_file(self, label, program, facts):
        assert capture_case(program, facts) == _golden()[label]


# -- op counts -------------------------------------------------------------------


def _count_ops(monkeypatch) -> Dict[str, int]:
    """Patch the instrumentation primitives with call counters."""
    ops = {"registry_get": 0, "observe": 0, "emit": 0}
    get = MetricsRegistry._get
    observe = Histogram.observe
    emit = Tracer.emit

    def counted_get(self, name, kind):
        ops["registry_get"] += 1
        return get(self, name, kind)

    def counted_observe(self, value):
        ops["observe"] += 1
        return observe(self, value)

    def counted_emit(self, event_type, **payload):
        ops["emit"] += 1
        return emit(self, event_type, **payload)

    monkeypatch.setattr(MetricsRegistry, "_get", counted_get)
    monkeypatch.setattr(Histogram, "observe", counted_observe)
    monkeypatch.setattr(Tracer, "emit", counted_emit)
    return ops


def _traced_ops(ops: Dict[str, int], arcs, method: str) -> Dict[str, int]:
    """Solve shortest paths over ``arcs`` traced; the instrumentation op
    counts plus the solve's firings, rounds, rules and components."""
    db = shortest_path.database({"arc": arcs})
    for key in ops:
        ops[key] = 0
    tracer = Tracer()
    result = db.solve(method=method, tracer=tracer)  # type: ignore[arg-type]
    assert result.complete
    out = dict(ops)
    out["firings"] = tracer.metrics.counter("rule.firings").value
    out["rounds"] = sum(1 for e in tracer.events if e["type"] == "iteration")
    out["rules"] = len(db.program.rules)
    out["components"] = len(result.components)
    return out


def _bound(run: Dict[str, int]) -> int:
    """Instrumentation a solve may do: a few operations per round, one
    wall observation per rule per round, and a constant per component
    and per solve (phases, ``scc_*`` events, the end-of-solve flush)."""
    return 4 * run["rounds"] * (run["rules"] + 1) + 30 * (run["components"] + 1)


#: Two layered graphs (complete bipartite arcs between 6 layers): the
#: wider one runs ~4x the semi-naive rule firings in the same rounds.
SPARSE = layered_digraph(2, layers=6, seed=1)
DENSE = layered_digraph(4, layers=6, seed=1)


class TestOpCounts:
    def test_more_firings_in_equal_rounds_cost_no_more(self, monkeypatch):
        ops = _count_ops(monkeypatch)
        sparse = _traced_ops(ops, SPARSE, "seminaive")
        dense = _traced_ops(ops, DENSE, "seminaive")
        assert dense["firings"] >= 3 * sparse["firings"], (sparse, dense)
        assert dense["rounds"] == sparse["rounds"], (sparse, dense)
        for key in ops:
            assert dense[key] == sparse[key], (key, sparse, dense)
            assert dense[key] <= _bound(dense), (key, dense)
            # The whole point: far below one operation per firing.
            assert dense[key] < dense["firings"], (key, dense)

    @pytest.mark.parametrize("method", METHODS)
    def test_instrumentation_is_bounded_by_rounds_and_rules(
        self, monkeypatch, method
    ):
        ops = _count_ops(monkeypatch)
        run = _traced_ops(ops, DENSE, method)
        for key in ops:
            assert run[key] <= _bound(run), (key, run)

    def test_untraced_solve_touches_no_instrument(self, monkeypatch):
        ops = _count_ops(monkeypatch)
        db = shortest_path.database({"arc": DENSE})
        for method in METHODS:
            assert db.solve(method=method).complete  # type: ignore[arg-type]
        assert ops == {"registry_get": 0, "observe": 0, "emit": 0}

    def test_registry_reads_fold_pending_batches(self):
        db = shortest_path.database({"arc": SPARSE})
        tracer = Tracer()
        db.solve(method="seminaive", tracer=tracer)
        snapshot = tracer.metrics.snapshot()
        profile = [e for e in tracer.events if e["type"] == "rule_profile"]
        calls = sum(e["calls"] for e in profile)
        derived = sum(e["derived"] for e in profile)
        assert snapshot["rule.firings"]["value"] == calls
        assert snapshot["rule.derived"]["value"] == derived
        assert snapshot["rule.derived_per_firing"]["count"] == calls
        assert snapshot["rule.derived_per_firing"]["sum"] == derived
        # A second read folds nothing twice.
        assert tracer.metrics.snapshot() == snapshot


# -- running atom counts ---------------------------------------------------------


#: The golden solves that complete, per evaluator (two-minimal-models
#: does not converge under naive iteration, for one).
SOLVABLE = [
    (label, program, facts, method)
    for label, program, facts in CASES
    for method in ("naive", "seminaive", "greedy")
    if _golden()[label][method].get("status") == "complete"
]


class TestRunningAtomCounts:
    @pytest.mark.parametrize(
        "label,program,facts,method",
        SOLVABLE,
        ids=[f"{label}-{method}" for label, _, _, method in SOLVABLE],
    )
    def test_counts_equal_total_size_at_every_round(
        self, label, program, facts, method
    ):
        result, tracer = traced_solve(program, facts, method)
        for fixpoint in result.component_results:
            assert fixpoint.trajectory[-1] == fixpoint.interpretation.total_size()
        totals = [
            e["total_atoms"] for e in tracer.events if e["type"] == "iteration"
        ]
        rounds = len(totals)
        # Stop the solve after round k: the interrupted component's
        # partial state is the evaluator's ``j`` at that round boundary,
        # and its size must be what the running count reported for it.
        # Every round of short solves; ~30 spread over long ones.
        stride = max(1, rounds // 30)
        for k in sorted(set(range(1, rounds + 1, stride)) | {rounds}):
            partial, ptracer = traced_solve(
                program, facts, method, Budget(max_iterations=k)
            )
            reported = [
                e["total_atoms"] for e in ptracer.events if e["type"] == "iteration"
            ]
            assert reported == totals[: len(reported)]
            last = partial.component_results[-1] if partial.component_results else None
            if last is None:
                continue
            assert last.trajectory[-1] == last.interpretation.total_size(), k
            if not partial.complete:
                assert reported[-1] == last.interpretation.total_size(), k


def write_golden(path: str) -> None:
    """Write :func:`capture` with one line per case × method."""
    payload = capture()
    lines = ["{"]
    labels = sorted(payload)
    for i, label in enumerate(labels):
        lines.append(f" {json.dumps(label)}: {{")
        keys = sorted(payload[label])
        for j, key in enumerate(keys):
            body = json.dumps(payload[label][key], sort_keys=True)
            comma = "," if j < len(keys) - 1 else ""
            lines.append(f"  {json.dumps(key)}: {body}{comma}")
        lines.append(" }" + ("," if i < len(labels) - 1 else ""))
    lines.append("}")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    write_golden(GOLDEN)
    sys.stdout.write(f"wrote {GOLDEN}\n")
