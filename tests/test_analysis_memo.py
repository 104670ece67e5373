"""Static analysis runs once per program (docs/PERFORMANCE.md §2).

Every static pass — condensation, safety, cost-respecting, conflict,
admissibility, typing, classification, sharding, premappability,
r-monotonicity, the default-linter ``analyze_program``
report, the pushdown rewrite and the rule plans — is memoized on the
:class:`~repro.datalog.program.Program` it analyses
(:meth:`Program.memo`).  This suite pins three things down:

* the pass counts: a cold ``analyze_program`` runs each pass at most
  once, and a warm ``Database.solve`` / ``RequestSupervisor.execute``
  runs none (counting wrappers monkeypatched over the uncached pass
  bodies);
* the gates: a cached verdict is still *enforced* on every solve —
  strict refusals repeat with the same diagnostics, ``check="lenient"``
  still solves, and a reloaded database gets a fresh verdict;
* the models: a warm program solves bit-identically to a freshly built
  one across evaluator × pushdown × storage on the paper's catalog.
"""

from __future__ import annotations

import importlib
from collections import Counter

import pytest

from repro.analysis import analyze_program
from repro.core.database import Database
from repro.datalog.errors import NotAdmissibleError, SafetyError
from repro.engine.exec import clear_plan_cache
from repro.engine.supervisor import CancelToken
from repro.programs import ALL_PROGRAMS, shortest_path, two_minimal_models
from repro.serve import RequestSupervisor, host_program_text

#: The uncached body of every memoized pass, as ``(module, attribute)``.
PASSES = (
    ("repro.analysis.dependencies", "_condense"),
    ("repro.analysis.safety", "_check_program_safety"),
    ("repro.analysis.fd", "_check_program_cost_respecting"),
    ("repro.analysis.conflict", "_check_conflict_freedom"),
    ("repro.analysis.admissible", "_check_program_admissible"),
    ("repro.analysis.typing", "_infer_types"),
    ("repro.analysis.classify", "_classify_program"),
    ("repro.analysis.sharding", "_analyze_sharding"),
    ("repro.analysis.premap", "_analyze_premappability"),
    ("repro.analysis.rmonotonic", "_check_program_r_monotonic"),
    ("repro.analysis.report", "_analyze_program"),
    ("repro.engine.exec", "_compute_pushdown"),
)
#: Rule compilation: per (rule, seed shape, mode), not per program.
COMPILE = ("repro.engine.exec", "compile_rule")

UNSAFE = "p(X, Y) <- q(X).\nq(a).\n"

ARCS = [("a", "b", 1.0), ("b", "c", 2.0), ("a", "c", 5.0), ("c", "a", 1.0)]
SHARES = [("a", "b", 0.6), ("b", "c", 0.3), ("a", "c", 0.3)]
#: EDB per catalog program; programs absent here carry their facts inline.
FACTS = {
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
#: The catalog programs with a unique minimal model to compare
#: (two-minimal-models is the paper's non-admissible counterexample).
SOLVABLE = [p for p in ALL_PROGRAMS if p.expected.get("admissible", True)]


def install_counters(monkeypatch):
    """Wrap every pass body (and rule compilation) with a call counter.

    Returns a :class:`Counter` keyed ``(pass name, id(first argument))``
    — the first argument is the analysed program (the rule, for
    ``compile_rule``).
    """
    calls: Counter = Counter()
    for module_name, attribute in PASSES + (COMPILE,):
        module = importlib.import_module(module_name)
        original = getattr(module, attribute)

        def counted(*args, _name=attribute, _fn=original, **kwargs):
            calls[(_name, id(args[0]))] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attribute, counted)
    return calls


@pytest.fixture
def counting(monkeypatch):
    return install_counters(monkeypatch)


def _codes(excinfo):
    return sorted(d.code for d in excinfo.value.diagnostics)


def canonical(model):
    """Type-sensitive snapshot: predicate → sorted repr'd rows."""
    return sorted(
        (name, sorted(map(repr, rel.rows())))
        for name, rel in model.relations.items()
    )


class TestPassCounts:
    @pytest.mark.parametrize(
        "paper_program", ALL_PROGRAMS, ids=lambda p: p.name
    )
    def test_cold_analyze_runs_each_pass_at_most_once(
        self, paper_program, counting
    ):
        program = paper_program.database().program
        report = analyze_program(program)
        assert report is analyze_program(program)
        assert counting[("_condense", id(program))] == 1
        assert counting[("_analyze_program", id(program))] == 1
        assert max(counting.values()) == 1, counting

    def test_cold_solve_runs_each_pass_once_per_program(self, counting):
        db = shortest_path.database(FACTS["shortest-path"])
        db.solve(method="auto", plan="sharded", workers=1)
        passes = {name for _, name in PASSES}
        per_program = [
            n for (name, _), n in counting.items() if name in passes
        ]
        assert per_program and max(per_program) == 1, counting

    @pytest.mark.parametrize("method", ["naive", "seminaive", "auto"])
    @pytest.mark.parametrize("pushdown", ["auto", "off"])
    def test_warm_solve_runs_no_pass(self, method, pushdown, monkeypatch):
        db = shortest_path.database(FACTS["shortest-path"])
        first = db.solve(method=method, pushdown=pushdown)
        calls = install_counters(monkeypatch)
        second = db.solve(method=method, pushdown=pushdown)
        assert not calls, calls
        assert second.analysis is first.analysis
        assert canonical(second.model) == canonical(first.model)

    def test_warm_request_runs_no_pass(self, monkeypatch, tmp_path):
        hosted = host_program_text(
            "paths",
            shortest_path.source
            + "".join(f"arc({u}, {v}, {w}).\n" for u, v, w in ARCS),
        )
        supervisor = RequestSupervisor(
            flight_dir=str(tmp_path), checkpoint_dir=None
        )

        def request(request_id):
            return supervisor.execute(
                hosted,
                {"query": "s"},
                request_id=request_id,
                cancel=CancelToken(),
            )

        first = request("r1")
        calls = install_counters(monkeypatch)
        second = request("r2")
        assert not calls, calls
        assert first.http_status == second.http_status == 200
        assert first.body["rows"] == second.body["rows"]


class TestGates:
    def test_unsafe_program_refused_on_every_solve(self):
        db = Database()
        db.load(UNSAFE)
        with pytest.raises(SafetyError) as first:
            db.solve()
        with pytest.raises(SafetyError) as second:
            db.solve()
        assert _codes(first) == _codes(second)
        assert "MAD101" in _codes(first)

    def test_non_admissible_program_refused_on_every_solve(self):
        db = two_minimal_models.database()
        with pytest.raises(NotAdmissibleError) as first:
            db.solve()
        with pytest.raises(NotAdmissibleError) as second:
            db.solve()
        assert _codes(first) == _codes(second)
        assert any(code.startswith("MAD3") for code in _codes(first))

    def test_lenient_after_strict_refusal_still_solves(self):
        db = Database()
        db.load(
            """
            @cost p/2 : nonneg_reals_le.
            @cost q/2 : nonneg_reals_le.
            @cost r/2 : nonneg_reals_le.
            p(X, C) <- q(X, C).
            p(X, C) <- r(X, C).
            """
        )
        db.add_fact("q", "a", 1)
        db.add_fact("r", "b", 2)  # disjoint keys: no actual conflict
        with pytest.raises(NotAdmissibleError):
            db.solve()
        result = db.solve(check="lenient")
        assert result["p"] == {("a",): 1, ("b",): 2}
        with pytest.raises(NotAdmissibleError):
            db.solve()

    def test_load_after_solve_gives_a_fresh_verdict(self):
        db = Database()
        db.load("q(a).\nr(X) <- q(X).\n")
        safe = db.program
        assert db.solve()["r"] == frozenset({("a",)})
        db.load("p(X, Y) <- q(X).\n")
        assert db.program is not safe
        with pytest.raises(SafetyError):
            db.solve()
        assert analyze_program(safe).range_restricted

    def test_fact_for_rule_defined_predicate_rebuilds_program(self):
        db = Database()
        db.load("p(X) <- q(X).\nq(1).\n")
        assert db.solve()["p"] == frozenset({(1,)})
        db.add_fact("p", 7)
        assert db.solve()["p"] == frozenset({(1,), (7,)})

    def test_clear_plan_cache_drops_every_memo_entry(self):
        db = shortest_path.database(FACTS["shortest-path"])
        program = db.program
        report = db.solve(method="auto").analysis
        assert {"analysis", "pushdown", "classification", "condense"} <= set(
            program._memo
        )
        clear_plan_cache(program)
        assert not program._memo
        assert "every" in (clear_plan_cache.__doc__ or "")
        assert db.solve(method="auto").analysis is not report


class TestWarmModels:
    @pytest.mark.parametrize(
        "paper_program", SOLVABLE, ids=lambda p: p.name
    )
    def test_warm_program_solves_like_a_fresh_one(self, paper_program):
        facts = FACTS.get(paper_program.name)
        warm = paper_program.database(facts)
        warm.solve()
        program = warm.program
        for method in ("naive", "seminaive", "greedy", "auto"):
            for pushdown in ("auto", "off"):
                for storage in ("boxed", "columnar"):
                    options = dict(
                        method=method, pushdown=pushdown, storage=storage
                    )
                    fresh = paper_program.database(facts).solve(**options)
                    again = warm.solve(**options)
                    assert warm.program is program
                    assert again.status == fresh.status == "complete"
                    assert canonical(again.model) == canonical(
                        fresh.model
                    ), options
