"""The compiled execution layer: plans, persistent indexes, seed plans.

Covers the contract between :mod:`repro.engine.exec` and the interpreted
reference path in :mod:`repro.engine.grounding`:

* ``run_rule`` enumerates exactly the heads ``evaluate_body`` +
  ``ground_head`` produce, with and without seeds, in both plan modes;
* ``plan="off"`` reproduces the legacy ``schedule`` order verbatim;
* plans are cached per (rule, seed shape, mode) on the program;
* relation-owned indexes stay equal to a from-scratch rebuild across
  in-place mutations (the incremental-maintenance invariant);
* ``_delta_seed_groups`` deduplicates seeds and honours constant /
  duplicate-variable positions in changed rows.
"""

import pytest

from repro.datalog.errors import SafetyError
from repro.datalog.parser import parse_program
from repro.datalog.terms import Variable
from repro.engine.exec import (
    PLAN_MODES,
    clear_plan_cache,
    get_plan,
    plan_order,
    run_rule,
)
from repro.engine.grounding import (
    EvalContext,
    evaluate_body,
    ground_head,
    schedule,
)
from repro.engine.interpretation import INDEX_STATS, Interpretation
from repro.engine.seminaive import _delta_seed_groups
from repro.programs import (
    circuit,
    company_control,
    party_invitations,
    shortest_path,
)
from repro.workloads import (
    random_circuit,
    random_digraph,
    random_ownership,
    random_party,
)

PAPER_PROGRAMS = [shortest_path, company_control, party_invitations, circuit]


def _delta_seeds(rule, cdb, delta):
    """Every seed of the rule's seed groups, in firing order."""
    return [seed for _, seeds in _delta_seed_groups(rule, cdb, delta) for seed in seeds]


def sample_db(paper):
    """A small, deterministic instance of one paper program."""
    if paper is shortest_path:
        facts = {"arc": random_digraph(8, seed=3)}
    elif paper is company_control:
        facts = {"s": random_ownership(10, seed=4)}
    elif paper is party_invitations:
        knows, requires = random_party(12, seed=5)
        facts = {"knows": knows, "requires": list(requires.items())}
    else:
        inst = random_circuit(10, seed=6)
        facts = {
            "gate": inst.gates,
            "connect": inst.connects,
            "input": inst.inputs,
        }
    return paper.database(facts)


def setup(source, facts):
    program = parse_program(source)
    edb = Interpretation(program.declarations)
    for predicate, rows in facts.items():
        for row in rows:
            edb.add_fact(predicate, *row)
    j = Interpretation(program.declarations)
    ctx = EvalContext(program, program.idb_predicates, j, edb)
    return program, ctx


def heads_via_legacy(rule, ctx, seed=None):
    return sorted(
        (ground_head(rule, b) for b in evaluate_body(rule, ctx, initial=seed)),
        key=repr,
    )


def heads_via_exec(rule, ctx, seed=None, mode="smart"):
    return sorted(run_rule(rule, ctx, seed=seed, mode=mode), key=repr)


class TestRunRuleEquivalence:
    """run_rule == evaluate_body + ground_head on every paper program."""

    @pytest.mark.parametrize("paper", PAPER_PROGRAMS, ids=lambda p: p.name)
    @pytest.mark.parametrize("mode", PLAN_MODES)
    def test_rules_against_solved_model(self, paper, mode):
        db = sample_db(paper)
        model = db.solve(method="naive").model
        program = db.program
        cdb = frozenset(program.declarations)
        empty = Interpretation(program.declarations)
        ctx = EvalContext(program, cdb, model, empty)
        for rule in program.rules:
            if rule.is_fact:
                continue
            assert heads_via_exec(rule, ctx, mode=mode) == heads_via_legacy(
                rule, ctx
            )

    @pytest.mark.parametrize("mode", PLAN_MODES)
    def test_with_seed(self, mode):
        program, ctx = setup(
            "p(X, Z) <- e(X, Y), e(Y, Z).",
            {"e": [("a", "b"), ("b", "c"), ("b", "d")]},
        )
        rule = program.rules[0]
        seed = {Variable("Y"): "b"}
        assert heads_via_exec(rule, ctx, seed=seed, mode=mode) == (
            heads_via_legacy(rule, ctx, seed=seed)
        )

    def test_builtin_and_negation(self):
        program, ctx = setup(
            "p(X, C) <- e(X, Y), C = Y + 1, not q(X).",
            {"e": [(1, 2), (3, 4)], "q": [(3,)]},
        )
        rule = program.rules[0]
        assert heads_via_exec(rule, ctx) == [("p", (1, 3))]
        assert heads_via_exec(rule, ctx) == heads_via_legacy(rule, ctx)

    def test_duplicate_variable_filter(self):
        program, ctx = setup(
            "p(X) <- e(X, X).", {"e": [("a", "a"), ("a", "b")]}
        )
        rule = program.rules[0]
        assert heads_via_exec(rule, ctx) == [("p", ("a",))]

    def test_unknown_mode_rejected(self):
        program, ctx = setup("p(X) <- e(X, X).", {"e": [("a", "a")]})
        with pytest.raises(ValueError):
            list(run_rule(program.rules[0], ctx, mode="fancy"))


class TestPlanOrder:
    @pytest.mark.parametrize("paper", PAPER_PROGRAMS, ids=lambda p: p.name)
    def test_off_matches_legacy_schedule(self, paper):
        program = sample_db(paper).program
        for rule in program.rules:
            if rule.is_fact:
                continue
            assert plan_order(
                rule, program, frozenset(), mode="off"
            ) == schedule(rule, program)

    def test_smart_prefers_selective_atom(self):
        """With a live size skew, the small relation is joined first."""
        program, ctx = setup(
            "p(X, Z) <- big(X, Y), small(Y, Z).",
            {
                "big": [(i, i + 1) for i in range(50)],
                "small": [(1, 2)],
            },
        )
        rule = program.rules[0]
        order = plan_order(rule, program, frozenset(), mode="smart", ctx=ctx)
        assert str(order[0]).startswith("small")
        # Same answers either way.
        assert heads_via_exec(rule, ctx, mode="smart") == heads_via_exec(
            rule, ctx, mode="off"
        )

    def test_smart_respects_readiness(self):
        """Negation still runs only once its variables are bound."""
        program, ctx = setup(
            "p(X) <- not r(X), q(X).", {"q": [(1,), (2,)], "r": [(2,)]}
        )
        rule = program.rules[0]
        order = plan_order(rule, program, frozenset(), mode="smart", ctx=ctx)
        assert str(order[-1]).startswith("not")
        assert heads_via_exec(rule, ctx) == [("p", (1,))]

    def test_unschedulable_rule_raises(self):
        program = parse_program("p(X) <- q(X), Y < Z.")
        with pytest.raises(SafetyError):
            plan_order(program.rules[0], program, frozenset(), mode="off")


class TestPlanCache:
    def test_cache_hit_same_shape(self):
        program, ctx = setup("p(X, Z) <- e(X, Y), e(Y, Z).", {"e": [(1, 2)]})
        rule = program.rules[0]
        first = get_plan(program, rule, frozenset(), mode="smart", ctx=ctx)
        again = get_plan(program, rule, frozenset(), mode="smart", ctx=ctx)
        assert first is again

    def test_distinct_entries_per_seed_shape_and_mode(self):
        program, ctx = setup("p(X, Z) <- e(X, Y), e(Y, Z).", {"e": [(1, 2)]})
        rule = program.rules[0]
        base = get_plan(program, rule, frozenset(), mode="smart", ctx=ctx)
        seeded = get_plan(
            program, rule, frozenset({Variable("Y")}), mode="smart", ctx=ctx
        )
        off = get_plan(program, rule, frozenset(), mode="off", ctx=ctx)
        assert base is not seeded
        assert base is not off
        assert len(program.memo("plans", dict)) == 3

    def test_clear_plan_cache(self):
        program, ctx = setup("p(X) <- e(X, X).", {"e": [(1, 1)]})
        rule = program.rules[0]
        first = get_plan(program, rule, frozenset(), mode="smart", ctx=ctx)
        clear_plan_cache(program)
        assert not program._memo
        assert get_plan(program, rule, ctx=ctx) is not first


def _rebuilt_index(rel, positions):
    index = {}
    for row in rel.rows():
        index.setdefault(tuple(row[p] for p in positions), []).append(row)
    return index


def _normalized(index):
    return {
        key: sorted(rows, key=repr) for key, rows in index.items() if rows
    }


class TestIncrementalIndexes:
    """Live index contents always equal a from-scratch rebuild."""

    def test_tuple_relation_updates_in_place(self):
        i = Interpretation(parse_program("p(X) <- e(X, X).").declarations)
        rel = i.relation("e")
        rel.add_tuple((1, 2))
        rel.lookup((0,), (1,))  # build the index on column 0
        rel.add_tuple((1, 3))
        rel.add_tuple((4, 5))
        for positions, index in rel._indexes.items():
            assert _normalized(index) == _normalized(
                _rebuilt_index(rel, positions)
            )
        assert sorted(rel.lookup((0,), (1,))) == [(1, 2), (1, 3)]

    def test_cost_relation_replacement_updates_in_place(self):
        program = parse_program(
            "@cost s/3 : reals_ge.\ns(X, Y, C) <- arc(X, Y, C)."
        )
        i = Interpretation(program.declarations)
        rel = i.relation("s")
        rel.set_cost(("a", "b"), 5.0, strict=False)
        rel.set_cost(("a", "c"), 7.0, strict=False)
        rel.lookup((0,), ("a",))  # build
        rel.lookup((1,), ("b",))  # build a second index
        # Join-improving update replaces the row inside every live index.
        assert rel.set_cost(("a", "b"), 3.0, strict=False)
        # Dominated update is a no-op.
        assert not rel.set_cost(("a", "b"), 9.0, strict=False)
        for positions, index in rel._indexes.items():
            assert _normalized(index) == _normalized(
                _rebuilt_index(rel, positions)
            )
        assert rel.lookup((1,), ("b",)) == [("a", "b", 3.0)]

    def test_rows_list_tracks_inserts(self):
        i = Interpretation(parse_program("p(X) <- e(X, X).").declarations)
        rel = i.relation("e")
        rel.add_tuple((1, 2))
        assert sorted(rel.rows_list()) == [(1, 2)]
        rel.add_tuple((3, 4))
        assert sorted(rel.rows_list()) == [(1, 2), (3, 4)]

    def test_bulk_mutation_invalidates(self):
        i = Interpretation(parse_program("p(X) <- e(X, X).").declarations)
        rel = i.relation("e")
        rel.add_tuple((1, 2))
        rel.lookup((0,), (1,))
        rel.merge_tuples({(8, 9)})
        assert rel._indexes == {}
        assert sorted(rel.lookup((0,), (8,))) == [(8, 9)]

    def test_stats_count_hits_and_misses(self):
        i = Interpretation(parse_program("p(X) <- e(X, X).").declarations)
        rel = i.relation("e")
        rel.add_tuple((1, 2))
        INDEX_STATS.reset()
        rel.lookup((0,), (1,))
        rel.lookup((0,), (1,))
        rel.lookup((0,), (7,))
        assert INDEX_STATS.misses == 1
        assert INDEX_STATS.hits == 2
        assert INDEX_STATS.builds == 1


class TestDeltaSeeds:
    def test_duplicate_rows_deduplicated(self):
        program = parse_program("p(X, Z) <- e(X, Y), e(Y, Z).")
        rule = program.rules[0]
        cdb = frozenset({"e", "p"})
        delta = {"e": [(1, 2), (1, 2), (1, 2)]}
        seeds = list(_delta_seeds(rule, cdb, delta))
        # Two subgoals x three identical rows collapse to two seed shapes:
        # {X:1, Y:2} (first subgoal) and {Y:1, Z:2} (second subgoal).
        assert len(seeds) == 2
        assert {frozenset((v.name, c) for v, c in s.items()) for s in seeds} == {
            frozenset({("X", 1), ("Y", 2)}),
            frozenset({("Y", 1), ("Z", 2)}),
        }

    def test_groups_follow_seed_sources_and_share_a_shape(self):
        program = parse_program("p(X, Z) <- e(X, Y), e(Y, Z).")
        rule = program.rules[0]
        delta = {"e": [(1, 2), (2, 3)]}
        groups = _delta_seed_groups(rule, frozenset({"e", "p"}), delta)
        shapes = [{v.name for v in shape} for shape, _ in groups]
        assert shapes == [{"X", "Y"}, {"Y", "Z"}]
        for shape, seeds in groups:
            assert len(seeds) == 2
            assert all(set(seed) == shape for seed in seeds)

    def test_symmetric_subgoals_share_one_seed(self):
        program = parse_program("p(X, Y) <- e(X, Y), e(Y, X).")
        rule = program.rules[0]
        seeds = list(_delta_seeds(rule, frozenset({"e", "p"}), {"e": [(1, 1)]}))
        assert seeds == [{Variable("X"): 1, Variable("Y"): 1}]

    def test_constant_positions_filter_rows(self):
        program = parse_program("p(X) <- e(a, X).")
        rule = program.rules[0]
        delta = {"e": [("a", 1), ("b", 2)]}
        seeds = list(_delta_seeds(rule, frozenset({"e", "p"}), delta))
        assert seeds == [{Variable("X"): 1}]

    def test_duplicate_variable_positions_filter_rows(self):
        program = parse_program("p(X) <- e(X, X).")
        rule = program.rules[0]
        delta = {"e": [(1, 1), (1, 2)]}
        seeds = list(_delta_seeds(rule, frozenset({"e", "p"}), delta))
        assert seeds == [{Variable("X"): 1}]

    def test_aggregate_conjunct_projects_to_grouping(self):
        program = parse_program(
            "@cost q/2 : reals_ge.\n@cost p/2 : reals_ge.\n"
            "p(X, C) <- C =r min{D : q(X, D)}."
        )
        rule = program.rules[0]
        delta = {"q": [("a", 3.0), ("a", 5.0)]}
        seeds = list(_delta_seeds(rule, frozenset({"q", "p"}), delta))
        # Both rows fall in group X=a: one seed, projected off D.
        assert seeds == [{Variable("X"): "a"}]
