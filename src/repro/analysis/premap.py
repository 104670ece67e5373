"""Premappability analysis and the aggregate-pushdown rewrite.

Ross & Sagiv evaluate a recursive extremum by iterating the whole
component to fixpoint over the *full* interior relation and aggregating
it on every round.  Zaniolo et al. ("Fixpoint Semantics and Optimization
of Recursive Datalog Programs with Aggregates") observe that when the
extremum is *premappable* the aggregate can be pushed into the recursion:
only the best cost per group needs to be carried through the fixpoint,
and the interior relation can be reconstructed afterwards, outside the
recursion.

For the canonical shortest-path program

    path(X, direct, Y, C) <- arc(X, Y, C).
    path(X, Z, Y, C)      <- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
    s(X, Y, C)            <- C =r min{D : path(X, Z, Y, D)}.

the recursion carries ``path`` keyed by *(source, via, target)* — an
O(n^3) frontier — even though ``s`` only ever consumes ``min`` over the
``via`` column.  The pushdown introduces an auxiliary cost predicate over
the grouping key alone,

    path__frontier(X, Y, C) <- arc(X, Y, C).
    path__frontier(X, Y, C) <- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
    s(X, Y, C)              <- C =r min{D : path__frontier(X, Y, D)}.
    path(X, direct, Y, C)   <- arc(X, Y, C).                 % unchanged
    path(X, Z, Y, C)        <- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.

where ``path__frontier`` inherits ``path``'s lattice, so its relation
*joins* conflicting costs per key — the join on ``(R ∪ {±∞}, ≥)`` IS the
minimum, i.e. the aggregate has been mapped over rule heads.  The
recursion now lives in ``{path__frontier, s}`` with an O(n^2) frontier;
``path`` keeps its original rules but reads only ``s`` and the EDB, so it
drops out of the recursion into a stratified stratum above it.  The final
model restricted to the original predicates is unchanged (the hypothesis
differential suite in ``tests/test_pushdown_equivalence.py`` pins this
against all three evaluators).

Premappability here is established *statically*, per (SCC, aggregate
occurrence), by composing the existing analyses:

* the component must be classified certified-``MONOTONIC``
  (:mod:`repro.analysis.classify` — which folds in admissibility, the
  builtin monotonicity dataflow and lattice typing), so the collapsed
  join semantics agrees with the iterated minimal model;
* the aggregate must be an extremum whose orientation matches the
  interior lattice's ``numeric_direction`` (the lattice join must *be*
  the aggregate — ``min`` needs a ≥-ordered chain, ``max`` a ≤-ordered
  one), otherwise pushing would change semantics;
* the grouping key must functionally determine the pushdown frontier
  (:mod:`repro.analysis.fd`, Definition 2.7), witnessed per rule;
* the SCC must contain no interfering negation, no default-value
  predicate, and the interior predicate may not leak into the recursion
  anywhere except through this one aggregate.

Every verdict carries its witness chain; ``repro lint`` surfaces them as
MAD801 (applied) / MAD802 (blocked) / MAD803 (would change semantics),
``repro optimize`` prints the rewritten program, and the solver applies
the rewrite automatically unless ``pushdown="off"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.aggregates.standard import Maximum, Minimum
from repro.analysis.classify import (
    ComponentClass,
    ProgramClassification,
    classify_program,
)
from repro.analysis.dependencies import Component
from repro.analysis.fd import check_program_cost_respecting
from repro.analysis.wellformed import _is_cdb_aggregate
from repro.datalog.atoms import (
    AggregateSubgoal,
    Atom,
    AtomSubgoal,
    Subgoal,
)
from repro.datalog.program import PredicateDecl, Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Variable

#: Verdict statuses, in diagnostic order.
APPLIED = "applied"
BLOCKED = "blocked"
CHANGES_SEMANTICS = "changes-semantics"

#: Suffix of the auxiliary collapsed-frontier predicate.
AUX_SUFFIX = "__frontier"


@dataclass(frozen=True)
class PremapWitness:
    """One checked premappability condition and its outcome."""

    condition: str
    detail: str
    ok: bool

    def __str__(self) -> str:
        mark = "✓" if self.ok else "✗"
        return f"{mark} {self.condition}: {self.detail}"


@dataclass
class PremapVerdict:
    """The analysis outcome for one (SCC, aggregate occurrence)."""

    rule: Rule
    rule_index: int
    component: Component
    status: str
    #: Aggregate function name (``min``/``max``/...).
    function: str
    #: The aggregate's head predicate.
    head: str
    #: The interior predicate the aggregate consumes (first conjunct's).
    predicate: str
    witnesses: Tuple[PremapWitness, ...] = ()
    #: Populated only when ``status == APPLIED`` — everything the
    #: rewriter needs, resolved during analysis.
    plan: Optional["PushdownPlan"] = None

    @property
    def ok(self) -> bool:
        return self.status == APPLIED

    @property
    def witness(self) -> str:
        """The first failing condition's detail (empty when applied)."""
        for w in self.witnesses:
            if not w.ok:
                return w.detail
        return ""

    def __str__(self) -> str:
        where = f"{self.head} over {self.predicate} ({self.function})"
        if self.ok:
            return f"pushdown applied: {where}"
        return f"pushdown {self.status}: {where} — {self.witness}"


@dataclass(frozen=True)
class PushdownPlan:
    """Resolved ingredients of one applicable pushdown."""

    #: Name of the auxiliary collapsed-frontier predicate.
    auxiliary: str
    #: The interior predicate being collapsed.
    predicate: str
    #: The aggregate's head predicate.
    head: str
    #: The aggregate function being pushed (``min``/``max``).
    function: str
    #: Key positions of ``predicate`` kept in the auxiliary (grouping
    #: positions, in argument order; the cost column is always kept).
    kept_positions: Tuple[int, ...]


@dataclass
class PremapReport:
    """All per-occurrence verdicts for a program."""

    program: Program
    verdicts: List[PremapVerdict] = field(default_factory=list)

    @property
    def applicable(self) -> List[PremapVerdict]:
        return [v for v in self.verdicts if v.ok]

    def __str__(self) -> str:
        if not self.verdicts:
            return "no recursive aggregate occurrences"
        return "\n".join(str(v) for v in self.verdicts)


@dataclass
class PushdownResult:
    """The rewrite outcome: the program to evaluate plus provenance."""

    original: Program
    program: Program
    report: PremapReport
    #: One entry per applied occurrence.
    applied: Tuple[PushdownPlan, ...] = ()

    @property
    def changed(self) -> bool:
        return bool(self.applied)

    @property
    def aux_predicates(self) -> FrozenSet[str]:
        return frozenset(plan.auxiliary for plan in self.applied)


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def _fail(
    witnesses: List[PremapWitness], condition: str, detail: str
) -> PremapWitness:
    w = PremapWitness(condition, detail, ok=False)
    witnesses.append(w)
    return w


def _pass(
    witnesses: List[PremapWitness], condition: str, detail: str
) -> PremapWitness:
    w = PremapWitness(condition, detail, ok=True)
    witnesses.append(w)
    return w


def _aux_name(predicate: str, program: Program) -> str:
    """A collision-free name for the collapsed-frontier predicate."""
    base = f"{predicate}{AUX_SUFFIX}"
    name = base
    counter = 0
    while name in program.declarations:
        counter += 1
        name = f"{base}{counter}"
    return name


def _occurrence_verdict(
    rule: Rule,
    rule_index: int,
    sg: AggregateSubgoal,
    component: Component,
    program: Program,
    classification: ProgramClassification,
) -> PremapVerdict:
    """Decide one aggregate occurrence (module docstring's conditions)."""
    head = rule.head.predicate
    interior = sg.conjuncts[0].predicate
    witnesses: List[PremapWitness] = []

    def verdict(status: str) -> PremapVerdict:
        return PremapVerdict(
            rule=rule,
            rule_index=rule_index,
            component=component,
            status=status,
            function=sg.function,
            head=head,
            predicate=interior,
            witnesses=tuple(witnesses),
        )

    # -- semantic preconditions: monotone join must equal the aggregate --
    by_cdb = {c.component.cdb: c for c in classification.components}
    cls = by_cdb.get(component.cdb)
    if cls is None or cls.verdict is not ComponentClass.MONOTONIC or not cls.certified:
        reason = (
            "; ".join(cls.reasons)
            if cls is not None and cls.reasons
            else "component is not certified monotonic"
        )
        if component.recursive_through_negation:
            reason = "interfering negation in the SCC"
        _fail(
            witnesses,
            "monotone-component",
            f"component({', '.join(sorted(component.cdb))}) is not "
            f"certified monotonic: {reason}",
        )
        return verdict(BLOCKED)
    _pass(
        witnesses,
        "monotone-component",
        f"component({', '.join(sorted(component.cdb))}) certified "
        f"{cls.verdict.value}; no interfering negation or builtin",
    )

    function = program.aggregate_function(sg.function)
    if isinstance(function, Minimum):
        wanted_direction = -1
    elif isinstance(function, Maximum):
        wanted_direction = +1
    else:
        _fail(
            witnesses,
            "extremal-aggregate",
            f"{sg.function} is not an extremum — mapping it over rule "
            f"heads would aggregate partial groups and change the model",
        )
        return verdict(CHANGES_SEMANTICS)
    _pass(
        witnesses,
        "extremal-aggregate",
        f"{sg.function} is an idempotent extremum",
    )

    # -- structural shape of the aggregate rule --------------------------
    if len(rule.body) != 1 or len(list(rule.aggregate_subgoals())) != 1:
        _fail(
            witnesses,
            "rule-shape",
            "the aggregate must be the rule's only subgoal",
        )
        return verdict(BLOCKED)
    if not sg.restricted:
        _fail(
            witnesses,
            "rule-shape",
            "only the =r form is premappable (the = form asserts "
            "extremal values for empty groups)",
        )
        return verdict(BLOCKED)
    if not isinstance(sg.result, Variable) or sg.multiset_var is None:
        _fail(
            witnesses,
            "rule-shape",
            "the aggregate needs a variable result and an explicit "
            "multiset variable",
        )
        return verdict(BLOCKED)
    if len(sg.conjuncts) != 1:
        _fail(
            witnesses,
            "rule-shape",
            "multi-conjunct aggregates are not premappable (the frontier "
            "is a join, not a single predicate)",
        )
        return verdict(BLOCKED)
    conjunct = sg.conjuncts[0]
    if interior == head:
        _fail(
            witnesses,
            "rule-shape",
            f"the aggregate reads its own head predicate {head}",
        )
        return verdict(BLOCKED)
    args = conjunct.args
    if not all(isinstance(a, Variable) for a in args) or len(set(args)) != len(
        args
    ):
        _fail(
            witnesses,
            "rule-shape",
            f"the conjunct {conjunct} must use distinct variables (no "
            f"constants or repeats) so head projection is a pure "
            f"column drop",
        )
        return verdict(BLOCKED)
    if args[-1] != sg.multiset_var:
        _fail(
            witnesses,
            "rule-shape",
            f"the multiset variable must be {interior}'s cost column "
            f"(its last argument)",
        )
        return verdict(BLOCKED)
    _pass(
        witnesses,
        "rule-shape",
        f"single =r extremum over the single conjunct {conjunct}",
    )

    # -- lattice alignment: the interior join must BE the aggregate ------
    decl = program.decl(interior)
    head_decl = program.decl(head)
    if not decl.is_cost_predicate or not head_decl.is_cost_predicate:
        _fail(
            witnesses,
            "lattice-alignment",
            f"{interior} and {head} must both be cost predicates",
        )
        return verdict(BLOCKED)
    assert decl.lattice is not None
    direction = decl.lattice.numeric_direction
    if direction != wanted_direction:
        order = "≥-ordered (join = min)" if wanted_direction == -1 else "≤-ordered (join = max)"
        _fail(
            witnesses,
            "lattice-alignment",
            f"{sg.function} needs {interior}'s lattice to be a numeric "
            f"{order} chain; {decl.lattice.name} joins away the "
            f"{sg.function}imum, so eager collapse would change the model",
        )
        return verdict(CHANGES_SEMANTICS)
    _pass(
        witnesses,
        "lattice-alignment",
        f"{decl.lattice.name}'s join is exactly {sg.function} — "
        f"collapsing per-key costs preserves the aggregate",
    )
    for name in sorted(component.cdb):
        if program.decl(name).has_default:
            _fail(
                witnesses,
                "lattice-alignment",
                f"default-value predicate {name} in the SCC: defaults "
                f"fire on the full relation, not the collapsed frontier",
            )
            return verdict(BLOCKED)

    # -- grouping key must survive as head key and drop ≥ 1 column -------
    grouping = rule.grouping_variables(sg)
    head_keys = rule.head.args[: head_decl.key_arity]
    if (
        rule.head.args[-1] != sg.result
        or not all(isinstance(a, Variable) for a in head_keys)
        or len(set(head_keys)) != len(head_keys)
        or set(head_keys) != set(grouping)
    ):
        _fail(
            witnesses,
            "grouping-key",
            f"head key {tuple(str(a) for a in head_keys)} must be "
            f"exactly the grouping variables "
            f"{tuple(sorted(v.name for v in grouping))} with the "
            f"aggregate result as cost",
        )
        return verdict(BLOCKED)
    kept_positions = tuple(
        i for i, a in enumerate(args[:-1]) if a in grouping
    )
    dropped = [a for a in args[:-1] if a not in grouping]
    if not dropped:
        _fail(
            witnesses,
            "grouping-key",
            f"no local column to drop — the frontier over {interior} is "
            f"already collapsed to the grouping key",
        )
        return verdict(BLOCKED)
    _pass(
        witnesses,
        "grouping-key",
        f"dropping local column(s) "
        f"{', '.join(str(v) for v in dropped)} shrinks the frontier key "
        f"from {len(args) - 1} to {len(kept_positions)} columns",
    )

    # -- functional dependencies: keys determine the frontier ------------
    fd_report = check_program_cost_respecting(program)[rule_index]
    if not fd_report.ok:
        _fail(
            witnesses,
            "functional-dependency",
            f"grouping key does not determine the aggregate value: "
            f"{fd_report.detail}",
        )
        return verdict(BLOCKED)
    _pass(
        witnesses,
        "functional-dependency",
        f"Definition 2.7 holds for the aggregate rule ({fd_report.detail})",
    )

    # -- recursion topology ----------------------------------------------
    if component.cdb != frozenset({interior, head}):
        _fail(
            witnesses,
            "scc-shape",
            f"the SCC contains "
            f"{', '.join(sorted(component.cdb - {interior, head}))} "
            f"beyond the interior/head pair — the reconstruction stratum "
            f"would not be stratified",
        )
        return verdict(BLOCKED)
    for other_index, other in enumerate(program.rules):
        if other is rule:
            continue
        if other.head.predicate == interior:
            # Interior rules must read only lower strata and the
            # aggregate head, so reconstruction can run above the
            # collapsed recursion.
            bad = [
                p
                for p in other.body_predicates()
                if p in component.cdb and p != head
            ]
            if bad:
                _fail(
                    witnesses,
                    "scc-shape",
                    f"rule {other_index} ({other}) feeds {interior} from "
                    f"{', '.join(sorted(set(bad)))} — the frontier cannot "
                    f"be collapsed while {interior} reads itself",
                )
                return verdict(BLOCKED)
        elif other.head.predicate == head:
            if interior in set(other.body_predicates()):
                _fail(
                    witnesses,
                    "scc-shape",
                    f"rule {other_index} ({other}) also consumes "
                    f"{interior} — only a single aggregate occurrence "
                    f"may read the collapsed frontier",
                )
                return verdict(BLOCKED)
        elif other.head.predicate in component.cdb:
            continue
        else:
            # Consumers outside the SCC read the reconstructed relation,
            # which is unchanged — nothing to check.
            continue
    _pass(
        witnesses,
        "scc-shape",
        f"{interior} is consumed in-SCC only by this aggregate, and its "
        f"rules read only {head} and lower strata",
    )

    aux = _aux_name(interior, program)
    return PremapVerdict(
        rule=rule,
        rule_index=rule_index,
        component=component,
        status=APPLIED,
        function=sg.function,
        head=head,
        predicate=interior,
        witnesses=tuple(witnesses),
        plan=PushdownPlan(
            auxiliary=aux,
            predicate=interior,
            head=head,
            function=sg.function,
            kept_positions=kept_positions,
        ),
    )


def analyze_premappability(program: Program) -> PremapReport:
    """Premappability verdicts for every recursive aggregate occurrence.

    Aggregate occurrences that read lower strata only (stratified
    aggregation) are silently skipped — there is no recursion to push
    into.  Memoized on the program; reads its memoized classification.
    """
    return program.memo(
        "premappability", lambda: _analyze_premappability(program)
    )


def _analyze_premappability(program: Program) -> PremapReport:
    classification = classify_program(program)
    report = PremapReport(program=program)
    rule_index = {id(rule): i for i, rule in enumerate(program.rules)}
    for cls in classification.components:
        component = cls.component
        if not component.recursive_through_aggregation:
            continue
        for rule in component.rules:
            for sg in rule.aggregate_subgoals():
                if not _is_cdb_aggregate(sg, component.cdb):
                    continue
                report.verdicts.append(
                    _occurrence_verdict(
                        rule,
                        rule_index[id(rule)],
                        sg,
                        component,
                        program,
                        classification,
                    )
                )
    return report


# ---------------------------------------------------------------------------
# Rewrite
# ---------------------------------------------------------------------------


def _project_rule(rule: Rule, plan: PushdownPlan) -> Rule:
    """An interior rule with its head projected onto the kept columns."""
    head_args = tuple(rule.head.args[i] for i in plan.kept_positions) + (
        rule.head.args[-1],
    )
    return Rule(
        head=Atom(plan.auxiliary, head_args),
        body=rule.body,
        label=f"{rule.label or rule.head.predicate}-pushdown",
    )


def _redirect_aggregate(rule: Rule, plan: PushdownPlan) -> Rule:
    """The aggregate rule re-aimed at the collapsed frontier."""
    (sg,) = rule.aggregate_subgoals()
    conjunct = sg.conjuncts[0]
    aux_args = tuple(conjunct.args[i] for i in plan.kept_positions) + (
        conjunct.args[-1],
    )
    redirected = AggregateSubgoal(
        result=sg.result,
        function=sg.function,
        multiset_var=sg.multiset_var,
        conjuncts=(Atom(plan.auxiliary, aux_args),),
        restricted=sg.restricted,
    )
    new_body: List[Subgoal] = [
        redirected if s is sg else s for s in rule.body
    ]
    return Rule(head=rule.head, body=tuple(new_body), label=rule.label)


def apply_pushdown(
    program: Program,
    report: Optional[PremapReport] = None,
) -> PushdownResult:
    """Rewrite every applicable occurrence; no-op when none applies.

    For each applied occurrence the rewritten program contains

    * a cost declaration for the auxiliary predicate over the interior
      predicate's lattice (so conflicting per-key derivations *join*,
      computing the extremum incrementally),
    * one auxiliary rule per interior rule — the original rule with its
      head projected onto (grouping columns, cost),
    * the aggregate rule redirected at the auxiliary predicate,
    * the interior predicate's original rules, unchanged, now reading
      only the aggregate head and lower strata — reconstruction outside
      the recursion.
    """
    if report is None:
        report = analyze_premappability(program)
    applicable = report.applicable
    if not applicable:
        return PushdownResult(
            original=program, program=program, report=report
        )

    plans: Dict[str, PushdownPlan] = {}
    redirected: Dict[int, Rule] = {}
    for v in applicable:
        assert v.plan is not None
        plans[v.predicate] = v.plan
        redirected[v.rule_index] = _redirect_aggregate(v.rule, v.plan)

    new_rules: List[Rule] = []
    for index, rule in enumerate(program.rules):
        if index in redirected:
            new_rules.append(redirected[index])
            continue
        plan = plans.get(rule.head.predicate)
        if plan is not None:
            # Auxiliary projection first (recursion), reconstruction
            # keeps the original rule right after it.
            new_rules.append(_project_rule(rule, plan))
        new_rules.append(rule)

    declarations: List[PredicateDecl] = list(program.declarations.values())
    for plan in plans.values():
        interior_decl = program.decl(plan.predicate)
        declarations.append(
            PredicateDecl(
                name=plan.auxiliary,
                arity=len(plan.kept_positions) + 1,
                lattice=interior_decl.lattice,
            )
        )

    rewritten = Program(
        rules=new_rules,
        declarations=declarations,
        constraints=program.constraints,
        aggregates=dict(program.aggregates),
        name=f"{program.name}+pushdown",
    )
    ordered = tuple(
        plans[v.predicate] for v in applicable
    )
    return PushdownResult(
        original=program,
        program=rewritten,
        report=report,
        applied=ordered,
    )


def render_program(program: Program) -> str:
    """Re-parseable source text for a (possibly rewritten) program."""
    lines: List[str] = [f"% program {program.name}"]
    for decl in program.declarations.values():
        if decl.name not in program.explicit_declarations and not (
            decl.is_cost_predicate
        ):
            continue
        if decl.is_cost_predicate:
            assert decl.lattice is not None
            keyword = "@default" if decl.has_default else "@cost"
            lines.append(
                f"{keyword} {decl.name}/{decl.arity} : {decl.lattice.name}."
            )
    for constraint in program.constraints:
        body = ", ".join(str(sg) for sg in constraint.body)
        lines.append(f"@constraint {body}.")
    for rule in program.rules:
        lines.append(str(rule))
    return "\n".join(lines) + "\n"
