"""Unified diagnostics: every static check as a source-located lint.

The analysis modules each answer one question from the paper — is the
rule range-restricted (Definition 2.5)?  cost-respecting (Definition
2.7)?  is the program conflict-free (Definition 2.10)?  admissible
(Definition 4.5)?  This module gives all of them a single output
vocabulary: a :class:`Diagnostic` with

* a stable code (``MAD101``) and slug (``unsafe-variable``),
* a severity (:class:`Severity`),
* the human message the underlying pass produced,
* the paper reference and a "why" sentence quoting the definition the
  program violates,
* a :class:`~repro.datalog.spans.Span` into the rule text when the
  program was parsed from source.

The :class:`Linter` is a registry of *checks*, each adapting one
analysis pass into a stream of diagnostics; new lints (arity
consistency, undefined/unused predicates, duplicate rules, aggregate
variable shadowing) live here directly.  ``repro lint`` (the CLI),
:func:`repro.analysis.report.analyze_program` and the strict mode of
:meth:`repro.core.database.Database.solve` all consume this module, so
a violation is reported identically no matter which door it came in
through.

Code families
-------------

====== =====================================================
MAD0xx the program never made it to analysis (syntax, structure)
MAD1xx safety (Definition 2.5)
MAD2xx cost consistency (Definitions 2.7, 2.10)
MAD3xx admissibility / monotonicity (Section 4)
MAD4xx classification notes (Sections 5–6) — never errors
MAD5xx program hygiene (not from the paper)
MAD6xx whole-program lattice type inference (Section 4.2 generalized)
MAD7xx runtime divergence findings (engine supervisor) — never static
MAD8xx premappability / aggregate pushdown (docs/OPTIMIZATION.md) — never errors
MAD9xx shard-safety / parallel evaluation (docs/PARALLELISM.md) — never errors
MAD10xx bulk data loading (repro.data, docs/STORAGE.md) — load-time, never static
====== =====================================================

Diagnostics for mechanical defects carry :class:`~repro.analysis.fixes.Fix`
objects — span-anchored text edits ``repro lint --fix`` applies.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.analysis.admissible import check_program_admissible
from repro.analysis.conflict import check_conflict_freedom
from repro.analysis.dependencies import Component, condense
from repro.analysis.fd import check_program_cost_respecting
from repro.analysis.fixes import (
    Fix,
    body_in_schedule_order,
    fix_declare_default,
    fix_delete_declaration,
    fix_delete_rule,
    fix_rename_shadowed,
    fix_reorder_body,
    fix_restrict_aggregate,
    is_left_to_right_evaluable,
)
from repro.analysis.rmonotonic import check_program_r_monotonic
from repro.analysis.safety import check_program_safety
from repro.analysis.termination import (
    TerminationVerdict,
    check_program_termination,
)
from repro.analysis.typing import infer_types
from repro.analysis.wellformed import check_well_typed, FormReport
from repro.datalog.atoms import AggregateSubgoal, Atom, AtomSubgoal
from repro.datalog.errors import ParseError, ProgramError
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.spans import Span
from repro.datalog.terms import Variable

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.aggregates.base import AggregateFunction
    from repro.lattices import Lattice


class Severity(enum.IntEnum):
    """Diagnostic severity; the lint exit code is the maximum emitted."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class LintRule:
    """One entry of the code registry: what a diagnostic code *means*."""

    code: str
    slug: str
    severity: Severity
    reference: str  # where in the paper (or "hygiene" for MAD5xx)
    why: str  # one sentence quoting/paraphrasing the violated definition


_RULES = [
    LintRule(
        "MAD001",
        "syntax-error",
        Severity.ERROR,
        "rule-text syntax (README)",
        "The rule text failed to parse, so no analysis could run.",
    ),
    LintRule(
        "MAD002",
        "invalid-program",
        Severity.ERROR,
        "Section 2.3 (programs)",
        "The program is structurally invalid (bad declaration, malformed "
        "aggregate subgoal, ...), so no analysis could run.",
    ),
    LintRule(
        "MAD101",
        "unsafe-variable",
        Severity.ERROR,
        "Definition 2.5 (safety)",
        "Definition 2.5 requires every variable in the head, in negated "
        "or default-value subgoals, in built-ins and in aggregate "
        "groupings to be limited (or quasi-limited for cost positions); "
        "otherwise Lemma 2.2's finiteness guarantee fails.",
    ),
    LintRule(
        "MAD201",
        "conflict",
        Severity.ERROR,
        "Definition 2.10 (conflict-freedom), Lemma 2.3",
        "Two rules with unifiable heads are discharged by neither a "
        "containment mapping nor an integrity-constraint instance, so "
        "the program is not certified conflict-free and may derive two "
        "atoms differing only in their cost argument.",
    ),
    LintRule(
        "MAD202",
        "not-cost-respecting",
        Severity.ERROR,
        "Definition 2.7 (cost-respecting rules)",
        "The head's cost argument is not functionally determined by its "
        "non-cost arguments under the body's FDs and Armstrong's axioms, "
        "so a single rule can derive conflicting cost atoms.",
    ),
    LintRule(
        "MAD301",
        "inadmissible-aggregate",
        Severity.ERROR,
        "Definition 4.5 (admissible rules), Lemma 4.1",
        "A recursive (CDB) aggregate subgoal uses a function that is "
        "neither monotonic nor pseudo-monotonic over default-value "
        "predicates, so Lemma 4.1 cannot certify T_P monotonic and the "
        "component may lack a unique minimal model.",
    ),
    LintRule(
        "MAD302",
        "ill-typed",
        Severity.ERROR,
        "Section 4.2 (typing discipline)",
        "A cost value flows between positions whose declared lattices "
        "disagree (aggregate domain/range vs cost column), so the "
        "monotonicity argument of Section 4.2 does not apply.",
    ),
    LintRule(
        "MAD303",
        "ill-formed",
        Severity.ERROR,
        "Definition 4.2 (well-formed rules)",
        "Definition 4.2 requires variables (not constants) in CDB cost "
        "positions and on the left of =/=r, each occurring at most once "
        "among the non-built-in subgoals.",
    ),
    LintRule(
        "MAD304",
        "nonmonotone-builtin",
        Severity.ERROR,
        "Definitions 4.3-4.4 (monotonic built-in conjunctions)",
        "The sufficient check cannot certify that the rule's built-in "
        "conjunction E_r stays satisfied as CDB cost values ⊑-increase "
        "(Definition 4.3), so admissibility fails.",
    ),
    LintRule(
        "MAD305",
        "negation-in-recursion",
        Severity.ERROR,
        "remark after Proposition 6.1",
        "Negating a predicate of the same recursive component destroys "
        "the monotonicity of T_P whenever the rule can fire.",
    ),
    LintRule(
        "MAD401",
        "recursive-aggregation",
        Severity.INFO,
        "Section 5.1 (aggregate stratification)",
        "The component aggregates one of its own predicates; the program "
        "is outside the aggregate-stratified class and needs this "
        "paper's monotonic semantics rather than stratified evaluation.",
    ),
    LintRule(
        "MAD402",
        "non-stratified-negation",
        Severity.WARNING,
        "Section 5.1 (stratified negation)",
        "The component negates one of its own predicates; unless the "
        "component is rejected as inadmissible, evaluation order may "
        "affect the result.",
    ),
    LintRule(
        "MAD403",
        "not-r-monotonic",
        Severity.INFO,
        "Section 5.2 (r-monotonic programs)",
        "Growth of a subgoal relation can invalidate earlier deductions "
        "of this rule, so the program is outside Mumick et al.'s "
        "r-monotonic class (it may still be admissible).",
    ),
    LintRule(
        "MAD404",
        "termination-unknown",
        Severity.INFO,
        "Section 6.2 (termination)",
        "No sufficient condition of Section 6.2 applies: cost values "
        "range over an infinite domain, so the Kleene iteration may "
        "ascend beyond any bound (Example 5.1) and evaluation relies on "
        "the iteration budget.",
    ),
    LintRule(
        "MAD501",
        "arity-mismatch",
        Severity.ERROR,
        "hygiene (Section 2.3 schemas)",
        "A predicate is used with an arity different from its declared "
        "or first-seen arity.",
    ),
    LintRule(
        "MAD502",
        "unknown-aggregate",
        Severity.ERROR,
        "hygiene (Section 2.4 aggregate functions)",
        "An aggregate subgoal names a function that is not registered.",
    ),
    LintRule(
        "MAD503",
        "undefined-predicate",
        Severity.WARNING,
        "hygiene",
        "A predicate is read by rule bodies but has no defining rule, no "
        "fact and no explicit declaration — likely a typo or missing "
        "extensional data.",
    ),
    LintRule(
        "MAD504",
        "unused-predicate",
        Severity.WARNING,
        "hygiene",
        "A predicate is explicitly declared but occurs in no rule, fact "
        "or constraint.",
    ),
    LintRule(
        "MAD505",
        "duplicate-rule",
        Severity.WARNING,
        "hygiene",
        "The same rule (up to spans) appears more than once; duplicates "
        "never change the minimal model.",
    ),
    LintRule(
        "MAD506",
        "shadowed-aggregate-variable",
        Severity.WARNING,
        "hygiene (Definition 2.4 groupings)",
        "The aggregate's multiset variable also occurs outside the "
        "subgoal (turning it into a grouping variable), or its result "
        "variable recurs inside the conjuncts — almost certainly not "
        "what was meant.",
    ),
    LintRule(
        "MAD507",
        "unordered-body",
        Severity.WARNING,
        "hygiene (Section 3 evaluation)",
        "The body is not evaluable left-to-right as written (a built-in, "
        "negated or default subgoal appears before the subgoals that bind "
        "its variables); the engine reorders it, but the written order "
        "misleads readers about the join strategy.",
    ),
    LintRule(
        "MAD601",
        "lattice-conflict",
        Severity.ERROR,
        "Section 4.2 (typing discipline), generalized program-wide",
        "Whole-program type inference assigns one argument position "
        "incompatible cost lattices via different rules; joins through "
        "that position compare values from unrelated orders, so no "
        "monotonicity argument covers the predicate.",
    ),
    LintRule(
        "MAD602",
        "incompatible-cost-flow",
        Severity.ERROR,
        "Section 4.2 (typing discipline), generalized program-wide",
        "A single rule variable carries values from two incompatible "
        "cost lattices (e.g. joining a reals_ge column against a "
        "reals_le column), so the comparison the rule performs is "
        "between unrelated orders.",
    ),
    LintRule(
        "MAD603",
        "unrestricted-empty-aggregate",
        Severity.WARNING,
        "Section 2.4 (F(∅)), Definition 2.4",
        "An unrestricted '=' aggregate subgoal applies a function with "
        "no value on the empty multiset; on empty groups the subgoal is "
        "undefined where '=r' would simply fail, so the restricted form "
        "is almost certainly intended.",
    ),
    # MAD7xx — runtime divergence findings.  Unlike every family above,
    # these are raised *while evaluating* by the engine supervisor
    # (repro.engine.supervisor), not by a static pass: Lemma 2.2 only
    # guarantees finite models under the syntactic conditions, and a
    # program can be lint-clean yet diverge on its actual data (e.g. a
    # negative cycle under min — examples/diverging.mad).
    LintRule(
        "MAD701",
        "cost-spiral",
        Severity.WARNING,
        "Example 5.1 (transfinite ascent); termination discussion, "
        "Section 6",
        "Successive fixpoint rounds keep revising existing cost atoms "
        "without deriving any new atom, on a component whose cost "
        "lattice admits unbounded ⊑-ascent; the Kleene chain may only "
        "reach its fixpoint at ω or beyond, i.e. never operationally.",
    ),
    LintRule(
        "MAD702",
        "atom-growth",
        Severity.WARNING,
        "Lemma 2.2 (finite models need safety preconditions)",
        "The component's derived-atom count is growing geometrically "
        "round over round; the model may be infinite or combinatorially "
        "explosive, so the solve is unlikely to finish within any "
        "reasonable budget.",
    ),
    # MAD8xx — premappability / aggregate pushdown (docs/OPTIMIZATION.md).
    # Informational optimizer verdicts: whether each recursive extremal
    # aggregate can be pushed into its recursion (Zaniolo et al.'s
    # premappable distributions) without changing the minimal model.
    LintRule(
        "MAD801",
        "aggregate-pushdown-applied",
        Severity.INFO,
        "premappability (Zaniolo et al.); Sections 5-6 here",
        "Every premappability condition holds for this aggregate "
        "occurrence, so the solver prunes the recursion's frontier "
        "through the aggregate; the minimal model is provably unchanged "
        "while non-extremal derivations are never enumerated.",
    ),
    LintRule(
        "MAD802",
        "aggregate-pushdown-blocked",
        Severity.INFO,
        "premappability (Zaniolo et al.); Sections 5-6 here",
        "A premappability condition fails in a way that makes the "
        "pushdown inapplicable (no local column to collapse, interfering "
        "rules in the component, unsupported rule shape, ...); the "
        "program still evaluates, just without the optimization.",
    ),
    LintRule(
        "MAD803",
        "aggregate-pushdown-unsound",
        Severity.INFO,
        "premappability (Zaniolo et al.); Sections 5-6 here",
        "Pushing this aggregate into its recursion would change the "
        "minimal model (the function is not an extremum over the "
        "recursion's own cost lattice), so the optimizer must leave the "
        "occurrence alone.",
    ),
    # MAD9xx — shard-safety / parallel evaluation (docs/PARALLELISM.md).
    # Informational analyzer verdicts: whether each SCC's fixpoint can be
    # hash-partitioned by a key column and evaluated per shard without
    # changing the minimal model (the order-insensitivity of Lemma 4.1
    # made operational).
    LintRule(
        "MAD901",
        "component-shardable",
        Severity.INFO,
        "Lemma 4.1 (unique minimal model), Section 6.3; "
        "docs/PARALLELISM.md",
        "Every shard-safety condition holds for this component: a key "
        "column assignment makes all recursive rules and aggregate "
        "groups key-local, and every recursive aggregate's two-phase "
        "state merge is associative/commutative with identity — so "
        "plan=\"sharded\" partitions its fixpoint across workers and the "
        "barrier merge provably reproduces the monolithic model.",
    ),
    LintRule(
        "MAD902",
        "component-shardable-after-rewrite",
        Severity.INFO,
        "Definition 2.4 ('=' vs '=r' on the empty multiset); "
        "docs/PARALLELISM.md",
        "The component is key-local and merge-safe but a recursive "
        "aggregate uses the '=' form, which every shard would evaluate "
        "to F(∅) for groups owned by other shards — junk rows whose "
        "existence can leak downstream.  Rewriting '=' to '=r' makes "
        "the component shardable; the executor falls back to sequential "
        "evaluation rather than apply the rewrite itself.",
    ),
    LintRule(
        "MAD903",
        "component-not-shardable",
        Severity.INFO,
        "Section 4.1.1 (pseudo-monotonicity), Definition 4.5; "
        "docs/PARALLELISM.md",
        "A shard-safety condition fails (no key column keeps recursion "
        "key-local, a default-value predicate enumerates a global key "
        "universe, the component is not certified monotonic, or a merge "
        "algebra fails); plan=\"sharded\" evaluates this component "
        "sequentially, which is sound — just not parallel.",
    ),
    # MAD10xx — bulk data loading (repro.data, docs/STORAGE.md).  Like
    # MAD7xx these are not static findings: they are raised while
    # streaming CSV/JSONL rows into an extensional database, where the
    # program may be pristine and the data file is not.
    LintRule(
        "MAD1001",
        "malformed-input-row",
        Severity.ERROR,
        "bulk data plane (docs/STORAGE.md)",
        "A data-file row could not be decoded into a fact (invalid "
        "JSON, wrong shape, an invalid cost value, or an unknown "
        "predicate), so it cannot enter any relation.",
    ),
    LintRule(
        "MAD1002",
        "row-arity-mismatch",
        Severity.ERROR,
        "bulk data plane (docs/STORAGE.md)",
        "A decoded row's width disagrees with its predicate's declared "
        "arity, so binding fields to argument positions is ambiguous.",
    ),
    LintRule(
        "MAD1003",
        "intensional-load-target",
        Severity.ERROR,
        "EDB/IDB split (Section 2); bulk data plane (docs/STORAGE.md)",
        "Bulk loads stream straight into the extensional database, but "
        "this predicate is defined by rules: its facts must become fact "
        "rules re-derived inside the fixpoint (see Database.program), "
        "which a streaming load cannot provide.",
    ),
]

#: slug → registry entry.
BY_SLUG: Dict[str, LintRule] = {r.slug: r for r in _RULES}
#: code → registry entry.
BY_CODE: Dict[str, LintRule] = {r.code: r for r in _RULES}


@dataclass
class Diagnostic:
    """One finding, ready for text or JSON rendering."""

    code: str
    slug: str
    severity: Severity
    message: str
    reference: str = ""
    why: str = ""
    span: Optional[Span] = None
    rule: Optional[str] = None  # rendered rule/program text the span is in
    source: str = "<program>"  # file name or program name
    #: Machine-applicable repairs (``repro lint --fix``); empty for
    #: diagnostics that need human judgment.
    fixes: Tuple[Fix, ...] = ()

    @property
    def location(self) -> str:
        if self.span is None:
            return self.source
        return f"{self.source}:{self.span}"

    def format(self, *, explain: bool = False) -> str:
        """GCC-style one-liner, optionally followed by the why/reference."""
        out = (
            f"{self.location}: {self.severity}[{self.code}] {self.message}"
        )
        if self.rule:
            out += f"\n    in: {self.rule}"
        if explain:
            out += f"\n    why: {self.why} [{self.reference}]"
        return out

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "slug": self.slug,
            "severity": str(self.severity),
            "message": self.message,
            "reference": self.reference,
            "why": self.why,
            "span": self.span.to_dict() if self.span is not None else None,
            "rule": self.rule,
            "source": self.source,
            "fixes": [f.to_dict() for f in self.fixes],
        }

    def __str__(self) -> str:
        return self.format()


def make_diagnostic(
    slug: str,
    message: str,
    *,
    span: Optional[Span] = None,
    rule: Optional[Rule] = None,
    severity: Optional[Severity] = None,
    fixes: Iterable[Optional[Fix]] = (),
) -> Diagnostic:
    """Build a diagnostic from a registry slug (KeyError on unknown slug).

    ``fixes`` may contain ``None`` entries (fix constructors return None
    when the source span is unknown); they are dropped.
    """
    entry = BY_SLUG[slug]
    return Diagnostic(
        code=entry.code,
        slug=entry.slug,
        severity=entry.severity if severity is None else severity,
        message=message,
        reference=entry.reference,
        why=entry.why,
        span=span if span is not None else (rule.span if rule else None),
        rule=str(rule) if rule is not None else None,
        fixes=tuple(f for f in fixes if f is not None),
    )


def max_severity(diagnostics: Iterable[Diagnostic]) -> Optional[Severity]:
    """The worst severity present, or None for an empty stream."""
    worst: Optional[Severity] = None
    for d in diagnostics:
        if worst is None or d.severity > worst:
            worst = d.severity
    return worst


def _sort_key(d: Diagnostic) -> Tuple[int, int, str, str]:
    line = d.span.line if d.span is not None else 1_000_000_000
    column = d.span.column if d.span is not None else 0
    return (line, column, d.code, d.message)


# ---------------------------------------------------------------------------
# Checks: each adapts one analysis pass (or implements a new lint) as a
# generator of diagnostics.  ``structural=True`` checks run first; when any
# of them errors, the semantic passes are skipped (they assume a program
# that validates).
# ---------------------------------------------------------------------------

CheckFn = Callable[[Program], Iterator[Diagnostic]]

_DEFAULT_CHECKS: List["LintCheck"] = []


@dataclass(frozen=True)
class LintCheck:
    name: str
    fn: CheckFn
    structural: bool = False


def lint_check(
    name: str, *, structural: bool = False
) -> Callable[[CheckFn], CheckFn]:
    """Register ``fn`` in the default check list (definition order)."""

    def register(fn: CheckFn) -> CheckFn:
        _DEFAULT_CHECKS.append(LintCheck(name, fn, structural))
        return fn

    return register


@lint_check("arity-consistency", structural=True)
def _check_arities(program: Program) -> Iterator[Diagnostic]:
    for rule in program.rules:
        for atom in _atoms_of_rule(rule):
            decl = program.declarations.get(atom.predicate)
            if decl is not None and atom.arity != decl.arity:
                yield make_diagnostic(
                    "arity-mismatch",
                    f"{atom.predicate} used with arity {atom.arity} but "
                    f"declared/inferred with arity {decl.arity}",
                    span=atom.span or rule.span,
                    rule=rule,
                )
    for constraint in program.constraints:
        for sg in constraint.body:
            if isinstance(sg, AtomSubgoal):
                atoms = [sg.atom]
            elif isinstance(sg, AggregateSubgoal):
                atoms = list(sg.conjuncts)
            else:
                continue
            for atom in atoms:
                decl = program.declarations.get(atom.predicate)
                if decl is not None and atom.arity != decl.arity:
                    yield make_diagnostic(
                        "arity-mismatch",
                        f"{atom.predicate} used with arity {atom.arity} "
                        f"but declared/inferred with arity {decl.arity}",
                        span=atom.span or constraint.span,
                    )


@lint_check("known-aggregates", structural=True)
def _check_aggregates(program: Program) -> Iterator[Diagnostic]:
    for rule in program.rules:
        for sg in rule.aggregate_subgoals():
            if sg.function not in program.aggregates:
                yield make_diagnostic(
                    "unknown-aggregate",
                    f"unknown aggregate function {sg.function!r} "
                    f"(registered: "
                    f"{', '.join(sorted(program.aggregates))})",
                    span=sg.span or rule.span,
                    rule=rule,
                )


@lint_check("safety")
def _check_safety(program: Program) -> Iterator[Diagnostic]:
    for report in check_program_safety(program):
        for violation in report.violations:
            yield make_diagnostic(
                "unsafe-variable",
                str(violation),
                span=getattr(violation, "span", None) or report.span,
                rule=report.rule,
            )


@lint_check("cost-respecting")
def _check_cost_respecting(program: Program) -> Iterator[Diagnostic]:
    for report in check_program_cost_respecting(program):
        if report.applicable and not report.ok:
            yield make_diagnostic(
                "not-cost-respecting",
                f"head cost argument not functionally determined: "
                f"{report.detail}",
                rule=report.rule,
            )


@lint_check("conflict-freedom")
def _check_conflicts(program: Program) -> Iterator[Diagnostic]:
    # Cost-respecting failures are reported (with per-rule spans) by the
    # dedicated check above; here only genuine rule-pair conflicts.
    report = check_conflict_freedom(program)
    for verdict in report.undischarged_pairs:
        other = (
            "itself" if verdict.rule1 is verdict.rule2 else str(verdict.rule2)
        )
        yield make_diagnostic(
            "conflict",
            f"possibly conflicting with {other}: neither a containment "
            f"mapping nor an integrity-constraint instance discharges "
            f"the pair",
            rule=verdict.rule1,
        )


_ADMISSIBILITY_SLUGS = {
    "ill-typed",
    "ill-formed",
    "nonmonotone-builtin",
    "negation-in-recursion",
    "inadmissible-aggregate",
}


@lint_check("admissibility")
def _check_admissibility(program: Program) -> Iterator[Diagnostic]:
    for component in check_program_admissible(program):
        for rule_report in component.rule_reports:
            for violation in rule_report.violations:
                kind = getattr(violation, "kind", "") or ""
                slug = (
                    kind
                    if kind in _ADMISSIBILITY_SLUGS
                    else "inadmissible-aggregate"
                )
                fixes: List[Optional[Fix]] = []
                if kind == "inadmissible-aggregate":
                    fixes.append(
                        fix_declare_default(
                            program,
                            _defaultable_predicates(
                                rule_report.rule,
                                program,
                                component.component.cdb,
                            ),
                        )
                    )
                yield make_diagnostic(
                    slug,
                    str(violation),
                    span=getattr(violation, "span", None)
                    or rule_report.span,
                    rule=rule_report.rule,
                    fixes=fixes,
                )


def _defaultable_predicates(
    rule: Rule, program: Program, cdb: FrozenSet[str]
) -> List[str]:
    """CDB conjunct predicates of the rule's pseudo-monotonic aggregates
    that lack a default — the ones ``@default`` would make admissible."""
    out: List[str] = []
    for sg in rule.aggregate_subgoals():
        function = program.aggregates.get(sg.function)
        if function is None or not function.is_pseudo_monotonic:
            continue
        for conjunct in sg.conjuncts:
            decl = program.declarations.get(conjunct.predicate)
            if (
                conjunct.predicate in cdb
                and decl is not None
                and decl.is_cost_predicate
                and not decl.has_default
            ):
                out.append(conjunct.predicate)
    return out


@lint_check("stratification")
def _check_stratification(program: Program) -> Iterator[Diagnostic]:
    for component in condense(program):
        names = ", ".join(sorted(component.cdb))
        if component.recursive_through_aggregation:
            rule, sg = _find_component_subgoal(
                component, aggregate=True
            )
            yield make_diagnostic(
                "recursive-aggregation",
                f"component {{{names}}} recurses through aggregation "
                f"(not aggregate-stratified; evaluated with the "
                f"monotonic semantics)",
                span=(sg.span if sg is not None else None)
                or (rule.span if rule is not None else None),
                rule=rule,
            )
        if component.recursive_through_negation:
            rule, sg = _find_component_subgoal(
                component, aggregate=False
            )
            yield make_diagnostic(
                "non-stratified-negation",
                f"component {{{names}}} recurses through negation "
                f"(not stratified)",
                span=(sg.span if sg is not None else None)
                or (rule.span if rule is not None else None),
                rule=rule,
            )


@lint_check("r-monotonicity")
def _check_r_monotonic(program: Program) -> Iterator[Diagnostic]:
    for report in check_program_r_monotonic(program):
        for violation in report.violations:
            yield make_diagnostic(
                "not-r-monotonic",
                str(violation),
                span=getattr(violation, "span", None) or report.span,
                rule=report.rule,
            )


@lint_check("termination")
def _check_termination(program: Program) -> Iterator[Diagnostic]:
    for report in check_program_termination(program):
        if report.verdict is TerminationVerdict.UNKNOWN:
            names = ", ".join(sorted(report.component.cdb))
            rules = report.component.rules
            yield make_diagnostic(
                "termination-unknown",
                f"component {{{names}}}: {report.reason}",
                rule=rules[0] if rules else None,
            )


@lint_check("undefined-predicates")
def _check_undefined(program: Program) -> Iterator[Diagnostic]:
    defined = set(program.idb_predicates) | set(
        program.explicit_declarations
    )
    seen: set = set()
    for rule in program.rules:
        for sg in rule.body:
            if isinstance(sg, AtomSubgoal):
                atoms = [(sg.atom, sg.span)]
            elif isinstance(sg, AggregateSubgoal):
                atoms = [(c, c.span or sg.span) for c in sg.conjuncts]
            else:
                continue
            for atom, span in atoms:
                predicate = atom.predicate
                if predicate in defined or predicate in seen:
                    continue
                seen.add(predicate)
                yield make_diagnostic(
                    "undefined-predicate",
                    f"{predicate} is read here but has no rule, fact or "
                    f"declaration",
                    span=atom.span or span or rule.span,
                    rule=rule,
                )


@lint_check("unused-predicates")
def _check_unused(program: Program) -> Iterator[Diagnostic]:
    occurring = {atom.predicate for atom in program._occurring_atoms()}
    for name in sorted(program.explicit_declarations):
        if name not in occurring:
            decl = program.declarations[name]
            yield make_diagnostic(
                "unused-predicate",
                f"{name} is declared but never used",
                span=decl.span,
                fixes=[fix_delete_declaration(decl)],
            )


@lint_check("duplicate-rules")
def _check_duplicates(program: Program) -> Iterator[Diagnostic]:
    seen: Dict[Rule, Rule] = {}
    for rule in program.rules:
        first = seen.get(rule)
        if first is None:
            seen[rule] = rule
            continue
        where = f" (first at {first.span})" if first.span else ""
        yield make_diagnostic(
            "duplicate-rule",
            f"rule is an exact duplicate of an earlier one{where}",
            rule=rule,
            fixes=[fix_delete_rule(rule)],
        )


@lint_check("aggregate-shadowing")
def _check_shadowing(program: Program) -> Iterator[Diagnostic]:
    for rule in program.rules:
        for sg in rule.aggregate_subgoals():
            inner = frozenset(
                v for c in sg.conjuncts for v in c.variables()
            )
            if (
                sg.multiset_var is not None
                and sg.multiset_var in rule.variables_outside(sg)
            ):
                yield make_diagnostic(
                    "shadowed-aggregate-variable",
                    f"multiset variable {sg.multiset_var} of {sg.function} "
                    f"also occurs outside the aggregate subgoal, making "
                    f"it a grouping variable",
                    span=sg.span or rule.span,
                    rule=rule,
                    fixes=[fix_rename_shadowed(rule, sg, sg.multiset_var)],
                )
            if isinstance(sg.result, Variable) and sg.result in inner:
                yield make_diagnostic(
                    "shadowed-aggregate-variable",
                    f"result variable {sg.result} of {sg.function} also "
                    f"occurs inside the aggregate's conjuncts",
                    span=sg.span or rule.span,
                    rule=rule,
                    fixes=[fix_rename_shadowed(rule, sg, sg.result)],
                )


@lint_check("body-order")
def _check_body_order(program: Program) -> Iterator[Diagnostic]:
    for rule in program.rules:
        if rule.is_fact or is_left_to_right_evaluable(rule, program):
            continue
        # Only warn when the engine *can* find an order; when none
        # exists the safety check owns the report.
        if body_in_schedule_order(rule, program) is None:
            continue
        yield make_diagnostic(
            "unordered-body",
            "body is not evaluable in its written order (a subgoal "
            "precedes the subgoals that bind its variables)",
            rule=rule,
            fixes=[fix_reorder_body(rule, program)],
        )


@lint_check("empty-aggregates")
def _check_empty_aggregates(program: Program) -> Iterator[Diagnostic]:
    for rule in program.rules:
        for sg in rule.aggregate_subgoals():
            function = program.aggregates.get(sg.function)
            if function is None or sg.restricted:
                continue
            if not function.has_empty_value:
                yield make_diagnostic(
                    "unrestricted-empty-aggregate",
                    f"{sg.function} has no value on the empty multiset; "
                    f"use the restricted form "
                    f"'{sg.result} =r {sg.function}{{...}}'",
                    span=sg.span or rule.span,
                    rule=rule,
                    fixes=[fix_restrict_aggregate(rule, sg)],
                )


@lint_check("lattice-typing")
def _check_lattice_typing(program: Program) -> Iterator[Diagnostic]:
    report = infer_types(program)
    for conflict in report.conflicts:
        if conflict.kind == "position":
            yield make_diagnostic(
                "lattice-conflict",
                conflict.message(),
                span=conflict.span,
            )
        else:
            # Variable-level conflicts duplicate the per-rule well-typed
            # check (MAD302) when that check already fires for the same
            # rule; only report flows Definition 4.2 cannot see.
            if conflict.rule_index is not None:
                rule = program.rules[conflict.rule_index]
                form = FormReport(rule)
                try:
                    check_well_typed(rule, program, form)
                except ProgramError:
                    continue
                if form.type_violations:
                    continue
                yield make_diagnostic(
                    "incompatible-cost-flow",
                    conflict.message(),
                    span=conflict.span or rule.span,
                    rule=rule,
                )
            else:
                yield make_diagnostic(
                    "incompatible-cost-flow",
                    conflict.message(),
                    span=conflict.span,
                )


@lint_check("premappability")
def _check_premappability(program: Program) -> Iterator[Diagnostic]:
    from repro.analysis.premap import analyze_premappability

    _STATUS_SLUGS = {
        "applied": "aggregate-pushdown-applied",
        "blocked": "aggregate-pushdown-blocked",
        "changes-semantics": "aggregate-pushdown-unsound",
    }
    try:
        report = analyze_premappability(program)
    except ProgramError:
        # The program does not classify (already diagnosed above); the
        # optimizer verdicts would only repeat the failure.
        return
    for verdict in report.verdicts:
        yield make_diagnostic(
            _STATUS_SLUGS[verdict.status],
            str(verdict),
            rule=verdict.rule,
        )


@lint_check("shard-safety")
def _check_shard_safety(program: Program) -> Iterator[Diagnostic]:
    from repro.analysis.sharding import (
        SHARDABLE,
        SHARDABLE_AFTER_REWRITE,
        analyze_sharding,
    )

    _STATUS_SLUGS = {
        SHARDABLE: "component-shardable",
        SHARDABLE_AFTER_REWRITE: "component-shardable-after-rewrite",
    }
    try:
        report = analyze_sharding(program)
    except ProgramError:
        # The program does not classify (already diagnosed above); the
        # shard verdicts would only repeat the failure.
        return
    for verdict in report.components:
        # Non-recursive components are sequential by construction; a
        # BLOCKED note for each of them would be noise, not a finding.
        if not verdict.component.internal_kinds:
            continue
        rule, _ = _find_component_subgoal(
            verdict.component,
            aggregate=verdict.component.recursive_through_aggregation,
        )
        yield make_diagnostic(
            _STATUS_SLUGS.get(verdict.status, "component-not-shardable"),
            str(verdict),
            rule=rule,
        )


def _atoms_of_rule(rule: Rule) -> Iterator[Atom]:
    yield rule.head
    for sg in rule.body:
        if isinstance(sg, AtomSubgoal):
            yield sg.atom
        elif isinstance(sg, AggregateSubgoal):
            yield from sg.conjuncts


def _find_component_subgoal(
    component: Component, *, aggregate: bool
) -> Tuple[Optional[Rule], Optional[Union[AggregateSubgoal, AtomSubgoal]]]:
    """The (rule, subgoal) witnessing recursion through aggregation or
    negation inside ``component``, for span attribution."""
    for rule in component.rules:
        for sg in rule.body:
            if aggregate and isinstance(sg, AggregateSubgoal):
                if any(c.predicate in component.cdb for c in sg.conjuncts):
                    return rule, sg
            elif (
                not aggregate
                and isinstance(sg, AtomSubgoal)
                and sg.negated
                and sg.atom.predicate in component.cdb
            ):
                return rule, sg
    rules = component.rules
    return (rules[0] if rules else None), None


# ---------------------------------------------------------------------------
# The linter
# ---------------------------------------------------------------------------


class Linter:
    """A registry of checks run over a program.

    The default registry adapts every pass in :mod:`repro.analysis` plus
    the hygiene lints defined above.  Custom linters can start from an
    explicit check list or extend the default via :meth:`register`.
    """

    def __init__(self, checks: Optional[Iterable[LintCheck]] = None) -> None:
        self.checks: List[LintCheck] = list(
            _DEFAULT_CHECKS if checks is None else checks
        )

    def register(
        self, name: str, fn: CheckFn, *, structural: bool = False
    ) -> None:
        self.checks.append(LintCheck(name, fn, structural))

    def lint(
        self, program: Program, *, source: str = ""
    ) -> List[Diagnostic]:
        """All diagnostics for ``program``, sorted by source position.

        Structural checks run first; if any of them reports an error the
        semantic passes are skipped — they assume a program that would
        have validated, and running them would only cascade.
        """
        source = source or program.name
        out: List[Diagnostic] = []
        for check in self.checks:
            if check.structural:
                out.extend(check.fn(program))
        structurally_broken = any(
            d.severity is Severity.ERROR for d in out
        )
        if not structurally_broken:
            for check in self.checks:
                if check.structural:
                    continue
                try:
                    out.extend(check.fn(program))
                except ProgramError as exc:
                    out.append(
                        make_diagnostic(
                            "invalid-program",
                            f"{check.name} aborted: {exc}",
                            span=exc.span,
                        )
                    )
        for d in out:
            d.source = source
        out.sort(key=_sort_key)
        return out


#: Module-level default, used by :func:`lint_program` / :func:`lint_source`.
DEFAULT_LINTER = Linter()


def lint_program(
    program: Program, *, source: str = "", linter: Optional[Linter] = None
) -> List[Diagnostic]:
    """Lint an already-constructed :class:`Program`."""
    return (linter or DEFAULT_LINTER).lint(program, source=source)


def lint_source(
    text: str,
    *,
    name: str = "<string>",
    lattices: Optional[Dict[str, "Lattice"]] = None,
    aggregates: Optional[Dict[str, "AggregateFunction"]] = None,
    linter: Optional[Linter] = None,
) -> List[Diagnostic]:
    """Parse rule text (without validating) and lint the result.

    Parse failures become a single ``MAD001``; structural failures the
    parser itself raises (duplicate declarations, malformed aggregate
    subgoals, unknown lattices) become ``MAD002``.  Both carry the
    source span when one is known.
    """
    from repro.datalog.parser import parse_program

    kwargs: Dict[str, Any] = {}
    if lattices is not None:
        kwargs["lattices"] = lattices
    if aggregates is not None:
        kwargs["aggregates"] = aggregates
    try:
        program = parse_program(text, name=name, validate=False, **kwargs)
    except ParseError as exc:
        diagnostic = make_diagnostic(
            "syntax-error", exc.bare_message, span=exc.span
        )
        diagnostic.source = name
        return [diagnostic]
    except ProgramError as exc:
        diagnostic = make_diagnostic(
            "invalid-program", exc.bare_message, span=exc.span
        )
        diagnostic.source = name
        return [diagnostic]
    return lint_program(program, source=name, linter=linter)


#: Which code family falsifies which classification claim.  Used to check
#: the linter against the paper's own verdicts for the catalog programs
#: (``repro lint --catalog`` and the test suite).
EXPECTED_CODE_FAMILIES: Dict[str, tuple] = {
    "range_restricted": ("MAD101",),
    "conflict_free": ("MAD201", "MAD202"),
    "admissible": ("MAD301", "MAD302", "MAD303", "MAD304", "MAD305"),
    "r_monotonic": ("MAD403",),
    "aggregate_stratified": ("MAD401",),
}

#: Codes that should never fire for a curated program.  The MAD6xx typing
#: errors belong here too: the catalog programs are all well-typed, so a
#: lattice conflict firing on one would be an inference bug.
HYGIENE_CODES = frozenset(
    ("MAD001", "MAD002", "MAD501", "MAD502", "MAD503", "MAD504", "MAD505",
     "MAD506", "MAD507", "MAD601", "MAD602", "MAD603")
)


def expected_mismatches(
    expected: Dict[str, bool], diagnostics: Iterable[Diagnostic]
) -> List[str]:
    """Ways ``diagnostics`` disagree with a catalog ``expected`` dict.

    A classification claimed True must have no diagnostics of the
    corresponding family; one claimed False must have at least one.
    Hygiene codes must never fire.  Empty result ⇒ the linter agrees
    with the paper's verdicts.
    """
    codes = {d.code for d in diagnostics}
    problems: List[str] = []
    for key, family in EXPECTED_CODE_FAMILIES.items():
        if key not in expected:
            continue
        clean = not (codes & set(family))
        if expected[key] and not clean:
            problems.append(
                f"{key}: expected clean but got "
                f"{', '.join(sorted(codes & set(family)))}"
            )
        elif not expected[key] and clean:
            problems.append(
                f"{key}: expected findings from {'/'.join(family)} but "
                f"got none"
            )
    stray = codes & HYGIENE_CODES
    if stray:
        problems.append(
            f"hygiene codes fired: {', '.join(sorted(stray))}"
        )
    return problems


def render_text(
    diagnostics: List[Diagnostic], *, explain: bool = False
) -> str:
    """The text report: one block per diagnostic plus a summary line."""
    lines = [d.format(explain=explain) for d in diagnostics]
    errors = sum(1 for d in diagnostics if d.severity is Severity.ERROR)
    warnings = sum(
        1 for d in diagnostics if d.severity is Severity.WARNING
    )
    infos = sum(1 for d in diagnostics if d.severity is Severity.INFO)
    lines.append(
        f"{errors} error(s), {warnings} warning(s), {infos} note(s)"
    )
    return "\n".join(lines)


def render_json(diagnostics: List[Diagnostic]) -> str:
    """The JSON report: ``{"diagnostics": [...], "summary": {...}}``."""
    worst = max_severity(diagnostics)
    return json.dumps(
        {
            "diagnostics": [d.to_dict() for d in diagnostics],
            "summary": {
                "errors": sum(
                    1 for d in diagnostics if d.severity is Severity.ERROR
                ),
                "warnings": sum(
                    1
                    for d in diagnostics
                    if d.severity is Severity.WARNING
                ),
                "notes": sum(
                    1 for d in diagnostics if d.severity is Severity.INFO
                ),
                "max_severity": str(worst) if worst is not None else None,
            },
        },
        indent=2,
    )
