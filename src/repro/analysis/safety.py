"""Range-restriction (Definition 2.5) and the finiteness guarantee.

A rule is *range-restricted* when the limited/quasi-limited variable
closure covers the positions Definition 2.5 enumerates; Lemma 2.2 then
guarantees a finite set of satisfiable ground rule instances, finite
aggregate multisets, and active-domain head constants — everything the
bottom-up engine relies on.

The limited/quasi-limited sets are computed as least fixpoints of the
closure conditions, exactly mirroring the paper's "minimal set containing
all variables V that satisfy one of the following" phrasing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List, Optional, Set

from repro.analysis.violations import Violation
from repro.datalog.atoms import (
    AggregateSubgoal,
    Atom,
    AtomSubgoal,
    BuiltinSubgoal,
)
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.spans import Span
from repro.datalog.terms import (
    Constant,
    Variable,
    expr_variable_set,
)


def _atom_limited_vars(atom: Atom, program: Program) -> Set[Variable]:
    """Variables in *limited arguments* of ``atom``: non-cost arguments of a
    predicate with no default declaration."""
    decl = program.decl(atom.predicate)
    if decl.has_default:
        return set()
    args = atom.args[: decl.key_arity] if decl.is_cost_predicate else atom.args
    return {a for a in args if isinstance(a, Variable)}


def _atom_noncost_vars(atom: Atom, program: Program) -> Set[Variable]:
    decl = program.decl(atom.predicate)
    args = atom.args[: decl.key_arity] if decl.is_cost_predicate else atom.args
    return {a for a in args if isinstance(a, Variable)}


def _atom_cost_var(atom: Atom, program: Program) -> Variable | None:
    decl = program.decl(atom.predicate)
    if not decl.is_cost_predicate:
        return None
    cost = atom.args[-1]
    return cost if isinstance(cost, Variable) else None


def limited_variables(rule: Rule, program: Program) -> FrozenSet[Variable]:
    """The minimal set of *limited* variables of ``rule`` (Definition 2.5)."""
    limited: Set[Variable] = set()

    def step() -> bool:
        before = len(limited)
        for sg in rule.body:
            if isinstance(sg, AtomSubgoal) and not sg.negated:
                limited.update(_atom_limited_vars(sg.atom, program))
            elif isinstance(sg, AggregateSubgoal):
                inner_limited: Set[Variable] = set()
                for conjunct in sg.conjuncts:
                    inner_limited.update(_atom_limited_vars(conjunct, program))
                local = rule.local_variables(sg)
                limited.update(local & inner_limited)
                if sg.restricted:
                    grouping = rule.grouping_variables(sg)
                    limited.update(grouping & inner_limited)
            elif isinstance(sg, BuiltinSubgoal) and sg.op == "=":
                for a, b in ((sg.lhs, sg.rhs), (sg.rhs, sg.lhs)):
                    if isinstance(a, Variable):
                        if isinstance(b, Variable) and b in limited:
                            limited.add(a)
                        elif isinstance(b, Constant):
                            limited.add(a)
        return len(limited) != before

    while step():
        pass
    return frozenset(limited)


def quasi_limited_variables(
    rule: Rule, program: Program, limited: FrozenSet[Variable]
) -> FrozenSet[Variable]:
    """The minimal set of *quasi-limited* variables (Definition 2.5)."""
    quasi: Set[Variable] = set()

    for sg in rule.body:
        if isinstance(sg, AtomSubgoal) and not sg.negated:
            cost = _atom_cost_var(sg.atom, program)
            if cost is not None:
                quasi.add(cost)
        elif isinstance(sg, AggregateSubgoal):
            for conjunct in sg.conjuncts:
                cost = _atom_cost_var(conjunct, program)
                if cost is not None:
                    quasi.add(cost)
            if isinstance(sg.result, Variable):
                quasi.add(sg.result)

    def step() -> bool:
        before = len(quasi)
        for sg in rule.body:
            if isinstance(sg, BuiltinSubgoal) and sg.op == "=":
                for a, b in ((sg.lhs, sg.rhs), (sg.rhs, sg.lhs)):
                    if isinstance(a, Variable):
                        vars_b = expr_variable_set(b)
                        if all(v in quasi or v in limited for v in vars_b):
                            quasi.add(a)
        return len(quasi) != before

    while step():
        pass
    return frozenset(quasi)


@dataclass
class SafetyReport:
    """Violations of Definition 2.5 for one rule (empty ⇒ range-restricted)."""

    rule: Rule
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def span(self) -> Optional[Span]:
        """Source location of the offending rule (None if built in code)."""
        return self.rule.span

    def __str__(self) -> str:
        if self.ok:
            return f"range-restricted: {self.rule}"
        problems = "; ".join(self.violations)
        return f"NOT range-restricted: {self.rule}  [{problems}]"


def check_rule_safety(rule: Rule, program: Program) -> SafetyReport:
    """Check every bullet of Definition 2.5 for ``rule``."""
    report = SafetyReport(rule)
    limited = limited_variables(rule, program)
    quasi = quasi_limited_variables(rule, program, limited)

    def require_limited(
        variables: Iterable[Variable], where: str, span: Optional[Span] = None
    ) -> None:
        for v in sorted(variables, key=lambda v: v.name):
            if v not in limited:
                report.violations.append(
                    Violation(
                        f"{v} not limited ({where})",
                        kind="unsafe-variable",
                        span=span or rule.span,
                    )
                )

    def require_quasi(
        variables: Iterable[Variable], where: str, span: Optional[Span] = None
    ) -> None:
        for v in sorted(variables, key=lambda v: v.name):
            if v not in quasi and v not in limited:
                report.violations.append(
                    Violation(
                        f"{v} not quasi-limited ({where})",
                        kind="unsafe-variable",
                        span=span or rule.span,
                    )
                )

    for sg in rule.body:
        if isinstance(sg, AtomSubgoal):
            decl = program.decl(sg.atom.predicate)
            if sg.negated:
                require_limited(
                    _atom_noncost_vars(sg.atom, program),
                    f"negated {sg.atom}",
                    span=sg.span,
                )
                cost = _atom_cost_var(sg.atom, program)
                if cost is not None:
                    require_quasi([cost], f"negated {sg.atom}", span=sg.span)
            if decl.has_default:
                require_limited(
                    _atom_noncost_vars(sg.atom, program),
                    f"default-value subgoal {sg.atom}",
                    span=sg.span,
                )
        elif isinstance(sg, AggregateSubgoal):
            require_limited(
                rule.grouping_variables(sg), f"grouping of {sg}", span=sg.span
            )
            for conjunct in sg.conjuncts:
                decl = program.decl(conjunct.predicate)
                if decl.has_default:
                    require_limited(
                        _atom_noncost_vars(conjunct, program),
                        f"default-value conjunct {conjunct}",
                        span=conjunct.span or sg.span,
                    )
                noncost_locals = _atom_noncost_vars(
                    conjunct, program
                ) & rule.local_variables(sg)
                require_limited(
                    noncost_locals,
                    f"local variables of {sg}",
                    span=conjunct.span or sg.span,
                )
        elif isinstance(sg, BuiltinSubgoal):
            require_quasi(sg.variable_set(), f"built-in {sg}", span=sg.span)

    head_decl = program.decl(rule.head.predicate)
    require_limited(
        _atom_noncost_vars(rule.head, program),
        f"head {rule.head}",
        span=rule.head.span,
    )
    if head_decl.is_cost_predicate:
        cost = _atom_cost_var(rule.head, program)
        if cost is not None:
            require_quasi(
                [cost], f"head cost argument of {rule.head}", span=rule.head.span
            )
    return report


def check_program_safety(program: Program) -> List[SafetyReport]:
    """Per-rule safety reports for the whole program (memoized on it)."""
    return program.memo("safety", lambda: _check_program_safety(program))


def _check_program_safety(program: Program) -> List[SafetyReport]:
    return [check_rule_safety(rule, program) for rule in program.rules]


def is_range_restricted(program: Program) -> bool:
    return all(report.ok for report in check_program_safety(program))
