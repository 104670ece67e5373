"""Cost-respecting rules via functional-dependency inference (Definition 2.7).

A rule whose head has a cost argument is *cost-respecting* if the head's
cost argument is functionally determined by its non-cost arguments, as
derivable from:

1. the FDs in the body — every cost atom contributes
   ``{its non-cost variables} → its cost variable``;
2. the FD ``{grouping variables} → aggregate variable`` of each aggregate
   subgoal;
3. Armstrong's axioms.

We add the (sound) FDs of built-in equalities: ``V = expr`` contributes
``vars(expr) → V`` and, when both sides are single variables, the reverse
as well.  Constants are functionally determined by nothing, so they simply
never appear in FDs.  Armstrong closure over a finite attribute (variable)
set decides derivability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Set, Tuple

from repro.datalog.atoms import (
    AggregateSubgoal,
    Atom,
    AtomSubgoal,
    BuiltinSubgoal,
)
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant, Variable, expr_variable_set


@dataclass(frozen=True)
class FunctionalDependency:
    """``lhs → rhs`` over rule variables."""

    lhs: FrozenSet[Variable]
    rhs: Variable

    def __str__(self) -> str:
        left = ", ".join(sorted(v.name for v in self.lhs)) or "∅"
        return f"{{{left}}} → {self.rhs}"


def rule_functional_dependencies(
    rule: Rule, program: Program
) -> List[FunctionalDependency]:
    """The FD set of a rule body per Definition 2.7 (plus built-in FDs)."""
    fds: List[FunctionalDependency] = []

    def add_atom_fd(atom: Atom) -> None:
        decl = program.decl(atom.predicate)
        if not decl.is_cost_predicate:
            return
        cost = atom.args[-1]
        if not isinstance(cost, Variable):
            return
        lhs = frozenset(
            a for a in atom.args[: decl.key_arity] if isinstance(a, Variable)
        )
        fds.append(FunctionalDependency(lhs, cost))

    for sg in rule.body:
        if isinstance(sg, AtomSubgoal) and not sg.negated:
            add_atom_fd(sg.atom)
        elif isinstance(sg, AggregateSubgoal):
            # The aggregate value is functionally determined by the grouping
            # variables (Definition 2.7 item 2).
            if isinstance(sg.result, Variable):
                fds.append(
                    FunctionalDependency(
                        frozenset(rule.grouping_variables(sg)), sg.result
                    )
                )
        elif isinstance(sg, BuiltinSubgoal) and sg.op == "=":
            for a, b in ((sg.lhs, sg.rhs), (sg.rhs, sg.lhs)):
                if isinstance(a, Variable):
                    fds.append(
                        FunctionalDependency(expr_variable_set(b), a)
                    )
    return fds


def fd_closure(
    attributes: FrozenSet[Variable], fds: List[FunctionalDependency]
) -> FrozenSet[Variable]:
    """Armstrong closure of ``attributes`` under ``fds``."""
    closure: Set[Variable] = set(attributes)
    changed = True
    while changed:
        changed = False
        for fd in fds:
            if fd.rhs not in closure and fd.lhs <= closure:
                closure.add(fd.rhs)
                changed = True
    return frozenset(closure)


@dataclass
class CostRespectReport:
    """Outcome of the cost-respecting check for one rule."""

    rule: Rule
    applicable: bool  # False when the head has no cost argument
    ok: bool
    fds: Tuple[FunctionalDependency, ...] = ()
    detail: str = ""

    def __str__(self) -> str:
        if not self.applicable:
            return f"no cost argument (trivially cost-respecting): {self.rule}"
        status = "cost-respecting" if self.ok else "NOT cost-respecting"
        return f"{status}: {self.rule}  {self.detail}"


def check_rule_cost_respecting(rule: Rule, program: Program) -> CostRespectReport:
    """Definition 2.7 for one rule."""
    decl = program.decl(rule.head.predicate)
    if not decl.is_cost_predicate:
        return CostRespectReport(rule, applicable=False, ok=True)
    cost = rule.head.args[-1]
    if isinstance(cost, Constant):
        # A constant cost is trivially determined.
        return CostRespectReport(
            rule, applicable=True, ok=True, detail="constant cost argument"
        )
    fds = rule_functional_dependencies(rule, program)
    noncost_vars = frozenset(
        a for a in rule.head.args[: decl.key_arity] if isinstance(a, Variable)
    )
    closure = fd_closure(noncost_vars, fds)
    ok = cost in closure
    left = ", ".join(sorted(v.name for v in noncost_vars)) or "∅"
    detail = (
        f"{{{left}}}+ {'∋' if ok else '∌'} {cost} "
        f"using {len(fds)} body FDs"
    )
    return CostRespectReport(
        rule, applicable=True, ok=ok, fds=tuple(fds), detail=detail
    )


def check_program_cost_respecting(
    program: Program,
) -> List[CostRespectReport]:
    """Definition 2.7 for every rule, parallel to ``program.rules``
    (memoized on the program)."""
    return program.memo(
        "cost_respecting", lambda: _check_program_cost_respecting(program)
    )


def _check_program_cost_respecting(
    program: Program,
) -> List[CostRespectReport]:
    return [check_rule_cost_respecting(rule, program) for rule in program.rules]


def all_rules_cost_respecting(program: Program) -> bool:
    return all(r.ok for r in check_program_cost_respecting(program))
