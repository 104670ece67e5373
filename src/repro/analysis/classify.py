"""Per-component classification: one verdict per SCC, driving evaluation.

The paper's conditions are all *per component* (Definition 2.2's program
components), but PR 1's pipeline only exposed program-wide booleans
(admissible / aggregate-stratified / ...).  This pass rolls the inferred
lattice types (:mod:`repro.analysis.typing`), the admissibility reports
(Definition 4.5) and the recursion structure of each SCC into a single
verdict:

* ``STRATIFIED`` — no recursion through aggregation or negation; the
  component is ordinary (possibly positively recursive) Datalog and any
  aggregate subgoals read lower strata only (Section 5.1's stratified
  class).
* ``MONOTONIC`` — recursion through aggregation, every recursive
  aggregate monotonic, all rules admissible: ``T_P`` is monotonic
  (Lemma 4.1) and the component has a unique minimal model.
* ``PSEUDO_MONOTONIC`` — admissible via the default-value route: some
  recursive aggregate is only pseudo-monotonic, but its CDB conjuncts are
  default-value cost predicates (Section 4.1.1, Example 4.4).
* ``NEEDS_WELL_FOUNDED`` — not certified: recursion through negation,
  a cross-rule lattice conflict on a CDB predicate, or an inadmissible
  rule.  Only the paper's Section 6 iterated-fixpoint construction (or a
  well-founded extension) gives these meaning; evaluation falls back to
  the strict naive engine.

The verdict maps to a recommended evaluation mode, consumed by
``engine.solver`` when ``method="auto"``: greedy where the extremal
invariant applies, semi-naive for certified-monotonic components, naive
otherwise.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.admissible import (
    ComponentAdmissibility,
    check_program_admissible,
)
from repro.analysis.dependencies import Component
from repro.analysis.typing import TypeConflict, TypingReport, infer_types
from repro.analysis.wellformed import _is_cdb_aggregate
from repro.datalog.program import Program


class ComponentClass(enum.Enum):
    """The per-SCC verdict (module docstring)."""

    STRATIFIED = "stratified"
    MONOTONIC = "monotonic"
    PSEUDO_MONOTONIC = "pseudo-monotonic"
    NEEDS_WELL_FOUNDED = "needs-well-founded"


@dataclass
class ComponentClassification:
    """Verdict, provenance and recommended evaluation mode for one SCC."""

    component: Component
    verdict: ComponentClass
    #: Certified monotonic (admissible and free of CDB lattice conflicts).
    certified: bool
    #: Evaluation mode ``method="auto"`` picks: naive/seminaive/greedy.
    method: str
    #: Names of aggregate functions applied to CDB predicates.
    aggregate_functions: Tuple[str, ...] = ()
    reasons: Tuple[str, ...] = ()

    def __str__(self) -> str:
        parts = [f"{self.component}: {self.verdict.value}"]
        parts.append(f"[{self.method}]")
        if self.reasons:
            parts.append("— " + "; ".join(self.reasons))
        return " ".join(parts)


@dataclass
class ProgramClassification:
    """Bottom-up per-component verdicts for a whole program."""

    program: Program
    components: List[ComponentClassification]
    typing: TypingReport

    @property
    def certified(self) -> bool:
        return all(c.certified for c in self.components)

    def by_verdict(self, verdict: ComponentClass) -> List[ComponentClassification]:
        return [c for c in self.components if c.verdict is verdict]

    def __str__(self) -> str:
        return "\n".join(str(c) for c in self.components)


def _cdb_aggregate_functions(
    component: Component, program: Program
) -> Tuple[str, ...]:
    names: Set[str] = set()
    for rule in component.rules:
        for sg in rule.aggregate_subgoals():
            if _is_cdb_aggregate(sg, component.cdb):
                names.add(sg.function)
    return tuple(sorted(names))


def _conflict_predicates(
    typing: TypingReport,
) -> Dict[str, List[TypeConflict]]:
    """Map each conflict to the predicate it taints."""
    out: Dict[str, List[TypeConflict]] = {}
    for conflict in typing.conflicts:
        predicate: Optional[str] = None
        if conflict.kind == "position":
            # subject is "argument N of p".
            predicate = conflict.subject.rsplit(" ", 1)[-1]
        elif conflict.rule_index is not None:
            predicate = typing.program.rules[
                conflict.rule_index
            ].head.predicate
        if predicate is not None:
            out.setdefault(predicate, []).append(conflict)
    return out


def classify_component(
    component: Component,
    program: Program,
    admissibility: ComponentAdmissibility,
    typing: TypingReport,
) -> ComponentClassification:
    """Classify one SCC (see module docstring for the verdict order)."""
    functions = _cdb_aggregate_functions(component, program)
    reasons: List[str] = []

    tainted = _conflict_predicates(typing)
    cdb_conflicts = [
        conflict
        for predicate in sorted(component.cdb)
        for conflict in tainted.get(predicate, [])
    ]
    certified = admissibility.ok and not cdb_conflicts

    if component.recursive_through_negation:
        verdict = ComponentClass.NEEDS_WELL_FOUNDED
        reasons.append("recursion through negation")
        certified = False
    elif cdb_conflicts:
        verdict = ComponentClass.NEEDS_WELL_FOUNDED
        reasons.append(
            "lattice conflict on "
            + ", ".join(sorted({c.subject for c in cdb_conflicts}))
        )
    elif not component.recursive_through_aggregation:
        verdict = ComponentClass.STRATIFIED
        if not admissibility.ok:
            reasons.append("not admissible (evaluated stratum-at-a-time)")
    elif admissibility.ok:
        all_monotonic = all(
            program.aggregate_function(name).is_monotonic
            for name in functions
        )
        if all_monotonic:
            verdict = ComponentClass.MONOTONIC
        else:
            verdict = ComponentClass.PSEUDO_MONOTONIC
            reasons.append(
                "pseudo-monotonic aggregate over default-value predicates"
            )
    else:
        verdict = ComponentClass.NEEDS_WELL_FOUNDED
        kinds = sorted(
            {
                v.kind or "inadmissible"
                for r in admissibility.rule_reports
                for v in r.violations
            }
        )
        reasons.append("inadmissible: " + ", ".join(kinds))

    method = _recommended_method(component, program, verdict, certified)
    return ComponentClassification(
        component=component,
        verdict=verdict,
        certified=certified,
        method=method,
        aggregate_functions=functions,
        reasons=tuple(reasons),
    )


def _recommended_method(
    component: Component,
    program: Program,
    verdict: ComponentClass,
    certified: bool,
) -> str:
    if verdict is ComponentClass.NEEDS_WELL_FOUNDED or not certified:
        return "naive"
    if verdict is ComponentClass.MONOTONIC:
        # Greedy settling is only validated for extremal recursion (the
        # Dijkstra generalization of Section 7); its weight invariant is a
        # data-level promise, so auto mode reserves it for min/max.
        # Lazy import: the engine imports analysis.dependencies at module
        # load, so a top-level import here would be circular.
        from repro.aggregates.standard import Maximum, Minimum
        from repro.engine.greedy import greedy_applicable

        extremal = all(
            isinstance(
                program.aggregate_function(name), (Minimum, Maximum)
            )
            for name in _cdb_aggregate_functions(component, program)
        )
        if extremal and greedy_applicable(program, component) is not None:
            return "greedy"
    return "seminaive"


def classify_program(program: Program) -> ProgramClassification:
    """Classify every component, bottom-up (memoized on the program).

    Reads the program's memoized admissibility and typing passes.
    """
    return program.memo("classification", lambda: _classify_program(program))


def _classify_program(program: Program) -> ProgramClassification:
    typing = infer_types(program)
    components = [
        classify_component(report.component, program, report, typing)
        for report in check_program_admissible(program)
    ]
    return ProgramClassification(
        program=program, components=components, typing=typing
    )
