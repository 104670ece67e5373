"""One-call static analysis: the full pipeline of the paper's conditions.

``analyze(program)`` runs, in order:

1. range-restriction (Definition 2.5) per rule;
2. cost-respecting (Definition 2.7) per rule;
3. conflict-freedom (Definition 2.10) — implies cost consistency
   (Lemma 2.3);
4. component condensation + per-component admissibility (Definition 4.5)
   — admissible components are monotonic (Lemma 4.1);
5. classification extras: aggregate-stratified / negation-stratified
   (Section 5.1) and r-monotonic (Section 5.2);
6. whole-program lattice type inference (:mod:`repro.analysis.typing`)
   and the per-component verdicts (:mod:`repro.analysis.classify`) that
   ``method="auto"`` evaluation consults.

The result renders as a readable report and exposes the booleans the
engine consults (``Database.solve`` refuses non-admissible programs in
strict mode).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.analysis.admissible import (
    ComponentAdmissibility,
    check_program_admissible,
)
from repro.analysis.classify import ProgramClassification, classify_program
from repro.analysis.conflict import ConflictReport, check_conflict_freedom
from repro.analysis.dependencies import (
    is_aggregate_stratified,
    is_negation_stratified,
)
from repro.analysis.diagnostics import (
    Diagnostic,
    Linter,
    Severity,
    lint_program,
)
from repro.analysis.fd import CostRespectReport, check_program_cost_respecting
from repro.analysis.rmonotonic import is_r_monotonic
from repro.analysis.safety import SafetyReport, check_program_safety
from repro.analysis.sharding import ShardingReport, analyze_sharding
from repro.analysis.typing import TypingReport, infer_types
from repro.datalog.program import Program


@dataclass
class AnalysisReport:
    """Everything the static pipeline learned about a program."""

    program: Program
    safety: List[SafetyReport] = field(default_factory=list)
    cost_respecting: List[CostRespectReport] = field(default_factory=list)
    conflict: ConflictReport = field(default_factory=ConflictReport)
    components: List[ComponentAdmissibility] = field(default_factory=list)
    aggregate_stratified: bool = False
    negation_stratified: bool = False
    r_monotonic: bool = False
    #: Every finding re-expressed as a coded, source-located diagnostic
    #: (see :mod:`repro.analysis.diagnostics`).
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: Inferred lattice types per predicate argument position.
    typing: Optional[TypingReport] = None
    #: Per-SCC verdicts + recommended evaluation modes.
    classification: Optional[ProgramClassification] = None
    #: Per-SCC shard-safety verdicts (docs/PARALLELISM.md).
    sharding: Optional[ShardingReport] = None

    @property
    def range_restricted(self) -> bool:
        return all(r.ok for r in self.safety)

    @property
    def conflict_free(self) -> bool:
        return self.conflict.ok

    @property
    def cost_consistent_certified(self) -> bool:
        """Conflict-freedom is the paper's sufficient condition (Lemma 2.3)."""
        return self.conflict_free

    @property
    def admissible(self) -> bool:
        return all(c.ok for c in self.components)

    @property
    def monotonic_certified(self) -> bool:
        """Admissible ⇒ monotonic (Lemma 4.1); per component, hence for the
        iterated construction of Section 6.3."""
        return self.admissible

    @property
    def ok(self) -> bool:
        """Safe to solve strictly: finite groundings, consistent costs,
        guaranteed unique minimal model per component."""
        return (
            self.range_restricted
            and self.conflict_free
            and self.admissible
        )

    def diagnostics_by_severity(self, severity: Severity) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    def __str__(self) -> str:
        lines = [f"analysis of {self.program.name}:"]
        lines.append(f"  range-restricted:      {self.range_restricted}")
        lines.append(f"  conflict-free:         {self.conflict_free}")
        lines.append(f"  admissible/monotonic:  {self.admissible}")
        lines.append(f"  aggregate-stratified:  {self.aggregate_stratified}")
        lines.append(f"  negation-stratified:   {self.negation_stratified}")
        lines.append(f"  r-monotonic (§5.2):    {self.r_monotonic}")
        if self.typing is not None and self.typing.conflicts:
            lines.append(
                f"  lattice-typed:         False "
                f"({len(self.typing.conflicts)} conflict(s))"
            )
        lines.append(f"  components ({len(self.components)}):")
        for comp in self.components:
            lines.append("    " + str(comp).replace("\n", "\n    "))
        if self.classification is not None:
            lines.append("  classification:")
            for c in self.classification.components:
                lines.append("    " + str(c))
        for r in self.safety:
            if not r.ok:
                lines.append("  " + str(r))
        for r in self.cost_respecting:
            if r.applicable and not r.ok:
                lines.append("  " + str(r))
        if not self.conflict.ok:
            lines.append("  " + str(self.conflict).replace("\n", "\n  "))
        actionable = [
            d for d in self.diagnostics if d.severity > Severity.INFO
        ]
        if actionable:
            lines.append(f"  diagnostics ({len(actionable)}):")
            for d in actionable:
                lines.append("    " + d.format().replace("\n", "\n    "))
        return "\n".join(lines)


def analyze_program(
    program: Program, *, linter: "Linter | None" = None
) -> AnalysisReport:
    """Run the full static pipeline on ``program``.

    The boolean verdicts come from the analysis passes directly; the same
    passes feed the linter, whose coded, source-located diagnostics are
    collected on ``report.diagnostics``.  Every pass is memoized on the
    program (:meth:`Program.memo`), and so is the report built with the
    default linter: repeat calls return the same shared, read-only
    report.  A custom ``linter`` gets a fresh report over the same
    memoized passes.
    """
    if linter is None:
        return program.memo("analysis", lambda: _analyze_program(program))
    return _analyze_program(program, linter)


def _analyze_program(
    program: Program, linter: "Linter | None" = None
) -> AnalysisReport:
    report = AnalysisReport(program)
    report.safety = check_program_safety(program)
    report.cost_respecting = check_program_cost_respecting(program)
    report.conflict = check_conflict_freedom(program)
    report.components = check_program_admissible(program)
    report.aggregate_stratified = is_aggregate_stratified(program)
    report.negation_stratified = is_negation_stratified(program)
    report.r_monotonic = is_r_monotonic(program)
    report.typing = infer_types(program)
    report.classification = classify_program(program)
    report.sharding = analyze_sharding(program)
    report.diagnostics = lint_program(program, linter=linter)
    return report
