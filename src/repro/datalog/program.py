"""Programs, predicate declarations, and structural validation.

A :class:`Program` bundles rules, integrity constraints, cost-predicate
declarations (which column lattices cost arguments range over, and which
predicates carry default values — Sections 2.3.1–2.3.2), and the aggregate
functions its rules may name.  It is a *whole* program; the paper's
per-component notions (CDB/LDB) are provided by
:mod:`repro.analysis.dependencies`, which condenses the predicate
dependency graph into strongly connected components.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Tuple,
    TypeVar,
)

from repro.aggregates.base import AggregateFunction
from repro.aggregates.standard import default_registry
from repro.datalog.atoms import AggregateSubgoal, Atom, AtomSubgoal
from repro.datalog.errors import ProgramError
from repro.datalog.rules import IntegrityConstraint, Rule
from repro.datalog.spans import Span
from repro.lattices.base import Lattice

T = TypeVar("T")


@dataclass(frozen=True)
class PredicateDecl:
    """Declaration of one predicate.

    ``arity`` counts every argument including the cost argument; the cost
    argument is always the last one.  Ordinary (non-cost) predicates have
    ``lattice is None``.  ``has_default`` marks default-value cost
    predicates (``declare default t(W, 0)``): their default is the
    lattice's bottom, as Section 2.3.2 insists.
    """

    name: str
    arity: int
    lattice: Optional[Lattice] = None
    has_default: bool = False
    #: Source region of the ``@pred``/``@cost``/``@default`` line, when the
    #: declaration came from rule text.  Excluded from equality like every
    #: other AST span.
    span: Optional[Span] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.arity < 0:
            raise ProgramError(f"negative arity for {self.name}")
        if self.has_default and self.lattice is None:
            raise ProgramError(
                f"{self.name}: only cost predicates can have default values"
            )
        if self.lattice is not None and self.arity < 1:
            raise ProgramError(
                f"{self.name}: a cost predicate needs at least the cost argument"
            )

    @property
    def is_cost_predicate(self) -> bool:
        return self.lattice is not None

    @property
    def key_arity(self) -> int:
        """Number of non-cost arguments."""
        return self.arity - 1 if self.is_cost_predicate else self.arity

    @property
    def default_value(self):
        """The default cost value — the lattice bottom (Section 2.3.2)."""
        if not self.has_default:
            raise ProgramError(f"{self.name} has no default value")
        assert self.lattice is not None
        return self.lattice.bottom


class Program:
    """An aggregate-extended Datalog program.

    Parameters
    ----------
    rules:
        The program rules (facts are empty-bodied rules).
    declarations:
        Predicate declarations.  Undeclared predicates are inferred as
        ordinary predicates with the arity of their first occurrence.
    constraints:
        Integrity constraints (Definition 2.9), consumed by the
        conflict-freedom check.
    aggregates:
        Aggregate-name → function.  Defaults to the standard registry
        (:func:`repro.aggregates.standard.default_registry`).
    name:
        Cosmetic, used in reports.
    validate:
        Run :meth:`validate` during construction (default).  The linter
        passes ``False`` so it can report *every* structural problem as a
        source-located diagnostic instead of raising on the first one.
    """

    def __init__(
        self,
        rules: Iterable[Rule],
        declarations: Iterable[PredicateDecl] = (),
        constraints: Iterable[IntegrityConstraint] = (),
        aggregates: Optional[Dict[str, AggregateFunction]] = None,
        name: str = "program",
        validate: bool = True,
    ) -> None:
        self.rules: Tuple[Rule, ...] = tuple(rules)
        self.constraints: Tuple[IntegrityConstraint, ...] = tuple(constraints)
        self.aggregates: Dict[str, AggregateFunction] = (
            dict(aggregates) if aggregates is not None else default_registry()
        )
        self.name = name
        self.declarations: Dict[str, PredicateDecl] = {}
        for decl in declarations:
            if decl.name in self.declarations:
                raise ProgramError(f"duplicate declaration for {decl.name}")
            self.declarations[decl.name] = decl
        #: Predicates the user declared explicitly (``@cost``/``@pred``/
        #: programmatic), as opposed to declarations inferred from use.
        #: The unused/undefined-predicate lints key off this split.
        self.explicit_declarations: FrozenSet[str] = frozenset(
            self.declarations
        )
        self._infer_missing_declarations()
        #: Static-analysis results keyed by pass name (see :meth:`memo`).
        self._memo: Dict[Hashable, Any] = {}
        if validate:
            self.validate()

    # -- analysis memo ----------------------------------------------------------

    def memo(self, key: Hashable, compute: Callable[[], T]) -> T:
        """The result of the static pass ``key`` on this program, from
        ``compute()`` on first use and from the memo afterwards.

        Every pass in :mod:`repro.analysis` (and the engine's pushdown
        rewrite and rule plans) is a function of the program text alone,
        so its result is cached here and shared by every later caller —
        repeat solves, the linter, ``repro serve`` requests.  Cached
        results are shared: treat them as read-only.  A program is not
        edited after construction; a changed rule set is a new
        ``Program`` (``Database`` rebuilds one on every ``load``), and
        :func:`repro.engine.exec.clear_plan_cache` empties the memo.

        No lock is taken: passes are pure, so two threads racing on a
        cold key both compute and the first stored result is the one
        every caller gets.  A pass that raises caches nothing.
        """
        try:
            return self._memo[key]
        except KeyError:
            pass
        return self._memo.setdefault(key, compute())

    # -- declaration handling -------------------------------------------------

    def _occurring_atoms(self):
        for rule in self.rules:
            yield rule.head
            for sg in rule.body:
                if isinstance(sg, AtomSubgoal):
                    yield sg.atom
                elif isinstance(sg, AggregateSubgoal):
                    yield from sg.conjuncts
        for constraint in self.constraints:
            for sg in constraint.body:
                if isinstance(sg, AtomSubgoal):
                    yield sg.atom
                elif isinstance(sg, AggregateSubgoal):
                    yield from sg.conjuncts

    def _infer_missing_declarations(self) -> None:
        for atom in self._occurring_atoms():
            if atom.predicate not in self.declarations:
                self.declarations[atom.predicate] = PredicateDecl(
                    atom.predicate, atom.arity
                )

    def decl(self, predicate: str) -> PredicateDecl:
        try:
            return self.declarations[predicate]
        except KeyError:
            raise ProgramError(f"unknown predicate {predicate}") from None

    def is_cost_predicate(self, predicate: str) -> bool:
        return self.decl(predicate).is_cost_predicate

    def cost_lattice(self, predicate: str) -> Lattice:
        decl = self.decl(predicate)
        if decl.lattice is None:
            raise ProgramError(f"{predicate} is not a cost predicate")
        return decl.lattice

    def aggregate_function(self, name: str) -> AggregateFunction:
        try:
            return self.aggregates[name]
        except KeyError:
            raise ProgramError(f"unknown aggregate function {name!r}") from None

    # -- predicate views -------------------------------------------------------

    @property
    def idb_predicates(self) -> FrozenSet[str]:
        """Predicates defined by some rule head."""
        return frozenset(rule.head.predicate for rule in self.rules)

    @property
    def edb_predicates(self) -> FrozenSet[str]:
        """Predicates only ever used in bodies (the extensional database)."""
        used: set = set()
        for rule in self.rules:
            used.update(rule.body_predicates())
        return frozenset(used) - self.idb_predicates

    @property
    def all_predicates(self) -> FrozenSet[str]:
        return frozenset(self.declarations)

    def rules_for(self, predicate: str) -> List[Rule]:
        return [rule for rule in self.rules if rule.head.predicate == predicate]

    # -- validation -------------------------------------------------------------

    def validate(self) -> None:
        """Structural checks: consistent arities, known aggregates,
        default-value defaults equal to lattice bottoms."""
        for atom in self._occurring_atoms():
            decl = self.declarations[atom.predicate]
            if atom.arity != decl.arity:
                raise ProgramError(
                    f"{atom.predicate} used with arity {atom.arity} but "
                    f"declared/inferred with arity {decl.arity}",
                    span=atom.span,
                )
        for rule in self.rules:
            for agg in rule.aggregate_subgoals():
                if agg.function not in self.aggregates:
                    raise ProgramError(
                        f"rule {rule}: unknown aggregate {agg.function!r}",
                        span=agg.span or rule.span,
                    )
        # Typing of multiset variables against cost columns is the job of
        # the static analysis layer (repro.analysis.wellformed).

    def __str__(self) -> str:
        lines = [f"% program {self.name}"]
        for decl in self.declarations.values():
            if decl.is_cost_predicate:
                default = " default" if decl.has_default else ""
                lines.append(
                    f"% cost {decl.name}/{decl.arity} : "
                    f"{decl.lattice.name}{default}"  # type: ignore[union-attr]
                )
        lines += [str(c) for c in self.constraints]
        lines += [str(r) for r in self.rules]
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Program {self.name!r}: {len(self.rules)} rules, "
            f"{len(self.constraints)} constraints>"
        )
