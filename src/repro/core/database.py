"""The ``Database`` façade — the library's primary entry point.

A :class:`Database` accumulates declarations, rules, integrity constraints
and ground facts, then solves for the iterated minimal model
(Section 6.3)::

    db = Database()
    db.load('''
        @cost arc/3  : reals_ge.
        @cost path/4 : reals_ge.
        @cost s/3    : reals_ge.
        @constraint arc(direct, Z, C).
        path(X, direct, Y, C) <- arc(X, Y, C).
        path(X, Z, Y, C) <- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
        s(X, Y, C) <- C =r min{D : path(X, Z, Y, D)}.
    ''')
    db.add_fact("arc", "a", "b", 1)
    result = db.solve()
    result["s"]            # {('a', 'b'): 1, ...}

Custom cost lattices and aggregate functions are registered up front and
become available to subsequently loaded rule text.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.aggregates.base import AggregateFunction
from repro.aggregates.standard import default_registry
from repro.analysis.diagnostics import make_diagnostic
from repro.analysis.report import AnalysisReport, analyze_program
from repro.data import loader as _loader
from repro.datalog.errors import ProgramError
from repro.datalog.parser import parse_program
from repro.datalog.program import PredicateDecl, Program
from repro.datalog.atoms import make_atom
from repro.datalog.rules import IntegrityConstraint, Rule
from repro.engine.checkpoint import Checkpoint
from repro.engine.interpretation import Interpretation
from repro.engine.solver import CheckPolicy, Method, SolveResult, solve
from repro.engine.supervisor import Budget, CancelToken
from repro.lattices import REGISTRY as LATTICE_REGISTRY
from repro.lattices.base import Lattice
from repro.obs.tracer import Tracer


class Database:
    """A deductive database with monotonic aggregation."""

    def __init__(self, name: str = "db") -> None:
        self.name = name
        self._rules: List[Rule] = []
        self._constraints: List[IntegrityConstraint] = []
        self._declarations: Dict[str, PredicateDecl] = {}
        self._facts: List[Tuple[str, Tuple[Any, ...]]] = []
        #: bulk fact sources: ``(format, predicate, path, options)``.
        #: Only the paths are retained; rows stream into every
        #: :meth:`edb` materialization (see repro.data.loader).
        self._bulk: List[Tuple[str, str, str, Dict[str, Any]]] = []
        self._lattices: Dict[str, Lattice] = dict(LATTICE_REGISTRY)
        self._aggregates: Dict[str, AggregateFunction] = default_registry()
        self._program_cache: Optional[Program] = None
        self.last_result: Optional[SolveResult] = None

    # -- registries ------------------------------------------------------------

    def register_lattice(self, name: str, lattice: Lattice) -> None:
        """Make a custom cost lattice available to rule text as ``name``."""
        self._lattices[name] = lattice
        self._program_cache = None

    def register_aggregate(self, function: AggregateFunction) -> None:
        """Make a custom aggregate function available under its ``name``."""
        self._aggregates[function.name] = function
        self._program_cache = None

    # -- schema & rules -----------------------------------------------------------

    def declare(
        self,
        predicate: str,
        arity: int,
        *,
        lattice: Optional[Lattice | str] = None,
        default: bool = False,
    ) -> None:
        """Declare a predicate programmatically (mirrors ``@cost``/``@pred``)."""
        if isinstance(lattice, str):
            try:
                lattice = self._lattices[lattice]
            except KeyError:
                raise ProgramError(f"unknown lattice {lattice!r}") from None
        decl = PredicateDecl(predicate, arity, lattice, default)
        existing = self._declarations.get(predicate)
        if existing is not None and existing != decl:
            raise ProgramError(
                f"conflicting declarations for {predicate}: {existing} vs {decl}"
            )
        self._declarations[predicate] = decl
        self._program_cache = None

    def load(self, source: str) -> None:
        """Parse rule text and merge it into the database.

        Facts in the text (empty-bodied rules with ground heads) are moved
        to the extensional database rather than kept as rules, so EDB
        predicates stay extensional.
        """
        parsed = parse_program(
            source,
            lattices=self._lattices,
            aggregates=self._aggregates,
            name=self.name,
        )
        for decl in parsed.declarations.values():
            existing = self._declarations.get(decl.name)
            if existing is None:
                self._declarations[decl.name] = decl
            elif existing != decl:
                # Parsed programs infer ordinary declarations for every
                # predicate; an explicit existing declaration wins, but a
                # genuine clash (two different explicit ones) is an error.
                explicit_new = decl.is_cost_predicate
                explicit_old = existing.is_cost_predicate
                if explicit_new and explicit_old:
                    raise ProgramError(
                        f"conflicting declarations for {decl.name}"
                    )
                if explicit_new:
                    self._declarations[decl.name] = decl
                elif not explicit_old and existing.arity != decl.arity:
                    raise ProgramError(
                        f"{decl.name} used with arities {existing.arity} "
                        f"and {decl.arity}"
                    )
        for rule in parsed.rules:
            if rule.is_fact and rule.head.is_ground():
                values = tuple(arg.value for arg in rule.head.args)  # type: ignore[union-attr]
                self._facts.append((rule.head.predicate, values))
            else:
                self._rules.append(rule)
        self._constraints.extend(parsed.constraints)
        self._program_cache = None

    def add_rule(self, rule: Rule) -> None:
        self._rules.append(rule)
        self._program_cache = None

    def add_constraint(self, constraint: IntegrityConstraint) -> None:
        self._constraints.append(constraint)
        self._program_cache = None

    # -- facts ----------------------------------------------------------------------

    def add_fact(self, predicate: str, *args: Any) -> None:
        """Add one ground EDB fact; the last argument is the cost value for
        cost predicates."""
        decl = self._declarations.get(predicate)
        if decl is None:
            self.declare(predicate, len(args))
        elif decl.arity != len(args):
            raise ProgramError(
                f"{predicate} declared with arity {decl.arity}, "
                f"fact has {len(args)} arguments"
            )
        self._facts.append((predicate, args))
        if (
            self._program_cache is not None
            and predicate in self._program_cache.idb_predicates
        ):
            # A fact of a rule-defined predicate is a fact rule of the
            # program (see :attr:`program`): the assembled program, and
            # the analysis memoized on it, no longer describe the rules.
            self._program_cache = None
        self.last_result = None

    def add_facts(self, predicate: str, rows: Iterable[Tuple[Any, ...]]) -> None:
        for row in rows:
            self.add_fact(predicate, *row)

    # -- bulk fact sources ----------------------------------------------------------

    def _reject_intensional(self, predicate: str, path: str) -> None:
        head_predicates = {r.head.predicate for r in self._rules}
        if predicate in head_predicates:
            diagnostic = make_diagnostic(
                "intensional-load-target",
                f"{predicate} is defined by rules; its facts must be fact "
                f"rules, not bulk rows",
            )
            diagnostic.source = path
            raise _loader.DataLoadError(diagnostic)

    def load_csv(
        self,
        predicate: str,
        path: str,
        *,
        delimiter: str = ",",
        header: bool = False,
    ) -> "_loader.LoadReport":
        """Attach a CSV file of ``predicate`` facts (docs/STORAGE.md).

        The file is validated now (shape only — MAD1002 on ragged rows)
        and streamed into every :meth:`edb` materialization; only the
        path is retained, never per-row tuples.  An undeclared predicate
        is declared with the arity of the file's first row.  For cost
        predicates the last column is the cost value.
        """
        self._reject_intensional(predicate, path)
        decl = self._declarations.get(predicate)
        count, arity, report = _loader.scan_csv(
            path,
            arity=decl.arity if decl is not None else None,
            delimiter=delimiter,
            header=header,
            predicate=predicate,
        )
        if decl is None:
            if arity is None:
                raise ProgramError(
                    f"cannot infer the arity of {predicate} from the "
                    f"empty file {path!r}; declare it first"
                )
            self.declare(predicate, arity)
        report.rows[predicate] = count
        self._bulk.append(
            ("csv", predicate, path, {"delimiter": delimiter, "header": header})
        )
        self.last_result = None
        return report

    def load_jsonl(self, path: str) -> "_loader.LoadReport":
        """Attach a JSONL fact file (any mix of predicates per file).

        Each line is ``{"predicate": ..., "row": [...]}``.  Validated
        now (MAD1001/MAD1002/MAD1003), streamed into every :meth:`edb`
        materialization; undeclared predicates are declared from their
        first row.
        """
        arities = {
            name: decl.arity for name, decl in self._declarations.items()
        }
        known, report = _loader.scan_jsonl(path, arities=arities)
        for predicate in sorted(report.rows):
            self._reject_intensional(predicate, path)
            if predicate not in self._declarations:
                self.declare(predicate, known[predicate])
        self._bulk.append(("jsonl", "", path, {}))
        self.last_result = None
        return report

    # -- program assembly ----------------------------------------------------------

    @property
    def program(self) -> Program:
        """The current program (rules + declarations + constraints).

        Facts whose predicate is *also* defined by rules become fact rules
        of the program: ``T_P`` (Definition 3.7) must re-derive them inside
        the predicate's component, where lookups read the growing ``J``
        rather than the extensional database.
        """
        if self._program_cache is None:
            head_predicates = {r.head.predicate for r in self._rules}
            fact_rules = [
                Rule(head=make_atom(predicate, *args))
                for predicate, args in self._facts
                if predicate in head_predicates
            ]
            self._program_cache = Program(
                rules=list(self._rules) + fact_rules,
                declarations=self._declarations.values(),
                constraints=self._constraints,
                aggregates=dict(self._aggregates),
                name=self.name,
            )
            # Fact predicates may not occur in any rule; make sure they are
            # declared on the program too.
            for predicate, args in self._facts:
                if predicate not in self._program_cache.declarations:
                    self._program_cache.declarations[predicate] = PredicateDecl(
                        predicate, len(args)
                    )
        return self._program_cache

    def edb(self, *, storage: str = "boxed") -> Interpretation:
        """The extensional database as an interpretation.

        Facts of rule-defined predicates live in the program as fact rules
        (see :attr:`program`) and are excluded here.  ``storage`` selects
        the relation representation (``"boxed"`` | ``"columnar"``, see
        docs/STORAGE.md).
        """
        program = self.program
        head_predicates = {r.head.predicate for r in self._rules}
        interp = Interpretation(program.declarations, storage=storage)
        for predicate, args in self._facts:
            if predicate not in head_predicates:
                interp.add_fact(predicate, *args)
        for fmt, predicate, path, options in self._bulk:
            if fmt == "csv":
                # Rules loaded after load_csv may have claimed the
                # predicate; re-check at materialization time.
                self._reject_intensional(predicate, path)
                _loader.load_csv(interp, predicate, path, **options)
            else:
                _loader.load_jsonl(
                    interp, path, forbidden=frozenset(head_predicates)
                )
        return interp

    # -- analysis & solving -----------------------------------------------------------

    def analyze(self) -> AnalysisReport:
        """Run the full static pipeline (Definitions 2.5, 2.7, 2.10, 4.5)."""
        return analyze_program(self.program)

    def lint(self, *, linter=None):
        """Coded diagnostics for the assembled program.

        Note: the database merges declarations from every load, so the
        explicit/inferred split is coarser here than when linting rule
        text directly (``repro lint file.mad`` /
        :func:`repro.analysis.diagnostics.lint_source`), and the
        undefined/unused-predicate lints may stay silent.
        """
        from repro.analysis.diagnostics import lint_program

        return lint_program(self.program, source=self.name, linter=linter)

    def solve(
        self,
        *,
        check: CheckPolicy = "strict",
        method: Method = "naive",
        max_iterations: int = 100_000,
        plan: str = "smart",
        pushdown: str = "auto",
        storage: str = "boxed",
        shards: Optional[int] = None,
        workers: Optional[int] = None,
        tracer: Optional["Tracer"] = None,
        budget: Optional["Budget"] = None,
        cancel: Optional["CancelToken"] = None,
        resume: Optional["Checkpoint"] = None,
    ) -> SolveResult:
        """Compute the iterated minimal model (Section 6.3).

        Pass a :class:`repro.obs.Tracer` to opt into the telemetry layer;
        the digest lands on :attr:`SolveResult.telemetry` (see
        docs/OBSERVABILITY.md).  ``budget``/``cancel`` opt into solve
        supervision — graceful partial results with resumable
        checkpoints instead of unbounded spins — and ``resume`` restarts
        from such a checkpoint (see docs/ROBUSTNESS.md and
        :meth:`resume`).  ``pushdown="off"`` disables the aggregate
        pushdown optimization (see docs/OPTIMIZATION.md); the model is
        identical either way.  ``plan="sharded"`` runs analyzer-certified
        components hash-partitioned across ``workers`` processes
        (``shards`` partitions) — see docs/PARALLELISM.md; the model is
        bit-identical to the sequential plans.  ``storage="columnar"``
        stores relations as typed column-major arrays instead of boxed
        dict/set containers (docs/STORAGE.md); the model is bit-identical
        to ``storage="boxed"``.
        """
        result = solve(
            self.program,
            self.edb(storage=storage),
            check=check,
            method=method,
            max_iterations=max_iterations,
            plan=plan,
            pushdown=pushdown,
            storage=storage,
            shards=shards,
            workers=workers,
            tracer=tracer,
            budget=budget,
            cancel=cancel,
            resume=resume,
        )
        self.last_result = result
        return result

    def resume(
        self, checkpoint: Union["Checkpoint", str], **kwargs: Any
    ) -> SolveResult:
        """Continue an interrupted solve from its checkpoint.

        ``checkpoint`` is a :class:`repro.engine.checkpoint.Checkpoint`
        (e.g. ``last_result.checkpoint``) or a path to one saved with
        ``Checkpoint.save`` / ``solve --checkpoint``.  All other keyword
        arguments are forwarded to :meth:`solve`; for monotonic programs
        the resumed model equals an uninterrupted solve's.
        """
        if isinstance(checkpoint, str):
            checkpoint = Checkpoint.load(checkpoint)
        return self.solve(resume=checkpoint, **kwargs)

    def query(self, predicate: str):
        """Relation contents from the most recent :meth:`solve`."""
        if self.last_result is None:
            raise ProgramError("no model computed yet; call solve() first")
        return self.last_result[predicate]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Database {self.name!r}: {len(self._rules)} rules, "
            f"{len(self._facts)} facts>"
        )
