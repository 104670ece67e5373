"""Component-wise solving: iterated minimal models (Section 6.3).

The program is condensed into strongly connected components
(:func:`repro.analysis.dependencies.condense`); each component's minimal
model is computed bottom-up with the lower components' model as the fixed
``I``, exactly the iterated construction the paper describes.  The result
is one total interpretation over all predicates.

``check`` policies:

* ``"strict"`` (default) — refuse programs that fail range-restriction or
  per-component admissibility (so the least fixpoint is guaranteed to be
  the unique minimal model, Lemma 4.1 + Corollary 3.5);
* ``"lenient"`` — skip the admissibility gate but keep runtime
  cost-consistency checking and oscillation detection (used to demonstrate
  the paper's negative examples);
* ``"none"`` — no static checks at all (benchmarks of the checks
  themselves).

Telemetry: passing a :class:`repro.obs.Tracer` threads the solve through
the instrumentation layer — analysis/classify phase spans, per-SCC
``scc_start``/``scc_end`` events with the classification verdict and the
reason auto picked its method, per-iteration fixpoint events from the
evaluators, per-rule executor profiles and the solve's own index /
plan-cache counters — and attaches the digest to
:attr:`SolveResult.telemetry`.  Untraced solves go through the shared
disabled tracer and pay one branch per instrumentation site.  Index
counters are always solve-scoped (:func:`use_index_stats`), so
concurrent solves never share them.  See docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Literal, Optional, Tuple

from repro.analysis.classify import ProgramClassification, classify_program
from repro.analysis.dependencies import Component, condense
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.report import AnalysisReport, analyze_program
from repro.analysis.sharding import ShardingReport, analyze_sharding
from repro.datalog.errors import NotAdmissibleError, SafetyError
from repro.datalog.program import Program
from repro.engine.checkpoint import Checkpoint
from repro.engine.exec import _check_pushdown_mode, get_pushdown
from repro.engine.interpretation import (
    IndexStats,
    Interpretation,
    _check_storage_mode,
    make_relation,
    use_index_stats,
)
from repro.engine.greedy import greedy_applicable, greedy_fixpoint
from repro.engine.naive import FixpointResult, kleene_fixpoint
from repro.engine.seminaive import seminaive_fixpoint
from repro.engine.sharded import (
    ShardWorkerError,
    sharded_fixpoint,
    sharded_supported,
)
from repro.engine.supervisor import (
    NULL_SUPERVISOR,
    Budget,
    CancelToken,
    SolveInterrupt,
    Supervisor,
    component_unbounded,
)
from repro.obs.summary import TelemetrySummary, summarize
from repro.obs.tracer import NULL_TRACER, Tracer

CheckPolicy = Literal["strict", "lenient", "none"]
Method = Literal["naive", "seminaive", "greedy", "auto"]


@dataclass
class SolveResult:
    """The iterated minimal model plus per-component diagnostics."""

    model: Interpretation
    component_results: List[FixpointResult] = field(default_factory=list)
    components: List[Component] = field(default_factory=list)
    #: Evaluation mode actually used per component (parallel to
    #: ``components``) — informative for every method, decisive evidence
    #: for ``method="auto"``.
    component_methods: List[str] = field(default_factory=list)
    #: The program's memoized static-analysis report (None under
    #: ``check="none"``) — the same object on every solve of the
    #: program, so read-only.
    analysis: Optional[AnalysisReport] = None
    #: Structured telemetry digest (per-rule / per-iteration tables);
    #: None unless the solve ran with a collecting tracer.
    telemetry: Optional[TelemetrySummary] = None
    #: ``"complete"``, or the supervised interrupt's
    #: :data:`~repro.engine.supervisor.STATUSES` value; with any status
    #: other than ``"complete"``, ``model`` is the sound-so-far lower
    #: bound of the true minimal model (exact below
    #: ``interrupted_component``).
    status: str = "complete"
    #: Human-readable interrupt cause (empty when complete).
    reason: str = ""
    #: Resumable snapshot of ``model``; set iff the solve was interrupted.
    checkpoint: Optional[Checkpoint] = None
    #: MAD7xx divergence findings the supervisor raised while running.
    runtime_diagnostics: List[Diagnostic] = field(default_factory=list)
    #: Bottom-up index of the component the interrupt landed in.
    interrupted_component: Optional[int] = None

    #: Set by solve(); used by explain().
    program: Optional[Program] = None

    @property
    def complete(self) -> bool:
        return self.status == "complete"

    @property
    def total_iterations(self) -> int:
        return sum(r.iterations for r in self.component_results)

    def method_by_component(self) -> List[Tuple[Tuple[str, ...], str, int]]:
        """``(cdb predicates, method used, iterations)`` per SCC, in
        bottom-up solve order — which predicates each method applied to."""
        return [
            (
                tuple(sorted(component.cdb)),
                method,
                fixpoint.iterations,
            )
            for component, method, fixpoint in zip(
                self.components, self.component_methods, self.component_results
            )
        ]

    def __getitem__(self, predicate: str):
        return self.model[predicate]

    def explain(self, predicate: str, key, **kwargs) -> str:
        """Render a derivation tree for one model atom
        (engine.provenance)."""
        from repro.engine.provenance import explain as _explain

        if self.program is None:
            raise ValueError("this result was built without a program")
        return _explain(self.program, self.model, predicate, tuple(key), **kwargs)


def solve(
    program: Program,
    edb: Optional[Interpretation] = None,
    *,
    check: CheckPolicy = "strict",
    method: Method = "naive",
    max_iterations: int = 100_000,
    plan: str = "smart",
    pushdown: str = "auto",
    storage: str = "boxed",
    shards: Optional[int] = None,
    workers: Optional[int] = None,
    tracer: Optional[Tracer] = None,
    budget: Optional[Budget] = None,
    cancel: Optional[CancelToken] = None,
    resume: Optional[Checkpoint] = None,
) -> SolveResult:
    """Compute the iterated minimal model of ``program`` over ``edb``.

    ``method="auto"`` picks an evaluation mode *per component* from the
    classification pass (:mod:`repro.analysis.classify`): greedy for
    certified-extremal components, semi-naive for the other certified
    ones, strict naive for anything needing well-founded care.

    ``plan`` selects the join-ordering mode of the compiled execution
    layer (:mod:`repro.engine.exec`): ``"smart"`` (selectivity-aware,
    default) or ``"off"`` (legacy schedule order).  ``plan="sharded"``
    additionally hash-partitions every component the shard-safety
    analyzer (:mod:`repro.analysis.sharding`) certifies SHARDABLE across
    ``workers`` OS processes (``shards`` partitions), falling back to
    sequential evaluation — with a ``shard_plan`` telemetry event naming
    the lint-consistent reason — for BLOCKED components, supervised or
    resumed solves; join ordering stays ``"smart"``.

    ``pushdown`` controls the aggregate-pushdown optimization
    (:mod:`repro.analysis.premap`): with ``"auto"`` (default),
    premappable extrema are pushed into their recursion — the fixpoint
    carries a collapsed per-group frontier instead of the full interior
    relation — and the auxiliary predicates are stripped from the final
    model, which is provably identical to the unoptimized one.
    ``"off"`` evaluates the program exactly as written.  The static
    checks (``check``) always run against the *original* program.

    ``storage`` selects the relation representation
    (:mod:`repro.engine.interpretation`): ``"boxed"`` (dict/set,
    default) or ``"columnar"`` (typed column-major arrays,
    docs/STORAGE.md).  The model is bit-identical either way; a boxed
    ``edb`` passed to a columnar solve (or vice versa) is converted on
    entry.

    ``tracer`` opts the solve into the telemetry layer
    (:mod:`repro.obs`); the resulting digest lands on
    :attr:`SolveResult.telemetry`.

    ``budget`` / ``cancel`` opt the solve into supervision
    (:mod:`repro.engine.supervisor`): instead of spinning until killed,
    an over-budget, diverging or cancelled solve returns a
    ``SolveResult`` with ``status != "complete"``, the sound-so-far
    partial model and a resumable :attr:`SolveResult.checkpoint`.
    ``resume`` seeds evaluation from such a checkpoint; the final model
    is identical to an uninterrupted solve's.  See docs/ROBUSTNESS.md.
    """
    t = tracer if tracer is not None else NULL_TRACER
    # Index counters are solve-scoped even when untraced, so concurrent
    # solves cannot cross-contaminate each other's statistics.
    stats = t.index_stats if tracer is not None else IndexStats()
    with use_index_stats(stats):
        return _solve_traced(
            program,
            edb,
            check=check,
            method=method,
            max_iterations=max_iterations,
            plan=plan,
            pushdown=pushdown,
            storage=storage,
            shards=shards,
            workers=workers,
            tracer=t,
            budget=budget,
            cancel=cancel,
            resume=resume,
        )


def _component_initial(
    state: Interpretation, component: Component, program: Program
) -> Interpretation:
    """The restriction of ``state`` to the component's CDB predicates —
    the evaluator's resume seed (the rest of ``state`` is its ``I``)."""
    initial = Interpretation(program.declarations, storage=state.storage)
    for predicate in component.cdb:
        src = state.relations.get(predicate)
        if src is None or not len(src):
            continue
        dst = initial.relation(predicate)
        if src.is_cost:
            for key, value in src.costs.items():
                dst.set_cost(key, value, strict=False)
        else:
            for key in src.tuples:
                dst.add_tuple(key)
    return initial


def _solve_traced(
    program: Program,
    edb: Optional[Interpretation],
    *,
    check: CheckPolicy,
    method: Method,
    max_iterations: int,
    plan: str,
    pushdown: str = "auto",
    storage: str = "boxed",
    shards: Optional[int] = None,
    workers: Optional[int] = None,
    tracer: Tracer,
    budget: Optional[Budget] = None,
    cancel: Optional[CancelToken] = None,
    resume: Optional[Checkpoint] = None,
) -> SolveResult:
    tracer.start(program.name)
    t_solve = tracer.clock()
    analysis: Optional[AnalysisReport] = None
    if check != "none":
        with tracer.phase("analyze"):
            analysis = analyze_program(program)

        def _diags(*prefixes: str):
            return [
                d
                for d in analysis.diagnostics
                if d.code.startswith(prefixes)
            ]

        if not analysis.range_restricted:
            bad = [str(r) for r in analysis.safety if not r.ok]
            raise SafetyError(
                "program is not range-restricted:\n  " + "\n  ".join(bad),
                diagnostics=_diags("MAD1"),
            )
        if check == "strict":
            if not analysis.admissible:
                bad = [str(c) for c in analysis.components if not c.ok]
                raise NotAdmissibleError(
                    "program not certified monotonic (use check='lenient' to "
                    "attempt evaluation anyway):\n  " + "\n  ".join(bad),
                    diagnostics=_diags("MAD3"),
                )
            if not analysis.conflict_free:
                raise NotAdmissibleError(
                    "program not certified conflict-free (use check='lenient' "
                    "to rely on the runtime cost-consistency check):\n  "
                    + str(analysis.conflict),
                    diagnostics=_diags("MAD2"),
                )

    # -- aggregate pushdown (Zaniolo et al.): rewrite premappable
    # extrema before method selection, so classification-driven choices
    # see the program actually evaluated.  The rewrite's auxiliary
    # frontier predicates rely on the lattice join to collapse
    # conflicting per-key costs, so their components run with
    # strict=False; they are stripped from the final model.
    eval_program = program
    aux_predicates: FrozenSet[str] = frozenset()
    if _check_pushdown_mode(pushdown) == "auto":
        with tracer.phase("pushdown"):
            rewrite = get_pushdown(program)
        if rewrite.changed:
            eval_program = rewrite.program
            aux_predicates = rewrite.aux_predicates
            if tracer.enabled:
                for applied in rewrite.applied:
                    tracer.emit(
                        "rewrite_applied",
                        head=applied.head,
                        predicate=applied.predicate,
                        auxiliary=applied.auxiliary,
                        aggregate=applied.function,
                    )

    auto_methods: Dict[frozenset, str] = {}
    eval_classification: Optional[ProgramClassification] = None
    if method == "auto" or plan == "sharded" or analysis is not None:
        # Classify what runs: after a rewrite changed the SCC structure,
        # auto picks methods (and telemetry reports verdicts) for the
        # rewritten components, not the original ones.  Without a
        # rewrite this is the analysis report's own (memoized) verdict.
        with tracer.phase("classify"):
            eval_classification = classify_program(eval_program)
    if method == "auto":
        assert eval_classification is not None
        auto_methods = {
            c.component.cdb: c.method
            for c in eval_classification.components
        }
    #: cdb → (verdict, reasons) for telemetry, whatever the method.
    verdicts: Dict[frozenset, Tuple[str, Tuple[str, ...]]] = {}
    if eval_classification is not None:
        verdicts = {
            c.component.cdb: (c.verdict.value, c.reasons)
            for c in eval_classification.components
        }

    supervisor = (
        Supervisor(budget, cancel, tracer=tracer)
        if budget is not None or cancel is not None
        else NULL_SUPERVISOR
    )

    # -- shard plan: the analyzer's per-component proofs, resolved once.
    # Join ordering inside evaluators stays "smart" (the exec layer has
    # no "sharded" mode; sharding is a solver-level strategy).
    exec_plan = "smart" if plan == "sharded" else plan
    sharding_report: Optional[ShardingReport] = None
    n_workers = workers if workers is not None else (os.cpu_count() or 1)
    n_shards = shards if shards is not None else max(8, 4 * n_workers)
    if plan == "sharded":
        with tracer.phase("shard-plan"):
            sharding_report = analyze_sharding(eval_program)

    storage = _check_storage_mode(storage)
    state = (
        edb.with_storage(storage)
        if edb is not None
        else Interpretation(program.declarations, storage=storage)
    )
    if resume is not None:
        # The checkpoint state already contains the EDB it was solved
        # over; joining (rather than replacing) keeps any facts the
        # caller added since — they participate via re-derivation.
        # Checkpoints are captured against (and restored over) the
        # *original* program: auxiliary frontier atoms are never
        # checkpointed and re-derive from the restored lower bound.
        state = state.join(resume.restore(program))
    for name in aux_predicates:
        decl = eval_program.declarations[name]
        state.declarations[name] = decl
        state.relations[name] = make_relation(decl, storage)
    result = SolveResult(model=state, analysis=analysis, program=program)
    for index, component in enumerate(condense(eval_program)):
        chosen = (
            auto_methods.get(component.cdb, "naive")
            if method == "auto"
            else method
        )
        if chosen == "greedy" and not greedy_applicable(
            eval_program, component
        ):
            # Greedy applies to extremal components only; other components
            # of the same program fall through to the naive evaluator.
            chosen = "naive"
        # Pushdown frontier components intentionally derive conflicting
        # per-key costs (the join IS the aggregate) — disable the
        # strict functional-dependency check for them only.
        strict_costs = aux_predicates.isdisjoint(component.cdb)
        shard_verdict = (
            sharding_report.for_component(component)
            if sharding_report is not None
            else None
        )
        use_sharded, shard_reason = _shard_decision(
            plan, shard_verdict, resume, supervisor
        )
        if plan == "sharded" and tracer.enabled:
            tracer.emit(
                "shard_plan",
                scc=index,
                predicates=sorted(component.cdb),
                status=(
                    shard_verdict.status
                    if shard_verdict is not None
                    else "unknown"
                ),
                action="sharded" if use_sharded else "fallback",
                reason=shard_reason,
                shards=n_shards,
                workers=n_workers,
            )
        initial = (
            _component_initial(state, component, eval_program)
            if resume is not None
            else None
        )
        if supervisor.active:
            # The component's own (checkpointed) atoms come back as the
            # evaluator's total_atoms; don't double-count them.
            base = state.total_size()
            if initial is not None:
                base -= initial.total_size()
            supervisor.enter_component(
                base_atoms=base,
                watch_spiral=component_unbounded(
                    eval_program, component.cdb
                ),
            )
        if tracer.enabled:
            verdict, reasons = verdicts.get(component.cdb, (None, ()))
            tracer.emit(
                "scc_start",
                scc=index,
                predicates=sorted(component.cdb),
                method=chosen,
                verdict=verdict,
                reasons=list(reasons),
                rules=len(component.rules),
            )
            t_scc = tracer.clock()
        def _sequential(method_name: str) -> FixpointResult:
            if method_name == "seminaive":
                return seminaive_fixpoint(
                    eval_program,
                    component.cdb,
                    state,
                    max_iterations=max_iterations,
                    strict=strict_costs,
                    plan=exec_plan,
                    storage=storage,
                    tracer=tracer,
                    scc=index,
                    supervisor=supervisor,
                    initial=initial,
                )
            if method_name == "greedy":
                return greedy_fixpoint(
                    eval_program,
                    component,
                    state,
                    assume_invariant=True,
                    plan=exec_plan,
                    storage=storage,
                    tracer=tracer,
                    scc=index,
                    supervisor=supervisor,
                    initial=initial,
                )
            return kleene_fixpoint(
                eval_program,
                component.cdb,
                state,
                max_iterations=max_iterations,
                strict=strict_costs,
                plan=exec_plan,
                storage=storage,
                tracer=tracer,
                scc=index,
                supervisor=supervisor,
                initial=initial,
            )

        try:
            if use_sharded:
                assert shard_verdict is not None
                assert shard_verdict.key is not None
                try:
                    fixpoint, _populated = sharded_fixpoint(
                        eval_program,
                        component.cdb,
                        state,
                        shard_verdict.key,
                        component.rules,
                        method=chosen,
                        shards=n_shards,
                        workers=n_workers,
                        max_iterations=max_iterations,
                        strict=strict_costs,
                        plan=exec_plan,
                        storage=storage,
                        tracer=tracer,
                        scc=index,
                        supervisor=supervisor,
                    )
                    chosen = f"{chosen}+sharded"
                except ShardWorkerError as failure:
                    # Crash isolation: a dead or raising worker never
                    # reaches the barrier merge, so ``state`` is
                    # untouched — nothing to invalidate.  Re-run the
                    # whole component sequentially, witnessing the
                    # reason the same way the BLOCKED fallback does.
                    if tracer.enabled:
                        tracer.metrics.counter("shard.worker_failures").inc()
                        tracer.emit(
                            "shard_plan",
                            scc=index,
                            predicates=sorted(component.cdb),
                            status=shard_verdict.status,
                            action="fallback",
                            reason=f"worker failure: {failure.reason}",
                            shards=n_shards,
                            workers=n_workers,
                        )
                    fixpoint = _sequential(chosen)
            else:
                fixpoint = _sequential(chosen)
        except SolveInterrupt as interrupt:
            # Graceful degradation: fold the evaluator's sound partial
            # state into the model, snapshot a resumable checkpoint, and
            # report instead of raising.
            partial = interrupt.partial
            if partial is not None:
                state = state.join(partial.interpretation)
                result.components.append(component)
                result.component_methods.append(chosen)
                result.component_results.append(partial)
            result.status = interrupt.status
            result.reason = interrupt.reason
            result.interrupted_component = index
            # Auxiliary frontier atoms never leave the solver: the
            # partial model and the checkpoint (captured against the
            # original program) carry original predicates only; resume
            # re-derives the frontier from the restored lower bound.
            frontier = interrupt.frontier
            if aux_predicates:
                for name in aux_predicates:
                    state.relations.pop(name, None)
                    state.declarations.pop(name, None)
                if frontier:
                    frontier = {
                        name: rows
                        for name, rows in frontier.items()
                        if name not in aux_predicates
                    }
            result.model = state
            result.checkpoint = Checkpoint.capture(
                program,
                state,
                status=interrupt.status,
                reason=interrupt.reason,
                component=index,
                iterations=result.total_iterations,
                frontier=frontier,
            )
            if tracer.enabled:
                tracer.emit(
                    "checkpoint",
                    status=interrupt.status,
                    component=index,
                    atoms=state.total_size(),
                )
            break
        if tracer.enabled:
            tracer.emit(
                "scc_end",
                scc=index,
                method=chosen,
                iterations=fixpoint.iterations,
                atoms=fixpoint.interpretation.total_size(),
                wall_s=round(tracer.clock() - t_scc, 6),
            )
        state = state.join(fixpoint.interpretation)
        result.components.append(component)
        result.component_methods.append(chosen)
        result.component_results.append(fixpoint)
    if result.complete:
        for name in aux_predicates:
            state.relations.pop(name, None)
            state.declarations.pop(name, None)
        result.model = state
    result.runtime_diagnostics = list(supervisor.diagnostics)
    if tracer.enabled:
        _flush_telemetry(tracer, eval_program, result, t_solve)
        if tracer.collect:
            result.telemetry = summarize(tracer.events)
    return result


def _shard_decision(
    plan: str,
    verdict,
    resume: Optional[Checkpoint],
    supervisor: Supervisor,
) -> Tuple[bool, str]:
    """Whether to shard this component, with the lint-consistent reason.

    The reason string mirrors the analyzer's witness chain (MAD901-903)
    so the telemetry fallback event and `repro shard-plan` agree.
    """
    if plan != "sharded":
        return False, ""
    if verdict is None:
        return False, "component not analyzed"
    if not verdict.ok:
        return False, verdict.witness or verdict.status
    if verdict.key is None:
        return False, "no key plan"
    if resume is not None:
        return False, "resuming from a checkpoint"
    if supervisor.active and (
        supervisor.budget.bounded or supervisor.budget.on_divergence == "abort"
    ):
        # Budgets and divergence heuristics poll inside the fixpoint
        # loops; forked workers run unsupervised, so a budgeted solve
        # stays sequential.  A bare CancelToken (the CLI's Ctrl-C path)
        # does not block sharding — it is honored between components.
        return (
            False,
            "budgeted solve (budgets are enforced parent-side only)",
        )
    supported, why = sharded_supported()
    if not supported:
        return False, why
    return True, ""


def _rule_labels(program: Program) -> Dict[int, Tuple[int, str]]:
    """``id(rule) -> (rule index, rule text)`` for ``rule_profile``
    events; memoized on the program, so repeat solves and serve
    requests do not pretty-print every rule again."""
    return program.memo(
        "rule_labels",
        lambda: {id(rule): (i, str(rule)) for i, rule in enumerate(program.rules)},
    )


def _flush_telemetry(
    tracer: Tracer, program: Program, result: SolveResult, t_solve: float
) -> None:
    """Emit the end-of-solve events: per-rule profiles, counters, totals."""
    scc_of: Dict[str, int] = {}
    for index, component in enumerate(result.components):
        for predicate in component.cdb:
            scc_of[predicate] = index
    labels = _rule_labels(program)
    rows = sorted(
        tracer.rule_stats(),
        key=lambda row: labels.get(id(row[0]), (-1, ""))[0],
    )
    for rule, calls, derived, wall in rows:
        rule_index, text = labels.get(id(rule)) or (-1, str(rule))
        tracer.emit(
            "rule_profile",
            rule=text,
            rule_index=rule_index,
            head=rule.head.predicate,
            scc=scc_of.get(rule.head.predicate),
            calls=calls,
            derived=derived,
            wall_s=round(wall, 6),
        )
    m = tracer.metrics
    hits, misses = m.get("plan.cache_hits"), m.get("plan.cache_misses")
    tracer.emit(
        "counters",
        index=tracer.index_stats.snapshot(),
        plan_cache={
            "hits": hits.value if hits is not None else 0,
            "misses": misses.value if misses is not None else 0,
        },
    )
    solve_wall = round(tracer.clock() - t_solve, 6)
    atoms = result.model.total_size()
    m.counter("solve.components").inc(len(result.components))
    m.gauge("solve.atoms").set(float(atoms))
    m.timer("solve.wall_s").observe(solve_wall)
    # The merged registry (parent sites + worker snapshots folded at the
    # shard barrier) rides the stream as one ``metrics_snapshot`` event,
    # emitted before ``solve_end`` so the flight-recorder ring keeps it.
    tracer.emit("metrics_snapshot", metrics=m.snapshot())
    tracer.emit(
        "solve_end",
        iterations=result.total_iterations,
        atoms=atoms,
        wall_s=solve_wall,
    )
