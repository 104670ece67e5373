"""The immediate consequence operator ``T_P(J, I)`` (Definition 3.7).

``T_P(J, I)`` is one *simultaneous* application of every rule of the
component to the current CDB interpretation ``J`` and the fixed
lower-component interpretation ``I``, joined with ``J_∅`` (the
interpretation giving default values to all instances of default-value
cost predicates).  ``J_∅``'s contribution is implicit here: cores never
store default values, and lookups fall back to the default
(:class:`~repro.engine.interpretation.Relation`).

The runtime cost-consistency check lives here: two rule instances deriving
atoms that differ only in the cost argument raise
:class:`~repro.datalog.errors.CostConsistencyError`, per the paper's
standing assumption that components are cost consistent.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.engine.exec import run_rule
from repro.engine.grounding import EvalContext
from repro.engine.interpretation import Interpretation
from repro.engine.supervisor import NULL_SUPERVISOR, Supervisor
from repro.obs.tracer import NULL_TRACER, Tracer


def apply_tp(
    program: Program,
    cdb: FrozenSet[str],
    j: Interpretation,
    i: Interpretation,
    *,
    rules: Optional[List[Rule]] = None,
    strict: bool = True,
    negation_source: Optional[Interpretation] = None,
    aggregate_source: Optional[Interpretation] = None,
    plan: str = "smart",
    storage: str = "boxed",
    tracer: Tracer = NULL_TRACER,
    supervisor: Supervisor = NULL_SUPERVISOR,
    scc: Optional[int] = None,
) -> Interpretation:
    """One application of ``T_P`` for the component with head set ``cdb``.

    ``rules`` defaults to every program rule whose head predicate is in
    ``cdb``.  With ``strict=False`` conflicting cost derivations are
    joined instead of raising (used by the semi-naive evaluator, which is
    only sound for monotonic programs anyway).  ``negation_source`` /
    ``aggregate_source`` fix those subgoal kinds to an oracle
    interpretation (reducts, Sections 5.3–5.5).  Rule bodies run through
    the compiled execution layer (:mod:`repro.engine.exec`); ``plan``
    selects the join-ordering mode (``"smart"`` | ``"off"``) and
    ``storage`` the representation of the staging interpretation
    (``"boxed"`` | ``"columnar"``, docs/STORAGE.md) — evaluators whose
    iterate *is* the staging output thread their own mode through.

    An active ``supervisor`` is polled between rules (a rule-firing
    boundary): the staging interpretation ``out`` is discarded on
    interrupt, so ``j`` and ``i`` are never observed half-updated.

    With an enabled ``tracer`` every rule fires exactly once here, its
    output counted and timed; the round's firings reach the tracer as
    one batch (:meth:`~repro.obs.tracer.Tracer.record_rules`), also when
    the round is cut short by an exception.
    """
    if rules is None:
        rules = [r for r in program.rules if r.head.predicate in cdb]
    ctx = EvalContext(
        program,
        cdb,
        j,
        i,
        negation_source=negation_source,
        aggregate_source=aggregate_source,
        tracer=tracer,
    )
    out = Interpretation(program.declarations, storage=storage)
    check = supervisor.active
    track = tracer.enabled
    batch: List[Tuple[Rule, Dict[int, int], float]] = []
    try:
        for rule in rules:
            if check:
                supervisor.poll(scc)
            atoms: Iterable[Tuple[str, Tuple[Any, ...]]]
            if track:
                t_rule = tracer.clock()
                atoms = list(run_rule(rule, ctx, mode=plan))
                batch.append((rule, {len(atoms): 1}, tracer.clock() - t_rule))
            else:
                atoms = run_rule(rule, ctx, mode=plan)
            for predicate, args in atoms:
                rel = out.relation(predicate)
                if rel.is_cost:
                    assert rel.decl.lattice is not None
                    rel.decl.lattice.validate(args[-1])
                    rel.set_cost(args[:-1], args[-1], strict=strict)
                else:
                    rel.add_tuple(args)
    finally:
        if batch:
            tracer.record_rules(batch)
    return out
