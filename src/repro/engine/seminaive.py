"""Semi-naive evaluation for monotonic components.

Classic semi-naive evaluation specialises here to *delta-driven
re-derivation*: after the first full ``T_P`` round, a rule instance only
needs re-evaluation when it can touch an atom whose cost changed in the
previous round.  Concretely, per changed atom we pin

* each positive CDB atom subgoal to the changed rows, evaluating the rest
  of the body around the pinned bindings, and
* each CDB aggregate subgoal to the *groups* the changed rows belong to
  (the group's multiset changed, so the whole group is re-aggregated from
  the current ``J`` — aggregates are not incrementally maintainable in
  general, re-aggregation per affected group is).

New derivations are *joined* into ``J``.  For a monotonic component this
reproduces ``J_{k+1} = T_P(J_k, I)`` exactly: unpinned instances would
re-derive values already ⊑-below what ``J`` holds, so skipping them is
safe, and ``join(old, new) = new`` whenever ``new ⊒ old``.  For
non-monotonic programs the shortcut is unsound — the solver only routes
admissibility-certified components here.

The equivalence with the naive evaluator is enforced by property-based
tests across the paper's example programs and randomized workloads.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.datalog.atoms import AggregateSubgoal, Atom, AtomSubgoal
from repro.datalog.errors import NonTerminationError
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant, Variable
from repro.engine.exec import get_plan
from repro.engine.grounding import Bindings, EvalContext
from repro.engine.interpretation import Interpretation, Relation
from repro.engine.naive import FixpointResult
from repro.engine.supervisor import (
    NULL_SUPERVISOR,
    SolveInterrupt,
    Supervisor,
)
from repro.engine.tp import apply_tp
from repro.obs.tracer import NULL_TRACER, Tracer

DeltaRows = Dict[str, List[Tuple[Any, ...]]]


def _match_row(atom: Atom, row: Tuple[Any, ...]) -> Optional[Bindings]:
    """Bindings making ``atom`` equal to the concrete ``row``, or None."""
    if len(atom.args) != len(row):
        return None
    bindings: Bindings = {}
    for arg, value in zip(atom.args, row):
        if isinstance(arg, Constant):
            if arg.value != value:
                return None
        else:
            existing = bindings.get(arg)
            if existing is None:
                bindings[arg] = value
            elif existing != value:
                return None
    return bindings


def _delta_between(old: Interpretation, new: Interpretation) -> DeltaRows:
    """Rows of ``new`` that are absent from or different in ``old``."""
    delta: DeltaRows = {}
    for name, rel in new.relations.items():
        old_rel = old.relations[name]
        rows: List[Tuple[Any, ...]] = []
        if rel.is_cost:
            for key, value in rel.costs.items():
                if old_rel.costs.get(key) != value:
                    rows.append(key + (value,))
        else:
            for key in rel.tuples - old_rel.tuples:
                rows.append(key)
        if rows:
            delta[name] = rows
    return delta


#: One compiled seed source: (predicate, arity, constant checks as
#: (position, value), duplicate-variable checks as (position, first
#: position), seed writes as (variable, position), and the seed's
#: *shape* — the variables it pre-binds, which key the rule's plan).
_SeedPlan = Tuple[
    str,
    int,
    Tuple[Tuple[int, Any], ...],
    Tuple[Tuple[int, int], ...],
    Tuple[Tuple[Variable, int], ...],
    FrozenSet[Variable],
]


def _row_seed_plan(atom: Atom, keep: Optional[FrozenSet[Variable]]) -> _SeedPlan:
    """Compile ``atom`` into a row → seed-bindings extractor.

    ``keep`` restricts the seed to a variable subset (aggregate grouping
    projection); constant and duplicate-occurrence checks still cover
    every position, exactly like :func:`_match_row`.
    """
    checks: List[Tuple[int, Any]] = []
    dups: List[Tuple[int, int]] = []
    writes: List[Tuple[Variable, int]] = []
    first: Dict[Variable, int] = {}
    for pos, arg in enumerate(atom.args):
        if isinstance(arg, Constant):
            checks.append((pos, arg.value))
        elif arg in first:
            dups.append((pos, first[arg]))
        else:
            first[arg] = pos
            if keep is None or arg in keep:
                writes.append((arg, pos))
    return (
        atom.predicate,
        len(atom.args),
        tuple(checks),
        tuple(dups),
        tuple(writes),
        frozenset(var for var, _ in writes),
    )


def _seed_plans(rule: Rule, cdb: FrozenSet[str]) -> List[_SeedPlan]:
    """The rule's compiled seed sources, cached on the rule object."""
    cache: Dict[FrozenSet[str], List[_SeedPlan]]
    cache = rule.__dict__.setdefault("_delta_seed_plans", {})
    plans = cache.get(cdb)
    if plans is None:
        plans = []
        for sg in rule.body:
            if isinstance(sg, AtomSubgoal) and not sg.negated:
                if sg.atom.predicate in cdb:
                    plans.append(_row_seed_plan(sg.atom, None))
            elif isinstance(sg, AggregateSubgoal):
                grouping = rule.grouping_variables(sg)
                for conjunct in sg.conjuncts:
                    if conjunct.predicate in cdb:
                        plans.append(_row_seed_plan(conjunct, grouping))
        cache[cdb] = plans
    return plans


#: A rule's delta seeds, grouped by seed shape: ``(shape, seeds)``.
SeedGroups = List[Tuple[FrozenSet[Variable], List[Bindings]]]


def _delta_seed_groups(
    rule: Rule, cdb: FrozenSet[str], delta: DeltaRows
) -> SeedGroups:
    """Pinned initial bindings for re-evaluating ``rule``.

    For a positive CDB atom subgoal the changed row binds the subgoal's
    variables directly; for a CDB aggregate subgoal the changed conjunct
    row is projected onto the *grouping* variables, seeding re-aggregation
    of exactly the affected groups.  The full body is then re-evaluated
    around the seed (the pinned subgoal re-matches via an index hit, which
    keeps the original rule's grouping/local classification intact).

    Seeds are deduplicated by a frozenset-of-items fingerprint — an
    order-free O(k) key (a bindings dict cannot bind one variable twice,
    so equal item sets mean equal seeds).  They come grouped by seed
    source, in source order, one group per source that yields a new
    seed; every seed of a group binds the same variables (its shape), so
    a group needs one plan lookup however many seeds it holds.
    """
    seen: Set[FrozenSet[Tuple[Variable, Any]]] = set()
    groups: SeedGroups = []
    for predicate, arity, checks, dups, writes, shape in _seed_plans(rule, cdb):
        rows = delta.get(predicate)
        if not rows:
            continue
        seeds: List[Bindings] = []
        for row in rows:
            if len(row) != arity:
                continue
            ok = True
            for pos, value in checks:
                if row[pos] != value:
                    ok = False
                    break
            if ok:
                for pos, pos0 in dups:
                    if row[pos] != row[pos0]:
                        ok = False
                        break
            if not ok:
                continue
            seed = {var: row[pos] for var, pos in writes}
            fingerprint = frozenset(seed.items())
            if fingerprint not in seen:
                seen.add(fingerprint)
                seeds.append(seed)
        if seeds:
            groups.append((shape, seeds))
    return groups


#: Per-rule firing accounts for the tracer: ``id(rule) -> [rule,
#: {atoms derived: firings}, wall seconds]`` (``Tracer.record_rules``).
RuleAccounts = Dict[int, List[Any]]


def fire_delta(
    rules: List[Rule],
    cdb: FrozenSet[str],
    delta: DeltaRows,
    ctx: EvalContext,
    derived: List[Tuple[str, Tuple[Any, ...]]],
    *,
    plan: str,
    supervisor: Supervisor,
    scc: int,
    iteration: int,
    accounts: Optional[RuleAccounts],
) -> None:
    """Fire ``rules`` on every seed ``delta`` pins, appending the head
    atoms they derive to ``derived``.

    A rule's plan is looked up once per seed shape and fired once per
    seed; an active ``supervisor`` is polled before every firing.  A
    traced caller passes ``accounts``: each rule's firings are tallied
    there by atoms derived, in plain integers, and the rule is timed
    once per call — the caller hands the accounts to the tracer once per
    round (:meth:`~repro.obs.tracer.Tracer.record_rules`).  Tallies are
    updated per firing, so a round cut short by an exception still
    counts the firings it made.
    """
    supervise = supervisor.active
    program = ctx.program
    clock = ctx.tracer.clock
    for rule in rules:
        groups = _delta_seed_groups(rule, cdb, delta)
        if not groups:
            continue
        if accounts is not None:
            account = accounts.get(id(rule))
            if account is None:
                account = accounts[id(rule)] = [rule, {}, 0.0]
            tally = account[1]
            t_rule = clock()
        for shape, seeds in groups:
            execute = get_plan(
                program, rule, shape, mode=plan, ctx=ctx, probes=len(seeds)
            ).execute
            for seed in seeds:
                if supervise:
                    supervisor.poll(scc, iteration)
                if accounts is not None:
                    before = len(derived)
                    derived.extend(execute(ctx, seed))
                    atoms = len(derived) - before
                    tally[atoms] = tally.get(atoms, 0) + 1
                else:
                    derived.extend(execute(ctx, seed))
        if accounts is not None:
            account[2] += clock() - t_rule


def _apply_derivation(rel: Relation, args: Tuple[Any, ...]) -> bool:
    """Join one derived head atom into its relation; True if it changed.

    Routed through the relation mutators so the persistent indexes stay
    consistent across rounds (``set_cost(strict=False)`` joins on
    conflict, which is exactly the semi-naive merge semantics).  A
    change either adds a key (the relation grows by one) or raises an
    existing key's cost.
    """
    if rel.is_cost:
        assert rel.decl.lattice is not None
        rel.decl.lattice.validate(args[-1])
        return rel.set_cost(args[:-1], args[-1], strict=False)
    return rel.add_tuple(args)


def seminaive_fixpoint(
    program: Program,
    cdb: FrozenSet[str],
    i: Interpretation,
    *,
    max_iterations: int = 100_000,
    strict: bool = True,
    plan: str = "smart",
    storage: str = "boxed",
    tracer: Tracer = NULL_TRACER,
    scc: int = 0,
    supervisor: Supervisor = NULL_SUPERVISOR,
    initial: Optional[Interpretation] = None,
) -> FixpointResult:
    """Delta-driven fixpoint of one monotonic component.

    ``strict`` governs the *first* round's cost-consistency check (later
    rounds always join — see ``_apply_derivation``).  The solver passes
    ``strict=False`` for components holding an aggregate-pushdown
    frontier predicate, whose rules *intentionally* derive conflicting
    per-key costs for the lattice join to collapse.

    With an enabled ``tracer`` one ``iteration`` event is emitted per
    round (tagged with component index ``scc``), carrying the delta fed
    to the next round split into new atoms and changed-cost (lattice
    merge) atoms.

    An active ``supervisor`` is polled at each rule/seed boundary and
    consulted per round; an interrupt escapes with the last consistent
    ``J`` and the pending delta frontier attached.  ``initial`` resumes
    from a checkpointed lower bound: round 0 re-derives over it (one
    full ``T_P`` application, joined in), so a stale or missing frontier
    cannot lose derivations — semi-naive pinning is only a shortcut for
    work the full round would repeat.
    """
    rules = [r for r in program.rules if r.head.predicate in cdb]
    resumed = initial is not None
    start = (
        initial.copy()
        if resumed
        else Interpretation(program.declarations, storage=storage)
    )
    track = tracer.enabled
    supervise = supervisor.active

    j = start
    delta: DeltaRows = {}
    trajectory: List[int] = []
    iterations = 0
    try:
        # Round 0: one full naive T_P application (over the checkpointed
        # state when resuming; conflicting cost derivations then join
        # instead of raising, as the checkpoint may already hold values
        # above any single rule instance's derivation).
        t_round = tracer.clock() if track else 0.0
        out = apply_tp(
            program,
            cdb,
            start,
            i,
            strict=strict and not resumed,
            plan=plan,
            storage=storage,
            tracer=tracer,
            supervisor=supervisor,
            scc=scc,
        )
        j = start.join(out) if resumed else out
        delta = _delta_between(start, j)
        # The model size, kept as a running count from here on: later
        # rounds only grow ``j`` through ``_apply_derivation``.
        total = j.total_size()
        trajectory.append(total)
        iterations = 1
        if track or supervise:
            seeded = sum(len(rows) for rows in delta.values())
        if track:
            round_wall = round(tracer.clock() - t_round, 6)
            tracer.emit(
                "iteration",
                scc=scc,
                iteration=1,
                delta_atoms=seeded,
                new_atoms=seeded,
                changed_atoms=0,
                total_atoms=total,
                wall_s=round_wall,
            )
            tracer.record_round(seeded, None, seeded, round_wall)
        if supervise:
            supervisor.on_round(
                scc=scc,
                iteration=1,
                new_atoms=seeded,
                changed_atoms=0,
                total_atoms=total,
            )

        # Rules that read no CDB predicate can never fire on a delta.
        dependent_rules = [
            r for r in rules if any(p in cdb for p in r.body_predicates())
        ]
        # The relations a round can grow: a round's new atoms are their
        # growth, and every other applied derivation changed a cost.
        grown = [
            j.relation(p)
            for p in sorted({r.head.predicate for r in dependent_rules})
        ]

        # One context for the whole fixpoint: the persistent indexes on
        # the relations of ``j`` and ``i`` survive across rounds and are
        # updated in place by ``_apply_derivation``'s mutator calls, so
        # each round touches only its delta instead of re-hashing every
        # relation.
        ctx = EvalContext(program, cdb, j, i, tracer=tracer)

        while delta:
            if iterations >= max_iterations:
                raise NonTerminationError(
                    f"semi-naive evaluation did not converge after "
                    f"{max_iterations} rounds",
                    ascending=True,
                )
            t_round = tracer.clock() if track else 0.0
            derived: List[Tuple[str, Tuple[Any, ...]]] = []
            accounts: Optional[RuleAccounts] = {} if track else None
            # Rule-firing boundaries poll the supervisor: ``j`` is
            # untouched until the whole round's derivations apply below.
            try:
                fire_delta(
                    dependent_rules,
                    cdb,
                    delta,
                    ctx,
                    derived,
                    plan=plan,
                    supervisor=supervisor,
                    scc=scc,
                    iteration=iterations,
                    accounts=accounts,
                )
            finally:
                if accounts:
                    tracer.record_rules(accounts.values())
            new_delta: DeltaRows = {}
            size_before = sum(len(rel) for rel in grown)
            for predicate, args in derived:
                rel = j.relation(predicate)
                if _apply_derivation(rel, args):
                    if rel.is_cost:
                        key = args[:-1]
                        row = key + (rel.costs[key],)  # value after joining
                    else:
                        row = args
                    new_delta.setdefault(predicate, []).append(row)
            new_atoms = sum(len(rel) for rel in grown) - size_before
            delta = new_delta
            total += new_atoms
            trajectory.append(total)
            iterations += 1
            if track or supervise:
                delta_size = sum(len(rows) for rows in delta.values())
                changed_atoms = delta_size - new_atoms
            if track:
                round_wall = round(tracer.clock() - t_round, 6)
                tracer.emit(
                    "iteration",
                    scc=scc,
                    iteration=iterations,
                    delta_atoms=delta_size,
                    new_atoms=new_atoms,
                    changed_atoms=changed_atoms,
                    total_atoms=total,
                    wall_s=round_wall,
                )
                tracer.record_round(
                    new_atoms, changed_atoms, delta_size, round_wall
                )
            if supervise:
                supervisor.on_round(
                    scc=scc,
                    iteration=iterations,
                    new_atoms=new_atoms,
                    changed_atoms=changed_atoms,
                    total_atoms=total,
                )
    except SolveInterrupt as interrupt:
        # ``j`` only mutates in the apply-derivations block, which has no
        # check sites — at every interrupt point it is a consistent
        # (sound) round-boundary state.
        interrupt.attach(
            FixpointResult(
                interpretation=j,
                iterations=iterations,
                ascending=True,
                trajectory=trajectory,
                status=interrupt.status,
            ),
            frontier=delta,
        )
        raise

    return FixpointResult(
        interpretation=j,
        iterations=iterations,
        ascending=True,
        trajectory=trajectory,
    )
