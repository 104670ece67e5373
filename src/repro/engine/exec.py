"""Compiled query execution: cached rule plans over slot registers.

This layer sits between the fixpoint evaluators (``tp``, ``seminaive``,
``greedy``) and the raw relations.  Per rule — and per *seed shape*, the
set of variables a semi-naive delta seed pre-binds — it compiles once:

* a **join order** for the body.  With ``plan="smart"`` the order is
  selectivity-aware: among the subgoals evaluable at each step
  (:func:`~repro.engine.grounding.subgoal_readiness` — the safety
  condition is shared with the legacy scheduler), positive atoms are
  ranked by the estimated cardinality of their indexed lookup instead of
  by the legacy bound-variable count.  ``plan="off"`` preserves the
  legacy :func:`~repro.engine.grounding.schedule` order exactly.
* a **slot program**: every rule variable gets a register slot, and each
  subgoal becomes a step with precomputed bound/free argument positions,
  constant checks, duplicate-variable checks, head projection, and (for
  aggregate subgoals) the grouping/local split and conjunct order — the
  work the interpreted path redoes for every binding.

Plans are cached on the :class:`~repro.datalog.program.Program`
(``program ⋅ rule ⋅ pre-bound variables ⋅ mode``), so ``apply_tp`` and the
delta-driven evaluators stop re-deriving join orders on every call.
Lookups go through the relations' persistent incremental indexes
(:class:`~repro.engine.interpretation.Relation`), which survive across
fixpoint rounds.  See docs/PERFORMANCE.md.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.aggregates.base import EmptyAggregateError
from repro.datalog.atoms import (
    AggregateSubgoal,
    Atom,
    AtomSubgoal,
    BuiltinSubgoal,
    Subgoal,
)
from repro.datalog.errors import SafetyError
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant, Variable, evaluate_expr
from repro.engine.grounding import (
    Bindings,
    EvalContext,
    _compare,
    schedule,
    subgoal_readiness,
)
from repro.testing import faults as _faults
from repro.engine.interpretation import Key, Relation
from repro.util.multiset import FrozenMultiset

#: Register value for an unbound variable.
_UNSET = object()

#: Plan modes: "smart" = selectivity-aware join order; "off" = legacy
#: schedule order (escape hatch; still compiled and indexed).
PLAN_MODES = ("smart", "off")


def _check_mode(mode: str) -> str:
    if mode not in PLAN_MODES:
        raise ValueError(f"unknown plan mode {mode!r}; expected one of {PLAN_MODES}")
    return mode


#: Pushdown modes: "auto" = apply the aggregate-pushdown rewrite wherever
#: the premappability analysis proves it sound; "off" = evaluate the
#: program exactly as written (escape hatch, mirrors ``plan="off"``).
PUSHDOWN_MODES = ("auto", "off")


def _check_pushdown_mode(mode: str) -> str:
    if mode not in PUSHDOWN_MODES:
        raise ValueError(
            f"unknown pushdown mode {mode!r}; expected one of {PUSHDOWN_MODES}"
        )
    return mode


class _SlotView:
    """A read-only Variable→value mapping over a register array, for
    :func:`~repro.datalog.terms.evaluate_expr`."""

    __slots__ = ("_slot_of", "_regs")

    def __init__(self, slot_of: Dict[Variable, int], regs: List[Any]) -> None:
        self._slot_of = slot_of
        self._regs = regs

    def __getitem__(self, var: Variable) -> Any:
        slot = self._slot_of.get(var)
        if slot is None:
            raise KeyError(var)
        value = self._regs[slot]
        if value is _UNSET:
            raise KeyError(var)
        return value

    def __contains__(self, var: object) -> bool:
        try:
            self[var]  # type: ignore[index]
        except KeyError:
            return False
        return True

    def get(self, var: Variable, default: Any = None) -> Any:
        try:
            return self[var]
        except KeyError:
            return default


# ---------------------------------------------------------------------------
# Compiled steps
# ---------------------------------------------------------------------------


class _AtomStep:
    """A positive, non-default atom compiled to an indexed join."""

    __slots__ = (
        "predicate",
        "positions",
        "value_parts",
        "writes",
        "dup_checks",
        "check_only",
        "mode",
    )

    def __init__(
        self,
        predicate: str,
        positions: Tuple[int, ...],
        value_parts: Tuple[Tuple[bool, Any], ...],
        writes: Tuple[Tuple[int, int], ...],
        dup_checks: Tuple[Tuple[int, int], ...],
        mode: str = "positive",
    ) -> None:
        self.predicate = predicate
        self.positions = positions  # bound argument positions (sorted)
        #: parallel to positions: (is_slot, slot-or-constant-value)
        self.value_parts = value_parts
        self.writes = writes  # (row position, destination slot)
        self.dup_checks = dup_checks  # (row position, earlier row position)
        self.check_only = not writes and not dup_checks
        self.mode = mode  # "positive" | "aggregate" (oracle routing)

    def prepare(self, ctx: EvalContext) -> Relation:
        return ctx.relation(self.predicate, mode=self.mode)

    def run(
        self, regs: List[Any], rel: Relation, ctx: EvalContext, out: List[List[Any]]
    ) -> None:
        if self.positions:
            key = tuple(
                regs[payload] if is_slot else payload
                for is_slot, payload in self.value_parts
            )
            rows: Sequence[Key] = rel.lookup(self.positions, key)
        else:
            rows = rel.rows_list()
        if self.check_only:
            if rows:
                out.append(regs)
            return
        writes = self.writes
        dups = self.dup_checks
        for row in rows:
            if dups:
                ok = True
                for pos, pos0 in dups:
                    if row[pos] != row[pos0]:
                        ok = False
                        break
                if not ok:
                    continue
            new = regs[:]
            for pos, slot in writes:
                new[slot] = row[pos]
            out.append(new)


class _DefaultAtomStep:
    """A default-value cost atom with its key bound: core-or-default read."""

    __slots__ = ("predicate", "key_parts", "cost_kind", "cost_payload", "mode")

    def __init__(
        self,
        predicate: str,
        key_parts: Tuple[Tuple[bool, Any], ...],
        cost_kind: str,  # "const" | "bound" | "free"
        cost_payload: Any,
        mode: str = "positive",
    ) -> None:
        self.predicate = predicate
        self.key_parts = key_parts
        self.cost_kind = cost_kind
        self.cost_payload = cost_payload
        self.mode = mode

    def prepare(self, ctx: EvalContext) -> Relation:
        return ctx.relation(self.predicate, mode=self.mode)

    def run(
        self, regs: List[Any], rel: Relation, ctx: EvalContext, out: List[List[Any]]
    ) -> None:
        key = tuple(
            regs[payload] if is_slot else payload
            for is_slot, payload in self.key_parts
        )
        value = rel.cost_of(key)
        assert value is not None  # default predicates always have a value
        kind = self.cost_kind
        if kind == "free":
            new = regs[:]
            new[self.cost_payload] = value
            out.append(new)
        elif kind == "bound":
            if regs[self.cost_payload] == value:
                out.append(regs)
        else:  # const
            if self.cost_payload == value:
                out.append(regs)


class _NegatedStep:
    """Ground negation: satisfied iff the ground atom is absent."""

    __slots__ = ("predicate", "arg_parts", "is_cost")

    def __init__(
        self,
        predicate: str,
        arg_parts: Tuple[Tuple[bool, Any], ...],
        is_cost: bool,
    ) -> None:
        self.predicate = predicate
        self.arg_parts = arg_parts
        self.is_cost = is_cost

    def prepare(self, ctx: EvalContext) -> Relation:
        return ctx.relation(self.predicate, mode="negated")

    def run(
        self, regs: List[Any], rel: Relation, ctx: EvalContext, out: List[List[Any]]
    ) -> None:
        values = tuple(
            regs[payload] if is_slot else payload
            for is_slot, payload in self.arg_parts
        )
        if self.is_cost:
            if rel.cost_of(values[:-1]) != values[-1]:
                out.append(regs)
        elif values not in rel.tuples:
            out.append(regs)


class _BuiltinStep:
    """``lhs op rhs``, either a filter (all bound) or a ``V = expr`` assign."""

    __slots__ = ("op", "lhs", "rhs", "slot_of", "assign_slot", "assign_expr")

    def __init__(
        self,
        sg: BuiltinSubgoal,
        slot_of: Dict[Variable, int],
        assign_slot: Optional[int],
        assign_expr: Any,
    ) -> None:
        self.op = sg.op
        self.lhs = sg.lhs
        self.rhs = sg.rhs
        self.slot_of = slot_of
        self.assign_slot = assign_slot  # destination slot, or None for filters
        self.assign_expr = assign_expr  # the bound side, when assigning

    def prepare(self, ctx: EvalContext) -> None:
        return None

    def run(
        self, regs: List[Any], _state: None, ctx: EvalContext, out: List[List[Any]]
    ) -> None:
        view = _SlotView(self.slot_of, regs)
        try:
            if self.assign_slot is not None:
                value = evaluate_expr(self.assign_expr, view)
                new = regs[:]
                new[self.assign_slot] = value
                out.append(new)
                return
            left = evaluate_expr(self.lhs, view)
            right = evaluate_expr(self.rhs, view)
        except ZeroDivisionError:
            return
        try:
            satisfied = _compare(self.op, left, right)
        except TypeError:
            satisfied = False  # incomparable values never satisfy a built-in
        if satisfied:
            out.append(regs)


class _AggregateStep:
    """An aggregate subgoal with its grouping/local split, conjunct order
    and aggregate function resolved at compile time (Definition 2.4).

    The interior conjunction is itself compiled: the conjuncts run as
    atom steps over a private register array (grouping variables copied
    in from the outer registers at entry), so per-group re-aggregation
    does no bindings-dict work at all."""

    __slots__ = (
        "function",
        "entry_copies",  # ((outer slot, inner slot), ...) bound grouping
        "inner_steps",
        "inner_nslots",
        "multiset_slot",  # inner slot of the multiset variable, or None
        "free_group_pairs",  # ((outer slot, inner slot), ...) =r grouping
        "restricted",
        "result_kind",  # "const" | "bound" | "free"
        "result_payload",
    )

    def __init__(
        self,
        function: Any,
        entry_copies: Tuple[Tuple[int, int], ...],
        inner_steps: Tuple[Any, ...],
        inner_nslots: int,
        multiset_slot: Optional[int],
        free_group_pairs: Tuple[Tuple[int, int], ...],
        restricted: bool,
        result_kind: str,
        result_payload: Any,
    ) -> None:
        self.function = function
        self.entry_copies = entry_copies
        self.inner_steps = inner_steps
        self.inner_nslots = inner_nslots
        self.multiset_slot = multiset_slot
        self.free_group_pairs = free_group_pairs
        self.restricted = restricted
        self.result_kind = result_kind
        self.result_payload = result_payload

    def prepare(self, ctx: EvalContext) -> None:
        return None

    def _detail(self) -> str:
        """The aggregate's name, for fault-seam matching."""
        fn = self.function
        return getattr(fn, "name", None) or type(fn).__name__

    def _project(self, rows: Sequence[List[Any]]) -> FrozenMultiset:
        """SQL projection onto the multiset variable, duplicates retained;
        implicit boolean aggregation counts each solution as 'true'."""
        mslot = self.multiset_slot
        if mslot is not None:
            return FrozenMultiset(r[mslot] for r in rows)
        return FrozenMultiset([1] * len(rows))

    def _emit(
        self,
        regs: List[Any],
        value: Any,
        group: Optional[Tuple[Any, ...]],
        out: List[List[Any]],
    ) -> None:
        kind = self.result_kind
        if kind == "bound":
            if regs[self.result_payload] != value:
                return
        elif kind == "const":
            if self.result_payload != value:
                return
        if group is None and kind != "free":
            out.append(regs)
            return
        new = regs[:]
        if group is not None:
            for (outer_slot, _), component in zip(self.free_group_pairs, group):
                new[outer_slot] = component
        if kind == "free":
            new[self.result_payload] = value
        out.append(new)

    def run(
        self, regs: List[Any], _state: None, ctx: EvalContext, out: List[List[Any]]
    ) -> None:
        inner: List[Any] = [_UNSET] * self.inner_nslots
        for outer_slot, inner_slot in self.entry_copies:
            inner[inner_slot] = regs[outer_slot]
        solutions: List[List[Any]] = [inner]
        for step in self.inner_steps:
            state = step.prepare(ctx)
            nxt: List[List[Any]] = []
            run = step.run
            for r in solutions:
                run(r, state, ctx, nxt)
            solutions = nxt
            if not solutions:
                break
        if self.free_group_pairs:
            # =r subgoal generating its grouping bindings: aggregate each
            # group of the inner solutions separately.
            groups: Dict[Tuple[Any, ...], List[List[Any]]] = {}
            for solution in solutions:
                group_key = tuple(
                    solution[inner_slot]
                    for _, inner_slot in self.free_group_pairs
                )
                groups.setdefault(group_key, []).append(solution)
            for group_key, group_rows in groups.items():
                if _faults._ACTIVE is not None:  # fault-injection seam
                    _faults.trip("aggregate_apply", self._detail())
                value = self.function(self._project(group_rows))
                self._emit(regs, value, group_key, out)
            return
        if self.restricted and not solutions:
            return
        if _faults._ACTIVE is not None:  # fault-injection seam
            _faults.trip("aggregate_apply", self._detail())
        try:
            value = self.function(self._project(solutions))
        except EmptyAggregateError:
            return
        self._emit(regs, value, None, out)


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


class RulePlan:
    """One rule compiled against a fixed pre-bound variable set."""

    __slots__ = (
        "rule",
        "mode",
        "order",
        "steps",
        "nslots",
        "slot_of",
        "seed_slots",
        "head_predicate",
        "head_parts",
    )

    def __init__(
        self,
        rule: Rule,
        mode: str,
        order: List[Subgoal],
        steps: List[Any],
        nslots: int,
        slot_of: Dict[Variable, int],
        head_parts: Tuple[Tuple[bool, Any], ...],
    ) -> None:
        self.rule = rule
        self.mode = mode
        self.order = order
        self.steps = steps
        self.nslots = nslots
        self.slot_of = slot_of
        self.head_predicate = rule.head.predicate
        self.head_parts = head_parts

    def execute(
        self, ctx: EvalContext, seed: Optional[Bindings] = None
    ) -> Iterator[Tuple[str, Key]]:
        """Enumerate ``(head predicate, ground argument tuple)`` pairs.

        One call is one *rule firing*: the ``rule_firing`` fault seam
        trips when enumeration starts.
        """
        if _faults._ACTIVE is not None:  # fault-injection seam
            _faults.trip("rule_firing", self.head_predicate)
        regs: List[Any] = [_UNSET] * self.nslots
        if seed:
            slot_of = self.slot_of
            for var, value in seed.items():
                slot = slot_of.get(var)
                if slot is not None:
                    regs[slot] = value
        current: List[List[Any]] = [regs]
        for step in self.steps:
            state = step.prepare(ctx)
            nxt: List[List[Any]] = []
            run = step.run
            for r in current:
                run(r, state, ctx, nxt)
            if not nxt:
                return
            current = nxt
        predicate = self.head_predicate
        head_parts = self.head_parts
        rule = self.rule
        for r in current:
            values = []
            for is_slot, payload in head_parts:
                if is_slot:
                    value = r[payload]
                    if value is _UNSET:
                        raise SafetyError(
                            f"head variable of {rule} unbound after body "
                            f"evaluation"
                        )
                    values.append(value)
                else:
                    values.append(payload)
            yield predicate, tuple(values)


def _parts_for(
    args: Sequence[Any],
    slot_of: Dict[Variable, int],
    positions: Sequence[int],
) -> Tuple[Tuple[bool, Any], ...]:
    """(is_slot, slot-or-value) per argument position."""
    parts = []
    for pos in positions:
        arg = args[pos]
        if isinstance(arg, Constant):
            parts.append((False, arg.value))
        else:
            parts.append((True, slot_of[arg]))
    return tuple(parts)


def _compile_positive_atom(
    atom: Atom,
    program: Program,
    slot_of: Dict[Variable, int],
    bound: set,
    mode: str = "positive",
) -> Any:
    """Compile a positive atom (a body subgoal or an aggregate-interior
    conjunct) into an :class:`_AtomStep` / :class:`_DefaultAtomStep`."""
    decl = program.decl(atom.predicate)
    if decl.has_default:
        cost_term = atom.args[-1]
        if isinstance(cost_term, Constant):
            kind, payload = "const", cost_term.value
        elif cost_term in bound:
            kind, payload = "bound", slot_of[cost_term]
        else:
            kind, payload = "free", slot_of[cost_term]
        return _DefaultAtomStep(
            atom.predicate,
            _parts_for(atom.args, slot_of, range(decl.key_arity)),
            kind,
            payload,
            mode,
        )
    bound_positions: List[int] = []
    writes: List[Tuple[int, int]] = []
    dup_checks: List[Tuple[int, int]] = []
    first_seen: Dict[Variable, int] = {}
    for pos, arg in enumerate(atom.args):
        if isinstance(arg, Constant) or arg in bound:
            bound_positions.append(pos)
        elif arg in first_seen:
            dup_checks.append((pos, first_seen[arg]))
        else:
            first_seen[arg] = pos
            writes.append((pos, slot_of[arg]))
    positions = tuple(bound_positions)
    return _AtomStep(
        atom.predicate,
        positions,
        _parts_for(atom.args, slot_of, positions),
        tuple(writes),
        tuple(dup_checks),
        mode,
    )


def _compile_atom(
    sg: AtomSubgoal,
    program: Program,
    slot_of: Dict[Variable, int],
    bound: set,
) -> Any:
    atom = sg.atom
    if sg.negated:
        return _NegatedStep(
            atom.predicate,
            _parts_for(atom.args, slot_of, range(len(atom.args))),
            program.decl(atom.predicate).is_cost_predicate,
        )
    return _compile_positive_atom(atom, program, slot_of, bound)


def _compile_builtin(
    sg: BuiltinSubgoal, slot_of: Dict[Variable, int], bound: set
) -> _BuiltinStep:
    assign_slot: Optional[int] = None
    assign_expr: Any = None
    if sg.op == "=":
        if isinstance(sg.lhs, Variable) and sg.lhs not in bound:
            assign_slot, assign_expr = slot_of[sg.lhs], sg.rhs
        elif isinstance(sg.rhs, Variable) and sg.rhs not in bound:
            assign_slot, assign_expr = slot_of[sg.rhs], sg.lhs
    return _BuiltinStep(sg, slot_of, assign_slot, assign_expr)


def _order_conjuncts(
    conjuncts: Sequence[Atom], program: Program, bound: FrozenSet[Variable]
) -> Tuple[Atom, ...]:
    """Static conjunct order for an aggregate interior: atoms whose
    default-value keys are bound go first (mirrors ``solve_conjunction``,
    hoisted out of the per-binding loop)."""
    remaining = list(conjuncts)
    ordered: List[Atom] = []
    known = set(bound)
    while remaining:
        progressed = False
        for idx, conjunct in enumerate(remaining):
            decl = program.decl(conjunct.predicate)
            if decl.has_default:
                key_vars = {
                    a
                    for a in conjunct.args[: decl.key_arity]
                    if isinstance(a, Variable)
                }
                if not key_vars <= known:
                    continue
            ordered.append(remaining.pop(idx))
            known |= conjunct.variable_set()
            progressed = True
            break
        if not progressed:
            raise SafetyError(
                f"cannot schedule aggregate conjuncts "
                f"{[str(c) for c in remaining]}"
            )
    return tuple(ordered)


def _compile_aggregate(
    sg: AggregateSubgoal,
    rule: Rule,
    program: Program,
    slot_of: Dict[Variable, int],
    bound: set,
) -> _AggregateStep:
    grouping = rule.grouping_variables(sg)
    bound_grouping = sorted(
        (v for v in grouping if v in bound), key=lambda v: v.name
    )
    free_grouping = sorted(
        (v for v in grouping if v not in bound), key=lambda v: v.name
    )
    if free_grouping and not sg.restricted:
        raise SafetyError(
            f"'='-form aggregate {sg} evaluated with unbound grouping "
            f"variables "
            f"{', '.join(v.name for v in free_grouping)} "
            f"(range restriction violated)"
        )
    # Private register space for the interior: grouping variables first
    # (copied from the outer registers at entry when bound), then every
    # conjunct variable — including the multiset variable, which is
    # deliberately *not* copied in even if bound outside (the projection
    # retains duplicates over the full solution set, Definition 2.4).
    inner_slot_of: Dict[Variable, int] = {}
    for v in bound_grouping:
        inner_slot_of.setdefault(v, len(inner_slot_of))
    for conjunct in sg.conjuncts:
        for v in conjunct.variables():
            inner_slot_of.setdefault(v, len(inner_slot_of))
    entry_copies = tuple(
        (slot_of[v], inner_slot_of[v]) for v in bound_grouping
    )
    inner_bound: set = set(bound_grouping)
    inner_steps: List[Any] = []
    for conjunct in _order_conjuncts(
        sg.conjuncts, program, frozenset(inner_bound)
    ):
        inner_steps.append(
            _compile_positive_atom(
                conjunct, program, inner_slot_of, inner_bound, "aggregate"
            )
        )
        inner_bound |= conjunct.variable_set()
    multiset_slot = (
        inner_slot_of[sg.multiset_var] if sg.multiset_var is not None else None
    )
    free_group_pairs = tuple(
        (slot_of[v], inner_slot_of[v]) for v in free_grouping
    )
    result = sg.result
    if isinstance(result, Constant):
        result_kind, result_payload = "const", result.value
    elif result in bound:
        result_kind, result_payload = "bound", slot_of[result]
    else:
        result_kind, result_payload = "free", slot_of[result]
    return _AggregateStep(
        program.aggregate_function(sg.function),
        entry_copies,
        tuple(inner_steps),
        len(inner_slot_of),
        multiset_slot,
        free_group_pairs,
        sg.restricted,
        result_kind,
        result_payload,
    )


# ---------------------------------------------------------------------------
# Selectivity-aware ordering
# ---------------------------------------------------------------------------


def _estimate_lookup(
    sg: AtomSubgoal, program: Program, ctx: EvalContext, bound: set
) -> float:
    """Estimated row count of the indexed lookup for a positive atom.

    Uses the live index's average bucket size when one exists; otherwise
    assumes each bound column shrinks the relation by its ``arity``-th
    root (a dimensional-uniformity guess — crude, but it only has to rank
    ready subgoals, not predict run times).
    """
    atom = sg.atom
    rel = ctx.relation(atom.predicate)
    n = len(rel)
    if n == 0:
        return 0.0
    positions = tuple(
        pos
        for pos, arg in enumerate(atom.args)
        if isinstance(arg, Constant) or arg in bound
    )
    if not positions:
        return float(n)
    if len(positions) == len(atom.args):
        return 0.5  # pure existence check
    index = rel._indexes.get(positions)
    if index:
        return n / len(index)
    return float(n) ** (1.0 - len(positions) / len(atom.args))


def plan_order(
    rule: Rule,
    program: Program,
    pre_bound: FrozenSet[Variable],
    *,
    mode: str = "smart",
    ctx: Optional[EvalContext] = None,
) -> List[Subgoal]:
    """A body evaluation order.

    ``mode="off"`` (or no context to estimate against) delegates to the
    legacy :func:`~repro.engine.grounding.schedule`.  ``mode="smart"``
    keeps the legacy priority classes for built-ins, default atoms,
    negation and aggregates, but ranks ready positive atoms by the
    estimated cardinality of their indexed lookup, so the cheapest join
    runs first.
    """
    _check_mode(mode)
    if mode == "off" or ctx is None:
        return schedule(rule, program, pre_bound)
    remaining = list(rule.body)
    ordered: List[Subgoal] = []
    bound: set = set(pre_bound)
    while remaining:
        best_index: Optional[int] = None
        best_key: Tuple[int, float] = (99, float("inf"))
        best_newly: set = set()
        for idx, sg in enumerate(remaining):
            ready = subgoal_readiness(sg, rule, program, bound)
            if ready is None:
                continue
            priority, newly = ready
            if (
                isinstance(sg, AtomSubgoal)
                and not sg.negated
                and not program.decl(sg.atom.predicate).has_default
            ):
                key = (2, _estimate_lookup(sg, program, ctx, bound))
            else:
                key = (priority, 0.0)
            if key < best_key:
                best_key, best_index, best_newly = key, idx, newly
        if best_index is None:
            raise SafetyError(
                f"cannot schedule body of rule {rule}: remaining subgoals "
                f"{[str(s) for s in remaining]} with "
                f"bound={sorted(v.name for v in bound)}"
            )
        ordered.append(remaining.pop(best_index))
        bound |= best_newly
    return ordered


# ---------------------------------------------------------------------------
# Compilation & cache
# ---------------------------------------------------------------------------


def compile_rule(
    rule: Rule,
    program: Program,
    pre_bound: FrozenSet[Variable] = frozenset(),
    *,
    mode: str = "smart",
    ctx: Optional[EvalContext] = None,
) -> RulePlan:
    """Compile ``rule`` against the given pre-bound variable set."""
    order = plan_order(rule, program, pre_bound, mode=mode, ctx=ctx)
    slot_of: Dict[Variable, int] = {}
    for var in rule.head.variables():
        slot_of.setdefault(var, len(slot_of))
    for sg in rule.body:
        for var in sorted(sg.variable_set(), key=lambda v: v.name):
            slot_of.setdefault(var, len(slot_of))
    bound: set = set(pre_bound)
    steps: List[Any] = []
    for sg in order:
        if isinstance(sg, AtomSubgoal):
            steps.append(_compile_atom(sg, program, slot_of, bound))
        elif isinstance(sg, BuiltinSubgoal):
            steps.append(_compile_builtin(sg, slot_of, bound))
        elif isinstance(sg, AggregateSubgoal):
            steps.append(_compile_aggregate(sg, rule, program, slot_of, bound))
        else:  # pragma: no cover - exhaustive
            raise TypeError(f"unknown subgoal type {type(sg).__name__}")
        ready = subgoal_readiness(sg, rule, program, bound)
        if ready is not None:
            bound |= ready[1]
    head_parts = []
    for arg in rule.head.args:
        if isinstance(arg, Constant):
            head_parts.append((False, arg.value))
        else:
            head_parts.append((True, slot_of[arg]))
    return RulePlan(
        rule,
        mode,
        order,
        steps,
        len(slot_of),
        slot_of,
        tuple(head_parts),
    )


def get_plan(
    program: Program,
    rule: Rule,
    pre_bound: FrozenSet[Variable] = frozenset(),
    *,
    mode: str = "smart",
    ctx: Optional[EvalContext] = None,
    probes: int = 1,
) -> RulePlan:
    """The cached plan for ``(rule, pre-bound variables, mode)``.

    Plans live on the program object; smart-mode selectivity estimates
    are taken from the relation sizes at first compilation (typically the
    initial ``T_P`` round, where the extensional relations dominate) and
    the resulting order is reused for the program's lifetime.

    The delta-driven evaluators look a plan up once per seed shape per
    round and fire it ``probes`` times; when the context carries an
    enabled tracer (:mod:`repro.obs`) the lookup is counted as that many
    plan-cache probes — a miss (compilation) and ``probes - 1`` hits, or
    ``probes`` hits — exactly what ``probes`` separate lookups count.
    """
    cache: Dict[Tuple[int, FrozenSet[str], str], RulePlan]
    cache = program.memo("plans", dict)
    cache_key = (
        id(rule),
        frozenset(v.name for v in pre_bound),
        _check_mode(mode),
    )
    plan = cache.get(cache_key)
    if ctx is not None and ctx.tracer.enabled:
        if plan is None:
            ctx.tracer.count_plans(probes - 1, 1)
        else:
            ctx.tracer.count_plans(probes, 0)
    if plan is None:
        plan = compile_rule(rule, program, pre_bound, mode=mode, ctx=ctx)
        cache[cache_key] = plan
    return plan


def clear_plan_cache(program: Program) -> None:
    """Drop every entry of the program's memo (:meth:`Program.memo`):
    rule plans, the pushdown rewrite and every cached analysis pass
    (tests / planners that change statistics)."""
    program._memo.clear()


def get_pushdown(program: Program, classification: Any = None) -> Any:
    """The cached aggregate-pushdown rewrite of ``program``.

    Like rule plans, the rewrite is computed once per program object and
    memoized on it, over the program's memoized premappability and
    classification passes (:mod:`repro.analysis.premap`), so repeated
    solves of the same database do not pay for it again.  Returns a
    :class:`~repro.analysis.premap.PushdownResult`; callers check
    ``.changed`` and evaluate ``.program``.

    ``classification`` is ignored — the program's own memoized
    classification is the only one the rewrite can use — and is kept
    only so existing two-argument callers keep working.
    """
    return program.memo("pushdown", lambda: _compute_pushdown(program))


def _compute_pushdown(program: Program) -> Any:
    # Lazy import: analysis.premap imports the classify/fd passes,
    # which reach back into the engine (greedy_applicable).
    from repro.analysis.premap import apply_pushdown

    return apply_pushdown(program)


def run_rule(
    rule: Rule,
    ctx: EvalContext,
    *,
    seed: Optional[Bindings] = None,
    mode: str = "smart",
) -> Iterator[Tuple[str, Key]]:
    """Enumerate the ground head atoms ``rule`` derives under ``ctx``.

    ``seed`` pre-binds variables (semi-naive delta seeds); the plan is
    compiled once per distinct seed *shape* and cached on the program.
    The enumeration is lazy; telemetry is the calling evaluator's job
    (it accounts firings per round, docs/OBSERVABILITY.md §6).
    """
    pre_bound = frozenset(seed) if seed else frozenset()
    plan = get_plan(ctx.program, rule, pre_bound, mode=mode, ctx=ctx)
    return plan.execute(ctx, seed)
