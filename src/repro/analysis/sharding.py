"""Shard-safety analysis: when is partitioned evaluation sound?

The paper's central result — an admissible component has a *unique*
minimal model reached order-insensitively (Lemma 4.1, §6.3) — is exactly
the property that makes evaluation partitionable.  If every atom an SCC
derives can be assigned to a shard by hashing one **key column**, and no
rule ever joins or aggregates across two different key values, then each
shard can run the component's fixpoint on its partition alone and the
union of the shard models is the component's model:

* derivations are key-local, so no shard ever *misses* a body row it
  needs (completeness);
* the component's ``T_P`` is monotone, so no shard ever derives an atom
  the monolithic fixpoint would not (soundness — junk cannot appear just
  because the shard sees a subset of other keys);
* per-group aggregate multisets are entirely within one shard, so the
  two-phase merge algebra (:mod:`repro.aggregates.algebra`) is not even
  needed *across* shards for the group value — but it is what licenses
  the barrier merge of shard interpretations into one
  (:meth:`Relation` cost joins are exactly ``merge`` on lattice states).

``analyze_sharding`` proves this per SCC, composing the PR-2 classifier
verdict (certified MONOTONIC/STRATIFIED), the PR-2 lattice typing (via
the classifier), the PR-6 functional-dependency discipline (cost columns
are excluded from key candidacy because their values *move* during the
fixpoint), and a per-aggregate empirical merge-algebra proof.  The
verdict is one of:

* ``SHARDABLE(key)`` — a key assignment ``predicate → column`` was found
  such that every recursive rule is key-local; carries the executable
  :class:`ShardKey` plan (key columns + seed-rule split) that
  ``plan="sharded"`` consumes.
* ``SHARDABLE_AFTER_REWRITE`` — key-local and merge-safe, except some
  CDB aggregate uses the ``=`` form.  Under sharding the ``=`` form is
  unsound: grouping variables bound by replicated (unpartitioned) LDB
  atoms would make *every* shard derive ``F(∅)`` rows for groups whose
  interior lives in other shards — the cost values join away at the
  barrier, but the junk atoms' existence can inflate anything downstream
  that counts them.  Rewriting ``=`` to ``=r`` (MAD902 suggests it)
  makes the component plain SHARDABLE; the executor never applies the
  rewrite itself, it falls back.
* ``BLOCKED(witness chain)`` — some condition failed; the first failing
  witness names the rule/atom that breaks key-locality, the classifier
  reason, the default-value predicate, or the merge-algebra
  counterexample.

Non-recursive components are BLOCKED ("not recursive"): they run once,
so there is no fixpoint to parallelize — the executor simply evaluates
them sequentially, which is not a fallback but the plan.

Surfaced as MAD901/902/903 info lints in ``repro lint``, as the
``repro shard-plan`` CLI report, as ``AnalysisReport.sharding`` on
``analyze()``, and consumed by ``plan="sharded"`` in
:mod:`repro.engine.sharded`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.aggregates.algebra import MergeAlgebraVerdict, verify_merge_algebra
from repro.analysis.classify import (
    ComponentClass,
    ComponentClassification,
    classify_program,
)
from repro.analysis.dependencies import Component
from repro.datalog.atoms import AggregateSubgoal, AtomSubgoal
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Variable

#: Verdict statuses, in decreasing order of good news.
SHARDABLE = "shardable"
SHARDABLE_AFTER_REWRITE = "shardable-after-rewrite"
BLOCKED = "blocked"

#: Key-assignment search budget; components whose position product exceeds
#: this are BLOCKED with an explicit witness rather than silently skipped.
MAX_KEY_ASSIGNMENTS = 4096


@dataclass(frozen=True)
class ShardWitness:
    """One checked shard-safety condition and its outcome."""

    condition: str
    detail: str
    ok: bool

    def __str__(self) -> str:
        mark = "✓" if self.ok else "✗"
        return f"{mark} {self.condition}: {self.detail}"


@dataclass(frozen=True)
class ShardKey:
    """The proven partitioning plan for one SHARDABLE component.

    ``positions`` maps every CDB predicate to the column whose value
    assigns an atom to a shard.  ``seed_rules``/``recursive_rules`` are
    indices into ``component.rules``: seed rules reference no CDB
    predicate, are evaluated once in the parent, and their derivations
    are hash-partitioned; recursive rules run inside every shard.
    """

    positions: Dict[str, int]
    seed_rules: Tuple[int, ...]
    recursive_rules: Tuple[int, ...]

    def describe(self) -> str:
        cols = ", ".join(
            f"{p}[{i}]" for p, i in sorted(self.positions.items())
        )
        return f"key columns {cols}"


@dataclass
class ComponentShardability:
    """The analysis outcome for one SCC."""

    component: Component
    status: str
    key: Optional[ShardKey] = None
    witnesses: Tuple[ShardWitness, ...] = ()
    #: Merge-algebra verdicts for every CDB aggregate function probed.
    merge_verdicts: Tuple[MergeAlgebraVerdict, ...] = ()
    #: Human-readable rewrite suggestions (SHARDABLE_AFTER_REWRITE only).
    rewrites: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status == SHARDABLE

    @property
    def witness(self) -> str:
        """The first failing condition's detail (empty when shardable)."""
        for w in self.witnesses:
            if not w.ok:
                return w.detail
        return ""

    def __str__(self) -> str:
        name = str(self.component)
        if self.status == SHARDABLE:
            assert self.key is not None
            return f"{name}: SHARDABLE — {self.key.describe()}"
        if self.status == SHARDABLE_AFTER_REWRITE:
            fixes = "; ".join(self.rewrites)
            return f"{name}: SHARDABLE after rewrite — {fixes}"
        return f"{name}: BLOCKED — {self.witness}"

    def render(self) -> str:
        """Multi-line report with the full witness chain."""
        lines = [str(self)]
        for w in self.witnesses:
            lines.append(f"  {w}")
        for v in self.merge_verdicts:
            lines.append(f"  {'✓' if v.holds else '✗'} {v}")
        return "\n".join(lines)


@dataclass
class ShardingReport:
    """Per-component shard-safety verdicts for a whole program."""

    program: Program
    components: List[ComponentShardability] = field(default_factory=list)

    @property
    def shardable(self) -> List[ComponentShardability]:
        return [c for c in self.components if c.ok]

    def for_component(
        self, component: Component
    ) -> Optional[ComponentShardability]:
        for c in self.components:
            if c.component.cdb == component.cdb:
                return c
        return None

    def __str__(self) -> str:
        if not self.components:
            return "no components"
        return "\n".join(str(c) for c in self.components)

    def render(self) -> str:
        return "\n".join(c.render() for c in self.components)


# ---------------------------------------------------------------------------
# Key-assignment search
# ---------------------------------------------------------------------------


def is_seed_rule(rule: Rule, component: Component) -> bool:
    """True iff the rule reads no CDB predicate (evaluated in the parent)."""
    return all(p not in component.cdb for p in rule.body_predicates())


def _candidate_positions(program: Program, predicate: str) -> List[int]:
    """Columns of ``predicate`` eligible as the shard key.

    The cost column of a cost predicate is excluded: its value is a
    lattice state that *moves* during the fixpoint (Definition 2.7's FD
    is key → cost, so the key columns are exactly the stable identity).
    """
    return list(range(program.decl(predicate).key_arity))


def _rule_key_violation(
    rule: Rule,
    component: Component,
    positions: Dict[str, int],
) -> Optional[str]:
    """Why ``rule`` is not key-local under ``positions`` (None if it is).

    A recursive rule is key-local when one variable — the head's key
    column — is also the key column of every CDB atom the body reads,
    including every CDB conjunct inside aggregate subgoals, *and* for
    aggregates that variable is a grouping variable (so no group ever
    spans two key values).
    """
    head_pos = positions[rule.head.predicate]
    key_var = rule.head.args[head_pos]
    if not isinstance(key_var, Variable):
        return (
            f"rule `{rule}`: head key column {head_pos} is the constant "
            f"{key_var}, not a variable"
        )
    for sg in rule.body:
        if isinstance(sg, AtomSubgoal):
            if sg.atom.predicate not in component.cdb:
                continue
            if sg.negated:
                return f"rule `{rule}`: negated recursive atom {sg.atom}"
            arg = sg.atom.args[positions[sg.atom.predicate]]
            if not isinstance(arg, Variable) or arg != key_var:
                return (
                    f"rule `{rule}`: recursive atom {sg.atom} carries key "
                    f"column {positions[sg.atom.predicate]} = {arg}, which "
                    f"is not the head key variable {key_var}"
                )
        elif isinstance(sg, AggregateSubgoal):
            grouping = rule.grouping_variables(sg)
            for conjunct in sg.conjuncts:
                if conjunct.predicate not in component.cdb:
                    continue
                arg = conjunct.args[positions[conjunct.predicate]]
                if not isinstance(arg, Variable) or arg != key_var:
                    return (
                        f"rule `{rule}`: aggregate conjunct {conjunct} "
                        f"carries key column "
                        f"{positions[conjunct.predicate]} = {arg}, which is "
                        f"not the head key variable {key_var}"
                    )
                if arg not in grouping:
                    return (
                        f"rule `{rule}`: key variable {key_var} is local to "
                        f"the aggregate {sg} — its groups span shards"
                    )
    return None


def find_shard_key(
    component: Component, program: Program
) -> Tuple[Optional[ShardKey], str]:
    """Search for a key assignment making every recursive rule key-local.

    Returns ``(key, "")`` on success or ``(None, witness_detail)`` naming
    the violation of the *best* assignment tried (the one that got
    furthest through the rules, so the witness points at the real
    obstruction rather than an arbitrary one).
    """
    preds = sorted(component.cdb)
    candidates = [_candidate_positions(program, p) for p in preds]
    for pred, cols in zip(preds, candidates):
        if not cols:
            return None, (
                f"predicate {pred} has no key column to partition on"
            )

    total = 1
    for cols in candidates:
        total *= len(cols)
    if total > MAX_KEY_ASSIGNMENTS:
        return None, (
            f"key search space has {total} assignments "
            f"(> {MAX_KEY_ASSIGNMENTS}); refusing to search"
        )

    seed_idx = tuple(
        i for i, r in enumerate(component.rules) if is_seed_rule(r, component)
    )
    recursive_idx = tuple(
        i for i in range(len(component.rules)) if i not in seed_idx
    )

    best_violation = ""
    best_depth = -1
    for combo in itertools.product(*candidates):
        positions = dict(zip(preds, combo))
        violation: Optional[str] = None
        depth = 0
        for i in recursive_idx:
            violation = _rule_key_violation(
                component.rules[i], component, positions
            )
            if violation is not None:
                break
            depth += 1
        if violation is None:
            return (
                ShardKey(
                    positions=positions,
                    seed_rules=seed_idx,
                    recursive_rules=recursive_idx,
                ),
                "",
            )
        if depth > best_depth:
            best_depth = depth
            best_violation = violation
    return None, best_violation


# ---------------------------------------------------------------------------
# Per-component analysis
# ---------------------------------------------------------------------------


def _cdb_aggregates(
    component: Component,
) -> List[Tuple[Rule, AggregateSubgoal]]:
    """Every aggregate occurrence whose conjuncts touch the CDB."""
    out: List[Tuple[Rule, AggregateSubgoal]] = []
    for rule in component.rules:
        for sg in rule.aggregate_subgoals():
            if any(c.predicate in component.cdb for c in sg.conjuncts):
                out.append((rule, sg))
    return out


def analyze_component_sharding(
    classification: ComponentClassification,
    program: Program,
) -> ComponentShardability:
    """Prove or refute shard-safety for one classified SCC."""
    component = classification.component
    witnesses: List[ShardWitness] = []
    merge_verdicts: List[MergeAlgebraVerdict] = []
    rewrites: List[str] = []
    blocked = False

    # 1. Recursion: a non-recursive component runs once; nothing to shard.
    recursive = bool(component.internal_kinds)
    witnesses.append(
        ShardWitness(
            "recursion",
            "component is recursive"
            if recursive
            else "not recursive — evaluated once, sequentially",
            recursive,
        )
    )
    blocked = blocked or not recursive

    # 2. Classification: partition soundness leans on the unique minimal
    #    model (monotone T_P); pseudo-monotonic components additionally
    #    read default-value predicates whose key universe is global.
    cls_ok = classification.certified and classification.verdict in (
        ComponentClass.MONOTONIC,
        ComponentClass.STRATIFIED,
    )
    detail = f"classified {classification.verdict.value}" + (
        " (certified)" if classification.certified else " (not certified)"
    )
    if classification.reasons and not cls_ok:
        detail += " — " + "; ".join(classification.reasons)
    witnesses.append(ShardWitness("classification", detail, cls_ok))
    blocked = blocked or not cls_ok

    # 3. Defaults: a default-value CDB predicate materializes a row for
    #    *every* key in its column universe — each shard would fabricate
    #    rows for keys it does not own.
    defaulted = sorted(
        p for p in component.cdb if program.decl(p).has_default
    )
    witnesses.append(
        ShardWitness(
            "defaults",
            "no default-value recursive predicate"
            if not defaulted
            else "default-value recursive predicate(s): "
            + ", ".join(defaulted),
            not defaulted,
        )
    )
    blocked = blocked or bool(defaulted)

    # 4. Merge algebra: every CDB aggregate's two-phase state must form a
    #    commutative monoid compatible with process, or the barrier merge
    #    of shard interpretations is not the monolithic aggregate.
    needs_rewrite = False
    if not blocked:
        occurrences = _cdb_aggregates(component)
        fn_names = sorted({sg.function for _, sg in occurrences})
        algebra_failures: List[str] = []
        for name in fn_names:
            function = program.aggregate_function(name)
            for verdict in verify_merge_algebra(function):
                merge_verdicts.append(verdict)
                if not verdict.holds:
                    algebra_failures.append(str(verdict))
        witnesses.append(
            ShardWitness(
                "merge-algebra",
                (
                    f"state merge of {', '.join(fn_names)} is "
                    "associative/commutative with identity"
                    if fn_names
                    else "no recursive aggregates"
                )
                if not algebra_failures
                else "; ".join(algebra_failures),
                not algebra_failures,
            )
        )
        blocked = blocked or bool(algebra_failures)

        # 5. Restricted form: the `=` form derives F(∅) for every group a
        #    shard can name but does not own (see module docstring).
        unrestricted = [
            (rule, sg) for rule, sg in occurrences if not sg.restricted
        ]
        witnesses.append(
            ShardWitness(
                "restricted-form",
                "every recursive aggregate uses the =r form"
                if not unrestricted
                else "`=` form over recursive predicate(s) would derive "
                "F(∅) rows for groups owned by other shards: "
                + "; ".join(f"`{sg}`" for _, sg in unrestricted),
                not unrestricted,
            )
        )
        if unrestricted:
            needs_rewrite = True
            for _, sg in unrestricted:
                rewrites.append(
                    f"rewrite `{sg}` to use `=r` "
                    f"(drops rows for empty groups — review)"
                )

    # 6. Grouping key: the structural heart of the proof.
    key: Optional[ShardKey] = None
    if not blocked:
        key, violation = find_shard_key(component, program)
        witnesses.append(
            ShardWitness(
                "grouping-key",
                key.describe() if key is not None else violation,
                key is not None,
            )
        )
        blocked = blocked or key is None

    if blocked:
        status = BLOCKED
        key = None
    elif needs_rewrite:
        status = SHARDABLE_AFTER_REWRITE
        key = None
    else:
        status = SHARDABLE

    return ComponentShardability(
        component=component,
        status=status,
        key=key,
        witnesses=tuple(witnesses),
        merge_verdicts=tuple(merge_verdicts),
        rewrites=tuple(rewrites),
    )


def analyze_sharding(program: Program) -> ShardingReport:
    """Prove or refute shard-safety for every component of ``program``
    (memoized on the program; reads its memoized classification)."""
    return program.memo("sharding", lambda: _analyze_sharding(program))


def _analyze_sharding(program: Program) -> ShardingReport:
    report = ShardingReport(program)
    for cls in classify_program(program).components:
        report.components.append(analyze_component_sharding(cls, program))
    return report
