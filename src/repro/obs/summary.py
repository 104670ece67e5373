"""Structured telemetry summaries and their human-readable renderings.

:func:`summarize` folds a traced solve's event stream
(:mod:`repro.obs.events`) into a :class:`TelemetrySummary` — the object
attached to :attr:`repro.engine.solver.SolveResult.telemetry` — with
per-rule, per-SCC and per-iteration tables.  The renderers behind
``repro solve --stats`` (:meth:`TelemetrySummary.render_stats`) and
``repro profile`` (:meth:`TelemetrySummary.render_profile`) live here
too, as does the convergence :func:`sparkline`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.events import SCHEMA_VERSION
from repro.obs.metrics import quantiles as _metric_quantiles

_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float]) -> str:
    """A unicode block sparkline of ``values`` (empty input → '')."""
    if not values:
        return ""
    top = max(values)
    if top <= 0:
        return _SPARK_BLOCKS[0] * len(values)
    out = []
    for value in values:
        rank = int(round((len(_SPARK_BLOCKS) - 1) * max(value, 0) / top))
        out.append(_SPARK_BLOCKS[rank])
    return "".join(out)


@dataclass
class PhaseStat:
    """One pipeline stage span (parse / analyze / classify / ...)."""

    phase: str
    wall_s: float


@dataclass
class SccStat:
    """One strongly connected component's evaluation record."""

    index: int
    predicates: Tuple[str, ...]
    method: str
    verdict: Optional[str] = None
    reasons: Tuple[str, ...] = ()
    rules: int = 0
    iterations: int = 0
    atoms: int = 0
    wall_s: float = 0.0

    @property
    def label(self) -> str:
        return "{" + ", ".join(self.predicates) + "}"


@dataclass
class IterationStat:
    """One fixpoint round (or greedy settle) of one SCC."""

    scc: int
    iteration: int
    delta_atoms: int
    new_atoms: int
    changed_atoms: int
    total_atoms: int
    wall_s: float


@dataclass
class RuleStat:
    """Cumulative compiled-executor statistics for one rule."""

    rule: str
    rule_index: int
    head: str
    scc: Optional[int]
    calls: int
    derived: int
    wall_s: float


@dataclass
class WorkerStat:
    """One shard worker's relayed telemetry (``worker_telemetry``, v5)."""

    scc: int
    shard: int
    iterations: int
    atoms: int
    rules: int
    metrics: Dict[str, Any] = field(default_factory=dict)


@dataclass
class TelemetrySummary:
    """The structured digest of one traced solve."""

    version: int = SCHEMA_VERSION
    program: Optional[str] = None
    phases: List[PhaseStat] = field(default_factory=list)
    sccs: List[SccStat] = field(default_factory=list)
    iterations: List[IterationStat] = field(default_factory=list)
    rules: List[RuleStat] = field(default_factory=list)
    counters: Dict[str, Dict[str, int]] = field(default_factory=dict)
    solve: Dict[str, Any] = field(default_factory=dict)
    #: The solve's merged metrics registry snapshot (``metrics_snapshot``,
    #: obs v5) — counters/gauges plus histogram states whose quantiles
    #: :meth:`metric_quantiles` recomputes.  Covers worker-side work for
    #: sharded solves (the parent merges worker registries pre-snapshot).
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: Per-shard worker telemetry relays (``worker_telemetry``, obs v5).
    workers: List[WorkerStat] = field(default_factory=list)

    # -- views ---------------------------------------------------------------

    def iterations_for(self, scc: int) -> List[IterationStat]:
        return [row for row in self.iterations if row.scc == scc]

    def hot_rules(self, top: Optional[int] = None) -> List[RuleStat]:
        """Rules ranked by cumulative executor wall time, hottest first."""
        ranked = sorted(
            self.rules, key=lambda r: (-r.wall_s, -r.derived, r.rule_index)
        )
        return ranked[:top] if top is not None else ranked

    def hot_predicates(self) -> List[Tuple[str, int, int, float]]:
        """``(head predicate, calls, derived, wall_s)`` ranked by time."""
        grouped: Dict[str, List[float]] = {}
        for row in self.rules:
            entry = grouped.setdefault(row.head, [0, 0, 0.0])
            entry[0] += row.calls
            entry[1] += row.derived
            entry[2] += row.wall_s
        ranked = sorted(grouped.items(), key=lambda kv: -kv[1][2])
        return [
            (head, int(calls), int(derived), wall)
            for head, (calls, derived, wall) in ranked
        ]

    def convergence(self, scc: int) -> List[int]:
        """Delta sizes per round of one SCC — the sparkline data."""
        return [row.delta_atoms for row in self.iterations_for(scc)]

    def metric_quantiles(
        self, name: str
    ) -> Optional[Dict[str, Optional[float]]]:
        """p50/p95/p99 of one histogram/timer metric (None if absent)."""
        payload = self.metrics.get(name)
        if not isinstance(payload, dict) or payload.get("kind") not in (
            "histogram",
            "timer",
        ):
            return None
        return _metric_quantiles(payload)

    def metric_value(self, name: str) -> Optional[float]:
        """A counter/gauge metric's value (None if absent)."""
        payload = self.metrics.get(name)
        if isinstance(payload, dict) and payload.get("kind") in (
            "counter",
            "gauge",
        ):
            value = payload.get("value")
            return None if value is None else float(value)
        return None

    def workers_for(self, scc: int) -> List[WorkerStat]:
        return [row for row in self.workers if row.scc == scc]

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The full summary as plain JSON-serialisable data."""
        out = self.to_report_dict()
        out["iterations"] = [vars(row).copy() for row in self.iterations]
        return out

    def to_report_dict(self) -> Dict[str, Any]:
        """The compact form stored in ``repro bench`` reports (no
        per-iteration rows; SCC rows keep the iteration counts)."""
        return {
            "version": self.version,
            "program": self.program,
            "phases": [vars(row).copy() for row in self.phases],
            "sccs": [
                {
                    "index": row.index,
                    "predicates": list(row.predicates),
                    "method": row.method,
                    "verdict": row.verdict,
                    "reasons": list(row.reasons),
                    "rules": row.rules,
                    "iterations": row.iterations,
                    "atoms": row.atoms,
                    "wall_s": row.wall_s,
                }
                for row in self.sccs
            ],
            "rules": [vars(row).copy() for row in self.rules],
            "counters": {k: dict(v) for k, v in self.counters.items()},
            "solve": dict(self.solve),
            "metrics": dict(self.metrics),
            "workers": [
                {
                    "scc": row.scc,
                    "shard": row.shard,
                    "iterations": row.iterations,
                    "atoms": row.atoms,
                    "rules": row.rules,
                    "metrics": dict(row.metrics),
                }
                for row in self.workers
            ],
        }

    # -- rendering ------------------------------------------------------------

    def render_stats(self) -> str:
        """The compact stderr table behind ``repro solve --stats``."""
        lines: List[str] = []
        if self.phases:
            rendered = ", ".join(
                f"{p.phase} {p.wall_s:.4f}s" for p in self.phases
            )
            lines.append(f"phases: {rendered}")
        if self.sccs:
            lines.append("scc  predicates                     method     iters  atoms  wall_s")
            for row in self.sccs:
                verdict = f"  [{row.verdict}]" if row.verdict else ""
                lines.append(
                    f"{row.index:<4d} {row.label:<30s} {row.method:<10s} "
                    f"{row.iterations:<6d} {row.atoms:<6d} {row.wall_s:.4f}"
                    f"{verdict}"
                )
        for row in self.hot_rules(5):
            lines.append(
                f"rule {row.rule_index:<3d} calls={row.calls:<5d} "
                f"derived={row.derived:<6d} wall={row.wall_s:.4f}s  {row.rule}"
            )
        lines.extend(self._counter_lines())
        lines.extend(self._worker_lines())
        lines.extend(self._metric_lines())
        if self.solve:
            lines.append(
                f"solve: {self.solve.get('iterations', 0)} iterations, "
                f"{self.solve.get('atoms', 0)} atoms, "
                f"{self.solve.get('wall_s', 0.0):.4f}s"
            )
        return "\n".join(lines)

    def render_profile(self, top: int = 10) -> str:
        """The ranked hot-rule / hot-predicate report of ``repro profile``."""
        lines: List[str] = []
        title = self.program or "solve"
        lines.append(f"== profile: {title} ==")
        if self.phases:
            rendered = ", ".join(
                f"{p.phase} {p.wall_s:.4f}s" for p in self.phases
            )
            lines.append(f"phases: {rendered}")
        lines.append("")
        lines.append(f"hot rules (top {top} by cumulative executor time):")
        lines.append("  rank   wall_s  calls  derived  rule")
        for rank, row in enumerate(self.hot_rules(top), start=1):
            lines.append(
                f"  {rank:<4d} {row.wall_s:8.4f} {row.calls:6d} "
                f"{row.derived:8d}  {row.rule}"
            )
        if not self.rules:
            lines.append("  (no rules executed)")
        lines.append("")
        lines.append("hot predicates:")
        for head, calls, derived, wall in self.hot_predicates():
            lines.append(
                f"  {head:<24s} wall={wall:8.4f}s calls={calls:<6d} "
                f"derived={derived}"
            )
        lines.append("")
        lines.append("convergence (delta atoms per fixpoint round):")
        for row in self.sccs:
            deltas = self.convergence(row.index)
            spark = sparkline([float(d) for d in deltas])
            verdict = f" [{row.verdict}]" if row.verdict else ""
            reason = f" — {'; '.join(row.reasons)}" if row.reasons else ""
            lines.append(
                f"  scc {row.index} {row.label}: {row.method}"
                f"{verdict}{reason}"
            )
            lines.append(
                f"    {row.iterations} rounds, {row.atoms} atoms, "
                f"{row.wall_s:.4f}s  {spark}"
            )
        lines.extend(self._counter_lines())
        lines.extend(self._worker_lines())
        metric_lines = self._metric_lines()
        if metric_lines:
            lines.append("")
            lines.extend(metric_lines)
        if self.solve:
            lines.append(
                f"total: {self.solve.get('iterations', 0)} iterations, "
                f"{self.solve.get('atoms', 0)} atoms, "
                f"{self.solve.get('wall_s', 0.0):.4f}s"
            )
        return "\n".join(lines)

    def _counter_lines(self) -> List[str]:
        lines: List[str] = []
        index = self.counters.get("index")
        if index:
            lines.append(
                "index: "
                + " ".join(f"{k}={v}" for k, v in sorted(index.items()))
            )
        plan = self.counters.get("plan_cache")
        if plan:
            lines.append(
                "plan cache: "
                + " ".join(f"{k}={v}" for k, v in sorted(plan.items()))
            )
        return lines

    def _worker_lines(self) -> List[str]:
        """One line per relayed shard-worker telemetry row."""
        lines: List[str] = []
        for row in self.workers:
            lines.append(
                f"worker: scc={row.scc} shard={row.shard} "
                f"iters={row.iterations} atoms={row.atoms} rules={row.rules}"
            )
        return lines

    def _metric_lines(self) -> List[str]:
        """Histogram/timer quantile lines from the merged snapshot."""
        lines: List[str] = []
        for name in sorted(self.metrics):
            payload = self.metrics[name]
            if not isinstance(payload, dict):
                continue
            if payload.get("kind") not in ("histogram", "timer"):
                continue
            q = _metric_quantiles(payload)
            rendered = " ".join(
                f"{label}={value:.6g}"
                for label, value in q.items()
                if value is not None
            )
            lines.append(
                f"metric {name}: count={payload.get('count', 0)} {rendered}"
                .rstrip()
            )
        return lines


def summarize(events: Iterable[Dict[str, Any]]) -> TelemetrySummary:
    """Fold an event stream into a :class:`TelemetrySummary`.

    Tolerant of partial streams (a crashed solve still summarises what
    it emitted): ``scc_start`` rows are completed by a later ``scc_end``
    when one exists, phase spans need both ends to be reported.
    """
    summary = TelemetrySummary()
    scc_rows: Dict[int, SccStat] = {}
    for event in events:
        kind = event.get("type")
        if kind == "iteration":  # by far the most frequent event
            get = event.get
            summary.iterations.append(
                IterationStat(
                    int(get("scc", -1)),
                    int(get("iteration", 0)),
                    int(get("delta_atoms", 0)),
                    int(get("new_atoms", 0)),
                    int(get("changed_atoms", 0)),
                    int(get("total_atoms", 0)),
                    float(get("wall_s", 0.0)),
                )
            )
        elif kind == "trace_start":
            summary.program = event.get("program")
        elif kind == "phase_end":
            summary.phases.append(
                PhaseStat(
                    phase=str(event.get("phase")),
                    wall_s=float(event.get("wall_s", 0.0)),
                )
            )
        elif kind == "scc_start":
            index = int(event.get("scc", -1))
            scc_rows[index] = SccStat(
                index=index,
                predicates=tuple(event.get("predicates", ())),
                method=str(event.get("method", "?")),
                verdict=event.get("verdict"),
                reasons=tuple(event.get("reasons", ())),
                rules=int(event.get("rules", 0)),
            )
        elif kind == "scc_end":
            index = int(event.get("scc", -1))
            row = scc_rows.get(index)
            if row is None:
                row = SccStat(
                    index=index,
                    predicates=(),
                    method=str(event.get("method", "?")),
                )
                scc_rows[index] = row
            row.iterations = int(event.get("iterations", 0))
            row.atoms = int(event.get("atoms", 0))
            row.wall_s = float(event.get("wall_s", 0.0))
        elif kind == "rule_profile":
            summary.rules.append(
                RuleStat(
                    rule=str(event.get("rule", "?")),
                    rule_index=int(event.get("rule_index", -1)),
                    head=str(event.get("head", "?")),
                    scc=event.get("scc"),
                    calls=int(event.get("calls", 0)),
                    derived=int(event.get("derived", 0)),
                    wall_s=float(event.get("wall_s", 0.0)),
                )
            )
        elif kind == "metrics_snapshot":
            metrics = event.get("metrics", {})
            if isinstance(metrics, dict):
                summary.metrics = dict(metrics)
        elif kind == "worker_telemetry":
            metrics = event.get("metrics", {})
            summary.workers.append(
                WorkerStat(
                    scc=int(event.get("scc", -1)),
                    shard=int(event.get("shard", -1)),
                    iterations=int(event.get("iterations", 0)),
                    atoms=int(event.get("atoms", 0)),
                    rules=int(event.get("rules", 0)),
                    metrics=dict(metrics) if isinstance(metrics, dict) else {},
                )
            )
        elif kind == "counters":
            summary.counters = {
                "index": dict(event.get("index", {})),
                "plan_cache": dict(event.get("plan_cache", {})),
            }
        elif kind == "solve_end":
            summary.solve = {
                "iterations": event.get("iterations", 0),
                "atoms": event.get("atoms", 0),
                "wall_s": event.get("wall_s", 0.0),
            }
    summary.sccs = [scc_rows[index] for index in sorted(scc_rows)]
    return summary
