"""The :class:`Tracer` — span / counter / event primitives with sinks.

A tracer is the per-solve telemetry hub: the engine emits schema'd
events (:mod:`repro.obs.events`) through it, the fixpoint evaluators
hand it per-rule firing counts and wall time once per round, and it
*owns* the solve's :class:`~repro.engine.interpretation.IndexStats` so
concurrent solves stop sharing the process-global counter singleton.

Instrumentation cost discipline (docs/OBSERVABILITY.md §6):

* every hot-loop site guards on ``tracer.enabled`` — a single attribute
  read — before doing any other work, and the shared
  :data:`NULL_TRACER` keeps ``enabled`` False forever, so an untraced
  solve pays one branch per potential event, nothing more;
* a traced solve does its accounting *per round, not per rule firing*:
  the evaluators count firings in local integers, time each rule once
  per round and hand one batch to :meth:`Tracer.record_rules`; plan
  cache probes arrive the same way (:meth:`Tracer.count_plans`).  The
  batches are folded into the registry only when it is read
  (:attr:`Tracer.metrics`), so the hot path does no registry lookup.
"""

from __future__ import annotations

import io
import json
import time
from contextlib import contextmanager
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

from repro.engine.interpretation import IndexStats
from repro.obs.events import SCHEMA_VERSION
from repro.obs.metrics import Counter, MetricsRegistry


class Sink(Protocol):
    """Where emitted events go.  Implementations must not mutate them."""

    def emit(self, event: Dict[str, Any]) -> None: ...

    def close(self) -> None: ...


class CollectorSink:
    """Keeps every event in memory (``events``) — tests and summaries."""

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []

    def emit(self, event: Dict[str, Any]) -> None:
        self.events.append(event)

    def close(self) -> None:
        return None


class JsonlSink:
    """Streams events to a JSONL file, one compact object per line."""

    def __init__(self, destination: Union[str, io.TextIOBase]) -> None:
        if isinstance(destination, str):
            self._handle: Any = open(destination, "w", encoding="utf-8")
            self._owned = True
        else:
            self._handle = destination
            self._owned = False

    def emit(self, event: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(event, sort_keys=True) + "\n")

    def close(self) -> None:
        if self._owned:
            self._handle.close()
        else:
            self._handle.flush()


class Tracer:
    """Telemetry hub for one solve.

    ``Tracer()`` collects events in memory (``events``); extra sinks
    stream them elsewhere (:class:`JsonlSink`).  Beyond the event stream
    the tracer carries the live counters the engine aggregates directly:

    * ``index_stats`` — this solve's index hit/miss/build counters
      (bound for the duration of the solve via
      :func:`repro.engine.interpretation.use_index_stats`);
    * ``metrics`` — the solve's mergeable instruments, including the
      ``rule.*`` and ``plan.cache_*`` counters folded from the pending
      per-round batches on every read;
    * per-rule executor statistics (:meth:`record_rules`), flushed as
      ``rule_profile`` events by the solver at solve end.
    """

    __slots__ = (
        "sinks",
        "enabled",
        "collect",
        "events",
        "index_stats",
        "clock",
        "_metrics",
        "_seq",
        "_t0",
        "_started",
        "_rule_stats",
        "_pending",
        "_tally",
        "_walls",
        "_rounds",
        "_settles",
        "_plan_hits",
        "_plan_misses",
    )

    def __init__(
        self,
        *sinks: Sink,
        collect: bool = True,
        clock: Any = time.perf_counter,
    ) -> None:
        self.sinks: Tuple[Sink, ...] = sinks
        self.enabled = True
        self.collect = collect
        self.events: List[Dict[str, Any]] = []
        self.index_stats = IndexStats()
        self.clock = clock
        self._metrics = MetricsRegistry()
        self._seq = 0
        self._t0 = clock()
        self._started = False
        #: id(rule) -> [rule, calls, derived atoms, cumulative wall s]
        self._rule_stats: Dict[int, List[Any]] = {}
        # Pending batches, not yet in the registry (``metrics`` folds
        # them): atoms derived per firing -> firings, one wall per rule
        # per round, one row per fixpoint round, one wall per greedy
        # settle, plan-cache probes.
        self._pending = False
        self._tally: Dict[int, int] = {}
        self._walls: List[float] = []
        self._rounds: List[Tuple[int, Optional[int], int, float]] = []
        self._settles: List[float] = []
        self._plan_hits = 0
        self._plan_misses = 0

    @classmethod
    def disabled(cls) -> "Tracer":
        """A permanently-off tracer (the :data:`NULL_TRACER` fast path)."""
        tracer = cls(collect=False)
        tracer.enabled = False
        return tracer

    # -- event primitives ------------------------------------------------------

    def emit(self, event_type: str, **payload: Any) -> None:
        """Emit one schema'd event to every sink (no-op when disabled)."""
        if not self.enabled:
            return
        self._seq += 1
        event: Dict[str, Any] = {
            "v": SCHEMA_VERSION,
            "seq": self._seq,
            "t": round(self.clock() - self._t0, 6),
            "type": event_type,
            **payload,
        }
        if self.collect:
            self.events.append(event)
        for sink in self.sinks:
            sink.emit(event)

    def start(self, program: Optional[str] = None) -> None:
        """Emit the opening ``trace_start`` event (idempotent)."""
        if self._started or not self.enabled:
            return
        self._started = True
        self.emit("trace_start", program=program)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """A ``phase_start``/``phase_end`` span around a pipeline stage."""
        if not self.enabled:
            yield
            return
        self.emit("phase_start", phase=name)
        t0 = self.clock()
        try:
            yield
        finally:
            self.emit(
                "phase_end", phase=name, wall_s=round(self.clock() - t0, 6)
            )

    # -- counter primitives ----------------------------------------------------

    @property
    def metrics(self) -> MetricsRegistry:
        """The solve's mergeable instruments (docs/OBSERVABILITY.md).

        Populated at the guarded instrumentation sites, merged with
        worker snapshots at the shard barrier and snapshotted into the
        ``metrics_snapshot`` event at solve end.  Reading it first folds
        the pending per-round batches in, so every reader — the solver's
        flush, a shard worker's snapshot, serve's per-request snapshot —
        sees exact counts.
        """
        if self._pending:
            self._fold()
        return self._metrics

    def _fold(self) -> None:
        """Move every pending batch into the registry.  Integer-valued
        histograms fold through :meth:`Histogram.observe_n`, so counts,
        bounds and sums are exactly those of one observation per event;
        timers observe each pending wall in order."""
        self._pending = False
        m = self._metrics
        tally = self._tally
        if tally:
            firings = m.counter("rule.firings")
            derived = m.counter("rule.derived")
            per_firing = m.histogram("rule.derived_per_firing")
            for atoms, n in sorted(tally.items()):
                firings.inc(n)
                derived.inc(atoms * n)
                per_firing.observe_n(float(atoms), n)
            tally.clear()
            wall = m.timer("rule.wall_s")
            for wall_s in self._walls:
                wall.observe(wall_s)
            self._walls.clear()
        rounds = self._rounds
        if rounds:
            m.counter("fixpoint.rounds").inc(len(rounds))
            new = m.counter("fixpoint.new_atoms")
            changed: Optional[Counter] = None
            round_wall = m.timer("fixpoint.round_wall_s")
            deltas: Dict[int, int] = {}
            for new_atoms, changed_atoms, delta_atoms, wall_s in rounds:
                new.inc(new_atoms)
                if changed_atoms is not None:
                    if changed is None:
                        changed = m.counter("fixpoint.changed_atoms")
                    changed.inc(changed_atoms)
                deltas[delta_atoms] = deltas.get(delta_atoms, 0) + 1
                round_wall.observe(wall_s)
            delta = m.histogram("fixpoint.delta_atoms")
            for atoms, n in sorted(deltas.items()):
                delta.observe_n(float(atoms), n)
            rounds.clear()
        settles = self._settles
        if settles:
            m.counter("greedy.settled").inc(len(settles))
            settle_wall = m.timer("greedy.settle_wall_s")
            for wall_s in settles:
                settle_wall.observe(wall_s)
            settles.clear()
        if self._plan_hits:
            m.counter("plan.cache_hits").inc(self._plan_hits)
            self._plan_hits = 0
        if self._plan_misses:
            m.counter("plan.cache_misses").inc(self._plan_misses)
            self._plan_misses = 0

    def record_round(
        self,
        new_atoms: int,
        changed_atoms: Optional[int],
        delta_atoms: int,
        wall_s: float,
    ) -> None:
        """Account one fixpoint round for the ``fixpoint.*`` instruments
        (``changed_atoms`` is None for a round that reports none, like
        the semi-naive seed round).  Callers guard on ``enabled``."""
        self._rounds.append((new_atoms, changed_atoms, delta_atoms, wall_s))
        self._pending = True

    def record_settle(self, wall_s: float) -> None:
        """Account one greedy settle (``greedy.*`` instruments)."""
        self._settles.append(wall_s)
        self._pending = True

    def record_rules(self, batch: Iterable[Sequence[Any]]) -> None:
        """Account one fixpoint round of rule firings.

        ``batch`` holds ``(rule, tally, wall_s)`` per rule that fired in
        the round: ``tally`` maps atoms derived by one firing to the
        number of firings that derived that many, and ``wall_s`` is the
        rule's time in the round (one ``rule.wall_s`` observation).
        Callers guard on ``enabled``; rule stats are keyed by rule
        identity and flushed as ``rule_profile`` events by the solver,
        the instruments are folded on the next read of :attr:`metrics`.
        """
        self._pending = True
        stats = self._rule_stats
        pending = self._tally
        for rule, tally, wall_s in batch:
            if not tally:  # interrupted before its first firing
                continue
            calls = derived = 0
            for atoms, n in tally.items():
                calls += n
                derived += atoms * n
                pending[atoms] = pending.get(atoms, 0) + n
            entry = stats.get(id(rule))
            if entry is None:
                stats[id(rule)] = [rule, calls, derived, wall_s]
            else:
                entry[1] += calls
                entry[2] += derived
                entry[3] += wall_s
            self._walls.append(wall_s)

    def absorb_rule(
        self, rule: Any, calls: int, derived: int, wall_s: float
    ) -> None:
        """Fold a worker's cumulative statistics for ``rule`` in.

        The shard-barrier counterpart of :meth:`record_rules`: workers
        ship ``(calls, derived, wall)`` per rule index through the pool
        result, and the parent maps indexes back to its own rule objects
        (identity-preserving through ``fork``) before calling this.
        Only the tabular rule stats are updated — the worker's metric
        histograms arrive separately via its registry snapshot, so
        nothing is double-counted.
        """
        entry = self._rule_stats.get(id(rule))
        if entry is None:
            self._rule_stats[id(rule)] = [rule, calls, derived, wall_s]
        else:
            entry[1] += calls
            entry[2] += derived
            entry[3] += wall_s

    def rule_stats(self) -> List[Tuple[Any, int, int, float]]:
        """``(rule, calls, derived, wall_s)`` per executed rule."""
        return [
            (rule, calls, derived, wall)
            for rule, calls, derived, wall in self._rule_stats.values()
        ]

    def count_plans(self, hits: int, misses: int) -> None:
        """Account compiled-plan cache probes (folded into the
        ``plan.cache_hits`` / ``plan.cache_misses`` counters)."""
        self._plan_hits += hits
        self._plan_misses += misses
        self._pending = True

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Close every sink (flushes the JSONL writer)."""
        for sink in self.sinks:
            sink.close()


#: The shared disabled tracer: the engine's default, compiled down to a
#: single ``tracer.enabled`` check in every hot loop.
NULL_TRACER = Tracer.disabled()
