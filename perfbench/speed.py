"""The host's speed, probed next to every timed operation.

On a shared host the processor's speed swings by ±20% from one second
to the next and drifts over minutes, and the engine's process time
swings with it: it is the processor that slows, not the scheduler
that stops the process.  The median of a 30 s run then moves by about
as much as the bound a change is judged by.

So every end-to-end time is also taken *host-adjusted*: the raw wall
times ``REFERENCE_S / p``, where ``p`` is the time this fixed
pure-Python probe took right next to the operation (the mean of one
probe just before and one just after it).  The probe never calls the
engine, so a change to the engine moves the adjusted time exactly as
much as the raw one; a slower moment of the host moves both the
operation and the probe, and cancels.  ``REFERENCE_S`` is the probe's
typical time on the 2-core host the bounds were tuned on, so there an
adjusted time reads close to the raw one.
"""

from __future__ import annotations

import os
import time
from typing import Optional, Sequence, Set

#: The probe's time at the reference speed, in seconds.
REFERENCE_S = 0.020


def probe() -> float:
    """Seconds one fixed probe takes: an arithmetic loop that stays in
    cache, then a dict of tuple keys built and probed, as the engine's
    relations and indexes are."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc = (acc + i * i) % 1_000_003
    table = {(i, (i * 7919) % 30_011): i for i in range(30_000)}
    sum(1 for i in range(0, 60_000, 2) if (i, (i * 7919) % 30_011) in table)
    del table
    return time.perf_counter() - t0


def under_test_cpus() -> Optional[Set[int]]:
    """The one processor the process under test is pinned to: the last
    this process may use.  None when it may use only one."""
    cpus = sorted(os.sched_getaffinity(0))
    return {cpus[-1]} if len(cpus) > 1 else None


def pin(cpus: Optional[Set[int]]) -> None:
    """Pins the calling process to ``cpus`` (no-op for None); as a
    ``preexec_fn`` it pins a child before it runs."""
    if cpus is not None:
        os.sched_setaffinity(0, cpus)


def probe_on(cpus: Optional[Set[int]]) -> float:
    """``probe()`` run on ``cpus``, the processor of the process under
    test, which may speed up and slow down apart from the others."""
    if cpus is None:
        return probe()
    home = os.sched_getaffinity(0)
    pin(cpus)
    try:
        return probe()
    finally:
        pin(home)


def factor(before: float, after: float) -> float:
    """The scale from raw to adjusted time for an operation that ran
    between two probes."""
    return REFERENCE_S / ((before + after) / 2.0)


def adjusted(walls: Sequence[float], probes: Sequence[float]) -> list:
    """``walls[i]`` ran between ``probes[i]`` and ``probes[i + 1]``."""
    return [w * factor(probes[i], probes[i + 1]) for i, w in enumerate(walls)]
