"""Dataset-backed workloads: road networks and ownership graphs on disk.

The bulk data plane (:mod:`repro.data.loader`, docs/STORAGE.md) exists
for workloads whose facts arrive as *files*, not Python literals.  The
generators here produce such files deterministically in their seed:

* :func:`road_network` — a grid road network (every node a junction,
  4-neighbour street segments with random positive lengths, plus a few
  long "highway" shortcuts), the classic substrate for shortest-path
  queries.  :func:`write_road_network_csv` streams it as an edge-list
  CSV — ``u,v,length`` per line, the shape road datasets ship in.
* :func:`write_ownership_jsonl` — a :func:`~repro.workloads.ownership.
  random_ownership` share distribution as JSONL fact lines for the
  company-control program (Example 2.7).

``repro bench`` loads these files through :meth:`Database.load_csv` /
:meth:`load_jsonl` in its ``road_network`` / ``company_control_dataset``
workloads, so the loader's throughput and the storage backends' memory
behaviour are measured on realistically-shaped data.
"""

from __future__ import annotations

import json
import math
import random
from typing import List, Set, Tuple

from repro.workloads.ownership import random_ownership

Arc = Tuple[int, int, float]

#: Rule text for k-source shortest paths over a road network — the
#: paper's Example 2.6 idiom with the seed rule filtered through a
#: ``source/1`` query relation, so the solve cost scales with the number
#: of query sources instead of all pairs.
ROAD_NETWORK_PROGRAM = """
    @pred source/1.
    @cost arc/3  : reals_ge.
    @cost step/4 : reals_ge.
    @cost d/3    : reals_ge.
    @constraint arc(direct, Z, C).
    step(X, direct, Y, C) <- source(X), arc(X, Y, C).
    step(X, Z, Y, C) <- d(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
    d(X, Y, C) <- C =r min{D : step(X, Z, Y, D)}.
"""


def road_network(
    n: int, *, seed: int = 0, highway_fraction: float = 0.02
) -> List[Arc]:
    """A grid road network with ~``n`` junctions.

    Junctions form a ``side x side`` grid (``side = ceil(sqrt(n))``,
    ids ``row * side + col``); each adjacent pair is connected in both
    directions with independent random lengths in ``[1, 10)``, and
    ``highway_fraction`` of the junction count becomes long random
    shortcuts (weight in ``[5, 50)``) so shortest paths are not purely
    local; a shortcut drawn onto an existing arc is dropped, so every
    ``(u, v)`` pair has one length.  Deterministic in ``seed``.
    """
    side = max(2, math.ceil(math.sqrt(n)))
    rng = random.Random(seed)
    arcs: List[Arc] = []

    def length() -> float:
        return round(rng.uniform(1.0, 10.0), 1)

    for row in range(side):
        for col in range(side):
            node = row * side + col
            if col + 1 < side:
                arcs.append((node, node + 1, length()))
                arcs.append((node + 1, node, length()))
            if row + 1 < side:
                arcs.append((node, node + side, length()))
                arcs.append((node + side, node, length()))
    total = side * side
    highways: Set[Tuple[int, int]] = set()
    for _ in range(int(total * highway_fraction)):
        u = rng.randrange(total)
        v = rng.randrange(total)
        if u != v:
            weight = round(rng.uniform(5.0, 50.0), 1)
            # ``arc`` is a cost predicate keyed on (u, v): a highway over
            # a street or an earlier highway would give that pair a second
            # length, which the solver rejects.  Skip it — after drawing
            # its length, so the random stream (and every network without
            # such a collision) is unchanged.
            if _street(u, v, side) or (u, v) in highways:
                continue
            highways.add((u, v))
            arcs.append((u, v, weight))
    return arcs


def _street(u: int, v: int, side: int) -> bool:
    """Whether junctions ``u`` and ``v`` are grid neighbours."""
    gap = abs(u - v)
    return gap == side or (gap == 1 and u // side == v // side)


def write_road_network_csv(path: str, n: int, *, seed: int = 0) -> int:
    """Write :func:`road_network` as an ``u,v,length`` edge-list CSV.

    Returns the arc count.  The file loads with
    ``Database.load_csv("arc", path)`` (docs/STORAGE.md).
    """
    arcs = road_network(n, seed=seed)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        for u, v, w in arcs:
            handle.write(f"{u},{v},{w}\n")
    return len(arcs)


def write_ownership_jsonl(path: str, n: int, *, seed: int = 0) -> int:
    """Write a :func:`random_ownership` share distribution as JSONL.

    One ``{"predicate": "s", "row": [owner, company, fraction]}`` line
    per share; loads with ``Database.load_jsonl(path)`` after the
    company-control program declared ``s``.  Returns the line count.
    """
    shares = random_ownership(n, seed=seed, chain_length=min(6, n - 1))
    with open(path, "w", encoding="utf-8") as handle:
        for owner, company, fraction in shares:
            handle.write(
                json.dumps(
                    {"predicate": "s", "row": [owner, company, fraction]},
                    separators=(",", ":"),
                )
                + "\n"
            )
    return len(shares)
