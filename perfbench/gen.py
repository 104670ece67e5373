"""Seeded inputs and independent oracles for the benchmark workloads.

Everything here is plain Python.  From ``repro`` it uses only the
paper-family oracles (``party_oracle``, ``circuit_oracle``,
``company_control_oracle``) and their ``CircuitInstance`` container, so
the inputs a workload feeds the engine, and the answers it must give,
never depend on the engine under test.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Dict, Iterable, List, Set, Tuple

Arc = Tuple[int, int, float]


# -- road networks ---------------------------------------------------------


def road_grid(side: int, rng: random.Random, highway_fraction: float = 0.02) -> List[Arc]:
    """A ``side x side`` grid road network with a few long shortcuts.

    Adjacent junctions are joined in both directions with lengths in
    ``[1, 10)``; ``highway_fraction`` of the junction count becomes
    shortcuts with lengths in ``[5, 50)``.  Every ``(u, v)`` appears once:
    a shortcut that lands on an existing arc, or on itself, is redrawn.
    (``repro.workloads.road_network`` appends colliding shortcuts as
    duplicate arcs, which ``load_csv`` rightly rejects.)
    """
    arcs: List[Arc] = []
    for row in range(side):
        for col in range(side):
            node = row * side + col
            if col + 1 < side:
                arcs.append((node, node + 1, round(rng.uniform(1.0, 10.0), 1)))
                arcs.append((node + 1, node, round(rng.uniform(1.0, 10.0), 1)))
            if row + 1 < side:
                arcs.append((node, node + side, round(rng.uniform(1.0, 10.0), 1)))
                arcs.append((node + side, node, round(rng.uniform(1.0, 10.0), 1)))
    seen = {(u, v) for u, v, _ in arcs}
    total = side * side
    for _ in range(int(total * highway_fraction)):
        while True:
            u, v = rng.randrange(total), rng.randrange(total)
            if u != v and (u, v) not in seen:
                break
        seen.add((u, v))
        arcs.append((u, v, round(rng.uniform(5.0, 50.0), 1)))
    return arcs


def write_csv(path: str, arcs: Iterable[Arc]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        for u, v, w in arcs:
            handle.write(f"{u},{v},{w}\n")


def shortest_distances(arcs: Iterable[Arc], source: int) -> Dict[int, float]:
    """Lengths of the shortest non-empty paths from ``source`` (Dijkstra).

    This matches the paper's ``d(X, Y, C)``: ``source`` itself only has a
    distance when a cycle leads back to it, of that cycle's length.
    Requires positive lengths.
    """
    out: Dict[int, List[Tuple[int, float]]] = {}
    for u, v, w in arcs:
        out.setdefault(u, []).append((v, w))
    dist: Dict[int, float] = {}
    heap = [(w, v) for v, w in out.get(source, [])]
    heapq.heapify(heap)
    while heap:
        d, node = heapq.heappop(heap)
        if node in dist:
            continue
        dist[node] = d
        for nxt, w in out.get(node, []):
            if nxt not in dist:
                heapq.heappush(heap, (d + w, nxt))
    return dist


def min_out_arc(csv_path: str, probes: Set[int]) -> Dict[int, float]:
    """The cheapest outgoing arc of each probe, by a direct CSV scan."""
    best: Dict[int, float] = {}
    with open(csv_path, encoding="utf-8") as handle:
        for line in handle:
            u_text, _, rest = line.partition(",")
            u = int(u_text)
            if u in probes:
                w = float(rest.rpartition(",")[2])
                if u not in best or w < best[u]:
                    best[u] = w
    return best


def same_costs(got: Dict[Tuple, float], want: Dict[Tuple, float]) -> bool:
    """Equal key sets and costs equal up to float summation order."""
    if got.keys() != want.keys():
        return False
    return all(
        math.isclose(got[key], want[key], rel_tol=1e-9, abs_tol=1e-9)
        for key in want
    )


# -- the four paper families, as small hosted databases --------------------

SHORTEST_PATH = """
@cost arc/3  : reals_ge.
@cost path/4 : reals_ge.
@cost s/3    : reals_ge.
@constraint arc(direct, Z, C).
path(X, direct, Y, C) <- arc(X, Y, C).
path(X, Z, Y, C) <- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
s(X, Y, C) <- C =r min{D : path(X, Z, Y, D)}.
"""

COMPANY_CONTROL = """
@cost s/3  : nonneg_reals_le.
@cost cv/4 : nonneg_reals_le.
@cost m/3  : nonneg_reals_le.
cv(X, X, Y, N) <- s(X, Y, N).
cv(X, Z, Y, N) <- c(X, Z), s(Z, Y, N).
m(X, Y, N) <- N =r sum{M : cv(X, Z, Y, M)}.
c(X, Y) <- m(X, Y, N), N > 0.5.
"""

PARTY = """
@pred requires/2.
@pred knows/2.
@pred coming/1.
@pred kc/2.
coming(X) <- requires(X, K), N = count{kc(X, Y)}, N >= K.
kc(X, Y) <- knows(X, Y), coming(Y).
"""

CIRCUIT = """
@pred gate/2.
@pred connect/2.
@cost input/2 : bool_le.
@default t/2 : bool_le.
@constraint gate(G, or), gate(G, and).
@constraint input(W, C), gate(W, T).
t(W, C) <- input(W, C).
t(G, C) <- gate(G, or), C = or{D : connect(G, W), t(W, D)}.
t(G, C) <- gate(G, and), C = and_le{D : connect(G, W), t(W, D)}.
"""

#: family -> (rule text, queried predicate, input size)
FAMILIES = {
    "path": (SHORTEST_PATH, "s", 6),
    "control": (COMPANY_CONTROL, "c", 10),
    "party": (PARTY, "coming", 30),
    "circuit": (CIRCUIT, "t", 30),
}


def _facts(predicate: str, rows: Iterable[Tuple]) -> str:
    return "".join(
        f"{predicate}({', '.join(str(v) for v in row)}).\n" for row in rows
    )


def digraph(n: int, rng: random.Random) -> List[Arc]:
    arcs: Dict[Tuple[int, int], float] = {}
    while len(arcs) < 3 * n:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and (u, v) not in arcs:
            arcs[(u, v)] = float(rng.randint(1, 10))
    return [(u, v, w) for (u, v), w in arcs.items()]


def ownership(n: int, rng: random.Random) -> List[Arc]:
    """Shares ``(owner, company, fraction)``; each company's sum to <= 1,
    with a planted control chain ``0 -> 1 -> ... -> 5``."""
    shares: Dict[Tuple[int, int], float] = {
        (i, i + 1): 0.6 for i in range(min(5, n - 1))
    }
    for company in range(n):
        remaining = 1.0 - sum(f for (_, c), f in shares.items() if c == company)
        for owner in rng.sample([o for o in range(n) if o != company], 3):
            if remaining <= 0.01 or (owner, company) in shares:
                continue
            fraction = round(rng.uniform(0.01, remaining / 2), 3)
            shares[(owner, company)] = fraction
            remaining -= fraction
    return [(o, c, f) for (o, c), f in sorted(shares.items())]


def party(n: int, rng: random.Random) -> Tuple[List[Tuple[int, int]], Dict[int, int]]:
    knows: Set[Tuple[int, int]] = set()
    while len(knows) < 4 * n:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            knows.add((a, b))
    requires = {
        guest: 0 if rng.random() < 0.15 else rng.randint(1, 3)
        for guest in range(n)
    }
    return sorted(knows), requires


def circuit(n: int, rng: random.Random):
    """An AND/OR circuit over 8 inputs with ~10% feedback wires."""
    from repro.workloads import CircuitInstance

    inst = CircuitInstance()
    wires = []
    for i in range(8):
        inst.inputs.append((f"w{i}", rng.randint(0, 1)))
        wires.append(f"w{i}")
    gates = [f"g{i}" for i in range(n)]
    connects = set()
    for idx, gate in enumerate(gates):
        inst.gates.append((gate, rng.choice(["and", "or"])))
        for source in rng.sample(wires, rng.randint(1, min(3, len(wires)))):
            connects.add((gate, source))
        if rng.random() < 0.1 and idx + 1 < n:
            connects.add((gate, gates[rng.randrange(idx + 1, n)]))
        wires.append(gate)
    inst.connects = sorted(connects)
    return inst


def serve_databases(seed: int, copies: int = 3) -> List[Dict]:
    """``copies`` databases of each paper family, seeded.

    Each entry holds the database ``name``, its rule ``text`` (facts
    inline, as ``repro serve NAME=FILE`` hosts it), the ``query`` a
    client sends, and ``oracle``: the rows the query must return, from
    an engine-independent computation.
    """
    from repro.workloads import circuit_oracle, company_control_oracle, party_oracle

    rng = random.Random(seed)
    out = []
    for copy in range(copies):
        for family, (rules, query, size) in FAMILIES.items():
            if family == "path":
                arcs = digraph(size, rng)
                text = rules + _facts("arc", arcs)
                oracle = [
                    [u, v, d] for u in range(size) for v, d in shortest_distances(arcs, u).items()
                ]
            elif family == "control":
                shares = ownership(size, rng)
                text = rules + _facts("s", shares)
                oracle = [list(pair) for pair in company_control_oracle(shares)]
            elif family == "party":
                knows, requires = party(size, rng)
                text = rules + _facts("knows", knows) + _facts("requires", sorted(requires.items()))
                oracle = [[guest] for guest in party_oracle(knows, requires)]
            else:
                inst = circuit(size, rng)
                text = (
                    rules
                    + _facts("gate", inst.gates)
                    + _facts("connect", inst.connects)
                    + _facts("input", inst.inputs)
                )
                oracle = [[w, 1] for w, v in circuit_oracle(inst).items() if v]
            out.append({"name": f"{family}{copy}", "text": text, "query": query, "oracle": oracle})
    return out
