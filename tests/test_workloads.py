"""Workload generators and their engine-independent oracles."""

import hashlib

import pytest

from repro.core.database import Database
from repro.workloads import (
    ROAD_NETWORK_PROGRAM,
    CircuitInstance,
    bellman_ford_all_pairs,
    circuit_oracle,
    company_control_oracle,
    cycle_graph,
    dijkstra_all_pairs,
    party_oracle,
    random_circuit,
    random_dag,
    random_digraph,
    random_ownership,
    random_party,
    road_network,
)


class TestGraphGenerators:
    def test_deterministic(self):
        assert random_digraph(10, seed=1) == random_digraph(10, seed=1)
        assert random_digraph(10, seed=1) != random_digraph(10, seed=2)

    def test_no_self_loops_or_duplicates(self):
        arcs = random_digraph(20, seed=3)
        assert all(u != v for u, v, _ in arcs)
        assert len({(u, v) for u, v, _ in arcs}) == len(arcs)

    def test_dag_is_acyclic(self):
        arcs = random_dag(20, seed=4)
        assert all(u < v for u, v, _ in arcs)

    def test_negative_fraction(self):
        arcs = random_dag(30, seed=5, negative_fraction=0.5)
        negative = sum(1 for _, _, w in arcs if w < 0)
        assert 0 < negative < len(arcs)

    def test_cycle_graph(self):
        arcs = cycle_graph(4)
        assert len(arcs) == 4
        assert (3, 0, 1.0) in arcs


class TestRoadNetwork:
    #: Sizes (with ``seed=size``) where a highway used to land on an
    #: existing arc, giving one (u, v) pair two lengths.
    COLLIDING = (1800, 2500, 3500, 3800, 3900, 4600, 5900, 7100, 7900)

    @pytest.mark.parametrize("n", COLLIDING)
    def test_every_arc_has_one_length(self, n):
        arcs = road_network(n, seed=n)
        assert len({(u, v) for u, v, _ in arcs}) == len(arcs)

    def test_highway_on_a_street_is_dropped(self):
        lengths = [
            w for u, v, w in road_network(6400, seed=0) if (u, v) == (1652, 1653)
        ]
        assert lengths == [8.7]  # the street; the 6.7 highway is gone

    def test_colliding_size_solves(self):
        db = Database()
        db.load(ROAD_NETWORK_PROGRAM)
        db.add_facts("arc", road_network(1800, seed=1800))
        db.add_facts("source", [(0,)])
        result = db.solve(method="auto")
        assert result.complete
        assert len(result.model.relation("d")) > 1000

    @pytest.mark.parametrize(
        "n,digest",
        [
            (100, "83d565314819caf3"),
            (400, "469cf8742aa1e7d6"),
            (1600, "10b790ce301eec13"),
        ],
    )
    def test_networks_without_collisions_are_unchanged(self, n, digest):
        """Skipped highways still draw their length, so the benchmark
        sizes produce the very networks they always did."""
        text = repr(road_network(n, seed=n)).encode()
        assert hashlib.sha256(text).hexdigest()[:16] == digest


class TestShortestPathOracles:
    def test_dijkstra_simple(self):
        arcs = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)]
        dist = dijkstra_all_pairs(arcs)
        assert dist[(0, 2)] == 2.0

    def test_dijkstra_excludes_empty_path(self):
        """s(x,x) is the shortest non-empty cycle, not 0."""
        dist = dijkstra_all_pairs(cycle_graph(3))
        assert dist[(0, 0)] == 3.0

    def test_dijkstra_rejects_negative(self):
        with pytest.raises(ValueError):
            dijkstra_all_pairs([(0, 1, -1.0)])

    def test_bellman_ford_matches_dijkstra_on_nonnegative(self):
        arcs = random_digraph(12, seed=6)
        d = dijkstra_all_pairs(arcs)
        bf = bellman_ford_all_pairs(arcs)
        assert set(d) == set(bf)
        assert all(abs(d[k] - bf[k]) < 1e-9 for k in d)

    def test_bellman_ford_negative_dag(self):
        arcs = [(0, 1, -2.0), (1, 2, -3.0), (0, 2, 1.0)]
        bf = bellman_ford_all_pairs(arcs)
        assert bf[(0, 2)] == -5.0


class TestOwnership:
    def test_fractions_bounded(self):
        shares = random_ownership(20, seed=7)
        totals = {}
        for _, company, fraction in shares:
            assert 0 < fraction <= 1
            totals[company] = totals.get(company, 0.0) + fraction
        assert all(total <= 1.0 + 1e-9 for total in totals.values())

    def test_planted_chain_controls(self):
        shares = random_ownership(10, seed=8, chain_length=4)
        controls = company_control_oracle(shares)
        for i in range(4):
            assert (i, i + 1) in controls  # direct 0.6 stakes
        assert (0, 2) in controls  # transitively via 1

    def test_oracle_on_crossed_ownership(self):
        shares = [("b", "c", 0.6), ("c", "b", 0.6)]
        controls = company_control_oracle(shares)
        assert ("b", "c") in controls and ("c", "b") in controls
        # ... and hence the mutual self-control the rules entail:
        assert ("b", "b") in controls

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            random_ownership(1)


class TestParty:
    def test_oracle_cascade(self):
        knows = [(1, 0), (2, 1), (3, 2)]
        requires = {0: 0, 1: 1, 2: 1, 3: 1}
        assert party_oracle(knows, requires) == {0, 1, 2, 3}

    def test_oracle_threshold_blocks(self):
        knows = [(1, 0)]
        requires = {0: 0, 1: 2}
        assert party_oracle(knows, requires) == {0}

    def test_generator_shape(self):
        knows, requires = random_party(30, seed=9)
        assert len(requires) == 30
        assert all(a != b for a, b in knows)
        assert any(k == 0 for k in requires.values())

    def test_generator_terminates_on_tiny_n(self):
        """friends_per_guest * n can exceed the n*(n-1) possible arcs."""
        knows, requires = random_party(4, seed=0)
        assert len(knows) == 12  # every ordered non-self pair
        assert len(requires) == 4


class TestCircuits:
    def test_oracle_known_circuit(self):
        inst = CircuitInstance(
            gates=[("g0", "or"), ("g1", "and")],
            connects=[("g0", "w0"), ("g0", "w1"), ("g1", "w0"), ("g1", "g0")],
            inputs=[("w0", 1), ("w1", 0)],
        )
        values = circuit_oracle(inst)
        assert values["g0"] == 1
        assert values["g1"] == 1

    def test_oracle_feedback_minimal(self):
        inst = CircuitInstance(
            gates=[("loop", "and")],
            connects=[("loop", "loop")],
            inputs=[],
        )
        assert circuit_oracle(inst)["loop"] == 0

    def test_generator_deduplicates_connections(self):
        inst = random_circuit(20, seed=10, feedback_fraction=0.5)
        assert len(inst.connects) == len(set(inst.connects))

    def test_generator_deterministic(self):
        a = random_circuit(10, seed=11)
        b = random_circuit(10, seed=11)
        assert a.gates == b.gates and a.connects == b.connects
