"""Differential verification of the SLF worklist Bellman-Ford.

The worklist solver is the default; the classic round-based formulation is
kept as ``algorithm="rounds"`` precisely so these tests can hold the two
against each other: on randomized constraint graphs (feasible and not)
both must report the same distances, the same feasibility verdicts, and
honoured budgets.  Certificates are checked semantically -- the reported
cycle must actually be negative in the input -- and, since the worklist
delegates extraction to the round-based pass, textually identical too.
"""

import random

import pytest

from repro.constraints.bellman_ford import ALGORITHMS, scalar_bellman_ford
from repro.constraints.vector_bellman_ford import vector_bellman_ford
from repro.resilience import Budget, BudgetExceededError
from repro.vectors import ExtVec


def _random_graph(rng, n, density, weight_lo=-3, weight_hi=6):
    """A random digraph; positive-leaning weights keep most instances feasible."""
    nodes = [f"v{i}" for i in range(n)]
    edges = []
    for u in nodes:
        for v in nodes:
            if u != v and rng.random() < density:
                edges.append((u, v, rng.randint(weight_lo, weight_hi)))
    # connect everything to the source so feasibility questions are global
    edges += [(nodes[0], v, 0) for v in nodes[1:]]
    rng.shuffle(edges)
    return nodes, edges, nodes[0]


def _cycle_weight(cycle, edges):
    weight = {}
    for (u, v, w) in edges:
        weight[(u, v)] = min(w, weight.get((u, v), w))
    total = 0
    for k, u in enumerate(cycle):
        total += weight[(u, cycle[(k + 1) % len(cycle)])]
    return total


class TestDifferential:
    @pytest.mark.parametrize("seed", range(20))
    def test_same_answers_on_random_graphs(self, seed):
        rng = random.Random(seed)
        nodes, edges, src = _random_graph(rng, rng.randint(2, 24), rng.uniform(0.1, 0.5))
        slf = scalar_bellman_ford(nodes, edges, src)
        rounds = scalar_bellman_ford(nodes, edges, src, algorithm="rounds")
        assert slf.feasible == rounds.feasible
        if slf.feasible:
            assert slf.dist == rounds.dist
        else:
            # both certificates must be genuine negative cycles; the worklist
            # extracts via the round-based pass, so they are the same cycle
            assert _cycle_weight(slf.negative_cycle, edges) < 0
            assert slf.negative_cycle == rounds.negative_cycle

    @pytest.mark.parametrize("seed", range(10))
    def test_same_answers_on_vector_graphs(self, seed):
        rng = random.Random(1000 + seed)
        names = [f"v{i}" for i in range(rng.randint(2, 12))]
        edges = []
        for u in names:
            for v in names:
                if u != v and rng.random() < 0.4:
                    edges.append(
                        (u, v, ExtVec((rng.randint(0, 3), rng.randint(-2, 4))))
                    )
        edges += [(names[0], v, ExtVec((0, 0))) for v in names[1:]]
        slf = vector_bellman_ford(names, edges, names[0], dim=2)
        rounds = vector_bellman_ford(
            names, edges, names[0], dim=2, algorithm="rounds"
        )
        assert slf.feasible == rounds.feasible
        if slf.feasible:
            assert slf.dist == rounds.dist
        else:
            assert slf.negative_cycle == rounds.negative_cycle

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            scalar_bellman_ford(["a"], [], "a", algorithm="dijkstra")
        assert ALGORITHMS == ("slf", "rounds")


class TestBudgets:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_zero_cap_always_trips(self, algorithm):
        with pytest.raises(BudgetExceededError) as exc:
            scalar_bellman_ford(
                ["a", "b"], [("a", "b", 1)], "a", max_rounds=0, algorithm=algorithm
            )
        assert exc.value.resource == "relaxation-rounds"

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_generous_cap_never_trips(self, algorithm):
        rng = random.Random(7)
        nodes, edges, src = _random_graph(rng, 15, 0.3, weight_lo=0)
        result = scalar_bellman_ford(
            nodes, edges, src, max_rounds=10_000, algorithm=algorithm
        )
        assert result.feasible
        assert result.rounds <= 10_000

    def test_budget_and_max_rounds_combine_tighter_wins(self):
        nodes = ["s"] + [f"x{i}" for i in range(30)]
        edges = [(f"x{i - 1}" if i else "s", f"x{i}", -1) for i in range(30)]
        edges.reverse()
        with pytest.raises(BudgetExceededError) as exc:
            scalar_bellman_ford(
                nodes, edges, "s",
                max_rounds=50,
                budget=Budget(max_relaxation_rounds=2),
                algorithm="rounds",
            )
        assert exc.value.limit == 2

    def test_deadline_checked_inside_worklist(self):
        rng = random.Random(3)
        nodes, edges, src = _random_graph(rng, 20, 0.4)
        b = Budget(deadline_ms=0.0).start()
        with pytest.raises(BudgetExceededError) as exc:
            scalar_bellman_ford(nodes, edges, src, budget=b)
        assert exc.value.resource == "deadline-ms"

    def test_negative_cycle_beats_round_cap_in_worklist(self):
        # the certainty trigger (chain length >= |V|) fires within the first
        # few pops on a tight cycle, before any generous cap is consumed
        nodes = ["s", "a", "b"]
        edges = [("s", "a", 0), ("a", "b", -1), ("b", "a", 0)]
        result = scalar_bellman_ford(nodes, edges, "s", max_rounds=1_000_000)
        assert not result.feasible

    def test_certificate_pass_stays_within_the_cap(self):
        # the worklist proves the 2-cycle negative within two rounds, but
        # the classic certificate pass never stabilises on it and sweeps
        # |V| - 1 = 11 rounds: a cap of 5 covers the first, not both
        nodes = ["s", "a", "b"] + [f"x{i}" for i in range(9)]
        edges = [("s", "a", 0), ("a", "b", -1), ("b", "a", -1)]
        uncapped = scalar_bellman_ford(nodes, edges, "s")
        assert uncapped.negative_cycle is not None
        with pytest.raises(BudgetExceededError) as exc:
            scalar_bellman_ford(nodes, edges, "s", budget=Budget(max_relaxation_rounds=5))
        assert (exc.value.resource, exc.value.limit) == ("relaxation-rounds", 5)
        enough = scalar_bellman_ford(nodes, edges, "s", max_rounds=20)
        assert enough.negative_cycle == uncapped.negative_cycle
        assert enough.rounds <= 20


class TestWorklistBehaviour:
    def test_worklist_rounds_are_near_constant_on_benign_chains(self):
        for n in (50, 200, 800):
            nodes = ["s"] + [f"x{i}" for i in range(n)]
            edges = [(f"x{i - 1}" if i else "s", f"x{i}", -1) for i in range(n)]
            edges.reverse()  # adversarial for the classic sweeps
            result = scalar_bellman_ford(nodes, edges, "s")
            assert result.feasible and result.dist[f"x{n - 1}"] == -n
            assert result.rounds <= 3, (
                f"worklist did O({result.rounds}) rounds on a {n}-chain"
            )

    def test_unreachable_nodes_keep_top(self):
        import math

        result = scalar_bellman_ford(
            ["s", "a", "island"], [("s", "a", 2)], "s"
        )
        assert result.dist["island"] == math.inf
        assert result.dist["a"] == 2

    def test_source_must_be_a_node(self):
        with pytest.raises(ValueError, match="not among nodes"):
            scalar_bellman_ford(["a"], [], "ghost")
