"""Tests for the CP building blocks: domains, alldifferent, labeling."""

import numpy as np
import pytest

from repro.core import CommunicationGraph
from repro.core.errors import SolverError
from repro.solvers.cp.alldifferent import (
    matching_feasible,
    propagate_assignment,
    prune_singletons,
)
from repro.solvers.cp.domains import DomainStore
from repro.solvers.cp.labeling import (
    compatibility_domains,
    quick_infeasibility_check,
    threshold_degrees,
)


class TestDomainStore:
    def test_initial_state(self):
        store = DomainStore({"a": {1, 2}, "b": {3}})
        assert store.size("a") == 2
        assert store.is_assigned("b")
        assert store.value("b") == 3
        assert store.unassigned() == ["a"]
        assert not store.all_assigned()

    def test_empty_initial_domain_rejected(self):
        with pytest.raises(SolverError):
            DomainStore({"a": set()})

    def test_no_variables_rejected(self):
        with pytest.raises(SolverError):
            DomainStore({})

    def test_value_of_unassigned_raises(self):
        store = DomainStore({"a": {1, 2}})
        with pytest.raises(SolverError):
            store.value("a")

    def test_remove_and_wipeout(self):
        store = DomainStore({"a": {1, 2}})
        assert store.remove("a", 1)
        assert not store.remove("a", 2)  # wipeout
        assert store.size("a") == 0

    def test_remove_missing_value_is_noop(self):
        store = DomainStore({"a": {1}})
        assert store.remove("a", 99)
        assert store.size("a") == 1

    def test_assign(self):
        store = DomainStore({"a": {1, 2, 3}})
        assert store.assign("a", 2)
        assert store.value("a") == 2
        assert not store.assign("a", 3)  # 3 was already pruned

    def test_restrict(self):
        store = DomainStore({"a": {1, 2, 3, 4}})
        assert store.restrict("a", {2, 4})
        assert store.domain("a") == {2, 4}
        assert not store.restrict("a", {9})

    def test_checkpoint_restore(self):
        store = DomainStore({"a": {1, 2, 3}, "b": {1, 2}})
        mark = store.checkpoint()
        store.assign("a", 1)
        store.remove("b", 1)
        assert store.size("a") == 1 and store.size("b") == 1
        store.restore(mark)
        assert store.domain("a") == {1, 2, 3}
        assert store.domain("b") == {1, 2}

    def test_nested_checkpoints(self):
        store = DomainStore({"a": {1, 2, 3}})
        outer = store.checkpoint()
        store.remove("a", 1)
        inner = store.checkpoint()
        store.remove("a", 2)
        store.restore(inner)
        assert store.domain("a") == {2, 3}
        store.restore(outer)
        assert store.domain("a") == {1, 2, 3}


class TestAlldifferent:
    def test_propagate_assignment_removes_value(self):
        store = DomainStore({"a": {1}, "b": {1, 2}, "c": {1, 3}})
        assert propagate_assignment(store, "a", 1)
        assert store.domain("b") == {2}
        assert store.domain("c") == {3}

    def test_propagate_assignment_detects_wipeout(self):
        store = DomainStore({"a": {1}, "b": {1}})
        assert not propagate_assignment(store, "a", 1)

    def test_matching_feasible_positive(self):
        assert matching_feasible({"a": [1, 2], "b": [2, 3], "c": [1, 3]})

    def test_matching_feasible_negative(self):
        # Three variables squeezed into two values (a Hall violation).
        assert not matching_feasible({"a": [1, 2], "b": [1, 2], "c": [1, 2]})

    def test_matching_feasible_empty_domain(self):
        assert not matching_feasible({"a": [], "b": [1]})

    def test_matching_feasible_on_complete_domains_at_scale(self):
        # 1,000 variables over 1,100 values: a chain of alternating paths as
        # long as the variable count needs no recursion.
        domains = {var: set(range(1100)) for var in range(1000)}
        assert matching_feasible(domains)

    def test_prune_singletons_cascades(self):
        # Assigning a triggers b, which triggers c.
        store = DomainStore({"a": {1}, "b": {1, 2}, "c": {2, 3}})
        assert prune_singletons(store)
        assert store.value("b") == 2
        assert store.value("c") == 3

    def test_prune_singletons_detects_wipeout(self):
        store = DomainStore({"a": {1}, "b": {1}})
        assert not prune_singletons(store)


class TestLabeling:
    def _allowed(self, n, edges):
        allowed = np.zeros((n, n), dtype=bool)
        for a, b in edges:
            allowed[a, b] = True
        return allowed

    def test_threshold_degrees(self):
        allowed = self._allowed(3, [(0, 1), (1, 0), (0, 2)])
        degrees = threshold_degrees(allowed)
        assert degrees["out"][0] == 2
        assert degrees["in"][2] == 1
        assert degrees["undirected"][0] == 2

    def test_compatibility_filters_by_degree(self):
        graph = CommunicationGraph([0, 1, 2], [(0, 1), (1, 0), (1, 2), (2, 1)])
        # Instance graph: 0-1-2-3 path (bidirectional), instance 3 pendant.
        allowed = self._allowed(
            4, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)]
        )
        domains = compatibility_domains(graph, allowed)
        # Node 1 has (undirected) degree 2, so it cannot map to the pendant
        # instances 0 and 3.
        assert domains[1] <= {1, 2}
        # Degree-1 nodes can map anywhere compatible.
        assert 0 in domains[0] or 3 in domains[0]

    def test_quick_infeasibility_not_enough_instances(self):
        graph = CommunicationGraph.mesh_2d(2, 2)
        allowed = self._allowed(3, [(0, 1), (1, 0)])
        assert not quick_infeasibility_check(graph, allowed)

    def test_quick_infeasibility_not_enough_edges(self):
        graph = CommunicationGraph.complete(4)
        allowed = self._allowed(5, [(0, 1), (1, 0)])
        assert not quick_infeasibility_check(graph, allowed)

    def test_quick_infeasibility_passes_complete_graph(self):
        graph = CommunicationGraph.mesh_2d(2, 2)
        n = 5
        allowed = np.ones((n, n), dtype=bool)
        np.fill_diagonal(allowed, False)
        assert quick_infeasibility_check(graph, allowed)
