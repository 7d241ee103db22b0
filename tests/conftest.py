"""Shared fixtures and helpers for the ClouDiA reproduction test suite."""

from __future__ import annotations

import pytest

from repro.cloud import DatacenterTopology, ProviderProfile, SimulatedCloud
from repro.core import CommunicationGraph
# Re-exported so legacy `from conftest import ...` keeps working; new code
# should import these from repro.testing directly.
from repro.testing import brute_force_optimum, deterministic_cost_matrix

__all__ = ["brute_force_optimum", "deterministic_cost_matrix"]


def pytest_addoption(parser):
    parser.addoption(
        "--run-bench", action="store_true", default=False,
        help="also run tests marked slow (benchmark smoke tests)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-bench"):
        return
    skip_slow = pytest.mark.skip(reason="slow test: pass --run-bench to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture(scope="session", autouse=True)
def _no_shared_memory_litter():
    """The whole suite must leave ``/dev/shm`` exactly as it found it.

    No named shared-memory segment (token ``repro-<pid>-...``) may
    outlive the session.
    """
    import glob
    import os

    yield
    if os.path.isdir("/dev/shm"):
        litter = glob.glob(f"/dev/shm/repro-{os.getpid()}-*")
        assert not litter, f"leaked shared-memory segments: {litter}"


@pytest.fixture
def small_cloud() -> SimulatedCloud:
    """A compact EC2-profile cloud used across integration-style tests."""
    topology = DatacenterTopology(num_pods=3, racks_per_pod=4, hosts_per_rack=8, seed=11)
    return SimulatedCloud(profile=ProviderProfile.ec2(), topology=topology, seed=11)


@pytest.fixture
def allocated_ids(small_cloud: SimulatedCloud):
    """Twelve instances allocated from the small cloud."""
    return [inst.instance_id for inst in small_cloud.allocate(12)]


@pytest.fixture
def mesh_graph() -> CommunicationGraph:
    """A 3x3 bidirectional mesh, the smallest interesting HPC-style graph."""
    return CommunicationGraph.mesh_2d(3, 3)


@pytest.fixture
def provider_order_solver():
    """A solver that ignores placement constraints: it always returns the
    provider-order default plan, so the base class's plan check fires."""
    from repro.solvers import DeploymentSolver, SolverResult

    class ProviderOrder(DeploymentSolver):
        name = "provider-order"

        def _solve(self, problem, budget=None, initial_plan=None):
            plan = problem.default_plan()
            return SolverResult(
                plan=plan, cost=problem.evaluate(plan),
                objective=problem.objective, solver_name=self.name,
                solve_time_s=0.0, iterations=0, optimal=False)

    return ProviderOrder()


@pytest.fixture
def tree_graph() -> CommunicationGraph:
    """A small aggregation tree (binary, depth 2 => 7 nodes)."""
    return CommunicationGraph.aggregation_tree(branching=2, depth=2)


@pytest.fixture
def oversized_dag_problem():
    """A longest-path problem one node above the MIP's 64-node ceiling.

    The DAG is sparse (8 edges), so a solver that ignored the ceiling would
    still build and solve its MIP within seconds.
    """
    from repro.core import DeploymentProblem, Objective

    graph = CommunicationGraph(range(65),
                               [(i, i + 1) for i in range(0, 64, 8)])
    return DeploymentProblem(graph, deterministic_cost_matrix(66, seed=1),
                             objective=Objective.LONGEST_PATH)
