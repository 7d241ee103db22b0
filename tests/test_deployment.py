"""Tests for deployment plans (injective node -> instance mappings)."""

import pytest

from repro.core import CommunicationGraph, DeploymentPlan, InvalidDeploymentError


class TestConstruction:
    def test_basic_mapping(self):
        plan = DeploymentPlan({0: 10, 1: 11})
        assert plan.instance_for(0) == 10
        assert plan.node_for(11) == 1
        assert plan.node_for(99) is None

    def test_rejects_non_injective(self):
        with pytest.raises(InvalidDeploymentError):
            DeploymentPlan({0: 10, 1: 10})

    def test_rejects_empty(self):
        with pytest.raises(InvalidDeploymentError):
            DeploymentPlan({})

    def test_identity_uses_provider_order(self):
        plan = DeploymentPlan.identity([0, 1, 2], [30, 20, 10, 5])
        assert plan.instance_for(0) == 30
        assert plan.instance_for(2) == 10

    def test_identity_rejects_too_few_instances(self):
        with pytest.raises(InvalidDeploymentError):
            DeploymentPlan.identity([0, 1, 2], [7])

    def test_random_is_injective_and_seedable(self):
        nodes = list(range(10))
        instances = list(range(100, 115))
        a = DeploymentPlan.random(nodes, instances, rng=5)
        b = DeploymentPlan.random(nodes, instances, rng=5)
        assert a == b
        assert len(set(a.used_instances())) == 10
        assert set(a.used_instances()) <= set(instances)

    def test_random_rejects_too_few_instances(self):
        with pytest.raises(InvalidDeploymentError):
            DeploymentPlan.random([0, 1, 2], [7, 8], rng=0)

    def test_from_permutation(self):
        plan = DeploymentPlan.from_permutation([0, 1], [5, 6, 7], [2, 0])
        assert plan.instance_for(0) == 7
        assert plan.instance_for(1) == 5

    def test_from_permutation_length_mismatch(self):
        with pytest.raises(InvalidDeploymentError):
            DeploymentPlan.from_permutation([0, 1], [5, 6], [0])


class TestAccessors:
    def test_unused_instances(self):
        plan = DeploymentPlan({0: 10, 1: 12})
        assert plan.unused_instances([10, 11, 12, 13]) == [11, 13]

    def test_missing_node_raises(self):
        plan = DeploymentPlan({0: 10})
        with pytest.raises(InvalidDeploymentError):
            plan.instance_for(5)

    def test_covers(self):
        graph = CommunicationGraph([0, 1, 2], [(0, 1), (1, 2)])
        assert DeploymentPlan({0: 5, 1: 6, 2: 7}).covers(graph)
        assert not DeploymentPlan({0: 5, 1: 6}).covers(graph)

    def test_as_dict_is_copy(self):
        plan = DeploymentPlan({0: 10})
        mapping = plan.as_dict()
        mapping[0] = 99
        assert plan.instance_for(0) == 10

    def test_equality_and_hash(self):
        a = DeploymentPlan({0: 1, 1: 2})
        b = DeploymentPlan({1: 2, 0: 1})
        assert a == b
        assert hash(a) == hash(b)


class TestDerivedPlans:
    def test_swap_exchanges_instances(self):
        plan = DeploymentPlan({0: 10, 1: 11})
        swapped = plan.with_swap(0, 1)
        assert swapped.instance_for(0) == 11
        assert swapped.instance_for(1) == 10
        # The original plan is unchanged.
        assert plan.instance_for(0) == 10

    def test_relocation_to_unused_instance(self):
        plan = DeploymentPlan({0: 10, 1: 11})
        moved = plan.with_relocation(0, 15)
        assert moved.instance_for(0) == 15
        assert moved.instance_for(1) == 11

    def test_relocation_to_used_instance_rejected(self):
        plan = DeploymentPlan({0: 10, 1: 11})
        with pytest.raises(InvalidDeploymentError):
            plan.with_relocation(0, 11)

    def test_relocation_to_own_instance_is_noop(self):
        plan = DeploymentPlan({0: 10, 1: 11})
        same = plan.with_relocation(0, 10)
        assert same == plan

    def test_restricted_to(self):
        plan = DeploymentPlan({0: 10, 1: 11, 2: 12})
        restricted = plan.restricted_to([0, 2])
        assert restricted.num_nodes == 2
        assert restricted.instance_for(2) == 12
