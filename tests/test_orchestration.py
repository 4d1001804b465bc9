"""Deployment generator, placement strategies and the cluster model."""

import pytest

from repro.cluster import Cluster, Machine
from repro.orchestration import DeploymentGenerator, KOLLAPS_TAG
from repro.topology import LinkProperties, Service, Topology


def sample_topology():
    topology = Topology()
    topology.add_service(Service("web", image="nginx", replicas=3))
    topology.add_service(Service("db", image="postgres",
                                 command="postgres -c max_connections=10"))
    return topology


class TestPlacement:
    def test_spread_round_robins(self):
        generator = DeploymentGenerator(sample_topology())
        placement = generator.place(["m0", "m1"], strategy="spread")
        machines = [placement[c] for c in ("web.0", "web.1", "web.2", "db")]
        assert machines == ["m0", "m1", "m0", "m1"]

    def test_pack_fills_first_machine(self):
        generator = DeploymentGenerator(sample_topology())
        placement = generator.place(["m0", "m1"], strategy="pack")
        assert placement["web.0"] == placement["web.1"] == "m0"
        assert placement["db"] == "m1"

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            DeploymentGenerator(sample_topology()).place(["m0"], "random")

    def test_no_machines_rejected(self):
        with pytest.raises(ValueError):
            DeploymentGenerator(sample_topology()).place([])


class TestSwarmPlan:
    def test_services_tagged_and_replicated(self):
        plan = DeploymentGenerator(sample_topology()).swarm_plan(["m0"])
        services = plan.document["services"]
        assert services["web"]["deploy"]["replicas"] == 3
        assert services["web"]["labels"][KOLLAPS_TAG] == "true"
        assert services["db"]["command"].startswith("postgres")

    def test_bootstrapper_is_global_and_untagged(self):
        plan = DeploymentGenerator(sample_topology()).swarm_plan(["m0", "m1"])
        bootstrapper = plan.document["services"]["kollaps-bootstrapper"]
        assert bootstrapper["deploy"]["mode"] == "global"
        assert bootstrapper["labels"][KOLLAPS_TAG] == "false"
        assert plan.needs_bootstrapper

    def test_overlay_network_declared(self):
        plan = DeploymentGenerator(sample_topology()).swarm_plan(["m0"])
        assert "kollaps_overlay" in plan.document["networks"]


class TestKubernetesPlan:
    def test_manifest_structure(self):
        plan = DeploymentGenerator(sample_topology()).kubernetes_plan(["m0"])
        kinds = [item["kind"] for item in plan.document["items"]]
        assert kinds.count("Deployment") == 2
        assert kinds.count("DaemonSet") == 1
        assert not plan.needs_bootstrapper

    def test_daemonset_is_privileged_with_net_admin(self):
        plan = DeploymentGenerator(sample_topology()).kubernetes_plan(["m0"])
        daemonset = [item for item in plan.document["items"]
                     if item["kind"] == "DaemonSet"][0]
        container = daemonset["spec"]["template"]["spec"]["containers"][0]
        assert container["securityContext"]["privileged"]
        assert "NET_ADMIN" in \
            container["securityContext"]["capabilities"]["add"]

    def test_emulated_containers_listed(self):
        plan = DeploymentGenerator(sample_topology()).kubernetes_plan(["m0"])
        assert set(plan.placement) == \
            {"web.0", "web.1", "web.2", "db"}


class TestCluster:
    def test_round_robin_even_spread(self):
        cluster = Cluster(3)
        placement = cluster.place_round_robin(
            [f"c{i}" for i in range(9)])
        counts = {}
        for machine in placement.values():
            counts[machine] = counts.get(machine, 0) + 1
        assert set(counts.values()) == {3}

    def test_machine_of(self):
        cluster = Cluster(2)
        cluster.place_round_robin(["a", "b"])
        assert cluster.placement() == {"a": "host-0", "b": "host-1"}

    def test_double_placement_rejected(self):
        machine = Machine("m")
        machine.host("a")
        with pytest.raises(ValueError):
            machine.host("a")

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            Cluster(0)
