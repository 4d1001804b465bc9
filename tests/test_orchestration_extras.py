"""Tests for the YAML emitters."""

import pytest

from repro.orchestration import DeploymentGenerator, KOLLAPS_TAG
from repro.orchestration.emitters import (
    render_compose_file,
    render_kubernetes_manifests,
    render_plan,
    to_yaml,
)
from repro.topology import Bridge, LinkProperties, Service, Topology


def sample_topology() -> Topology:
    topology = Topology("emit")
    topology.add_service(Service("client", image="iperf"))
    topology.add_service(Service("web", image="nginx", replicas=3))
    topology.add_bridge(Bridge("s1"))
    topology.add_link("client", "s1", LinkProperties(bandwidth=1e9))
    topology.add_link("s1", "web", LinkProperties(bandwidth=1e9))
    return topology


class TestYamlSerializer:
    def test_scalar_types(self):
        text = to_yaml({"a": 1, "b": 1.5, "c": True, "d": False,
                        "e": None, "f": "plain", "g": "needs: quoting"})
        assert "a: 1" in text
        assert "b: 1.5" in text
        assert "c: true" in text
        assert "d: false" in text
        assert "e: null" in text
        assert "f: plain" in text
        assert 'g: "needs: quoting"' in text

    def test_ambiguous_strings_quoted(self):
        text = to_yaml({"answer": "no", "version": "3.7"})
        assert 'answer: "no"' in text
        assert 'version: "3.7"' in text

    def test_nested_structures(self):
        text = to_yaml({"top": {"inner": {"leaf": "x"}},
                        "items": ["one", "two"]})
        lines = text.splitlines()
        assert "top:" in lines[0]
        assert lines[1] == "  inner:"
        assert lines[2] == "    leaf: x"
        assert "- one" in text

    def test_empty_containers(self):
        text = to_yaml({"empty_map": {}, "empty_list": []})
        assert "empty_map: {}" in text
        assert "empty_list: []" in text

    def test_list_of_mappings_folds_marker(self):
        text = to_yaml({"items": [{"name": "a", "value": 1},
                                  {"name": "b", "value": 2}]})
        assert "- name: a" in text
        assert "- name: b" in text

    def test_parses_back_with_yaml_if_available(self):
        yaml = pytest.importorskip("yaml")
        document = {
            "version": "3.7",
            "services": {"web": {"image": "nginx",
                                 "deploy": {"replicas": 3},
                                 "volumes": ["/a:/b:ro"]}},
            "flags": [True, False],
        }
        assert yaml.safe_load(to_yaml(document)) == document


class TestRenderPlans:
    def test_compose_file_contents(self):
        plan = DeploymentGenerator(sample_topology()).swarm_plan(["m0", "m1"])
        text = render_compose_file(plan)
        assert "services:" in text
        assert "image: nginx" in text
        assert "kollaps-bootstrapper:" in text
        assert KOLLAPS_TAG in text

    def test_kubernetes_manifest_stream(self):
        plan = DeploymentGenerator(sample_topology()).kubernetes_plan(["m0"])
        text = render_kubernetes_manifests(plan)
        # One document per Deployment plus the DaemonSet.
        assert text.count("---") == 3
        assert "kind: DaemonSet" in text
        assert "hostPID: true" in text
        assert "NET_ADMIN" in text

    def test_render_plan_dispatch(self):
        generator = DeploymentGenerator(sample_topology())
        assert "version:" in render_plan(generator.swarm_plan(["m0"]))
        assert "kind:" in render_plan(generator.kubernetes_plan(["m0"]))

    def test_wrong_plan_type_rejected(self):
        generator = DeploymentGenerator(sample_topology())
        with pytest.raises(ValueError):
            render_compose_file(generator.kubernetes_plan(["m0"]))
        with pytest.raises(ValueError):
            render_kubernetes_manifests(generator.swarm_plan(["m0"]))

    def test_round_trip_with_yaml_if_available(self):
        yaml = pytest.importorskip("yaml")
        plan = DeploymentGenerator(sample_topology()).swarm_plan(["m0"])
        assert yaml.safe_load(render_compose_file(plan)) == plan.document
