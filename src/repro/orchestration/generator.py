"""The Deployment Generator: experiment description -> deployment plan.

Mirrors §3/§4: services become orchestrator service entries tagged with the
Kollaps supervision label; the topology descriptor is mounted for every
Emulation Manager; Swarm plans add the bootstrapper global service, while
Kubernetes plans express the manager as a privileged DaemonSet with host
PID namespace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.topology.model import Topology

__all__ = ["DeploymentGenerator", "DeploymentPlan", "KOLLAPS_TAG"]

# The label that tells the Emulation Manager which containers to supervise
# (the "tag injected in the configuration" of §4).
KOLLAPS_TAG = "kollaps.emulated"


@dataclass
class DeploymentPlan:
    """A generated, orchestrator-specific deployment document."""

    orchestrator: str                    # "swarm" | "kubernetes"
    document: Dict                       # compose- or manifest-like dict
    placement: Dict[str, str]            # container -> machine
    needs_bootstrapper: bool


class DeploymentGenerator:
    """Generates Swarm or Kubernetes deployment plans for a topology."""

    def __init__(self, topology: Topology, *,
                 topology_descriptor_path: str = "/etc/kollaps/topology.yaml"
                 ) -> None:
        self.topology = topology
        self.descriptor_path = topology_descriptor_path

    # ----------------------------------------------------------- placement
    def place(self, machines: List[str],
              strategy: str = "spread") -> Dict[str, str]:
        """Assign containers to machines.

        ``spread`` round-robins containers for even load; ``pack`` fills a
        machine before moving on (useful to minimize cross-host metadata).
        """
        containers = self.topology.container_names()
        if not machines:
            raise ValueError("no machines to place on")
        placement: Dict[str, str] = {}
        if strategy == "spread":
            for index, container in enumerate(containers):
                placement[container] = machines[index % len(machines)]
        elif strategy == "pack":
            per_machine = -(-len(containers) // len(machines))
            for index, container in enumerate(containers):
                placement[container] = machines[index // per_machine]
        else:
            raise ValueError(f"unknown placement strategy {strategy!r}")
        return placement

    # --------------------------------------------------------------- swarm
    def swarm_plan(self, machines: List[str],
                   strategy: str = "spread") -> DeploymentPlan:
        """A Docker-Compose (stack) document plus the bootstrapper."""
        placement = self.place(machines, strategy)
        services: Dict[str, Dict] = {}
        for service in self.topology.services.values():
            services[service.name] = {
                "image": service.image,
                "deploy": {"replicas": service.replicas},
                "labels": {KOLLAPS_TAG: "true"},
                "networks": ["kollaps_overlay"],
            }
            if service.command:
                services[service.name]["command"] = service.command
        # The bootstrapper runs once per machine (mode: global) and starts
        # the privileged Emulation Manager outside Swarm (§4).
        services["kollaps-bootstrapper"] = {
            "image": "kollaps/bootstrapper",
            "deploy": {"mode": "global"},
            "labels": {KOLLAPS_TAG: "false"},
            "volumes": ["/var/run/docker.sock:/var/run/docker.sock",
                        f"{self.descriptor_path}:{self.descriptor_path}:ro"],
            "networks": ["kollaps_overlay"],
        }
        document = {
            "version": "3.7",
            "services": services,
            "networks": {"kollaps_overlay": {"driver": "overlay",
                                             "attachable": True}},
        }
        return DeploymentPlan(orchestrator="swarm", document=document,
                              placement=placement, needs_bootstrapper=True)

    # ---------------------------------------------------------- kubernetes
    def kubernetes_plan(self, machines: List[str],
                        strategy: str = "spread") -> DeploymentPlan:
        """Kubernetes manifests: Deployments + the EM DaemonSet."""
        placement = self.place(machines, strategy)
        items: List[Dict] = []
        for service in self.topology.services.values():
            items.append({
                "apiVersion": "apps/v1",
                "kind": "Deployment",
                "metadata": {"name": service.name,
                             "labels": {KOLLAPS_TAG: "true"}},
                "spec": {
                    "replicas": service.replicas,
                    "selector": {"matchLabels": {"app": service.name}},
                    "template": {
                        "metadata": {"labels": {"app": service.name,
                                                KOLLAPS_TAG: "true"}},
                        "spec": {"containers": [{
                            "name": service.name,
                            "image": service.image,
                        }]},
                    },
                },
            })
        # Under Kubernetes the Emulation Manager deploys directly as a
        # privileged DaemonSet — no bootstrapper needed (§4).
        items.append({
            "apiVersion": "apps/v1",
            "kind": "DaemonSet",
            "metadata": {"name": "kollaps-emulation-manager"},
            "spec": {"template": {"spec": {
                "hostPID": True,
                "containers": [{
                    "name": "emulation-manager",
                    "image": "kollaps/emulation-manager",
                    "securityContext": {
                        "privileged": True,
                        "capabilities": {"add": ["NET_ADMIN"]},
                    },
                    "volumeMounts": [{
                        "name": "topology",
                        "mountPath": self.descriptor_path,
                        "readOnly": True,
                    }],
                }],
            }}},
        })
        document = {"apiVersion": "v1", "kind": "List", "items": items}
        return DeploymentPlan(orchestrator="kubernetes", document=document,
                              placement=placement, needs_bootstrapper=False)

