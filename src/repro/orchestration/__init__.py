"""Deployment generation and container-orchestrator integration (§4).

The Deployment Generator turns an experiment description into a
ready-to-deploy plan: a Docker-Compose-like document for Swarm mode (which
additionally needs the privileged *bootstrapper* per machine, since Swarm
cannot grant ``CAP_NET_ADMIN``) or a Kubernetes-manifest-like document
(where the Emulation Manager deploys as a DaemonSet and no bootstrapper is
needed).
"""

from repro.orchestration.generator import (
    DeploymentGenerator,
    DeploymentPlan,
    KOLLAPS_TAG,
)
from repro.orchestration.emitters import (
    render_compose_file,
    render_kubernetes_manifests,
    render_plan,
    to_yaml,
)

__all__ = [
    "DeploymentGenerator",
    "DeploymentPlan",
    "KOLLAPS_TAG",
    "render_compose_file",
    "render_kubernetes_manifests",
    "render_plan",
    "to_yaml",
]
