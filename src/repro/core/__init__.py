"""The Kollaps core: collapsing, bandwidth sharing, congestion, engine.

This package implements the paper's primary contribution (§3):

* :mod:`repro.core.properties` — end-to-end property composition,
* :mod:`repro.core.collapse` — network collapsing via all-pairs shortest
  paths,
* :mod:`repro.core.sharing` — the RTT-aware min-max bandwidth model with the
  work-conserving maximization step,
* :mod:`repro.core.congestion` — packet-loss injection proportional to
  oversubscription,
* :mod:`repro.core.emucore` / :mod:`repro.core.manager` /
  :mod:`repro.core.engine` — Emulation Cores, Emulation Managers and the
  distributed emulation loop,
* :mod:`repro.core.dynamic` — offline pre-computation of dynamic graphs.

Direct :class:`EmulationEngine` construction keeps working, but new code
should assemble experiments through the unified Scenario API
(:mod:`repro.scenario`) and obtain engines via
``Scenario...compile().engine()`` — the single validated choke point the
CLI, examples and experiment runners all use.
"""

from repro._lazy import lazy_exports
# Eager: the first import of the ``collapse`` submodule binds the package's
# ``collapse`` attribute to the module; importing it here, before anyone
# else can, leaves the name bound to the function.
from repro.core.properties import PathProperties, compose_path
from repro.core.collapse import (
    CollapsedPath,
    CollapsedTopology,
    clear_collapse_cache,
    collapse,
    collapse_cache_stats,
    topology_signature,
)

_LAZY = {
    "sharing": ("FlowDemand", "LinkUsage", "paper_two_step_shares",
                "rtt_aware_max_min"),
    "congestion": ("combine_loss", "congestion_loss"),
    "dynamic": ("DynamicTopologyPlan", "TopologyState"),
    "emucore": ("EmulationCore",),
    "engine": ("EmulationEngine", "EngineConfig"),
    "manager": ("EmulationManager",),
}
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)

__all__ = [
    "PathProperties",
    "compose_path",
    "CollapsedPath",
    "CollapsedTopology",
    "collapse",
    "clear_collapse_cache",
    "collapse_cache_stats",
    "topology_signature",
    "FlowDemand",
    "LinkUsage",
    "rtt_aware_max_min",
    "paper_two_step_shares",
    "congestion_loss",
    "combine_loss",
    "DynamicTopologyPlan",
    "TopologyState",
    "EmulationEngine",
    "EngineConfig",
    "EmulationManager",
    "EmulationCore",
]
