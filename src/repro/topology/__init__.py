"""Topology description: model, validation and dynamic events.

The experiment description language mirrors the paper's Listing 1/2:
``services`` (sets of containers sharing an image), ``bridges`` (switches and
routers), ``links`` (uni- or bi-directional, with latency / bandwidth /
jitter / loss), and ``dynamic`` events that mutate any of these while the
experiment runs.

Descriptions are read through :class:`repro.scenario.Scenario`
(``from_text`` / ``from_dict`` / ``from_xml`` / ``from_file`` / the
fluent builder), which compiles to the model defined here.
"""

from repro.topology.model import (
    Bridge,
    Link,
    LinkProperties,
    Service,
    Topology,
    TopologyError,
)
from repro.topology.events import (
    DynamicEvent,
    EventAction,
    EventSchedule,
)

__all__ = [
    "Topology",
    "Service",
    "Bridge",
    "Link",
    "LinkProperties",
    "TopologyError",
    "DynamicEvent",
    "EventAction",
    "EventSchedule",
]
