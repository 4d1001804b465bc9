"""`.scn` — the canonical on-disk scenario format, with a hard
round-trip guarantee.

``dump_scn`` serializes a compiled scenario (or a builder) into a
versioned JSON document; ``load_scn`` turns such a document back into a
:class:`~repro.scenario.builder.Scenario`.  The contract, enforced by
``tests/test_scenario_dsl.py`` over every example and thousands of
fuzzed scenarios:

    compile → dump → reload → recompile
    ⇒ byte-identical ``describe()`` and ``path_table()``

which makes the ``.scn`` file a faithful, reviewable artifact of the
experiment — and the choke point every description format passes
through: text, dict and XML lower into a ``.scn`` document
(:mod:`repro.scenario.frontends`) and load from there.

Design notes:

* Dumps are canonical: SI base units only, defaults omitted, one stable
  key order, ``float('inf')`` spelled ``"unlimited"`` (JSON has no
  Infinity).  Loads are liberal: unit strings (``"10ms"``, ``"100Mbps"``,
  ``"2%"``) are accepted everywhere a number is.
* THUNDERSTORM scripts may appear in a hand-written document (they lower
  into events at compile time); dumps always emit the lowered events, so
  a dumped file never depends on the script compiler.
* :class:`~repro.scenario.workloads.CustomWorkload` carries callables and
  is therefore not serializable; dumping one is a loud :class:`ScnError`.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.scenario.builder import Scenario
from repro.scenario.dsl.schema import (
    CHANGES,
    LINK,
    PROPERTIES,
    SCN_VERSION,
    SERVICE,
    WORKLOADS,
    Diagnostic,
    validate_document,
)
from repro.topology.events import DynamicEvent, EventAction
from repro.topology.model import LinkProperties, TopologyError
from repro.units import coerce_time

__all__ = ["ScnError", "scn_document", "dumps_scn", "dump_scn",
           "scenario_from_scn", "loads_scn", "load_scn"]


class ScnError(TopologyError):
    """A `.scn` document failed to parse, validate or serialize.

    ``diagnostics`` carries every individual finding when the failure
    came from schema validation.
    """

    def __init__(self, message: str,
                 diagnostics: Optional[List[Diagnostic]] = None) -> None:
        self.diagnostics = list(diagnostics or [])
        if self.diagnostics:
            message += "\n" + "\n".join(str(item)
                                        for item in self.diagnostics)
        super().__init__(message)


# --------------------------------------------------------------------------
# Dumping.
# --------------------------------------------------------------------------
def _event_out(event: DynamicEvent) -> Dict:
    out: Dict = {"time": event.time, "action": event.action.value}
    if event.action in (EventAction.JOIN_NODE, EventAction.LEAVE_NODE):
        out["name"] = event.name
        return out
    out["orig"] = event.origin
    out["dest"] = event.destination
    if event.action is EventAction.SET_LINK and event.changes:
        # Only what the event names, in the order it names it.
        out["changes"] = {name: PROPERTIES.by_key[name].unit.dump(value)
                          for name, value in event.changes.items()}
    if event.properties is not None:
        out["properties"] = PROPERTIES.dump(event.properties)
    if not event.bidirectional:
        out["bidirectional"] = False
    return out


def _workload_out(workload) -> Dict:
    record = WORKLOADS.get(workload.kind)
    if record is None or not isinstance(workload, record.cls):
        raise ScnError(
            f"workload {getattr(workload, 'key', workload)!r} of type "
            f"{type(workload).__name__} is not .scn-serializable (custom "
            f"workloads carry Python callables; keep those scenarios in .py)")
    if not isinstance(workload.key, str):
        raise ScnError(f"workload key {workload.key!r} is not a string; "
                       f".scn files require string keys")
    # What it is heads the mapping: kind, key, then the record in order.
    return {"kind": workload.kind, "key": workload.key,
            **record.dump(workload)}


def _deploy_out(compiled) -> Dict:
    import dataclasses

    from repro.core.engine import EngineConfig
    out: Dict = {}
    defaults = EngineConfig()
    config = compiled.config
    if config.machines != defaults.machines:
        out["machines"] = config.machines
    if config.seed != defaults.seed:
        out["seed"] = config.seed
    if compiled.duration is not None:
        out["duration"] = compiled.duration
    if compiled.placement is not None:
        out["placement"] = dict(sorted(compiled.placement.items()))
    for field in sorted(dataclasses.fields(EngineConfig),
                        key=lambda item: item.name):
        if field.name in ("machines", "seed"):
            continue
        value = getattr(config, field.name)
        if value != getattr(defaults, field.name):
            out[field.name] = value
    return out


def scn_document(scenario) -> Dict:
    """The canonical ``.scn`` dict for a scenario (builder or compiled)."""
    compiled = scenario.compile() if isinstance(scenario, Scenario) \
        else scenario
    document: Dict = {"scn": SCN_VERSION, "name": compiled.name}
    if compiled.services:
        document["services"] = [SERVICE.dump(spec)
                                for spec in compiled.services]
    if compiled.bridge_specs:
        document["bridges"] = [spec.name for spec in compiled.bridge_specs]
    if compiled.link_specs:
        document["links"] = [LINK.dump(spec) for spec in compiled.link_specs]
    if len(compiled.schedule):
        document["events"] = [_event_out(event)
                              for event in compiled.schedule]
    if compiled.workloads:
        document["workloads"] = [_workload_out(workload)
                                 for workload in compiled.workloads]
    deploy = _deploy_out(compiled)
    if deploy:
        document["deploy"] = deploy
    return document


def dumps_scn(scenario) -> str:
    """Canonical ``.scn`` text for a scenario (builder or compiled)."""
    return json.dumps(scn_document(scenario), indent=2,
                      allow_nan=False) + "\n"


def dump_scn(scenario, path) -> None:
    """Write the canonical ``.scn`` file for a scenario."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_scn(scenario))


# --------------------------------------------------------------------------
# Loading.
# --------------------------------------------------------------------------
def scenario_from_scn(document: Dict, *, validate: bool = True) -> Scenario:
    """A :class:`Scenario` builder from a ``.scn`` document dict.

    With ``validate`` (the default) the document is schema-checked first
    and every error is reported in one :class:`ScnError`.
    """
    if validate:
        errors = [item for item in validate_document(document)
                  if item.severity == "error"]
        if errors:
            raise ScnError(f"invalid .scn document "
                           f"({len(errors)} error(s))", errors)

    builder = Scenario.build(document.get("name", "experiment"))
    for spec in document.get("services", []):
        builder.service(**SERVICE.load(spec))
    for name in document.get("bridges", []):
        builder.bridge(name)
    for spec in document.get("links", []):
        builder.link(**LINK.load(spec))
    for spec in document.get("events", []):
        builder.event(_event_in(spec))
    for text in document.get("scripts", []):
        builder.script(text)
    for spec in document.get("workloads", []):
        builder.workload(_workload_in(spec))
    deploy = dict(document.get("deploy", {}))
    if deploy:
        duration = deploy.pop("duration", None)
        builder.deploy(
            machines=deploy.pop("machines", None),
            seed=deploy.pop("seed", None),
            placement=deploy.pop("placement", None),
            duration=None if duration is None else coerce_time(duration),
            **deploy)
    return builder


def _event_in(spec: Dict) -> DynamicEvent:
    action = EventAction(spec["action"])
    time = coerce_time(spec["time"])
    if action in (EventAction.JOIN_NODE, EventAction.LEAVE_NODE):
        return DynamicEvent(time=time, action=action, name=spec["name"])
    properties = None
    if "properties" in spec:
        properties = LinkProperties(**PROPERTIES.load(spec["properties"]))
    return DynamicEvent(time=time, action=action, origin=spec["orig"],
                        destination=spec["dest"], properties=properties,
                        changes=CHANGES.load(spec.get("changes", {})),
                        bidirectional=spec.get("bidirectional", True))


def _workload_in(spec: Dict):
    record = WORKLOADS.get(spec["kind"])
    if record is None:
        raise ScnError(f"unknown workload kind {spec['kind']!r}")
    return record.cls(**record.load(spec))


def loads_scn(text: str, *, validate: bool = True,
              source: str = "<string>") -> Scenario:
    """A :class:`Scenario` from ``.scn`` text (JSON, or YAML when the
    interpreter has a YAML parser available)."""
    document = _parse_scn_text(text, source)
    return scenario_from_scn(document, validate=validate)


def load_scn(path, *, validate: bool = True) -> Scenario:
    """A :class:`Scenario` from a ``.scn`` file on disk."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return loads_scn(text, validate=validate, source=str(path))


def _parse_scn_text(text: str, source: str) -> Dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as json_error:
        try:
            import yaml  # optional; the container may not ship it
        except ImportError:
            raise ScnError(
                f"{source}:{json_error.lineno}:{json_error.colno}: "
                f"not valid JSON ({json_error.msg}) and no YAML parser "
                f"is installed") from json_error
        try:
            document = yaml.safe_load(text)
        except yaml.YAMLError as yaml_error:
            raise ScnError(f"{source}: neither valid JSON "
                           f"({json_error.msg}) nor valid YAML "
                           f"({yaml_error})") from yaml_error
        if not isinstance(document, dict):
            raise ScnError(f"{source}: a .scn document is a mapping, "
                           f"got {type(document).__name__}")
        return document
