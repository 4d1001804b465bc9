"""Semantic scenario diff: review changes to the compiled form, not text.

``diff_scenarios(a, b)`` compares two compiled scenarios at the level
that matters — services, bridges, directed links and their properties,
dynamic events, workloads, deployment settings — so two descriptions
that *compile* to the same experiment diff empty, however differently
they were written (fluent builder vs text listing vs ``.scn``), and a
real change shows up as the entity that changed, not a wall of textual
noise.

Each difference is a :class:`DiffEntry` (``+`` added in B, ``-``
removed in B, ``~`` changed); ``repro scenario diff A B`` prints them
and exits 0 when identical, 1 when different.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List

from repro.scenario.dsl.format import ScnError, _deploy_out, _event_out, \
    _workload_out
from repro.scenario.dsl.schema import PROPERTIES, SERVICE

__all__ = ["DiffEntry", "ScenarioDiff", "diff_scenarios"]


@dataclass(frozen=True)
class DiffEntry:
    """One semantic difference between two compiled scenarios."""

    op: str        # "+" added in B | "-" removed in B | "~" changed
    kind: str      # "service" | "bridge" | "link" | "event" | ...
    subject: str   # which entity, e.g. "c1" or "s1->s2"
    detail: str = ""

    def __str__(self) -> str:
        line = f"{self.op} {self.kind} {self.subject}"
        if self.detail:
            line += f": {self.detail}"
        return line


class ScenarioDiff:
    """All semantic differences, ordered by section."""

    def __init__(self, entries: List[DiffEntry]) -> None:
        self.entries = list(entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def to_text(self) -> str:
        if not self.entries:
            return "scenarios are semantically identical\n"
        return "\n".join(str(entry) for entry in self.entries) + "\n"

    def to_dict(self) -> Dict:
        return {"identical": not self.entries,
                "differences": [{"op": entry.op, "kind": entry.kind,
                                 "subject": entry.subject,
                                 "detail": entry.detail}
                                for entry in self.entries]}


# --------------------------------------------------------------------------
# Canonical models per section.
# --------------------------------------------------------------------------
def _value(item) -> str:
    if item == float("inf"):
        return "unlimited"
    if isinstance(item, float):
        return f"{item:g}"
    return str(item)


def _services_model(compiled) -> Dict[str, Dict]:
    """Every service field the schema's record names, keyed by name."""
    return {service.name: {field.name: getattr(service, field.name)
                           for field in SERVICE.fields
                           if field.name != "name"}
            for service in compiled.topology.services.values()}


def _links_model(compiled) -> Dict[str, Dict]:
    """Every directed link's properties, as the schema's record names
    them, and its network."""
    model: Dict[str, Dict] = {}
    for link in compiled.topology.links():
        fields = {field.name: getattr(link.properties, field.name)
                  for field in PROPERTIES.fields}
        fields["network"] = link.network
        model[f"{link.source}->{link.destination}"] = fields
    return model


def _events_model(compiled) -> List[str]:
    return [json.dumps(_event_out(event), sort_keys=True)
            for event in compiled.schedule]


def _workloads_model(compiled) -> Dict[str, Dict]:
    model: Dict[str, Dict] = {}
    for workload in compiled.workloads:
        try:
            model[str(workload.key)] = _workload_out(workload)
        except ScnError:
            # Custom workloads carry callables; compare by shape only.
            model[str(workload.key)] = {"kind": workload.kind,
                                        "key": str(workload.key),
                                        "type": type(workload).__name__}
    return model


def _mapping_diff(kind: str, before: Dict[str, Dict],
                  after: Dict[str, Dict]) -> List[DiffEntry]:
    entries: List[DiffEntry] = []
    for name in sorted(before.keys() - after.keys()):
        entries.append(DiffEntry("-", kind, name, _summary(before[name])))
    for name in sorted(after.keys() - before.keys()):
        entries.append(DiffEntry("+", kind, name, _summary(after[name])))
    for name in sorted(before.keys() & after.keys()):
        # A model may omit a field that sits at its default (workloads
        # are modelled by their canonical dump): compare over the union.
        fields = list(before[name]) + [field for field in after[name]
                                       if field not in before[name]]
        changed = [f"{field} {_shown(before[name], field)} -> "
                   f"{_shown(after[name], field)}"
                   for field in fields
                   if before[name].get(field) != after[name].get(field)]
        if changed:
            entries.append(DiffEntry("~", kind, name, ", ".join(changed)))
    return entries


def _summary(fields: Dict) -> str:
    parts = [f"{name}={_value(value)}" for name, value in fields.items()
             if value not in (None, {}, ()) and name not in ("key",)]
    return ", ".join(parts)


# --------------------------------------------------------------------------
# The diff.
# --------------------------------------------------------------------------
def diff_scenarios(before, after) -> ScenarioDiff:
    """Semantic differences between two compiled scenarios (A → B)."""
    entries: List[DiffEntry] = []
    if before.name != after.name:
        entries.append(DiffEntry("~", "scenario", "name",
                                 f"{before.name} -> {after.name}"))

    entries += _mapping_diff("service", _services_model(before),
                             _services_model(after))

    bridges_a = set(before.topology.bridges)
    bridges_b = set(after.topology.bridges)
    entries += [DiffEntry("-", "bridge", name)
                for name in sorted(bridges_a - bridges_b)]
    entries += [DiffEntry("+", "bridge", name)
                for name in sorted(bridges_b - bridges_a)]

    entries += _mapping_diff("link", _links_model(before),
                             _links_model(after))

    events_a, events_b = _events_model(before), _events_model(after)
    counts: Dict[str, int] = {}
    for text in events_a:
        counts[text] = counts.get(text, 0) + 1
    for text in events_b:
        counts[text] = counts.get(text, 0) - 1
    for text in sorted(counts):
        event = json.loads(text)
        subject = _event_subject(event)
        for _ in range(counts[text]):
            entries.append(DiffEntry("-", "event", subject,
                                     _summary(event)))
        for _ in range(-counts[text]):
            entries.append(DiffEntry("+", "event", subject,
                                     _summary(event)))

    entries += _mapping_diff("workload", _workloads_model(before),
                             _workloads_model(after))

    deploy_a = dict(_deploy_out(before))
    deploy_b = dict(_deploy_out(after))
    for name in sorted(deploy_a.keys() | deploy_b.keys()):
        if deploy_a.get(name) != deploy_b.get(name):
            entries.append(DiffEntry(
                "~", "deploy", name,
                f"{_shown(deploy_a, name)} -> {_shown(deploy_b, name)}"))
    return ScenarioDiff(entries)


def _event_subject(event: Dict) -> str:
    time = event.get("time", 0.0)
    action = event.get("action", "?")
    if "name" in event:
        return f"t={time:g} {action} {event['name']}"
    return f"t={time:g} {action} {event.get('orig')}->{event.get('dest')}"


def _shown(fields: Dict, name: str) -> str:
    """A field's value as printed; one the model omits is at its default."""
    if name not in fields:
        return "(default)"
    return _value(fields[name])
