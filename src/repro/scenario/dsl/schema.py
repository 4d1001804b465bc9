"""The `.scn` document schema: versioned, validated, pointer-diagnosed.

A ``.scn`` file is the canonical on-disk form of a scenario — a plain
JSON/YAML-compatible dict covering everything a
:class:`~repro.scenario.builder.Scenario` declares: topology (services,
bridges, links), dynamic events, THUNDERSTORM scripts, workloads and
deployment settings.  This module owns the *shape* of that document:
:func:`validate_document` walks a candidate dict and returns every
problem as a :class:`Diagnostic` with a JSON-path-style pointer
(``links[2].up``), so ``repro scenario lint`` can report all of them at
once instead of failing on the first.

The vocabulary of the document — which fields a service, a link, link
properties and each workload kind have — is written once, in the
field → :class:`Unit` table below.  The dataclass owns the names, the
canonical key order, which fields are required and every default; the
unit owns how a value is checked, loaded (``"10ms"`` → seconds,
``"100Mbps"`` → bits/s, ``"unlimited"`` → inf) and dumped.
:meth:`Record.check`, :meth:`Record.load` and :meth:`Record.dump` are the
only code that walks a record, shared by the validator here and the
dumper and loader in :mod:`repro.scenario.dsl.format`, so the three can
never drift (see docs/scenarios.md, "Adding a field or a workload kind").
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, \
    Tuple, Union

from repro.scenario.builder import ERROR, LinkSpec, ServiceSpec, \
    scenario_findings
from repro.scenario.workloads import (
    CurlSwarmWorkload,
    FlowWorkload,
    HttpLoadWorkload,
    IperfWorkload,
    MemtierWorkload,
    PingWorkload,
    SmrWorkload,
    YcsbWorkload,
)
from repro.topology.model import LinkProperties
from repro.units import UnitError, coerce_loss, coerce_rate, coerce_time

__all__ = ["SCN_VERSION", "Diagnostic", "validate_document"]

#: Version stamp every document carries; bumped on incompatible changes.
SCN_VERSION = 1

@dataclass(frozen=True)
class Diagnostic:
    """One lint finding: severity, a pointer into the document, a message."""

    severity: str          # "error" | "warning"
    path: str              # JSON-path-ish pointer, e.g. "links[2].up"
    message: str

    def __str__(self) -> str:
        where = self.path or "document"
        return f"{self.severity}: {where}: {self.message}"


# --------------------------------------------------------------------------
# Checks: each returns an error message or None.
# --------------------------------------------------------------------------
def _is_a(kind: type, article: str) -> Callable:
    def check(value) -> Optional[str]:
        return None if isinstance(value, kind) else \
            f"expected {article}, got {type(value).__name__}"
    return check


_is_str = _is_a(str, "a string")
_is_bool = _is_a(bool, "a boolean")


def _is_mapping(value) -> Optional[str]:
    return None if isinstance(value, dict) else "expected a mapping"


def _is_int(minimum: int) -> Callable:
    def check(value) -> Optional[str]:
        if isinstance(value, bool) or not isinstance(value, int):
            return f"expected an integer, got {type(value).__name__}"
        if value < minimum:
            return f"expected an integer >= {minimum}, got {value}"
        return None
    return check


def _is_number(value) -> Optional[str]:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return f"expected a number, got {type(value).__name__}"
    return None


def _coerces(coercer: Callable) -> Callable:
    def check(value) -> Optional[str]:
        try:
            coercer(value)
        except (ValueError, UnitError) as error:
            return str(error)
        return None
    return check


def _choice(*allowed: str) -> Callable:
    def check(value) -> Optional[str]:
        if value not in allowed:
            return f"expected one of {', '.join(allowed)}, got {value!r}"
        return None
    return check


def _is_str_map(value) -> Optional[str]:
    if not isinstance(value, dict):
        return f"expected a mapping, got {type(value).__name__}"
    bad = [key for key, item in value.items()
           if not isinstance(key, str) or not isinstance(item, str)]
    if bad:
        return "expected string keys and values"
    return None


def _is_str_list(value) -> Optional[str]:
    if not isinstance(value, list):
        return f"expected a list, got {type(value).__name__}"
    if any(not isinstance(item, str) for item in value):
        return "expected a list of strings"
    return None


# --------------------------------------------------------------------------
# Units: what a document value of one kind looks like, in and out.
# --------------------------------------------------------------------------
def _as_written(value):
    return value


def _rate_out(value: float) -> Union[float, str]:
    """JSON has no Infinity: an unlimited rate is spelled out."""
    return "unlimited" if value == float("inf") else value


class Unit(NamedTuple):
    """One kind of document value: ``check`` names what is wrong with a
    candidate (or returns None), ``load`` turns a valid one into the
    record's value, ``dump`` spells a record's value canonically.  ``key``
    renames the field in the document; ``aliases`` are further keys a
    hand-written document may use (the canonical key wins over them)."""

    check: Callable
    load: Callable = _as_written
    dump: Callable = _as_written
    key: Optional[str] = None
    aliases: Tuple[str, ...] = ()

    def spelled(self, key: str, *aliases: str) -> "Unit":
        return self._replace(key=key, aliases=aliases)

    def or_null(self) -> "Unit":
        """This unit for a field a document may also set to ``null``
        (unset, as if the key were absent)."""
        return self._replace(
            check=lambda value: None if value is None else self.check(value),
            load=lambda value: None if value is None else self.load(value))


TIME = Unit(_coerces(coerce_time), coerce_time)
RATE = Unit(_coerces(coerce_rate), coerce_rate, _rate_out)
LOSS = Unit(_coerces(coerce_loss), coerce_loss)
COUNT = Unit(_is_int(1))
STR = Unit(_is_str)
BOOL = Unit(_is_bool)
STR_MAP = Unit(_is_str_map, dump=dict)       # records keep sorted pairs
STR_LIST = Unit(_is_str_list, tuple, list)
DISTRIBUTION = Unit(_choice("normal", "uniform"))
PROTOCOL = Unit(_choice("tcp", "udp"))
SMR_PROTOCOL = Unit(_choice("bftsmart", "wheat"))

#: The one field → unit table.  Names, order, required-ness and defaults
#: are the dataclass's; a field added there without a unit here fails at
#: import (see :meth:`Record.of`), it does not vanish from dumps.
_UNITS: Dict[type, Dict[str, Unit]] = {
    ServiceSpec: dict(
        name=STR, image=STR, replicas=COUNT, command=STR.or_null(),
        tags=STR_MAP),
    LinkSpec: dict(
        source=STR.spelled("orig"), destination=STR.spelled("dest"),
        latency=TIME, up=RATE.spelled("up", "bandwidth"), down=RATE,
        jitter=TIME, loss=LOSS, jitter_distribution=DISTRIBUTION,
        bidirectional=BOOL, network=STR),
    LinkProperties: dict(
        latency=TIME, bandwidth=RATE, jitter=TIME, loss=LOSS,
        jitter_distribution=DISTRIBUTION),
    FlowWorkload: dict(
        source=STR, destination=STR, demand=RATE, protocol=PROTOCOL,
        start=TIME, stop=TIME.or_null(), key=STR),
    IperfWorkload: dict(
        source=STR, destination=STR, duration=TIME, congestion_control=STR,
        warmup=TIME, start=TIME, key=STR),
    PingWorkload: dict(
        source=STR, destination=STR, count=COUNT, interval=TIME,
        start=TIME, key=STR),
    HttpLoadWorkload: dict(
        source=STR, server=STR, connections=COUNT, start=TIME,
        stop=TIME.or_null(), key=STR),
    CurlSwarmWorkload: dict(sources=STR_LIST, server=STR, key=STR),
    MemtierWorkload: dict(
        server=STR, sources=STR_LIST, connections=COUNT, key=STR),
    SmrWorkload: dict(
        replicas=STR_LIST, sources=STR_LIST, protocol=SMR_PROTOCOL,
        operations=COUNT, key=STR),
    YcsbWorkload: dict(
        replicas=STR_LIST, clients=STR_MAP, threads=COUNT, key=STR),
}


# --------------------------------------------------------------------------
# Records: the three walks every field goes through.
# --------------------------------------------------------------------------
class Field(NamedTuple):
    name: str              # the dataclass attribute
    key: str               # its key in the document
    unit: Unit
    default: object        # dataclasses.MISSING: the field is required


class Record:
    """The document form of one dataclass: checked, dumped and loaded
    field by field, each through its :class:`Unit`."""

    def __init__(self, cls: type, fields: Sequence[Field]) -> None:
        self.cls = cls
        self.fields = tuple(fields)
        self.by_key = {key: field for field in self.fields
                       for key in (field.key, *field.unit.aliases)}
        self.checks = {key: field.unit.check
                       for key, field in self.by_key.items()}
        self.required = tuple(field.key for field in self.fields
                              if field.default is dataclasses.MISSING)
        # A workload's ``kind`` selects its record; it is not a field of it.
        self.selector = ("kind",) if hasattr(cls, "kind") else ()

    @classmethod
    def of(cls, record_class: type, units: Dict[str, Unit]) -> "Record":
        """The record of a dataclass whose every field has a unit."""
        declared = dataclasses.fields(record_class)
        if {field.name for field in declared} != set(units):
            raise TypeError(
                f"{record_class.__name__}: the .scn unit table covers "
                f"{sorted(units)} but the dataclass declares "
                f"{[field.name for field in declared]}")
        return cls(record_class, [
            Field(field.name, units[field.name].key or field.name,
                  units[field.name], field.default)
            for field in declared])

    def check(self, spec: Dict, path: str, out: List[Diagnostic]) -> None:
        """Every problem with a candidate mapping, appended to ``out``."""
        _check_fields(spec, self.checks, self.required, path, out,
                      self.selector)

    def dump(self, item) -> Dict:
        """The canonical mapping of a record: dataclass order, defaults
        omitted, every value in its unit's spelling."""
        out: Dict = {}
        for name, key, unit, default in self.fields:
            value = getattr(item, name)
            if value != default:
                out[key] = unit.dump(value)
        return out

    def load(self, spec: Dict) -> Dict:
        """Constructor arguments (by attribute name) from a mapping; what
        the mapping leaves out is left to the dataclass's default."""
        out: Dict = {}
        for key, value in spec.items():
            field = self.by_key.get(key)
            if field is None or (key != field.key and field.key in spec):
                continue
            out[field.name] = field.unit.load(value)
        return out


RECORDS: Dict[type, Record] = {cls: Record.of(cls, units)
                               for cls, units in _UNITS.items()}
SERVICE = RECORDS[ServiceSpec]
LINK = RECORDS[LinkSpec]
PROPERTIES = RECORDS[LinkProperties]
#: What a ``set_link`` event may change: the quantities, not how jitter
#: is drawn.
CHANGES = Record(LinkProperties, [field for field in PROPERTIES.fields
                                  if field.unit is not DISTRIBUTION])
WORKLOADS: Dict[str, Record] = {record.cls.kind: record
                                for record in RECORDS.values()
                                if record.selector}


# --------------------------------------------------------------------------
# Sections whose keys depend on more than a dataclass.
# --------------------------------------------------------------------------
_TOP_LEVEL = ("scn", "name", "services", "bridges", "links", "events",
              "scripts", "workloads", "deploy")

_EVENT_ACTIONS = ("set_link", "join_link", "leave_link", "join", "leave")
_EVENT = {"time": TIME.check, "action": _choice(*_EVENT_ACTIONS)}
_NODE_EVENT = dict(_EVENT, name=_is_str)
_LINK_EVENT = dict(_EVENT, orig=_is_str, dest=_is_str, bidirectional=_is_bool)
#: action -> (key checks, required keys)
_EVENT_KEYS: Dict[str, Tuple[Dict[str, Callable], Tuple[str, ...]]] = {
    "join": (_NODE_EVENT, ("name",)),
    "leave": (_NODE_EVENT, ("name",)),
    "leave_link": (_LINK_EVENT, ("orig", "dest")),
    "join_link": (dict(_LINK_EVENT, properties=_is_mapping),
                  ("orig", "dest")),
    "set_link": (dict(_LINK_EVENT, properties=_is_mapping,
                      changes=_is_mapping), ("orig", "dest")),
}


@functools.lru_cache(maxsize=None)
def _deploy_checks() -> Dict[str, Callable]:
    """deploy section checks: machines/seed/duration/placement plus
    every :class:`~repro.core.engine.EngineConfig` tunable, typed."""
    from repro.core.engine import EngineConfig
    checks: Dict[str, Callable] = {
        "duration": TIME.check, "placement": _is_str_map,
    }
    for field in dataclasses.fields(EngineConfig):
        if field.type == "bool" or isinstance(field.default, bool):
            checks[field.name] = _is_bool
        elif field.type == "int" or isinstance(field.default, int):
            checks[field.name] = _is_int(0)
        else:
            checks[field.name] = _is_number
    checks["machines"] = _is_int(1)
    return checks


# --------------------------------------------------------------------------
# The walker.
# --------------------------------------------------------------------------
def _check_fields(spec: Dict, checks: Dict[str, Callable],
                  required: Sequence[str], path: str,
                  out: List[Diagnostic], ignore: Sequence[str] = ()) -> None:
    for name in required:
        if name not in spec:
            out.append(Diagnostic(ERROR, path, f"missing required key "
                                               f"{name!r}"))
    for name, value in spec.items():
        check = checks.get(name)
        if check is None:
            if name not in ignore:
                known = ", ".join(sorted(checks))
                out.append(Diagnostic(
                    ERROR, f"{path}.{name}",
                    f"unknown key (expected one of: {known})"))
            continue
        problem = check(value)
        if problem:
            out.append(Diagnostic(ERROR, f"{path}.{name}", problem))


def _section_list(document: Dict, name: str,
                  out: List[Diagnostic]) -> List:
    value = document.get(name, [])
    if not isinstance(value, list):
        out.append(Diagnostic(ERROR, name, f"expected a list, got "
                                           f"{type(value).__name__}"))
        return []
    return value


def _mappings(document: Dict, name: str, out: List[Diagnostic]):
    """``(path, entry)`` for each mapping of a list section; an entry
    that is anything else is reported instead."""
    for index, spec in enumerate(_section_list(document, name, out)):
        if isinstance(spec, dict):
            yield f"{name}[{index}]", spec
        else:
            out.append(Diagnostic(ERROR, f"{name}[{index}]",
                                  "expected a mapping"))


def validate_document(document) -> List[Diagnostic]:
    """Every problem in a candidate ``.scn`` document, pointer-attached.

    Errors make the document unloadable; warnings (isolated nodes, events
    scheduled past the configured duration, ...) flag suspicious but
    valid scenarios.  An empty list means the document is clean.  One
    walk checks each entry's fields and gathers what it declares; the
    cross-references between entries are the builder's rule book,
    :func:`~repro.scenario.builder.scenario_findings`.
    """
    out: List[Diagnostic] = []
    if not isinstance(document, dict):
        return [Diagnostic(ERROR, "", f"a .scn document is a mapping, got "
                                      f"{type(document).__name__}")]

    version = document.get("scn")
    if version is None:
        out.append(Diagnostic(ERROR, "scn",
                              f"missing version stamp (expected scn: "
                              f"{SCN_VERSION})"))
    elif version != SCN_VERSION:
        out.append(Diagnostic(ERROR, "scn",
                              f"unsupported version {version!r} (this "
                              f"toolchain reads scn: {SCN_VERSION})"))
    for key in document:
        if key not in _TOP_LEVEL:
            out.append(Diagnostic(ERROR, key,
                                  "unknown top-level key (expected one of: "
                                  + ", ".join(_TOP_LEVEL) + ")"))
    if "name" in document and _is_str(document["name"]):
        out.append(Diagnostic(ERROR, "name", "expected a string"))

    services = []
    for path, spec in _mappings(document, "services", out):
        SERVICE.check(spec, path, out)
        name, replicas = spec.get("name"), spec.get("replicas", 1)
        if isinstance(name, str):
            services.append((path, name, 1 if COUNT.check(replicas)
                             else replicas))

    bridges = []
    for index, name in enumerate(_section_list(document, "bridges", out)):
        if isinstance(name, str):
            bridges.append((f"bridges[{index}]", name))
        else:
            out.append(Diagnostic(ERROR, f"bridges[{index}]",
                                  "expected a bridge name string"))

    links, capacities = [], []
    for path, spec in _mappings(document, "links", out):
        LINK.check(spec, path, out)
        links.append((path, tuple((end, spec.get(end))
                                  for end in ("orig", "dest")),
                      spec.get("bidirectional", True)))
        # The canonical key wins over its alias, as the loader reads it.
        capacities += _rates(spec, ("up" if "up" in spec else "bandwidth",
                                    "down"), path)

    events = []
    for path, spec in _mappings(document, "events", out):
        _validate_event(spec, path, out)
        time = spec.get("time")
        events.append((path, None if TIME.check(time) else coerce_time(time),
                       spec.get("action"),
                       tuple((end, spec.get(end))
                             for end in ("orig", "dest", "name"))))
        for field in ("changes", "properties"):
            if isinstance(spec.get(field), dict):
                capacities += _rates(spec[field], ("bandwidth",),
                                     f"{path}.{field}")

    for index, text in enumerate(_section_list(document, "scripts", out)):
        if not isinstance(text, str):
            out.append(Diagnostic(ERROR, f"scripts[{index}]",
                                  "expected a THUNDERSTORM script string"))

    workloads = []
    for path, spec in _mappings(document, "workloads", out):
        kind = spec.get("kind")
        # Outside input: the key may hold anything, a list or a mapping too.
        record = WORKLOADS.get(kind) if isinstance(kind, str) else None
        if record is None:
            out.append(Diagnostic(
                ERROR, f"{path}.kind",
                f"unknown workload kind {kind!r} (expected one of: "
                + ", ".join(sorted(WORKLOADS)) + ")"))
            continue
        errors = len(out)
        record.check(spec, path, out)
        if len(out) == errors:
            workload = record.cls(**record.load(spec))
            workloads.append((path, workload.key, workload.containers()))

    deploy = document.get("deploy", {})
    if not isinstance(deploy, dict):
        out.append(Diagnostic(ERROR, "deploy", "expected a mapping"))
        deploy = {}
    checks = _deploy_checks()
    _check_fields(deploy, checks, (), "deploy", out)
    # The rule book judges the values whose type is right.
    deploy = {key: value for key, value in deploy.items()
              if key in checks and checks[key](value) is None}
    duration = deploy.pop("duration", None)

    out.extend(Diagnostic(severity, pointer, message)
               for pointer, severity, message in scenario_findings(
                   services=services, bridges=bridges, links=links,
                   events=events, workloads=workloads, deploy=deploy,
                   duration=None if duration is None
                   else coerce_time(duration), capacities=capacities))
    return out


def _rates(spec: Dict, keys: Sequence[str], path: str) -> List:
    """``(pointer, bits/s)`` of the valid rates ``spec`` holds under
    ``keys`` (an invalid one is the schema's finding)."""
    return [(f"{path}.{key}", coerce_rate(spec[key])) for key in keys
            if key in spec and RATE.check(spec[key]) is None]


def _validate_event(spec: Dict, path: str, out: List[Diagnostic]) -> None:
    if "time" not in spec:
        out.append(Diagnostic(ERROR, path, "missing required key 'time'"))
    elif problem := TIME.check(spec["time"]):
        out.append(Diagnostic(ERROR, f"{path}.time", problem))
    action = spec.get("action")
    if action not in _EVENT_ACTIONS:
        out.append(Diagnostic(
            ERROR, f"{path}.action",
            f"unknown action {action!r} (expected one of: "
            + ", ".join(_EVENT_ACTIONS) + ")"))
        return
    # The time is checked above, whatever the action: not a second time.
    rest = {key: value for key, value in spec.items() if key != "time"}
    _check_fields(rest, *_EVENT_KEYS[action], path, out)

    for field, record in (("properties", PROPERTIES), ("changes", CHANGES)):
        payload = spec.get(field)
        if isinstance(payload, dict):
            record.check(payload, f"{path}.{field}", out)
    if action == "set_link" and not spec.get("changes") \
            and not spec.get("properties"):
        out.append(Diagnostic(ERROR, path,
                              "set_link event changes nothing (give "
                              "'changes' or 'properties')"))
