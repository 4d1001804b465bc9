"""Front-ends: every description format lowers to a ``.scn`` document.

The dict form, the paper's listing-style text language (Listings 1 and 2)
and Modelnet-like XML are *lowerings* ``input → .scn document`` (a plain
dict in SI base units).  None of them builds a scenario itself:
``Scenario.from_text/from_dict/from_xml/from_file`` are
:func:`~repro.scenario.dsl.format.scenario_from_scn` over the lowered
document, so the one schema in :mod:`repro.scenario.dsl.schema` validates
every format and a mistake in any of them is reported under its document
path (``services[0].replicas``).  A lowering never rejects a value: what
it cannot convert it leaves as written, for the validator to name.

Every conversion goes through the schema's records and units; the
rules here are only the description language's own: a bare number for
latency or jitter is milliseconds, a bidirectional link with no ``down``
is unlimited in that direction, and a link event's ``down`` is the
reverse direction's capacity.  THUNDERSTORM scripts
(:mod:`repro.scenario.thunderstorm`) lower their ``prop=value`` pairs
through :func:`link_property` and :func:`lower_link_event` too.

``.py`` modules exposing a module-level ``SCENARIO`` are the one input
that yields a builder directly.
"""

from __future__ import annotations

import importlib.util
import xml.etree.ElementTree as ElementTree
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.scenario.builder import Scenario
from repro.scenario.dsl.format import _parse_scn_text, scenario_from_scn
from repro.scenario.dsl.schema import BOOL, CHANGES, COUNT, LINK, \
    PROPERTIES, SCN_VERSION, SERVICE, STR, TIME, Record, Unit
from repro.topology.model import TopologyError
from repro.units import coerce_loss, coerce_rate, coerce_time, parse_time

__all__ = ["lower_dict", "lower_text", "lower_xml", "lower_link_event",
           "link_property", "load_description", "scenario_from_file"]

_BOOLEANS = {"true": True, "yes": True, "on": True, "1": True,
             "false": False, "no": False, "off": False, "0": False}
#: The keys that give one direction of a link event its capacity, the
#: first given winning: ``up`` (else the symmetric ``bandwidth``)
#: forward, ``down`` (else the same) in reverse.  ``_REVERSE`` lists
#: every capacity key.
_FORWARD = ("up", "bandwidth")
_REVERSE = ("down",) + _FORWARD


# --------------------------------------------------------------------------
# Value conversion: the schema's units, plus the description language's
# own spellings.
# --------------------------------------------------------------------------
def _lowered(key: str, unit: Unit, value):
    """``value`` of field ``key`` as the document spells it; a value that
    does not convert raises ``ValueError``.

    A bare number for latency or jitter is milliseconds (Listing 1), and
    a count or a boolean may be text (``"false"`` must not be truthy).
    Any other quantity converts through its unit: SI numbers, infinity
    spelled ``"unlimited"``."""
    if key in ("latency", "jitter"):
        return parse_time(value, default_unit="ms")
    if unit.check is COUNT.check:
        return int(value) if isinstance(value, str) else value
    if unit.check is BOOL.check:
        return _BOOLEANS.get(str(value).strip().lower(), value)
    if unit.load in (coerce_time, coerce_rate, coerce_loss):
        return unit.dump(unit.load(value))
    return value


def _put(out: Dict, key: str, value, unit: Unit) -> None:
    """``out[key] = value`` lowered, skipping an unset (``None``) value
    and keeping one that does not convert as written."""
    if value is None:
        return
    try:
        value = _lowered(key, unit, value)
    except (TypeError, ValueError):
        pass                    # the validator reports it under its path
    out[key] = value


def _fields(spec: Dict, record: Record) -> Dict:
    """The fields of ``record`` that ``spec`` sets, each lowered."""
    out: Dict = {}
    for field in record.fields:
        _put(out, field.key, spec.get(field.key), field.unit)
    return out


def _property_unit(key: str, record: Record) -> Optional[Unit]:
    """The unit of a property a link event may name: ``up``, ``down`` or
    a field of ``record`` (:data:`~repro.scenario.dsl.schema.CHANGES` for
    a ``set_link``); None for any other key."""
    field = record.by_key.get("bandwidth" if key in _REVERSE else key)
    return None if field is None else field.unit


def link_property(key: str, value):
    """One quantity a link event changes, as the document spells it; a
    key that names none raises ``KeyError``, a value that does not
    convert ``ValueError``."""
    unit = _property_unit(key, CHANGES)
    if unit is None:
        raise KeyError(key)
    return _lowered(key, unit, value)


def _direction(properties: Dict, capacities: Tuple[str, ...]) -> Dict:
    """What one direction of a link event gets: every property but the
    capacities, and the first of ``capacities`` given as its bandwidth
    (where the stanza first names one)."""
    given = [properties[key] for key in capacities if key in properties]
    out: Dict = {}
    for key, value in properties.items():
        if key in capacities:
            out["bandwidth"] = given[0]
        elif key not in _REVERSE:
            out[key] = value
    return out


def lower_link_event(event: Dict, payload: str,
                     properties: Dict) -> List[Dict]:
    """The ``.scn`` events of one link stanza: ``event`` (its time, action
    and endpoints) with the lowered ``properties`` under ``payload``
    (``"changes"`` or ``"properties"``).

    ``up`` (else the symmetric ``bandwidth``) is the forward capacity and
    ``down`` (else the same) the reverse one.  A bidirectional stanza
    whose two directions end up different becomes one one-way event per
    direction that gets anything; otherwise it is the one event it names
    (a one-way event has no reverse direction to give ``down`` to)."""
    forward = _direction(properties, _FORWARD)
    reverse = _direction(properties, _REVERSE)
    if event.get("bidirectional", True) is False or reverse == forward:
        return [dict(event, **{payload: forward})]
    one_way = dict(event, bidirectional=False)
    back = dict(one_way, orig=event.get("dest"), dest=event.get("orig"))
    return [dict(half, **{payload: given})
            for half, given in ((one_way, forward), (back, reverse))
            if given]


def _each(section, lower: Callable):
    """A section's stanzas lowered one by one, each to a list of entries;
    anything that is not a list of mappings goes to the validator
    unchanged."""
    if not isinstance(section, list):
        return section
    return [entry for spec in section
            for entry in (lower(spec) if isinstance(spec, dict) else [spec])]


# --------------------------------------------------------------------------
# Dict form — the canonical programmatic input.
# --------------------------------------------------------------------------
def lower_dict(description: Dict) -> Dict:
    """The ``.scn`` document for the dict form.

    Expected shape (every section optional)::

        {"experiment": {
            "services": [{"name": ..., "image": ..., "replicas": ...}, ...],
            "bridges":  [{"name": ...}, ...],
            "links":    [{"orig": ..., "dest": ..., "latency": ..., ...}, ...],
        },
         "dynamic": [{"time": ..., "action"/properties...}, ...]}

    Link ``latency``/``jitter`` default to milliseconds and bandwidths
    accept ``"10Mbps"``-style strings, exactly as the description language
    specifies.  A bidirectional link that names no ``down`` (or symmetric
    ``bandwidth``) capacity is unlimited in that direction; a dynamic
    stanza's ``down`` is the reverse direction's (see
    :func:`lower_link_event`).
    """
    body = description.get("experiment", description)
    return {
        "scn": SCN_VERSION,
        "name": body.get("name", "experiment"),
        "services": _each(body.get("services", []),
                          lambda spec: [_fields(spec, SERVICE)]),
        "bridges": _each(body.get("bridges", []),
                         lambda spec: [spec.get("name")]),
        "links": _each(body.get("links", []), _lower_link),
        "events": _each(description.get("dynamic", []), _lower_event),
    }


def _lower_link(spec: Dict) -> List[Dict]:
    symmetric = spec.get("bandwidth")
    link = _fields(dict(spec, up=spec.get("up", symmetric),
                        down=spec.get("down", symmetric)), LINK)
    if link.get("bidirectional", True) is False:
        link.pop("down", None)
    else:
        link.setdefault("down", "unlimited")
    return [link]


def _lower_event(spec: Dict) -> List[Dict]:
    """One dynamic stanza (Listing 2 style) as ``.scn`` events."""
    action = spec.get("action")
    event: Dict = {}
    _put(event, "time", spec.get("time"), TIME)
    if action in ("join", "leave") and "name" in spec:
        _put(event, "name", spec["name"], STR)
        return [dict(event, action=action)]
    for key in ("orig", "dest", "bidirectional"):
        _put(event, key, spec.get(key), LINK.by_key[key].unit)
    if action not in (None, "join"):
        return [dict(event, action="leave_link" if action == "leave"
                     else action)]
    # The stanza's remaining keys are link properties: all of them for a
    # (re)joining link, only the fields to alter when no action is named.
    record = CHANGES if action is None else PROPERTIES
    properties: Dict = {}
    for key, value in spec.items():
        unit = _property_unit(key, record)
        if unit is not None:
            _put(properties, key, value, unit)
    if action is None:
        return lower_link_event(dict(event, action="set_link"), "changes",
                                properties)
    return lower_link_event(dict(event, action="join_link"), "properties",
                            properties)


# --------------------------------------------------------------------------
# Listing-style text — the paper's lean YAML-like syntax.
# --------------------------------------------------------------------------
def lower_text(text: str) -> Dict:
    """The ``.scn`` document for the paper's listing syntax (Listings 1
    and 2).

    The syntax is indentation-free within stanzas: a new stanza starts at
    each ``name:`` (services/bridges) or ``orig:`` (links) key, and a
    ``dynamic`` stanza ends at its ``time:`` key, under the current section
    header (``services:``, ``bridges:``, ``links:``, ``dynamic:``).
    """
    sections: Dict[str, List[Dict]] = {
        "services": [], "bridges": [], "links": [], "dynamic": []}
    section: Optional[str] = None
    stanza: Optional[Dict] = None
    stanza_opener = {"services": ("name",), "bridges": ("name",),
                     "links": ("orig",)}

    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.rstrip(":") in ("experiment",):
            continue
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip().strip('"').strip("'")
        if not value and key in sections:
            section = key
            stanza = None
            continue
        if section is None:
            raise TopologyError(f"content outside any section: {raw_line!r}")
        if section == "dynamic":
            # In Listing 2 every event stanza ends with its ``time:`` key,
            # which is the only unambiguous boundary in the flat syntax.
            if stanza is None:
                stanza = {}
                sections[section].append(stanza)
            stanza[key] = value
            if key == "time":
                stanza = None
            continue
        opens_new = key in stanza_opener[section] and (
            stanza is None or key in stanza)
        if stanza is None or opens_new:
            stanza = {}
            sections[section].append(stanza)
        stanza[key] = value

    return lower_dict({"experiment": {
        "services": sections["services"],
        "bridges": sections["bridges"],
        "links": sections["links"],
    }, "dynamic": sections["dynamic"]})


# --------------------------------------------------------------------------
# Modelnet-like XML — for porting existing topology descriptions.
# --------------------------------------------------------------------------
def lower_xml(text: str) -> Dict:
    """The ``.scn`` document for a Modelnet-style XML topology.

    ``role="virtnode"`` maps to services, everything else to bridges;
    latency/jitter default to milliseconds as in Modelnet files.
    """
    try:
        root = ElementTree.fromstring(text)
    except ElementTree.ParseError as exc:
        raise TopologyError(f"malformed XML topology: {exc}") from exc

    services, bridges = [], []
    for vertex in root.iter("vertex"):
        if vertex.get("role", "gateway") == "virtnode":
            services.append(vertex.attrib)
        else:
            bridges.append(vertex.attrib)
    links = [{"orig": edge.get("src"), "dest": edge.get("dst"),
              "bandwidth": edge.get("bw") or edge.get("bandwidth"),
              **{key: edge.get(key) for key in
                 ("latency", "jitter", "loss", "bidirectional")}}
             for edge in root.iter("edge")]
    return lower_dict({"experiment": {
        "name": root.get("name", "modelnet"), "services": services,
        "bridges": bridges, "links": links}})


# --------------------------------------------------------------------------
# Files — suffix dispatch, including examples exposing a SCENARIO.
# --------------------------------------------------------------------------
def load_description(path: str) -> Union[Dict, Scenario]:
    """A description file as its (not yet validated) ``.scn`` document.

    ``.scn`` files parse as the document itself, ``.xml``/``.modelnet``
    lower from Modelnet XML and anything else from listing-style text.
    ``.py`` files are the exception: they must expose a module-level
    ``SCENARIO`` (a :class:`Scenario` or a zero-argument callable
    returning one — how the repository's examples stay validatable),
    which is returned as the builder it is.
    """
    path = str(path)
    if path.endswith(".py"):
        return _scenario_from_python(path)
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if path.endswith(".scn"):
        return _parse_scn_text(text, path)
    if path.endswith((".xml", ".modelnet")):
        return lower_xml(text)
    return lower_text(text)


def scenario_from_file(path: str) -> Scenario:
    """Builder from a description file, dispatched on suffix."""
    source = load_description(path)
    return source if isinstance(source, Scenario) \
        else scenario_from_scn(source)


def _scenario_from_python(path: str) -> Scenario:
    spec = importlib.util.spec_from_file_location("_scenario_module", path)
    if spec is None or spec.loader is None:
        raise TopologyError(f"cannot import scenario module {path!r}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    candidate = getattr(module, "SCENARIO", None)
    if candidate is None:
        raise TopologyError(
            f"{path!r} defines no SCENARIO (a Scenario or a callable)")
    if callable(candidate) and not isinstance(candidate, Scenario):
        candidate = candidate()
    if not isinstance(candidate, Scenario):
        raise TopologyError(
            f"{path!r}: SCENARIO is {type(candidate).__name__}, "
            "expected repro.scenario.Scenario")
    return candidate
