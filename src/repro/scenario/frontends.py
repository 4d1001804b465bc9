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

``.py`` modules exposing a module-level ``SCENARIO`` are the one input
that yields a builder directly.
"""

from __future__ import annotations

import importlib.util
import xml.etree.ElementTree as ElementTree
from typing import Callable, Dict, List, Optional, Union

from repro.scenario.builder import Scenario
from repro.scenario.dsl.format import _parse_scn_text, scenario_from_scn
from repro.scenario.dsl.schema import RATE, SCN_VERSION, coerce_loss, \
    coerce_time
from repro.topology.model import TopologyError
from repro.units import parse_time

__all__ = ["lower_dict", "lower_text", "lower_xml", "load_description",
           "scenario_from_file"]

_BOOLEANS = {"true": True, "yes": True, "on": True, "1": True,
             "false": False, "no": False, "off": False, "0": False}


# --------------------------------------------------------------------------
# Value conversion: description-language spellings → SI numbers.
# --------------------------------------------------------------------------
def _milliseconds(value) -> float:
    """Link latency/jitter: a bare number is milliseconds (Listing 1)."""
    return parse_time(value, default_unit="ms")


def _rate(value) -> Union[float, str]:
    """Bits/s, infinity in the document's spelling (``"unlimited"``)."""
    return RATE.dump(RATE.load(value))


def _integer(value):
    return int(value) if isinstance(value, str) else value


def _boolean(value):
    """Booleans from dict *and* text forms (``"false"`` must not be truthy)."""
    return _BOOLEANS.get(str(value).strip().lower(), value)


def _put(out: Dict, key: str, value, converter: Optional[Callable]) -> None:
    """``out[key] = converter(value)``, skipping an unset (``None``) value
    and keeping one that does not convert as written."""
    if value is None:
        return
    if converter is not None:
        try:
            value = converter(value)
        except (TypeError, ValueError):
            pass                # the validator reports it under its path
    out[key] = value


def _convert(spec: Dict, fields: Dict[str, Optional[Callable]]) -> Dict:
    """The ``fields`` that ``spec`` sets, each through its converter."""
    out: Dict = {}
    for key, converter in fields.items():
        _put(out, key, spec.get(key), converter)
    return out


def _each(section, lower: Callable):
    """A section's stanzas lowered one by one; anything that is not a
    list of mappings goes to the validator unchanged."""
    if not isinstance(section, list):
        return section
    return [lower(spec) if isinstance(spec, dict) else spec
            for spec in section]


_SERVICE = {"name": None, "image": None, "replicas": _integer,
            "command": None, "tags": None}
_LINK = {"orig": None, "dest": None, "latency": _milliseconds,
         "jitter": _milliseconds, "loss": coerce_loss,
         "jitter_distribution": None, "bidirectional": _boolean,
         "network": None}
_EVENT = {"time": coerce_time, "orig": None, "dest": None,
          "bidirectional": _boolean}
_CHANGES = {"latency": _milliseconds, "jitter": _milliseconds,
            "loss": coerce_loss}
_PROPERTIES = dict(_CHANGES, jitter_distribution=None)


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
    ``bandwidth``) capacity is unlimited in that direction.
    """
    body = description.get("experiment", description)
    return {
        "scn": SCN_VERSION,
        "name": body.get("name", "experiment"),
        "services": _each(body.get("services", []),
                          lambda spec: _convert(spec, _SERVICE)),
        "bridges": _each(body.get("bridges", []),
                         lambda spec: spec.get("name")),
        "links": _each(body.get("links", []), _lower_link),
        "events": _each(description.get("dynamic", []), _lower_event),
    }


def _lower_link(spec: Dict) -> Dict:
    link = _convert(spec, _LINK)
    symmetric = spec.get("bandwidth")
    _put(link, "up", spec.get("up", symmetric), _rate)
    if link.get("bidirectional", True) is not False:
        down = spec.get("down", symmetric)
        _put(link, "down", "unlimited" if down is None else down, _rate)
    return link


def _lower_event(spec: Dict) -> Dict:
    """One dynamic stanza (Listing 2 style) as a ``.scn`` event."""
    action = spec.get("action")
    if action in ("join", "leave") and "name" in spec:
        return dict(_convert(spec, {"time": coerce_time, "name": None}),
                    action=action)
    event = _convert(spec, _EVENT)
    # The stanza's remaining keys are link properties: all of them for a
    # (re)joining link, only the fields to alter when no action is named.
    detail = _convert(spec, _CHANGES if action is None else _PROPERTIES)
    _put(detail, "bandwidth", spec.get("up", spec.get("bandwidth")), _rate)
    if action is None:
        event.update(action="set_link", changes=detail)
    elif action == "join":
        event.update(action="join_link", properties=detail)
    else:
        event["action"] = "leave_link" if action == "leave" else action
    return event


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
