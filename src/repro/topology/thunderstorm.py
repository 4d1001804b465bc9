"""A THUNDERSTORM-style language for dynamic network scenarios.

The paper points at a dedicated DSL "to easily program more complex dynamic
patterns on top of Kollaps" (§3, citing Liechti et al., SRDS'19).  This
module provides that layer: a small line-oriented language that compiles
down to the primitive :class:`~repro.topology.events.EventSchedule` the
Emulation Manager pre-computes offline.

Grammar (one directive per line, ``#`` starts a comment)::

    at <time> set   link <A><sep><B> <prop>=<value> [...]
    at <time> leave link <A><sep><B>
    at <time> join  link <A><sep><B> [<prop>=<value> ...]
    at <time> leave <service|bridge|node> <name>
    at <time> join  <service|bridge|node> <name>
    at <time> flap  link <A><sep><B> for <duration>
    at <time> partition <n1,n2,...> | <n3,n4,...> [| ...]
    at <time> heal
    from <t0> to <t1> every <dt> <directive...>

where ``<sep>`` is ``--`` for a bidirectional link or ``->`` for a single
direction, times accept unit suffixes (``90``, ``1.5s``, ``200ms``, ``2min``)
and property values reuse the description-language units (``100Mbps``,
``10ms``, ``1%``).

Composite directives expand to primitives at compile time:

* ``flap`` becomes a ``leave`` followed by a ``join`` that restores the
  properties the link had *at the moment it was torn down* — the compiler
  replays the scenario against a shadow copy of the topology to know them.
* ``partition`` removes every link whose endpoints sit in two *different*
  listed groups; ``heal`` re-adds all links cut by earlier partitions.
* ``from .. to .. every`` stamps out its body at ``t0, t0+dt, ...`` up to
  and including ``t1``.

Compilation validates the whole scenario against the base topology, so a
typo in a link name fails fast with a line number instead of corrupting an
experiment half-way through a run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.topology.events import DynamicEvent, EventAction, EventSchedule
from repro.topology.model import LinkProperties, Topology, TopologyError
from repro.units import UnitError, parse_rate, parse_time

__all__ = ["ThunderstormError", "compile_scenario", "parse_scenario"]


class ThunderstormError(TopologyError):
    """Raised for syntax or semantic errors in a scenario script.

    A :class:`TopologyError`, so whatever reports a bad description
    reports a bad script the same way."""

    def __init__(self, message: str, line_number: Optional[int] = None) -> None:
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


# --------------------------------------------------------------------------
# Intermediate representation: one primitive, timed directive.
# --------------------------------------------------------------------------
@dataclass
class _Directive:
    time: float
    verb: str                     # set | leave | join | flap | partition | heal
    subject: str = ""             # link | service | bridge | node | ""
    origin: Optional[str] = None
    destination: Optional[str] = None
    bidirectional: bool = True
    name: Optional[str] = None
    changes: Dict[str, float] = field(default_factory=dict)
    duration: float = 0.0         # flap only
    groups: List[List[str]] = field(default_factory=list)  # partition only
    line_number: int = 0


_LINK_PROPERTY_PARSERS = {
    "latency": lambda text: parse_time(text, default_unit="ms"),
    "jitter": lambda text: parse_time(text, default_unit="ms"),
    "up": parse_rate,
    "down": parse_rate,
    "bandwidth": parse_rate,
    "loss": None,  # handled by _parse_loss
}


def _parse_loss(text: str) -> float:
    """Loss accepts ``0.02`` probabilities or ``2%`` percentages."""
    raw = text.strip()
    if raw.endswith("%"):
        value = float(raw[:-1]) / 100.0
    else:
        value = float(raw)
    if not 0.0 <= value <= 1.0:
        raise UnitError(f"loss outside [0,1]: {text!r}")
    return value


def _parse_endpoints(token: str, line_number: int) -> Tuple[str, str, bool]:
    """Split ``A--B`` (bidirectional) or ``A->B`` (one direction)."""
    for separator, bidirectional in (("--", True), ("->", False)):
        if separator in token:
            origin, _, destination = token.partition(separator)
            if not origin or not destination:
                raise ThunderstormError(
                    f"malformed link endpoints {token!r}", line_number)
            return origin, destination, bidirectional
    raise ThunderstormError(
        f"link endpoints must use 'A--B' or 'A->B', got {token!r}",
        line_number)


def _parse_assignments(tokens: Sequence[str],
                       line_number: int) -> Dict[str, float]:
    changes: Dict[str, float] = {}
    for token in tokens:
        key, separator, value = token.partition("=")
        if not separator:
            raise ThunderstormError(
                f"expected 'property=value', got {token!r}", line_number)
        if key not in _LINK_PROPERTY_PARSERS:
            raise ThunderstormError(
                f"unknown link property {key!r} (expected one of "
                f"{sorted(_LINK_PROPERTY_PARSERS)})", line_number)
        try:
            if key == "loss":
                changes[key] = _parse_loss(value)
            else:
                changes[key] = _LINK_PROPERTY_PARSERS[key](value)
        except (UnitError, ValueError) as error:
            raise ThunderstormError(
                f"bad value for {key}: {error}", line_number) from None
    return changes


def _parse_time_token(token: str, line_number: int) -> float:
    try:
        value = parse_time(token)
    except (UnitError, ValueError) as error:
        raise ThunderstormError(f"bad time {token!r}: {error}",
                                line_number) from None
    if value < 0:
        raise ThunderstormError(f"negative time {token!r}", line_number)
    return value


# --------------------------------------------------------------------------
# Parsing: text -> list of primitive directives (periodics expanded).
# --------------------------------------------------------------------------
def parse_scenario(text: str) -> List[_Directive]:
    """Parse a scenario script into primitive, time-sorted directives.

    This performs the purely syntactic half of compilation; semantic
    validation against a topology happens in :func:`compile_scenario`.
    """
    directives: List[_Directive] = []
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0].lower()
        if head == "at":
            if len(tokens) < 3:
                raise ThunderstormError("'at' needs a time and a directive",
                                        line_number)
            time = _parse_time_token(tokens[1], line_number)
            directives.append(
                _parse_body(time, tokens[2:], line_number))
        elif head == "from":
            directives.extend(_parse_periodic(tokens, line_number))
        else:
            raise ThunderstormError(
                f"directives start with 'at' or 'from', got {tokens[0]!r}",
                line_number)
    directives.sort(key=lambda directive: (directive.time,
                                           directive.line_number))
    return directives


def _parse_periodic(tokens: Sequence[str],
                    line_number: int) -> List[_Directive]:
    # from <t0> to <t1> every <dt> <body...>
    if (len(tokens) < 7 or tokens[2].lower() != "to"
            or tokens[4].lower() != "every"):
        raise ThunderstormError(
            "periodic form is 'from <t0> to <t1> every <dt> <directive>'",
            line_number)
    start = _parse_time_token(tokens[1], line_number)
    stop = _parse_time_token(tokens[3], line_number)
    step = _parse_time_token(tokens[5], line_number)
    if step <= 0:
        raise ThunderstormError("'every' interval must be positive",
                                line_number)
    if stop < start:
        raise ThunderstormError("'to' time precedes 'from' time", line_number)
    body = tokens[6:]
    expanded: List[_Directive] = []
    time = start
    # Half-open arithmetic with an epsilon so 'to' is inclusive despite
    # floating point accumulation.
    while time <= stop + 1e-9:
        expanded.append(_parse_body(time, body, line_number))
        time += step
    return expanded


def _parse_body(time: float, tokens: Sequence[str],
                line_number: int) -> _Directive:
    verb = tokens[0].lower()
    rest = tokens[1:]
    if verb == "heal":
        if rest:
            raise ThunderstormError("'heal' takes no arguments", line_number)
        return _Directive(time, "heal", line_number=line_number)
    if verb == "partition":
        return _parse_partition(time, rest, line_number)
    if verb not in ("set", "leave", "join", "flap"):
        raise ThunderstormError(f"unknown directive {verb!r}", line_number)
    if not rest:
        raise ThunderstormError(f"'{verb}' needs a subject", line_number)
    subject = rest[0].lower()
    if subject == "link":
        return _parse_link_directive(time, verb, rest[1:], line_number)
    if subject in ("service", "bridge", "node"):
        if verb not in ("leave", "join"):
            raise ThunderstormError(
                f"'{verb}' does not apply to a {subject}", line_number)
        if len(rest) != 2:
            raise ThunderstormError(
                f"'{verb} {subject}' needs exactly one name", line_number)
        return _Directive(time, verb, subject=subject, name=rest[1],
                          line_number=line_number)
    raise ThunderstormError(
        f"unknown subject {rest[0]!r} (expected link/service/bridge/node)",
        line_number)


def _parse_link_directive(time: float, verb: str, tokens: Sequence[str],
                          line_number: int) -> _Directive:
    if not tokens:
        raise ThunderstormError(f"'{verb} link' needs endpoints", line_number)
    origin, destination, bidirectional = _parse_endpoints(tokens[0],
                                                          line_number)
    directive = _Directive(time, verb, subject="link", origin=origin,
                           destination=destination,
                           bidirectional=bidirectional,
                           line_number=line_number)
    remainder = tokens[1:]
    if verb == "flap":
        if len(remainder) != 2 or remainder[0].lower() != "for":
            raise ThunderstormError(
                "flap form is 'flap link A--B for <duration>'", line_number)
        directive.duration = _parse_time_token(remainder[1], line_number)
        if directive.duration <= 0:
            raise ThunderstormError("flap duration must be positive",
                                    line_number)
        return directive
    if verb == "leave":
        if remainder:
            raise ThunderstormError("'leave link' takes no properties",
                                    line_number)
        return directive
    directive.changes = _parse_assignments(remainder, line_number)
    if verb == "set" and not directive.changes:
        raise ThunderstormError("'set link' needs at least one property",
                                line_number)
    return directive


def _parse_partition(time: float, tokens: Sequence[str],
                     line_number: int) -> _Directive:
    if not tokens:
        raise ThunderstormError(
            "'partition' needs groups separated by '|'", line_number)
    groups: List[List[str]] = [[]]
    for token in " ".join(tokens).replace("|", " | ").split():
        if token == "|":
            groups.append([])
        else:
            groups[-1].extend(name for name in token.split(",") if name)
    groups = [group for group in groups if group]
    if len(groups) < 2:
        raise ThunderstormError("'partition' needs at least two groups",
                                line_number)
    seen: Dict[str, int] = {}
    for index, group in enumerate(groups):
        for name in group:
            if name in seen:
                raise ThunderstormError(
                    f"node {name!r} appears in two partition groups",
                    line_number)
            seen[name] = index
    return _Directive(time, "partition", groups=groups,
                      line_number=line_number)


# --------------------------------------------------------------------------
# Compilation: directives + base topology -> EventSchedule.
# --------------------------------------------------------------------------
def compile_scenario(text: str, topology: Topology) -> EventSchedule:
    """Compile a scenario script against ``topology``.

    The compiler replays the scenario on a shadow copy of the topology in
    strict event-time order — exactly the order the engine will apply the
    schedule — so composite directives (``flap``, ``partition``/``heal``)
    capture the link properties to restore at the moment of tear-down,
    and every reference to a link or node is validated at the time it
    would execute.  Overlapping directives that would act on a link while
    a flap has it down therefore fail at compile time, not mid-run.
    """
    directives = parse_scenario(text)
    # Expand composites into primitive operations; a flap becomes a
    # tear-down plus a restore that reads its properties from a shared
    # slot filled when the tear-down executes.
    operations: List[_Operation] = []
    flap_slots: List[Dict[str, LinkProperties]] = []
    for directive in directives:
        if directive.verb == "flap":
            slot: Dict[str, LinkProperties] = {}
            flap_slots.append(slot)
            operations.append(_Operation(directive.time, directive,
                                         verb="flap-leave", slot=slot))
            operations.append(_Operation(
                directive.time + directive.duration, directive,
                verb="flap-join", slot=slot))
        else:
            operations.append(_Operation(directive.time, directive,
                                         verb=directive.verb))
    operations.sort(key=lambda operation: (operation.time, operation.order))

    shadow = topology.copy()
    registry: Dict[str, object] = {}
    registry.update(shadow.services)
    registry.update(shadow.bridges)
    events: List[DynamicEvent] = []
    # Links removed by partitions and not yet healed: key -> properties.
    severed: Dict[Tuple[str, str], LinkProperties] = {}

    def emit(event: DynamicEvent, line_number: int) -> None:
        try:
            event.apply(shadow, registry)
        except TopologyError as error:
            raise ThunderstormError(str(error), line_number) from None
        events.append(event)

    for operation in operations:
        directive = operation.directive
        if operation.verb == "set":
            emit(DynamicEvent(operation.time, EventAction.SET_LINK,
                              origin=directive.origin,
                              destination=directive.destination,
                              changes=_directional(directive.changes, "up"),
                              bidirectional=directive.bidirectional),
                 directive.line_number)
        elif operation.verb == "leave" and directive.subject == "link":
            emit(DynamicEvent(operation.time, EventAction.LEAVE_LINK,
                              origin=directive.origin,
                              destination=directive.destination,
                              bidirectional=directive.bidirectional),
                 directive.line_number)
        elif operation.verb == "join" and directive.subject == "link":
            emit(DynamicEvent(operation.time, EventAction.JOIN_LINK,
                              origin=directive.origin,
                              destination=directive.destination,
                              properties=_join_properties(directive),
                              bidirectional=directive.bidirectional),
                 directive.line_number)
        elif operation.verb in ("leave", "join"):
            action = (EventAction.LEAVE_NODE if operation.verb == "leave"
                      else EventAction.JOIN_NODE)
            emit(DynamicEvent(operation.time, action, name=directive.name),
                 directive.line_number)
        elif operation.verb == "flap-leave":
            _flap_tear_down(operation, shadow, registry, events)
        elif operation.verb == "flap-join":
            _flap_restore(operation, shadow, registry, events)
        elif operation.verb == "partition":
            _compile_partition(directive, shadow, registry, events, severed)
        elif operation.verb == "heal":
            _compile_heal(directive, shadow, registry, events, severed)
        else:  # pragma: no cover - parser is exhaustive
            raise ThunderstormError(f"unhandled verb {operation.verb!r}",
                                    directive.line_number)
    return EventSchedule(events)


def _directional(changes: Dict[str, float], direction: str) -> Dict[str, float]:
    """Map DSL property names onto :class:`LinkProperties` field names."""
    mapped: Dict[str, float] = {}
    for key, value in changes.items():
        if key in ("up", "down"):
            if key == direction:
                mapped["bandwidth"] = value
        else:
            mapped[key] = value
    # A symmetric 'bandwidth' always wins over nothing, but explicit
    # up/down takes precedence when both are present.
    if "bandwidth" in changes and direction not in changes:
        mapped["bandwidth"] = changes["bandwidth"]
    return mapped


def _join_properties(directive: _Directive) -> LinkProperties:
    changes = _directional(directive.changes, "up")
    try:
        return LinkProperties(
            latency=changes.get("latency", 0.0),
            bandwidth=changes.get("bandwidth", float("inf")),
            jitter=changes.get("jitter", 0.0),
            loss=changes.get("loss", 0.0))
    except TopologyError as error:
        raise ThunderstormError(str(error), directive.line_number) from None


_operation_sequence = itertools.count()


@dataclass
class _Operation:
    """One primitive, time-ordered step of a compiled scenario.

    ``order`` makes the (time, order) sort total, so simultaneous
    operations keep their script order deterministically.
    """

    time: float
    directive: _Directive
    verb: str
    slot: Optional[Dict[str, LinkProperties]] = None
    order: int = field(default_factory=lambda: next(_operation_sequence))


def _flap_tear_down(operation: _Operation, shadow: Topology,
                    registry: Dict[str, object],
                    events: List[DynamicEvent]) -> None:
    """The flap's leave: capture current properties, then remove."""
    directive = operation.directive
    try:
        operation.slot["forward"] = shadow.get_link(
            directive.origin, directive.destination).properties
        if directive.bidirectional:
            operation.slot["backward"] = shadow.get_link(
                directive.destination, directive.origin).properties
    except TopologyError as error:
        raise ThunderstormError(str(error), directive.line_number) from None
    leave = DynamicEvent(operation.time, EventAction.LEAVE_LINK,
                         origin=directive.origin,
                         destination=directive.destination,
                         bidirectional=directive.bidirectional)
    try:
        leave.apply(shadow, registry)
    except TopologyError as error:
        raise ThunderstormError(str(error), directive.line_number) from None
    events.append(leave)


def _flap_restore(operation: _Operation, shadow: Topology,
                  registry: Dict[str, object],
                  events: List[DynamicEvent]) -> None:
    """The flap's join: restore the properties captured at tear-down."""
    directive = operation.directive
    pairs = [(directive.origin, directive.destination,
              operation.slot.get("forward"))]
    if directive.bidirectional:
        pairs.append((directive.destination, directive.origin,
                      operation.slot.get("backward")))
    for origin, destination, properties in pairs:
        if properties is None:  # pragma: no cover - tear-down always ran
            raise ThunderstormError("flap restore before tear-down",
                                    directive.line_number)
        join = DynamicEvent(operation.time, EventAction.JOIN_LINK,
                            origin=origin, destination=destination,
                            properties=properties, bidirectional=False)
        try:
            join.apply(shadow, registry)
        except TopologyError as error:
            raise ThunderstormError(str(error),
                                    directive.line_number) from None
        events.append(join)


def _compile_partition(directive: _Directive, shadow: Topology,
                       registry: Dict[str, object],
                       events: List[DynamicEvent],
                       severed: Dict[Tuple[str, str], LinkProperties]) -> None:
    """Cut every link whose endpoints lie in two different groups."""
    group_of: Dict[str, int] = {}
    for index, group in enumerate(directive.groups):
        for name in group:
            if not shadow.has_node(name):
                raise ThunderstormError(
                    f"partition names unknown node {name!r}",
                    directive.line_number)
            group_of[name] = index
    doomed = [link for link in shadow.links()
              if link.source in group_of and link.destination in group_of
              and group_of[link.source] != group_of[link.destination]]
    if not doomed:
        raise ThunderstormError(
            "partition cuts no links (groups are already disconnected)",
            directive.line_number)
    for link in doomed:
        severed[link.key] = link.properties
        event = DynamicEvent(directive.time, EventAction.LEAVE_LINK,
                             origin=link.source, destination=link.destination,
                             bidirectional=False)
        event.apply(shadow, registry)
        events.append(event)


def _compile_heal(directive: _Directive, shadow: Topology,
                  registry: Dict[str, object],
                  events: List[DynamicEvent],
                  severed: Dict[Tuple[str, str], LinkProperties]) -> None:
    if not severed:
        raise ThunderstormError("'heal' with no active partition",
                                directive.line_number)
    for (source, destination), properties in severed.items():
        event = DynamicEvent(directive.time, EventAction.JOIN_LINK,
                             origin=source, destination=destination,
                             properties=properties, bidirectional=False)
        event.apply(shadow, registry)
        events.append(event)
    severed.clear()
