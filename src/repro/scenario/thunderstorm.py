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
``10ms``, ``1%``; a bare latency or jitter is milliseconds).  ``up=`` and
``bandwidth=`` set a link's capacity, ``down=`` the reverse direction's
on an ``A--B`` link.

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

The language is a front end like the text, dict and XML forms
(:mod:`repro.scenario.frontends`): a ``set``/``join link`` directive's
``prop=value`` pairs go through the same lowering as a ``dynamic:``
stanza's keys, so a property is spelled and converted the same way in
every format (``down=`` is the reverse direction's capacity there too).
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.scenario.dsl.format import _event_in
from repro.scenario.dsl.schema import CHANGES
from repro.scenario.frontends import link_property, lower_link_event
from repro.topology.events import DynamicEvent, EventAction, EventSchedule
from repro.topology.model import LinkProperties, Topology, TopologyError
from repro.units import coerce_time

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
    changes: Dict[str, object] = field(default_factory=dict)  # lowered
    duration: float = 0.0         # flap only
    groups: List[List[str]] = field(default_factory=list)  # partition only
    line_number: int = 0


@contextlib.contextmanager
def _at_line(line_number: int, what: str = ""):
    """Any error of the block as a :class:`ThunderstormError` naming the
    line (and ``what`` was being read)."""
    try:
        yield
    except ThunderstormError:
        raise
    except ValueError as error:     # TopologyError and UnitError are too
        raise ThunderstormError(f"{what}{error}", line_number) from None


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
                       line_number: int) -> Dict[str, object]:
    """``prop=value`` pairs, each lowered as a ``dynamic:`` stanza's key
    is (a quantity a ``set_link`` may change, or a capacity)."""
    changes: Dict[str, object] = {}
    for token in tokens:
        key, separator, value = token.partition("=")
        if not separator:
            raise ThunderstormError(
                f"expected 'property=value', got {token!r}", line_number)
        try:
            with _at_line(line_number, f"bad value for {key}: "):
                changes[key] = link_property(key, value)
        except KeyError:
            known = sorted({*CHANGES.by_key, "up", "down"})
            raise ThunderstormError(
                f"unknown link property {key!r} (expected one of "
                f"{known})", line_number) from None
    return changes


def _parse_time_token(token: str, line_number: int) -> float:
    with _at_line(line_number, f"bad time {token!r}: "):
        return coerce_time(token)


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
    if "down" in directive.changes and not bidirectional:
        raise ThunderstormError(
            "'down' is the reverse direction of a bidirectional link "
            "'A--B'", line_number)
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
    for directive in directives:
        if directive.verb == "flap":
            slot: Dict[str, LinkProperties] = {}
            operations.append(_Operation(directive.time, directive,
                                         verb="flap-leave", slot=slot))
            operations.append(_Operation(
                directive.time + directive.duration, directive,
                verb="flap-join", slot=slot))
        else:
            operations.append(_Operation(directive.time, directive,
                                         verb=directive.verb))
    operations.sort(key=lambda operation: (operation.time, operation.order))

    replay = _Replay(topology)
    for operation in operations:
        # Whatever an operation does to the shadow topology, its errors
        # name the script line it came from.
        with _at_line(operation.directive.line_number):
            _compile(operation, replay)
    return EventSchedule(replay.events)


class _Replay:
    """The shadow topology a script replays on, and what it emitted."""

    def __init__(self, topology: Topology) -> None:
        self.shadow = topology.copy()
        self.registry: Dict[str, object] = {**self.shadow.services,
                                            **self.shadow.bridges}
        self.events: List[DynamicEvent] = []
        # Links removed by partitions and not yet healed: key -> properties.
        self.severed: Dict[Tuple[str, str], LinkProperties] = {}

    def emit(self, event: DynamicEvent) -> None:
        event.apply(self.shadow, self.registry)
        self.events.append(event)

    def link_event(self, time: float, action: EventAction, origin: str,
                   destination: str, *, bidirectional: bool = False,
                   properties: Optional[LinkProperties] = None) -> None:
        self.emit(DynamicEvent(time, action, origin=origin,
                               destination=destination,
                               properties=properties,
                               bidirectional=bidirectional))


def _compile(operation: "_Operation", replay: _Replay) -> None:
    directive = operation.directive
    time, verb = operation.time, operation.verb
    if verb in ("set", "join") and directive.subject == "link":
        # The same lowering as a dynamic: stanza, then the .scn loader.
        event = {"time": time, "orig": directive.origin,
                 "dest": directive.destination,
                 "bidirectional": directive.bidirectional}
        action, payload = (("set_link", "changes") if verb == "set"
                           else ("join_link", "properties"))
        for spec in lower_link_event(dict(event, action=action), payload,
                                     directive.changes):
            replay.emit(_event_in(spec))
    elif verb == "leave" and directive.subject == "link":
        replay.link_event(time, EventAction.LEAVE_LINK, directive.origin,
                          directive.destination,
                          bidirectional=directive.bidirectional)
    elif verb in ("leave", "join"):
        action = (EventAction.LEAVE_NODE if verb == "leave"
                  else EventAction.JOIN_NODE)
        replay.emit(DynamicEvent(time, action, name=directive.name))
    elif verb == "flap-leave":
        # Capture the properties to restore, then tear the link down.
        operation.slot["forward"] = replay.shadow.get_link(
            directive.origin, directive.destination).properties
        if directive.bidirectional:
            operation.slot["backward"] = replay.shadow.get_link(
                directive.destination, directive.origin).properties
        replay.link_event(time, EventAction.LEAVE_LINK, directive.origin,
                          directive.destination,
                          bidirectional=directive.bidirectional)
    elif verb == "flap-join":
        # Restore each direction with the properties captured at tear-down.
        replay.link_event(time, EventAction.JOIN_LINK, directive.origin,
                          directive.destination,
                          properties=operation.slot["forward"])
        if directive.bidirectional:
            replay.link_event(time, EventAction.JOIN_LINK,
                              directive.destination, directive.origin,
                              properties=operation.slot["backward"])
    elif verb == "partition":
        _compile_partition(directive, replay)
    elif verb == "heal":
        if not replay.severed:
            raise ThunderstormError("'heal' with no active partition",
                                    directive.line_number)
        for (source, destination), properties in replay.severed.items():
            replay.link_event(time, EventAction.JOIN_LINK, source,
                              destination, properties=properties)
        replay.severed.clear()
    else:  # pragma: no cover - parser is exhaustive
        raise ThunderstormError(f"unhandled verb {verb!r}",
                                directive.line_number)


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


def _compile_partition(directive: _Directive, replay: _Replay) -> None:
    """Cut every link whose endpoints lie in two different groups."""
    group_of: Dict[str, int] = {}
    for index, group in enumerate(directive.groups):
        for name in group:
            if not replay.shadow.has_node(name):
                raise ThunderstormError(
                    f"partition names unknown node {name!r}",
                    directive.line_number)
            group_of[name] = index
    doomed = [link for link in replay.shadow.links()
              if link.source in group_of and link.destination in group_of
              and group_of[link.source] != group_of[link.destination]]
    if not doomed:
        raise ThunderstormError(
            "partition cuts no links (groups are already disconnected)",
            directive.line_number)
    for link in doomed:
        replay.severed[link.key] = link.properties
        replay.link_event(directive.time, EventAction.LEAVE_LINK,
                          link.source, link.destination)
