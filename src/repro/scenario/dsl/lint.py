"""The one scenario loader: aggregated, pointer-attached diagnostics.

Every door that reads a description file — each ``repro`` verb and
:func:`lint_file` — takes the same two steps, and each step reports what
it refuses as :class:`~repro.scenario.dsl.schema.Diagnostic`\\ s, never
as a traceback:

1. :func:`load_file` reads the file and lowers it to a ``.scn`` document
   (:func:`repro.scenario.frontends.load_description`: ``.scn``, listing
   text, Modelnet XML) or imports it (a ``.py`` module exposing
   ``SCENARIO``), attaches a THUNDERSTORM script, and judges it by the
   schema (a document) and the rule book
   (:meth:`~repro.scenario.builder.Scenario.findings`; docs/scenarios.md,
   "The rules of a well-formed scenario", tables it).  A ``.py`` module
   whose body raises is an ``error: document: <Type>: <message>``.
2. :func:`compile_builder` applies the caller's own additions (``repro
   run``'s flows and deploy overrides) and compiles, turning a
   :class:`~repro.topology.model.TopologyError` (a script's errors
   included) or a :class:`~repro.units.UnitError` into diagnostics; a
   broken rule gets its pointer, whichever step added the entry.

:func:`lint_file` is the two steps in a row.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.scenario.builder import script_events
from repro.scenario.dsl.format import scenario_from_scn
from repro.scenario.dsl.schema import ERROR, Diagnostic, validate_document
from repro.topology.model import TopologyError
from repro.units import UnitError

__all__ = ["compile_builder", "lint_file", "lint_scenario", "load_file",
           "script_schedule"]

_COMPILE_ERRORS = (TopologyError, UnitError)
_UNREADABLE = (OSError, UnicodeError)


def _errors(diagnostics: List[Diagnostic]) -> bool:
    return any(item.severity == ERROR for item in diagnostics)


def _rule_book(builder) -> List[Diagnostic]:
    try:
        return [Diagnostic(severity, pointer, message)
                for pointer, severity, message in builder.findings()]
    except _COMPILE_ERRORS as error:
        return [Diagnostic(ERROR, "compile", str(error))]


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def load_file(path: str, *, script: Optional[str] = None):
    """Step one: ``(builder, diagnostics)`` for a description file, with
    the THUNDERSTORM script at path ``script`` attached.  The builder is
    None when a diagnostic is an error."""
    from repro.scenario.frontends import load_description
    try:
        source = load_description(path)
    except SyntaxError as error:
        return None, [Diagnostic(ERROR, f"line {error.lineno}",
                                 error.msg or "syntax error")]
    except (OSError, TopologyError) as error:
        return None, [Diagnostic(ERROR, "", str(error))]
    except Exception as error:  # noqa: BLE001 — a .py body, undecodable text
        return None, [Diagnostic(ERROR, "",
                                 f"{type(error).__name__}: {error}")]

    if isinstance(source, dict):
        diagnostics = validate_document(source)
        if _errors(diagnostics):
            return None, diagnostics
        builder = scenario_from_scn(source, validate=False)
    else:                                   # a .py module's builder
        builder, diagnostics = source, _rule_book(source)
    if script:
        try:
            builder.script(_read(script))
        except _UNREADABLE as error:
            diagnostics.append(Diagnostic(ERROR, "", str(error)))
    return (None if _errors(diagnostics) else builder), diagnostics


def compile_builder(builder, adjust: Optional[Callable] = None):
    """Step two: ``(compiled, diagnostics)`` after ``adjust(builder)``;
    ``compiled`` is None when it is refused."""
    try:
        if adjust is not None:
            adjust(builder)
        return builder.compile(), []
    except _COMPILE_ERRORS as error:
        broken = [item for item in _rule_book(builder)
                  if item.severity == ERROR]
        return None, broken or [Diagnostic(ERROR, "compile", str(error))]


def script_schedule(compiled, script: str):
    """``(schedule, diagnostics)``: the THUNDERSTORM script at path
    ``script`` compiled against ``compiled``; the schedule is None when it
    is refused."""
    try:
        return script_events(_read(script), compiled.topology,
                             compiled.config.time_dilation), []
    except _UNREADABLE as error:
        return None, [Diagnostic(ERROR, "", str(error))]
    except _COMPILE_ERRORS as error:
        return None, [Diagnostic(ERROR, "compile", str(error))]


def lint_file(path: str, *, script: Optional[str] = None) -> List[Diagnostic]:
    """Every problem in a scenario file, aggregated: :func:`load_file`,
    then :func:`compile_builder` when it found no error."""
    builder, diagnostics = load_file(path, script=script)
    if builder is not None:
        diagnostics += compile_builder(builder)[1]
    return diagnostics


def lint_scenario(builder) -> List[Diagnostic]:
    """Diagnostics for an in-memory :class:`Scenario` builder."""
    diagnostics = _rule_book(builder)
    if not _errors(diagnostics):
        diagnostics += compile_builder(builder)[1]
    return diagnostics
