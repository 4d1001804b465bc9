"""Scenario linting: aggregated, pointer-attached diagnostics.

``lint_file`` accepts any description format — ``.scn`` documents, the
listing-style text language, Modelnet XML, ``.py`` modules — and returns
every problem as a :class:`~repro.scenario.dsl.schema.Diagnostic`.  There
is one path for every format: the file is lowered to its ``.scn``
document (:func:`repro.scenario.frontends.load_description`), the
document is schema-validated (every error, with a JSON-path pointer such
as ``links[2].up``, plus semantic warnings: isolated nodes, events
scheduled past the configured duration), then whole-program compiled,
with :class:`~repro.topology.model.TopologyError` /
:class:`~repro.topology.thunderstorm.ThunderstormError` /
:class:`~repro.units.UnitError` surfaced as diagnostics instead of
tracebacks.  A ``.py`` module is the one input that is a builder, not a
document; it is compiled first and its canonical dump validated for the
same warnings (:func:`lint_scenario`).

``repro scenario lint`` prints these to stderr and exits 1 on any
error, 0 when only warnings (or nothing) were found.
"""

from __future__ import annotations

from typing import List, Optional

from repro.scenario.dsl.format import ScnError, scenario_from_scn, \
    scn_document
from repro.scenario.dsl.schema import ERROR, WARNING, Diagnostic, \
    validate_document
from repro.topology.model import TopologyError
from repro.topology.thunderstorm import ThunderstormError
from repro.units import UnitError

__all__ = ["lint_file", "lint_scenario"]

_COMPILE_ERRORS = (TopologyError, ThunderstormError, UnitError)


def lint_scenario(builder) -> List[Diagnostic]:
    """Diagnostics for an in-memory :class:`Scenario` builder."""
    try:
        compiled = builder.compile()
    except _COMPILE_ERRORS as error:
        return [Diagnostic(ERROR, "compile", str(error))]
    return _compiled_warnings(compiled)


def lint_file(path: str, *, script: Optional[str] = None) -> List[Diagnostic]:
    """Every problem in a scenario file, aggregated.

    ``script`` optionally names a THUNDERSTORM script to attach before
    compiling (mirroring ``repro validate --scenario``).
    """
    from repro.scenario.frontends import load_description
    try:
        source = load_description(path)
    except SyntaxError as error:
        return [Diagnostic(ERROR, f"line {error.lineno}",
                           error.msg or "syntax error")]
    except (OSError, TopologyError) as error:
        return [Diagnostic(ERROR, "", str(error))]

    if not isinstance(source, dict):        # a .py module's builder
        problem = _attach_script(source, script)
        return [problem] if problem else lint_scenario(source)
    diagnostics = validate_document(source)
    if any(item.severity == ERROR for item in diagnostics):
        return diagnostics
    builder = scenario_from_scn(source, validate=False)
    problem = _attach_script(builder, script)
    if problem:
        return diagnostics + [problem]
    try:
        builder.compile()
    except _COMPILE_ERRORS as error:
        diagnostics.append(Diagnostic(ERROR, "compile", str(error)))
    return diagnostics


def _attach_script(builder, script: Optional[str]) -> Optional[Diagnostic]:
    if not script:
        return None
    try:
        with open(script, "r", encoding="utf-8") as handle:
            builder.script(handle.read())
    except OSError as error:
        return Diagnostic(ERROR, "", str(error))
    return None


def _compiled_warnings(compiled) -> List[Diagnostic]:
    """Semantic warnings for a compiled scenario, via the .scn schema.

    Dumping our own compiled form must always produce a schema-clean
    document — any *error* the validator reports here is an internal
    inconsistency and is surfaced loudly rather than swallowed.  Custom
    workloads cannot dump; those scenarios just skip the warning pass.
    """
    try:
        document = scn_document(compiled)
    except ScnError:
        return []
    out: List[Diagnostic] = []
    for item in validate_document(document):
        if item.severity == WARNING:
            out.append(item)
        else:
            out.append(Diagnostic(ERROR, item.path,
                                  f"internal: canonical dump failed "
                                  f"validation: {item.message}"))
    return out
