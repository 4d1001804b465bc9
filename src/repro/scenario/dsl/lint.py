"""Scenario linting: aggregated, pointer-attached diagnostics.

``lint_file`` accepts any description format — ``.scn`` documents, the
listing-style text language, Modelnet XML, ``.py`` modules — and returns
every problem as a :class:`~repro.scenario.dsl.schema.Diagnostic`.  A
document (every format but ``.py`` lowers to one through
:func:`repro.scenario.frontends.load_description`) is schema-validated:
every error, with a JSON-path pointer such as ``links[2].up``, plus the
warnings.  A ``.py`` module's builder is judged by the same rule book
(:meth:`~repro.scenario.builder.Scenario.findings`, :func:`lint_scenario`);
docs/scenarios.md, "The rules of a well-formed scenario", tables what it
checks.  Either is then whole-program compiled, with
:class:`~repro.topology.model.TopologyError` (a THUNDERSTORM script's
errors included) / :class:`~repro.units.UnitError` surfaced as
diagnostics instead of tracebacks.

``repro scenario lint`` prints these to stderr and exits 1 on any
error, 0 when only warnings (or nothing) were found.
"""

from __future__ import annotations

from typing import List, Optional

from repro.scenario.dsl.format import scenario_from_scn
from repro.scenario.dsl.schema import ERROR, Diagnostic, validate_document
from repro.topology.model import TopologyError
from repro.units import UnitError

__all__ = ["lint_file", "lint_scenario"]

_COMPILE_ERRORS = (TopologyError, UnitError)


def lint_scenario(builder) -> List[Diagnostic]:
    """Diagnostics for an in-memory :class:`Scenario` builder."""
    try:
        diagnostics = [Diagnostic(severity, pointer, message)
                       for pointer, severity, message in builder.findings()]
    except _COMPILE_ERRORS as error:
        return [Diagnostic(ERROR, "compile", str(error))]
    return _compiled(builder, diagnostics)


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
    return _compiled(builder, diagnostics)


def _compiled(builder, diagnostics: List[Diagnostic]) -> List[Diagnostic]:
    """``diagnostics``, plus what compiling ``builder`` refuses once the
    rule book found no error."""
    if any(item.severity == ERROR for item in diagnostics):
        return diagnostics
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
