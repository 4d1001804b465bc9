"""The declarative scenario DSL subsystem.

Four parts built on the `.scn` canonical format (see docs/scenarios.md):

* :mod:`~repro.scenario.dsl.format` — versioned, schema-validated
  ``.scn`` files with a byte-identical round-trip guarantee;
* :mod:`~repro.scenario.dsl.lint` / :mod:`~repro.scenario.dsl.diff` —
  reviewable scenarios: pointer-attached diagnostics and semantic diffs
  over the compiled form;
* :mod:`~repro.scenario.dsl.fuzz` — a seeded property-based generator
  of valid random scenarios;
* :mod:`~repro.scenario.dsl.differential` — run one scenario across
  several backends and report metric/path-table divergences as
  structured findings.
"""

from repro._lazy import lazy_exports

_LAZY = {
    "diff": ("DiffEntry", "ScenarioDiff", "diff_scenarios"),
    "differential": ("DifferentialReport", "Divergence", "project_common",
                     "run_differential"),
    "format": ("ScnError", "dump_scn", "dumps_scn", "load_scn", "loads_scn",
               "scenario_from_scn", "scn_document"),
    "fuzz": ("FuzzBudget", "generate_scenario"),
    "lint": ("lint_file", "lint_scenario"),
    "schema": ("SCN_VERSION", "Diagnostic", "validate_document"),
}
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)

__all__ = [
    "SCN_VERSION", "Diagnostic", "validate_document",
    "ScnError", "scn_document", "dumps_scn", "dump_scn",
    "loads_scn", "load_scn", "scenario_from_scn",
    "lint_file", "lint_scenario",
    "DiffEntry", "ScenarioDiff", "diff_scenarios",
    "FuzzBudget", "generate_scenario",
    "Divergence", "DifferentialReport", "project_common",
    "run_differential",
]
