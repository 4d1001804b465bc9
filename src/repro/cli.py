"""Command-line front end for the Kollaps reproduction.

Every scenario verb reads its description — listing-style text, Modelnet
XML (``.xml``), a ``.scn`` document or an ``examples/*.py`` module
exposing ``SCENARIO`` — through one loader
(:mod:`repro.scenario.dsl.lint`: load, then compile), once, and prints
what it refuses to stderr as ``path: severity: pointer: message``::

    repro run experiment.txt --machines 4 --duration 60 \
        --flow c1:sv.0 --flow sv.0:sv.1:5Mbps  # run, report each workload
    repro validate FILE [--scenario S]        # collapsed end-to-end paths
    repro plan FILE --orchestrator swarm      # deployment document (§4)
    repro scenario lint FILE...               # every diagnostic, aggregated
    repro scenario diff A B                   # semantic diff, compiled form
    repro scenario export FILE -o F.scn       # canonical .scn export
    repro scenario script FILE SCRIPT         # THUNDERSTORM -> events
    repro scenario fuzz --seed 1 --count 200 --check \
        --differential kollaps,trickle        # seeded property-based corpus

``campaign run|status|report|compact SOURCE`` drive a sweep across a
process pool with a resumable result store (:mod:`repro.campaign`); a
source is a ``.py`` file exposing ``CAMPAIGN``, an experiment id, or
``paper``: every experiment of the evaluation (§5), the one way to run it
(``campaign report paper -o EXPERIMENTS.md``; ``--quick`` selects the
smoke-test scale).  ``trace export|summary|top DIR`` read the telemetry a
``--trace DIR`` run recorded.

Exit codes: 0 on success and when ``lint`` or ``validate`` finds only
warnings; 1 on any refusal — a description or script that does not load
or compile, a backend that cannot run it, a failed campaign point or
shape check, a missing store or trace; 2 on usage errors (argparse).
``scenario diff`` exits 0 when the two are semantically identical, 1
when they differ and 2 when either does not load; ``scenario fuzz``
exits 1 on a round-trip mismatch or a cross-backend divergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.units import UnitError, parse_rate

__all__ = ["main", "build_parser"]


def _parse_flow(spec: str):
    parts = spec.split(":")
    if len(parts) == 2:
        return parts[0], parts[1], float("inf")
    if len(parts) == 3:
        try:
            return parts[0], parts[1], parse_rate(parts[2])
        except (UnitError, ValueError) as error:
            raise argparse.ArgumentTypeError(
                f"bad rate in flow spec {spec!r}: {error}") from None
    raise argparse.ArgumentTypeError(
        f"flow must be src:dst or src:dst:rate, got {spec!r}")


def _report(path: str, diagnostics, *, warnings: bool = True) -> int:
    """The one printer: ``path``'s diagnostics to stderr, as ``path:
    severity: pointer: message`` — all of them when one is an error, or
    always with ``warnings`` — and how many are errors."""
    errors = sum(1 for item in diagnostics if item.severity == "error")
    if errors or warnings:
        for diagnostic in diagnostics:
            print(f"{path}: {diagnostic}", file=sys.stderr)
    return errors


def _load(path: str, *, script: Optional[str] = None, adjust=None,
          warnings: bool = False):
    """``path`` through the one loader (:mod:`repro.scenario.dsl.lint`):
    loaded with ``script`` attached, adjusted by ``adjust(builder)``,
    compiled.  None once the diagnostics refusing it are printed."""
    from repro.scenario.dsl.lint import compile_builder, load_file
    builder, diagnostics = load_file(path, script=script)
    compiled = None
    if builder is not None:
        compiled, refusals = compile_builder(builder, adjust)
        diagnostics += refusals
    errors = _report(path, diagnostics, warnings=warnings)
    if errors:
        print(f"{path}: {errors} error(s)", file=sys.stderr)
    return compiled


def _add_description_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("experiment", help="scenario source, by suffix: a "
                        ".scn document, Modelnet XML (.xml), a .py module "
                        "exposing SCENARIO, else listing-style text")


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", default=None, metavar="DIR",
                        help="record telemetry spans into DIR (one "
                             "trace-<pid>.jsonl per process; inspect with "
                             "`repro trace summary DIR`); also settable "
                             "via the REPRO_TRACE env var")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Kollaps reproduction toolchain")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run an emulation experiment")
    _add_description_argument(run)
    run.add_argument("--backend", default="kollaps",
                     help="execution backend (kollaps, baremetal, mininet, "
                          "maxinet, trickle, or a registered name)")
    run.add_argument("--machines", type=int, default=None,
                     help="physical machines in the simulated cluster "
                          "(default: the scenario's own setting, else 1)")
    run.add_argument("--duration", type=float, default=None,
                     help="simulated seconds to run (default: the "
                          "scenario's own deploy(duration=...), else past its "
                          "last event and timed workload, at least 30)")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--flow", action="append", type=_parse_flow,
                     default=[], metavar="SRC:DST[:RATE]",
                     help="bulk flow to start (repeatable)")
    run.add_argument("--scenario", default=None,
                     help="THUNDERSTORM scenario script applied on top of "
                          "the description's own dynamic events")
    run.add_argument("--snapshot-every", type=float, default=0.0,
                     help="render the dashboard every N simulated seconds")
    _add_trace_argument(run)

    validate = commands.add_parser(
        "validate", help="check a description (and scenario) compiles")
    _add_description_argument(validate)
    validate.add_argument("--scenario", default=None)

    plan = commands.add_parser(
        "plan", help="emit the orchestrator deployment document")
    _add_description_argument(plan)
    plan.add_argument("--orchestrator", choices=("swarm", "kubernetes"),
                      default="swarm")
    plan.add_argument("--machines", type=int, default=None,
                      help="hosts to place on (default: the scenario's "
                           "own machine count)")
    plan.add_argument("--backend", default="kollaps",
                      help="also check the scenario against this execution "
                           "backend's capabilities")

    scenario = commands.add_parser(
        "scenario", help="scenario DSL tooling: lint, diff, export, fuzz, "
                         "script")
    scenario_commands = scenario.add_subparsers(dest="scenario_command",
                                                required=True)

    scenario_lint = scenario_commands.add_parser(
        "lint", help="schema + whole-program diagnostics for scenario "
                     "files (.scn, listing text, XML, .py)")
    scenario_lint.add_argument("files", nargs="+", metavar="FILE")
    scenario_lint.add_argument("--scenario", default=None,
                               help="THUNDERSTORM script merged before "
                                    "compiling")

    scenario_diff = scenario_commands.add_parser(
        "diff", help="semantic diff of two scenarios over the compiled "
                     "form (exit 0 identical, 1 different, 2 load error)")
    scenario_diff.add_argument("before", metavar="A")
    scenario_diff.add_argument("after", metavar="B")
    scenario_diff.add_argument("--json", action="store_true",
                               help="machine-readable output")

    scenario_export = scenario_commands.add_parser(
        "export", help="export any scenario front-end to canonical .scn")
    _add_description_argument(scenario_export)
    scenario_export.add_argument("--scenario", default=None,
                                 help="THUNDERSTORM script merged (and "
                                      "lowered to events) before export")
    scenario_export.add_argument("-o", "--output", default=None,
                                 help="write here instead of stdout")

    scenario_fuzz = scenario_commands.add_parser(
        "fuzz", help="generate seeded random scenarios; optionally check "
                     "round-trip and cross-backend agreement")
    scenario_fuzz.add_argument("--seed", type=int, default=0)
    scenario_fuzz.add_argument("--count", type=int, default=10)
    scenario_fuzz.add_argument("--scale", default="small",
                               choices=("small", "medium", "large"))
    scenario_fuzz.add_argument("--out", default=None, metavar="DIR",
                               help="write <name>.scn files here")
    scenario_fuzz.add_argument("--check", action="store_true",
                               help="enforce the round-trip guarantee "
                                    "(dump, reload, recompile) on every "
                                    "scenario")
    scenario_fuzz.add_argument("--differential", default=None,
                               metavar="BACKENDS",
                               help="comma-separated backends to run each "
                                    "scenario on (e.g. kollaps,trickle); "
                                    "exit 1 on any divergence")
    scenario_fuzz.add_argument("--tolerance", type=float, default=0.15,
                               help="relative metric deviation allowed by "
                                    "--differential (default: 0.15)")
    scenario_fuzz.add_argument("--bench", default=None, metavar="FILE",
                               help="write a BENCH_dsl.json-style timing "
                                    "baseline here")
    scenario_fuzz.add_argument("--quiet", action="store_true")

    scenario_script = scenario_commands.add_parser(
        "script", help="compile a THUNDERSTORM script to primitive events")
    _add_description_argument(scenario_script)
    scenario_script.add_argument("script", help="THUNDERSTORM scenario file")

    campaign = commands.add_parser(
        "campaign", help="parallel sweep orchestration with a resumable "
                         "result store")
    campaign_commands = campaign.add_subparsers(dest="campaign_command",
                                                required=True)

    def _add_campaign_source(subparser: argparse.ArgumentParser, *,
                             quick: bool = True) -> None:
        subparser.add_argument(
            "campaign_source",
            help="a .py file exposing CAMPAIGN, a registered experiment "
                 "id (fig5, table2, table4, ...), or 'paper' for all of "
                 "them")
        subparser.add_argument(
            "--store", default="campaigns",
            help="campaigns root directory (results land under "
                 "<store>/<name>/, default: campaigns)")
        if quick:
            subparser.add_argument(
                "--quick", action="store_true",
                help="the experiments' smoke-test scale (shorter runs)")
        else:
            subparser.set_defaults(quick=False)

    campaign_run = campaign_commands.add_parser(
        "run", help="execute the sweep (skipping stored points)")
    _add_campaign_source(campaign_run)
    campaign_run.add_argument("--jobs", type=int, default=1,
                              help="worker processes (default: 1, serial)")
    freshness = campaign_run.add_mutually_exclusive_group()
    freshness.add_argument("--resume", dest="resume", action="store_true",
                           default=True,
                           help="skip points the store already has "
                                "(default)")
    freshness.add_argument("--fresh", dest="resume", action="store_false",
                           help="re-execute every point; new records "
                                "supersede stored ones")
    campaign_run.add_argument("--quiet", action="store_true",
                              help="suppress the per-point progress feed")
    _add_trace_argument(campaign_run)

    campaign_status = campaign_commands.add_parser(
        "status", help="compare the store against the campaign grid")
    _add_campaign_source(campaign_status)

    campaign_report = campaign_commands.add_parser(
        "report", help="aggregate the stored results")
    _add_campaign_source(campaign_report)
    campaign_report.add_argument("--format", choices=("markdown", "csv"),
                                 default="markdown")
    campaign_report.add_argument("--baseline", default=None, metavar="BACKEND",
                                 help="report per-cell deviation from this "
                                      "backend (with --format csv the "
                                      "deviation table is the whole report)")
    campaign_report.add_argument("-o", "--output", default=None,
                                 help="write the report here ('-': "
                                      "stdout, the default)")

    campaign_compact = campaign_commands.add_parser(
        "compact", help="garbage-collect a store: drop superseded records")
    # Both scales share <store>/<exp_id>/, so compaction has no --quick.
    _add_campaign_source(campaign_compact, quick=False)

    trace = commands.add_parser(
        "trace", help="inspect telemetry traces recorded with --trace / "
                      "REPRO_TRACE")
    trace_commands = trace.add_subparsers(dest="trace_command",
                                          required=True)

    def _add_trace_source(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "trace_source",
            help="a trace directory (reads every trace-*.jsonl in it) or "
                 "a single trace file")

    trace_export = trace_commands.add_parser(
        "export", help="convert a trace to Chrome trace_event JSON "
                       "(about:tracing, Perfetto)")
    _add_trace_source(trace_export)
    trace_export.add_argument("-o", "--output", default=None,
                              help="write here instead of stdout")

    trace_summary = trace_commands.add_parser(
        "summary", help="per-layer time shares and per-span aggregates")
    _add_trace_source(trace_summary)
    trace_summary.add_argument("--limit", type=int, default=15,
                               help="span names to list (default: 15; "
                                    "0 for all)")

    trace_top = trace_commands.add_parser(
        "top", help="the individually longest spans")
    _add_trace_source(trace_top)
    trace_top.add_argument("-n", "--count", type=int, default=20)
    return parser


# ------------------------------------------------------------- subcommands
def _command_run(args: argparse.Namespace) -> int:
    from repro.scenario import BackendCompatibilityError, custom, flow, \
        resolve_backend

    def adjust(builder) -> None:
        # Command-line knobs override the scenario's own deploy() settings
        # only when given — a .py scenario keeps its seed/machines.
        builder.deploy(machines=args.machines, seed=args.seed,
                       duration=args.duration)
        for source, destination, rate in args.flow:
            builder.workload(flow(source, destination, rate=rate,
                                  key=f"{source}->{destination}"))
        if args.snapshot_every > 0 and args.backend == "kollaps":
            builder.workload(custom("snapshots",
                                    _snapshots(args.snapshot_every),
                                    needs=()))

    compiled = _load(args.experiment, script=args.scenario, adjust=adjust)
    if compiled is None:
        return 1
    if args.snapshot_every > 0 and args.backend != "kollaps":
        print(f"note: --snapshot-every renders the Kollaps dashboard "
              f"and is ignored on the {args.backend!r} backend",
              file=sys.stderr)
    try:
        backend = resolve_backend(args.backend)
    except ValueError as error:             # an unknown backend name
        return _refused_by_backend(args, [str(error)])
    # Only refusals of the backend are caught — genuine workload failures
    # still traceback.
    try:
        run = compiled.run(backend=backend)
    except BackendCompatibilityError as error:
        return _refused_by_backend(args, error.problems)
    # Run provenance: which backend/seed/cluster produced this output.
    print(f"backend: {run.backend}, seed: {run.seed}, "
          f"machines: {run.machines}, ran to t={run.until:g}s")
    for key in sorted(run.metrics, key=str):
        metrics = run.metrics[key]
        if metrics.primary in metrics.summary:
            print(f"workload {key}: {metrics.primary} = {metrics.value:g}")
        else:
            print(f"workload {key}: collected ({metrics.kind}, "
                  "no scalar summary)")
    if run.backend == "kollaps":
        from repro.dashboard import Dashboard
        print(Dashboard(run.engine).render())
    return 0


def _refused_by_backend(args: argparse.Namespace, problems) -> int:
    from repro.scenario.dsl import Diagnostic
    _report(args.experiment, [
        Diagnostic("error", "backend", f"cannot run on the {args.backend!r} "
                                       f"backend: {problem}")
        for problem in problems])
    return 1


def _snapshots(period: float):
    """A ``custom`` install hook printing the flow table every ``period``
    simulated seconds, to stderr."""
    def install(engine):
        from repro.dashboard import Dashboard
        from repro.sim import Process
        dashboard = Dashboard(engine)
        return Process(engine.sim, period,
                       lambda: print(dashboard.render_flows(),
                                     file=sys.stderr),
                       start_after=period)
    return install


def _command_validate(args: argparse.Namespace) -> int:
    compiled = _load(args.experiment, script=args.scenario, warnings=True)
    if compiled is None:
        return 1
    print(f"{compiled.topology.describe()}")
    print(f"dynamic events: {len(compiled.schedule)}")
    for line in compiled.path_table().splitlines():
        print(f"  {line}")
    return 0


def _command_plan(args: argparse.Namespace) -> int:
    from repro.orchestration import render_plan

    compiled = _load(args.experiment, adjust=lambda builder: builder.deploy(
        machines=args.machines))
    if compiled is None:
        return 1
    try:
        problems = compiled.validate_backend(args.backend)
    except ValueError as error:             # an unknown backend name
        problems = [str(error)]
    if problems:
        return _refused_by_backend(args, problems)
    plan = compiled.plan(orchestrator=args.orchestrator)
    print(f"# deployment plan ({plan.orchestrator}), "
          f"backend={args.backend}, "
          f"bootstrapper={'yes' if plan.needs_bootstrapper else 'no'}")
    for container, machine in sorted(plan.placement.items()):
        print(f"#   {container} -> {machine}")
    print(render_plan(plan), end="")
    return 0


def _scenario_script(args: argparse.Namespace) -> int:
    from repro.scenario.dsl.lint import script_schedule
    compiled = _load(args.experiment)
    if compiled is None:
        return 1
    schedule, diagnostics = script_schedule(compiled, args.script)
    if _report(args.experiment, diagnostics):
        return 1
    for event in schedule:
        target = (event.name if event.name is not None
                  else f"{event.origin}->{event.destination}")
        details = ""
        if event.changes:
            details = " " + " ".join(f"{key}={value:g}"
                                     for key, value in event.changes.items())
        elif event.properties is not None:
            details = f" [{event.properties.describe()}]"
        print(f"t={event.time:<8g} {event.action.value:<10} {target}{details}")
    print(f"# {len(schedule)} primitive events", file=sys.stderr)
    return 0


def _scenario_lint(args: argparse.Namespace) -> int:
    from repro.scenario.dsl.lint import lint_file
    errors = sum(_report(path, lint_file(path, script=args.scenario))
                 for path in args.files)
    if errors:
        print(f"{errors} error(s) in {len(args.files)} file(s)",
              file=sys.stderr)
        return 1
    return 0


def _scenario_diff(args: argparse.Namespace) -> int:
    from repro.scenario.dsl import diff_scenarios
    compiled = [_load(path) for path in (args.before, args.after)]
    if None in compiled:
        return 2
    difference = diff_scenarios(*compiled)
    if args.json:
        print(json.dumps(difference.to_dict(), indent=2))
    else:
        print(difference.to_text(), end="")
    return 1 if difference else 0


def _scenario_export(args: argparse.Namespace) -> int:
    from repro.scenario.dsl import Diagnostic, ScnError, dumps_scn
    compiled = _load(args.experiment, script=args.scenario)
    if compiled is None:
        return 1
    try:
        text = dumps_scn(compiled)
    except ScnError as error:               # a workload .scn cannot spell
        _report(args.experiment, [Diagnostic("error", "workloads",
                                             str(error))])
        return 1
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text, end="")
    return 0


def _scenario_fuzz(args: argparse.Namespace) -> int:
    import time

    from repro.scenario.dsl import (FuzzBudget, dumps_scn, generate_scenario,
                                    loads_scn, run_differential)
    budget = FuzzBudget.scaled(args.scale)
    differential_backends = tuple(
        name.strip() for name in args.differential.split(",")
        if name.strip()) if args.differential else ()

    out_dir = None
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)

    generate_time = compile_time = roundtrip_time = 0.0
    failures = 0
    for index in range(args.count):
        started = time.perf_counter()
        builder = generate_scenario(args.seed, index, budget)
        generate_time += time.perf_counter() - started

        started = time.perf_counter()
        compiled = builder.compile()
        compile_time += time.perf_counter() - started
        text = dumps_scn(compiled)

        if out_dir is not None:
            with open(out_dir / f"{compiled.name}.scn", "w",
                      encoding="utf-8") as handle:
                handle.write(text)

        if args.check:
            started = time.perf_counter()
            reloaded = loads_scn(text, source=compiled.name).compile()
            roundtrip_time += time.perf_counter() - started
            if (dumps_scn(reloaded) != text
                    or reloaded.path_table() != compiled.path_table()):
                print(f"{compiled.name}: round-trip mismatch",
                      file=sys.stderr)
                failures += 1

        if differential_backends:
            report = run_differential(compiled, differential_backends,
                                      tolerance=args.tolerance)
            if not report.ok:
                print(report.summary(), file=sys.stderr)
                failures += 1
            elif not args.quiet:
                print(report.summary(), file=sys.stderr)

    def per_second(elapsed: float) -> float:
        return round(args.count / elapsed, 1) if elapsed > 0 else 0.0

    summary = {"bench": "dsl", "seed": args.seed, "count": args.count,
               "scale": args.scale,
               "generate_per_sec": per_second(generate_time),
               "compile_per_sec": per_second(compile_time),
               "failures": failures}
    if args.check:
        summary["roundtrip_per_sec"] = per_second(roundtrip_time)
    if differential_backends:
        summary["differential"] = list(differential_backends)
    if args.bench:
        with open(args.bench, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2)
            handle.write("\n")
    if not args.quiet:
        print(json.dumps(summary), file=sys.stderr)
    return 1 if failures else 0


def _command_scenario(args: argparse.Namespace) -> int:
    handlers = {
        "lint": _scenario_lint,
        "diff": _scenario_diff,
        "export": _scenario_export,
        "fuzz": _scenario_fuzz,
        "script": _scenario_script,
    }
    return handlers[args.scenario_command](args)


def _load_campaigns(args: argparse.Namespace):
    """The source's campaigns (``paper``: every experiment's, in paper
    order), or None after printing why they cannot be loaded."""
    from repro.campaign import load_campaign
    from repro.scenario.dsl import Diagnostic
    source = args.campaign_source
    try:
        if source == "paper":
            from repro.experiments import registered
            return [load_campaign(exp_id, quick=args.quick)
                    for exp_id in registered()]
        return [load_campaign(source, quick=args.quick)]
    except Exception as error:  # noqa: BLE001 — any load failure is input
        _report(source, [Diagnostic("error", "",
                                    f"{type(error).__name__}: {error}")])
        return None


def _campaign_run(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignResult, run_campaigns
    from repro.dashboard import CampaignMonitor

    campaigns = _load_campaigns(args)
    if campaigns is None:
        return 1
    total = 0
    for campaign in campaigns:
        points = campaign.points()
        total += len(points)
        print(campaign.describe(points), file=sys.stderr)
    monitor = CampaignMonitor(
        total=total, stream=None if args.quiet else sys.stderr)
    results = run_campaigns(campaigns, jobs=args.jobs, store=args.store,
                            resume=args.resume, progress=monitor)
    print(monitor.render(), file=sys.stderr)
    if len(results) == 1:
        result = results[0]
        print(result.describe())
        print()
        print(result.aggregate().to_markdown())
    else:
        for result in results:
            print(result.describe())
        result = CampaignResult(
            args.campaign_source,
            [point for each in results for point in each],
            skipped=sum(each.skipped for each in results))
        print(result.describe())
    for failure in result.failed():
        print(f"FAILED {failure.point.describe()}: "
              f"{failure.error.splitlines()[0]}", file=sys.stderr)
    return 1 if result.failed() else 0


def _campaign_status(args: argparse.Namespace) -> int:
    campaigns = _load_campaigns(args)
    if campaigns is None:
        return 1
    for campaign in campaigns:
        points = campaign.points()
        store = _campaign_store(args, campaign)
        records = store.load()
        counts = store.status_counts(points, records)
        print(campaign.describe(points))
        print(f"store: {store.directory}")
        for status in ("ok", "incompatible", "error", "missing"):
            print(f"  {status}: {counts.get(status, 0)}/{len(points)}")
        orphans = store.orphans(points, records)
        if orphans:
            print(f"  orphaned records (grid no longer claims them): "
                  f"{len(orphans)}")
    return 0


def _write_report(args: argparse.Namespace, report: str) -> None:
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(report, end="" if report.endswith("\n") else "\n")


def _paper_report(args: argparse.Namespace, campaigns) -> int:
    """EXPERIMENTS.md from the stored sweeps of every experiment."""
    from repro.experiments import render_markdown, report_sweep

    if args.format != "markdown" or args.baseline is not None:
        print("--format csv and --baseline report one campaign, not "
              "'paper'", file=sys.stderr)
        return 1
    results = []
    for campaign in campaigns:
        sweep = campaign.load(args.store)
        missing = len(campaign.points()) - len(sweep)
        if missing:
            print(f"campaign {campaign.name!r} has {missing} point(s) "
                  f"missing under {args.store!r}; run `repro campaign run "
                  f"paper{' --quick' * args.quick}` first", file=sys.stderr)
            return 1
        results.append(report_sweep(sweep))
    _write_report(args, render_markdown(results))
    failures = [(result.exp_id, check) for result in results
                for check in result.failures()]
    for exp_id, check in failures:
        print(f"FAILED {exp_id}: {check.description}", file=sys.stderr)
    return 1 if failures else 0


def _campaign_report(args: argparse.Namespace) -> int:
    campaigns = _load_campaigns(args)
    if campaigns is None:
        return 1
    if args.campaign_source == "paper":
        return _paper_report(args, campaigns)
    campaign = campaigns[0]
    result = campaign.load(args.store)
    if not len(result):
        print(f"no stored results for campaign {campaign.name!r} under "
              f"{args.store!r}; run `repro campaign run` first",
              file=sys.stderr)
        return 1
    if args.baseline is not None:
        labels = sorted({point.label for point in campaign.points()})
        if args.baseline not in labels:
            print(f"unknown baseline {args.baseline!r}; this campaign's "
                  f"backends: {', '.join(labels)}", file=sys.stderr)
            return 1
    aggregate = result.aggregate()
    if args.format == "csv":
        # One table per CSV document: with a baseline, the comparison IS
        # the report (two stacked tables with different headers would
        # break any CSV reader).
        report = (aggregate.to_csv(aggregate.compare(args.baseline))
                  if args.baseline else aggregate.to_csv())
    else:
        sections = [f"# campaign {campaign.name}", "", result.describe(),
                    "", "## Summary", "", aggregate.to_markdown()]
        rows = aggregate.rows()
        sections += ["", "## Points", "", aggregate.to_markdown(rows)]
        if args.baseline:
            sections += ["", f"## Deviation from {args.baseline}", "",
                         aggregate.to_markdown(
                             aggregate.compare(args.baseline))]
        failures = aggregate.failures()
        if failures:
            sections += ["", "## Failures", "",
                         aggregate.to_markdown(failures)]
        report = "\n".join(sections) + "\n"
    _write_report(args, report)
    return 0


def _campaign_store(args: argparse.Namespace, campaign):
    # One path-derivation authority: Campaign._store, so status and
    # compact can never read a different directory than run.
    return campaign._store(args.store)


def _campaign_compact(args: argparse.Namespace) -> int:
    campaigns = _load_campaigns(args)
    if campaigns is None:
        return 1
    for campaign in campaigns:
        store = _campaign_store(args, campaign)
        report = store.compact()
        print(f"compacted {store.directory}: kept "
              f"{report['records_kept']} record(s), dropped "
              f"{report['records_dropped']} superseded line(s), reclaimed "
              f"{report['bytes_reclaimed']} bytes")
    return 0


def _command_campaign(args: argparse.Namespace) -> int:
    handlers = {
        "run": _campaign_run,
        "status": _campaign_status,
        "report": _campaign_report,
        "compact": _campaign_compact,
    }
    return handlers[args.campaign_command](args)


def _load_trace_or_complain(args: argparse.Namespace):
    from repro import telemetry
    try:
        spans = telemetry.load_trace(args.trace_source)
    except (FileNotFoundError, ValueError) as error:
        print(f"cannot read trace {args.trace_source!r}: {error}",
              file=sys.stderr)
        return None
    if not spans:
        print(f"no spans in {args.trace_source!r} (was the run traced?)",
              file=sys.stderr)
        return None
    return spans


def _trace_export(args: argparse.Namespace) -> int:
    from repro import telemetry
    spans = _load_trace_or_complain(args)
    if spans is None:
        return 1
    document = telemetry.to_chrome(spans)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
            handle.write("\n")
        print(f"wrote {args.output} ({len(spans)} spans); open it in "
              "chrome://tracing or https://ui.perfetto.dev",
              file=sys.stderr)
    else:
        print(json.dumps(document))
    return 0


def _trace_summary(args: argparse.Namespace) -> int:
    from repro import telemetry
    spans = _load_trace_or_complain(args)
    if spans is None:
        return 1
    summary = telemetry.summarize(spans)
    print(telemetry.format_summary(
        summary, limit=args.limit if args.limit > 0 else None,
        metrics=telemetry.load_metrics(args.trace_source)))
    return 0


def _trace_top(args: argparse.Namespace) -> int:
    from repro import telemetry
    spans = _load_trace_or_complain(args)
    if spans is None:
        return 1
    print(telemetry.format_top(telemetry.top_spans(spans, args.count)))
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    handlers = {
        "export": _trace_export,
        "summary": _trace_summary,
        "top": _trace_top,
    }
    return handlers[args.trace_command](args)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    from repro import telemetry         # after parsing: --help loads none

    if getattr(args, "trace", None):
        # enable() also exports REPRO_TRACE so campaign pool workers
        # trace into the same directory.
        telemetry.enable(args.trace)
    handlers = {
        "run": _command_run,
        "validate": _command_validate,
        "plan": _command_plan,
        "scenario": _command_scenario,
        "campaign": _command_campaign,
        "trace": _command_trace,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # stdout went away mid-print (`repro trace summary | head`):
        # the reader saw everything it asked for, not an error.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    finally:
        telemetry.flush()


if __name__ == "__main__":
    raise SystemExit(main())
