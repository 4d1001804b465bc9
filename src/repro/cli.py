"""Command-line front end for the Kollaps reproduction.

Every subcommand assembles its experiment through the unified Scenario
API (:mod:`repro.scenario`) — the single validated path from any
description form (listing text, Modelnet XML, or an example module
exposing ``SCENARIO``) to a runnable experiment.

``run``
    Parse an experiment description, deploy it on the simulated cluster,
    run the emulation, and report the dashboard plus per-flow throughput::

        python -m repro.cli run experiment.yaml --machines 4 \
            --duration 60 --flow c1:sv.0 --flow sv.0:sv.1:5Mbps

``validate``
    Compile a description (and optional scenario script) without running
    anything; prints the collapsed end-to-end paths.  Also accepts
    ``examples/*.py`` files exposing a module-level ``SCENARIO`` and
    ``.scn`` documents.  Diagnostics go to stderr; exit 1 on any error,
    exit 0 when only warnings were found.

``plan``
    Emit the Docker-Compose / Kubernetes-manifest deployment document for
    a description (the Deployment Generator's output, §4).

``scenario``
    The declarative scenario DSL toolbox (:mod:`repro.scenario.dsl`)::

        repro scenario lint FILE...          # aggregated diagnostics
        repro scenario diff A B              # semantic diff, compiled form
        repro scenario export FILE -o F.scn  # canonical .scn export
        repro scenario fuzz --seed 1 --count 200 --check \
            --differential kollaps,trickle   # property-based corpus
        repro scenario script DESC SCRIPT    # THUNDERSTORM -> events

    ``lint`` exits 1 on any error and 0 with warnings; ``diff`` exits 0
    when semantically identical, 1 when different, 2 on load failure;
    ``fuzz --check`` enforces the round-trip guarantee (byte-identical
    ``describe()``/``path_table()`` after dump → reload → recompile) and
    ``--differential`` runs every generated scenario across backends and
    fails on divergence; ``--bench`` writes a BENCH_dsl.json baseline.

``reproduce``
    Run the paper's tables/figures and (re)write EXPERIMENTS.md — a thin
    alias for ``python -m repro.experiments``.

``campaign``
    Parallel sweep orchestration (:mod:`repro.campaign`): ``run`` a
    campaign grid across a process pool with a persistent, resumable
    result store; ``status`` a store against the grid; ``report`` the
    stored aggregate as Markdown or CSV; ``compact`` garbage-collects a
    long-lived store::

        python -m repro.cli campaign run examples/campaign_sweep.py \
            --jobs 4 --store campaigns
        python -m repro.cli campaign status fig5
        python -m repro.cli campaign report fig5 --baseline baremetal
        python -m repro.cli campaign compact fig5

    Distributed execution (:mod:`repro.campaign.distributed`) spreads one
    sweep across hosts sharing the store directory: ``serve`` runs the
    lease-granting coordinator, ``work`` one shard-writing worker, and
    ``fleet`` either simulates a whole fleet locally (``--workers N``) or
    emits the compose/k8s deployment for a real one (``--plan``)::

        python -m repro.cli campaign fleet table2 --workers 4
        python -m repro.cli campaign serve table2 &          # host A
        python -m repro.cli campaign work table2             # hosts B, C...
        python -m repro.cli campaign fleet table2 --workers 4 --plan swarm
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.units import UnitError, format_rate, format_time, parse_rate

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


def _load_scenario(args: argparse.Namespace):
    """The description file as a builder, with any scenario script merged."""
    from repro.scenario import Scenario

    builder = Scenario.from_file(args.experiment)
    script_path = getattr(args, "scenario", None)
    if script_path is not None:
        with open(script_path, encoding="utf-8") as handle:
            builder.script(handle.read())
    return builder


def _add_description_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("experiment", help="scenario source: listing-style "
                        "text, Modelnet XML (by suffix), or a .py module "
                        "exposing SCENARIO")


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", default=None, metavar="DIR",
                        help="record telemetry spans into DIR (one "
                             "trace-<pid>.jsonl per process; inspect with "
                             "`repro trace summary DIR`); also settable "
                             "via the REPRO_TRACE env var")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Kollaps reproduction toolchain")
    parser.add_argument("-v", "--verbose", dest="log_verbose",
                        action="count", default=0,
                        help="log INFO (-v) or DEBUG (-vv) from the repro "
                             "logger to stderr")
    parser.add_argument("-q", dest="log_quiet", action="store_true",
                        help="only log errors")
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
                          "scenario's own deploy(duration=...), else 30)")
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
                               help="lint every scenario and enforce the "
                                    "round-trip guarantee")
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

    reproduce = commands.add_parser(
        "reproduce", help="reproduce the paper's tables/figures")
    reproduce.add_argument("--only", nargs="+", metavar="EXP")
    reproduce.add_argument("--quick", action="store_true")
    reproduce.add_argument("-o", "--output", default="EXPERIMENTS.md")

    campaign = commands.add_parser(
        "campaign", help="parallel sweep orchestration with a resumable "
                         "result store")
    campaign_commands = campaign.add_subparsers(dest="campaign_command",
                                                required=True)

    def _add_campaign_source(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "campaign_source",
            help="a .py file exposing CAMPAIGN, or a registered "
                 "experiment id (fig5, table2, table4, ...)")
        subparser.add_argument(
            "--store", default="campaigns",
            help="campaigns root directory (results land under "
                 "<store>/<name>/, default: campaigns)")

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
                                 help="write the report here instead of "
                                      "stdout")

    def _add_fleet_tuning(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument("--lease-size", type=int, default=4,
                               help="points per lease batch (default: 4)")
        subparser.add_argument("--lease-timeout", type=float, default=60.0,
                               help="seconds without a heartbeat before a "
                                    "worker's lease is reassigned "
                                    "(default: 60)")
        subparser.add_argument("--machines", type=int, default=None,
                               help="bound concurrently working workers by "
                                    "a simulated cluster of N machines "
                                    "(default: unbounded)")
        subparser.add_argument("--poll", type=float, default=0.2,
                               help="control-plane poll interval in seconds")
        subparser.add_argument("--timeout", type=float, default=None,
                               help="give up after this many seconds "
                                    "without fleet progress (resets on "
                                    "every completed point)")

    campaign_serve = campaign_commands.add_parser(
        "serve", help="run the fleet coordinator for a distributed sweep")
    _add_campaign_source(campaign_serve)
    _add_fleet_tuning(campaign_serve)
    serve_freshness = campaign_serve.add_mutually_exclusive_group()
    serve_freshness.add_argument("--resume", dest="resume",
                                 action="store_true", default=True,
                                 help="skip points the store already has "
                                      "(default)")
    serve_freshness.add_argument("--fresh", dest="resume",
                                 action="store_false",
                                 help="re-execute every point")
    campaign_serve.add_argument("--quiet", action="store_true",
                                help="suppress the fleet event feed")
    _add_trace_argument(campaign_serve)

    campaign_work = campaign_commands.add_parser(
        "work", help="run one fleet worker against a served campaign")
    _add_campaign_source(campaign_work)
    campaign_work.add_argument("--worker", default=None, metavar="ID",
                               help="worker id (default: <host>-<pid>; "
                                    "names this worker's shard file)")
    campaign_work.add_argument("--poll", type=float, default=0.2)
    campaign_work.add_argument("--timeout", type=float, default=None,
                               help="give up after this many seconds "
                                    "without coordinator progress (keep "
                                    "it above ~15s — the coordinator "
                                    "beats its state at least that often "
                                    "while alive)")
    campaign_work.add_argument("--fail-after", type=int, default=None,
                               metavar="N",
                               help="fault injection: die (stop "
                                    "heartbeating) after executing N "
                                    "points")
    campaign_work.add_argument("--grace", type=float, default=None,
                               help="seconds a pre-existing 'done' state "
                                    "must survive unchanged before this "
                                    "worker trusts it and exits — the "
                                    "window you have to start 'serve' "
                                    "after the workers (default: 10; "
                                    "0 trusts it immediately)")
    campaign_work.add_argument("--quiet", action="store_true")
    _add_trace_argument(campaign_work)

    campaign_fleet = campaign_commands.add_parser(
        "fleet", help="simulate a coordinator + N workers locally, or "
                      "emit the fleet's deployment plan")
    _add_campaign_source(campaign_fleet)
    _add_fleet_tuning(campaign_fleet)
    campaign_fleet.add_argument("--workers", type=int, default=2,
                                help="fleet size (default: 2)")
    fleet_freshness = campaign_fleet.add_mutually_exclusive_group()
    fleet_freshness.add_argument("--resume", dest="resume",
                                 action="store_true", default=True)
    fleet_freshness.add_argument("--fresh", dest="resume",
                                 action="store_false")
    campaign_fleet.add_argument("--quiet", action="store_true")
    campaign_fleet.add_argument("--plan", choices=("swarm", "kubernetes"),
                                default=None,
                                help="emit the compose/k8s fleet document "
                                     "instead of running anything")
    _add_trace_argument(campaign_fleet)

    campaign_compact = campaign_commands.add_parser(
        "compact", help="garbage-collect a store: drop superseded records "
                        "and merged shard files")
    _add_campaign_source(campaign_compact)
    campaign_compact.add_argument("--force", action="store_true",
                                  help="compact even when the fleet state "
                                       "says a coordinator is serving "
                                       "(it crashed)")

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
        "export", help="convert a trace for external viewers")
    _add_trace_source(trace_export)
    trace_export.add_argument("--chrome", action="store_true", default=True,
                              help="Chrome trace_event JSON for "
                                   "about:tracing / Perfetto (the default "
                                   "and currently only format)")
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
    from repro.dashboard import Dashboard
    from repro.scenario import flow

    builder = _load_scenario(args)
    # Command-line knobs override the scenario's own deploy() settings
    # only when explicitly given — a .py scenario keeps its seed/machines.
    builder.deploy(machines=args.machines, seed=args.seed,
                   duration=args.duration)
    for source, destination, rate in args.flow:
        builder.workload(flow(source, destination, rate=rate,
                              key=f"{source}->{destination}"))
    compiled = builder.compile()

    # --duration (if given) was folded into compiled.duration by deploy();
    # otherwise fall back to the scenario's own setting, else the
    # historical 30 s default.
    duration = compiled.duration if compiled.duration is not None else 30.0

    if args.backend != "kollaps":
        from repro.scenario import BackendCompatibilityError, resolve_backend

        try:
            backend = resolve_backend(args.backend)
        except ValueError as error:
            print(f"cannot run on the {args.backend!r} backend: {error}",
                  file=sys.stderr)
            return 1
        # Baseline backends have no Kollaps dashboard; report the unified
        # per-workload metrics instead.  Only compatibility problems are
        # caught — genuine workload failures still traceback, as with the
        # default engine path.
        try:
            run = compiled.run(until=duration, backend=backend)
        except BackendCompatibilityError as error:
            print(f"cannot run on the {args.backend!r} backend: {error}",
                  file=sys.stderr)
            return 1
        if args.snapshot_every > 0:
            print(f"note: --snapshot-every renders the Kollaps dashboard "
                  f"and is ignored on the {run.backend!r} backend",
                  file=sys.stderr)
        print(f"backend: {run.backend}, seed: {run.seed}, "
              f"machines: {run.machines}, ran to t={run.until:g}s")
        for key in sorted(run.metrics, key=str):
            metrics = run.metrics[key]
            if metrics.primary in metrics.summary:
                print(f"workload {key}: {metrics.primary} = "
                      f"{metrics.value:g}")
            else:
                print(f"workload {key}: collected ({metrics.kind}, "
                      "no scalar summary)")
        return 0

    engine = compiled.start()
    dashboard = Dashboard(engine)
    if args.snapshot_every > 0:
        from repro.sim import Process
        Process(engine.sim, args.snapshot_every,
                lambda: print(dashboard.render_flows(), file=sys.stderr),
                start_after=args.snapshot_every)

    engine.run(until=duration)

    # Run provenance: which backend/seed/cluster produced this output.
    print(f"backend: kollaps, seed: {compiled.config.seed}, "
          f"machines: {compiled.config.machines}, ran to t={duration:g}s")
    print(dashboard.render())
    for source, destination, _rate in args.flow:
        key = f"{source}->{destination}"
        mean = engine.fluid.mean_throughput(key, duration * 0.3, duration)
        print(f"flow {key}: {format_rate(mean)} mean")
    return 0


def _command_validate(args: argparse.Namespace) -> int:
    from repro.scenario.dsl import lint_file
    diagnostics = lint_file(args.experiment,
                            script=getattr(args, "scenario", None))
    for diagnostic in diagnostics:
        print(f"{args.experiment}: {diagnostic}", file=sys.stderr)
    errors = sum(1 for d in diagnostics if d.severity == "error")
    if errors:
        print(f"{args.experiment}: {errors} error(s)", file=sys.stderr)
        return 1
    compiled = _load_scenario(args).compile()
    print(f"{compiled.topology.describe()}")
    print(f"dynamic events: {len(compiled.schedule)}")
    for line in compiled.path_table().splitlines():
        print(f"  {line}")
    return 0


def _command_plan(args: argparse.Namespace) -> int:
    from repro.orchestration import render_plan

    compiled = _load_scenario(args).compile()
    try:
        problems = compiled.validate_backend(args.backend)
    except ValueError as error:
        print(f"# {error}", file=sys.stderr)
        return 1
    if problems:
        print(f"# NOT deployable on the {args.backend!r} backend:",
              file=sys.stderr)
        for problem in problems:
            print(f"#   - {problem}", file=sys.stderr)
        return 1
    machines = None if args.machines is None else \
        [f"host-{index}" for index in range(args.machines)]
    plan = compiled.plan(orchestrator=args.orchestrator, machines=machines)
    print(f"# deployment plan ({plan.orchestrator}), "
          f"backend={args.backend}, "
          f"bootstrapper={'yes' if plan.needs_bootstrapper else 'no'}")
    for container, machine in sorted(plan.placement.items()):
        print(f"#   {container} -> {machine}")
    print(render_plan(plan), end="")
    return 0


def _scenario_script(args: argparse.Namespace) -> int:
    compiled = _load_scenario(args).compile()
    with open(args.script, encoding="utf-8") as handle:
        schedule = compiled.compile_script(handle.read())
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
    from repro.scenario.dsl import lint_file
    errors = 0
    for path in args.files:
        diagnostics = lint_file(path, script=args.scenario)
        for diagnostic in diagnostics:
            print(f"{path}: {diagnostic}", file=sys.stderr)
        errors += sum(1 for d in diagnostics if d.severity == "error")
    if errors:
        print(f"{errors} error(s) in {len(args.files)} file(s)",
              file=sys.stderr)
        return 1
    return 0


def _scenario_diff(args: argparse.Namespace) -> int:
    from repro.scenario import Scenario
    from repro.scenario.dsl import ScnError, diff_scenarios
    from repro.topology.model import TopologyError
    compiled = []
    for path in (args.before, args.after):
        try:
            compiled.append(Scenario.from_file(path).compile())
        except (ScnError, TopologyError, UnitError, OSError,
                SyntaxError) as error:
            print(f"cannot load {path!r}: {error}", file=sys.stderr)
            return 2
    difference = diff_scenarios(*compiled)
    if args.json:
        print(json.dumps(difference.to_dict(), indent=2))
    else:
        print(difference.to_text(), end="")
    return 1 if difference else 0


def _scenario_export(args: argparse.Namespace) -> int:
    from repro.scenario.dsl import ScnError, dumps_scn
    from repro.topology.model import TopologyError
    try:
        compiled = _load_scenario(args).compile()
        text = dumps_scn(compiled)
    except (ScnError, TopologyError, UnitError, OSError,
            SyntaxError) as error:
        print(f"cannot export {args.experiment!r}: {error}", file=sys.stderr)
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
            if (reloaded.describe() != compiled.describe()
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


def _load_campaign(args: argparse.Namespace):
    from repro.campaign import CampaignError, load_campaign
    try:
        return load_campaign(args.campaign_source)
    except (CampaignError, FileNotFoundError) as error:
        print(f"cannot load campaign {args.campaign_source!r}: {error}",
              file=sys.stderr)
        return None


def _campaign_run(args: argparse.Namespace) -> int:
    from repro.dashboard import CampaignMonitor

    campaign = _load_campaign(args)
    if campaign is None:
        return 1
    points = campaign.points()
    print(campaign.describe(points), file=sys.stderr)
    monitor = CampaignMonitor(
        total=len(points),
        stream=None if args.quiet else sys.stderr)
    result = campaign.run(jobs=args.jobs, store=args.store,
                          resume=args.resume, progress=monitor)
    return _print_campaign_outcome(result, monitor)


def _campaign_status(args: argparse.Namespace) -> int:
    campaign = _load_campaign(args)
    if campaign is None:
        return 1
    points = campaign.points()
    store = _campaign_store(args, campaign)
    records = store.load()
    counts = store.status_counts(points, records)
    print(campaign.describe())
    print(f"store: {store.directory}")
    for status in ("ok", "incompatible", "error", "missing"):
        print(f"  {status}: {counts.get(status, 0)}/{len(points)}")
    orphans = store.orphans(points, records)
    if orphans:
        print(f"  orphaned records (grid no longer claims them): "
              f"{len(orphans)}")
    return 0


def _campaign_report(args: argparse.Namespace) -> int:
    campaign = _load_campaign(args)
    if campaign is None:
        return 1
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
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(report, end="" if report.endswith("\n") else "\n")
    return 0


def _print_campaign_outcome(result, monitor=None) -> int:
    if monitor is not None:
        print(monitor.render(), file=sys.stderr)
    print(result.describe())
    print()
    print(result.aggregate().to_markdown())
    for failure in result.failed():
        print(f"FAILED {failure.point.describe()}: "
              f"{failure.error.splitlines()[0]}", file=sys.stderr)
    return 1 if result.failed() else 0


def _campaign_store(args: argparse.Namespace, campaign):
    # One path-derivation authority: Campaign._store, so serve/work/
    # compact can never read a different directory than run/fleet.
    return campaign._store(args.store)


def _campaign_serve(args: argparse.Namespace) -> int:
    from repro.campaign.distributed import Coordinator
    from repro.cluster import Cluster
    from repro.dashboard import FleetMonitor

    campaign = _load_campaign(args)
    if campaign is None:
        return 1
    points = campaign.points()
    print(campaign.describe(points), file=sys.stderr)
    monitor = FleetMonitor(total=len(points),
                           stream=None if args.quiet else sys.stderr)
    cluster = None if args.machines is None else Cluster(args.machines)
    coordinator = Coordinator(campaign, _campaign_store(args, campaign),
                              cluster=cluster, lease_size=args.lease_size,
                              lease_timeout=args.lease_timeout,
                              resume=args.resume, progress=monitor)
    try:
        result = coordinator.serve(poll=args.poll, timeout=args.timeout)
    except TimeoutError as error:
        print(f"fleet timed out: {error}", file=sys.stderr)
        return 1
    return _print_campaign_outcome(result, monitor)


def _campaign_work(args: argparse.Namespace) -> int:
    from repro.campaign.distributed import Worker, default_worker_id

    campaign = _load_campaign(args)
    if campaign is None:
        return 1
    store = _campaign_store(args, campaign)
    worker = Worker(campaign, store.directory,
                    args.worker or default_worker_id(),
                    max_points=args.fail_after,
                    stale_done_grace=args.grace,
                    progress=(None if args.quiet else
                              lambda line: print(line, file=sys.stderr)))
    try:
        executed = worker.run(poll=args.poll, timeout=args.timeout)
    except TimeoutError as error:
        print(f"worker timed out: {error}", file=sys.stderr)
        return 1
    print(f"worker {worker.worker_id}: executed {executed} point(s)")
    return 0


def _campaign_fleet(args: argparse.Namespace) -> int:
    campaign = _load_campaign(args)
    if campaign is None:
        return 1
    if args.plan is not None:
        from repro.orchestration import campaign_fleet_plan, render_plan
        plan = campaign_fleet_plan(args.campaign_source, args.workers,
                                   orchestrator=args.plan)
        print(f"# campaign fleet plan ({plan.orchestrator}): "
              f"1 coordinator + {args.workers} worker(s), shared "
              f"'campaigns' volume")
        print(render_plan(plan), end="")
        return 0
    from repro.campaign.distributed import run_fleet
    from repro.cluster import Cluster
    from repro.dashboard import FleetMonitor

    points = campaign.points()
    print(campaign.describe(points), file=sys.stderr)
    monitor = FleetMonitor(total=len(points),
                           stream=None if args.quiet else sys.stderr)
    cluster = None if args.machines is None else Cluster(args.machines)
    try:
        result = run_fleet(campaign, workers=args.workers, store=args.store,
                           cluster=cluster, lease_size=args.lease_size,
                           lease_timeout=args.lease_timeout,
                           resume=args.resume, poll=args.poll,
                           timeout=args.timeout, progress=monitor)
    except TimeoutError as error:
        print(f"fleet timed out: {error}", file=sys.stderr)
        return 1
    return _print_campaign_outcome(result, monitor)


def _campaign_compact(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignError
    from repro.campaign.distributed import ensure_quiescent

    campaign = _load_campaign(args)
    if campaign is None:
        return 1
    store = _campaign_store(args, campaign)
    try:
        ensure_quiescent(store, force=args.force)
    except CampaignError as error:
        print(f"not compacting: {error}", file=sys.stderr)
        return 1
    report = store.compact()
    print(f"compacted {store.directory}: kept {report['records_kept']} "
          f"record(s), dropped {report['records_dropped']} superseded "
          f"line(s), salvaged {report['records_salvaged']} unmerged shard "
          f"record(s), removed {report['shards_removed']} shard file(s), "
          f"reclaimed {report['bytes_reclaimed']} bytes")
    return 0


def _command_campaign(args: argparse.Namespace) -> int:
    handlers = {
        "run": _campaign_run,
        "status": _campaign_status,
        "report": _campaign_report,
        "serve": _campaign_serve,
        "work": _campaign_work,
        "fleet": _campaign_fleet,
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


def _command_reproduce(args: argparse.Namespace) -> int:
    from repro.experiments.__main__ import main as experiments_main

    argv: List[str] = ["-o", args.output]
    if args.quick:
        argv.append("--quick")
    if args.only:
        argv.extend(["--only", *args.only])
    return experiments_main(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    from repro import telemetry         # after parsing: --help loads none

    # Only the campaign fleet logs; the other verbs load `logging` when
    # asked to be louder or quieter than the default.
    if args.command == "campaign" or args.log_quiet or args.log_verbose:
        telemetry.configure_logging(
            -1 if args.log_quiet else args.log_verbose)
    if getattr(args, "trace", None):
        # enable() also exports REPRO_TRACE so campaign pool workers and
        # fleet subprocesses trace into the same directory.
        telemetry.enable(args.trace)
    handlers = {
        "run": _command_run,
        "validate": _command_validate,
        "plan": _command_plan,
        "scenario": _command_scenario,
        "reproduce": _command_reproduce,
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
