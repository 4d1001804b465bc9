"""The unified Scenario API: one fluent choke point for experiments.

The paper's core pitch is that a *single declarative experiment
description* drives the decentralized emulation end-to-end.  This package
is that choke point for the reproduction: every way of assembling an
experiment — the fluent builder, the listing-style text language, the dict
form, Modelnet XML, the programmatic topology generators and THUNDERSTORM
scenario scripts — produces a :class:`Scenario` builder, and everything
downstream consumes the :class:`CompiledScenario` it compiles to::

    from repro.scenario import Scenario, iperf, ping, set_link

    run = (Scenario.build("figure1")
           .service("c1", image="iperf")
           .service("sv", image="nginx", replicas=2)
           .bridges("s1", "s2")
           .link("c1", "s1", latency="10ms", up="10Mbps")
           .link("s1", "s2", latency="20ms", up="100Mbps")
           .link("sv", "s2", latency="5ms", up="50Mbps")
           .at(30, set_link("s1", "s2", latency="80ms"))
           .workload(ping("c1", "sv.0"), iperf("c1", "sv.0", duration=15))
           .deploy(machines=2, seed=42)
           .compile()
           .run())

Execution is backend-pluggable: the same compiled scenario fans across
Kollaps and the paper's §5 comparator systems through
``compiled.run(backend="kollaps" | "baremetal" | "mininet" | "maxinet" |
"trickle")``, each run returning the unified
:class:`~repro.scenario.results.ScenarioRun` results API
(per-workload :class:`~repro.scenario.results.Metrics`,
``compare()`` deltas, ``to_dict()``/``to_csv()`` export).

See ``docs/api.md`` for the full quickstart and the backend guide.
"""

from repro._lazy import lazy_exports
from repro.scenario.backends import (
    BackendCapabilities,
    BackendCompatibilityError,
    BareMetalBackend,
    ExecutionBackend,
    KollapsBackend,
    MaxinetBackend,
    MininetBackend,
    TrickleBackend,
    backend_names,
    register_backend,
    resolve_backend,
)
from repro.scenario.builder import (
    Scenario,
    link_down,
    link_up,
    node_join,
    node_leave,
    set_link,
)
from repro.scenario.compiled import CompiledScenario
from repro.scenario.results import Metrics, RunComparison, ScenarioRun
from repro.scenario.workloads import (
    CurlSwarmWorkload,
    CustomWorkload,
    FlowWorkload,
    HttpLoadWorkload,
    IperfWorkload,
    PingWorkload,
    Workload,
    curl_swarm,
    custom,
    flow,
    http_load,
    iperf,
    ping,
    udp_blast,
)

# The declarative DSL toolbox (repro.scenario.dsl) loads on first use: a
# run that never lints, diffs or fuzzes does not compile it.
_LAZY = {"dsl": (
    "Diagnostic", "ScnError", "load_scn", "loads_scn", "dump_scn",
    "dumps_scn", "lint_file", "lint_scenario", "diff_scenarios",
    "generate_scenario", "fuzz_corpus", "fuzz_campaign",
    "DifferentialReport", "run_differential")}
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)

__all__ = [
    "Scenario",
    "CompiledScenario",
    "ScenarioRun",
    "Metrics",
    "RunComparison",
    "ExecutionBackend",
    "BackendCapabilities",
    "BackendCompatibilityError",
    "KollapsBackend",
    "BareMetalBackend",
    "MininetBackend",
    "MaxinetBackend",
    "TrickleBackend",
    "backend_names",
    "register_backend",
    "resolve_backend",
    "set_link",
    "link_down",
    "link_up",
    "node_join",
    "node_leave",
    "Workload",
    "FlowWorkload",
    "IperfWorkload",
    "PingWorkload",
    "HttpLoadWorkload",
    "CurlSwarmWorkload",
    "CustomWorkload",
    "flow",
    "iperf",
    "ping",
    "udp_blast",
    "http_load",
    "curl_swarm",
    "custom",
    "Diagnostic",
    "ScnError",
    "load_scn",
    "loads_scn",
    "dump_scn",
    "dumps_scn",
    "lint_file",
    "lint_scenario",
    "diff_scenarios",
    "generate_scenario",
    "fuzz_corpus",
    "fuzz_campaign",
    "DifferentialReport",
    "run_differential",
]
