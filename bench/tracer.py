"""The boundary tracer: per-layer self time from a ``cProfile`` hook.

The traced child runs its whole life under :class:`cProfile.Profile` (the
C ``sys.setprofile`` hook, so the overhead is a fraction of a Python-level
callback).  Afterwards every profiled function is attributed to a *layer*
— one of this repository's modules, by source file — and the raw
caller -> callee table is folded into

* **self time per layer**: time spent in the layer's own frames, plus the
  C builtins those frames call directly (``heapq.heappush`` from
  ``repro.sim`` is kernel work, ``ndarray.sum`` from ``repro.core.sharing``
  is solver work);
* **edges**: call count, inclusive and self time per (caller layer ->
  callee layer) boundary crossing.

Python-level code outside ``repro`` — stdlib, numpy's Python side, json,
the import machinery, this harness — is the ``other`` layer, and whatever
the profiler could not see (its own bookkeeping, interpreter start-up) is
added to ``other`` too, so layer self times sum to the traced wall time
exactly and nothing is hidden.  Everything stays in memory; the child
writes the summary once, at exit.
"""

from __future__ import annotations

import cProfile
import os
import sys
from typing import Dict, List, Tuple

__all__ = ["LAYERS", "layer_of_file", "Tracer"]

# Module prefix (under repro/) -> layer; longest prefix wins.  Helper
# modules are folded into the layer whose work they do.
_PREFIXES: Tuple[Tuple[str, str], ...] = tuple(sorted({
    "sim": "sim",
    "netstack": "netstack",
    "netstack/fluid": "netstack.fluid",
    "baselines": "netstack",            # bare-metal substrate of campaigns
    "tc": "tc",
    "core": "core.engine",
    "core/manager": "core.manager",
    "core/emucore": "core.manager",
    "core/congestion": "core.manager",
    "core/sharing": "core.sharing",
    "core/collapse": "core.collapse",
    "core/properties": "core.collapse",  # compose_path, called per pair
    "cluster": "core.engine",
    "metadata": "metadata",
    "apps": "apps",
    "scenario": "scenario",
    "topology": "scenario",             # the description model
    "units": "scenario",
    "experiments": "scenario",          # table4.pick_pairs
    "campaign": "campaign",
}.items(), key=lambda item: -len(item[0])))

LAYERS: Tuple[str, ...] = (
    "sim", "netstack", "netstack.fluid", "tc", "core.manager",
    "core.sharing", "core.collapse", "core.engine", "metadata", "apps",
    "scenario", "campaign", "other")

_MARKER = os.sep + "repro" + os.sep


def layer_of_file(filename: str) -> str:
    """The layer a source file belongs to (``other`` outside repro)."""
    at = filename.rfind(_MARKER)
    if at < 0:
        return "other"
    module = filename[at + len(_MARKER):].replace(os.sep, "/")
    if module.endswith(".py"):
        module = module[:-3]
    for prefix, layer in _PREFIXES:
        if module == prefix or module.startswith(prefix + "/"):
            return layer
    return "other"                      # telemetry, cli, dashboard, ...


def _generated_code_layers() -> Dict[object, str]:
    """Layers of dataclass-generated methods.

    ``Event.__lt__``, ``Packet.__init__`` and friends are compiled from a
    string, so their code objects name no file; they are found through the
    classes of the loaded ``repro`` modules instead.
    """
    found: Dict[object, str] = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro.") or module is None:
            continue
        layer = layer_of_file(getattr(module, "__file__", None) or "")
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == name:
                for attribute in vars(value).values():
                    code = getattr(attribute, "__code__", None)
                    if code is not None and code.co_filename == "<string>":
                        found[code] = layer
    return found


class Tracer:
    """Profile a region, then summarise it by layer."""

    def __init__(self) -> None:
        self._profile = cProfile.Profile()

    def start(self) -> None:
        self._profile.enable()

    def stop(self) -> None:
        self._profile.disable()

    def summary(self, wall_s: float) -> Dict[str, object]:
        """Layer self times (summing to ``wall_s``) and boundary edges."""
        layer_cache: Dict[str, str] = {}
        generated = _generated_code_layers()

        def layer_of(code) -> str:
            if isinstance(code, str):   # a C builtin: no layer of its own
                return ""
            if code in generated:
                return generated[code]
            filename = code.co_filename
            layer = layer_cache.get(filename)
            if layer is None:
                layer = layer_cache[filename] = layer_of_file(filename)
            return layer

        self_s = dict.fromkeys(LAYERS, 0.0)
        edges: Dict[Tuple[str, str], List[float]] = {}
        for entry in self._profile.getstats():
            caller = layer_of(entry.code)
            if caller:
                self_s[caller] += entry.inlinetime
            for call in entry.calls or ():
                callee = layer_of(call.code)
                if not callee:
                    # Builtin called from Python code: the caller's work.
                    # (Builtins run only from profiled Python frames, so
                    # every builtin's self time is counted exactly once.)
                    self_s[caller or "other"] += call.inlinetime
                    continue
                source = caller or "other"
                if source != callee:
                    edge = edges.setdefault((source, callee), [0, 0.0, 0.0])
                    edge[0] += call.callcount
                    edge[1] += call.totaltime
                    edge[2] += call.inlinetime
        # What the profiler did not see is unattributed, not missing.
        self_s["other"] += wall_s - sum(self_s.values())
        return {
            "self_s": self_s,
            "edges": [{"from": source, "to": callee, "calls": int(calls),
                       "inclusive_s": inclusive, "self_s": inline}
                      for (source, callee), (calls, inclusive, inline)
                      in sorted(edges.items(),
                                key=lambda item: -item[1][1])],
        }
