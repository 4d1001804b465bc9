"""The `.scn` front door, observed from the outside.

Everything a scenario description can say goes through three functions —
:func:`validate_document`, :func:`scn_document`/:func:`dumps_scn` and
:func:`scenario_from_scn` — so their behaviour over a fixed corpus
fingerprints the whole vocabulary: which fields exist, in which order
they dump, which defaults are omitted, which spellings load, and what
every malformed input is told.  :func:`corpus_digests` computes that
fingerprint through the public API only (it runs unchanged on any
commit); ``tests/golden/scn_corpus.json`` pins it.

Two halves:

* *valid scenarios* — ``generate_scenario(1, 0..299)`` at the small and
  the medium budget plus every ``examples/*.py|*.scn``: the canonical
  dump, ``describe()`` and the dump after a reload, digested per group;
* *mutations* — each of those documents damaged six seeded ways (a
  value of the wrong type, a missing key, an unknown key, a unit string
  good or bad, a hostile ``changes``/``properties`` payload, another
  workload ``kind``): every diagnostic ``validate_document`` prints plus
  what loading does with the document, digested per kind of damage.

To find what moved when a digest does, print :func:`corpus_lines` on
both commits and diff the two listings.
"""

import copy
import hashlib
import json
import pathlib
import random

from repro.scenario import Scenario
from repro.scenario.dsl import (FuzzBudget, ScnError, dumps_scn,
                                generate_scenario, loads_scn,
                                scenario_from_scn, validate_document)
from repro.topology.model import TopologyError
from repro.units import UnitError

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"
SEED = 1
PER_BUDGET = 300
MUTATIONS = ("type", "missing", "unknown", "unit", "nested", "kind")

_JUNK = (None, True, False, [], {}, 0, 3, -1, 1.5, "", "x", "10ms", "5Mbps",
         ["a"], {"a": 1}, {"a": "b"})
_UNITS = ("10ms", "100Mbps", "2%", "unlimited", "inf", "-5ms", "0bps",
          "150%", "10 parsecs", " 5 ms ", "1e3", "1.5s", "20 kbps")
_KINDS = ([], {}, None, 3, True, "bogus", "flow", "iperf", "ping", "http",
          "curl")
#: An event payload field draws a plausible value half the time, junk
#: (or a unit string of any dimension) the other half.
_NESTED = {"latency": ("10ms", 0.02), "jitter": ("1ms", 0.001),
           "bandwidth": ("5Mbps", 1e6, "unlimited"), "loss": ("2%", 0.01),
           "jitter_distribution": ("normal", "uniform"), "up": (), "bogus": ()}


def valid_scenarios():
    """``(group, name, builder)`` for every scenario of the corpus."""
    for scale in ("small", "medium"):
        budget = FuzzBudget.scaled(scale)
        for index in range(PER_BUDGET):
            yield (scale, f"{scale}-{index}",
                   generate_scenario(SEED, index, budget))
    for path in sorted(EXAMPLES.glob("*.py")) + sorted(EXAMPLES.glob("*.scn")):
        yield "examples", path.name, Scenario.from_file(str(path))


def _mappings(node, found):
    """Every mapping of a document, outermost first."""
    if isinstance(node, dict):
        found.append(node)
        for value in node.values():
            _mappings(value, found)
    elif isinstance(node, list):
        for value in node:
            _mappings(value, found)
    return found


def mutate(document, kind, rng):
    """``document`` damaged one seeded way (a deep copy; the original
    stays clean).  The walk knows nothing of the schema: it picks among
    the mappings and keys the document happens to have."""
    document = copy.deepcopy(document)
    mappings = [item for item in _mappings(document, []) if item]
    target = rng.choice(mappings)
    if kind == "type":
        target[rng.choice(sorted(target))] = copy.deepcopy(rng.choice(_JUNK))
    elif kind == "missing":
        del target[rng.choice(sorted(target))]
    elif kind == "unknown":
        target[rng.choice(("bogus", "bandwidth", "source", "stop", "kind"))] \
            = copy.deepcopy(rng.choice(_JUNK))
    elif kind == "unit":
        numeric = [(mapping, key) for mapping in mappings
                   for key, value in sorted(mapping.items())
                   if isinstance(value, (int, float))
                   and not isinstance(value, bool)]
        mapping, key = rng.choice(numeric)
        mapping[key] = rng.choice(_UNITS)
    elif kind == "nested":
        link = rng.choice(document.get("links") or [{}])
        payload = {}
        for field in rng.sample(sorted(_NESTED), rng.randint(0, 3)):
            plausible = _NESTED[field] if rng.random() < 0.5 else ()
            payload[field] = copy.deepcopy(
                rng.choice(plausible or _JUNK + _UNITS))
        event = {"time": rng.choice((1.0, "2s", 0, -1)),
                 "action": rng.choice(("set_link", "join_link",
                                       "leave_link")),
                 "orig": link.get("orig"), "dest": link.get("dest"),
                 rng.choice(("changes", "properties")): payload}
        document.setdefault("events", []).append(event)
    elif kind == "kind":
        workloads = document.setdefault("workloads", [])
        if not workloads:
            workloads.append({"source": "a", "destination": "b"})
        rng.choice(workloads)["kind"] = copy.deepcopy(rng.choice(_KINDS))
    return document


def load_outcome(document):
    """What loading ``document`` does: the canonical dump of what it
    compiles to, or the error that refuses it."""
    try:
        return dumps_scn(scenario_from_scn(document).compile())
    except ScnError:
        return "refused by the schema"
    except (TopologyError, UnitError) as error:
        return f"{type(error).__name__}: {error}"


def corpus_lines():
    """``(section, line)`` for every observation, in a fixed order."""
    for group, name, builder in valid_scenarios():
        compiled = builder.compile()
        text = dumps_scn(compiled)
        reloaded = loads_scn(text, source=name).compile()
        yield f"dump/{group}", text
        yield f"describe/{group}", compiled.describe()
        yield f"redump/{group}", dumps_scn(reloaded)
        document = json.loads(text)
        for kind in MUTATIONS:
            rng = random.Random(f"scn-mutate:{name}:{kind}")
            damaged = mutate(document, kind, rng)
            findings = "\n".join(str(item)
                                 for item in validate_document(damaged))
            yield f"mutation/{kind}", (f"{name}\n{findings}\n"
                                       f"{load_outcome(damaged)}")


def corpus_digests():
    """``{section: {"count": n, "digest": blake2b}}`` over the corpus."""
    sections = {}
    for section, line in corpus_lines():
        entry = sections.setdefault(
            section, {"count": 0, "digest": hashlib.blake2b(digest_size=16)})
        entry["count"] += 1
        entry["digest"].update(line.encode("utf-8") + b"\x00")
    return {section: {"count": entry["count"],
                      "digest": entry["digest"].hexdigest()}
            for section, entry in sorted(sections.items())}
