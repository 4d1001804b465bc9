"""The persistent, resumable campaign result store.

One directory per campaign (``campaigns/<name>/`` by default) holding:

* ``results.jsonl`` — one JSON record per executed point, appended as
  points complete and flushed line-by-line, so a killed campaign loses at
  most the point that was in flight.  Records are keyed by the point's
  content hash (:meth:`~repro.campaign.grid.Point.digest`); duplicate
  hashes resolve last-wins, which is how ``--fresh`` reruns supersede old
  results without rewriting history.
* ``manifest.json`` — the campaign definition that produced the records,
  rewritten at the start of every run (provenance, not identity: points
  are matched by hash, so editing the grid simply makes the new points
  run while untouched ones still resume).

A half-written trailing line (the in-flight point at kill time), or a
record whose run does not decode, is skipped on load rather than
poisoning the resume: its point counts as missing and runs again.  The
next append starts a fresh line after a torn one, and
:meth:`ResultStore.compact` drops both.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Mapping, Optional

__all__ = ["ResultStore", "RESUMABLE_STATUSES", "encode_record",
           "read_records"]


def encode_record(record: Mapping) -> str:
    """One store line: canonical JSON with the digest path's repr fallback.

    default=repr mirrors the digest path's canonical JSON: any grid value
    the hash accepted must also store (resume keys on the precomputed
    'hash', never on re-parsed params).
    """
    if "hash" not in record:
        raise ValueError("a store record needs the point 'hash'")
    return json.dumps(record, sort_keys=True, default=repr) + "\n"


def _readable(record) -> bool:
    """Whether a parsed store line is a record: a mapping with the point
    ``hash`` whose ``run``, if any, decodes."""
    if not isinstance(record, dict) or "hash" not in record:
        return False
    if record.get("run") is None:
        return True
    from repro.scenario.results import ScenarioRun
    try:
        ScenarioRun.from_dict(record["run"])
    except (AttributeError, KeyError, TypeError, ValueError):
        return False
    return True


def read_records(path: str) -> Dict[str, dict]:
    """hash -> latest record from one JSONL file, last-wins.

    Lines that are no :func:`_readable` record — the half-written tail of
    a killed campaign process, a record whose run does not decode — are
    skipped rather than poisoning the load: their point is missing, runs
    again, and its new record supersedes them.
    """
    records: Dict[str, dict] = {}
    if not os.path.exists(path):
        return records
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue        # the interrupted writer's partial line
            if _readable(record):
                records[record["hash"]] = record
    return records

#: Statuses a resumed run trusts and skips.  ``error`` is deliberately
#: absent: a crashed point (a bug, a flaky dependency) retries on resume,
#: while an ``incompatible`` point is a deterministic capability verdict
#: that re-running cannot change.
RESUMABLE_STATUSES = ("ok", "incompatible")


class ResultStore:
    """Append-only JSONL records for one campaign, addressed by point hash."""

    def __init__(self, directory: str) -> None:
        self.directory = str(directory)
        self.results_path = os.path.join(self.directory, "results.jsonl")
        self.manifest_path = os.path.join(self.directory, "manifest.json")

    # ---------------------------------------------------------------- write
    def append(self, record: Mapping) -> None:
        """Persist one point record (must carry its ``hash``) durably.

        One fsync per record: a killed sweep loses at most the point that
        was in flight.  A torn tail the killed writer left is terminated
        first, so the record after it stays a line of its own.
        """
        line = encode_record(record).encode("utf-8")
        os.makedirs(self.directory, exist_ok=True)
        with open(self.results_path, "ab+") as handle:
            if handle.seek(0, os.SEEK_END):
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    line = b"\n" + line
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())

    def write_manifest(self, spec: Mapping) -> None:
        os.makedirs(self.directory, exist_ok=True)
        with open(self.manifest_path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle, indent=2, sort_keys=True)
            handle.write("\n")

    # ----------------------------------------------------------------- read
    def load(self) -> Dict[str, dict]:
        """hash -> latest record; corrupt (half-written) lines are skipped."""
        return read_records(self.results_path)

    def completed(self, statuses: Iterable[str] = RESUMABLE_STATUSES
                  ) -> Dict[str, dict]:
        """hash -> record for every point a resumed run may skip."""
        wanted = set(statuses)
        return {digest: record for digest, record in self.load().items()
                if record.get("status") in wanted}

    # --------------------------------------------------------------- status
    def status_counts(self, points,
                      records: Optional[Dict[str, dict]] = None
                      ) -> Dict[str, int]:
        """How this campaign's points stand: per-status counts + missing.

        Pass preloaded ``records`` (from :meth:`load`) to avoid re-parsing
        a large store when combining with :meth:`orphans`.
        """
        records = self.load() if records is None else records
        counts: Dict[str, int] = {"ok": 0, "incompatible": 0, "error": 0,
                                  "missing": 0}
        for point in points:
            record = records.get(point.digest())
            if record is None:
                counts["missing"] += 1
            else:
                status = record.get("status", "error")
                counts[status] = counts.get(status, 0) + 1
        return counts

    def orphans(self, points,
                records: Optional[Dict[str, dict]] = None) -> List[str]:
        """Stored hashes no current point claims (grid edits leave these)."""
        records = self.load() if records is None else records
        live = {point.digest() for point in points}
        return sorted(digest for digest in records if digest not in live)

    # ----------------------------------------------------------- compaction
    def compact(self) -> Dict[str, int]:
        """Garbage-collect the store: one record per hash.

        A long-lived sweep accumulates superseded lines (``--fresh``
        reruns, retried errors) and possibly the torn tail of a killed
        run.  ``compact()`` rewrites ``results.jsonl`` with exactly the
        last-wins survivors, in stable hash order.  The rewrite goes
        through a temporary file + ``os.replace``, so a crash
        mid-compaction leaves either the old or the new store, never a
        truncated one.  Only compact a store no sweep is appending to.

        Returns the reclamation report: ``records_kept``,
        ``records_dropped`` (superseded, duplicate or torn lines removed)
        and ``bytes_reclaimed``.  Running it twice is a no-op: the second
        pass keeps every record and reclaims 0 bytes.
        """
        lines_before = bytes_before = 0
        if os.path.exists(self.results_path):
            bytes_before = os.path.getsize(self.results_path)
            with open(self.results_path, encoding="utf-8") as handle:
                lines_before = sum(1 for line in handle if line.strip())
        records = self.load()
        os.makedirs(self.directory, exist_ok=True)
        scratch = self.results_path + ".compact"
        with open(scratch, "w", encoding="utf-8") as handle:
            for digest in sorted(records):
                handle.write(encode_record(records[digest]))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(scratch, self.results_path)
        return {"records_kept": len(records),
                "records_dropped": lines_before - len(records),
                "bytes_reclaimed":
                    bytes_before - os.path.getsize(self.results_path)}
