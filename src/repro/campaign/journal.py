"""The campaign write-ahead journal.

One JSONL file (``journal.jsonl``) records every campaign transition:

* ``campaign-start`` — spec name + digest, fault scenario, seed, and the
  full unit schedule;
* ``unit-start`` / ``unit-done`` / ``unit-failed`` — per-unit lifecycle;
  ``unit-done`` binds the unit's result-store payload by SHA-256 digest;
* ``unit-quarantined`` — a poison unit pulled from the worker pool after
  crashing K consecutive workers, with their exit codes as provenance
  (resume treats it like ``unit-failed``: sticky, never re-run);
* ``resume`` — which units a resumed run skipped, re-ran, or recovered
  from a corrupt tail;
* ``interrupted`` / ``deadline`` — early exits that remain resumable;
* ``campaign-done`` — the final exit code.

Every record carries a ``sha256`` field: the digest of the record's
canonical JSON with that field removed.

Format v2 (this module's writer) appends one fsynced line per record —
O(1) per append — instead of atomically rewriting the whole file
(format v1), which made an n-record campaign pay O(n²) journal bytes.
The file is a :class:`~repro.ioutils.SealedLog`: a crash mid-append can
leave a *torn tail* (a partial last line), :meth:`Journal.load` keeps
the longest intact prefix and reports how many trailing records were
dropped, and the next append cuts the torn tail off before writing.
The reader accepts both ``"v": 1`` and ``"v": 2`` records, so journals
written before the format change load unchanged.

No record contains wall-clock timestamps or hostnames; replaying the
journal is deterministic, and the byte sequence on disk is a pure
function of the record sequence — which is what lets serial and
parallel campaign runs be compared with ``cmp``.
"""

from __future__ import annotations

import os

from ..errors import CampaignCorruptError
from ..ioutils import SealedLog

__all__ = ["Journal"]

#: Record types the orchestrator writes (documented in docs/campaigns.md).
RECORD_TYPES = (
    "campaign-start",
    "unit-start",
    "unit-done",
    "unit-failed",
    "unit-quarantined",
    "resume",
    "interrupted",
    "deadline",
    "campaign-done",
)

#: Journal format versions the reader accepts.  1 = rewrite-on-append
#: era, 2 = fsync'd append era.  Records are self-describing, so a
#: journal may legally mix versions (an old campaign resumed by a new
#: binary appends v2 records after its v1 prefix).
RECORD_VERSIONS = (1, 2)

#: The version stamped on newly written records.
WRITE_VERSION = 2


def _check_record(doc: dict) -> None:
    """The journal's schema hook: raise :class:`ValueError` (worded to
    follow "record" in ``campaign verify``'s error) for a record of an
    unknown type or version."""
    if doc.get("type") not in RECORD_TYPES:
        raise ValueError(f"has unknown type {doc.get('type')!r}")
    if doc.get("v") not in RECORD_VERSIONS:
        raise ValueError(f"has unsupported version {doc.get('v')!r}")


class Journal:
    """Append-only, checksummed JSONL journal with torn-tail recovery."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = os.fspath(path)
        self._log = SealedLog(
            self.path, durable=True, sealed=True, schema=_check_record
        )
        self._records: list[dict] = []
        self.dropped_tail = 0

    # ------------------------------------------------------------------
    # loading / verification
    # ------------------------------------------------------------------

    @classmethod
    def load(cls, path: str | os.PathLike, strict: bool = False) -> "Journal":
        """Read a journal, keeping the longest intact prefix.

        Any record that fails to parse, fails its checksum, or has an
        unknown type or version ends the trusted prefix: it and
        everything after it are dropped (counted in
        :attr:`dropped_tail`).  With ``strict=True`` a bad record
        raises :class:`CampaignCorruptError` instead — the ``campaign
        verify`` behaviour.
        """
        journal = cls(path)
        result = journal._log.read()
        if strict and result.reason is not None:
            raise CampaignCorruptError(
                f"{journal.path}:{result.lineno}: record {result.reason}"
            )
        journal._records = result.records
        journal.dropped_tail = result.dropped
        return journal

    @property
    def records(self) -> list[dict]:
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def of_type(self, record_type: str) -> list[dict]:
        return [r for r in self._records if r["type"] == record_type]

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------

    def append(self, record_type: str, **fields) -> dict:
        """Seal a record and persist it with one fsync'd append."""
        if record_type not in RECORD_TYPES:
            raise ValueError(f"unknown journal record type {record_type!r}")
        rec = self._log.append({"v": WRITE_VERSION, "type": record_type, **fields})
        self._records.append(rec)
        return rec

    # ------------------------------------------------------------------
    # fault injection support
    # ------------------------------------------------------------------

    def truncate_tail(self, keep_bytes_of_last: int = 20) -> None:
        """Tear the last record in half (the ``journal-truncate`` fault).

        Leaves the file ending mid-record, exactly what a power cut
        during a non-atomic append would produce on real storage.
        """
        with open(self.path, "r", encoding="utf-8") as fh:
            text = fh.read()
        lines = text.splitlines(keepends=True)
        if not lines:
            return
        torn = lines[-1][:keep_bytes_of_last]
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write("".join(lines[:-1]) + torn)
