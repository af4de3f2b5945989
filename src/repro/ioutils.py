"""Crash-safe file output helpers.

Whole-file artifacts (trace exports, run manifests, metrics dumps,
result-store payloads) go through :func:`atomic_write_text` /
:func:`atomic_write_json`: the content is written to a temporary
sibling file, flushed and fsynced, then moved into place with
:func:`os.replace`.  A reader therefore never observes a torn write —
after a crash or SIGKILL the path either holds the previous complete
content or the new complete content, never a prefix of the new one.

Append-only streams (the campaign journal, the event and request
streams, the memo-store index and the service queue) are
:class:`SealedLog` files instead: one NDJSON line per record, read
back as the longest intact prefix, with a torn tail cut off before
the next append.

Transient disk faults (``ENOSPC``/``EDQUOT`` — a log rotation or a
neighbouring tenant briefly filling the volume) are absorbed with a
bounded retry + exponential backoff: :func:`_retry_io` re-attempts the
whole write up to :data:`IO_RETRY_ATTEMPTS` times, truncating a torn
partial append back to its pre-attempt length first so a retried append
never duplicates bytes.  Appends hold an exclusive ``flock`` across the
attempt-and-retry sequence, so that truncation can never destroy a
record a concurrent appender (thread or foreign process) committed in
between.  The fault-injection subsystem hooks the same
path via :func:`set_io_fault_gate` (the ``io-enospc`` campaign
scenario), which is how the chaos suite proves journal and store bytes
survive disk-pressure blips unchanged.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None

__all__ = [
    "IO_RETRY_ATTEMPTS",
    "atomic_write_text",
    "atomic_write_json",
    "canonical_json",
    "fsync_append_text",
    "io_retry_count",
    "LogRead",
    "record_intact",
    "reset_io_retry_count",
    "SealedLog",
    "seal_record",
    "set_io_fault_gate",
    "sha256_text",
    "sha256_file",
]

#: Attempts per write before a retryable OSError is allowed to escape.
IO_RETRY_ATTEMPTS = 5

#: errnos treated as transient disk pressure rather than hard failures.
_RETRYABLE_ERRNOS = frozenset(
    code
    for code in (
        errno.ENOSPC,
        getattr(errno, "EDQUOT", None),
        errno.EAGAIN,
    )
    if code is not None
)

#: First backoff sleep; doubles per attempt (2 ms, 4 ms, 8 ms, ...).
_BACKOFF_BASE_S = 0.002

#: Injectable sleep so tests (and the simulated clock) can avoid real
#: waits; the schedule itself is deterministic.
_sleep = time.sleep

#: Optional fault gate ``gate(op, path, attempt) -> None`` consulted
#: before every write attempt; raising ``OSError`` simulates the write
#: failing.  ``op`` is ``"append"`` or ``"write"``; ``attempt`` is
#: 1-based so a gate can fail the first M attempts of an op and then
#: let the retry through (a *transient* fault).
_io_fault_gate = None

#: Retries performed since the last reset (observability for tests and
#: the campaign supervisor's degraded-mode reporting).
_io_retries = 0


def set_io_fault_gate(gate):
    """Install (or with ``None`` clear) the write fault gate.

    Returns the previously installed gate so callers can restore it.
    """
    global _io_fault_gate
    previous = _io_fault_gate
    _io_fault_gate = gate
    return previous


def io_retry_count() -> int:
    """Writes retried (after a transient fault) since the last reset."""
    return _io_retries


def reset_io_retry_count() -> None:
    """Zero the retry counter (start of a run or a test)."""
    global _io_retries
    _io_retries = 0


def _retry_io(op: str, path: str, attempt_fn):
    """Run one write attempt with bounded retry on transient errnos."""
    global _io_retries
    for attempt in range(1, IO_RETRY_ATTEMPTS + 1):
        try:
            if _io_fault_gate is not None:
                _io_fault_gate(op, path, attempt)
            return attempt_fn()
        except OSError as exc:
            if exc.errno not in _RETRYABLE_ERRNOS or attempt == IO_RETRY_ATTEMPTS:
                raise
            _io_retries += 1
            _sleep(_BACKOFF_BASE_S * (2 ** (attempt - 1)))
    raise AssertionError("unreachable")  # pragma: no cover


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write *text* to *path* atomically (temp file + flush + replace).

    Transient ``ENOSPC``-class failures are retried with backoff; every
    attempt is self-contained (its temp file is unlinked on failure), so
    the destination only ever flips from old complete content to new
    complete content.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."

    def _attempt() -> None:
        fd, tmp = tempfile.mkstemp(
            prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    _retry_io("write", path, _attempt)


def fsync_append_text(path: str | os.PathLike, text: str, heal=None) -> int:
    """Append *text* to *path* with an fsync; returns the file's new length.

    Unlike :func:`atomic_write_text` this is O(len(text)), not O(file):
    the write lands at the end of the existing content and only the new
    bytes hit the disk.  A crash mid-append can leave a *torn tail* — a
    partial last line — which :class:`SealedLog` detects on read and
    cuts back before its next append.  The containing directory is not
    fsynced: the file itself already exists, so no directory entry
    changes.

    Transient disk faults are retried; before each retry the file is
    truncated back to its pre-append length, so a partially landed
    attempt is never duplicated.  An exclusive ``flock`` is held for
    the whole append-plus-retry sequence, so a concurrent appender (a
    thread or another process sharing the file) can never land a
    record inside the truncation window and have it destroyed — its
    append simply waits its turn.  *heal*, if given, is called as
    ``heal(fd, size)`` under that lock and returns the length to
    append at (after cutting the file back to it).
    """
    return _append_text(path, text, heal, durable=True)


def _append_text(path, text: str, heal, durable: bool) -> int:
    """The one byte-level appender behind :func:`fsync_append_text`
    (``durable``: fsync, fault gate, bounded retry) and the flushed
    streams of :class:`SealedLog` (one unbuffered write, no fsync)."""
    path = os.fspath(path)
    data = text.encode("utf-8")
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_EX)
        base = os.fstat(fd).st_size
        if heal is not None:
            base = heal(fd, base)

        def _attempt() -> int:
            if os.fstat(fd).st_size > base:
                os.ftruncate(fd, base)
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            if durable:
                os.fsync(fd)
            return base + len(data)

        if durable:
            return _retry_io("append", path, _attempt)
        return _attempt()
    finally:
        os.close(fd)


def canonical_json(doc: object) -> str:
    """The canonical (sorted, compact) JSON form used for checksumming."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def atomic_write_json(path: str | os.PathLike, doc: object) -> None:
    """Serialise *doc* as stable, human-readable JSON and write atomically."""
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def seal_record(body: dict) -> dict:
    """Attach a ``sha256`` integrity field to *body* (checksum of its
    canonical JSON with the field removed).  :class:`SealedLog` seals
    the campaign journal, the memo-store index and the service queue
    this way; memo-store objects seal their payload documents too."""
    doc = {k: v for k, v in body.items() if k != "sha256"}
    doc["sha256"] = sha256_text(canonical_json(doc))
    return doc


def record_intact(doc: dict) -> bool:
    """True when *doc*'s ``sha256`` matches its own canonical body."""
    body = {k: v for k, v in doc.items() if k != "sha256"}
    return doc.get("sha256") == sha256_text(canonical_json(body))


@dataclass(frozen=True)
class LogRead:
    """What :meth:`SealedLog.read` found: the longest intact prefix.

    ``end`` is the prefix's length in bytes.  When the prefix ended
    early, ``lineno`` (1-based) and ``reason`` say where and why, and
    ``dropped`` counts that line and every non-blank line after it.
    """

    records: list
    dropped: int = 0
    end: int = 0
    lineno: int | None = None
    reason: str | None = None


class SealedLog:
    """One append-only NDJSON file: the format every stream shares.

    Each record is one line, ``json.dumps(record, sort_keys=True)``
    plus a newline, so a file's bytes are a pure function of its record
    sequence.  Per stream the owner fixes:

    * ``durable`` — appends go through :func:`fsync_append_text`
      (fsync, bounded ENOSPC retry); otherwise one unbuffered write
      per record, visible to readers at once but not fsynced;
    * ``sealed`` — appends carry a :func:`seal_record` checksum and
      reads require :func:`record_intact`;
    * ``schema`` — a callable that raises :class:`ValueError` for a
      record that does not belong in the stream.

    :meth:`read` keeps the longest intact prefix: it ends at the first
    line that is not JSON, not an object, fails its seal or the schema,
    or lacks its newline (a torn append).  :meth:`append` first cuts
    the file back to that prefix whenever the file is not the length
    the last read, append or rewrite left it at — a torn tail is
    healed before it can swallow the new record.  The cut is worked
    out under the append's file lock from the bytes on disk, so an
    intact record another appender committed is kept.  Appends stay
    O(1) while this object is the file's only writer.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        durable: bool,
        sealed: bool = False,
        schema=None,
    ) -> None:
        self.path = os.fspath(path)
        self.durable = durable
        self.sealed = sealed
        self.schema = schema
        # Length of the trusted prefix as this object last saw it;
        # ``None`` until the first read, append or rewrite.
        self._end: int | None = None
        self._lock = threading.Lock()

    @staticmethod
    def line(record: dict) -> str:
        return json.dumps(record, sort_keys=True) + "\n"

    def read(self) -> LogRead:
        """The longest intact prefix; a missing file reads as empty."""
        try:
            with open(self.path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return LogRead([])
        result = self._scan(data)
        with self._lock:
            self._end = result.end
        return result

    def append(self, record: dict) -> dict:
        """Write one record (sealed first if the stream is); returns it."""
        if self.sealed:
            record = seal_record(record)
        line = self.line(record)
        with self._lock:
            if self._end is None:
                os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
            if self.durable:
                self._end = fsync_append_text(self.path, line, heal=self._heal)
            else:
                self._end = _append_text(self.path, line, self._heal, False)
        return record

    def rewrite(self, records) -> None:
        """Atomically replace the whole file with *records*."""
        if self.sealed:
            records = [seal_record(r) for r in records]
        text = "".join(self.line(r) for r in records)
        with self._lock:
            atomic_write_text(self.path, text)
            self._end = len(text.encode("utf-8"))

    def _heal(self, fd: int, size: int) -> int:
        """Under the append lock: cut a file that is not the length
        last seen back to its longest intact prefix."""
        if size == self._end:
            return size
        end = self._scan(os.pread(fd, size, 0)).end
        if end < size:
            os.ftruncate(fd, end)
        return end

    def _scan(self, data: bytes) -> LogRead:
        records: list[dict] = []
        pos = lineno = 0
        while pos < len(data):
            lineno += 1
            newline = data.find(b"\n", pos)
            stop = len(data) if newline < 0 else newline
            raw = data[pos:stop]
            if raw.strip():
                # errors="replace": undecodable bytes fail json.loads
                # and end the prefix instead of raising.
                reason, doc = self._check(raw.decode("utf-8", "replace"))
                if reason is None and newline < 0:
                    reason = "is missing its trailing newline (torn write?)"
                if reason is not None:
                    dropped = sum(
                        1 for l in data[pos:].split(b"\n") if l.strip()
                    )
                    return LogRead(records, dropped, pos, lineno, reason)
                records.append(doc)
            elif newline < 0:
                break  # trailing blanks without a newline are not trusted
            pos = stop + 1
        return LogRead(records, 0, pos)

    def _check(self, text: str) -> tuple[str | None, dict | None]:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            return "is not valid JSON (torn write?)", None
        if not isinstance(doc, dict):
            return "is not a JSON object", None
        if self.sealed and not record_intact(doc):
            return "fails its sha256 checksum", None
        if self.schema is not None:
            try:
                self.schema(doc)
            except ValueError as exc:
                return str(exc), None
        return None, doc


def sha256_text(text: str) -> str:
    """Hex SHA-256 digest of *text* (UTF-8)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_file(path: str | os.PathLike) -> str:
    """Hex SHA-256 digest of the file at *path*."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
