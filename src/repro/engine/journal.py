"""Append-only, content-hash-keyed write-ahead journal of campaign verdicts.

A long campaign whose process dies loses every verdict it computed;
re-running from scratch is exactly the waste ROADMAP item 2's
"incremental/resumable campaign log" names.  A :class:`CampaignJournal` is
the durability layer: every completed report is appended — and fsynced —
to a single journal file *before* the campaign engine hands it to the
caller, keyed by a content hash of the work item's spec.  A campaign
killed mid-run and re-pointed at the same journal replays the journaled
verdicts and executes only the remainder; because every report is a pure
function of its task (the engine's core determinism invariant), the merged
report list is identical to an uninterrupted run's.

Record format
=============
The journal is a flat sequence of self-delimiting binary records::

    +----------------+----------------+----------------------------------+
    | length (4B !I) | crc32  (4B !I) | pickle((key, value)), length B   |
    +----------------+----------------+----------------------------------+

``key`` is a hex content hash of the work-item spec (see :meth:`task_key`
— any spec with a deterministic ``repr`` works, so the store-key tuples
of :mod:`repro.engine.spec` key
:class:`~repro.checking.model_checker.CheckResult`\\ s the same way), and
``value`` is the completed report object.  Appends are
``flush`` + ``fsync`` — the write-ahead property — and a crash can
therefore only ever produce a *torn tail*: on open, records are replayed
until framing is lost (a short header or body), the tail is truncated
away, and the journal is immediately appendable again.  A record damaged
in place — a CRC mismatch or a pickle that no longer loads — costs only
itself: when the bytes after it are EOF or a record that passes its CRC,
replay skips it (see :func:`iter_records`) and keeps every later record.
Duplicate keys are legal (last-written wins on load), which makes
re-recording after a resume idempotent rather than an error.

The journal is a single-writer object (one campaign engine at a time);
readers may load a copy at any time via a fresh :class:`CampaignJournal`.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import zlib
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

__all__ = [
    "CampaignJournal",
    "RECORD_HEADER",
    "content_key",
    "iter_records",
    "pack_record",
]

#: Record header: 4-byte big-endian body length + 4-byte CRC32 of the body.
RECORD_HEADER = struct.Struct("!II")
_RECORD_HEADER = RECORD_HEADER  # backward-compatible private alias


def content_key(spec: object) -> str:
    """A stable content hash of a work-item spec.

    SHA-256 over ``repr(spec)`` — dataclass reprs
    (:class:`~repro.engine.campaign.CampaignTask`) and primitive tuples
    (the store keys of :mod:`repro.engine.spec`) are both deterministic
    functions of their field values, so equal specs key identically across processes and runs.
    Shared by :class:`CampaignJournal` and the verdict store
    (:mod:`repro.engine.store`), so a spec addresses the same record in
    both.
    """
    return hashlib.sha256(repr(spec).encode("utf-8")).hexdigest()


def pack_record(key: str, value: object) -> bytes:
    """One self-delimiting ``(length, crc32, pickle((key, value)))`` record."""
    body = pickle.dumps((key, value), protocol=pickle.HIGHEST_PROTOCOL)
    return RECORD_HEADER.pack(len(body), zlib.crc32(body)) + body


def _framed(data: bytes, offset: int) -> Optional[Tuple[bytes, bool]]:
    """``(body, crc_ok)`` of the record at ``offset``; ``None`` if it is short."""
    if offset + RECORD_HEADER.size > len(data):
        return None
    length, crc = RECORD_HEADER.unpack_from(data, offset)
    start = offset + RECORD_HEADER.size
    body = data[start : start + length]
    if len(body) < length:
        return None
    return body, zlib.crc32(body) == crc


def iter_records(data: bytes) -> Iterator[Tuple[Optional[str], object, int]]:
    """Yield ``(key, value, end_offset)`` per record, skipping damaged ones.

    A record whose body fails its CRC or no longer unpickles yields
    ``(None, None, end_offset)`` instead, so the caller can count it and
    read on.  Iteration stops where framing is lost: a short header, a
    short body, or a CRC failure whose following bytes are neither EOF nor
    a record that passes its CRC (the failing length field may be the
    damaged part, so nothing after it can be located).  Everything from
    that point on is a torn or corrupt tail the caller truncates away.
    """
    offset = 0
    while True:
        framed = _framed(data, offset)
        if framed is None:
            return  # EOF, or a torn tail: everything after is dropped
        body, crc_ok = framed
        end = offset + RECORD_HEADER.size + len(body)
        if not crc_ok and end < len(data):
            following = _framed(data, end)
            if following is None or not following[1]:
                return  # framing lost at this record
        key = value = None
        if crc_ok:
            try:
                key, value = pickle.loads(body)
            except Exception:  # noqa: BLE001 - undecodable == damaged
                pass
        offset = end
        yield key, value, end


class CampaignJournal:
    """Durable ``{spec-hash: report}`` store with torn-tail recovery.

    Opening loads every intact record into memory (the journal is a
    verdict log, not a bulk store — campaigns are thousands of reports,
    not millions of states), skips records damaged in place and truncates
    any torn tail left by a crash mid-append, so the file always ends on a
    record boundary.

    ``fresh=True`` discards any existing contents instead of resuming
    from them.  Use as a context manager or :meth:`close` explicitly.
    """

    def __init__(self, path, *, fresh: bool = False) -> None:
        self.path = Path(path)
        self._entries: Dict[str, object] = {}
        #: Torn bytes discarded from the tail on open (observability: a
        #: nonzero value means the previous writer died mid-append).
        self.recovered_bytes = 0
        #: Damaged records skipped on open (their bytes stay in the file).
        self.corrupt_records = 0
        if fresh and self.path.exists():
            self.path.unlink()
        valid_end = self._load()
        self._file = open(self.path, "ab")
        if self._file.tell() > valid_end:
            self.recovered_bytes = self._file.tell() - valid_end
            self._file.truncate(valid_end)
            self._file.seek(valid_end)

    # -- loading ---------------------------------------------------------
    def _load(self) -> int:
        """Replay intact records; return the byte offset of the last one."""
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return 0
        offset = 0
        for key, value, offset in iter_records(data):
            if key is None:
                self.corrupt_records += 1
            else:
                self._entries[key] = value
        return offset

    # -- keys ------------------------------------------------------------
    task_key = staticmethod(content_key)

    # -- store -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> Optional[object]:
        """The journaled value for ``key``, or ``None``."""
        return self._entries.get(key)

    def put(self, key: str, value: object) -> None:
        """Durably append one ``(key, value)`` record (flush + fsync).

        The record is on disk before this returns — the write-ahead
        property resume parity rests on.
        """
        if self._file.closed:
            raise RuntimeError("CampaignJournal is closed")
        self._file.write(pack_record(key, value))
        self._file.flush()
        os.fsync(self._file.fileno())
        self._entries[key] = value

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"CampaignJournal({str(self.path)!r}, entries={len(self._entries)})"
