"""The verdict store: the one persistent, content-addressed cache of verdicts.

A :class:`VerdictStore` holds verdicts only:
:class:`~repro.checking.model_checker.CheckResult`\\ s (under the
``("check", ...)`` keys) and campaign
:class:`~repro.engine.campaign.VerificationReport`\\ s (under the
``("task", ...)`` keys), on disk, served back byte-identical on every later
request (library, campaign engine, HTTP service; serial or pooled).  Each
request writes at most one record: the exploration graph behind a verdict
is transient and never stored.  The store is also the durability layer of
campaigns: the campaign engine writes each report to the store as soon as
it completes, so a campaign killed mid-run and run again against the same
store serves what it already finished and computes only the remainder.

Content addressing
==================
A verdict is keyed by :func:`content_key` — SHA-256 over the ``repr`` of
the *fully resolved* spec (the key tuples of :mod:`repro.engine.spec`):
the algorithm's name and content digest
(:attr:`~repro.core.algorithm.Algorithm.digest`, so an edited rule table
never reads its predecessor's verdict), grid shape, synchrony model and
the **normalized** reduction (``"none"`` or ``"grid"``) — plus everything
the result is a function of that is *not* part of the work's identity at
first glance:

* the **state budget** (``max_states``), so a verdict computed under a
  small budget can never masquerade as the verdict of a full exploration
  (and a ``StateSpaceLimitExceeded`` trip is simply never recorded);
* the **scheduler seed** and tie-break policy for walk-based reports,
  so two differently seeded runs of the same grid never alias.

Record format and crash safety
==============================
Segments are flat sequences of self-delimiting binary records::

    +----------------+----------------+----------------------------------+
    | length (4B !I) | crc32  (4B !I) | pickle((key, value)), length B   |
    +----------------+----------------+----------------------------------+

Appends are ``flush`` + ``fsync``, so a crash mid-append leaves at worst a
torn tail, which the next open truncates away.  A record damaged in place
(a CRC mismatch, or a pickle that no longer loads) is skipped and counted
as ``corrupt_records`` while every record before and after it is kept;
only a record whose framing is lost ends its segment's replay (see
:func:`iter_records`).  Duplicate keys are legal and last-written wins,
which makes re-recording idempotent.

The in-memory index holds the most recently used ``max_entries`` verdicts
(LRU); when the on-disk record count grows past ``compact_factor`` times
the live index, the store *compacts*: live entries are rewritten into
fresh segments (least recently used first, so a later partial load favors
recent verdicts) and the stale segments are deleted.  Compaction is
crash-safe by ordering — new segments are written and fsynced before old
ones are unlinked, and last-write-wins replay makes a crash between the
two steps harmless.

A store directory has a **single writer** at a time (one coordinator
process); any number of concurrent *readers* may open their own store on
the directory.  Within the writing process the store is fully
thread-safe.

Request coalescing
==================
Campaign fan-out and concurrent service requests frequently ask for the
same key at once.  :meth:`VerdictStore.get_or_compute` implements
singleflight: the first requester of a key becomes the *leader* and
computes; every duplicate concurrent requester blocks on the leader and
shares its result (or re-raises its exception) — duplicate concurrent
requests trigger exactly one exploration.  The ``coalesced`` counter
counts the duplicates that were served this way.

Counters — ``hits`` / ``misses`` / ``coalesced`` (plus ``evictions`` and
``compactions``) — are surfaced per-request as ``store_stats`` on the
returned objects, a ``compare=False`` observability field exactly like
``matcher_stats``: cached results stay equal to freshly computed ones.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import re
import struct
import threading
import zlib
from collections import OrderedDict
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, Iterator, Optional, Tuple

__all__ = ["VerdictStore", "RECORD_HEADER", "content_key", "iter_records", "pack_record"]

# ---------------------------------------------------------------------------
# The record codec
# ---------------------------------------------------------------------------
#: Record header: 4-byte big-endian body length + 4-byte CRC32 of the body.
RECORD_HEADER = struct.Struct("!II")


def content_key(spec: object) -> str:
    """A stable content hash of a work-item spec.

    SHA-256 over ``repr(spec)`` — dataclass reprs
    (:class:`~repro.engine.campaign.CampaignTask`) and primitive tuples
    (the store keys of :mod:`repro.engine.spec`) are both deterministic
    functions of their field values, so equal specs key identically across
    processes and runs.
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


_MISSING = object()

#: Outcome labels ``get_or_compute`` reports per request.
HIT, MISS, COALESCED = "hit", "miss", "coalesced"

#: Exactly the segment names ``_roll_segment`` writes (``seg-<n>.log``).
_SEGMENT_NAME = re.compile(r"seg-(?:0|[1-9][0-9]*)\.log")


class _InFlight:
    """One in-flight computation duplicates of a key rendezvous on."""

    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: object = _MISSING
        self.error: Optional[BaseException] = None


class VerdictStore:
    """Disk-backed ``{content-key: verdict}`` cache with singleflight.

    ``path=None`` keeps the store purely in memory (the coalescing and
    LRU semantics are identical; nothing survives the process).  With a
    ``path`` the directory is created on demand and filled with
    ``seg-<n>.log`` segment files of :func:`pack_record` records.

    ``max_entries`` bounds the in-memory index (LRU eviction; evicted
    verdicts stay on disk until the next compaction and simply miss).
    ``segment_records`` is the roll-over size of the active segment;
    ``compact_factor`` triggers compaction when the on-disk record count
    exceeds that multiple of the live index.
    """

    def __init__(
        self,
        path=None,
        *,
        max_entries: int = 100_000,
        segment_records: int = 4096,
        compact_factor: float = 2.0,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.path: Optional[Path] = Path(path) if path is not None else None
        self.max_entries = max_entries
        self.segment_records = segment_records
        self.compact_factor = compact_factor
        self._lock = threading.RLock()
        self._index: "OrderedDict[str, object]" = OrderedDict()
        self._inflight: Dict[str, _InFlight] = {}
        self._file = None
        self._active_records = 0
        self._disk_records = 0
        self._next_segment = 0
        self.hits = 0
        self.misses = 0
        self.coalesced = 0
        self.evictions = 0
        self.compactions = 0
        #: Torn bytes truncated from segment tails on open (a nonzero
        #: value means a previous writer died mid-append).
        self.recovered_bytes = 0
        #: Damaged records skipped on open (their bytes stay on disk until
        #: the next compaction).
        self.corrupt_records = 0
        if self.path is not None:
            self._open_disk()

    # -- disk ------------------------------------------------------------
    def _segments(self) -> list:
        """Segment paths in segment-number order.

        Only the names :meth:`_roll_segment` writes count: any other file in
        the directory, such as ``seg-0.log.bak``, is never replayed,
        truncated or unlinked.
        """
        assert self.path is not None
        try:
            names = [p for p in self.path.iterdir() if _SEGMENT_NAME.fullmatch(p.name)]
        except FileNotFoundError:
            return []
        return sorted(names, key=lambda p: int(p.stem.split("-")[1]))

    def _open_disk(self) -> None:
        """Replay every segment (truncating torn tails) and open the active one."""
        assert self.path is not None
        self.path.mkdir(parents=True, exist_ok=True)
        segments = self._segments()
        for seg in segments:
            data = seg.read_bytes()
            end = 0
            for key, value, end in iter_records(data):
                self._disk_records += 1
                if key is None:
                    self.corrupt_records += 1
                else:
                    self._store_in_index(key, value)
            if end < len(data):
                # Framing lost: truncate so the segment ends on a record
                # boundary (only the *active* segment is appended to, but
                # recovery is uniform).
                self.recovered_bytes += len(data) - end
                with open(seg, "ab") as handle:
                    handle.truncate(end)
        if segments:
            active = segments[-1]
            self._next_segment = int(active.stem.split("-")[1]) + 1
            self._file = open(active, "ab")
            self._active_records = 0  # roll on segment_records *new* appends
        else:
            self._roll_segment()

    def _roll_segment(self) -> None:
        """Close the active segment and start a fresh one."""
        assert self.path is not None
        if self._file is not None:
            self._file.close()
        seg = self.path / f"seg-{self._next_segment}.log"
        self._next_segment += 1
        self._file = open(seg, "ab")
        self._active_records = 0

    def _append(self, key: str, value: object) -> None:
        """Durably append one record (flush + fsync) to the active segment."""
        if self._file is None:
            return
        self._file.write(pack_record(key, value))
        self._file.flush()
        os.fsync(self._file.fileno())
        self._active_records += 1
        self._disk_records += 1
        if self._active_records >= self.segment_records:
            self._roll_segment()

    def _maybe_compact(self) -> None:
        """Rewrite live entries and drop stale segments when disk bloats."""
        if self.path is None:
            return
        live = len(self._index)
        if self._disk_records <= max(self.compact_factor * live, self.segment_records):
            return
        stale = self._segments()
        if self._file is not None:
            self._file.close()
            self._file = None
        # Fresh segments first (fsynced), stale ones unlinked after: a
        # crash in between leaves duplicates, which last-write-wins replay
        # resolves to the identical index.
        self._disk_records = 0
        self._roll_segment()
        for key, value in self._index.items():  # LRU order: oldest first
            self._append(key, value)
        os.fsync(self._file.fileno())
        for seg in stale:
            seg.unlink(missing_ok=True)
        self.compactions += 1

    # -- index -----------------------------------------------------------
    def _store_in_index(self, key: str, value: object) -> None:
        self._index[key] = value
        self._index.move_to_end(key)
        while len(self._index) > self.max_entries:
            self._index.popitem(last=False)
            self.evictions += 1

    # -- public API ------------------------------------------------------
    key = staticmethod(content_key)

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def __contains__(self, spec: object) -> bool:
        with self._lock:
            return content_key(spec) in self._index

    @property
    def stats(self) -> Dict[str, int]:
        """A snapshot of the request and maintenance counters."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "coalesced": self.coalesced,
                "evictions": self.evictions,
                "compactions": self.compactions,
                "entries": len(self._index),
                "disk_records": self._disk_records,
                "corrupt_records": self.corrupt_records,
            }

    def get(self, spec: object):
        """The cached verdict for ``spec``, or ``None`` (counts hit/miss)."""
        k = content_key(spec)
        with self._lock:
            value = self._index.get(k, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return None
            self._index.move_to_end(k)
            self.hits += 1
            return value

    def put(self, spec: object, value: object) -> None:
        """Durably record ``spec``'s verdict (idempotent; last write wins)."""
        k = content_key(spec)
        with self._lock:
            self._append(k, value)
            self._store_in_index(k, value)
            self._maybe_compact()

    def get_or_compute(
        self, spec: object, compute: Callable[[], object]
    ) -> Tuple[object, str]:
        """Return ``(verdict, outcome)``; duplicates coalesce onto one compute.

        ``outcome`` is ``"hit"`` (served from the index), ``"miss"`` (this
        call was the leader and ran ``compute``) or ``"coalesced"`` (a
        concurrent leader's result was shared).  The leader's exception
        propagates to every coalesced waiter; nothing is recorded for it.
        """
        k = content_key(spec)
        with self._lock:
            value = self._index.get(k, _MISSING)
            if value is not _MISSING:
                self._index.move_to_end(k)
                self.hits += 1
                return value, HIT
            flight = self._inflight.get(k)
            if flight is None:
                flight = _InFlight()
                self._inflight[k] = flight
                leader = True
            else:
                leader = False
                self.coalesced += 1
        if not leader:
            flight.event.wait()
            if flight.error is not None:
                raise flight.error
            return flight.value, COALESCED
        try:
            value = compute()
        except BaseException as exc:
            flight.error = exc
            with self._lock:
                self._inflight.pop(k, None)
            flight.event.set()
            raise
        with self._lock:
            self.misses += 1
            self._append(k, value)
            self._store_in_index(k, value)
            self._maybe_compact()
            self._inflight.pop(k, None)
        flight.value = value
        flight.event.set()
        return value, MISS

    # -- result annotation ----------------------------------------------
    def fetch(self, spec: object, compute: Callable[[], object]):
        """``get_or_compute`` plus ``store_stats`` annotation.

        The verdict is recorded *clean*; the returned object is a shallow
        ``dataclasses.replace`` copy carrying the counter snapshot in its
        ``store_stats`` field (``compare=False``, so cached and computed
        results stay equal).
        """
        value, outcome = self.get_or_compute(spec, compute)
        return self.annotate(value, outcome)

    def annotate(self, value, outcome: str):
        """A copy of ``value`` carrying current counters in ``store_stats``.

        Values without a ``store_stats`` dataclass field pass through
        unchanged.  Used by :meth:`fetch` and by batch consumers (the
        campaign engine's prefilter) that hit the index directly.
        """
        fields = getattr(value, "__dataclass_fields__", None)
        if fields is None or "store_stats" not in fields:
            return value
        with self._lock:
            stats = {
                "hits": self.hits,
                "misses": self.misses,
                "coalesced": self.coalesced,
                "outcome": outcome,
            }
        return replace(value, store_stats=stats)

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if self._file is not None and not self._file.closed:
                self._file.close()

    def __enter__(self) -> "VerdictStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        where = str(self.path) if self.path is not None else "memory"
        return f"VerdictStore({where!r}, entries={len(self._index)})"
