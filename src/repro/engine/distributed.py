"""Distributed campaign execution over TCP worker daemons.

This module extends the backend abstraction of :mod:`repro.engine.backend`
beyond one machine.  A :class:`DistributedBackend` is a coordinator: it
listens on a TCP port, accepts connections from worker daemons started as

.. code-block:: console

    python -m repro.engine.distributed worker --connect HOST:PORT --workers N

and feeds them the payload shape every other backend evaluates:
:class:`~repro.engine.campaign.CampaignTask` work items.  Workers evaluate
them with the worker function every backend shares
(:func:`~repro.engine.campaign.run_task`) against their process-persistent
:func:`~repro.engine.pool.process_cache`, and stream the reports back.
Explorations never cross the wire: a check or exploration handed a
:class:`DistributedBackend` runs the serial explorer in the calling
process, and only campaign task lists fan out to the daemons.

Wire protocol
=============
Every message is a **length-prefixed pickle**: an 8-byte big-endian
unsigned length followed by a one-byte encoding flag and the body —
``0x00`` for a raw ``pickle.dumps(obj, HIGHEST_PROTOCOL)``, ``0x01`` for
the same body zlib-compressed (bodies of ``COMPRESS_THRESHOLD`` bytes or
more, kept only when compression actually shrinks them).  Frames from
pre-compression peers — the bare pickle, no flag — still decode: a
protocol-2+ pickle always begins with ``0x80``, which collides with
neither flag.  Messages are tuples tagged by their first element:

=========================================  =======================================
worker -> coordinator                      coordinator -> worker
=========================================  =======================================
``("hello", info_dict)``                   ``("work", item_id, kind, payload)``
``("result", item_id, value)``             ``("shutdown",)``
``("error", item_id, traceback)``
``("heartbeat", item_id)``
=========================================  =======================================

``kind`` is ``"task"`` (evaluate with ``run_task``); a worker answers any
other kind with an ``error`` frame.  ``heartbeat`` frames are streamed
while a worker is evaluating a long item (every ``heartbeat_interval``
seconds), so a coordinator running with a per-item deadline can tell
*slow but alive* from *wedged*.  Both the coordinator and the daemons are
expected to live inside one trust domain (pickle executes arbitrary code
by design — never expose the port to untrusted peers).

Scheduling, retries and determinism
===================================
The coordinator keeps one queue of outstanding items per job.  Each
connection is served by a thread that pulls an item, ships it, and blocks
for the reply — so a worker daemon started with ``--workers N`` (which
spawns N connections, each backed by its own OS process) pulls N items at
a time, and scheduling is naturally load-balanced: fast workers come back
for more.

Workers may join at any time (new connections start pulling from the
current queue) and die at any time: when a connection breaks with an item
in flight, the coordinator requeues that item for the next available
worker and drops the connection.  This is safe because tasks are **pure
functions of their payload** — re-evaluating a task on another worker
yields the identical report, so at-least-once delivery still produces
exactly-once results.

Failure containment (PR 7)
==========================
Three resilience mechanisms bound how far a misbehaving item or worker can
propagate:

* **Per-item deadline** (``item_timeout=``): while an item is in flight,
  the coordinator expects *some* frame — heartbeat or result — within the
  deadline.  Silence retires the connection as *hung* (counted in
  :attr:`DistributedBackend.hung_retired`) and requeues the item, so a
  wedged-but-connected daemon can no longer stall a sweep forever.
* **Retry budget + poison quarantine** (``max_item_attempts=``): every
  requeue records an attempt (which worker, how it died).  An item whose
  attempts exhaust the budget is *quarantined* instead of requeued — a
  payload that deterministically kills its worker stops after N workers
  rather than cycling through the whole fleet.  Quarantined tasks become
  structured failure reports naming the attempts (the rest of the job is
  unaffected).
* **Structured fleet loss**: losing every worker mid-job raises
  :class:`~repro.engine.backend.FleetLostError` carrying the completed
  results and outstanding item ids, which is what lets the opt-in
  :class:`~repro.engine.backend.FallbackBackend` *finish* the job locally
  instead of recomputing it.

Deterministic fault injection for all of the above lives in
:mod:`repro.engine.faults` (``faults=`` on the backend, the daemon and the
campaign journal); the chaos parity suite and the ``chaos`` CLI
subcommand drive it.

Results are stored by item id and handed back in submission order, which
is the whole determinism story: the campaign engine's reports come back
in task order, identical to the serial engine's because each report is a
pure function of its task.  Which daemon evaluated what, and in which
order, is unobservable in the output.
"""

from __future__ import annotations

import argparse
import io
import os
import pickle
import random
import socket
import struct
import sys
import threading
import time
import traceback
import zlib
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from .backend import FleetLostError, NoWorkersError
from .campaign import CampaignTask, VerificationReport, run_task
from .symmetry import normalize_reduction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .faults import FaultPlan

__all__ = [
    "DistributedBackend",
    "WorkerDaemon",
    "WorkerStatus",
    "send_message",
    "recv_message",
    "recv_message_sized",
    "run_worker",
    "main",
]

#: Frame header: 8-byte big-endian unsigned payload length.
_HEADER = struct.Struct("!Q")

#: Pickled bodies at or above this size are candidates for zlib
#: compression (small frames — acks, heartbeats, work headers — are not
#: worth the CPU or the flag-byte round trip through zlib).
COMPRESS_THRESHOLD = 1024

#: zlib level: 3 trades a few percent of ratio for ~3x faster compression
#: than the default 6 — successor rows are highly repetitive, so even
#: level 1-3 collapses them severalfold.
COMPRESS_LEVEL = 3

#: Body encoding flags (first byte after the length header).
_RAW, _ZLIB = b"\x00", b"\x01"

#: Refuse to allocate buffers for frames beyond this size (a corrupted or
#: hostile header would otherwise ask for up to 2**64 bytes).
MAX_FRAME_BYTES = 1 << 32


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------
def encode_frame_info(obj: object) -> Tuple[bytes, int, int, bool]:
    """The wire form of one message plus its compression accounting.

    Returns ``(frame, raw_bytes, wire_bytes, compressed)``: the frame to
    send, the frame size had the body stayed uncompressed, the size
    actually hitting the wire, and whether the body was compressed.
    Callers that keep wire counters (the coordinator) record the sizes
    under their own locks; everyone else uses :func:`encode_frame`.
    """
    body = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    payload = _RAW + body
    compressed = False
    if len(body) >= COMPRESS_THRESHOLD:
        packed = zlib.compress(body, COMPRESS_LEVEL)
        if len(packed) < len(body):
            payload = _ZLIB + packed
            compressed = True
    raw_bytes = _HEADER.size + 1 + len(body)
    return _HEADER.pack(len(payload)) + payload, raw_bytes, _HEADER.size + len(payload), compressed


def encode_frame(obj: object) -> bytes:
    """The wire form of one message: length header plus flagged body."""
    return encode_frame_info(obj)[0]


def decode_frame_body(body: bytes) -> object:
    """Decode one frame body, whichever encoding (or era) produced it."""
    flag = body[:1]
    if flag == _ZLIB:
        return pickle.loads(zlib.decompress(body[1:]))
    if flag == _RAW:
        return pickle.loads(body[1:])
    # A body starting with neither flag is a legacy bare pickle
    # (protocol >= 2 always leads with 0x80) from a pre-compression peer.
    return pickle.loads(body)


def send_message(sock: socket.socket, obj: object) -> None:
    """Send one length-prefixed pickle frame."""
    sock.sendall(encode_frame(obj))


def _recv_exact(sock: socket.socket, size: int) -> bytes:
    """Read exactly ``size`` bytes or raise :class:`ConnectionError` on EOF."""
    buffer = io.BytesIO()
    remaining = size
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError("connection closed mid-frame")
        buffer.write(chunk)
        remaining -= len(chunk)
    return buffer.getvalue()


def recv_message(sock: socket.socket) -> object:
    """Receive one length-prefixed pickle frame (blocking)."""
    return recv_message_sized(sock)[0]


def recv_message_sized(sock: socket.socket) -> Tuple[object, int]:
    """Receive one frame and report its full wire size (header + body).

    The sized variant backs the coordinator's ``bytes_received`` counters —
    wire accounting wants the bytes actually read off the socket, not a
    re-serialization estimate of the decoded object.
    """
    (length,) = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if length > MAX_FRAME_BYTES:
        raise ConnectionError(f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte cap")
    return decode_frame_body(_recv_exact(sock, length)), _HEADER.size + length


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------
class _Job:
    """One in-flight batch: payloads out, results (by item id) back in."""

    def __init__(self, payloads: Sequence[object]) -> None:
        self.payloads = list(payloads)
        self.results: List[object] = [None] * len(self.payloads)
        self.remaining = len(self.payloads)
        self.failure: Optional[str] = None
        #: Item ids whose first attempt died with its worker; kept for
        #: observability (tests assert the retry path actually ran).
        self.retried: List[int] = []
        #: Per-item attempt log: "worker: how it died" per failed attempt.
        #: Feeds the retry budget and the structured quarantine errors.
        self.attempts: List[List[str]] = [[] for _ in self.payloads]
        #: Items with a collected result (drives FleetLostError.completed).
        self.done: List[bool] = [False] * len(self.payloads)


def _poison_report(task: CampaignTask, attempts: Sequence[str]) -> VerificationReport:
    """The structured failure report of a quarantined campaign task."""
    detail = "; ".join(attempts)
    return VerificationReport(
        algorithm=task.algorithm,
        model=task.model,
        m=task.m,
        n=task.n,
        seed=None if task.kind == "check" else (0 if task.seed is None else task.seed),
        ok=False,
        steps=0,
        moves=0,
        reason=(
            f"poison task: {len(attempts)} failed attempt(s) exhausted the retry budget"
            f" ({detail})"
        ),
        kind=task.kind,
        reduction=normalize_reduction(task.reduction) if task.kind == "check" else None,
    )


class DistributedBackend:
    """Coordinator end of the TCP worker protocol; an ``ExecutionBackend``.

    Binds ``host:port`` (``port=0`` picks an ephemeral port, published as
    :attr:`port`) and accepts worker-daemon connections in the background.
    ``min_workers`` is how many connections :meth:`run_tasks` waits for
    before shipping work (daemons may be launched before or after the
    backend — workers retry connecting, the backend waits for
    registrations), and ``start_timeout`` bounds that wait plus any mid-job
    window in which every worker has died and no replacement joins.

    One job (one batch of tasks) runs at a time; results return in
    submission order.  Items in flight on a connection that breaks are
    requeued for the remaining workers — see the module docstring for why
    retries cannot change results.

    ``item_timeout`` (seconds; ``None`` disables) is the per-item silence
    deadline: an in-flight item whose connection produces neither a
    heartbeat nor a result within it is retired as hung and re-executed
    elsewhere.  ``max_item_attempts`` is the per-item retry budget — an
    item whose attempts (worker deaths, hangs, undecodable replies) reach
    it is quarantined instead of requeued, so a poison payload stops after
    that many workers instead of consuming the fleet.  ``faults`` installs
    a :class:`~repro.engine.faults.FaultPlan` on the coordinator's frame
    path (test/chaos machinery; ``None`` in production).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        min_workers: int = 1,
        start_timeout: float = 60.0,
        item_timeout: Optional[float] = None,
        max_item_attempts: int = 3,
        faults: Optional["FaultPlan"] = None,
    ) -> None:
        if min_workers < 1:
            raise ValueError("min_workers must be >= 1")
        if max_item_attempts < 1:
            raise ValueError("max_item_attempts must be >= 1")
        self.min_workers = min_workers
        self.start_timeout = start_timeout
        self.item_timeout = item_timeout
        self.max_item_attempts = max_item_attempts
        self._faults = faults
        self._lock = threading.Condition()
        self._queue: deque = deque()  # (job, item_id) pairs
        self._job: Optional[_Job] = None
        self._closed = False
        self._live_workers = 0
        self._workers_ever = 0
        #: Items requeued after their worker connection died mid-flight
        #: (observability: the smoke/regression tests assert on it).
        self.retries_total = 0
        #: Connections retired because an in-flight item produced neither
        #: a heartbeat nor a result within ``item_timeout``.
        self.hung_retired = 0
        #: Items quarantined after exhausting ``max_item_attempts``.
        self.poisoned_total = 0
        #: Wire-level accounting: bytes actually written to / read from
        #: worker sockets.
        self.bytes_sent = 0
        self.bytes_received = 0
        #: What ``bytes_sent`` would have been without frame compression,
        #: and how many outbound frames shipped compressed — together they
        #: put a number on what the zlib layer saves.
        self.bytes_sent_raw = 0
        self.frames_compressed = 0
        self._threads: List[threading.Thread] = []
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listener.bind((host, port))
            self._listener.listen()
            self.host, self.port = self._listener.getsockname()[:2]
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name="distributed-accept", daemon=True
            )
            self._accept_thread.start()
        except BaseException:
            # Partial construction must not leak the socket.
            self._listener.close()
            raise

    # -- introspection -------------------------------------------------
    @property
    def address(self) -> str:
        """The ``HOST:PORT`` string daemons should ``--connect`` to."""
        return f"{self.host}:{self.port}"

    @property
    def parallelism(self) -> int:
        """The backend's fan-out width.

        At least ``min_workers`` even before any daemon has registered:
        the campaign engine sizes its dispatch waves from this *before*
        the first job ships (the worker wait happens inside
        :meth:`run_tasks`), and sizing for fewer workers than promised
        would under-fill the fleet.
        """
        with self._lock:
            return max(1, self.min_workers, self._live_workers)

    @property
    def workers_ever(self) -> int:
        """Total worker connections accepted over the backend's lifetime."""
        with self._lock:
            return self._workers_ever

    @property
    def stats(self) -> Dict[str, int]:
        """Resilience + wire counters: retries, quarantines, bytes."""
        with self._lock:
            return {
                "retries_total": self.retries_total,
                "hung_retired": self.hung_retired,
                "poisoned_total": self.poisoned_total,
                "workers_ever": self._workers_ever,
                "live_workers": self._live_workers,
                "bytes_sent": self.bytes_sent,
                "bytes_received": self.bytes_received,
                "bytes_sent_raw": self.bytes_sent_raw,
                "frames_compressed": self.frames_compressed,
            }

    # -- connection handling -------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:  # listener closed
                return
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), name="distributed-serve", daemon=True
            )
            with self._lock:
                if self._closed:
                    conn.close()
                    return
                self._threads.append(thread)
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            hello = recv_message(conn)
        except Exception:  # noqa: BLE001 - bad handshake, drop the connection
            conn.close()
            return
        if not (isinstance(hello, tuple) and hello and hello[0] == "hello"):
            conn.close()
            return
        info = hello[1] if len(hello) > 1 and isinstance(hello[1], dict) else {}
        try:
            peername = "%s:%s" % conn.getpeername()[:2]
        except OSError:  # pragma: no cover - racing close
            peername = "?"
        peer = f"worker {peername} (pid {info.get('pid', '?')}@{info.get('host', '?')})"
        with self._lock:
            if self._closed:
                conn.close()
                return
            self._live_workers += 1
            self._workers_ever += 1
            self._lock.notify_all()
        try:
            self._pull_loop(conn, peer)
        finally:
            with self._lock:
                self._live_workers -= 1
                # Retired connections must not accumulate: a long-lived
                # coordinator sees arbitrarily many daemons come and go.
                try:
                    self._threads.remove(threading.current_thread())
                except ValueError:  # pragma: no cover - close() raced us
                    pass
                self._lock.notify_all()
            conn.close()

    def _pull_loop(self, conn: socket.socket, peer: str) -> None:
        """Pull items for one connection until shutdown or connection death."""
        # The per-item deadline rides on the socket: while an item is in
        # flight, every recv (heartbeat or result) must land within it.
        conn.settimeout(self.item_timeout)
        while True:
            with self._lock:
                while not self._queue and not self._closed:
                    self._lock.wait()
                if self._closed:
                    try:
                        send_message(conn, ("shutdown",))
                    except OSError:
                        pass
                    return
                job, item_id = self._queue.popleft()
            try:
                # Serialize before touching the socket: an unpicklable
                # payload is a deterministic caller error, and requeueing
                # it would just kill every worker in turn.
                frame, raw_bytes, _, compressed = encode_frame_info(
                    ("work", item_id, "task", job.payloads[item_id])
                )
            except Exception:  # noqa: BLE001 - reported as the job's failure
                self._record_reply(
                    job,
                    item_id,
                    ("error", item_id, f"unpicklable payload:\n{traceback.format_exc()}"),
                )
                continue
            if self._faults is not None:
                frame = self._faults.frame_out("coordinator.send", frame, item=item_id)
            try:
                conn.sendall(frame)
                with self._lock:
                    self.bytes_sent += len(frame)
                    self.bytes_sent_raw += raw_bytes
                    self.frames_compressed += int(compressed)
                while True:
                    reply, frame_bytes = recv_message_sized(conn)
                    with self._lock:
                        self.bytes_received += frame_bytes
                    # Heartbeats only reset the silence deadline (the
                    # socket timeout re-arms per recv); the worker is slow
                    # but alive, so keep waiting for the real reply.
                    if isinstance(reply, tuple) and reply and reply[0] == "heartbeat":
                        continue
                    break
            except TimeoutError:
                # Neither a heartbeat nor a result within item_timeout:
                # the worker is wedged (or its network is).  Retire the
                # connection and hand the item to a live worker.
                self._retire_in_flight(
                    job, item_id, peer, f"no heartbeat within {self.item_timeout}s", hung=True
                )
                return
            except Exception:  # noqa: BLE001 - any transport/decode failure
                # The worker died — or sent something the coordinator
                # cannot deserialize (version skew raises AttributeError/
                # ImportError from pickle.loads, not just UnpicklingError).
                # Either way: hand the in-flight item to the surviving
                # workers and retire this connection, so the job can never
                # hang on an item nobody owns.
                reason = traceback.format_exception_only(*sys.exc_info()[:2])[-1].strip()
                self._retire_in_flight(job, item_id, peer, reason, hung=False)
                return
            self._record_reply(job, item_id, reply)

    def _retire_in_flight(self, job: _Job, item_id: int, peer: str, reason: str, *, hung: bool) -> None:
        """An in-flight item lost its connection: requeue or quarantine.

        Items of a job that has already been abandoned (failed and purged
        by ``_run_job``) are dropped instead — requeueing them would make
        the *next* job's workers evaluate stale payloads.
        """
        with self._lock:
            if self._job is not job:
                return
            job.attempts[item_id].append(f"{peer}: {reason}")
            if hung:
                self.hung_retired += 1
            if len(job.attempts[item_id]) >= self.max_item_attempts:
                # Retry budget exhausted: quarantine the item instead of
                # feeding it to yet another worker.  The job survives — the
                # item fails alone, with a structured report naming every
                # attempt.
                self.poisoned_total += 1
                job.results[item_id] = _poison_report(job.payloads[item_id], job.attempts[item_id])
                job.done[item_id] = True
                job.remaining -= 1
            else:
                job.retried.append(item_id)
                self.retries_total += 1
                self._queue.append((job, item_id))
            self._lock.notify_all()

    def _record_reply(self, job: _Job, item_id: int, reply: object) -> None:
        with self._lock:
            if not (isinstance(reply, tuple) and len(reply) == 3 and reply[1] == item_id):
                job.failure = f"malformed reply for item {item_id}: {reply!r}"
            elif reply[0] == "error":
                job.failure = f"worker failed on item {item_id}:\n{reply[2]}"
            elif reply[0] == "result":
                job.results[item_id] = reply[2]
                job.done[item_id] = True
            else:
                job.failure = f"unknown reply tag {reply[0]!r} for item {item_id}"
            job.remaining -= 1
            self._lock.notify_all()

    # -- job execution -------------------------------------------------
    def _wait_for_workers(self, deadline: float) -> None:
        with self._lock:
            while self._live_workers < self.min_workers:
                if self._closed:
                    raise RuntimeError("DistributedBackend is closed")
                timeout = deadline - time.monotonic()
                if timeout <= 0:
                    raise NoWorkersError(
                        f"no {self.min_workers} worker daemon(s) connected to {self.address}"
                        f" within {self.start_timeout:.0f}s"
                        f" ({self._live_workers} currently connected)"
                    )
                self._lock.wait(timeout=timeout)

    def run_tasks(self, tasks: Sequence[CampaignTask]) -> List[VerificationReport]:
        """Evaluate campaign tasks on the worker daemons, in task order."""
        if self._closed:
            raise RuntimeError("DistributedBackend is closed")
        tasks = list(tasks)
        if not tasks:
            return []
        deadline = time.monotonic() + self.start_timeout
        self._wait_for_workers(deadline)
        job = _Job(tasks)
        with self._lock:
            if self._job is not None:
                raise RuntimeError("DistributedBackend runs one job at a time")
            self._job = job
            self._queue.extend((job, item_id) for item_id in range(len(tasks)))
            self._lock.notify_all()
            try:
                while job.remaining and job.failure is None:
                    if self._closed:
                        raise RuntimeError("DistributedBackend closed mid-job")
                    if self._live_workers == 0:
                        # Every worker is gone with work outstanding; allow
                        # the (re)connect window before declaring failure.
                        if not self._lock.wait(timeout=self.start_timeout):
                            if self._live_workers == 0:
                                # Quarantined tasks carry a usable
                                # (synthesized) report and count as done.
                                raise FleetLostError(
                                    f"all worker daemons disconnected from {self.address}"
                                    f" with {job.remaining} item(s) outstanding and none"
                                    f" rejoined within {self.start_timeout:.0f}s",
                                    completed={
                                        item_id: job.results[item_id]
                                        for item_id in range(len(tasks))
                                        if job.done[item_id]
                                    },
                                    pending=[
                                        item_id
                                        for item_id in range(len(tasks))
                                        if not job.done[item_id]
                                    ],
                                )
                    else:
                        self._lock.wait()
            finally:
                self._job = None
                # Drop any unshipped items of an abandoned job so the next
                # job's queue starts clean.
                self._queue = deque(entry for entry in self._queue if entry[0] is not job)
        if job.failure is not None:
            raise RuntimeError(f"distributed task execution failed: {job.failure}")
        return job.results  # type: ignore[return-value]

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Stop accepting, tell connected daemons to shut down, free the port."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._lock.notify_all()
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass
        # Connection threads are daemonic and exit on the closed flag (or
        # their socket erroring); give them a moment so well-behaved
        # daemons receive their shutdown frame before we return.
        for thread in list(self._threads):
            thread.join(timeout=1.0)

    def __enter__(self) -> "DistributedBackend":
        if self._closed:
            raise RuntimeError("DistributedBackend is closed")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Worker daemon
# ---------------------------------------------------------------------------
def _backoff_delays(
    *, base: float = 0.05, cap: float = 1.0, rng: Optional[random.Random] = None
) -> Iterator[float]:
    """Full-jitter exponential backoff delays: ``uniform(0, min(cap, base*2^n)]``.

    A fleet of daemons launched side by side (CI starts them in a loop)
    would otherwise retry a not-yet-bound coordinator port in lockstep;
    jitter decorrelates the retry storms.  ``rng`` is injectable so tests
    can assert the sequence deterministically.
    """
    rng = rng or random.Random()
    ceiling = base
    while True:
        yield rng.uniform(0.0, ceiling) or ceiling * 0.5
        ceiling = min(ceiling * 2, cap)


def _connect_with_retry(
    host: str, port: int, timeout: float, *, rng: Optional[random.Random] = None
) -> socket.socket:
    """Dial the coordinator, retrying until ``timeout`` elapses.

    Daemons may legitimately start before the coordinator binds its port
    (CI launches them side by side), so refused connections retry on a
    jittered exponential backoff instead of failing fast.
    """
    deadline = time.monotonic() + timeout
    delays = _backoff_delays(rng=rng)
    while True:
        try:
            return socket.create_connection((host, port), timeout=timeout)
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(next(delays))


def _heartbeat_loop(
    sock: socket.socket,
    send_lock: threading.Lock,
    item_id: int,
    interval: float,
    stop: threading.Event,
) -> None:
    """Stream ``("heartbeat", item_id)`` frames until ``stop`` is set.

    Runs beside the evaluation so a deadline-aware coordinator can tell a
    long evaluation (heartbeats flowing) from a wedged worker (silence).
    Send failures just end the loop — the coordinator owns the connection
    verdict, not the heartbeat.
    """
    while not stop.wait(interval):
        try:
            with send_lock:
                send_message(sock, ("heartbeat", item_id))
        except OSError:
            return


def worker_connection_loop(
    host: str,
    port: int,
    *,
    connect_timeout: float = 60.0,
    heartbeat_interval: Optional[float] = None,
    faults: Optional["FaultPlan"] = None,
    worker_index: int = 0,
) -> Tuple[int, bool]:
    """One worker connection: register, pull work, stream results back.

    Runs in its own process (one per ``--workers`` slot), so the matcher
    tables :func:`~repro.engine.pool.process_cache` accumulates survive
    across every task this connection ever evaluates — the distributed
    analogue of a pool worker's cache persistence.

    ``heartbeat_interval`` (seconds; ``None`` disables) streams
    ``heartbeat`` frames while an item is being evaluated.  ``faults`` and
    ``worker_index`` are the chaos hooks: the plan's ``worker.item`` site
    fires per pulled item (kill/hang/delay) and ``worker.result`` per
    outbound reply frame (corrupt).

    Returns ``(evaluated, orderly)``: the item count, and whether the loop
    ended via the coordinator's shutdown frame (``True``) or abnormally —
    connection loss, decode failure, injected wedge (``False``).
    """
    sock = _connect_with_retry(host, port, connect_timeout)
    send_lock = threading.Lock()
    evaluated = 0
    try:
        send_message(sock, ("hello", {"pid": os.getpid(), "host": socket.gethostname()}))
        while True:
            try:
                message = recv_message(sock)
            except Exception:  # noqa: BLE001 - treat any decode failure as loss
                return evaluated, False  # coordinator went away (or frame rot)
            if not isinstance(message, tuple) or not message:
                continue
            if message[0] == "shutdown":
                return evaluated, True
            if message[0] != "work":
                continue
            _tag, item_id, kind, payload = message
            fault = (
                faults.fire("worker.item", item=item_id, worker=worker_index)
                if faults is not None
                else None
            )
            if fault is not None and fault.action == "kill":
                os._exit(17)  # poison payload: die with the frame unflushed
            if fault is not None and fault.action == "hang":
                # A wedged worker from the coordinator's viewpoint: no
                # heartbeats, no result, connection still open.
                time.sleep(fault.seconds)
                return evaluated, False
            stop = threading.Event()
            beat: Optional[threading.Thread] = None
            if heartbeat_interval is not None:
                beat = threading.Thread(
                    target=_heartbeat_loop,
                    args=(sock, send_lock, item_id, heartbeat_interval, stop),
                    name="worker-heartbeat",
                    daemon=True,
                )
                beat.start()
            try:
                if fault is not None and fault.action == "delay":
                    # Slow but alive: heartbeats keep flowing through the
                    # sleep, so a deadline-aware coordinator must wait.
                    time.sleep(fault.seconds)
                try:
                    if kind != "task":
                        raise ValueError(f"unknown work kind {kind!r}")
                    value = run_task(payload)
                except Exception:  # noqa: BLE001 - shipped back, not swallowed
                    reply = ("error", item_id, traceback.format_exc())
                else:
                    reply = ("result", item_id, value)
                    evaluated += 1
            finally:
                # The result frame must never interleave with a heartbeat:
                # stop the beat and join before taking the send lock.
                stop.set()
                if beat is not None:
                    beat.join()
            frame = encode_frame(reply)
            if faults is not None:
                frame = faults.frame_out("worker.result", frame, item=item_id, worker=worker_index)
            with send_lock:
                sock.sendall(frame)
    finally:
        sock.close()


def _worker_process_main(
    host: str,
    port: int,
    *,
    connect_timeout: float,
    heartbeat_interval: Optional[float],
    faults: Optional["FaultPlan"],
    worker_index: int,
) -> None:
    """Process target wrapping :func:`worker_connection_loop`.

    Maps the loop's ``orderly`` flag onto the process exit code (0 orderly
    shutdown, 1 abnormal end) so the parent daemon — and through it the
    ``worker`` CLI — can report connection loops that died without a
    shutdown frame.
    """
    _evaluated, orderly = worker_connection_loop(
        host,
        port,
        connect_timeout=connect_timeout,
        heartbeat_interval=heartbeat_interval,
        faults=faults,
        worker_index=worker_index,
    )
    raise SystemExit(0 if orderly else 1)


@dataclass(frozen=True)
class WorkerStatus:
    """One worker process's state as reported by :meth:`WorkerDaemon.join`."""

    pid: Optional[int]
    alive: bool
    exitcode: Optional[int]


class WorkerDaemon:
    """N worker connections to one coordinator, each in its own process.

    The object the ``worker`` CLI subcommand drives, and the in-process
    handle tests and benchmarks use.  Spawning is all-or-nothing: if the
    ``i``-th worker process fails to start, the ``i-1`` already running are
    terminated and joined before the error propagates — a partially
    started daemon never leaks processes.

    ``heartbeat_interval`` is threaded to every connection loop (see
    :func:`worker_connection_loop`); ``faults`` ships a pickled
    :class:`~repro.engine.faults.FaultPlan` into each worker process, with
    ``worker_index`` set to the process's slot so plans can target
    "worker 1" specifically.
    """

    def __init__(
        self,
        host: str,
        port: int,
        workers: int = 1,
        *,
        connect_timeout: float = 60.0,
        heartbeat_interval: Optional[float] = 5.0,
        faults: Optional["FaultPlan"] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.host = host
        self.port = port
        self.workers = workers
        self.connect_timeout = connect_timeout
        self.heartbeat_interval = heartbeat_interval
        self.faults = faults
        self.processes: list = []

    def start(self) -> "WorkerDaemon":
        import multiprocessing

        context = multiprocessing.get_context()
        try:
            for index in range(self.workers):
                process = context.Process(
                    target=_worker_process_main,
                    args=(self.host, self.port),
                    kwargs={
                        "connect_timeout": self.connect_timeout,
                        "heartbeat_interval": self.heartbeat_interval,
                        "faults": self.faults,
                        "worker_index": index,
                    },
                    daemon=True,
                )
                self.processes.append(process)
                process.start()
        except BaseException:
            self.terminate()
            raise
        return self

    def join(self, timeout: Optional[float] = None) -> List[WorkerStatus]:
        """Wait for the worker processes to exit (orderly shutdown).

        Returns the :class:`WorkerStatus` of every process that had not
        exited when the (optional) timeout ran out — an empty list means a
        clean join.  Callers shutting a fleet down can therefore *name*
        the stragglers (pid and aliveness) instead of hanging silently.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        for process in self.processes:
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            process.join(remaining)
        return [
            WorkerStatus(pid=process.pid, alive=process.is_alive(), exitcode=process.exitcode)
            for process in self.processes
            if process.is_alive()
        ]

    def statuses(self) -> List[WorkerStatus]:
        """A point-in-time status snapshot of every worker process."""
        return [
            WorkerStatus(pid=process.pid, alive=process.is_alive(), exitcode=process.exitcode)
            for process in self.processes
        ]

    def terminate(self) -> None:
        """Hard-stop every worker process that is still alive."""
        for process in self.processes:
            if process.pid is not None and process.is_alive():
                process.terminate()
        for process in self.processes:
            if process.pid is not None:
                process.join(timeout=5.0)
        self.processes = []

    @property
    def alive(self) -> int:
        return sum(1 for process in self.processes if process.is_alive())

    def __enter__(self) -> "WorkerDaemon":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.terminate()


def run_worker(
    host: str,
    port: int,
    workers: int = 1,
    *,
    connect_timeout: float = 60.0,
    heartbeat_interval: Optional[float] = 5.0,
) -> int:
    """Blocking daemon entry point: serve until the coordinator shuts us down.

    Exits 0 only if every connection loop ended on an orderly shutdown
    frame; a loop that died abnormally (connection loss, frame rot, crash)
    makes the daemon exit 1 and name the culprits on stderr, so a babysat
    fleet (systemd, CI) notices worker attrition instead of hiding it.
    """
    daemon = WorkerDaemon(
        host, port, workers, connect_timeout=connect_timeout, heartbeat_interval=heartbeat_interval
    )
    daemon.start()
    try:
        daemon.join()
        abnormal = [
            status for status in daemon.statuses() if status.exitcode not in (0, None)
        ]
    except KeyboardInterrupt:  # pragma: no cover - interactive convenience
        daemon.terminate()
        return 130
    finally:
        daemon.terminate()
    if abnormal:
        detail = ", ".join(f"pid {s.pid} exit {s.exitcode}" for s in abnormal)
        print(f"worker daemon: {len(abnormal)} connection loop(s) died abnormally: {detail}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def _parse_endpoint(value: str) -> Tuple[str, int]:
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {value!r}")
    return host, int(port)


def _smoke(daemons: int, workers_per_daemon: int, verbose: bool) -> int:
    """The CI smoke check: distributed vs serial verdict parity.

    Starts a coordinator on an ephemeral port, launches ``daemons`` worker
    daemons through the real CLI (``python -m repro.engine.distributed
    worker --connect ...``, each its own OS process tree), runs a tiny
    exhaustive sweep through the :class:`DistributedBackend`, and compares
    the reports against the serial engine's.  Exits nonzero on any
    divergence — this is the job CI runs on every push.
    """
    import subprocess

    from ..algorithms import get
    from .campaign import ParallelCampaignEngine

    algorithm = get("fsync_phi2_l2_chir_k2")
    sizes = [(2, 3), (3, 3), (3, 4)]
    serial = ParallelCampaignEngine(workers=1).exhaustive_sweep(
        algorithm, sizes=sizes, model="FSYNC", reduction="grid"
    )
    with DistributedBackend(min_workers=daemons) as backend:
        command = [
            sys.executable,
            "-m",
            "repro.engine.distributed",
            "worker",
            "--connect",
            backend.address,
            "--workers",
            str(workers_per_daemon),
        ]
        print(f"coordinator listening on {backend.address}")
        print(f"launching {daemons} daemon(s): {' '.join(command)}")
        procs = [subprocess.Popen(command) for _ in range(daemons)]
        try:
            distributed = ParallelCampaignEngine(backend=backend).exhaustive_sweep(
                algorithm, sizes=sizes, model="FSYNC", reduction="grid"
            )
        finally:
            backend.close()
            for proc in procs:
                try:
                    proc.wait(timeout=10.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
    if verbose:
        for serial_report, dist_report in zip(serial.reports, distributed.reports):
            marker = "==" if serial_report == dist_report else "!!"
            print(f"  {marker} {dist_report}")
    if distributed.reports != serial.reports:
        print("FAIL: distributed reports diverged from the serial engine", file=sys.stderr)
        return 1
    print(
        f"OK: {len(distributed.reports)} exhaustive-check reports identical to the serial"
        f" engine across {backend.workers_ever} worker connection(s)"
    )
    return 0


def _chaos(verbose: bool) -> int:
    """The CI chaos check: verdict parity under injected faults.

    Two scenarios, each compared against a serial baseline:

    1. **Worker kill mid-wave** — a 2-worker in-process daemon whose
       worker 0 hard-exits on the first item it pulls; the coordinator
       must retry the orphaned item on the survivor and still produce
       byte-identical reports.
    2. **Coordinator crash + journal resume** — a journalled sweep whose
       coordinator is killed after two durable appends; a second engine
       pointed at the same journal must resume and produce byte-identical
       reports without recomputing the journaled verdicts.
    """
    import tempfile

    from ..algorithms import get
    from .campaign import ParallelCampaignEngine
    from .faults import FaultInjected, FaultPlan
    from .journal import CampaignJournal

    algorithm = get("fsync_phi2_l2_chir_k2")
    sizes = [(2, 3), (3, 3), (3, 4), (4, 3)]
    sweep = dict(sizes=sizes, model="FSYNC", reduction="grid")
    serial = ParallelCampaignEngine(workers=1).exhaustive_sweep(algorithm, **sweep)

    def report_parity(label: str, campaign) -> bool:
        if verbose:
            for serial_report, chaos_report in zip(serial.reports, campaign.reports):
                marker = "==" if serial_report == chaos_report else "!!"
                print(f"  {marker} {chaos_report}")
        if campaign.reports != serial.reports:
            print(f"FAIL [{label}]: reports diverged from the serial engine", file=sys.stderr)
            return False
        print(f"OK [{label}]: {len(campaign.reports)} reports identical to the serial engine")
        return True

    # Scenario 1: worker 0 dies on its first pulled item; survivor finishes.
    plan = FaultPlan(seed=7).kill_worker(index=0, worker=0)
    with DistributedBackend(min_workers=2, item_timeout=30.0) as backend:
        with WorkerDaemon(
            backend.host, backend.port, workers=2, heartbeat_interval=0.5, faults=plan
        ).start():
            campaign = ParallelCampaignEngine(backend=backend).exhaustive_sweep(algorithm, **sweep)
        stats = backend.stats
    if not report_parity("worker-kill", campaign):
        return 1
    if stats["retries_total"] < 1:
        print("FAIL [worker-kill]: the injected kill never triggered a retry", file=sys.stderr)
        return 1
    print(f"OK [worker-kill]: backend stats {stats}")

    # Scenario 2: coordinator crashes after 2 journaled verdicts; resume.
    with tempfile.TemporaryDirectory() as tmp:
        journal_path = os.path.join(tmp, "chaos.journal")
        crash_plan = FaultPlan().crash_coordinator(after_records=2)
        try:
            with CampaignJournal(journal_path, faults=crash_plan) as journal:
                ParallelCampaignEngine(workers=1).exhaustive_sweep(
                    algorithm, journal=journal, **sweep
                )
        except FaultInjected:
            pass
        else:
            print("FAIL [journal-resume]: injected coordinator crash never fired", file=sys.stderr)
            return 1
        with CampaignJournal(journal_path) as journal:
            survived = len(journal)
            if survived < 1:
                print("FAIL [journal-resume]: no verdicts survived the crash", file=sys.stderr)
                return 1
            campaign = ParallelCampaignEngine(workers=1).exhaustive_sweep(
                algorithm, journal=journal, **sweep
            )
    if not report_parity("journal-resume", campaign):
        return 1
    print(f"OK [journal-resume]: resumed from {survived} journaled verdict(s)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.engine.distributed",
        description="TCP worker daemons for distributed verification campaigns.",
    )
    subcommands = parser.add_subparsers(dest="command", required=True)

    worker = subcommands.add_parser("worker", help="serve a coordinator until shut down")
    worker.add_argument(
        "--connect",
        type=_parse_endpoint,
        required=True,
        metavar="HOST:PORT",
        help="coordinator endpoint (DistributedBackend.address)",
    )
    worker.add_argument(
        "--workers", type=int, default=1, help="worker processes (connections) to run"
    )
    worker.add_argument(
        "--connect-timeout",
        type=float,
        default=60.0,
        help="seconds to keep retrying the initial connection",
    )

    worker.add_argument(
        "--heartbeat",
        type=float,
        default=5.0,
        help="seconds between heartbeat frames while evaluating (0 disables)",
    )

    smoke = subcommands.add_parser(
        "smoke", help="launch local daemons and assert distributed == serial verdicts"
    )
    smoke.add_argument("--daemons", type=int, default=2, help="worker daemons to launch")
    smoke.add_argument("--workers", type=int, default=1, help="worker processes per daemon")
    smoke.add_argument("--verbose", action="store_true", help="print every report pair")

    chaos = subcommands.add_parser(
        "chaos",
        help="inject worker kills and a coordinator crash; assert verdict parity and resume",
    )
    chaos.add_argument("--verbose", action="store_true", help="print every report pair")

    args = parser.parse_args(argv)
    # Resolve entry points off the canonically imported module: under
    # ``python -m`` this file executes as ``__main__``, and spawned worker
    # processes must reference picklable, importable functions.
    from repro.engine import distributed as canonical

    if args.command == "worker":
        host, port = args.connect
        return canonical.run_worker(
            host,
            port,
            args.workers,
            connect_timeout=args.connect_timeout,
            heartbeat_interval=args.heartbeat or None,
        )
    if args.command == "chaos":
        return canonical._chaos(args.verbose)
    return canonical._smoke(args.daemons, args.workers, args.verbose)


if __name__ == "__main__":
    raise SystemExit(main())
