"""Verification-as-a-service: the HTTP/JSON front end over the engine.

The library stack serves a (algorithm, model, grid, reduction, budget,
seed) tuple checked once from disk at memcache speed
(:mod:`repro.engine.store`), fans fresh campaign work across a local
process pool (:mod:`repro.engine.backend`), and survives server crashes
because every completed campaign report is in the store.  This module is
the network boundary: a stdlib-only threaded HTTP server exposing those
layers as JSON endpoints, so "is this algorithm correct on this grid"
becomes one ``curl``.

Endpoints
=========
``POST /v1/check``
    One exhaustive check.  Spec in, verdict out; store-backed, so a warm
    hit returns without touching the engine (the response's
    ``observability.store_stats.outcome`` says which happened).  A miss
    writes exactly one store record, the verdict.
``POST /v1/campaigns``
    Submit a task list or a named campaign shape.  Returns a
    content-addressed campaign id — equal submissions map to the same id
    and the same task store keys, and therefore the same resumable run.
``GET /v1/campaigns/<id>``
    Status snapshot (state, completed/total, resumed count, failures).
``GET /v1/campaigns/<id>/events``
    NDJSON stream of per-task progress (``?since=N`` resumes a cursor).
    The stream replays completed events first, then follows the live run
    until its terminal ``done``/``error`` event.
``GET /v1/stats``
    Store hit/miss/coalesce/corrupt-record counters, backend kind and
    parallelism, rate-limiter counters, per-endpoint request counts.
``GET /healthz``
    Liveness (never rate-limited).

Cross-cutting semantics
=======================
* **Shared store keys.**  Request payloads resolve through
  :mod:`repro.engine.spec` — the same module the library routes build
  their verdict-store keys with — so an HTTP check and a library
  ``check_terminating_exploration`` of the same spec address the same
  stored verdict, byte-identical modulo the ``compare=False``
  observability channels.  Campaign tasks share the library campaigns'
  task keys instead: both run through the campaign engine.
* **Validation.**  Malformed specs are 400s whose body names the
  offending field (:class:`~repro.engine.spec.SpecError`); a body that
  is not one JSON object (undecodable, too deeply nested, an integer
  literal past the interpreter's digit limit, or a non-object value) is
  a 400 naming ``body``; a tripped state budget is a 422 naming
  ``max_states``.  Unrecognised spec keys are ignored.
* **Rate limiting.**  A per-client token bucket
  (:mod:`repro.service.rate_limit`) guards every ``/v1`` endpoint; a
  rejected request gets 429 plus a ``Retry-After`` header.
* **Resume on restart.**  Campaign runs stream through
  ``ParallelCampaignEngine.iter_tasks``, which writes each report to the
  store as it completes; a server killed mid-campaign and restarted on
  the same ``--store`` serves a resubmitted campaign's finished tasks from
  the store (reported per task as ``resumed: true``) and recomputes only
  the remainder.  Every task carries the registry algorithm its
  ``algorithm`` field names, resolved once at submission.
"""

from __future__ import annotations

import dataclasses
import json
import queue
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.errors import StateSpaceLimitExceeded
from ..core.grid import Grid
from ..engine.backend import PoolBackend
from ..engine.campaign import ParallelCampaignEngine
from ..engine.spec import (
    SpecError,
    campaign_id,
    canonical_json,
    parse_campaign,
    parse_check_spec,
    result_payload,
)
from ..engine.store import HIT, VerdictStore
from .rate_limit import TokenBucketLimiter

__all__ = [
    "CampaignRun",
    "VerificationService",
    "VerificationServer",
    "ServiceHandler",
    "start_in_thread",
]

#: Bound on request bodies; campaign submissions are specs, not payloads.
MAX_BODY_BYTES = 1 << 20

#: Seconds an idle event stream waits before emitting a keepalive ping.
EVENT_PING_INTERVAL = 15.0

#: Seconds a socket read may block while a request is being read.  A
#: client that stalls mid-request loses its connection instead of pinning
#: a handler thread; once the request is read, nothing has a deadline.
REQUEST_READ_TIMEOUT_S = 30.0


class CampaignRun:
    """One submitted campaign: tasks, per-task events, final reports."""

    def __init__(self, run_id: str, algorithm: str, tasks: Sequence) -> None:
        self.id = run_id
        self.algorithm = algorithm
        self.tasks = list(tasks)
        self.state = "running"
        self.results: List[Optional[object]] = [None] * len(self.tasks)
        self.completed = 0
        self.resumed = 0
        self.error: Optional[str] = None
        self.created = time.time()
        self.finished: Optional[float] = None
        self._events: List[Dict[str, object]] = []
        self._cond = threading.Condition()

    # -- producer side (the executor thread) ----------------------------
    def record(self, index: int, report, *, resumed: bool) -> None:
        """Commit one completed task and publish its progress event."""
        payload = result_payload(report)
        with self._cond:
            self.results[index] = report
            self.completed += 1
            if resumed:
                self.resumed += 1
            self._events.append(
                {
                    "event": "task",
                    "seq": len(self._events),
                    "index": index,
                    "resumed": resumed,
                    "ok": bool(report.ok),
                    "report": payload,
                }
            )
            self._cond.notify_all()

    def finish(self) -> None:
        with self._cond:
            self.state = "done"
            self.finished = time.time()
            self._events.append(
                {
                    "event": "done",
                    "seq": len(self._events),
                    "ok": self.ok,
                    "completed": self.completed,
                    "total": len(self.tasks),
                    "resumed": self.resumed,
                    "failures": self.failures,
                }
            )
            self._cond.notify_all()

    def fail(self, error: BaseException) -> None:
        with self._cond:
            self.state = "failed"
            self.finished = time.time()
            self.error = f"{type(error).__name__}: {error}"
            self._events.append({"event": "error", "seq": len(self._events), "error": self.error})
            self._cond.notify_all()

    # -- consumer side ---------------------------------------------------
    @property
    def ok(self) -> Optional[bool]:
        """Whether every report succeeded; ``None`` while running/failed."""
        if self.state == "done":
            return all(report.ok for report in self.results)
        return None

    @property
    def failures(self) -> int:
        return sum(1 for report in self.results if report is not None and not report.ok)

    def status(self) -> Dict[str, object]:
        with self._cond:
            elapsed = (self.finished or time.time()) - self.created
            return {
                "id": self.id,
                "algorithm": self.algorithm,
                "state": self.state,
                "total": len(self.tasks),
                "completed": self.completed,
                "resumed": self.resumed,
                "failures": self.failures,
                "ok": self.ok,
                "error": self.error,
                "events": len(self._events),
                "elapsed_s": elapsed,
                "location": f"/v1/campaigns/{self.id}",
                "events_location": f"/v1/campaigns/{self.id}/events",
            }

    def terminal_event(self) -> Dict[str, object]:
        """The ``done`` or ``error`` event a finished run ended with."""
        with self._cond:
            return self._events[-1]

    def wait_events(self, since: int, timeout: float) -> Tuple[List[Dict[str, object]], bool]:
        """``(events beyond since, run-is-terminal)`` after at most ``timeout``."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while len(self._events) <= since and self.state == "running":
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            return list(self._events[since:]), self.state != "running"


class VerificationService:
    """The framework-free core the HTTP handler dispatches into.

    ``store`` backs every check/campaign request (may be ``None`` — the
    service still works, it just recomputes and cannot resume).
    ``backend`` runs fresh campaign tasks; ``None`` gives each request a
    :class:`~repro.engine.backend.SerialBackend` of its own.  Checks
    always run in this process, on the backend's cache.
    ``wave_delay`` pauses after each freshly computed campaign task — a
    deterministic throttle the kill/resume tests (and nothing else) rely
    on.
    """

    def __init__(
        self,
        store: Optional[VerdictStore] = None,
        *,
        backend=None,
        rate: Optional[float] = None,
        burst: int = 20,
        wave_delay: float = 0.0,
        clock=time.monotonic,
    ) -> None:
        self.store = store
        self.backend = backend
        self.limiter = TokenBucketLimiter(rate, burst, clock=clock)
        self.wave_delay = wave_delay
        self.engine = ParallelCampaignEngine(backend=backend, store=store)
        self.campaigns: Dict[str, CampaignRun] = {}
        self._lock = threading.Lock()
        self.started = time.time()
        self.requests: Dict[str, int] = {}

    # -- bookkeeping -----------------------------------------------------
    def count_request(self, endpoint: str) -> None:
        with self._lock:
            self.requests[endpoint] = self.requests.get(endpoint, 0) + 1

    # -- single-shot endpoints -------------------------------------------
    def check(self, payload: object) -> Dict[str, object]:
        """``POST /v1/check``: one exhaustive check through the store."""
        from ..checking.model_checker import check_terminating_exploration

        spec = parse_check_spec(payload)
        started = time.perf_counter()
        result = check_terminating_exploration(
            spec.resolve(),
            Grid(spec.m, spec.n),
            model=spec.model,
            max_states=spec.max_states,
            reduction=spec.reduction,
            store=self.store,
            backend=self.backend,
        )
        body = result_payload(result)
        body["spec"] = dataclasses.asdict(spec)
        body["elapsed_s"] = time.perf_counter() - started
        return body

    # -- campaigns --------------------------------------------------------
    def submit_campaign(self, payload: object) -> Tuple[Dict[str, object], bool]:
        """``POST /v1/campaigns``: ``(status, created)``.

        Submission is idempotent by content: an id already registered —
        running or done — is returned as-is rather than re-executed (its
        verdicts were stored the first time around).
        """
        algorithm, tasks = parse_campaign(payload)
        run_id = campaign_id(algorithm, tasks)
        with self._lock:
            existing = self.campaigns.get(run_id)
            if existing is not None and existing.state != "failed":
                return existing.status(), False
            run = CampaignRun(run_id, algorithm.name, tasks)
            self.campaigns[run_id] = run
        thread = threading.Thread(
            target=self._execute_campaign, args=(run,), name=f"campaign-{run_id}", daemon=True
        )
        thread.start()
        return run.status(), True

    def _execute_campaign(self, run: CampaignRun) -> None:
        """Stream one campaign through the engine, publishing each report."""
        try:
            for index, report in self.engine.iter_tasks(run.tasks):
                # Served from the store: a previous (possibly killed) run
                # already computed it — the resume path.
                resumed = (report.store_stats or {}).get("outcome") == HIT
                run.record(index, report, resumed=resumed)
                if self.wave_delay and not resumed:
                    time.sleep(self.wave_delay)
            run.finish()
        except BaseException as exc:  # noqa: BLE001 - published, not swallowed
            run.fail(exc)

    def campaign(self, run_id: str) -> Optional[CampaignRun]:
        with self._lock:
            return self.campaigns.get(run_id)

    def iter_campaign_events(self, run: CampaignRun, since: int = 0) -> Iterator[Dict[str, object]]:
        """Replay events from ``since``, then follow the live run to its end."""
        cursor = since
        while True:
            events, terminal = run.wait_events(cursor, timeout=EVENT_PING_INTERVAL)
            for event in events:
                yield event
            cursor += len(events)
            if events and events[-1]["event"] in ("done", "error"):
                return
            if terminal and not events:
                # Subscribed past the end of a finished run: re-send the
                # event it ended with (``done``, or ``error`` for a failed
                # run) so the stream still closes cleanly.
                yield run.terminal_event()
                return
            if not events:
                yield {"event": "ping", "seq": cursor}

    # -- stats ------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        with self._lock:
            campaigns = list(self.campaigns.values())
            requests = dict(self.requests)
        return {
            "service": {
                "uptime_s": time.time() - self.started,
                "requests": requests,
                "campaigns": {
                    "total": len(campaigns),
                    "running": sum(1 for run in campaigns if run.state == "running"),
                    "done": sum(1 for run in campaigns if run.state == "done"),
                    "failed": sum(1 for run in campaigns if run.state == "failed"),
                },
            },
            "store": self.store.stats if self.store is not None else None,
            "backend": {
                "kind": "pool" if isinstance(self.backend, PoolBackend) else "serial",
                "parallelism": self.backend.parallelism if self.backend is not None else 1,
            },
            "rate_limiter": self.limiter.stats,
        }

    def close(self) -> None:
        """Release the execution resources the service owns."""
        if self.backend is not None:
            self.backend.close()
        if self.store is not None:
            self.store.close()


# ---------------------------------------------------------------------------
# HTTP layer
# ---------------------------------------------------------------------------
class ServiceHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests into a :class:`VerificationService`.

    HTTP/1.0 framing on purpose: the event stream is delimited by
    connection close, so no chunked-encoding machinery is needed on
    either side (the stdlib client reads lines until EOF).

    Writes are buffered: the status line, headers and body of a response
    leave in one send when ``handle_one_request`` flushes.  The event
    stream flushes its headers and then every event itself.

    Only reading the request has a deadline: ``timeout`` bounds every read
    of the request line, headers and body, and each handler lifts it once
    the request is read, so computing, writing and event streams run
    without one.  A read that times out ends the connection with no
    reply; ``handle_one_request`` logs it as a timed-out request.
    """

    server_version = "repro-verification-service"
    protocol_version = "HTTP/1.0"
    wbufsize = -1
    timeout = REQUEST_READ_TIMEOUT_S

    @property
    def service(self) -> VerificationService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):  # pragma: no cover - logging nicety
            super().log_message(format, *args)

    # -- plumbing ---------------------------------------------------------
    def _send_json(self, code: int, body: Dict[str, object], headers: Optional[Dict[str, str]] = None):
        data = (canonical_json(body) + "\n").encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def _error(self, code: int, message: str, field: Optional[str] = None, **headers) -> None:
        error: Dict[str, object] = {"message": message}
        if field is not None:
            error["field"] = field
        self._send_json(code, {"error": error}, headers=headers or None)

    def _client_key(self) -> str:
        return self.headers.get("X-Client-Id") or self.client_address[0]

    def _admit(self) -> bool:
        decision = self.service.limiter.check(self._client_key())
        if decision.allowed:
            return True
        self._error(
            429,
            "rate limit exceeded; retry after the indicated delay",
            **{"Retry-After": str(int(decision.retry_after))},
        )
        return False

    def _read_payload(self) -> object:
        header = self.headers.get("Content-Length") or "0"
        # ASCII digits only: a sign, a blank or any other numeral is refused
        # (a negative length would make rfile.read() block until the client
        # hangs up).
        if not (header.isascii() and header.isdigit()):
            raise SpecError("Content-Length", f"must be a non-negative integer, got {header!r}")
        length = int(header)
        if length > MAX_BODY_BYTES:
            raise SpecError("body", f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise SpecError("body", "request body is empty; expected a JSON object")
        # ValueError covers undecodable bytes, malformed JSON and integer
        # literals past the interpreter's digit limit; RecursionError is
        # nesting deeper than the decoder's stack.
        try:
            return json.loads(raw.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise SpecError("body", f"request body is not valid JSON: {exc}") from None

    # -- routing ----------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        path = self.path.split("?", 1)[0].rstrip("/")
        if path not in ("/v1/check", "/v1/campaigns"):
            self._error(404, f"unknown endpoint {path!r}")
            return
        self.service.count_request(f"POST {path}")
        if not self._admit():
            return
        try:
            payload = self._read_payload()
            self.connection.settimeout(None)
            if path == "/v1/check":
                self._send_json(200, self.service.check(payload))
            else:
                status, created = self.service.submit_campaign(payload)
                self._send_json(202 if created else 200, status)
        except SpecError as exc:
            self._error(400, str(exc), field=exc.field)
        except StateSpaceLimitExceeded as exc:
            self._error(422, f"state budget tripped: {exc}", field="max_states")
        except (ConnectionError, TimeoutError):
            raise  # the client hung up or stalled: no 500 to write (see handle_error)
        except Exception as exc:  # noqa: BLE001 - boundary: never kill the thread
            self._error(500, f"{type(exc).__name__}: {exc}")

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        self.connection.settimeout(None)
        path, _, query = self.path.partition("?")
        path = path.rstrip("/") or "/"
        if path == "/healthz":
            # Liveness is exempt from rate limiting: orchestration probes
            # must never be starved by tenant traffic.
            self.service.count_request("GET /healthz")
            self._send_json(200, {"ok": True, "uptime_s": time.time() - self.service.started})
            return
        if path == "/v1/stats":
            self.service.count_request("GET /v1/stats")
            if self._admit():
                self._send_json(200, self.service.stats())
            return
        if path.startswith("/v1/campaigns/"):
            parts = path.split("/")
            # /v1/campaigns/<id> or /v1/campaigns/<id>/events
            if len(parts) == 4 or (len(parts) == 5 and parts[4] == "events"):
                self._campaign_get(parts[3], streaming=len(parts) == 5, query=query)
                return
        self._error(404, f"unknown endpoint {path!r}")

    def _campaign_get(self, run_id: str, *, streaming: bool, query: str) -> None:
        endpoint = "GET /v1/campaigns/<id>/events" if streaming else "GET /v1/campaigns/<id>"
        self.service.count_request(endpoint)
        if not self._admit():
            return
        run = self.service.campaign(run_id)
        if run is None:
            self._error(
                404,
                f"unknown campaign {run_id!r} (the registry is in-memory;"
                " resubmit the spec to resume it from the store)",
            )
            return
        if not streaming:
            self._send_json(200, run.status())
            return
        since = 0
        for part in query.split("&"):
            if part.startswith("since="):
                try:
                    since = max(0, int(part[len("since="):]))
                except ValueError:
                    self._error(400, "'since' must be an integer event cursor", field="since")
                    return
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        # A subscriber gets the headers now, not with the first event.
        self.wfile.flush()
        for event in self.service.iter_campaign_events(run, since):
            self.wfile.write((canonical_json(event) + "\n").encode("utf-8"))
            self.wfile.flush()


class VerificationServer(HTTPServer):
    """An HTTP server bound to one :class:`VerificationService`.

    Every connection is served on a handler thread of its own, so
    concurrent requests for one uncached spec rendezvous inside
    ``VerdictStore.get_or_compute`` and trigger a single exploration, and
    an open event stream never holds up a check.  A handler thread that
    finishes its connection parks as idle instead of exiting; the accept
    loop hands the next connection to an idle thread and starts a new
    daemon thread only when none is idle.  Starting a thread costs the
    server more CPU than a store hit's whole library path, so reuse is
    the point.  There is deliberately no cap: a bounded pool would let
    long-lived event streams starve checks.

    :meth:`server_close` wakes the idle threads so they exit; a thread
    busy on a connection exits when that connection ends.
    """

    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], service: VerificationService, verbose: bool = False):
        super().__init__(address, ServiceHandler)
        self.service = service
        self.verbose = verbose
        #: Every handler thread this server started, busy or idle.
        self.handler_threads: List[threading.Thread] = []
        self._connections: "queue.SimpleQueue[Tuple[object, object]]" = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._idle = 0
        self._closed = False

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    @property
    def idle_threads(self) -> int:
        """Handler threads parked, waiting for a connection."""
        return self._idle

    def process_request(self, request, client_address) -> None:
        """Hand the connection to an idle handler thread, or start one."""
        with self._lock:
            if self._idle:
                self._idle -= 1
                self._connections.put((request, client_address))
                return
        thread = threading.Thread(
            target=self._serve_connections,
            args=(request, client_address),
            name="verification-handler",
            daemon=True,
        )
        thread.start()
        with self._lock:
            self.handler_threads.append(thread)

    def _serve_connections(self, request, client_address) -> None:
        """Serve one connection, then park for the next until the server closes."""
        while request is not None:
            try:
                self.finish_request(request, client_address)
            except Exception:  # noqa: BLE001 - boundary: reported, the thread lives on
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)
            with self._lock:
                if self._closed:
                    return
                self._idle += 1
            request, client_address = self._connections.get()

    def handle_error(self, request, client_address) -> None:
        """Print the traceback, unless the client merely hung up."""
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)

    def server_close(self) -> None:
        """Close the listening socket and let every idle handler thread exit.

        Safe to call more than once.
        """
        super().server_close()
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, 0
        for _ in range(idle):
            self._connections.put((None, None))


def start_in_thread(
    service: VerificationService, host: str = "127.0.0.1", port: int = 0
) -> Tuple[VerificationServer, threading.Thread]:
    """Serve ``service`` on a daemon thread; returns ``(server, thread)``.

    The in-process embedding tests and benchmarks use — real sockets, no
    subprocess.  ``server.shutdown()`` stops the loop.  Then
    ``server.server_close()`` and ``service.close()`` are the caller's
    job: an unclosed server leaks its listening socket, and its idle
    handler threads stay parked.
    """
    server = VerificationServer((host, port), service)
    thread = threading.Thread(target=server.serve_forever, name="verification-server", daemon=True)
    thread.start()
    return server, thread
