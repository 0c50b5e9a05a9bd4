"""Service-test fixtures: an in-process HTTP server on a real socket.

The service tests exercise the real network boundary — actual loopback
sockets, actual ``urllib`` requests — but keep the service object
in-process so tests can inspect its store counters and monkeypatch engine
internals (the coalescing test gates the checker's ``explore_sharded``,
which only works when handler threads share this process's module state).
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.engine.store import VerdictStore
from repro.service import VerificationService, start_in_thread


class ServiceHarness:
    """One live server plus raw-HTTP helpers returning ``(status, body)``."""

    def __init__(self, service: VerificationService, server) -> None:
        self.service = service
        self.server = server
        self.url = server.url

    def request(self, path: str, payload=None, headers=None, timeout: float = 120.0):
        merged = {"Content-Type": "application/json"}
        merged.update(headers or {})
        data = json.dumps(payload).encode("utf-8") if payload is not None else None
        request = urllib.request.Request(
            self.url + path, data=data, headers=merged, method="POST" if data else "GET"
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return response.status, json.load(response), dict(response.headers)
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read().decode("utf-8")), dict(exc.headers)

    def post(self, path: str, payload, **kwargs):
        return self.request(path, payload, **kwargs)

    def get(self, path: str, **kwargs):
        return self.request(path, **kwargs)

    def get_raw(self, path: str, timeout: float = 120.0) -> str:
        with urllib.request.urlopen(self.url + path, timeout=timeout) as response:
            return response.read().decode("utf-8")


def make_harness(tmp_path=None, **service_kwargs) -> ServiceHarness:
    if "store" not in service_kwargs:
        service_kwargs["store"] = VerdictStore(tmp_path / "store") if tmp_path else VerdictStore()
    store = service_kwargs.pop("store")
    service = VerificationService(store, **service_kwargs)
    server, _ = start_in_thread(service)
    return ServiceHarness(service, server)


@pytest.fixture
def harness_factory(tmp_path):
    """Build servers with custom service kwargs; all torn down at test end."""
    built = []

    def build(**service_kwargs) -> ServiceHarness:
        h = make_harness(tmp_path, **service_kwargs)
        built.append(h)
        return h

    try:
        yield build
    finally:
        for h in built:
            h.server.shutdown()
            h.server.server_close()
            h.service.close()


@pytest.fixture
def harness(harness_factory):
    """A served :class:`VerificationService` over a fresh on-disk store."""
    return harness_factory()


class FailAfterFirstReport:
    """Wraps a campaign engine so that every run raises after its first report."""

    def __init__(self, engine) -> None:
        self.engine = engine

    def iter_tasks(self, tasks):
        yield next(iter(self.engine.iter_tasks(tasks)))
        raise RuntimeError("engine failed after its first report")


@pytest.fixture
def failed_campaign(harness, monkeypatch):
    """The id of a two-task campaign whose engine raised after one report.

    Its event log is ``task`` then ``error``; the run's state is
    ``failed``.
    """
    monkeypatch.setattr(harness.service, "engine", FailAfterFirstReport(harness.service.engine))
    _, submitted, _ = harness.post(
        "/v1/campaigns",
        {"algorithm": "fsync_phi2_l2_chir_k2", "campaign": "grid_sweep", "sizes": [[2, 3], [3, 3]]},
    )
    deadline = time.monotonic() + 60.0
    while harness.get(f"/v1/campaigns/{submitted['id']}")[1]["state"] == "running":
        assert time.monotonic() < deadline, "campaign still running after 60s"
        time.sleep(0.02)
    return submitted["id"]


#: ``python -m repro.service`` argv per ``--backend`` kind.
BACKEND_ARGV = {
    "serial": ["--backend", "serial"],
    "pool": ["--backend", "pool", "--workers", "2"],
}


@pytest.fixture(params=sorted(BACKEND_ARGV))
def cli_harness(request, tmp_path, capsys):
    """A server built from the CLI's argv for each ``--backend`` kind."""
    from repro.service.__main__ import build_parser, build_service

    argv = BACKEND_ARGV[request.param] + ["--store", str(tmp_path / "store")]
    service = build_service(build_parser().parse_args(argv))
    capsys.readouterr()  # drop the start-up banner
    server, _ = start_in_thread(service)
    harness = ServiceHarness(service, server)
    harness.kind = request.param
    try:
        yield harness
    finally:
        server.shutdown()
        server.server_close()
        service.close()
