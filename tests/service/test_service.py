"""The HTTP service: parity with the library, limits, coalescing, resume.

The acceptance bar: a ``POST /v1/check`` verdict is byte-identical
(modulo the ``compare=False`` observability channels) to
``check_terminating_exploration`` on both the cold and warm paths; a
killed server restarted on the same store resumes a resubmitted campaign
without recomputing its completed tasks.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.algorithms import registry
from repro.checking.model_checker import check_terminating_exploration
from repro.core.grid import Grid
from repro.engine.spec import canonical_json, result_payload

ALGORITHM = "fsync_phi2_l2_chir_k2"
SPEC = {"algorithm": ALGORITHM, "m": 3, "n": 3, "model": "FSYNC", "reduction": "grid"}

#: Reduction spellings the retired color-symmetry and partial-order
#: components accepted; the service must refuse every one of them.
RETIRED_REDUCTIONS = ["color", "por", "grid+color", "grid+por", "grid+color+por"]


def library_verdict_json(**overrides) -> str:
    """The serial library route's verdict, canonically serialized."""
    params = dict(SPEC, **overrides)
    result = check_terminating_exploration(
        registry.get(params["algorithm"]),
        Grid(params["m"], params["n"]),
        model=params["model"],
        reduction=params["reduction"],
    )
    return canonical_json(result_payload(result)["verdict"])


# ---------------------------------------------------------------------------
# Single-shot endpoints
# ---------------------------------------------------------------------------
class TestCheck:
    def test_cold_and_warm_verdicts_match_the_library_byte_for_byte(self, harness):
        expected = library_verdict_json()
        code, cold, _ = harness.post("/v1/check", SPEC)
        assert code == 200
        assert cold["observability"]["store_stats"]["outcome"] == "miss"
        assert canonical_json(cold["verdict"]) == expected

        code, warm, _ = harness.post("/v1/check", SPEC)
        assert code == 200
        assert warm["observability"]["store_stats"]["outcome"] == "hit"
        assert canonical_json(warm["verdict"]) == expected
        assert harness.service.store.stats["hits"] >= 1

    def test_failing_verdict_travels_whole(self, harness):
        code, body, _ = harness.post("/v1/check", dict(SPEC, model="SSYNC"))
        assert code == 200
        assert body["verdict"]["ok"] is False
        assert body["verdict"]["counterexample"]
        assert canonical_json(body["verdict"]) == library_verdict_json(model="SSYNC")

    def test_response_echoes_the_normalized_spec(self, harness):
        code, body, _ = harness.post("/v1/check", dict(SPEC, model="fsync", reduction=" Grid "))
        assert code == 200
        assert body["spec"]["model"] == "FSYNC"
        assert body["spec"]["reduction"] == "grid"
        assert body["elapsed_s"] >= 0

    def test_http_check_warms_the_library_route_and_vice_versa(self, harness):
        """One store, one key: either route's verdict is warm for the other."""
        harness.post("/v1/check", SPEC)
        result = check_terminating_exploration(
            registry.get(ALGORITHM),
            Grid(3, 3),
            model="FSYNC",
            reduction="grid",
            store=harness.service.store,
        )
        assert result.store_stats["outcome"] == "hit"

    @pytest.mark.parametrize(
        "overrides", [{"max_states": 2}, {"m": 1000, "n": 1000, "max_states": 10}], ids=["3x3", "1000x1000"]
    )
    def test_budget_trip_is_a_422_naming_max_states(self, harness, overrides):
        code, body, _ = harness.post("/v1/check", dict(SPEC, **overrides))
        assert code == 422
        assert body["error"]["field"] == "max_states"

    def test_a_check_stores_one_record(self, harness):
        """A cold check moves misses and disk records by one; a warm one only hits."""

        def counters():
            code, stats, _ = harness.get("/v1/stats")
            assert code == 200
            return {key: stats["store"][key] for key in ("hits", "misses", "disk_records")}

        before = counters()
        harness.post("/v1/check", SPEC)
        cold = counters()
        assert {key: cold[key] - before[key] for key in cold} == {
            "hits": 0, "misses": 1, "disk_records": 1,
        }
        harness.post("/v1/check", SPEC)
        warm = counters()
        assert {key: warm[key] - cold[key] for key in warm} == {
            "hits": 1, "misses": 0, "disk_records": 0,
        }


class TestValidationAndErrors:
    @pytest.mark.parametrize(
        ("payload", "field"),
        [
            ({}, "algorithm"),
            (dict(SPEC, algorithm="nope"), "algorithm"),
            (dict(SPEC, model="WARP"), "model"),
            (dict(SPEC, m=0), "m"),
            (dict(SPEC, reduction="grid+magic"), "reduction"),
            *[(dict(SPEC, reduction=retired), "reduction") for retired in RETIRED_REDUCTIONS],
        ],
    )
    def test_bad_specs_are_400s_naming_the_field(self, harness, payload, field):
        code, body, _ = harness.post("/v1/check", payload)
        assert code == 400
        assert body["error"]["field"] == field

    @pytest.mark.parametrize(
        "payload",
        [
            {
                "algorithm": ALGORITHM,
                "campaign": "exhaustive_sweep",
                "sizes": [[3, 3]],
                "reduction": "grid+color+por",
            },
            {
                "algorithm": ALGORITHM,
                "tasks": [{"m": 3, "n": 3, "kind": "check", "reduction": "grid+color+por"}],
            },
        ],
        ids=["exhaustive-sweep", "check-task"],
    )
    def test_retired_reductions_are_400s_on_campaigns(self, harness, payload):
        code, body, _ = harness.post("/v1/campaigns", payload)
        assert code == 400
        assert body["error"]["field"] == "reduction"

    @pytest.mark.parametrize("field", ["seeds", "models"])
    def test_empty_seeds_or_models_are_400s_naming_the_field(self, harness, field):
        payload = {"algorithm": "async_phi2_l3_chir_k2", "campaign": "stress_test", field: []}
        code, body, _ = harness.post("/v1/campaigns", payload)
        assert code == 400
        assert body["error"]["field"] == field

    @pytest.mark.parametrize("path", ["/v1/check", "/v1/campaigns"])
    @pytest.mark.parametrize(
        "body",
        [
            b"not json",
            b"\xff\xfe{}",  # not UTF-8
            b"[" * 40_000,  # nests past the decoder's recursion limit
            b'{"a":' * 8_000,
            b"1" * 5_000,  # past the interpreter's int-conversion digit limit
            b"[]",
            b'"x"',
            b"3",
            b"null",
        ],
        ids=[
            "not-json", "not-utf8", "nested-arrays", "nested-objects", "huge-int",
            "array", "string", "number", "null",
        ],
    )
    def test_non_json_body_is_a_400(self, harness, path, body):
        request = urllib.request.Request(
            harness.url + path, data=body, headers={"Content-Type": "application/json"}
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["error"]["field"] == "body"

    @pytest.mark.parametrize("length", ["abc", "-1", "+2", "1.5", "0x2", "\u00b2"])
    def test_bad_content_length_is_a_400_naming_the_header(self, harness, length):
        # urllib cannot send these headers, so speak HTTP over a raw socket.
        # A negative length used to block the handler in rfile.read(-1)
        # until the client hung up; the socket timeout turns that into a
        # failure here instead of a hang.  "+2" and the superscript two
        # (a Unicode digit that int() refuses) are spellings int() or
        # str.isdigit() would let through: only ASCII digits are a length.
        host, port = harness.server.server_address[:2]
        request = (
            f"POST /v1/check HTTP/1.0\r\nHost: {host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {length}\r\n\r\n{{}}"
        ).encode("latin-1")
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(request)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
        assert head.split()[1] == b"400"
        assert json.loads(body)["error"]["field"] == "Content-Length"

    def test_unknown_endpoints_are_404s(self, harness):
        code, _, _ = harness.get("/v1/unknown")
        assert code == 404
        code, _, _ = harness.get("/v1/campaigns/ffffffffffffffff")
        assert code == 404

    def test_the_retired_explore_endpoint_is_a_404_naming_the_path(self, harness):
        code, body, _ = harness.post("/v1/explore", SPEC)
        assert code == 404
        assert "/v1/explore" in body["error"]["message"]
        assert harness.service.store.stats["disk_records"] == 0


# ---------------------------------------------------------------------------
# Rate limiting
# ---------------------------------------------------------------------------
class TestRateLimiting:
    @pytest.fixture
    def limited(self, harness_factory):
        return harness_factory(rate=0.001, burst=2)

    def test_burst_exhaustion_is_a_429_with_retry_after(self, limited):
        for _ in range(2):
            code, _, _ = limited.get("/v1/stats")
            assert code == 200
        code, body, headers = limited.get("/v1/stats")
        assert code == 429
        assert int(headers["Retry-After"]) >= 1
        assert "rate limit" in body["error"]["message"]
        assert limited.service.limiter.stats["rejected"] >= 1

    def test_clients_are_limited_independently(self, limited):
        for _ in range(2):
            assert limited.get("/v1/stats", headers={"X-Client-Id": "alice"})[0] == 200
        assert limited.get("/v1/stats", headers={"X-Client-Id": "alice"})[0] == 429
        assert limited.get("/v1/stats", headers={"X-Client-Id": "bob"})[0] == 200

    def test_healthz_is_never_limited(self, limited):
        for _ in range(5):
            assert limited.get("/healthz")[0] == 200


# ---------------------------------------------------------------------------
# Coalescing through HTTP
# ---------------------------------------------------------------------------
class TestCoalescing:
    def test_simultaneous_checks_for_one_spec_compute_once(self, harness, monkeypatch):
        """Two concurrent HTTP requests rendezvous in the store's singleflight."""
        from repro.checking import model_checker

        explore = model_checker.explore_sharded
        started, release = threading.Event(), threading.Event()
        calls = []

        def gated_explore(*args, **kwargs):
            calls.append(1)
            started.set()
            assert release.wait(timeout=60)
            return explore(*args, **kwargs)

        monkeypatch.setattr(model_checker, "explore_sharded", gated_explore)
        responses = {}

        def post(slot):
            responses[slot] = harness.post("/v1/check", SPEC)

        leader = threading.Thread(target=post, args=("leader",))
        leader.start()
        assert started.wait(timeout=60)
        follower = threading.Thread(target=post, args=("follower",))
        follower.start()
        store = harness.service.store
        for _ in range(60_000):
            if store.coalesced:
                break
            threading.Event().wait(0.001)
        assert store.stats["coalesced"] >= 1
        release.set()
        leader.join(timeout=60)
        follower.join(timeout=60)
        assert len(calls) == 1  # exactly one exploration for two requests
        verdicts = {slot: canonical_json(body["verdict"]) for slot, (_, body, _) in responses.items()}
        assert verdicts["leader"] == verdicts["follower"]
        outcomes = {
            body["observability"]["store_stats"]["outcome"] for _, body, _ in responses.values()
        }
        assert outcomes == {"miss", "coalesced"}


# ---------------------------------------------------------------------------
# Campaigns over HTTP
# ---------------------------------------------------------------------------
CAMPAIGN = {
    "algorithm": ALGORITHM,
    "campaign": "grid_sweep",
    "sizes": [[2, 3], [3, 3]],
    "model": "FSYNC",
}


def await_campaign(harness, run_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        code, status, _ = harness.get(f"/v1/campaigns/{run_id}")
        assert code == 200
        if status["state"] != "running":
            return status
        time.sleep(0.02)
    raise AssertionError(f"campaign {run_id} still running after {timeout}s")


MISMATCH = {
    "algorithm": "fsync_phi2_l2_chir_k2",
    "tasks": [{"algorithm": "fsync_phi1_l3_nochir_k4", "m": 4, "n": 5}],
}


def assert_mismatched_task_runs_its_own_algorithm(harness) -> None:
    """A task naming B in a campaign for A runs B, and files B's report under B's key."""
    from repro.engine.campaign import CampaignTask, ParallelCampaignEngine

    _, submitted, _ = harness.post("/v1/campaigns", MISMATCH)
    assert await_campaign(harness, submitted["id"])["state"] == "done"
    raw = harness.get_raw(f"/v1/campaigns/{submitted['id']}/events")
    (task,) = [event for event in map(json.loads, raw.splitlines()) if event["event"] == "task"]
    verdict = task["report"]["verdict"]
    assert (verdict["algorithm"], verdict["steps"]) == ("fsync_phi1_l3_nochir_k4", 14)
    lookup = CampaignTask(registry.get("fsync_phi1_l3_nochir_k4"), 4, 5)
    (served,) = ParallelCampaignEngine(store=harness.service.store).run_tasks([lookup])
    assert served.store_stats["outcome"] == "hit"
    assert (served.algorithm, served.steps) == ("fsync_phi1_l3_nochir_k4", 14)


class TestCampaigns:
    def test_submit_run_stream_and_idempotent_resubmit(self, harness):
        code, submitted, _ = harness.post("/v1/campaigns", CAMPAIGN)
        assert code == 202
        run_id = submitted["id"]
        status = await_campaign(harness, run_id)
        assert status["state"] == "done"
        assert status["ok"] is True
        assert status["completed"] == status["total"] == 2

        raw = harness.get_raw(f"/v1/campaigns/{run_id}/events")
        events = [json.loads(line) for line in raw.splitlines() if line.strip()]
        kinds = [event["event"] for event in events]
        assert kinds.count("task") == 2 and kinds[-1] == "done"
        assert all(event["ok"] for event in events if event["event"] == "task")

        # Identical resubmission: same id, already-finished status, 200.
        code, again, _ = harness.post("/v1/campaigns", CAMPAIGN)
        assert code == 200
        assert again["id"] == run_id and again["state"] == "done"

    def test_event_stream_cursor_resumes_mid_stream(self, harness):
        _, submitted, _ = harness.post("/v1/campaigns", CAMPAIGN)
        await_campaign(harness, submitted["id"])
        raw = harness.get_raw(f"/v1/campaigns/{submitted['id']}/events?since=1")
        events = [json.loads(line) for line in raw.splitlines() if line.strip()]
        assert events[0]["seq"] == 1
        assert events[-1]["event"] == "done"

    def test_late_subscriber_to_finished_run_still_gets_done(self, harness):
        _, submitted, _ = harness.post("/v1/campaigns", CAMPAIGN)
        await_campaign(harness, submitted["id"])
        # Cursor beyond every recorded event: the stream must still close
        # with a terminal snapshot rather than hang.
        raw = harness.get_raw(f"/v1/campaigns/{submitted['id']}/events?since=999")
        events = [json.loads(line) for line in raw.splitlines() if line.strip()]
        assert events and events[-1]["event"] == "done"

    @pytest.mark.parametrize("since", [2, 999])
    def test_late_subscriber_to_failed_run_gets_its_error(self, harness, failed_campaign, since):
        # Subscribed at or past the end of a run that failed: the stream
        # closes on the event the run ended with, not on a "done".
        status = harness.get(f"/v1/campaigns/{failed_campaign}")[1]
        assert (status["state"], status["events"]) == ("failed", 2)
        raw = harness.get_raw(f"/v1/campaigns/{failed_campaign}/events?since={since}")
        events = [json.loads(line) for line in raw.splitlines() if line.strip()]
        assert [event["event"] for event in events] == ["error"]
        assert events[0]["error"] == status["error"] == (
            "RuntimeError: engine failed after its first report"
        )

    def test_explicit_task_list_campaign(self, harness):
        payload = {
            "algorithm": ALGORITHM,
            "tasks": [
                {"m": 3, "n": 3, "model": "FSYNC", "kind": "check", "reduction": "grid"},
                {"m": 2, "n": 3, "model": "SSYNC", "seed": 3, "tie_break": "first"},
            ],
        }
        _, submitted, _ = harness.post("/v1/campaigns", payload)
        status = await_campaign(harness, submitted["id"])
        assert status["state"] == "done" and status["completed"] == 2

    def test_stats_count_damaged_store_records(self, tmp_path, harness_factory):
        from repro.engine.store import RECORD_HEADER, VerdictStore

        with VerdictStore(tmp_path / "damaged") as store:
            for i in range(3):
                store.put(f"key-{i}", f"value-{i}")
        segment = tmp_path / "damaged" / "seg-0.log"
        data = bytearray(segment.read_bytes())
        data[RECORD_HEADER.size + 2] ^= 0x01  # one bit of the first record's body
        segment.write_bytes(bytes(data))
        served = harness_factory(store=VerdictStore(tmp_path / "damaged"))
        code, stats, _ = served.get("/v1/stats")
        assert code == 200
        assert stats["store"]["corrupt_records"] == 1
        assert stats["store"]["entries"] == 2

    def test_task_naming_another_algorithm_runs_that_algorithm(self, harness):
        assert_mismatched_task_runs_its_own_algorithm(harness)

    def test_restart_on_the_same_store_serves_the_campaign(self, tmp_path, harness_factory):
        from repro.engine.store import VerdictStore

        first = harness_factory(store=VerdictStore(tmp_path / "shared"))
        _, submitted, _ = first.post("/v1/campaigns", CAMPAIGN)
        assert await_campaign(first, submitted["id"])["resumed"] == 0
        first.server.shutdown()
        first.server.server_close()
        first.service.close()
        second = harness_factory(store=VerdictStore(tmp_path / "shared"))
        _, again, _ = second.post("/v1/campaigns", CAMPAIGN)
        assert again["id"] == submitted["id"]
        status = await_campaign(second, again["id"])
        assert status["state"] == "done"
        assert status["resumed"] == status["total"] == 2

    def test_stats_counts_requests_and_campaigns(self, harness):
        harness.post("/v1/check", SPEC)
        _, submitted, _ = harness.post("/v1/campaigns", CAMPAIGN)
        await_campaign(harness, submitted["id"])
        code, stats, _ = harness.get("/v1/stats")
        assert code == 200
        assert stats["service"]["requests"]["POST /v1/check"] == 1
        assert stats["service"]["campaigns"]["done"] == 1
        assert stats["store"]["misses"] >= 1
        assert stats["backend"]["kind"] == "serial"
        assert stats["rate_limiter"]["rate"] is None


# ---------------------------------------------------------------------------
# Server CLI
# ---------------------------------------------------------------------------
class TestServerCli:
    @pytest.mark.parametrize(
        "flag,value",
        [
            ("backend", "distributed"),
            ("connect", "127.0.0.1:7421"),
            ("min-workers", "2"),
            ("journal", "journals/"),
        ],
        ids=["backend-distributed", "connect", "min-workers", "journal"],
    )
    def test_retired_flags_exit_2(self, capsys, flag, value):
        # A deployment script must not quietly get a server it did not ask for.
        from repro.service.__main__ import build_parser

        option = f"--{flag}"
        with pytest.raises(SystemExit) as exited:
            build_parser().parse_args([option, value])
        assert exited.value.code == 2
        assert option in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--backend", "pool", "--workers", "0"],
            ["--backend", "pool", "--workers", "-3"],
            ["--workers", "4"],
            ["--backend", "serial", "--workers", "2"],
            ["--rate", "nan"],
            ["--rate", "inf"],
            ["--rate", "-1"],
            ["--rate", "0"],
            ["--rate", "fast"],
            ["--burst", "0"],
            ["--burst", "-2"],
            ["--store-entries", "0"],
            ["--store-entries", "1e3"],
        ],
        ids=[
            "pool-zero", "pool-negative", "no-backend", "serial-backend",
            "rate-nan", "rate-inf", "rate-negative", "rate-zero", "rate-text",
            "burst-zero", "burst-negative", "store-entries-zero", "store-entries-float",
        ],
    )
    def test_bad_numeric_flags_exit_2_before_serving(self, capsys, argv, monkeypatch):
        from repro.service import __main__ as cli

        def refuse(args):
            raise AssertionError(f"a service was built from a bad {argv}")

        monkeypatch.setattr(cli, "build_service", refuse)
        flag = next(arg for arg in argv if arg.startswith("--") and arg != "--backend")
        with pytest.raises(SystemExit) as exited:
            cli.main(argv)
        assert exited.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), 0.0, -1.0])
    def test_limiter_refuses_a_rate_that_is_not_positive_and_finite(self, rate):
        from repro.service.rate_limit import TokenBucketLimiter

        with pytest.raises(ValueError, match="positive and finite"):
            TokenBucketLimiter(rate)

    def test_cold_import_leaves_numpy_out(self):
        # The library and the server are pure Python; numpy on the import
        # path costs every process its load time and resident memory.
        src = Path(__file__).resolve().parents[2] / "src"
        probe = "import sys, repro.service; print('numpy' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert result.stdout.strip() == "False"


class TestBackendKinds:
    """Every ``--backend`` answers checks in the server.

    Only campaigns fan out; a single-shot miss never waits for a worker.
    """

    @staticmethod
    def assert_nothing_left_the_process(service):
        assert not getattr(service.backend, "started", False)

    def test_check_misses_and_hits_match_the_library(self, cli_harness):
        expected = library_verdict_json()
        for outcome in ("miss", "hit"):
            code, body, _ = cli_harness.post("/v1/check", SPEC, timeout=30)
            assert code == 200
            assert body["observability"]["store_stats"]["outcome"] == outcome
            assert canonical_json(body["verdict"]) == expected
        self.assert_nothing_left_the_process(cli_harness.service)

    def test_stats_name_the_kind_and_its_parallelism(self, cli_harness):
        kind = cli_harness.kind
        code, stats, _ = cli_harness.get("/v1/stats")
        assert code == 200
        assert stats["backend"] == {"kind": kind, "parallelism": {"serial": 1, "pool": 2}[kind]}

    def test_task_naming_another_algorithm_runs_that_algorithm(self, cli_harness):
        assert_mismatched_task_runs_its_own_algorithm(cli_harness)

    def test_campaign_reports_match_the_library(self, cli_harness):
        from repro.verification import grid_sweep

        expected = [
            canonical_json(result_payload(report)["verdict"])
            for report in grid_sweep(
                registry.get(ALGORITHM), sizes=[tuple(size) for size in CAMPAIGN["sizes"]], model="FSYNC"
            ).reports
        ]
        _, submitted, _ = cli_harness.post("/v1/campaigns", CAMPAIGN)
        assert await_campaign(cli_harness, submitted["id"])["state"] == "done"
        raw = cli_harness.get_raw(f"/v1/campaigns/{submitted['id']}/events")
        tasks = [event for event in map(json.loads, raw.splitlines()) if event["event"] == "task"]
        tasks.sort(key=lambda event: event["index"])
        assert [canonical_json(event["report"]["verdict"]) for event in tasks] == expected


# ---------------------------------------------------------------------------
# Kill -9 the server mid-campaign; restart on the same store; resume.
# ---------------------------------------------------------------------------
SLOW_CAMPAIGN = {
    "algorithm": ALGORITHM,
    "campaign": "grid_sweep",
    "sizes": [[2, 3], [2, 4], [2, 5], [3, 3]],
    "model": "FSYNC",
}


def start_server(tmp_path: Path, *extra: str) -> "subprocess.Popen[str]":
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    port_file = tmp_path / f"port-{len(list(tmp_path.glob('port-*')))}"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.service",
            "--host", "127.0.0.1", "--port", "0",
            "--store", str(tmp_path / "store"),
            "--port-file", str(port_file),
            *extra,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    proc.port_file = port_file  # type: ignore[attr-defined]
    return proc


def server_url(proc, timeout=60.0) -> str:
    deadline = time.monotonic() + timeout
    port_file = proc.port_file
    while time.monotonic() < deadline:
        assert proc.poll() is None, "server subprocess died during startup"
        if port_file.exists() and port_file.read_text().strip():
            return f"http://127.0.0.1:{port_file.read_text().strip()}"
        time.sleep(0.05)
    raise AssertionError("server did not publish its port in time")


def http_json(url, path, payload=None, timeout=60.0):
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        url + path, data=data, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.load(response)


class TestKillResume:
    def test_killed_server_resumes_campaign_from_its_store(self, tmp_path):
        # The pause after each computed task throttles the serial run to
        # ~1 task per 0.4s so the kill lands mid-campaign deterministically.
        first = start_server(tmp_path, "--wave-delay", "0.4")
        try:
            url = server_url(first)
            submitted = http_json(url, "/v1/campaigns", SLOW_CAMPAIGN)
            run_id = submitted["id"]
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                status = http_json(url, f"/v1/campaigns/{run_id}")
                if 1 <= status["completed"] < status["total"]:
                    break
                assert status["state"] == "running", f"finished too fast: {status}"
                time.sleep(0.05)
            else:
                raise AssertionError("campaign never reached a partial state")
            completed_before_kill = status["completed"]
            os.kill(first.pid, signal.SIGKILL)
            first.wait(timeout=30)
        finally:
            if first.poll() is None:
                first.kill()
            first.stdout.close()

        second = start_server(tmp_path)
        try:
            url = server_url(second)
            resubmitted = http_json(url, "/v1/campaigns", SLOW_CAMPAIGN)
            assert resubmitted["id"] == run_id  # content-addressed: same run
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                status = http_json(url, f"/v1/campaigns/{run_id}")
                if status["state"] != "running":
                    break
                time.sleep(0.1)
            assert status["state"] == "done" and status["ok"] is True
            assert status["completed"] == status["total"] == 4
            # The stored verdicts were served, not recomputed.
            assert status["resumed"] >= completed_before_kill >= 1
            with urllib.request.urlopen(
                url + f"/v1/campaigns/{run_id}/events", timeout=60
            ) as response:
                events = [json.loads(line) for line in response if line.strip()]
            resumed_events = [e for e in events if e["event"] == "task" and e["resumed"]]
            fresh_events = [e for e in events if e["event"] == "task" and not e["resumed"]]
            assert len(resumed_events) == status["resumed"]
            assert len(resumed_events) + len(fresh_events) == 4
            assert all(event["ok"] for event in resumed_events + fresh_events)
        finally:
            second.terminate()
            try:
                second.wait(timeout=15)
            except subprocess.TimeoutExpired:
                second.kill()
            second.stdout.close()
