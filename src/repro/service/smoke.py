"""End-to-end service smoke: ``python -m repro.service.smoke``.

The CI gate (and ``make serve-smoke``) for the verification service.  It
exercises the *deployed* shape — a real server subprocess, the real CLI
client as subprocesses, real sockets — rather than in-process embedding:

1. start ``python -m repro.service`` against a temp ``--store``;
2. ``client check`` a spec and assert the verdict is **byte-identical**
   (modulo the ``compare=False`` observability channels) to the serial
   engine run in this process;
3. re-run the same check and assert it was a warm hit — the response's
   ``store_stats.outcome`` says HIT — and that the store holds one record
   per computed check: ``/v1/stats`` reports exactly ``hits == 1``,
   ``misses == 1`` and ``disk_records == 1``;
4. submit a campaign, ``tail`` its NDJSON events, ``await`` it, fetch its
   status, and assert a resubmission is idempotent (same id, no rerun);
5. assert a malformed spec comes back 400 naming the offending field;
6. restart the server on the same ``--store``, resubmit the campaign and
   assert every task is served from the store (``resumed`` equals
   ``total``).

Exit 0 when all gates hold; exit 1 with a diagnostic on the first that
does not.  Stdlib-only, no network beyond loopback.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional

ALGORITHM = "fsync_phi2_l2_chir_k2"
GRID = (3, 3)
REDUCTION = "grid"


class SmokeFailure(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def _client(url: str, *argv: str, expect: Optional[int] = 0) -> subprocess.CompletedProcess:
    command = [sys.executable, "-m", "repro.service.client", "--url", url, *argv]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=300)
    if expect is not None and proc.returncode != expect:
        raise SmokeFailure(
            f"client {argv[0]!r} exited {proc.returncode} (wanted {expect});"
            f" stderr: {proc.stderr.strip()}"
        )
    return proc


def _wait_for_server(port_file: Path, server: subprocess.Popen, timeout: float = 60.0) -> str:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if server.poll() is not None:
            raise SmokeFailure(f"server exited early with code {server.returncode}")
        if port_file.exists() and port_file.read_text().strip():
            url = f"http://127.0.0.1:{port_file.read_text().strip()}"
            probe = _client(url, "health", expect=None)
            if probe.returncode == 0:
                return url
        time.sleep(0.1)
    raise SmokeFailure("server did not become healthy in time")


def _check_args() -> List[str]:
    return [
        "check",
        "--algorithm", ALGORITHM,
        "--grid", f"{GRID[0]}x{GRID[1]}",
        "--model", "FSYNC",
        "--reduction", REDUCTION,
    ]


def _local_verdict_json() -> str:
    """The serial engine's verdict for the smoke spec, canonically serialized."""
    from .. import algorithms
    from ..checking.model_checker import check_terminating_exploration
    from ..core.grid import Grid
    from ..engine.spec import canonical_json, result_payload

    result = check_terminating_exploration(
        algorithms.registry.get(ALGORITHM), Grid(*GRID), model="FSYNC", reduction=REDUCTION
    )
    return canonical_json(result_payload(result)["verdict"])


def _start_server(tmp_path: Path, name: str) -> "subprocess.Popen[str]":
    """A server subprocess on the smoke's ``--store``, publishing its port to ``name``."""
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.service",
            "--host", "127.0.0.1", "--port", "0",
            "--store", str(tmp_path / "store"),
            "--port-file", str(tmp_path / name),
        ],
        env=dict(os.environ),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def _stop(server: "subprocess.Popen[str]") -> None:
    if server.poll() is None:
        server.terminate()
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:  # pragma: no cover - stuck server
            server.kill()


def _campaign_args() -> List[str]:
    return [
        "submit",
        "--algorithm", ALGORITHM,
        "--campaign", "grid_sweep",
        "--sizes", "2x3,3x3",
        "--model", "FSYNC",
        "--reduction", REDUCTION,
    ]


def main(argv: Optional[List[str]] = None) -> int:
    from ..engine.spec import canonical_json

    print("service-smoke: starting server against a temp store", flush=True)
    with tempfile.TemporaryDirectory(prefix="service-smoke-") as tmp:
        tmp_path = Path(tmp)
        server = _start_server(tmp_path, "port")
        try:
            url = _wait_for_server(tmp_path / "port", server)
            print(f"service-smoke: server healthy at {url}", flush=True)

            # -- gate 1: cold check, byte-identical to the serial engine --
            cold = json.loads(_client(url, *_check_args()).stdout)
            http_verdict = canonical_json(cold["verdict"])
            _require(
                http_verdict == _local_verdict_json(),
                "HTTP verdict differs from the serial engine's for the same spec",
            )
            _require(cold["verdict"]["ok"] is True, "smoke spec unexpectedly failed its check")
            print("service-smoke: cold verdict byte-identical to the serial engine", flush=True)

            # -- gate 2: warm re-run is a store hit, not a recompute ------
            warm = json.loads(_client(url, *_check_args()).stdout)
            _require(
                canonical_json(warm["verdict"]) == http_verdict,
                "warm verdict differs from the cold one",
            )
            outcome = warm["observability"]["store_stats"]["outcome"]
            _require(outcome == "hit", f"expected a warm store hit, got outcome {outcome!r}")
            store = json.loads(_client(url, "stats").stdout)["store"]
            counters = {key: store[key] for key in ("hits", "misses", "disk_records")}
            _require(
                counters == {"hits": 1, "misses": 1, "disk_records": 1},
                "/v1/stats after one cold and one warm check should report one hit,"
                f" one miss and one stored record: {store}",
            )
            print(f"service-smoke: warm hit served from the store ({counters})", flush=True)

            # -- gate 3: campaign submit -> tail -> await -> fetch --------
            submit = _client(url, *_campaign_args(), "--id-only")
            run_id = submit.stdout.strip()
            _require(bool(run_id), "submit --id-only printed no campaign id")
            events = [
                json.loads(line)
                for line in _client(url, "tail", run_id).stdout.splitlines()
                if line.strip()
            ]
            _require(
                events and events[-1]["event"] == "done" and events[-1]["ok"] is True,
                f"campaign event stream did not end in a passing 'done' event: {events[-1:]}",
            )
            _require(
                sum(1 for event in events if event["event"] == "task") == events[-1]["total"],
                "event stream is missing per-task events",
            )
            status = json.loads(_client(url, "await", run_id).stdout)
            _require(
                status["state"] == "done" and status["completed"] == status["total"],
                f"campaign status incomplete after await: {status}",
            )
            resubmit = json.loads(_client(url, *_campaign_args()).stdout)
            _require(
                resubmit["id"] == run_id and resubmit["state"] == "done",
                "resubmitting an identical campaign was not idempotent",
            )
            print(
                f"service-smoke: campaign {run_id} completed"
                f" ({status['completed']}/{status['total']} tasks) and resubmission was idempotent",
                flush=True,
            )

            # -- gate 4: validation names the offending field -------------
            bad = _client(
                url, "check", "--algorithm", ALGORITHM, "--model", "WARPSYNC", expect=2
            )
            _require(
                "model" in bad.stderr,
                f"400 for a bad model did not name the field: {bad.stderr.strip()}",
            )
            print("service-smoke: malformed spec rejected with the offending field named", flush=True)

            # -- gate 5: a restart on the same --store resumes from it ----
            _stop(server)
            server = _start_server(tmp_path, "port-restarted")
            url = _wait_for_server(tmp_path / "port-restarted", server)
            _require(
                _client(url, *_campaign_args(), "--id-only").stdout.strip() == run_id,
                "the restarted server gave the resubmitted campaign a different id",
            )
            resumed = json.loads(_client(url, "await", run_id).stdout)
            _require(
                resumed["state"] == "done" and resumed["resumed"] == resumed["total"],
                f"the restarted server recomputed stored campaign tasks: {resumed}",
            )
            print(
                f"service-smoke: restarted server served all {resumed['total']} campaign"
                " tasks from the store",
                flush=True,
            )
        except SmokeFailure as failure:
            server.terminate()
            output, _ = server.communicate(timeout=10)
            print(f"service-smoke: FAILED: {failure}", file=sys.stderr, flush=True)
            if output:
                print(f"--- server output ---\n{output}", file=sys.stderr, flush=True)
            return 1
        finally:
            _stop(server)
    print("service-smoke: PASS", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
