"""A real ``python -m repro.service`` subprocess driven by a closed loop.

``CLIENTS`` threads share one request stream: each sends its next request
only after the previous reply arrived, so a slow server receives less load.
Every request opens its own connection (the service speaks HTTP/1.0).
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

#: Client threads in the closed loop; two, the CPU count of the machine the
#: benchmark was defined on, so neither side of the socket idles.
CLIENTS = 2

REQUEST_TIMEOUT_S = 120.0
STARTUP_TIMEOUT_S = 60.0


def child_env(root: Path) -> Dict[str, str]:
    """The environment of every process a pass spawns: ``src`` importable, profiling off."""
    env = dict(os.environ)
    env.pop("REPRO_PROFILE", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Server:
    """A service subprocess on a fresh store; ``setup_s`` is spawn to first ``/healthz``."""

    def __init__(self, root: Path, store: Path, log: Path) -> None:
        self.log = log
        self._log = open(log, "w", encoding="utf-8")
        spawned = time.monotonic()
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.service", "--port", "0", "--store", str(store)],
                cwd=root,
                env=child_env(root),
                stdout=subprocess.PIPE,
                stderr=self._log,
                text=True,
            )
        except OSError:
            self._log.close()
            raise
        try:
            line = self.proc.stdout.readline().strip()
            if not line.startswith("service: listening on http://"):
                raise RuntimeError(f"service did not start ({line!r}); see {log}: {self.log_tail()}")
            self.host, port = line.rsplit("/", 1)[1].rsplit(":", 1)
            self.port = int(port)
            deadline = spawned + STARTUP_TIMEOUT_S
            while True:
                try:
                    status, _ = self.request("GET", "/healthz", timeout=5.0)
                    if status == 200:
                        break
                except OSError:
                    pass
                if time.monotonic() > deadline or self.proc.poll() is not None:
                    raise RuntimeError(f"service never answered /healthz: {self.log_tail()}")
                time.sleep(0.002)
            self.setup_s = time.monotonic() - spawned
        except BaseException:
            self.stop()
            raise

    def log_tail(self) -> str:
        self._log.flush()
        return self.log.read_text(encoding="utf-8")[-2000:]

    def request(self, method: str, path: str, body: Optional[bytes] = None, timeout: float = REQUEST_TIMEOUT_S):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=timeout)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def closed_loop(server: Server, stream: List[Dict[str, object]], clients: int = CLIENTS):
    """Send ``stream`` as ``POST /v1/check``; returns (records in stream order, wall seconds)."""
    records: List[Optional[Dict[str, object]]] = [None] * len(stream)
    bodies = [json.dumps(payload).encode("utf-8") for payload in stream]
    cursor = iter(range(len(stream)))
    lock = threading.Lock()

    def client() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            t0 = time.perf_counter()
            try:
                status, data = server.request("POST", "/v1/check", bodies[index])
                latency_ms = (time.perf_counter() - t0) * 1000
                record: Dict[str, object] = {"status": status, "latency_ms": latency_ms}
                if status == 200:
                    body = json.loads(data)
                    record.update(
                        outcome=body["observability"]["store_stats"]["outcome"],
                        elapsed_ms=body["elapsed_s"] * 1000,
                        verdict=json.dumps(body["verdict"], sort_keys=True, separators=(",", ":")),
                        ok=body["verdict"]["ok"],
                    )
                else:
                    record["error"] = data[:500].decode("utf-8", "replace")
            except Exception as exc:  # noqa: BLE001 - a failed request is counted, not fatal
                record = {
                    "status": None,
                    "latency_ms": (time.perf_counter() - t0) * 1000,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            records[index] = record

    threads = [threading.Thread(target=client, name=f"client-{i}") for i in range(clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, time.perf_counter() - start
