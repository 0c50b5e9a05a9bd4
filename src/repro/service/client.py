"""CLI client: ``python -m repro.service.client``.

Stdlib-only (``urllib``) client for the verification service, with exit
codes chosen for scripting::

    0  the verdict is ok (check passed / campaign fully succeeded)
    1  the verdict is a failure (the request worked; the algorithm didn't)
    2  the request was rejected (validation error, unknown id, bad usage)
    3  the service is unreachable or failed internally

Subcommands::

    check    POST /v1/check      one exhaustive check, verdict to stdout
    submit   POST /v1/campaigns  submit a campaign, print its id/status
    await    GET  /v1/campaigns/<id>      poll until the run completes
    tail     GET  /v1/campaigns/<id>/events  stream NDJSON progress
    stats    GET  /v1/stats
    health   GET  /healthz

A 429 from the service is retried automatically after its ``Retry-After``
delay (up to ``--retries`` times) — rate limiting is backpressure, not an
error, to a well-behaved client.

Examples::

    python -m repro.service.client check --algorithm fsync_phi2_l2_chir_k2 \\
        --grid 3x3 --model FSYNC --reduction grid
    id=$(python -m repro.service.client submit --algorithm fsync_phi2_l2_chir_k2 \\
        --campaign exhaustive_sweep --id-only)
    python -m repro.service.client tail "$id"
    python -m repro.service.client await "$id"
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional, Tuple

__all__ = ["ServiceClient", "ClientError", "main"]

#: Scripting exit codes (see module docstring).
EXIT_OK, EXIT_VERDICT_FAILED, EXIT_REJECTED, EXIT_UNAVAILABLE = 0, 1, 2, 3


class ClientError(Exception):
    """A request that did not produce a verdict; carries the exit code."""

    def __init__(self, exit_code: int, message: str) -> None:
        super().__init__(message)
        self.exit_code = exit_code


class ServiceClient:
    """Thin JSON-over-HTTP wrapper used by the CLI (and by tests/benchmarks)."""

    def __init__(
        self,
        url: str = "http://127.0.0.1:8421",
        *,
        client_id: Optional[str] = None,
        timeout: float = 300.0,
        retries: int = 5,
    ) -> None:
        self.url = url.rstrip("/")
        self.client_id = client_id
        self.timeout = timeout
        self.retries = retries

    # -- transport --------------------------------------------------------
    def _open(self, path: str, payload: Optional[dict] = None):
        headers = {"Content-Type": "application/json"}
        if self.client_id:
            headers["X-Client-Id"] = self.client_id
        data = json.dumps(payload).encode("utf-8") if payload is not None else None
        attempts = 0
        while True:
            request = urllib.request.Request(
                self.url + path, data=data, headers=headers, method="POST" if data else "GET"
            )
            try:
                return urllib.request.urlopen(request, timeout=self.timeout)
            except urllib.error.HTTPError as exc:
                if exc.code == 429 and attempts < self.retries:
                    attempts += 1
                    time.sleep(max(1.0, float(exc.headers.get("Retry-After") or 1)))
                    continue
                raise ClientError(
                    EXIT_REJECTED if 400 <= exc.code < 500 else EXIT_UNAVAILABLE,
                    f"HTTP {exc.code}: {self._error_message(exc)}",
                ) from None
            except urllib.error.URLError as exc:
                raise ClientError(
                    EXIT_UNAVAILABLE, f"service unreachable at {self.url}: {exc.reason}"
                ) from None

    @staticmethod
    def _error_message(exc: urllib.error.HTTPError) -> str:
        try:
            error = json.loads(exc.read().decode("utf-8")).get("error", {})
        except Exception:  # noqa: BLE001 - non-JSON error body
            return exc.reason or "request failed"
        field = f" (field: {error['field']})" if "field" in error else ""
        return f"{error.get('message', exc.reason)}{field}"

    def request(self, path: str, payload: Optional[dict] = None) -> dict:
        with self._open(path, payload) as response:
            return json.load(response)

    # -- endpoints --------------------------------------------------------
    def check(self, spec: dict) -> dict:
        return self.request("/v1/check", spec)

    def submit(self, spec: dict) -> dict:
        return self.request("/v1/campaigns", spec)

    def status(self, campaign: str) -> dict:
        return self.request(f"/v1/campaigns/{campaign}")

    def stats(self) -> dict:
        return self.request("/v1/stats")

    def health(self) -> dict:
        return self.request("/healthz")

    def wait(self, campaign: str, poll: float = 0.5, timeout: Optional[float] = None) -> dict:
        """Poll until the campaign leaves ``running``; return its status."""
        deadline = time.monotonic() + timeout if timeout is not None else None
        while True:
            status = self.status(campaign)
            if status["state"] != "running":
                return status
            if deadline is not None and time.monotonic() >= deadline:
                raise ClientError(EXIT_UNAVAILABLE, f"campaign {campaign} still running after timeout")
            time.sleep(poll)

    def tail(self, campaign: str, since: int = 0):
        """Yield progress events (pings filtered) until the terminal one."""
        with self._open(f"/v1/campaigns/{campaign}/events?since={since}") as response:
            for line in response:
                if not line.strip():
                    continue
                event = json.loads(line.decode("utf-8"))
                if event.get("event") == "ping":
                    continue
                yield event
                if event.get("event") in ("done", "error"):
                    return


# ---------------------------------------------------------------------------
# argv handling
# ---------------------------------------------------------------------------
def _parse_grid(value: str) -> Tuple[int, int]:
    try:
        m, n = value.lower().split("x")
        return int(m), int(n)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected MxN (e.g. 3x4), got {value!r}") from None


def _parse_ints(value: str) -> List[int]:
    try:
        return [int(part) for part in value.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {value!r}") from None


def _parse_sizes(value: str) -> List[List[int]]:
    return [list(_parse_grid(part)) for part in value.split(",") if part.strip()]


def _check_spec(args) -> Dict[str, object]:
    return {
        "algorithm": args.algorithm,
        "m": args.grid[0],
        "n": args.grid[1],
        "model": args.model,
        "reduction": args.reduction,
        "max_states": args.max_states,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.client",
        description="CLI client for the verification service (see module docstring for exit codes).",
    )
    parser.add_argument("--url", default="http://127.0.0.1:8421", help="service base URL")
    parser.add_argument("--client-id", default=None, help="X-Client-Id for rate-limit accounting")
    parser.add_argument("--timeout", type=float, default=300.0, help="per-request timeout (s)")
    parser.add_argument("--retries", type=int, default=5, help="automatic 429 retries")
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser("check", help="one exhaustive check (exit 0 ok, 1 failed)")
    check.add_argument("--algorithm", required=True, help="registry algorithm name")
    check.add_argument("--grid", type=_parse_grid, default=(3, 3), metavar="MxN", help="grid size")
    check.add_argument("--model", default="FSYNC", help="FSYNC | SSYNC | ASYNC")
    check.add_argument("--reduction", default="grid", help="grid | none")
    check.add_argument("--max-states", type=int, default=200_000, help="state budget")

    submit = commands.add_parser("submit", help="submit a campaign, print id/status")
    submit.add_argument("--spec", default=None, help="raw JSON campaign spec ('-' reads stdin)")
    submit.add_argument("--algorithm", default=None, help="registry algorithm name")
    submit.add_argument(
        "--campaign",
        default="grid_sweep",
        help="grid_sweep | stress_test | exhaustive_sweep | verify_algorithm",
    )
    submit.add_argument("--sizes", type=_parse_sizes, default=None, metavar="MxN,MxN,...")
    submit.add_argument("--model", default=None)
    submit.add_argument("--models", default=None, help="comma-separated (stress_test)")
    submit.add_argument("--seeds", type=_parse_ints, default=None, metavar="N,N,...")
    submit.add_argument("--reduction", default=None)
    submit.add_argument("--max-states", type=int, default=None)
    submit.add_argument("--id-only", action="store_true", help="print just the campaign id")

    wait = commands.add_parser("await", help="poll a campaign until done (exit by verdict)")
    wait.add_argument("id", help="campaign id from submit")
    wait.add_argument("--poll", type=float, default=0.5, help="poll interval (s)")
    wait.add_argument("--wait-timeout", type=float, default=None, help="give up after (s)")

    tail = commands.add_parser("tail", help="stream NDJSON progress events to stdout")
    tail.add_argument("id", help="campaign id from submit")
    tail.add_argument("--since", type=int, default=0, help="event cursor to resume from")

    commands.add_parser("stats", help="service/store/backend counters")
    commands.add_parser("health", help="liveness probe")
    return parser


def _submit_spec(args) -> dict:
    if args.spec is not None:
        raw = sys.stdin.read() if args.spec == "-" else args.spec
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ClientError(EXIT_REJECTED, f"--spec is not valid JSON: {exc}") from None
    if args.algorithm is None:
        raise ClientError(EXIT_REJECTED, "submit needs --algorithm (or a full --spec)")
    spec: Dict[str, object] = {"algorithm": args.algorithm, "campaign": args.campaign}
    if args.sizes is not None:
        spec["sizes"] = args.sizes
    if args.model is not None:
        spec["model"] = args.model
    if args.models is not None:
        spec["models"] = [part.strip() for part in args.models.split(",") if part.strip()]
    if args.seeds is not None:
        spec["seeds"] = args.seeds
    if args.reduction is not None:
        spec["reduction"] = args.reduction
    if args.max_states is not None:
        spec["max_states"] = args.max_states
    return spec


def _print(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    client = ServiceClient(
        args.url, client_id=args.client_id, timeout=args.timeout, retries=args.retries
    )
    try:
        if args.command == "check":
            body = client.check(_check_spec(args))
            _print(body)
            return EXIT_OK if body["verdict"]["ok"] else EXIT_VERDICT_FAILED
        if args.command == "submit":
            status = client.submit(_submit_spec(args))
            if args.id_only:
                print(status["id"])
            else:
                _print(status)
            return EXIT_OK
        if args.command == "await":
            status = client.wait(args.id, poll=args.poll, timeout=args.wait_timeout)
            _print(status)
            if status["state"] != "done":
                return EXIT_UNAVAILABLE
            return EXIT_OK if status["ok"] else EXIT_VERDICT_FAILED
        if args.command == "tail":
            terminal = None
            for event in client.tail(args.id, since=args.since):
                json.dump(event, sys.stdout, sort_keys=True)
                sys.stdout.write("\n")
                sys.stdout.flush()
                terminal = event
            if terminal is None or terminal.get("event") == "error":
                return EXIT_UNAVAILABLE
            if terminal.get("event") == "done":
                return EXIT_OK if terminal.get("ok") else EXIT_VERDICT_FAILED
            return EXIT_OK
        if args.command == "stats":
            _print(client.stats())
            return EXIT_OK
        _print(client.health())
        return EXIT_OK
    except ClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
