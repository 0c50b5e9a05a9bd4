#!/usr/bin/env python3
"""Quickstart: the verification service, end to end, in one process.

Starts the HTTP/JSON verification service on a free port (backed by a
temporary verdict store), then drives it through
``ServiceClient`` exactly as a remote consumer would:

1. ``POST /v1/check``  — cold verdict, computed by the engine;
2. the same check again — a warm store hit that never re-enters the engine;
3. ``POST /v1/campaigns`` — a small grid sweep, progress streamed live
   from ``GET /v1/campaigns/<id>/events``;
4. ``GET /v1/stats`` — the service/store counters behind it all.

For an always-on deployment use the server CLI instead::

    python -m repro.service --port 8421 --store verdicts/
    python -m repro.service.client --url http://127.0.0.1:8421 check \\
        --algorithm fsync_phi2_l2_chir_k2 --grid 3x3 --model FSYNC

Usage::

    python examples/service_quickstart.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro.engine.store import VerdictStore
from repro.service import ServiceClient, VerificationService, start_in_thread

SPEC = {
    "algorithm": "fsync_phi2_l2_chir_k2",
    "m": 3,
    "n": 3,
    "model": "FSYNC",
    "reduction": "grid",
}

CAMPAIGN = {
    "campaign": "grid_sweep",
    "algorithm": "fsync_phi2_l2_chir_k2",
    "sizes": [[2, 3], [2, 4], [3, 3]],
    "model": "FSYNC",
}


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="service-quickstart-") as tmp:
        store = VerdictStore(Path(tmp) / "store")
        service = VerificationService(store)
        server, _thread = start_in_thread(service)
        client = ServiceClient(server.url)
        print(f"service listening on {server.url}\n")

        try:
            # 1. Cold check: the engine explores the full state space.
            t0 = time.perf_counter()
            cold = client.check(SPEC)
            cold_ms = (time.perf_counter() - t0) * 1e3
            verdict = cold["verdict"]
            print(
                f"cold  check: ok={verdict['ok']} states={verdict['states_explored']}"
                f" outcome={cold['observability']['store_stats']['outcome']} ({cold_ms:.1f} ms)"
            )

            # 2. Warm check: answered from the verdict store, byte-identical.
            t0 = time.perf_counter()
            warm = client.check(SPEC)
            warm_ms = (time.perf_counter() - t0) * 1e3
            assert warm["verdict"] == cold["verdict"], "warm verdict must match cold"
            print(
                f"warm  check: ok={warm['verdict']['ok']}"
                f" outcome={warm['observability']['store_stats']['outcome']} ({warm_ms:.1f} ms)\n"
            )

            # 3. A campaign: submit, then stream progress events as they land.
            submitted = client.submit(CAMPAIGN)
            campaign_id = submitted["id"]
            print(f"campaign {campaign_id}: {submitted['total']} tasks submitted")
            for event in client.tail(campaign_id):
                kind = event.get("event")
                if kind == "task":
                    report = event["report"]["verdict"]
                    print(
                        f"  task {event['index']}: {report['m']}x{report['n']} [{report['model']}]"
                        f" ok={event['ok']} ({'resumed' if event['resumed'] else 'fresh'})"
                    )
                elif kind in ("done", "error"):
                    print(
                        f"campaign {kind}: ok={event.get('ok')}"
                        f" completed={event.get('completed')}/{event.get('total')}\n"
                    )

            # 4. The counters behind it.
            stats = client.stats()
            svc, st = stats["service"], stats.get("store") or {}
            print(
                f"service: requests={svc['requests']}"
                f" campaigns={svc['campaigns']['done']} done |"
                f" store: {st.get('hits', 0)} hits, {st.get('misses', 0)} misses"
            )
        finally:
            server.shutdown()
            server.server_close()
            service.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
