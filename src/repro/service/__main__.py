"""Server CLI: ``python -m repro.service``.

Binds the verification service and serves until interrupted::

    python -m repro.service --port 8421 --store /var/lib/repro/store --backend serial

``--backend pool`` fans campaigns out over a persistent worker pool on
this machine (``--workers``, at least 1, accepted only with
``--backend pool``); ``--backend serial``, the default, runs them in the
server process.  Any other ``--backend`` value is a usage error (exit 2),
as are the retired ``--connect``, ``--min-workers`` and journal flags, and
so is a numeric flag out of range: ``--rate`` must be a positive finite
number, ``--burst`` and ``--store-entries`` at least 1.
Checks and explorations always run in the server process, on the
backend's cache; only campaign task lists fan out.  ``--store`` makes
verdicts durable and warm-servable across restarts, and makes in-flight
campaigns resumable: each campaign report is stored as it completes, so
resubmitting the same spec after a crash computes only the remainder.

The chosen HTTP endpoint is printed as ``service: listening on URL`` (and
written to ``--port-file`` when given) so wrappers can discover an
ephemeral ``--port 0`` binding.
"""

from __future__ import annotations

import argparse
import math
from typing import List, Optional

from .app import VerificationServer, VerificationService


def _at_least_one(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _rate(text: str) -> float:
    rate = float(text)
    if not (math.isfinite(rate) and rate > 0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text}")
    return rate


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="HTTP/JSON verification service over the campaign engine and verdict store.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="HTTP bind address")
    parser.add_argument("--port", type=int, default=8421, help="HTTP port (0 picks a free one)")
    parser.add_argument(
        "--backend",
        choices=("serial", "pool"),
        default="serial",
        help="where fresh (uncached) campaign tasks run",
    )
    parser.add_argument(
        "--workers", type=_at_least_one, default=None, help="worker processes for --backend pool"
    )
    parser.add_argument("--store", default=None, metavar="PATH", help="verdict-store directory")
    parser.add_argument(
        "--store-entries", type=_at_least_one, default=100_000, help="in-memory verdict index bound"
    )
    parser.add_argument(
        "--rate", type=_rate, default=None, help="per-client requests/second (unlimited if omitted)"
    )
    parser.add_argument("--burst", type=_at_least_one, default=20, help="per-client burst size")
    parser.add_argument(
        "--port-file", default=None, metavar="PATH", help="write the bound HTTP port to this file"
    )
    parser.add_argument(
        "--wave-delay",
        type=float,
        default=0.0,
        help=argparse.SUPPRESS,  # test hook: seconds to pause after each computed campaign task
    )
    parser.add_argument("--verbose", action="store_true", help="log every request")
    return parser


def build_service(args) -> VerificationService:
    """Construct the service (store, backend, limiter) an argv asked for."""
    from ..engine.backend import PoolBackend, SerialBackend
    from ..engine.store import VerdictStore

    store = VerdictStore(args.store, max_entries=args.store_entries) if args.store else None
    # A SerialBackend (not bare in-process calls), so campaigns and
    # explorations share one matcher cache for the server's lifetime.
    backend = PoolBackend(workers=args.workers) if args.backend == "pool" else SerialBackend()
    return VerificationService(
        store,
        backend=backend,
        rate=args.rate,
        burst=args.burst,
        wave_delay=args.wave_delay,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.workers is not None and args.backend != "pool":
        parser.error("argument --workers: only valid with --backend pool")
    service = build_service(args)
    server = VerificationServer((args.host, args.port), service, verbose=args.verbose)
    host, port = server.server_address[:2]
    print(f"service: listening on http://{host}:{port}", flush=True)
    if args.port_file:
        with open(args.port_file, "w", encoding="utf-8") as handle:
            handle.write(str(port))
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        server.server_close()
        service.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
