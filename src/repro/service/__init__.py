"""Verification-as-a-service: HTTP/JSON front end over the engine.

The service wraps the campaign engine and the persistent verdict store
behind a small, stdlib-only HTTP API so verification can be driven from
anything that speaks JSON — CI jobs, shell scripts, other machines —
without importing the library:

* ``POST /v1/check`` — one exhaustive check.  Store-backed: a miss
  stores exactly one record, the verdict, and a warm hit is served
  without touching the engine and carries its ``store_stats`` channel.
* ``POST /v1/campaigns`` — submit a batch (grid sweep, stress test,
  exhaustive sweep, …); returns a content-addressed campaign id.
  ``GET /v1/campaigns/<id>`` polls status; ``GET
  /v1/campaigns/<id>/events`` streams NDJSON progress.  Campaigns are
  store-backed: each report is stored as it completes, so if the server
  is killed mid-run, restart it on the same ``--store``, resubmit the
  same spec, and only the remainder runs.
  Fresh campaign tasks run in the server process or on a worker pool on
  the same machine (``--backend serial|pool``).
* ``GET /v1/stats`` / ``GET /healthz`` — counters and liveness.

Cross-cutting: per-client token-bucket rate limiting (429 +
``Retry-After``), and validation that maps spec errors to 400s naming
the offending field.  ``python -m repro.service`` runs the server;
``python -m repro.service.client`` is the scripting client.

See ``docs/architecture.md`` ("The verification service") for the
endpoint table and guarantees.
"""

from .app import (
    CampaignRun,
    ServiceHandler,
    VerificationServer,
    VerificationService,
    start_in_thread,
)
from .client import ClientError, ServiceClient
from .rate_limit import RateDecision, TokenBucketLimiter

__all__ = [
    "CampaignRun",
    "ClientError",
    "RateDecision",
    "ServiceClient",
    "ServiceHandler",
    "TokenBucketLimiter",
    "VerificationServer",
    "VerificationService",
    "start_in_thread",
]
