"""Work-item specs: parsing, validation, store keys and JSON wire forms.

The verdict store (:mod:`repro.engine.store`) holds verdicts under content
keys, and it has two writers, one per key family.  This module builds both
families' keys, one function each:

* :func:`check_store_key` — the ``("check", ...)`` key of a
  :class:`~repro.checking.model_checker.CheckResult`.  Its writer is
  :func:`repro.checking.check_terminating_exploration` (``store=``), which
  ``POST /v1/check`` (:mod:`repro.service`) calls too, so either route's
  verdict is a hit for the other.
* :func:`task_store_key` — the ``("task", ...)`` key of a campaign
  :class:`~repro.engine.campaign.VerificationReport`.  Its writer is
  :meth:`repro.engine.campaign.ParallelCampaignEngine.iter_tasks`, which
  every library campaign and ``POST /v1/campaigns`` run through.

A campaign check task and a ``/v1/check`` request for the same spec store
different values (a report and a check result) under different keys, so
neither is a hit for the other.  Every key names its algorithm by
``(name, digest)`` — the registry name plus the SHA-256 of its content
(:attr:`~repro.core.algorithm.Algorithm.digest`) — so an edited rule table
never reads a verdict stored for its predecessor, and ad-hoc algorithms are
stored like registered ones.

On top of the keys it owns the *wire* forms the HTTP service exchanges.
HTTP specs name registry algorithms only; this module is where the
service resolves those names:

* :func:`parse_check_spec` / :func:`parse_task` / :func:`parse_campaign`
  turn untrusted JSON payloads into validated specs, raising
  :class:`SpecError` with the offending **field named** (the service maps
  that to a 400 whose body tells the client what to fix);
* :func:`result_payload` splits a result dataclass
  into its ``verdict`` (the ``compare=True`` fields — a pure function of
  the spec, byte-identical however the work was routed or cached) and its
  ``observability`` (the ``compare=False`` channels: ``store_stats``,
  ``matcher_stats``, ``reduction_stats``, ...), so clients can byte-compare
  verdicts without scrubbing cache-warmth noise themselves;
* :func:`canonical_json` — the deterministic byte encoding (sorted keys,
  no whitespace) those comparisons use.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..core.algorithm import Algorithm, Synchrony
from .store import content_key
from .symmetry import normalize_reduction
from .walk import TieBreak

if TYPE_CHECKING:  # pragma: no cover - typing only (campaign imports this module)
    from .campaign import CampaignTask

__all__ = [
    "SpecError",
    "MODELS",
    "check_store_key",
    "task_store_key",
    "parse_check_spec",
    "parse_task",
    "parse_campaign",
    "campaign_id",
    "canonical_json",
    "result_payload",
]

MODELS = Synchrony.ORDER

_REQUIRED = object()


class SpecError(ValueError):
    """A spec payload failed validation; ``field`` names the offender."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(message)
        self.field = field

    def as_dict(self) -> Dict[str, str]:
        return {"field": self.field, "message": str(self)}


# ---------------------------------------------------------------------------
# Store keys — one builder per key family
# ---------------------------------------------------------------------------
def check_store_key(
    algorithm: Algorithm,
    m: int,
    n: int,
    model: str,
    reduction=None,
    max_states: int = 200_000,
) -> Tuple[object, ...]:
    """The verdict-store spec of one exhaustive check.

    ``max_states`` is part of the key so a budget-limited check can never
    answer for a roomier one.
    """
    return (
        "check",
        algorithm.name,
        algorithm.digest,
        m,
        n,
        model,
        normalize_reduction(reduction),
        max_states,
    )


def task_store_key(task: "CampaignTask") -> Tuple[object, ...]:
    """The verdict-store spec of one campaign task.

    Normalizations mirror execution: a walk's ``seed=None`` runs as ``0``
    (:func:`repro.engine.campaign.verify_one` normalizes before running),
    so both spellings address the verdict of the run that actually happens,
    and a check's reduction resolves through its canonical spelling.
    """
    algorithm = task.algorithm
    head = ("task", task.kind, algorithm.name, algorithm.digest, task.m, task.n, task.model)
    if task.kind == "check":
        return head + (normalize_reduction(task.reduction), task.max_states)
    return head + (0 if task.seed is None else task.seed, task.tie_break, task.max_steps)


# ---------------------------------------------------------------------------
# Payload validation
# ---------------------------------------------------------------------------
def _field(payload: dict, name: str, default=_REQUIRED):
    value = payload.get(name, default)
    if value is _REQUIRED:
        raise SpecError(name, f"missing required field {name!r}")
    return value


def _int_field(payload: dict, name: str, default=_REQUIRED, minimum: Optional[int] = None):
    value = _field(payload, name, default)
    if value is None and default is None:
        return None
    # bool is an int subclass; "m": true is a client bug, not a grid size.
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(name, f"{name!r} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise SpecError(name, f"{name!r} must be >= {minimum}, got {value}")
    return value


def _registry() -> Dict[str, Algorithm]:
    from ..algorithms import registry  # local import: avoids a layering cycle

    return registry.all_algorithms()


def _resolve_algorithm(payload: dict) -> Algorithm:
    name = _field(payload, "algorithm")
    if not isinstance(name, str):
        raise SpecError("algorithm", f"'algorithm' must be a registry name, got {name!r}")
    known = _registry()
    if name not in known:
        raise SpecError(
            "algorithm",
            f"unknown algorithm {name!r}; known: {', '.join(sorted(known))}",
        )
    return known[name]


def _model_field(payload: dict, default: str = "FSYNC") -> str:
    model = _field(payload, "model", default)
    if not isinstance(model, str) or model.upper() not in MODELS:
        raise SpecError("model", f"'model' must be one of {'/'.join(MODELS)}, got {model!r}")
    return model.upper()


def _reduction_field(payload: dict) -> str:
    reduction = _field(payload, "reduction", "grid")
    try:
        return normalize_reduction(reduction)
    except (TypeError, ValueError) as exc:
        raise SpecError("reduction", str(exc)) from None


def _grid_fields(payload: dict, algorithm) -> Tuple[int, int]:
    m = _int_field(payload, "m", minimum=1)
    n = _int_field(payload, "n", minimum=1)
    if not algorithm.supports_grid(m, n):
        raise SpecError(
            "grid",
            f"{algorithm.name} does not support a {m}x{n} grid"
            f" (needs at least {algorithm.min_m}x{algorithm.min_n})",
        )
    return m, n


@dataclasses.dataclass(frozen=True)
class CheckSpec:
    """A validated ``/v1/check`` request.

    ``algorithm`` is a registry name; :meth:`resolve` returns the
    registered :class:`~repro.core.algorithm.Algorithm` it names.
    """

    algorithm: str
    m: int
    n: int
    model: str
    reduction: str
    max_states: int

    def resolve(self) -> Algorithm:
        """The registered algorithm :attr:`algorithm` names."""
        return _registry()[self.algorithm]

    def check_key(self) -> Tuple[object, ...]:
        return check_store_key(
            self.resolve(), self.m, self.n, self.model, self.reduction, self.max_states,
        )


def parse_check_spec(payload: object) -> CheckSpec:
    """Validate one check spec payload (raises :class:`SpecError`)."""
    if not isinstance(payload, dict):
        raise SpecError("body", f"request body must be a JSON object, got {type(payload).__name__}")
    algorithm = _resolve_algorithm(payload)
    m, n = _grid_fields(payload, algorithm)
    return CheckSpec(
        algorithm=algorithm.name,
        m=m,
        n=n,
        model=_model_field(payload),
        reduction=_reduction_field(payload),
        max_states=_int_field(payload, "max_states", 200_000, minimum=1),
    )


def parse_task(payload: object, algorithm: Optional[str] = None):
    """Validate one campaign-task payload into a picklable ``CampaignTask``.

    ``algorithm`` (a registry name) supplies the campaign-level default so
    task entries in a ``{"tasks": [...]}`` submission may omit it.
    """
    from .campaign import CampaignTask  # local import: campaign imports this module

    if not isinstance(payload, dict):
        raise SpecError("tasks", f"each task must be a JSON object, got {type(payload).__name__}")
    if "algorithm" not in payload and algorithm is not None:
        payload = dict(payload, algorithm=algorithm)
    resolved = _resolve_algorithm(payload)
    m, n = _grid_fields(payload, resolved)
    model = _model_field(payload)
    kind = _field(payload, "kind", "walk")
    if kind not in ("walk", "check"):
        raise SpecError("kind", f"'kind' must be 'walk' or 'check', got {kind!r}")
    if kind == "check":
        return CampaignTask(
            algorithm=resolved,
            m=m,
            n=n,
            model=model,
            kind="check",
            reduction=_reduction_field(payload),
            max_states=_int_field(payload, "max_states", 200_000, minimum=1),
        )
    tie_break = _field(payload, "tie_break", TieBreak.ERROR)
    if tie_break not in TieBreak.ALL:
        raise SpecError("tie_break", f"'tie_break' must be one of {TieBreak.ALL}, got {tie_break!r}")
    return CampaignTask(
        algorithm=resolved,
        m=m,
        n=n,
        model=model,
        seed=_int_field(payload, "seed", None),
        tie_break=tie_break,
        max_steps=_int_field(payload, "max_steps", None, minimum=1),
    )


def _sizes_field(payload: dict) -> Optional[List[Tuple[int, int]]]:
    sizes = _field(payload, "sizes", None)
    if sizes is None:
        return None
    if not isinstance(sizes, (list, tuple)):
        raise SpecError("sizes", f"'sizes' must be a list of [m, n] pairs, got {sizes!r}")
    parsed = []
    for entry in sizes:
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not all(isinstance(side, int) and not isinstance(side, bool) for side in entry)
        ):
            raise SpecError("sizes", f"each size must be an [m, n] integer pair, got {entry!r}")
        parsed.append((entry[0], entry[1]))
    return parsed


def _seeds_field(payload: dict, default: Tuple[int, ...]) -> Tuple[int, ...]:
    seeds = _field(payload, "seeds", None)
    if seeds is None:
        return default
    if not isinstance(seeds, (list, tuple)) or not seeds or not all(
        isinstance(seed, int) and not isinstance(seed, bool) for seed in seeds
    ):
        raise SpecError("seeds", f"'seeds' must be a non-empty list of integers, got {seeds!r}")
    return tuple(seeds)


#: Campaign shapes a ``POST /v1/campaigns`` payload may name.
CAMPAIGN_KINDS = ("grid_sweep", "stress_test", "exhaustive_sweep", "verify_algorithm", "tasks")

#: The most tasks one campaign submission may resolve to.  Sizes, models
#: and seeds multiply, and duplicates are allowed, so a small body could
#: otherwise ask for billions of tasks.
MAX_CAMPAIGN_TASKS = 10_000


def _bound_task_count(count: int) -> None:
    if count > MAX_CAMPAIGN_TASKS:
        raise SpecError(
            "tasks", f"campaign resolves to {count} tasks; at most {MAX_CAMPAIGN_TASKS} are allowed"
        )


def parse_campaign(payload: object) -> Tuple[Algorithm, List[object]]:
    """Validate a campaign submission into ``(algorithm, task_list)``.

    The payload either carries an explicit ``"tasks"`` list (each entry a
    task payload for :func:`parse_task`) or names one of the campaign
    shapes — ``grid_sweep`` / ``stress_test`` / ``exhaustive_sweep`` /
    ``verify_algorithm`` — whose task lists are built by the *same*
    builders the library campaigns use, so an HTTP submission and a
    library call with equal parameters produce equal task lists (and so
    equal store keys and campaign ids).  The task count is computed
    before any task is built, and more than :data:`MAX_CAMPAIGN_TASKS`
    raise :class:`SpecError` naming ``tasks``.
    """
    from .campaign import (  # local import: campaign imports this module
        STRESS_MODELS,
        STRESS_SEEDS,
        VERIFY_SEEDS,
        exhaustive_check_tasks,
        grid_sweep_tasks,
        shape_sizes,
        stress_test_tasks,
    )

    if not isinstance(payload, dict):
        raise SpecError("body", f"request body must be a JSON object, got {type(payload).__name__}")
    algorithm = _resolve_algorithm(payload)
    if "tasks" in payload:
        entries = payload["tasks"]
        if not isinstance(entries, list) or not entries:
            raise SpecError("tasks", "'tasks' must be a non-empty list of task objects")
        _bound_task_count(len(entries))
        return algorithm, [parse_task(entry, algorithm.name) for entry in entries]
    kind = _field(payload, "campaign", "grid_sweep")
    if kind not in CAMPAIGN_KINDS:
        raise SpecError("campaign", f"'campaign' must be one of {CAMPAIGN_KINDS}, got {kind!r}")
    sizes = _sizes_field(payload)
    if kind == "grid_sweep":
        model, seed = _model_field(payload), _int_field(payload, "seed", None)
        _bound_task_count(len(shape_sizes(kind, algorithm, sizes)))
        tasks = grid_sweep_tasks(algorithm, sizes=sizes, model=model, seed=seed)
    elif kind == "stress_test":
        models = _field(payload, "models", STRESS_MODELS)
        if not isinstance(models, (list, tuple)) or not models or not all(
            isinstance(model, str) and model.upper() in MODELS for model in models
        ):
            raise SpecError("models", f"'models' must be a non-empty list drawn from {MODELS}, got {models!r}")
        models = tuple(model.upper() for model in models)
        seeds = _seeds_field(payload, STRESS_SEEDS)
        _bound_task_count(len(shape_sizes(kind, algorithm, sizes)) * len(models) * len(seeds))
        tasks = stress_test_tasks(algorithm, sizes=sizes, models=models, seeds=seeds)
    elif kind == "exhaustive_sweep":
        model, reduction = _model_field(payload), _reduction_field(payload)
        max_states = _int_field(payload, "max_states", 200_000, minimum=1)
        _bound_task_count(len(shape_sizes(kind, algorithm, sizes)))
        tasks = exhaustive_check_tasks(
            algorithm, sizes=sizes, model=model, reduction=reduction, max_states=max_states,
        )
    else:  # verify_algorithm: the FSYNC sweep, plus SSYNC and ASYNC stress runs if ASYNC
        count, seeds = len(shape_sizes("grid_sweep", algorithm, sizes)), None
        if algorithm.synchrony == "ASYNC":
            seeds = _seeds_field(payload, VERIFY_SEEDS)
            count += len(shape_sizes("stress_test", algorithm, sizes)) * len(STRESS_MODELS) * len(seeds)
        _bound_task_count(count)
        tasks = grid_sweep_tasks(algorithm, sizes=sizes, model="FSYNC")
        if seeds is not None:
            tasks.extend(stress_test_tasks(algorithm, sizes=sizes, seeds=seeds))
    if not tasks:
        raise SpecError("sizes", "campaign resolved to zero tasks (no supported grid sizes)")
    return algorithm, tasks


def campaign_id(algorithm: Algorithm, tasks) -> str:
    """The content-addressed id of a campaign submission.

    A hash of the campaign algorithm's name and digest and of the resolved
    task list (each task's algorithm enters through its ``repr``, again as
    name and digest), so equal submissions — before or after a server
    restart — map to the same id and the same task keys, so a resubmission
    is served from the verdict store.  16 hex chars: collision-safe for
    any plausible number of campaigns, short enough for URLs and logs.
    """
    return content_key(("campaign", algorithm.name, algorithm.digest, tuple(tasks)))[:16]


# ---------------------------------------------------------------------------
# Wire forms
# ---------------------------------------------------------------------------
def canonical_json(value: object) -> str:
    """The deterministic JSON encoding byte-parity comparisons use."""
    import json

    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def result_payload(result) -> Dict[str, object]:
    """Split a result dataclass into ``verdict`` and ``observability``.

    ``verdict`` carries exactly the ``compare=True`` fields (plus the
    computed ``ok`` flag) — the part promised byte-identical across
    routes, reductions, caches and restarts.  ``observability``
    carries the ``compare=False`` channels (``store_stats``,
    ``matcher_stats``, ``reduction_stats``, ``profile``) that legitimately
    vary with cache warmth.
    """
    verdict: Dict[str, object] = {}
    observability: Dict[str, object] = {}
    for field in dataclasses.fields(result):
        value = getattr(result, field.name)
        (verdict if field.compare else observability)[field.name] = value
    verdict["ok"] = result.ok
    return {"verdict": verdict, "observability": observability}
