"""The spec module: one spelling of every store key, validated wire forms.

The load-bearing property is key *identity*: the key a payload parses to
must equal the key the library route builds internally — otherwise the
HTTP cache and the library cache silently fork.  These tests pin that by
round-tripping specs through both routes and comparing the stored bytes.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.algorithms import registry
from repro.core.grid import Grid
from repro.checking.model_checker import check_terminating_exploration
from repro import verification
from repro.engine import spec as spec_module
from repro.engine.campaign import (
    CampaignTask,
    ParallelCampaignEngine,
    exhaustive_check_tasks,
    grid_sweep_tasks,
    stress_test_tasks,
)
from repro.engine.store import content_key
from repro.engine.spec import (
    MAX_CAMPAIGN_TASKS,
    CheckSpec,
    SpecError,
    campaign_id,
    canonical_json,
    check_store_key,
    parse_campaign,
    parse_check_spec,
    parse_task,
    result_payload,
    task_store_key,
)
from repro.engine.store import VerdictStore

ALGORITHM = "fsync_phi2_l2_chir_k2"
#: The registered algorithm ``ALGORITHM`` names; store keys address it by
#: name and content digest.
REGISTERED = registry.get(ALGORITHM)


def spec_payload(**overrides):
    payload = {"algorithm": ALGORITHM, "m": 3, "n": 3, "model": "FSYNC", "reduction": "grid"}
    payload.update(overrides)
    return payload


# ---------------------------------------------------------------------------
# Key identity across routes
# ---------------------------------------------------------------------------
class TestKeyIdentity:
    def test_parsed_check_key_is_a_store_hit_for_the_library_route(self):
        """A check cached via the library is warm for the parsed HTTP key."""
        store = VerdictStore()
        algorithm = registry.get(ALGORITHM)
        check_terminating_exploration(
            algorithm, Grid(3, 3), model="FSYNC", reduction="grid", store=store
        )
        assert store.stats["misses"] >= 1
        spec = parse_check_spec(spec_payload())
        assert store.get(spec.check_key()) is not None
        assert store.stats["hits"] == 1

    def test_key_builders_normalize_spec_spellings(self):
        """Spelling variants of one spec address one key."""
        canonical = check_store_key(REGISTERED, 3, 3, "FSYNC", "grid")
        assert check_store_key(REGISTERED, 3, 3, "FSYNC", " GRID ") == canonical
        assert parse_check_spec(spec_payload(reduction="Grid")).check_key() == canonical
        unreduced = check_store_key(REGISTERED, 3, 3, "FSYNC", "none")
        assert check_store_key(REGISTERED, 3, 3, "FSYNC", None) == unreduced
        assert check_store_key(REGISTERED, 3, 3, "FSYNC", "") == unreduced

    def test_walk_key_normalizes_default_seed_like_execution(self):
        explicit = task_store_key(CampaignTask(REGISTERED, 3, 3, "SSYNC", seed=0))
        assert task_store_key(CampaignTask(REGISTERED, 3, 3, "SSYNC", seed=None)) == explicit

    def test_max_states_is_part_of_the_key(self):
        roomy = check_store_key(REGISTERED, 3, 3, "FSYNC", "grid", max_states=200_000)
        tight = check_store_key(REGISTERED, 3, 3, "FSYNC", "grid", max_states=50)
        assert roomy != tight


def test_store_keys_and_campaign_id_are_pinned():
    """Full keys of one spec under both reductions, a walk task, and one campaign id.

    Warm verdict stores and campaign journals are addressed by these
    hashes, so they may only move in a change that means to orphan every
    stored record, and says so.
    """
    pinned = {
        "grid": (
            "c56bc739be2c8a78dbcd5a777899ca72dc5e3c2ee73f271632898ace338557b6",
            "62f9dd921926c548d398e46b8b0c9799ca8d0e94641af6a59efc3638260aebc2",
        ),
        "none": (
            "76dba66ae42e231e29da3c7a49cf95b6ac0fa94de6b73b4c4a43d7b8fb41e507",
            "ef4705217ce5a2851bc5191fb55d385f2e6ef115b0cc286b153e821a55afafe2",
        ),
    }
    for reduction, (check_key, task_key) in pinned.items():
        case = (REGISTERED, 3, 3, "FSYNC", reduction)
        assert content_key(check_store_key(*case)) == check_key
        check = CampaignTask(REGISTERED, 3, 3, "FSYNC", kind="check", reduction=reduction)
        assert content_key(task_store_key(check)) == task_key
    walk = CampaignTask(REGISTERED, 3, 3, "SSYNC", seed=7, tie_break="first", max_steps=50)
    assert content_key(task_store_key(walk)) == (
        "75ba37ccfaf347d0f2468072e87477f98d439c628314407742187594fb8b97dc"
    )
    name, tasks = parse_campaign(
        {"algorithm": ALGORITHM, "campaign": "exhaustive_sweep", "sizes": [[3, 3], [3, 4]]}
    )
    assert campaign_id(name, tasks) == "fc9ff762d932a8cc"


# ---------------------------------------------------------------------------
# Validation: SpecError names the offending field
# ---------------------------------------------------------------------------
class TestValidation:
    @pytest.mark.parametrize(
        ("payload", "field"),
        [
            ("not an object", "body"),
            ({}, "algorithm"),
            ({"algorithm": "no_such_algorithm", "m": 3, "n": 3}, "algorithm"),
            (spec_payload(m="three"), "m"),
            (spec_payload(m=True), "m"),
            (spec_payload(m=0), "m"),
            (spec_payload(n=None), "n"),
            (spec_payload(m=1, n=1), "grid"),
            (spec_payload(model="WARP"), "model"),
            (spec_payload(reduction="grid+magic"), "reduction"),
            (spec_payload(reduction="color"), "reduction"),
            (spec_payload(reduction="por"), "reduction"),
            (spec_payload(reduction="grid+color"), "reduction"),
            (spec_payload(reduction="grid+por"), "reduction"),
            (spec_payload(reduction="grid+color+por"), "reduction"),
            (spec_payload(max_states=0), "max_states"),
            (spec_payload(max_states=2.5), "max_states"),
        ],
    )
    def test_bad_check_specs_name_their_field(self, payload, field):
        with pytest.raises(SpecError) as excinfo:
            parse_check_spec(payload)
        assert excinfo.value.field == field
        assert excinfo.value.as_dict()["field"] == field

    def test_valid_spec_is_normalized(self):
        spec = parse_check_spec(spec_payload(model="fsync", reduction=" GRID "))
        assert spec.model == "FSYNC"
        assert spec.reduction == "grid"
        assert spec.max_states == 200_000
        # Unrecognised keys, such as the retired "kernel", are ignored.
        retired = {**spec_payload(), "kernel": "packed"}
        assert parse_check_spec(retired) == parse_check_spec(spec_payload())
        assert isinstance(spec, CheckSpec)

    @pytest.mark.parametrize(
        ("payload", "field"),
        [
            ({"algorithm": ALGORITHM, "campaign": "moon_shot"}, "campaign"),
            ({"algorithm": ALGORITHM, "sizes": [[3]]}, "sizes"),
            ({"algorithm": ALGORITHM, "sizes": "3x3"}, "sizes"),
            ({"algorithm": ALGORITHM, "campaign": "stress_test", "models": ["WARP"]}, "models"),
            ({"algorithm": ALGORITHM, "campaign": "stress_test", "seeds": ["a"]}, "seeds"),
            ({"algorithm": ALGORITHM, "tasks": []}, "tasks"),
            ({"algorithm": ALGORITHM, "tasks": ["walk"]}, "tasks"),
            ({"algorithm": ALGORITHM, "tasks": [{"m": 3, "n": 3, "kind": "fly"}]}, "kind"),
            (
                {"algorithm": ALGORITHM, "tasks": [{"m": 3, "n": 3, "tie_break": "coin"}]},
                "tie_break",
            ),
        ],
    )
    def test_bad_campaigns_name_their_field(self, payload, field):
        with pytest.raises(SpecError) as excinfo:
            parse_campaign(payload)
        assert excinfo.value.field == field

    @pytest.mark.parametrize(
        ("payload", "field"),
        [
            ({"campaign": "stress_test", "seeds": []}, "seeds"),
            ({"campaign": "stress_test", "models": []}, "models"),
            ({"campaign": "verify_algorithm", "seeds": []}, "seeds"),
        ],
    )
    def test_empty_seeds_or_models_name_their_field(self, payload, field):
        # An empty list resolves to zero tasks; the error must name the
        # empty field, not "sizes".
        with pytest.raises(SpecError) as excinfo:
            parse_campaign({"algorithm": "async_phi2_l3_chir_k2", **payload})
        assert excinfo.value.field == field

    def test_campaigns_past_the_task_bound_are_refused_naming_tasks(self):
        # 51 sizes x 2 models x 100 seeds = 10,200 tasks, and 10,001 entries:
        # both are refused before any task is built.
        stress = {"campaign": "stress_test", "sizes": [[3, 4]] * 51, "seeds": list(range(100))}
        listed = {"tasks": [{"m": 3, "n": 3}] * (MAX_CAMPAIGN_TASKS + 1)}
        for payload in (stress, listed):
            with pytest.raises(SpecError, match="10,?[0-9]{3} tasks") as excinfo:
                parse_campaign({"algorithm": ALGORITHM, **payload})
            assert excinfo.value.field == "tasks"

    def test_the_bound_counts_the_default_sizes_like_the_builder(self):
        sizes = len(stress_test_tasks(REGISTERED, models=("SSYNC",), seeds=(0,)))
        seeds = MAX_CAMPAIGN_TASKS // (2 * sizes)
        payload = {"algorithm": ALGORITHM, "campaign": "stress_test", "seeds": list(range(seeds))}
        _, tasks = parse_campaign(payload)
        assert len(tasks) == 2 * sizes * seeds
        with pytest.raises(SpecError, match="tasks"):
            parse_campaign({**payload, "seeds": list(range(seeds + 1))})

    def test_task_entries_inherit_the_campaign_algorithm(self):
        task = parse_task({"m": 3, "n": 3, "kind": "check"}, ALGORITHM)
        assert task.algorithm is REGISTERED
        assert task.kind == "check"


# ---------------------------------------------------------------------------
# Campaign resolution and ids
# ---------------------------------------------------------------------------
class TestCampaigns:
    def test_named_campaign_matches_the_library_builder(self):
        """An HTTP grid_sweep resolves to the library's own task list."""
        algorithm = registry.get(ALGORITHM)
        parsed, tasks = parse_campaign(
            {"algorithm": ALGORITHM, "campaign": "grid_sweep", "sizes": [[2, 3], [3, 3]]}
        )
        assert parsed is algorithm
        assert tasks == grid_sweep_tasks(algorithm, sizes=[(2, 3), (3, 3)], model="FSYNC")

    def test_exhaustive_sweep_matches_the_library_builder(self):
        algorithm = registry.get(ALGORITHM)
        _, tasks = parse_campaign(
            {
                "algorithm": ALGORITHM,
                "campaign": "exhaustive_sweep",
                "sizes": [[3, 3]],
                "reduction": "grid",
            }
        )
        assert tasks == exhaustive_check_tasks(
            algorithm, sizes=[(3, 3)], model="FSYNC", reduction="grid"
        )

    @pytest.mark.parametrize("shape", ["stress_test", "verify_algorithm"])
    def test_default_shapes_match_the_library_calls(self, shape, monkeypatch):
        """With no seeds or models, the HTTP shape builds and counts the library call's tasks."""
        name = "async_phi2_l3_chir_k2"
        algorithm = registry.get(name)
        library = []

        def capture(engine, tasks):
            library.extend(tasks)
            return []

        monkeypatch.setattr(ParallelCampaignEngine, "run_tasks", capture)
        getattr(verification, shape)(algorithm)
        counted = []
        monkeypatch.setattr(spec_module, "_bound_task_count", counted.append)
        parsed, tasks = parse_campaign({"algorithm": name, "campaign": shape})
        assert tasks == library
        assert campaign_id(parsed, tasks) == campaign_id(algorithm, library)
        assert counted == [len(tasks)]

    def test_campaign_id_is_content_addressed(self):
        """Equal submissions (across processes/restarts) share one id."""
        _, tasks_a = parse_campaign({"algorithm": ALGORITHM, "sizes": [[2, 3], [3, 3]]})
        _, tasks_b = parse_campaign({"algorithm": ALGORITHM, "sizes": [[2, 3], [3, 3]]})
        assert campaign_id(REGISTERED, tasks_a) == campaign_id(REGISTERED, tasks_b)
        _, other = parse_campaign({"algorithm": ALGORITHM, "sizes": [[3, 3]]})
        assert campaign_id(REGISTERED, other) != campaign_id(REGISTERED, tasks_a)
        assert campaign_id(REGISTERED, tasks_a) == content_key(
            ("campaign", ALGORITHM, REGISTERED.digest, tuple(tasks_a))
        )[:16]


# ---------------------------------------------------------------------------
# Wire forms
# ---------------------------------------------------------------------------
class TestWireForms:
    def test_result_payload_splits_fields_by_compare(self):
        result = check_terminating_exploration(
            registry.get(ALGORITHM), Grid(3, 3), model="FSYNC", reduction="grid"
        )
        payload = result_payload(result)
        compare_fields = {f.name for f in dataclasses.fields(result) if f.compare}
        assert set(payload["verdict"]) == compare_fields | {"ok"}
        assert set(payload["observability"]) == {
            f.name for f in dataclasses.fields(result) if not f.compare
        }
        assert payload["verdict"]["ok"] is True

    def test_verdict_half_is_route_independent(self):
        """Cold vs store-warm results serialize to identical verdict bytes."""
        store = VerdictStore()
        algorithm = registry.get(ALGORITHM)
        kwargs = dict(model="FSYNC", reduction="grid")
        cold = check_terminating_exploration(algorithm, Grid(3, 3), store=store, **kwargs)
        warm = check_terminating_exploration(algorithm, Grid(3, 3), store=store, **kwargs)
        assert warm.store_stats["outcome"] == "hit"
        assert canonical_json(result_payload(cold)["verdict"]) == canonical_json(
            result_payload(warm)["verdict"]
        )

    def test_canonical_json_is_deterministic(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'
