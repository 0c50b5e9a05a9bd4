"""The persistent content-addressed verdict store.

Four promises under test:

1. **Crash safety** — segments are flat sequences of CRC-framed records,
   so a writer killed mid-append leaves at worst a torn tail that the next
   open truncates away, and a record damaged in place costs only itself.
2. **Coalescing** — duplicate concurrent requests for one key trigger
   exactly one computation; the duplicates share the leader's result
   (or exception) and count on the ``coalesced`` counter.
3. **Parity** — a verdict served from the store compares equal to a
   freshly computed one, on every route (serial, pooled),
   across the shared reduction-parity suite, and each request stores
   exactly one record: its verdict.
4. **Bounds** — the in-memory index is LRU-bounded, and on-disk bloat
   triggers compaction that preserves the live entries.
"""

from __future__ import annotations

import struct
import threading
import zlib
from dataclasses import replace
from functools import partial

import pytest

from repro.algorithms import get
from repro.core import Grid
from repro.engine import PoolBackend, SerialBackend, VerdictStore
from repro.engine.campaign import (
    CampaignTask,
    ParallelCampaignEngine,
    VerificationReport,
    exhaustive_check_tasks,
    grid_sweep_tasks,
)
from repro.engine.matcher import MatcherCache
from repro.engine.spec import check_store_key, task_store_key
from repro.engine.store import COALESCED, HIT, MISS, RECORD_HEADER, iter_records, pack_record
from repro.engine.suites import reduction_parity_suite
from repro.checking import CheckResult, check_terminating_exploration

ALGORITHM = "fsync_phi2_l2_chir_k2"


def write_six(root):
    """Six ``key-i -> value-i`` records in ``root/store``; returns their segment."""
    with VerdictStore(root / "store") as written:
        for i in range(1, 7):
            written.put(f"key-{i}", f"value-{i}")
    return root / "store" / "seg-0.log"


def record_span(data, number):
    """``(start, end)`` byte offsets of the ``number``-th record (1-based)."""
    end = 0
    for _ in range(number):
        start = end
        (length,) = struct.unpack_from("!I", data, start)
        end = start + RECORD_HEADER.size + length
    return start, end


# ---------------------------------------------------------------------------
# Record format and crash safety
# ---------------------------------------------------------------------------
class TestDurability:
    def test_roundtrip_across_reopen(self, tmp_path):
        path = tmp_path / "store"
        with VerdictStore(path) as store:
            store.put(("spec", 1), {"verdict": "a"})
            store.put(("spec", 2), {"verdict": "b"})
        with VerdictStore(path) as reopened:
            assert len(reopened) == 2
            assert reopened.get(("spec", 1)) == {"verdict": "a"}
            assert reopened.get(("spec", 2)) == {"verdict": "b"}

    def test_last_write_wins_on_duplicate_keys(self, tmp_path):
        path = tmp_path / "store"
        with VerdictStore(path) as store:
            store.put("key", "stale")
            store.put("key", "fresh")
        with VerdictStore(path) as reopened:
            assert reopened.get("key") == "fresh"

    def test_torn_tail_truncated_on_reopen(self, tmp_path):
        path = tmp_path / "store"
        with VerdictStore(path) as store:
            store.put("key-1", "value-1")
            store.put("key-2", "value-2")
            segment = store._segments()[-1]
        # A writer killed mid-append leaves a partial record: a full
        # header promising more body bytes than were ever written.
        intact = segment.read_bytes()
        with open(segment, "ab") as handle:
            handle.write(RECORD_HEADER.pack(1 << 20, 0) + b"partial body")
        with VerdictStore(path) as recovered:
            assert recovered.recovered_bytes == RECORD_HEADER.size + len(b"partial body")
            assert recovered.get("key-1") == "value-1"
            assert recovered.get("key-2") == "value-2"
            assert segment.read_bytes() == intact  # tail gone, records kept

    @pytest.mark.parametrize("damaged", [1, 3, 6], ids=["first", "middle", "last"])
    def test_flipped_bit_costs_only_its_own_record(self, tmp_path, damaged):
        path = write_six(tmp_path)
        data = bytearray(path.read_bytes())
        start, _ = record_span(data, damaged)
        data[start + RECORD_HEADER.size + 2] ^= 0x01  # one bit inside the body
        path.write_bytes(bytes(data))
        with VerdictStore(tmp_path / "store") as recovered:
            assert len(recovered) == 5
            for i in range(1, 7):
                expected = None if i == damaged else f"value-{i}"
                assert recovered.get(f"key-{i}") == expected
            assert recovered.corrupt_records == 1
            assert recovered.recovered_bytes == 0
        assert path.read_bytes() == bytes(data)  # nothing truncated

    def test_unloadable_pickle_costs_only_its_own_record(self, tmp_path):
        path = write_six(tmp_path)
        data = path.read_bytes()
        start, end = record_span(data, 3)
        body = b"not a pickle"  # CRC-valid, but no longer unpickles
        damaged = data[:start] + RECORD_HEADER.pack(len(body), zlib.crc32(body)) + body + data[end:]
        path.write_bytes(damaged)
        with VerdictStore(tmp_path / "store") as recovered:
            assert len(recovered) == 5
            assert recovered.get("key-3") is None
            assert recovered.get("key-4") == "value-4"
            assert recovered.corrupt_records == 1
            assert recovered.recovered_bytes == 0
        assert path.read_bytes() == damaged

    def test_damage_without_a_valid_successor_truncates(self, tmp_path):
        # Records 3 and 4 both fail their CRC: nothing confirms that record
        # 3's length field still frames the file, so replay stops there.
        path = write_six(tmp_path)
        data = bytearray(path.read_bytes())
        for number in (3, 4):
            start, _ = record_span(data, number)
            data[start + RECORD_HEADER.size + 2] ^= 0x01
        path.write_bytes(bytes(data))
        kept, _ = record_span(data, 3)
        with VerdictStore(tmp_path / "store") as recovered:
            assert len(recovered) == 2
            assert recovered.get("key-2") == "value-2"
            assert recovered.get("key-5") is None
            assert recovered.recovered_bytes == len(data) - kept
        assert path.read_bytes() == bytes(data[:kept])

    def test_separated_damage_costs_only_the_damaged_records(self, tmp_path):
        path = write_six(tmp_path)
        data = bytearray(path.read_bytes())
        for number in (2, 5):  # each is followed by an intact record
            start, _ = record_span(data, number)
            data[start + RECORD_HEADER.size + 2] ^= 0x01
        path.write_bytes(bytes(data))
        with VerdictStore(tmp_path / "store") as recovered:
            assert [recovered.get(f"key-{i}") for i in range(1, 7)] == [
                "value-1", None, "value-3", "value-4", None, "value-6"
            ]
            assert recovered.corrupt_records == 2
            assert recovered.recovered_bytes == 0
        assert path.read_bytes() == bytes(data)

    def test_damage_in_an_older_segment_leaves_the_active_one_appendable(self, tmp_path):
        path = tmp_path / "store"
        with VerdictStore(path, segment_records=3) as store:
            for i in range(1, 7):
                store.put(f"key-{i}", f"value-{i}")
            older = store._segments()[0]
        data = bytearray(older.read_bytes())
        start, _ = record_span(data, 2)
        data[start + RECORD_HEADER.size + 2] ^= 0x01
        older.write_bytes(bytes(data))
        with VerdictStore(path, segment_records=3) as recovered:
            assert recovered.corrupt_records == 1
            assert recovered.get("key-2") is None
            assert recovered.get("key-6") == "value-6"
            recovered.put("key-2", "rewritten")
        assert older.read_bytes() == bytes(data)  # skipped, not truncated
        with VerdictStore(path) as reopened:
            assert reopened.get("key-2") == "rewritten"
            assert len(reopened) == 6

    def test_flipped_length_field_truncates_at_its_record(self, tmp_path):
        # A damaged length field misframes everything after it: replay
        # keeps the records before it and truncates from there on.
        path = write_six(tmp_path)
        data = bytearray(path.read_bytes())
        start, _ = record_span(data, 4)
        data[start + 3] ^= 0x01  # lowest byte of record 4's length
        path.write_bytes(bytes(data))
        with VerdictStore(tmp_path / "store") as recovered:
            assert len(recovered) == 3
            assert recovered.get("key-3") == "value-3"
            assert recovered.recovered_bytes == len(data) - start
        assert path.read_bytes() == bytes(data[:start])

    def test_skipped_record_can_be_written_again(self, tmp_path):
        path = write_six(tmp_path)
        data = bytearray(path.read_bytes())
        start, _ = record_span(data, 3)
        data[start + RECORD_HEADER.size + 2] ^= 0x01
        path.write_bytes(bytes(data))
        with VerdictStore(tmp_path / "store") as recovered:
            recovered.put("key-3", "rewritten")  # appended after key-6
        with VerdictStore(tmp_path / "store") as reopened:
            assert len(reopened) == 6
            assert reopened.get("key-3") == "rewritten"
            assert reopened.get("key-6") == "value-6"
            assert reopened.corrupt_records == 1  # the damaged bytes remain

    def test_compaction_drops_damaged_records(self, tmp_path):
        path = write_six(tmp_path)
        data = bytearray(path.read_bytes())
        start, _ = record_span(data, 3)
        data[start + RECORD_HEADER.size + 2] ^= 0x01
        path.write_bytes(bytes(data))
        # Seven records on disk after the next append, six of them live:
        # past the 1.0 compaction factor, so that append compacts.
        with VerdictStore(tmp_path / "store", compact_factor=1.0, segment_records=2) as store:
            assert store.corrupt_records == 1
            store.put("key-7", "value-7")
            assert store.compactions == 1
        with VerdictStore(tmp_path / "store") as reopened:
            assert reopened.corrupt_records == 0
            assert reopened.stats["disk_records"] == len(reopened) == 6
            assert reopened.get("key-3") is None
            assert [reopened.get(f"key-{i}") for i in (1, 2, 4, 5, 6, 7)] == [
                f"value-{i}" for i in (1, 2, 4, 5, 6, 7)
            ]

    def test_corrupt_records_surface_in_stats(self, tmp_path):
        path = write_six(tmp_path)
        data = bytearray(path.read_bytes())
        start, _ = record_span(data, 2)
        data[start + RECORD_HEADER.size + 2] ^= 0x01
        path.write_bytes(bytes(data))
        with VerdictStore(tmp_path / "store") as recovered:
            assert recovered.stats["corrupt_records"] == 1
            assert recovered.stats["entries"] == 5

    def test_kill_mid_append_then_reopen_and_continue(self, tmp_path):
        """A simulated kill -9 mid-append: reopen, recover, keep writing."""
        path = tmp_path / "store"
        store = VerdictStore(path)
        store.put("survivor", "ok")
        # Die mid-write: half a record hits the active segment and the
        # process never comes back to finish or close it.
        record = pack_record("casualty", "lost")
        store._file.write(record[: len(record) // 2])
        store._file.flush()
        # The process never finishes the record; only its handle goes away,
        # as the OS closes a killed process's files.  The torn tail stays.
        store._file.close()
        del store

        with VerdictStore(path) as recovered:
            assert recovered.recovered_bytes == len(record) // 2
            assert recovered.get("survivor") == "ok"
            assert recovered.get("casualty") is None
            recovered.put("casualty", "rewritten")  # appends still work
        with VerdictStore(path) as again:
            assert again.get("casualty") == "rewritten"

    def test_stray_segment_lookalikes_are_ignored_and_kept(self, tmp_path):
        """Only ``seg-<n>.log`` is a segment; other ``seg-*`` files are not ours."""
        path = tmp_path / "store"
        with VerdictStore(path) as store:
            store.put("key-1", "value-1")
            store.put("key-2", "value-2")
        strays = {
            path / "seg-0.log.bak": b"a backup someone made",
            path / "seg-notes.txt": b"notes",
            path / "seg-.log": b"",
        }
        for stray, content in strays.items():
            stray.write_bytes(content)
        with VerdictStore(path, max_entries=2, segment_records=1) as reopened:
            assert reopened.get("key-1") == "value-1"
            assert reopened.get("key-2") == "value-2"
            assert reopened.recovered_bytes == 0
            for i in range(6):  # bloat the disk until compaction runs
                reopened.put("key-1", i)
            assert reopened.compactions > 0
        for stray, content in strays.items():
            assert stray.read_bytes() == content
        with VerdictStore(path) as again:
            assert again.get("key-1") == 5

    def test_in_memory_store_needs_no_disk(self):
        store = VerdictStore()
        store.put("key", "value")
        assert store.get("key") == "value"
        assert store.stats["disk_records"] == 0


# ---------------------------------------------------------------------------
# Bounds: LRU index and segment compaction
# ---------------------------------------------------------------------------
class TestBounds:
    def test_lru_eviction_counts_and_bounds_the_index(self):
        store = VerdictStore(max_entries=3)
        for i in range(5):
            store.put(("spec", i), i)
        assert len(store) == 3
        assert store.evictions == 2
        assert store.get(("spec", 0)) is None  # oldest went first
        assert store.get(("spec", 4)) == 4

    def test_hits_refresh_recency(self):
        store = VerdictStore(max_entries=2)
        store.put("a", 1)
        store.put("b", 2)
        assert store.get("a") == 1  # touch: "b" is now the LRU entry
        store.put("c", 3)
        assert store.get("a") == 1
        assert store.get("b") is None

    def test_compaction_drops_stale_records_and_keeps_live_ones(self, tmp_path):
        path = tmp_path / "store"
        with VerdictStore(path, max_entries=4, segment_records=4) as store:
            # Rewrite the same four keys many times: disk bloats with
            # stale duplicates until compaction rewrites the live index.
            for round_ in range(8):
                for i in range(4):
                    store.put(("spec", i), (round_, i))
            assert store.compactions > 0
            assert store.stats["disk_records"] <= max(
                store.compact_factor * len(store), store.segment_records
            ) + len(store)
        with VerdictStore(path) as reopened:
            assert {reopened.get(("spec", i)) for i in range(4)} == {(7, i) for i in range(4)}


# ---------------------------------------------------------------------------
# Coalescing
# ---------------------------------------------------------------------------
class TestCoalescing:
    def test_duplicate_concurrent_requests_compute_once(self):
        store = VerdictStore()
        started, release = threading.Event(), threading.Event()
        calls = []

        def compute():
            calls.append(1)
            started.set()
            assert release.wait(timeout=30)
            return "verdict"

        outcomes = {}

        def request(slot):
            outcomes[slot] = store.get_or_compute("key", compute)

        leader = threading.Thread(target=request, args=("leader",))
        leader.start()
        assert started.wait(timeout=30)
        follower = threading.Thread(target=request, args=("follower",))
        follower.start()
        # The follower registers as a waiter (counting ``coalesced``)
        # before it blocks; only then is the leader released.
        for _ in range(10_000):
            if store.coalesced:
                break
            threading.Event().wait(0.001)
        assert store.coalesced == 1
        release.set()
        leader.join(timeout=30)
        follower.join(timeout=30)
        assert len(calls) == 1
        assert outcomes["leader"] == ("verdict", MISS)
        assert outcomes["follower"] == ("verdict", COALESCED)
        assert store.get_or_compute("key", compute) == ("verdict", HIT)
        assert len(calls) == 1

    def test_leader_exception_propagates_and_caches_nothing(self):
        store = VerdictStore()
        started, release = threading.Event(), threading.Event()

        def explode():
            started.set()
            assert release.wait(timeout=30)
            raise RuntimeError("exploration failed")

        errors = []

        def request():
            try:
                store.get_or_compute("key", explode)
            except RuntimeError as exc:
                errors.append(str(exc))

        threads = [threading.Thread(target=request) for _ in range(2)]
        threads[0].start()
        assert started.wait(timeout=30)
        threads[1].start()
        for _ in range(10_000):
            if store.coalesced:
                break
            threading.Event().wait(0.001)
        release.set()
        for thread in threads:
            thread.join(timeout=30)
        assert errors == ["exploration failed"] * 2
        assert "key" not in store  # failures are never recorded
        assert store.get_or_compute("key", lambda: "retried") == ("retried", MISS)

    def test_concurrent_explorations_coalesce_to_one(self, monkeypatch):
        """Two racing ``check_terminating_exploration(store=...)`` calls, one exploration."""
        from repro.checking import model_checker

        explore_sharded = model_checker.explore_sharded
        started, release = threading.Event(), threading.Event()
        calls = []

        def gated_explore(*args, **kwargs):
            calls.append(1)
            started.set()
            assert release.wait(timeout=60)
            return explore_sharded(*args, **kwargs)

        monkeypatch.setattr(model_checker, "explore_sharded", gated_explore)
        store = VerdictStore()
        algorithm, grid = get(ALGORITHM), Grid(3, 3)
        results = {}

        def request(slot):
            results[slot] = check_terminating_exploration(
                algorithm, grid, model="FSYNC", reduction="grid", store=store
            )

        leader = threading.Thread(target=request, args=("leader",))
        leader.start()
        assert started.wait(timeout=60)
        follower = threading.Thread(target=request, args=("follower",))
        follower.start()
        for _ in range(60_000):
            if store.coalesced:
                break
            threading.Event().wait(0.001)
        assert store.coalesced >= 1
        release.set()
        leader.join(timeout=60)
        follower.join(timeout=60)
        assert len(calls) == 1  # exactly one exploration ran
        assert results["leader"] == results["follower"]
        outcomes = {results[slot].store_stats["outcome"] for slot in results}
        assert outcomes == {MISS, COALESCED}
        assert len(store) == 1


# ---------------------------------------------------------------------------
# Cached-vs-computed parity
# ---------------------------------------------------------------------------
class TestParity:
    def test_check_parity_across_the_reduction_suite_serial(self):
        store = VerdictStore()
        cases = reduction_parity_suite()
        for name, m, n, model in cases:
            check = partial(
                check_terminating_exploration, get(name), Grid(m, n), model=model, reduction="grid"
            )
            fresh = check()
            recorded = check(store=store)
            cached = check(store=store)
            assert recorded.store_stats["outcome"] == MISS
            assert cached.store_stats["outcome"] == HIT
            assert cached == recorded == fresh
            assert cached.reduction_stats == recorded.reduction_stats == fresh.reduction_stats
        assert len(store) == len(cases)  # one record per check

    def test_check_parity_on_the_pool_route(self):
        store = VerdictStore()
        cases = [case for case in reduction_parity_suite() if case[3] != "ASYNC"][:6]
        with PoolBackend(workers=2) as backend:
            for name, m, n, model in cases:
                check = partial(
                    check_terminating_exploration, get(name), Grid(m, n),
                    model=model, reduction="grid", backend=backend,
                )
                fresh = check()
                recorded = check(store=store)
                cached = check(store=store)
                assert cached.store_stats["outcome"] == HIT
                assert cached == recorded == fresh
                assert cached.reduction_stats == recorded.reduction_stats == fresh.reduction_stats

    def test_check_result_parity_and_cross_entry_point_sharing(self, tmp_path):
        algorithm, grid = get(ALGORITHM), Grid(3, 3)
        fresh = check_terminating_exploration(algorithm, grid, model="FSYNC", reduction="grid")
        with VerdictStore(tmp_path / "store") as store:
            recorded = check_terminating_exploration(
                algorithm, grid, model="FSYNC", reduction="grid", store=store
            )
            cached = check_terminating_exploration(
                algorithm, grid, model="FSYNC", reduction="grid", store=store
            )
        assert cached.store_stats["outcome"] == HIT
        assert replace(cached, store_stats=None) == replace(recorded, store_stats=None) == fresh

    def test_budget_tripped_verdicts_never_alias_full_ones(self):
        from repro.core.errors import StateSpaceLimitExceeded

        store = VerdictStore()
        algorithm, grid = get(ALGORITHM), Grid(3, 3)
        with pytest.raises(StateSpaceLimitExceeded):
            check_terminating_exploration(
                algorithm, grid, model="FSYNC", reduction="grid", max_states=2, store=store
            )
        assert len(store) == 0  # a tripped budget records nothing
        # A check task converts the trip into a failed report — cached under
        # a key that carries max_states, so it can never answer for the full
        # check, which runs (and passes) as its own miss.
        engine = ParallelCampaignEngine(store=store)
        starved_task = CampaignTask(algorithm, 3, 3, kind="check", max_states=2)
        (starved,) = engine.run_tasks([starved_task])
        assert not starved.ok
        (full,) = engine.run_tasks([CampaignTask(algorithm, 3, 3, kind="check")])
        assert full.ok
        assert full.store_stats["outcome"] == MISS
        assert engine.run_tasks([starved_task]) == [starved]

    def test_report_parity_on_disk_across_sessions(self, tmp_path):
        algorithm = get(ALGORITHM)
        tasks = grid_sweep_tasks(algorithm, sizes=[(3, 3), (3, 4)]) + exhaustive_check_tasks(
            algorithm, sizes=[(3, 3)]
        )
        fresh = ParallelCampaignEngine().run_tasks(tasks)
        with VerdictStore(tmp_path / "store") as store:
            recorded = ParallelCampaignEngine(store=store).run_tasks(tasks)
        # A new process opening the same directory serves every report.
        with VerdictStore(tmp_path / "store") as reopened:
            cached = ParallelCampaignEngine(store=reopened).run_tasks(tasks)
            assert all(report.store_stats["outcome"] == HIT for report in cached)
            assert reopened.misses == 0
        assert cached == recorded == fresh

    def test_walk_keys_normalize_the_default_seed(self):
        algorithm = get(ALGORITHM)
        explicit = grid_sweep_tasks(algorithm, sizes=[(3, 3)], seed=0)[0]
        defaulted = grid_sweep_tasks(algorithm, sizes=[(3, 3)])[0]
        assert task_store_key(explicit) == task_store_key(defaulted)


# ---------------------------------------------------------------------------
# One record per request: the store holds verdicts only
# ---------------------------------------------------------------------------
def run_route(route, algorithm, store):
    """Make one request on ``route``; return the keys it should store, one per verdict."""
    with (PoolBackend(workers=2) if route.startswith("pool-") else SerialBackend()) as backend:
        if route.endswith("check"):
            check_terminating_exploration(
                algorithm, Grid(3, 3), model="FSYNC", reduction="grid", backend=backend, store=store
            )
            return [check_store_key(algorithm, 3, 3, "FSYNC", "grid")]
        sizes = [(3, 3), (3, 4)]
        tasks = grid_sweep_tasks(algorithm, sizes=sizes) + exhaustive_check_tasks(algorithm, sizes=sizes)
        ParallelCampaignEngine(backend=backend, store=store).run_tasks(tasks)
        return [task_store_key(task) for task in tasks]


class TestOneRecordPerRequest:
    @pytest.mark.parametrize(
        "route", ["check", "pool-check", "campaign", "pool-campaign"]
    )
    def test_each_request_stores_its_verdict_and_nothing_else(self, tmp_path, route):
        algorithm = get(ALGORITHM)
        with VerdictStore(tmp_path / "store") as store:
            keys = run_route(route, algorithm, store)
            counts = (len(store), store.stats["misses"], store.stats["disk_records"])
            assert counts == (len(keys),) * 3
            assert all(key in store for key in keys)
            run_route(route, algorithm, store)  # the repeat is served and stores nothing
            assert (store.stats["hits"], store.stats["disk_records"]) == (len(keys), len(keys))
        values = [
            value
            for segment in (tmp_path / "store").glob("seg-*.log")
            for _, value, _ in iter_records(segment.read_bytes())
        ]
        assert len(values) == len(keys)
        assert all(isinstance(value, (CheckResult, VerificationReport)) for value in values)


# ---------------------------------------------------------------------------
# Content addressing: keys carry the algorithm's name and content digest
# ---------------------------------------------------------------------------
class TestContentAddressing:
    def test_an_edited_rule_table_is_never_answered_by_its_predecessor(self, tmp_path, monkeypatch):
        # A server restarted on an old store after a rule edit: the registry
        # now ships the edited table under the same name.
        from repro.algorithms import registry

        original = get(ALGORITHM)
        with VerdictStore(tmp_path / "store") as store:
            first = check_terminating_exploration(original, Grid(3, 3), model="FSYNC", store=store)
        assert (first.ok, first.states_explored) == (True, 7)

        edited = replace(original, rules=original.rules[:1])
        registry.all_algorithms()  # populate the registry before patching it
        monkeypatch.setitem(registry._CACHE, ALGORITHM, edited)
        with VerdictStore(tmp_path / "store") as reopened:
            second = check_terminating_exploration(
                registry.get(ALGORITHM), Grid(3, 3), model="FSYNC", store=reopened
            )
            assert second.store_stats["outcome"] == MISS
            assert (second.ok, second.states_explored) == (False, 2)
            assert second == check_terminating_exploration(edited, Grid(3, 3), model="FSYNC")
            (report,) = ParallelCampaignEngine(store=reopened).run_tasks(
                exhaustive_check_tasks(edited, sizes=[(3, 3)], reduction="none")
            )
            assert report.store_stats["outcome"] == MISS
            assert (report.ok, report.steps) == (False, 2)

    def test_an_adhoc_algorithm_is_stored_like_a_registered_one(self, tmp_path):
        from tests.engine.test_pool import _adhoc_algorithm

        adhoc = _adhoc_algorithm("adhoc_store_test")
        outcomes = []
        for _ in range(2):
            with VerdictStore(tmp_path / "store") as store:
                result = check_terminating_exploration(adhoc, Grid(1, 3), model="FSYNC", store=store)
            outcomes.append(result.store_stats["outcome"])
            assert result == check_terminating_exploration(adhoc, Grid(1, 3), model="FSYNC")
        assert outcomes == [MISS, HIT]


# ---------------------------------------------------------------------------
# Matcher-cache bound (satellite)
# ---------------------------------------------------------------------------
class TestMatcherCacheBound:
    def test_trim_bounds_entries_and_counts_evictions(self):
        from repro.engine.walk import run_fsync

        algorithm = get(ALGORITHM)
        cache = MatcherCache(max_entries=8)
        run_fsync(algorithm, Grid(4, 4), matcher=cache.matcher_for(algorithm, Grid(4, 4)))
        assert cache.entry_count() > 8  # matchers overshoot between handouts
        cache.matcher_for(algorithm, Grid(3, 3))  # handout enforces the cap
        assert cache.entry_count() <= 8
        assert cache.stats.evictions > 0
        assert cache.stats_for(algorithm).evictions == cache.stats.evictions

    def test_unbounded_by_default_in_practice(self):
        cache = MatcherCache()
        algorithm = get(ALGORITHM)
        cache.matcher_for(algorithm, Grid(3, 3))
        assert cache.stats.evictions == 0

    def test_eviction_does_not_change_results(self):
        from repro.engine.walk import run_fsync

        algorithm = get(ALGORITHM)
        bounded, unbounded = MatcherCache(max_entries=4), MatcherCache()
        grids = [Grid(3, 3), Grid(4, 4), Grid(3, 3)]
        for grid in grids:
            starved = run_fsync(algorithm, grid, matcher=bounded.matcher_for(algorithm, grid))
            warm = run_fsync(algorithm, grid, matcher=unbounded.matcher_for(algorithm, grid))
            assert starved.steps == warm.steps
            assert starved.total_moves == warm.total_moves
        assert bounded.stats.evictions > 0

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            MatcherCache(max_entries=0)
