"""Chaos parity suite: fault injection, the resume journal, degradation.

Every distributed scenario here injects a *deterministic* fault through a
:class:`FaultPlan` and then asserts the strongest property the stack
claims: the reports are byte-identical to the serial engine's.  Under
seeded faults a parity failure is a bug, never flake.

Like everything else, these tests run under the suite-wide hang guard
(``tests/conftest.py``), so a wedged socket fails the test instead of the
suite.
"""

from __future__ import annotations

import pickle
import random
import socket
import threading
import time

import pytest

from repro.engine import (
    CampaignJournal,
    DistributedBackend,
    FallbackBackend,
    Fault,
    FaultInjected,
    FaultPlan,
    ParallelCampaignEngine,
    WorkerDaemon,
    execute_tasks,
    exhaustive_check_tasks,
    recv_message,
    send_message,
)
from repro.engine.distributed import _backoff_delays, encode_frame, run_worker
from repro.engine.faults import _FRAME_HEADER_BYTES

SIZES = [(2, 3), (3, 3), (3, 4), (4, 3)]


@pytest.fixture()
def chaos_tasks(algorithm1):
    return exhaustive_check_tasks(algorithm1, sizes=SIZES, reduction="grid")


@pytest.fixture()
def serial_reports(algorithm1, chaos_tasks):
    return execute_tasks(algorithm1, chaos_tasks)


# ---------------------------------------------------------------------------
# FaultPlan semantics
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_fault_requires_exactly_one_selector(self):
        with pytest.raises(ValueError, match="exactly one"):
            Fault("worker.item", "kill")
        with pytest.raises(ValueError, match="exactly one"):
            Fault("worker.item", "kill", index=0, item=1)

    def test_index_match_is_one_shot(self):
        plan = FaultPlan().add(Fault("worker.item", "kill", index=1))
        assert plan.fire("worker.item") is None  # event 0
        fault = plan.fire("worker.item")  # event 1
        assert fault is not None and fault.action == "kill"
        assert plan.fire("worker.item") is None  # event 2: the index passed

    def test_item_match_is_persistent(self):
        plan = FaultPlan().kill_worker(item=2)
        assert plan.fire("worker.item", item=0) is None
        assert plan.fire("worker.item", item=2) is not None
        assert plan.fire("worker.item", item=2) is not None  # poison: fires again
        assert plan.fire("worker.item", item=1) is None

    def test_worker_filter_restricts_firing(self):
        plan = FaultPlan().hang_worker(index=0, worker=1)
        assert plan.fire("worker.item", worker=0) is None
        # The index-0 event was consumed by worker 0's stream position, so
        # a fresh plan shows the positive case:
        plan = FaultPlan().hang_worker(index=0, worker=1)
        assert plan.fire("worker.item", worker=1) is not None

    def test_sites_count_independently(self):
        plan = FaultPlan().add(Fault("coordinator.send", "corrupt", index=1))
        assert plan.fire("worker.result") is None
        assert plan.fire("coordinator.send") is None  # event 0 at the site
        assert plan.fire("coordinator.send") is not None  # event 1

    def test_pickle_round_trip_resets_counters(self):
        plan = FaultPlan(seed=3).corrupt_result_frame(index=0)
        assert plan.fire("worker.result") is not None  # consume event 0
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.seed == 3
        assert clone.fire("worker.result") is not None  # counters start fresh

    def test_frame_corruption_is_deterministic_and_undecodable(self):
        frame = encode_frame(("result", 0, "payload"))
        one = FaultPlan(seed=11).corrupt_result_frame(index=0)
        two = FaultPlan(seed=11).corrupt_result_frame(index=0)
        corrupted = one.frame_out("worker.result", frame, item=0)
        assert corrupted == two.frame_out("worker.result", frame, item=0)
        assert corrupted != frame
        assert len(corrupted) == len(frame)
        # The length header survives (framing stays aligned) ...
        assert corrupted[:_FRAME_HEADER_BYTES] == frame[:_FRAME_HEADER_BYTES]
        # ... and the body is garbage that fails at decode, not a silent
        # wrong-but-decodable payload (which would break parity invisibly).
        with pytest.raises(Exception):
            pickle.loads(corrupted[_FRAME_HEADER_BYTES:])
        different_seed = FaultPlan(seed=12).corrupt_result_frame(index=0)
        assert different_seed.frame_out("worker.result", frame, item=0) != corrupted

    def test_frames_pass_through_untouched_without_a_matching_fault(self):
        frame = encode_frame(("result", 0, "payload"))
        plan = FaultPlan().corrupt_result_frame(index=5)
        assert plan.frame_out("worker.result", frame, item=0) == frame

    def test_check_crash_raises_only_on_crash_faults(self):
        plan = FaultPlan().crash_coordinator(after_records=2)
        plan.check_crash("journal.record")  # event 0: no fault yet
        with pytest.raises(FaultInjected, match="journal.record"):
            plan.check_crash("journal.record")  # event 1 == after_records-1

    def test_crash_coordinator_validates_after_records(self):
        with pytest.raises(ValueError, match=">= 1"):
            FaultPlan().crash_coordinator(after_records=0)


# ---------------------------------------------------------------------------
# Connect backoff jitter
# ---------------------------------------------------------------------------
class TestBackoffJitter:
    def test_delays_are_jittered_within_the_exponential_envelope(self):
        delays = _backoff_delays(base=0.05, cap=1.0, rng=random.Random(42))
        ceiling = 0.05
        for _ in range(12):
            delay = next(delays)
            assert 0.0 < delay <= ceiling
            ceiling = min(ceiling * 2, 1.0)

    def test_sequence_is_deterministic_per_seed(self):
        first = _backoff_delays(rng=random.Random(7))
        second = _backoff_delays(rng=random.Random(7))
        assert [next(first) for _ in range(8)] == [next(second) for _ in range(8)]

    def test_different_seeds_decorrelate(self):
        first = [next(_backoff_delays(rng=random.Random(1))) for _ in range(1)]
        second = [next(_backoff_delays(rng=random.Random(2))) for _ in range(1)]
        assert first != second


# ---------------------------------------------------------------------------
# The write-ahead journal
# ---------------------------------------------------------------------------
class TestCampaignJournal:
    def test_round_trip_and_reopen(self, tmp_path):
        path = tmp_path / "campaign.journal"
        with CampaignJournal(path) as journal:
            journal.put("a", {"ok": True})
            journal.put("b", [1, 2, 3])
            assert len(journal) == 2
            assert "a" in journal and "c" not in journal
            assert journal.get("b") == [1, 2, 3]
        with CampaignJournal(path) as journal:
            assert len(journal) == 2
            assert journal.get("a") == {"ok": True}
            assert journal.recovered_bytes == 0

    def test_torn_tail_is_truncated_and_appendable(self, tmp_path):
        path = tmp_path / "campaign.journal"
        with CampaignJournal(path) as journal:
            journal.put("a", 1)
            journal.put("b", 2)
        intact = path.stat().st_size
        with open(path, "ab") as handle:  # a crash mid-append: torn record
            handle.write(b"\x00\x00\x00\x40\xde\xad\xbe\xefgarbage")
        with CampaignJournal(path) as journal:
            assert len(journal) == 2
            assert journal.recovered_bytes > 0
            journal.put("c", 3)  # the truncated journal is appendable again
        with CampaignJournal(path) as journal:
            assert len(journal) == 3
        assert path.stat().st_size > intact

    def test_last_write_wins_on_duplicate_keys(self, tmp_path):
        path = tmp_path / "campaign.journal"
        with CampaignJournal(path) as journal:
            journal.put("a", "old")
            journal.put("a", "new")
        with CampaignJournal(path) as journal:
            assert len(journal) == 1
            assert journal.get("a") == "new"

    def test_fresh_discards_existing_records(self, tmp_path):
        path = tmp_path / "campaign.journal"
        with CampaignJournal(path) as journal:
            journal.put("a", 1)
        with CampaignJournal(path, fresh=True) as journal:
            assert len(journal) == 0

    def test_put_after_close_is_refused(self, tmp_path):
        journal = CampaignJournal(tmp_path / "campaign.journal")
        journal.close()
        with pytest.raises(RuntimeError, match="closed"):
            journal.put("a", 1)

    def test_task_key_is_stable_and_content_sensitive(self, chaos_tasks):
        assert CampaignJournal.task_key(chaos_tasks[0]) == CampaignJournal.task_key(chaos_tasks[0])
        keys = {CampaignJournal.task_key(task) for task in chaos_tasks}
        assert len(keys) == len(chaos_tasks)

    def test_injected_crash_fires_after_the_durable_append(self, tmp_path):
        path = tmp_path / "campaign.journal"
        plan = FaultPlan().crash_coordinator(after_records=1)
        with pytest.raises(FaultInjected):
            with CampaignJournal(path, faults=plan) as journal:
                journal.put("a", 1)
        with CampaignJournal(path) as journal:  # the record IS on disk
            assert journal.get("a") == 1


# ---------------------------------------------------------------------------
# Journalled campaigns: kill/resume parity
# ---------------------------------------------------------------------------
class TestJournalledCampaigns:
    def test_serial_crash_and_resume_is_byte_identical(
        self, tmp_path, algorithm1, serial_reports
    ):
        path = tmp_path / "sweep.journal"
        engine = ParallelCampaignEngine(workers=1)
        plan = FaultPlan().crash_coordinator(after_records=2)
        with pytest.raises(FaultInjected):
            with CampaignJournal(path, faults=plan) as journal:
                engine.exhaustive_sweep(algorithm1, sizes=SIZES, reduction="grid", journal=journal)
        with CampaignJournal(path) as journal:
            assert len(journal) == 2  # exactly the durable appends survive
            resumed = engine.exhaustive_sweep(
                algorithm1, sizes=SIZES, reduction="grid", journal=journal
            )
            assert len(journal) == len(SIZES)
        assert resumed.reports == serial_reports

    def test_resume_replays_journaled_verdicts_instead_of_recomputing(
        self, tmp_path, algorithm1, chaos_tasks, serial_reports
    ):
        from dataclasses import replace

        path = tmp_path / "sweep.journal"
        engine = ParallelCampaignEngine(workers=1)
        first = engine.run_tasks(algorithm1, chaos_tasks, journal=path)
        assert first == serial_reports
        # Plant a sentinel verdict: if resume re-executed the task, the
        # sentinel would be overwritten by the recomputed report.
        sentinel = replace(serial_reports[1], reason="journaled-sentinel")
        with CampaignJournal(path) as journal:
            journal.put(CampaignJournal.task_key(chaos_tasks[1]), sentinel)
            resumed = engine.run_tasks(algorithm1, chaos_tasks, journal=journal)
        assert resumed[1].reason == "journaled-sentinel"
        assert resumed[0] == serial_reports[0]

    def test_resume_false_recomputes_from_scratch(self, tmp_path, algorithm1, chaos_tasks, serial_reports):
        from dataclasses import replace

        path = tmp_path / "sweep.journal"
        engine = ParallelCampaignEngine(workers=1)
        with CampaignJournal(path) as journal:
            journal.put(
                CampaignJournal.task_key(chaos_tasks[0]),
                replace(serial_reports[0], reason="stale"),
            )
        reports = engine.run_tasks(algorithm1, chaos_tasks, journal=path, resume=False)
        assert reports == serial_reports
        assert reports[0].reason != "stale"

    def test_pooled_journalled_sweep_matches_serial(self, tmp_path, algorithm1, serial_reports):
        from repro.engine import ExplorationPool

        path = tmp_path / "sweep.journal"
        with ExplorationPool(workers=2) as pool:
            engine = ParallelCampaignEngine(pool=pool)
            swept = engine.exhaustive_sweep(algorithm1, sizes=SIZES, reduction="grid", journal=path)
        assert swept.reports == serial_reports
        with CampaignJournal(path) as journal:
            assert len(journal) == len(SIZES)

    def test_campaign_entry_points_accept_journal(self, tmp_path, algorithm1, serial_reports):
        from repro.verification import exhaustive_sweep

        path = tmp_path / "sweep.journal"
        first = exhaustive_sweep(algorithm1, sizes=SIZES, reduction="grid", journal=path)
        resumed = exhaustive_sweep(algorithm1, sizes=SIZES, reduction="grid", journal=path)
        assert first.reports == serial_reports
        assert resumed.reports == serial_reports


# ---------------------------------------------------------------------------
# Distributed chaos: injected faults, serial parity
# ---------------------------------------------------------------------------
class TestDistributedChaos:
    def test_frame_corruption_retires_and_retries_to_parity(
        self, algorithm1, chaos_tasks, serial_reports
    ):
        plan = (
            FaultPlan(seed=5)
            .corrupt_result_frame(index=0, worker=0)  # worker 0's first reply rots
            .corrupt_work_frame(index=1)  # the coordinator's second work frame rots
        )
        with DistributedBackend(min_workers=3, start_timeout=30, faults=plan) as backend:
            with WorkerDaemon(
                backend.host, backend.port, workers=3, heartbeat_interval=0.1, faults=plan
            ).start():
                reports = backend.run_tasks(chaos_tasks)
            stats = backend.stats
        assert reports == serial_reports
        assert stats["retries_total"] >= 1

    def test_hung_worker_is_retired_within_the_deadline(
        self, algorithm1, chaos_tasks, serial_reports
    ):
        plan = FaultPlan().hang_worker(index=0, worker=0, seconds=60.0)
        with DistributedBackend(
            min_workers=2, start_timeout=30, item_timeout=1.0
        ) as backend:
            with WorkerDaemon(
                backend.host, backend.port, workers=2, heartbeat_interval=0.05, faults=plan
            ).start():
                started = time.monotonic()
                reports = backend.run_tasks(chaos_tasks)
                elapsed = time.monotonic() - started
            stats = backend.stats
        assert reports == serial_reports
        assert stats["hung_retired"] >= 1
        # The wedge lasts 60s; finishing far sooner proves the deadline
        # (not the hang ending) is what retired the connection.
        assert elapsed < 30

    def test_slow_but_alive_worker_is_not_retired(self, algorithm1, chaos_tasks, serial_reports):
        # The delayed item takes ~2s against a 0.75s silence deadline, but
        # heartbeats keep flowing — retiring it would be a false positive.
        plan = FaultPlan().delay_item(index=0, worker=0, seconds=2.0)
        with DistributedBackend(
            min_workers=2, start_timeout=30, item_timeout=0.75
        ) as backend:
            with WorkerDaemon(
                backend.host, backend.port, workers=2, heartbeat_interval=0.1, faults=plan
            ).start():
                reports = backend.run_tasks(chaos_tasks)
            stats = backend.stats
        assert reports == serial_reports
        assert stats["hung_retired"] == 0
        assert stats["retries_total"] == 0

    def test_daemon_kill_mid_wave_preserves_parity(self, algorithm1, chaos_tasks, serial_reports):
        plan = FaultPlan().kill_worker(index=0, worker=0)  # worker 0 dies on its first item
        with DistributedBackend(min_workers=2, start_timeout=30) as backend:
            with WorkerDaemon(
                backend.host, backend.port, workers=2, heartbeat_interval=0.1, faults=plan
            ).start() as daemon:
                reports = backend.run_tasks(chaos_tasks)
                assert daemon.alive >= 1  # the survivor carried the job
            stats = backend.stats
        assert reports == serial_reports
        assert stats["retries_total"] >= 1

    def test_poison_task_fails_alone_with_a_structured_report(
        self, algorithm1, chaos_tasks, serial_reports
    ):
        poison_id = 2
        plan = FaultPlan().kill_worker(item=poison_id)  # whoever pulls item 2 dies
        with DistributedBackend(min_workers=1, start_timeout=30) as backend:
            with WorkerDaemon(
                backend.host, backend.port, workers=4, heartbeat_interval=0.1, faults=plan
            ).start() as daemon:
                reports = backend.run_tasks(chaos_tasks)
                # Only its own item failed; every other verdict is serial-identical.
                for item_id, report in enumerate(reports):
                    if item_id == poison_id:
                        assert not report.ok
                        assert "poison" in report.reason
                        assert "retry budget" in report.reason
                    else:
                        assert report == serial_reports[item_id]
                assert backend.poisoned_total == 1
                # The fleet survives the quarantine (3 attempts, 4 workers) ...
                assert daemon.alive >= 1
                # ... and a subsequent job on the same fleet runs clean.
                follow_up = backend.run_tasks(chaos_tasks[:2])
                assert follow_up == serial_reports[:2]

    def test_journalled_distributed_crash_and_resume(
        self, tmp_path, algorithm1, serial_reports
    ):
        path = tmp_path / "sweep.journal"
        crash = FaultPlan().crash_coordinator(after_records=2)
        with DistributedBackend(min_workers=2, start_timeout=30) as backend:
            with WorkerDaemon(backend.host, backend.port, workers=2, heartbeat_interval=0.1).start():
                engine = ParallelCampaignEngine(backend=backend)
                with pytest.raises(FaultInjected):
                    with CampaignJournal(path, faults=crash) as journal:
                        engine.exhaustive_sweep(
                            algorithm1, sizes=SIZES, reduction="grid", journal=journal
                        )
                with CampaignJournal(path) as journal:
                    assert len(journal) == 2
                    resumed = engine.exhaustive_sweep(
                        algorithm1, sizes=SIZES, reduction="grid", journal=journal
                    )
        assert resumed.reports == serial_reports


# ---------------------------------------------------------------------------
# Graceful degradation: FallbackBackend
# ---------------------------------------------------------------------------
class TestFallbackBackend:
    def test_fleet_that_never_arrives_degrades_to_local(self, algorithm1, chaos_tasks, serial_reports):
        primary = DistributedBackend(min_workers=1, start_timeout=0.2)
        with FallbackBackend(primary) as backend:
            reports = backend.run_tasks(chaos_tasks)
            assert reports == serial_reports
            assert backend.stats == {"fallback_jobs": 1, "fallback_items": len(chaos_tasks)}

    def test_fleet_lost_mid_job_finishes_locally_without_recomputing(
        self, algorithm1, chaos_tasks, serial_reports
    ):
        # The single worker dies on its *second* item: item 0's result is
        # already collected, so the fallback must only run the remainder.
        plan = FaultPlan().kill_worker(index=1, worker=0)
        primary = DistributedBackend(min_workers=1, start_timeout=1.0)
        with FallbackBackend(primary) as backend:
            with WorkerDaemon(
                primary.host, primary.port, workers=1, heartbeat_interval=0.1, faults=plan
            ).start():
                reports = backend.run_tasks(chaos_tasks)
        assert reports == serial_reports
        assert backend.stats["fallback_jobs"] == 1
        assert backend.stats["fallback_items"] == len(chaos_tasks) - 1

    def test_parallelism_delegates_to_the_primary(self):
        primary = DistributedBackend(min_workers=3, start_timeout=0.2)
        with FallbackBackend(primary) as backend:
            assert backend.parallelism == 3

    def test_close_is_final(self):
        backend = FallbackBackend(DistributedBackend(min_workers=1, start_timeout=0.2))
        backend.close()
        with pytest.raises(RuntimeError, match="closed"):
            backend.run_tasks([])


# ---------------------------------------------------------------------------
# Worker daemon lifecycle reporting
# ---------------------------------------------------------------------------
class TestWorkerLifecycleReporting:
    def test_join_names_stragglers_and_clears_after_shutdown(self):
        backend = DistributedBackend(min_workers=1, start_timeout=30)
        daemon = WorkerDaemon(backend.host, backend.port, workers=2).start()
        deadline = time.monotonic() + 30
        while backend.parallelism < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        # Workers are parked in recv: a bounded join must *name* them.
        stragglers = daemon.join(timeout=0.3)
        assert len(stragglers) == 2
        assert all(status.alive and status.pid is not None for status in stragglers)
        backend.close()  # orderly shutdown frame reaches both workers
        assert daemon.join(timeout=30) == []
        assert [status.exitcode for status in daemon.statuses()] == [0, 0]
        daemon.terminate()

    def test_run_worker_exits_zero_on_orderly_shutdown(self):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        host, port = listener.getsockname()[:2]

        def coordinator():
            conn, _ = listener.accept()
            with conn:
                assert recv_message(conn)[0] == "hello"
                send_message(conn, ("shutdown",))

        thread = threading.Thread(target=coordinator, daemon=True)
        thread.start()
        try:
            assert run_worker(host, port, workers=1, connect_timeout=10.0) == 0
        finally:
            thread.join(timeout=10)
            listener.close()

    def test_run_worker_exits_nonzero_when_a_loop_dies_abnormally(self, capsys):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        host, port = listener.getsockname()[:2]

        def coordinator():
            conn, _ = listener.accept()
            with conn:
                assert recv_message(conn)[0] == "hello"
            # connection dropped without a shutdown frame: abnormal end

        thread = threading.Thread(target=coordinator, daemon=True)
        thread.start()
        try:
            assert run_worker(host, port, workers=1, connect_timeout=10.0) == 1
        finally:
            thread.join(timeout=10)
            listener.close()
        assert "died abnormally" in capsys.readouterr().err
