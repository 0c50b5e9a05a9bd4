"""Tests for the TCP distributed backend: wire protocol, retries, parity.

Everything here runs under the suite-wide hang guard (``tests/conftest.py``):
a stuck socket or a deadlocked coordinator fails the test instead of
hanging the suite.
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading
import time

import pytest

from repro.algorithms import get
from repro.checking import check_terminating_exploration, enumerate_reachable, explore_state_space
from repro.core import Grid
from repro.engine import (
    CampaignTask,
    DistributedBackend,
    TieBreak,
    WorkerDaemon,
    execute_tasks,
    exhaustive_check_tasks,
    grid_sweep_tasks,
    recv_message,
    run_task,
    send_message,
    explore_sharded,
    stress_test_tasks,
)
from repro.engine.campaign import check_one
from repro.engine.distributed import MAX_FRAME_BYTES, _parse_endpoint, main
from repro.verification import exhaustive_sweep


def explore_sharded_graph(algorithm, grid, *, model, backend=None):
    """The registry-level explorer, reduced to its successor graph."""
    return explore_sharded(algorithm, grid, model, backend=backend).graph()


def _roundtrip(obj):
    """Ship ``obj`` through one length-prefixed frame and back."""
    left, right = socket.socketpair()
    try:
        send_message(left, obj)
        return recv_message(right)
    finally:
        left.close()
        right.close()


# ---------------------------------------------------------------------------
# Wire protocol: every payload kind survives the frame round-trip
# ---------------------------------------------------------------------------
class TestWireProtocol:
    def test_campaign_task_round_trip(self):
        walk = CampaignTask(
            algorithm="fsync_phi2_l2_chir_k2", m=3, n=4, model="SSYNC", seed=7, tie_break=TieBreak.FIRST
        )
        check = CampaignTask(
            algorithm="async_phi2_l2_nochir_k4",
            m=4,
            n=4,
            model="ASYNC",
            kind="check",
            reduction="grid",
            max_states=50_000,
        )
        assert _roundtrip(walk) == walk
        assert _roundtrip(check) == check

    def test_verification_report_round_trip(self):
        report = check_one(get("fsync_phi2_l2_chir_k2"), 3, 3, model="FSYNC", reduction="grid")
        shipped = _roundtrip(("result", 0, report))
        assert shipped == ("result", 0, report)
        # compare=False fields still travel (equality just ignores them).
        assert shipped[2].cache_hits == report.cache_hits
        assert shipped[2].reduction_stats == report.reduction_stats

    def test_worker_hello_and_error_frames_round_trip(self):
        hello = ("hello", {"pid": 1234, "host": "worker-1"})
        error = ("error", 3, "Traceback (most recent call last): ...")
        assert _roundtrip(hello) == hello
        assert _roundtrip(error) == error

    def test_oversized_frame_header_is_refused(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack("!Q", MAX_FRAME_BYTES + 1))
            with pytest.raises(ConnectionError, match="exceeds"):
                recv_message(right)
        finally:
            left.close()
            right.close()

    def test_truncated_frame_raises_connection_error(self):
        left, right = socket.socketpair()
        try:
            body = pickle.dumps(("result", 0, None))
            left.sendall(struct.pack("!Q", len(body)) + body[: len(body) // 2])
            left.close()
            with pytest.raises(ConnectionError, match="mid-frame"):
                recv_message(right)
        finally:
            right.close()


# ---------------------------------------------------------------------------
# Coordinator scheduling: determinism, retries, lifecycle
# ---------------------------------------------------------------------------
def _crashing_worker(host, port, crashed):
    """A protocol-speaking worker that dies with its first item in flight."""
    sock = socket.create_connection((host, port))
    try:
        send_message(sock, ("hello", {"pid": -1, "host": "crasher"}))
        recv_message(sock)  # pull one work frame ...
    finally:
        sock.close()  # ... and die without replying
        crashed.set()


class TestCoordinator:
    def test_results_come_back_in_task_order(self, algorithm1):
        tasks = stress_test_tasks(algorithm1, sizes=[(3, 3)], models=("SSYNC",), seeds=range(6))
        serial = execute_tasks(algorithm1, tasks)
        with DistributedBackend(min_workers=2, start_timeout=30) as backend:
            with WorkerDaemon(backend.host, backend.port, workers=2).start():
                first = backend.run_tasks(tasks)
                second = backend.run_tasks(tasks)  # a second job on the same workers
        assert first == serial
        assert second == serial

    def test_worker_crash_mid_task_is_retried_elsewhere(self, algorithm1):
        tasks = grid_sweep_tasks(algorithm1, sizes=[(3, 3), (3, 4), (4, 3)])
        serial = execute_tasks(algorithm1, tasks)
        with DistributedBackend(min_workers=1, start_timeout=30) as backend:
            crashed = threading.Event()
            crasher = threading.Thread(
                target=_crashing_worker, args=(backend.host, backend.port, crashed), daemon=True
            )
            crasher.start()
            # The crasher is the only worker: it must receive the first item.
            outcome = {}
            runner = threading.Thread(
                target=lambda: outcome.update(reports=backend.run_tasks(tasks)), daemon=True
            )
            runner.start()
            assert crashed.wait(timeout=30), "crashing worker never received an item"
            crasher.join(timeout=30)
            # Now a healthy daemon joins and must pick up the requeued item.
            with WorkerDaemon(backend.host, backend.port, workers=1).start():
                runner.join(timeout=60)
                assert not runner.is_alive(), "job did not recover from the crashed worker"
        assert outcome["reports"] == serial
        assert backend.retries_total >= 1

    def test_parallelism_honours_min_workers_before_daemons_connect(self):
        # The campaign engine sizes its dispatch waves from `parallelism`
        # before run_tasks waits for registrations; a pre-connection floor
        # of 1 would under-fill the promised fleet.
        with DistributedBackend(min_workers=4, start_timeout=0.2) as backend:
            assert backend.parallelism == 4

    def test_garbage_reply_retires_the_connection_and_retries(self, algorithm1):
        tasks = grid_sweep_tasks(algorithm1, sizes=[(3, 3)])
        serial = execute_tasks(algorithm1, tasks)
        with DistributedBackend(min_workers=1, start_timeout=30) as backend:
            confused = threading.Event()

            def garbage_worker():
                sock = socket.create_connection((backend.host, backend.port))
                try:
                    send_message(sock, ("hello", {"pid": -2, "host": "garbage"}))
                    recv_message(sock)  # take an item ...
                    body = b"\x80\x04not a pickle"
                    sock.sendall(struct.pack("!Q", len(body)) + body)  # ... reply noise
                    confused.set()
                    time.sleep(30)  # stay connected: the coordinator must not wait on us
                except OSError:
                    pass
                finally:
                    sock.close()

            threading.Thread(target=garbage_worker, daemon=True).start()
            outcome = {}
            runner = threading.Thread(
                target=lambda: outcome.update(reports=backend.run_tasks(tasks)), daemon=True
            )
            runner.start()
            assert confused.wait(timeout=30)
            with WorkerDaemon(backend.host, backend.port, workers=1).start():
                runner.join(timeout=60)
                assert not runner.is_alive(), "job hung on an undecodable reply"
        assert outcome["reports"] == serial
        assert backend.retries_total >= 1

    def test_worker_exception_propagates_to_the_caller(self):
        bad = CampaignTask(algorithm="no_such_algorithm", m=3, n=3)
        with DistributedBackend(min_workers=1, start_timeout=30) as backend:
            with WorkerDaemon(backend.host, backend.port, workers=1).start():
                with pytest.raises(RuntimeError, match="no_such_algorithm"):
                    backend.run_tasks([bad])

    def test_empty_job_needs_no_workers(self):
        with DistributedBackend(min_workers=1, start_timeout=0.2) as backend:
            assert backend.run_tasks([]) == []

    def test_missing_workers_time_out(self, algorithm1):
        with DistributedBackend(min_workers=1, start_timeout=0.2) as backend:
            with pytest.raises(TimeoutError, match="worker daemon"):
                backend.run_tasks(grid_sweep_tasks(algorithm1, sizes=[(3, 3)]))

    def test_close_is_idempotent_and_final(self, algorithm1):
        backend = DistributedBackend()
        backend.close()
        backend.close()
        with pytest.raises(RuntimeError, match="closed"):
            backend.run_tasks(grid_sweep_tasks(algorithm1, sizes=[(3, 3)]))
        with pytest.raises(RuntimeError, match="closed"):
            with backend:
                pass

    def test_daemons_shut_down_when_the_backend_closes(self):
        backend = DistributedBackend(min_workers=1, start_timeout=30)
        daemon = WorkerDaemon(backend.host, backend.port, workers=2).start()
        deadline = time.monotonic() + 30
        while backend.parallelism < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        backend.close()
        daemon.join(timeout=30)
        assert daemon.alive == 0

    def test_daemon_spawn_failure_terminates_started_workers(self, monkeypatch):
        import multiprocessing

        real = multiprocessing.get_context()
        started = []

        class FailingContext:
            def Process(self, *args, **kwargs):
                if started:
                    raise RuntimeError("simulated daemon spawn failure")
                process = real.Process(*args, **kwargs)
                started.append(process)
                return process

        monkeypatch.setattr(multiprocessing, "get_context", lambda *a, **k: FailingContext())
        with DistributedBackend() as backend:
            daemon = WorkerDaemon(backend.host, backend.port, workers=2)
            with pytest.raises(RuntimeError, match="simulated daemon spawn failure"):
                daemon.start()
        assert daemon.processes == []
        assert [p for p in started if p.is_alive()] == []


# ---------------------------------------------------------------------------
# Acceptance: distributed sweeps are identical to the serial engine
# ---------------------------------------------------------------------------
class TestDistributedParity:
    SIZES = [(2, 3), (3, 3), (3, 4), (4, 3), (4, 4)]

    def test_exhaustive_sweep_matches_serial_engine(self, algorithm1):
        serial = exhaustive_sweep(algorithm1, sizes=self.SIZES, reduction="grid")
        with DistributedBackend(min_workers=2, start_timeout=30) as backend:
            with WorkerDaemon(backend.host, backend.port, workers=2).start():
                distributed = exhaustive_sweep(
                    algorithm1, sizes=self.SIZES, reduction="grid", backend=backend
                )
        assert distributed.reports == serial.reports

    def test_exhaustive_sweep_survives_killing_a_worker_mid_sweep(self, algorithm1):
        tasks = exhaustive_check_tasks(algorithm1, sizes=self.SIZES, reduction="grid")
        tasks = tasks * 3  # enough work that the kill lands mid-sweep
        serial = execute_tasks(algorithm1, tasks)
        with DistributedBackend(min_workers=2, start_timeout=30) as backend:
            victim = WorkerDaemon(backend.host, backend.port, workers=1).start()
            with WorkerDaemon(backend.host, backend.port, workers=1).start():
                outcome = {}
                runner = threading.Thread(
                    target=lambda: outcome.update(reports=backend.run_tasks(tasks)),
                    daemon=True,
                )
                runner.start()
                time.sleep(0.3)  # let the sweep get going before the kill
                victim.terminate()
                runner.join(timeout=90)
                assert not runner.is_alive(), "sweep did not finish after the worker kill"
        assert outcome["reports"] == serial

    def test_check_through_tcp_matches_serial(self, algorithm1):
        grid = Grid(4, 4)
        serial = check_terminating_exploration(algorithm1, grid, model="FSYNC", reduction="grid")
        with DistributedBackend(min_workers=1, start_timeout=30) as backend:
            with WorkerDaemon(backend.host, backend.port, workers=1).start():
                shipped = check_terminating_exploration(
                    algorithm1, grid, model="FSYNC", reduction="grid", backend=backend
                )
        assert shipped == serial
        assert shipped.reduction_stats == serial.reduction_stats

    def test_check_runs_in_process_without_waiting_for_daemons(self, algorithm1):
        grid = Grid(4, 4)
        serial = check_terminating_exploration(algorithm1, grid, model="SSYNC", reduction="grid")
        # No daemon ever connects; a check must not wait out start_timeout
        # for one, because explorations never leave the calling process.
        with DistributedBackend(min_workers=1, start_timeout=60) as backend:
            started = time.monotonic()
            local = check_terminating_exploration(
                algorithm1, grid, model="SSYNC", reduction="grid", backend=backend
            )
            elapsed = time.monotonic() - started
            assert backend.workers_ever == 0
        assert local == serial
        assert local.reduction_stats == serial.reduction_stats
        assert elapsed < 30

    @pytest.mark.parametrize(
        "entry_point",
        [explore_state_space, enumerate_reachable, explore_sharded_graph],
        ids=lambda entry_point: entry_point.__name__,
    )
    def test_explorations_run_in_process_without_waiting_for_daemons(self, algorithm1, entry_point):
        grid = Grid(3, 4)
        serial = entry_point(algorithm1, grid, model="SSYNC")
        with DistributedBackend(min_workers=1, start_timeout=60) as backend:
            started = time.monotonic()
            local = entry_point(algorithm1, grid, model="SSYNC", backend=backend)
            elapsed = time.monotonic() - started
            assert backend.workers_ever == 0
        assert local == serial
        assert elapsed < 30


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestCli:
    def test_parse_endpoint(self):
        assert _parse_endpoint("127.0.0.1:8000") == ("127.0.0.1", 8000)
        assert _parse_endpoint("worker-3.cluster.local:7421") == ("worker-3.cluster.local", 7421)
        with pytest.raises(Exception):
            _parse_endpoint("no-port")

    def test_worker_subcommand_requires_connect(self, capsys):
        with pytest.raises(SystemExit):
            main(["worker"])

    def test_worker_subcommand_serves_a_real_job(self, algorithm1):
        tasks = grid_sweep_tasks(algorithm1, sizes=[(3, 3), (3, 4)])
        with DistributedBackend(min_workers=1, start_timeout=30) as backend:
            cli = threading.Thread(
                target=main,
                args=(["worker", "--connect", backend.address, "--workers", "1"],),
                daemon=True,
            )
            cli.start()
            reports = backend.run_tasks(tasks)
            backend.close()
            cli.join(timeout=30)
        assert reports == [run_task(task) for task in tasks]
        assert not cli.is_alive()
