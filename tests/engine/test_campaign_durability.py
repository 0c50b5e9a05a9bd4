"""Store-backed campaigns: every report is durable as soon as it completes.

The campaign engine writes each report to the verdict store before it
hands it on, so a campaign killed at any point and run again against the
same store serves what it finished and computes only the remainder, with
reports identical to an uninterrupted serial run.  The crash/resume test
proves it with a real ``SIGKILL`` of a real process group, on the serial
and the pool route.  The record framing that replay relies on is tested
byte by byte.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import pickle
import signal
import subprocess
import sys
import time
import zlib
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.errors import GridError
from repro.engine import (
    CampaignTask,
    ParallelCampaignEngine,
    PoolBackend,
    SerialBackend,
    VerdictStore,
    exhaustive_check_tasks,
    task_store_key,
)
from repro.engine.store import HIT, MISS, RECORD_HEADER, iter_records, pack_record
from repro.verification import exhaustive_sweep

SIZES = [(2, 3), (3, 3), (3, 4), (4, 3)]


@pytest.fixture()
def chaos_tasks(algorithm1):
    return exhaustive_check_tasks(algorithm1, sizes=SIZES, reduction="grid")


@pytest.fixture()
def serial_reports(chaos_tasks):
    return ParallelCampaignEngine().run_tasks(chaos_tasks)


def raw_records(path: Path) -> int:
    """Records in the store's segments, duplicates included (read-only)."""
    return sum(1 for seg in path.glob("seg-*.log") for _ in iter_records(seg.read_bytes()))


# ---------------------------------------------------------------------------
# Record framing: what replay keeps, skips and truncates
# ---------------------------------------------------------------------------
THREE = [("a", 1), ("b", 2), ("c", 3)]


def packed(pairs) -> bytes:
    return b"".join(pack_record(key, value) for key, value in pairs)


def flip(data: bytes, offset: int) -> bytes:
    """``data`` with the lowest bit of byte ``offset`` flipped."""
    damaged = bytearray(data)
    damaged[offset] ^= 0x01
    return bytes(damaged)


def pairs_of(data: bytes):
    return [(key, value) for key, value, _ in iter_records(data)]


class TestRecordFraming:
    def test_pack_record_header_frames_its_body(self):
        record = pack_record("a", 1)
        length, crc = RECORD_HEADER.unpack_from(record)
        body = record[RECORD_HEADER.size :]
        assert (length, crc) == (len(body), zlib.crc32(body))
        assert pickle.loads(body) == ("a", 1)

    def test_empty_input_yields_nothing(self):
        assert list(iter_records(b"")) == []

    def test_intact_records_yield_keys_values_and_end_offsets(self):
        ends = list(itertools.accumulate(len(pack_record(k, v)) for k, v in THREE))
        assert list(iter_records(packed(THREE))) == [
            (key, value, end) for (key, value), end in zip(THREE, ends)
        ]

    @pytest.mark.parametrize(
        "cut",
        [1, RECORD_HEADER.size - 1, RECORD_HEADER.size, RECORD_HEADER.size + 1],
        ids=["header-byte", "short-header", "header-only", "short-body"],
    )
    def test_torn_final_record_ends_iteration(self, cut):
        intact = packed(THREE[:2])
        torn = intact + pack_record(*THREE[2])[:cut]
        records = list(iter_records(torn))
        assert [(key, value) for key, value, _ in records] == THREE[:2]
        assert records[-1][2] == len(intact)  # the caller truncates the rest

    @pytest.mark.parametrize("field", ["crc", "body"])
    def test_damaged_record_is_skipped_when_its_successor_checks_out(self, field):
        start = len(pack_record(*THREE[0]))
        offset = start + (4 if field == "crc" else RECORD_HEADER.size + 2)
        assert pairs_of(flip(packed(THREE), offset)) == [("a", 1), (None, None), ("c", 3)]

    def test_damaged_final_record_is_skipped_at_eof(self):
        data = flip(packed(THREE), len(packed(THREE)) - 1)
        records = list(iter_records(data))
        assert [(key, value) for key, value, _ in records] == [("a", 1), ("b", 2), (None, None)]
        assert records[-1][2] == len(data)  # nothing is left to truncate

    def test_damaged_length_field_loses_framing(self):
        # The record's length may be the flipped part, so the bytes it
        # points at are no record and replay cannot read past it.
        start = len(pack_record(*THREE[0]))
        records = list(iter_records(flip(packed(THREE), start + 3)))
        assert [(key, value) for key, value, _ in records] == [("a", 1)]
        assert records[-1][2] == start

    def test_damaged_record_before_a_torn_tail_loses_framing(self):
        start = len(pack_record(*THREE[0]))
        data = packed(THREE[:2]) + pack_record(*THREE[2])[:5]
        assert pairs_of(flip(data, start + RECORD_HEADER.size + 2)) == [("a", 1)]

    def test_crc_valid_record_needs_no_successor(self):
        # A CRC-valid record frames itself even when its pickle is dead.
        body = b"not a pickle"
        unloadable = RECORD_HEADER.pack(len(body), zlib.crc32(body)) + body
        data = pack_record(*THREE[0]) + unloadable + b"\x00\x00"
        records = list(iter_records(data))
        assert [(key, value) for key, value, _ in records] == [("a", 1), (None, None)]
        assert records[-1][2] == len(data) - 2


# ---------------------------------------------------------------------------
# Store-backed campaigns: durable per report, resumed by running again
# ---------------------------------------------------------------------------
def make_backend(route: str):
    """``serial`` runs in this process; ``pool`` on two workers; ``inline-pool`` on one."""
    if route == "serial":
        return SerialBackend()
    return PoolBackend(workers=1 if route == "inline-pool" else 2)


class TestStoreBackedCampaigns:
    def test_rerun_serves_stored_verdicts_instead_of_recomputing(self, tmp_path, chaos_tasks, serial_reports):
        with VerdictStore(tmp_path / "store") as store:
            engine = ParallelCampaignEngine(store=store)
            assert engine.run_tasks(chaos_tasks) == serial_reports
            # Plant a sentinel verdict: if the rerun re-executed the task,
            # the recomputed report would replace it.
            sentinel = replace(serial_reports[1], reason="stored-sentinel")
            store.put(task_store_key(chaos_tasks[1]), sentinel)
        with VerdictStore(tmp_path / "store") as store:
            rerun = ParallelCampaignEngine(store=store).run_tasks(chaos_tasks)
        assert rerun[1].reason == "stored-sentinel"
        assert rerun[0] == serial_reports[0]
        assert [report.store_stats["outcome"] for report in rerun] == [HIT] * len(chaos_tasks)

    def test_stored_reports_stream_before_the_remainder(self, chaos_tasks, serial_reports):
        store = VerdictStore()
        engine = ParallelCampaignEngine(store=store)
        engine.run_tasks(chaos_tasks[2:3])
        streamed = list(engine.iter_tasks(chaos_tasks))
        assert [index for index, _ in streamed] == [2, 0, 1, 3]
        assert [report.store_stats["outcome"] for _, report in streamed] == [HIT, MISS, MISS, MISS]
        assert [report for _, report in sorted(streamed, key=lambda pair: pair[0])] == serial_reports

    def test_pooled_store_backed_sweep_matches_serial(self, tmp_path, algorithm1, serial_reports):
        with VerdictStore(tmp_path / "store") as store, PoolBackend(workers=2) as backend:
            swept = exhaustive_sweep(algorithm1, sizes=SIZES, reduction="grid", backend=backend, store=store)
        assert swept.reports == serial_reports
        assert raw_records(tmp_path / "store") == len(SIZES)

    @pytest.mark.parametrize("route", ["serial", "pool", "inline-pool"])
    def test_a_raising_task_keeps_the_verdicts_committed_before_it(
        self, tmp_path, route, algorithm1, chaos_tasks, serial_reports
    ):
        # A walk on a 0x3 grid raises: Grid refuses the shape.
        path = tmp_path / "store"
        broken = chaos_tasks[:2] + [CampaignTask(algorithm1, 0, 3)] + chaos_tasks[2:]
        with make_backend(route) as backend:
            with VerdictStore(path) as store:
                engine = ParallelCampaignEngine(backend=backend, store=store)
                with pytest.raises(GridError, match="0x3"):
                    engine.run_tasks(broken)
            assert raw_records(path) == 2  # both reports before the raise
            with VerdictStore(path) as store:
                engine = ParallelCampaignEngine(backend=backend, store=store)
                assert engine.run_tasks(chaos_tasks) == serial_reports
        assert raw_records(path) == len(chaos_tasks)  # only the remainder ran

    def test_campaign_entry_points_resume_from_the_store(self, tmp_path, algorithm1, serial_reports):
        with VerdictStore(tmp_path / "store") as store:
            first = exhaustive_sweep(algorithm1, sizes=SIZES, reduction="grid", store=store)
        with VerdictStore(tmp_path / "store") as store:
            resumed = exhaustive_sweep(algorithm1, sizes=SIZES, reduction="grid", store=store)
            assert store.misses == 0
        assert first.reports == serial_reports
        assert resumed.reports == serial_reports


# ---------------------------------------------------------------------------
# SIGKILL mid-campaign, resume in-process
# ---------------------------------------------------------------------------
ROOT = Path(__file__).resolve().parents[2]


def store_backed_sweep(route: str, algorithm, path):
    """The :data:`SIZES` exhaustive sweep against the store at ``path``.

    ``serial`` streams the tasks through a generator in this process;
    ``pool`` through the ``imap`` of a two-worker :class:`PoolBackend`.
    """
    with VerdictStore(path) as store:
        if route == "serial":
            return exhaustive_sweep(algorithm, sizes=SIZES, reduction="grid", store=store)
        with PoolBackend(workers=2) as backend:
            return exhaustive_sweep(
                algorithm, sizes=SIZES, reduction="grid", backend=backend, store=store
            )


#: Runs :func:`store_backed_sweep` with a long pause after each durable
#: store append, so the parent's SIGKILL lands between committed verdicts
#: while the sweep is still running.
SWEEP_SCRIPT = """
import sys
import time

from repro.algorithms import get
from repro.engine import VerdictStore
from tests.engine.test_campaign_durability import store_backed_sweep

durable_put = VerdictStore.put


def put_then_pause(self, spec, value):
    durable_put(self, spec, value)
    time.sleep(60)


VerdictStore.put = put_then_pause
store_backed_sweep(sys.argv[1], get("fsync_phi2_l2_chir_k2"), sys.argv[2])
"""


class TestKillAndResume:
    @pytest.mark.parametrize("route", ["serial", "pool"])
    def test_sigkilled_sweep_resumes_without_recomputing(
        self, tmp_path, route, algorithm1, chaos_tasks, serial_reports
    ):
        path = tmp_path / "store"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
        child = subprocess.Popen(
            [sys.executable, "-c", SWEEP_SCRIPT, route, str(path)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 60
            while raw_records(path) < 1 and child.poll() is None and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            # The whole group: pool workers die with their coordinator.
            with contextlib.suppress(ProcessLookupError):
                os.killpg(child.pid, signal.SIGKILL)
            output = child.communicate(timeout=30)[0].decode(errors="replace")
        assert child.returncode == -signal.SIGKILL, output  # killed, not finished
        killed_at = raw_records(path)
        assert 1 <= killed_at < len(chaos_tasks)  # the kill landed mid-run

        resumed = store_backed_sweep(route, algorithm1, path)
        assert resumed.reports == serial_reports
        outcomes = [report.store_stats["outcome"] for report in resumed.reports]
        assert outcomes.count(HIT) == killed_at
        # Only the remainder ran: a full recompute would append
        # len(tasks) more records on top of the killed run's.
        assert raw_records(path) == len(chaos_tasks)
