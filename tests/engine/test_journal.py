"""The write-ahead campaign journal and journalled (resumable) campaigns.

The journal's promise: every report is durable before the engine hands it
back, so a campaign killed at any point and re-pointed at the same journal
finishes only the remainder and returns reports identical to an
uninterrupted serial run.  The crash/resume test proves it with a real
``SIGKILL`` of a real process group, on every commit route of the engine.
The record framing that replay relies on is tested byte by byte.
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
from functools import partial
from pathlib import Path

import pytest

from repro.engine import (
    CampaignJournal,
    CampaignTask,
    ExplorationPool,
    ParallelCampaignEngine,
    PoolBackend,
    execute_tasks,
    exhaustive_check_tasks,
)
from repro.engine.journal import RECORD_HEADER, iter_records, pack_record

SIZES = [(2, 3), (3, 3), (3, 4), (4, 3)]


@pytest.fixture()
def chaos_tasks(algorithm1):
    return exhaustive_check_tasks(algorithm1, sizes=SIZES, reduction="grid")


@pytest.fixture()
def serial_reports(algorithm1, chaos_tasks):
    return execute_tasks(algorithm1, chaos_tasks)


def raw_records(path: Path) -> int:
    """Records in the journal file, duplicates included (read-only)."""
    return sum(1 for _ in iter_records(path.read_bytes())) if path.exists() else 0


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
# Journalled campaigns: kill/resume parity
# ---------------------------------------------------------------------------
class TestJournalledCampaigns:
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

    @pytest.mark.parametrize("route", ["pool", "workers", "backend"])
    def test_a_raising_task_keeps_the_verdicts_committed_before_it(
        self, tmp_path, route, algorithm1, chaos_tasks, serial_reports
    ):
        # Workers resolve tasks by name, so an unknown one raises there.
        path = tmp_path / "sweep.journal"
        broken = chaos_tasks[:2] + [CampaignTask("no_such_algorithm", 3, 3)] + chaos_tasks[2:]
        with ExplorationPool(workers=2) as pool, PoolBackend(pool) as backend:
            # chunksize=1: the pool routes commit per result, the backend
            # route per wave of two, so both have the first two on disk.
            engine = {
                "pool": partial(ParallelCampaignEngine, pool=pool),
                "workers": partial(ParallelCampaignEngine, workers=2),
                "backend": partial(ParallelCampaignEngine, backend=backend),
            }[route](chunksize=1)
            with pytest.raises(KeyError, match="no_such_algorithm"):
                engine.run_tasks(algorithm1, broken, journal=path)
            assert raw_records(path) == 2
            assert engine.run_tasks(algorithm1, chaos_tasks, journal=path) == serial_reports
        assert raw_records(path) == len(chaos_tasks)  # only the remainder ran

    def test_campaign_entry_points_accept_journal(self, tmp_path, algorithm1, serial_reports):
        from repro.verification import exhaustive_sweep

        path = tmp_path / "sweep.journal"
        first = exhaustive_sweep(algorithm1, sizes=SIZES, reduction="grid", journal=path)
        resumed = exhaustive_sweep(algorithm1, sizes=SIZES, reduction="grid", journal=path)
        assert first.reports == serial_reports
        assert resumed.reports == serial_reports


# ---------------------------------------------------------------------------
# SIGKILL mid-campaign, resume in-process
# ---------------------------------------------------------------------------
ROOT = Path(__file__).resolve().parents[2]


def journalled_sweep(route: str, algorithm, path):
    """The :data:`SIZES` exhaustive sweep, journalled, on one commit route.

    ``serial`` commits per task in this process; ``pool`` per result as a
    persistent :class:`ExplorationPool`'s ``imap`` streams them back;
    ``workers`` likewise from a per-call pool; ``backend`` per wave of a
    :class:`PoolBackend`.
    """
    sweep = partial(ParallelCampaignEngine.exhaustive_sweep, sizes=SIZES, reduction="grid", journal=path)
    if route == "pool":
        with ExplorationPool(workers=2) as pool:
            return sweep(ParallelCampaignEngine(pool=pool), algorithm)
    if route == "backend":
        with PoolBackend(workers=2) as backend:
            return sweep(ParallelCampaignEngine(backend=backend), algorithm)
    return sweep(ParallelCampaignEngine(workers=2 if route == "workers" else 1), algorithm)


#: Runs :func:`journalled_sweep` with a long pause after each durable
#: append, so the parent's SIGKILL lands between committed verdicts while
#: the sweep is still running.
SWEEP_SCRIPT = """
import sys
import time

from repro.algorithms import get
from repro.engine import CampaignJournal
from tests.engine.test_journal import journalled_sweep

durable_put = CampaignJournal.put


def put_then_pause(self, key, value):
    durable_put(self, key, value)
    time.sleep(60)


CampaignJournal.put = put_then_pause
journalled_sweep(sys.argv[1], get("fsync_phi2_l2_chir_k2"), sys.argv[2])
"""


class TestKillAndResume:
    @pytest.mark.parametrize("route", ["serial", "pool", "workers", "backend"])
    def test_sigkilled_sweep_resumes_without_recomputing(
        self, tmp_path, route, algorithm1, chaos_tasks, serial_reports
    ):
        path = tmp_path / "sweep.journal"
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

        resumed = journalled_sweep(route, algorithm1, path)
        assert resumed.reports == serial_reports
        # Only the remainder ran: a full recompute would append
        # len(tasks) more records on top of the killed run's.
        assert raw_records(path) == len(chaos_tasks)
