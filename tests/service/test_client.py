"""The CLI client: scripting exit codes, payload building, streaming.

``main(argv)`` is exercised in-process against a live threaded server —
real HTTP requests, capturable stdout, no subprocess overhead.  (The
service smoke run, ``make serve-smoke``, covers the same client as a real
subprocess.)
"""

from __future__ import annotations

import json

import pytest

from repro.service.client import (
    EXIT_OK,
    EXIT_REJECTED,
    EXIT_UNAVAILABLE,
    EXIT_VERDICT_FAILED,
    ClientError,
    ServiceClient,
    main,
)

ALGORITHM = "fsync_phi2_l2_chir_k2"


def run_cli(harness, *argv: str) -> int:
    return main(["--url", harness.url, *argv])


def check_args(*extra: str):
    return ["check", "--algorithm", ALGORITHM, "--grid", "3x3", "--reduction", "grid", *extra]


class TestExitCodes:
    def test_passing_check_exits_zero_with_the_verdict_on_stdout(self, harness, capsys):
        assert run_cli(harness, *check_args()) == EXIT_OK
        body = json.loads(capsys.readouterr().out)
        assert body["verdict"]["ok"] is True
        assert body["verdict"]["algorithm"] == ALGORITHM

    def test_failing_verdict_exits_one(self, harness, capsys):
        # The FSYNC algorithm does not terminate under SSYNC: a *successful*
        # request whose verdict is negative — exit 1, not an error code.
        assert run_cli(harness, *check_args("--model", "SSYNC")) == EXIT_VERDICT_FAILED
        assert json.loads(capsys.readouterr().out)["verdict"]["ok"] is False

    def test_rejected_spec_exits_two_and_names_the_field(self, harness, capsys):
        assert run_cli(harness, *check_args("--model", "WARP")) == EXIT_REJECTED
        assert "model" in capsys.readouterr().err

    def test_unreachable_service_exits_three(self, capsys):
        assert main(["--url", "http://127.0.0.1:1", "--retries", "0", "health"]) == EXIT_UNAVAILABLE
        assert "unreachable" in capsys.readouterr().err


class TestCampaignWorkflow:
    def test_submit_tail_await_round_trip(self, harness, capsys):
        submit = [
            "submit", "--algorithm", ALGORITHM,
            "--campaign", "grid_sweep", "--sizes", "2x3,3x3", "--id-only",
        ]
        assert run_cli(harness, *submit) == EXIT_OK
        run_id = capsys.readouterr().out.strip()
        assert len(run_id) == 16

        assert run_cli(harness, "tail", run_id) == EXIT_OK
        events = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [e["event"] for e in events].count("task") == 2
        assert events[-1]["event"] == "done" and events[-1]["ok"] is True

        assert run_cli(harness, "await", run_id) == EXIT_OK
        status = json.loads(capsys.readouterr().out)
        assert status["state"] == "done" and status["completed"] == 2

    def test_submit_accepts_a_raw_json_spec(self, harness, capsys):
        spec = json.dumps(
            {"algorithm": ALGORITHM, "campaign": "grid_sweep", "sizes": [[3, 3]]}
        )
        assert run_cli(harness, "submit", "--spec", spec) == EXIT_OK
        body = json.loads(capsys.readouterr().out)
        assert body["total"] == 1

    def test_submit_without_algorithm_or_spec_is_a_usage_error(self, harness, capsys):
        assert run_cli(harness, "submit") == EXIT_REJECTED
        assert "--algorithm" in capsys.readouterr().err

    def test_malformed_spec_json_is_a_usage_error(self, harness, capsys):
        assert run_cli(harness, "submit", "--spec", "{nope") == EXIT_REJECTED
        assert "valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("since", ["0", "2"])
    def test_tail_of_a_failed_run_exits_three_from_any_cursor(self, harness, failed_campaign, capsys, since):
        assert run_cli(harness, "tail", failed_campaign, "--since", since) == EXIT_UNAVAILABLE
        events = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert events[-1]["event"] == "error"

    def test_await_unknown_campaign_exits_two(self, harness, capsys):
        assert run_cli(harness, "await", "feedfacefeedface") == EXIT_REJECTED


class TestUtilityCommands:
    def test_health_and_stats(self, harness, capsys):
        assert run_cli(harness, "health") == EXIT_OK
        assert json.loads(capsys.readouterr().out)["ok"] is True
        assert run_cli(harness, "stats") == EXIT_OK
        assert "store" in json.loads(capsys.readouterr().out)

    def test_the_retired_explore_subcommand_exits_two(self, harness, capsys):
        argv = ["explore", "--algorithm", ALGORITHM, "--grid", "3x3", "--reduction", "grid"]
        with pytest.raises(SystemExit) as excinfo:
            run_cli(harness, *argv)
        assert excinfo.value.code == EXIT_REJECTED
        assert "explore" in capsys.readouterr().err
        assert harness.service.requests == {}  # nothing reached the server

    def test_bad_grid_spelling_is_an_argparse_error(self, harness):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(harness, "check", "--algorithm", ALGORITHM, "--grid", "wide")
        assert excinfo.value.code == 2


class TestServiceClientRetry:
    def test_429_is_retried_after_the_advertised_delay(self, harness_factory):
        limited = harness_factory(rate=2.0, burst=1)
        client = ServiceClient(limited.url, retries=3)
        client.stats()  # spends the single-token burst
        # The next call is rejected with Retry-After: 1, slept through, and
        # then succeeds — no ClientError surfaces.
        assert "store" in client.stats()
        assert limited.service.limiter.stats["rejected"] >= 1

    def test_retries_exhausted_surfaces_the_429(self, harness_factory):
        limited = harness_factory(rate=0.001, burst=1)
        client = ServiceClient(limited.url, retries=0)
        client.stats()
        with pytest.raises(ClientError) as excinfo:
            client.stats()
        assert excinfo.value.exit_code == EXIT_REJECTED
        assert "429" in str(excinfo.value)
