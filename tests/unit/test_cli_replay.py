"""Unit tests for ``python -m repro.cli replay``.

Exit-code contract: 0 — clean replay (an empty journal is a clean
no-op), 1 — violations reproduced or LTL-oracle disagreement, 2 —
unusable input (missing/corrupt journal, unknown config, no assertions).
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.dsl import (
    ANY,
    call,
    fn,
    previously,
    returnfrom,
    tesla_global,
    var,
)
from repro.core.events import (
    assertion_site_event,
    call_event,
    return_event,
)
from repro.core.manifest import UnitManifest, combine
from repro.runtime.journal import JOURNAL_VERSION
from repro.runtime.manager import TeslaRuntime
from repro.runtime.notify import LogAndContinue


def make_assertion():
    return tesla_global(
        call("cli_bound"),
        returnfrom("cli_bound"),
        previously(fn("cli_check", ANY("c"), var("v")) == 0),
        name="cli.assertion",
    )


def record(path, ops, install=True):
    """Record a journal at ``path`` from a simple op list."""
    runtime = TeslaRuntime(
        deferred="manual", journal=str(path), policy=LogAndContinue()
    )
    try:
        if install:
            runtime.install_assertions([make_assertion()])
        for op in ops:
            if op[0] == "init":
                runtime.handle_event(call_event("cli_bound", ()))
            elif op[0] == "cleanup":
                runtime.handle_event(return_event("cli_bound", (), 0))
            elif op[0] == "check":
                runtime.handle_event(
                    return_event("cli_check", ("c", op[1]), 0)
                )
            else:  # site
                runtime.handle_event(
                    assertion_site_event("cli.assertion", {"v": op[1]})
                )
        runtime.flush_deferred()
        runtime.close_journal()
    finally:
        runtime.reset()


CLEAN_OPS = [("init",), ("check", 4), ("site", 4), ("cleanup",)]
VIOLATING_OPS = [
    ("init",), ("check", 4), ("site", 4), ("site", 5), ("cleanup",),
]


class TestExitCodes:
    def test_clean_journal_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.tjournal"
        record(path, CLEAN_OPS)
        assert main(["replay", str(path)]) == 0
        out = capsys.readouterr().out
        assert "verdict: clean" in out
        assert "agrees" in out

    def test_violations_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.tjournal"
        record(path, VIOLATING_OPS)
        assert main(["replay", str(path)]) == 1
        out = capsys.readouterr().out
        assert "violation(s) reproduced" in out
        assert "no automaton instance could accept" in out

    def test_empty_journal_is_clean_noop(self, tmp_path, capsys):
        path = tmp_path / "empty.tjournal"
        record(path, [], install=False)
        assert main(["replay", str(path)]) == 0
        out = capsys.readouterr().out
        assert "empty journal: nothing to replay" in out

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["replay", str(tmp_path / "nope.tjournal")]) == 2
        assert "error:" in capsys.readouterr().out

    def test_corrupt_journal_exits_two(self, tmp_path, capsys):
        path = tmp_path / "cut.tjournal"
        source = tmp_path / "ok.tjournal"
        record(source, CLEAN_OPS)
        path.write_bytes(source.read_bytes()[:40])
        assert main(["replay", str(path)]) == 2
        assert "error:" in capsys.readouterr().out

    def test_unknown_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "ok.tjournal"
        record(path, CLEAN_OPS)
        assert main(["replay", str(path), "--config", "warp"]) == 2
        assert "unknown replay config" in capsys.readouterr().out

    def test_journal_without_assertions_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bare.tjournal"
        record(path, CLEAN_OPS, install=False)
        assert main(["replay", str(path)]) == 2
        assert "no assertion manifest" in capsys.readouterr().out


class TestOptions:
    def test_manifest_supplies_assertions(self, tmp_path, capsys):
        journal = tmp_path / "bare.tjournal"
        record(journal, CLEAN_OPS, install=False)
        manifest = combine(
            [UnitManifest(unit="cli", assertions=[make_assertion()])]
        ).save(tmp_path / "cli.tesla.json")
        assert (
            main(["replay", str(journal), "--manifest", str(manifest)]) == 0
        )
        assert "cli.assertion" in capsys.readouterr().out

    def test_every_named_config_replays(self, tmp_path, capsys):
        path = tmp_path / "ok.tjournal"
        record(path, VIOLATING_OPS)
        for config in ("naive", "lazy", "codegen", "deferred"):
            assert main(["replay", str(path), "--config", config]) == 1
            assert f"replay [{config}]" in capsys.readouterr().out

    def test_no_oracle_skips_cross_check(self, tmp_path, capsys):
        path = tmp_path / "ok.tjournal"
        record(path, CLEAN_OPS)
        assert main(["replay", str(path), "--no-oracle"]) == 0
        assert "oracle" not in capsys.readouterr().out

    def test_tolerate_tail_replays_truncated_prefix(self, tmp_path, capsys):
        source = tmp_path / "ok.tjournal"
        record(source, CLEAN_OPS)
        data = source.read_bytes()
        cut = tmp_path / "cut.tjournal"
        # Drop the footer record (last frame) only: events stay intact.
        body = json.dumps(
            {"events": 4, "records": 7}
        )  # length probe not needed; cut conservatively
        cut.write_bytes(data[: len(data) - (len(body) + 9)])
        code = main(["replay", str(cut), "--tolerate-tail"])
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "NO clean close" in out
        assert "tail:" in out


class TestAtSeqno:
    def test_state_dump_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "ok.tjournal"
        record(path, VIOLATING_OPS)
        assert main(["replay", str(path), "--at-seqno", "2"]) == 0
        out = capsys.readouterr().out
        assert "state at seqno 2" in out
        assert "cli.assertion" in out
        assert "saw_site=" in out

    def test_state_dump_json(self, tmp_path, capsys):
        path = tmp_path / "ok.tjournal"
        record(path, VIOLATING_OPS)
        assert main(["replay", str(path), "--at-seqno", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seqno"] == 2
        assert payload["events_replayed"] == 3
        [cls] = payload["classes"]
        assert cls["automaton"] == "cli.assertion"
        assert cls["active"] is True
        # Mid-window, after the check and the satisfied site: the
        # wildcard instance plus the bound instance that saw the site.
        assert any(inst["saw_site"] for inst in cls["instances"])


class TestJsonSchema:
    def test_payload_shape(self, tmp_path, capsys):
        path = tmp_path / "bad.tjournal"
        record(path, VIOLATING_OPS)
        assert main(["replay", str(path), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "journal", "replay", "oracle", "oracle_agrees", "status",
        }
        assert payload["status"] == 1
        assert payload["oracle_agrees"] is True
        assert payload["journal"]["clean_close"] is True
        assert payload["journal"]["version"] == JOURNAL_VERSION
        replay = payload["replay"]
        assert replay["config"] == "naive"
        cls = replay["classes"]["cli.assertion"]
        assert cls["errors"] == 1
        assert len(cls["violations"]) == 1
        oracle = payload["oracle"]["cli.assertion"]
        assert oracle["violations"] == [{"seqno": 3, "kind": "site"}]
        assert oracle["agrees_with_replay"] is True
