"""The benchmark's own tests: generator determinism, the correctness gate,
and the printed metric set.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness  # noqa: E402
from perfbench.ops import EXTATTR_BUG, KEVENT_BUG, WORKLOADS, generate  # noqa: E402
from repro.runtime.notify import LogAndContinue  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


class DropFirst(LogAndContinue):
    """A policy that swallows the first violation it is given."""

    def __init__(self) -> None:
        super().__init__()
        self.dropped = False

    def on_violation(self, violation) -> None:
        if not self.dropped:
            self.dropped = True
            return
        super().on_violation(violation)


@pytest.fixture(autouse=True)
def no_pinning(monkeypatch):
    """Keep the test process's CPU affinity as it was."""
    monkeypatch.setattr(harness, "pin_to_one_cpu", lambda: None)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_same_ops(workload):
    assert generate(workload, 7) == generate(workload, 7)
    assert generate(workload, 7) != generate(workload, 8)


def test_pass_mix_is_fixed_and_bug_ops_carry_expectations():
    for name, spec in WORKLOADS.items():
        stream = generate(name, 3)
        counts = {}
        for op in stream.ops:
            counts[op.kind] = counts.get(op.kind, 0) + 1
        assert counts == spec.pass_mix
        for op in stream.ops + stream.warm:
            assert op.expect == spec.expect.get(op.kind, ())
    mac, idle = generate("fs-mac", 3), generate("fs-idle", 3)
    assert [(o.kind, o.target, o.payload) for o in mac.ops] == [
        (o.kind, o.target, o.payload) for o in idle.ops]
    assert any(o.expect for o in mac.ops if o.kind == EXTATTR_BUG)
    assert not any(o.expect for o in idle.ops)
    assert all(o.expect for o in generate("oltp-journal", 3).ops
               if o.kind == KEVENT_BUG)


@pytest.mark.parametrize("workload", ["fs-mac", "fs-idle"])
def test_clean_run_passes_the_ledger(workload, tmp_path):
    run = harness.Run(workload, 5, 0.05, False, reps=1, work_dir=tmp_path)
    run.execute()
    assert run.ledger.failed == 0, run.ledger.notes
    assert run.ledger.attempted > 0


def test_swallowed_violation_fails_fs_mac(tmp_path):
    run = harness.Run("fs-mac", 5, 0.05, False, policy_factory=DropFirst,
                      reps=1, work_dir=tmp_path)
    run.execute()
    assert run.ledger.failed == 1, run.ledger.notes
    assert harness.result_line(run, False)["correct"] is False


def test_swallowed_violation_fails_every_oltp_op(tmp_path):
    """The live check flags the op, and the journal replay, which sees the
    swallowed violation, then disagrees with the live verdicts."""
    run = harness.Run("oltp-journal", 5, 0.05, False, policy_factory=DropFirst,
                      reps=1, work_dir=tmp_path)
    run.execute()
    assert run.replay_mismatches
    assert run.ledger.failed == run.ledger.attempted > 0


def test_clean_oltp_replay_agrees_and_oracle_refuses_loudly(tmp_path):
    run = harness.Run("oltp-journal", 5, 0.05, False, reps=1, work_dir=tmp_path)
    run.execute()
    assert run.ledger.failed == 0, run.ledger.notes
    assert run.replay["events"] > 0
    assert run.replay["replay.oracle_refused"] >= 1
    assert not list(tmp_path.glob("*.tj"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_benchmark_metric_is_printed_with_its_unit(
        workload, trace, monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(harness, "REPS", 2)
    monkeypatch.setattr(harness, "WORK_DIR", tmp_path)
    code = harness.main(["--workload", workload, "--seed", "1",
                         "--seconds", "0.05", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    for metric in declared:
        assert any(line.split()[:1] == [metric["name"]] for line in lines)
    provenance = json.loads(lines[-2])["provenance"]
    for key in ("seed", "mode", "python", "git_revision", "nproc",
                "runtime_config", "samples", "latency_samples"):
        assert key in provenance


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fs-mac", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_release_passes_run_with_the_monitor_detached(tmp_path):
    from repro.instrument.module import Instrumenter
    from repro.kernel import assertion_sets
    from repro.runtime.manager import TeslaRuntime

    spec = WORKLOADS["fs-mac"]
    stream = generate("fs-mac", 2)
    assertions = assertion_sets()["All"]
    runtime = TeslaRuntime(policy=LogAndContinue())
    session = Instrumenter(runtime)
    session.instrument(assertions)
    try:
        state = spec.make_state()
        before = runtime.events_processed
        with harness.uninstrumented(session.translator, assertions):
            for op in stream.ops[:50]:
                assert spec.run_op(state, op)
            assert runtime.events_processed == before
        spec.run_op(state, stream.ops[0])
        assert runtime.events_processed > before
    finally:
        session.uninstrument()


def test_self_time_excludes_child_spans():
    from perfbench import spans

    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(1000)))

    def outer():
        sum(range(1000))
        return inner()

    tracer.wrap("outer", outer)()
    tracer.wrap("outer", outer)()
    rows = tracer.take()
    assert [(r[0], r[3], r[4]) for r in rows] == [
        ("outer", -1, 0), ("inner", 0, 0), ("outer", -1, 1), ("inner", 2, 1)]
    agg = spans.self_times(rows)
    assert agg["outer"][0] == agg["inner"][0] == 2
    assert agg["outer"][2] == pytest.approx(agg["outer"][1] - agg["inner"][1])
    assert agg["inner"][2] == agg["inner"][1]
    assert tracer.take() == []
