"""Adaptive overhead governor: the bound holds while offered load sweeps.

DESIGN §5.8's contract is a *budget*, not a hope: with
``overhead_budget=B`` set, monitoring may spend at most ``B`` of wall
time, enforced by the graduated shedding ladder (sample instantiation →
journal-only demotion → shed).  This bench measures that contract
directly, using the governor's own clock-based accounting (spend seconds
/ wall seconds since a measurement mark):

* the **offered event load** sweeps two orders of magnitude — the same
  application loop emits 1×, 10× and 100× monitoring events per
  operation, so the event rate per unit wall time spans ~100× —
* at every load point the **governed** runtime (``overhead_budget=0.10``)
  must hold measured overhead within the budget plus one percentage
  point, after a convergence warmup, while
* the **ungoverned baseline** — ``overhead_budget=1.0``, which arms the
  identical accounting but can never escalate (spend/wall cannot exceed
  1) — exceeds the budget at the same load, i.e. the bound is doing real
  work, not measuring an idle monitor.

Smoke mode (``TESLA_BENCH_SMOKE=1``, used by CI) runs the single highest
load point with a shorter warmup and keeps both assertions.
"""

from __future__ import annotations

import os
import time

from repro.core.dsl import ANY, call, fn, previously, returnfrom, tesla_global
from repro.core.events import call_event, return_event
from repro.runtime.manager import TeslaRuntime
from repro.runtime.notify import LogAndContinue

from conftest import emit

SMOKE = os.environ.get("TESLA_BENCH_SMOKE") == "1"
BUDGET = 0.10
TOLERANCE = 0.01  # the "±1 percentage point" of the acceptance bar
#: Offered-load multipliers: monitoring events per op scale 1× → 100×.
LOADS = (100,) if SMOKE else (1, 10, 100)
WARMUP_SECONDS = 0.2 if SMOKE else 0.5
MEASURE_SECONDS = 0.3 if SMOKE else 0.8
N_CLASSES = 6
BOUND = "gov_syscall"
#: Application work per op (a deterministic arithmetic loop): the wall
#: time monitoring overhead is measured against.
APP_ITERS = 120


def _assertions():
    return [
        tesla_global(
            call(BOUND),
            returnfrom(BOUND),
            previously(fn(f"gov_check{i}", ANY("c")) == 0),
            name=f"gov_cls{i}",
        )
        for i in range(N_CLASSES)
    ]


def _runtime(budget):
    runtime = TeslaRuntime(
        policy=LogAndContinue(),
        lazy=True,
        compile=True,
        overhead_budget=budget,
    )
    runtime.install_assertions(_assertions())
    return runtime


def _app_work(acc):
    for i in range(APP_ITERS):
        acc = (acc + i * i) % 1000003
    return acc


def _run(runtime, load, seconds):
    """Drive ops for ``seconds`` of wall time; returns (ops, checksum)."""
    handle = runtime.handle_event
    events = [
        return_event(f"gov_check{i % N_CLASSES}", ("c",), 0)
        for i in range(load)
    ]
    enter = call_event(BOUND, ())
    leave = return_event(BOUND, (), 0)
    acc = ops = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        acc = _app_work(acc)
        handle(enter)
        for event in events:
            handle(event)
        handle(leave)
        ops += 1
    return ops, acc


def _measure(budget, load):
    """Converge, mark, measure: the governor's own spend/wall ratio."""
    runtime = _runtime(budget)
    gov = runtime.governor
    _run(runtime, load, WARMUP_SECONDS)
    gov.begin_measurement()
    ops, _ = _run(runtime, load, MEASURE_SECONDS)
    ratio = gov.measured_ratio()
    report = gov.report()
    runtime.reset()
    return ratio, ops, report


def test_governor_bound_holds(results_dir):
    lines = [
        f"overhead governor: budget={BUDGET:.0%} tolerance={TOLERANCE:.0%} "
        f"classes={N_CLASSES} loads={LOADS}",
        "",
        f"{'label':<34} {'value':>10}",
    ]
    failures = []
    for load in LOADS:
        base_ratio, base_ops, _ = _measure(1.0, load)
        gov_ratio, gov_ops, report = _measure(BUDGET, load)
        degraded = (
            len(report["sampled"])
            + len(report["demoted"])
            + len(report["shed"])
        )
        lines.append(f"{f'load_x{load}_ungoverned_pct':<34} {base_ratio * 100:>10.2f}")
        lines.append(f"{f'load_x{load}_governed_pct':<34} {gov_ratio * 100:>10.2f}")
        lines.append(f"{f'load_x{load}_ungoverned_ops':<34} {base_ops:>10}")
        lines.append(f"{f'load_x{load}_governed_ops':<34} {gov_ops:>10}")
        lines.append(f"{f'load_x{load}_degraded_classes':<34} {degraded:>10}")
        lines.append(f"{f'load_x{load}_decisions':<34} {report['decisions']:>10}")
        if gov_ratio > BUDGET + TOLERANCE:
            failures.append(
                f"load x{load}: governed overhead {gov_ratio:.2%} exceeds "
                f"budget {BUDGET:.0%} + {TOLERANCE:.0%}"
            )
        if base_ratio <= BUDGET:
            failures.append(
                f"load x{load}: ungoverned baseline {base_ratio:.2%} does "
                f"not exceed the budget — the bound is not being tested"
            )
    emit(results_dir, "governor", "\n".join(lines))
    assert not failures, "; ".join(failures)
