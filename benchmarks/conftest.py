"""Shared benchmark fixtures.

Each ``bench_*`` module reproduces one of the paper's tables or figures:
it measures the figure's configurations, prints the paper-style rows
(visible with ``-s``; always written to ``benchmarks/results/``), and
asserts the *shape* claims recorded in EXPERIMENTS.md.  Absolute numbers
differ from the paper (Python vs C/LLVM on different hardware); orderings
and rough factors are what these benches check.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.gui.cursor import NSCursor
from repro.instrument.fields import field_registry
from repro.instrument.hooks import hook_registry, site_registry
from repro.instrument.interpose import interposition_table
from repro.kernel.bugs import bugs
from repro.kernel.mac.framework import mac_framework
from repro.kernel.procfs import procfs_unmount
from repro.runtime.epoch import interest_stats
from repro.runtime.manager import reset_all_runtimes

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(autouse=True)
def clean_global_state():
    yield
    hook_registry.detach_all()
    site_registry.detach_all()
    field_registry.detach_all()
    interposition_table.clear()
    bugs.disable_all()
    mac_framework.unregister_all()
    procfs_unmount()
    NSCursor.reset_stack()
    reset_all_runtimes()
    interest_stats.reset()


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def interleaved_samples(samplers, repeats: int, warmup: int = 1) -> dict:
    """Every sample of :func:`interleaved_best`, in round order.

    Returns ``{label: [seconds, ...]}``; index ``i`` of every list comes
    from the same interleaved round, so zipping two labels gives adjacent
    pairs for a per-pair ratio.
    """
    import gc

    items = list(samplers.items())
    for _ in range(warmup):
        for _, sample in items:
            sample()
    samples: dict = {label: [] for label, _ in items}
    gc.disable()
    try:
        for _ in range(repeats):
            for label, sample in items:
                samples[label].append(sample())
    finally:
        gc.enable()
    return samples


def interleaved_best(samplers, repeats: int, warmup: int = 1) -> dict:
    """GC-controlled, interleaved min-of-samples timing for ratio benches.

    Measuring one configuration's repeats in a block and then the next's
    lets clock drift (thermal, noisy neighbours, allocator warm-up) land
    entirely on whichever side ran later and swamp the ratio under test,
    so samples are taken interleaved (A/B/C, A/B/C, …).  Each side's
    estimate is its best observed sample: for a ratio of deterministic
    workloads, noise only ever adds time, making min-of-samples the
    noise-robust estimator.  The collector is paused across the whole
    interleaved phase (each ``time_once`` sample still collects before
    it starts), so collection pauses triggered by one side's garbage
    never land on another side's sample.

    ``samplers`` maps label -> a zero-argument callable returning one
    wall-clock sample in seconds — typically ``lambda: time_once(fn)``,
    or a wrapper that arms/tears down state outside the timed region.
    Each sampler runs ``warmup`` times untimed first.  Returns
    ``{label: best_seconds}``.
    """
    samples = interleaved_samples(samplers, repeats, warmup)
    return {label: min(values) for label, values in samples.items()}


def emit(results_dir: pathlib.Path, name: str, text: str) -> None:
    """Print a figure's table and persist it for EXPERIMENTS.md.

    Alongside the human-readable table, any ``label  <number>[ unit]``
    rows are also captured into ``<name>.json`` so downstream plotting can
    consume the figures without re-parsing the text.  Smoke runs
    (``TESLA_BENCH_SMOKE=1``) only print: their shrunken counts must
    never overwrite a committed full-mode result.
    """
    import json
    import os
    import re

    print("\n" + text)
    if os.environ.get("TESLA_BENCH_SMOKE") == "1":
        return
    (results_dir / f"{name}.txt").write_text(text + "\n")
    rows = {}
    for line in text.splitlines():
        match = re.match(
            r"^(?P<label>[A-Za-z(][\w ()+/.-]*?)\s{2,}(?P<value>-?\d+(?:\.\d+)?)",
            line,
        )
        if match:
            rows[match.group("label").strip()] = float(match.group("value"))
    if rows:
        (results_dir / f"{name}.json").write_text(
            json.dumps(rows, indent=1, sort_keys=True) + "\n"
        )
