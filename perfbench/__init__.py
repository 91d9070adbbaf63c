"""The repository benchmark: seeded closed-loop workloads on the simulated
kernel, an end-to-end scoreboard and a traced per-layer ledger.

Run ``python3 perfbench/run.py --workload fs-mac --seed 1 --seconds 10
--trace 0`` from the repository root; see ``perfbench/README.md``.
"""
