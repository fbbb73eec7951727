"""Benchmark harness for the driftband CLI.

Run it from the repository root as ``python3 perfbench/run.py --workload
<name> --seed <n> --seconds <s> --trace <0|1>``; see ``run.py``.
"""
