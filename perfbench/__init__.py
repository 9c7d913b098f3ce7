"""Benchmark for shieldrl: four workloads, output checks, and a traced run.

Run it from the repository root with ``python3 perfbench/run.py``; see
``perfbench/README.md``.
"""
