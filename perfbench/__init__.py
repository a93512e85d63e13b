"""Benchmark of the repro system; run ``python3 perfbench/run.py --help``."""
