"""Benchmark package: the whole-run harness, ``python3 -m benchmarks.e2e``."""
