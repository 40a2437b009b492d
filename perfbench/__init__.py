"""Benchmark harness for noisespectra; run it with ``python3 perfbench/run.py``."""
