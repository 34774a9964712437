"""Shared configuration for the pytest-benchmark modules in this directory.

Each ``bench_*.py`` module except ``bench_scaling.py`` times one experiment
of the paper and asserts its qualitative claim, so
``pytest benchmarks/bench_*.py --benchmark-disable`` doubles as a
reproduction run.  ``bench_scaling.py`` is a script that writes
``BENCH_scaling.json``.  Every timed call computes its result from scratch:
no result is memoized across calls.
"""
