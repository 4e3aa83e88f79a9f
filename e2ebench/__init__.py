"""Benchmark of record for the MemScale reproduction.

Runs the paper's evaluation workloads end to end through the public
simulator API and reports wall time, set-up time, memory, failures and
the simulated energy/CPI results. See ``e2ebench/README.md``.
"""
