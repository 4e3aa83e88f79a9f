"""Shared infrastructure for the benchmark harness.

Benches reproduce the paper's tables and figures; the sweep figures
read their grids from :data:`repro.sim.experiments.FIGURES`. Every
(mix, policy) run goes through one path, :meth:`BenchContext.sweep`:
the runs no earlier bench produced fan out across worker processes via
:func:`repro.sim.parallel.run_jobs` (the engine under ``run_sweep``),
and the outcomes are memoized for the whole pytest session by content
— config fingerprint, runner settings, mix and policy — so a run two
figures read (Figures 9-11, the Figure 12 bound that equals the
default, ...) is simulated once. Traces and baselines also go through
the content-keyed on-disk cache (``.repro_cache/`` by default —
override with ``REPRO_BENCH_CACHE``, or set it to the empty string to
disable), so they survive across sessions. Benches that build their
own governor objects call a default-config
:class:`~repro.sim.runner.ExperimentRunner` (:func:`bench_runner`).

Scale control: set ``REPRO_BENCH_INSTR`` (instructions per core, default
120000) to trade fidelity for wall-clock time, and ``REPRO_BENCH_JOBS``
to set the sweep worker count.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from repro.config import SystemConfig, scaled_config
from repro.sim.cache import (DEFAULT_CACHE_DIR, ExperimentCache,
                             config_fingerprint, content_digest)
from repro.sim.jobs import SweepOutcome, policy_specs, split_outcomes
from repro.sim.parallel import default_jobs, run_jobs
from repro.sim.runner import ExperimentRunner, RunnerSettings

DEFAULT_INSTRUCTIONS = int(os.environ.get("REPRO_BENCH_INSTR", "120000"))
BENCH_SEED = 2011

#: On-disk artifact cache shared by all benches ("" disables it).
BENCH_CACHE_DIR = os.environ.get("REPRO_BENCH_CACHE", DEFAULT_CACHE_DIR) or None

#: Worker processes for the parallel sweeps.
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", str(default_jobs())))


def bench_settings(cores: int = 16) -> RunnerSettings:
    """Runner settings at the bench scale for ``cores`` cores."""
    return RunnerSettings(cores=cores,
                          instructions_per_core=DEFAULT_INSTRUCTIONS,
                          seed=BENCH_SEED)


def bench_runner() -> ExperimentRunner:
    """A default-config runner on the bench scale and disk cache."""
    cache = ExperimentCache(BENCH_CACHE_DIR) if BENCH_CACHE_DIR else None
    return ExperimentRunner(settings=bench_settings(), cache=cache)


class BenchContext:
    """Session-wide memo of sweep outcomes, keyed by content."""

    def __init__(self):
        self._outcomes: Dict[str, SweepOutcome] = {}

    def sweep(self, mixes: Sequence[str], policies: Sequence[str],
              config: Optional[SystemConfig] = None,
              cores: int = 16) -> List[SweepOutcome]:
        """Outcomes of every (mix, policy) run on ``config`` (default:
        the scaled Table 2 configuration) at ``cores`` cores, in
        ``(mix, policy)`` order. Only the runs not yet memoized are
        executed, all in one parallel job list."""
        config = config if config is not None else scaled_config()
        settings = bench_settings(cores)
        config_hash = content_digest(config_fingerprint(config))
        settings_hash = content_digest(dataclasses.asdict(settings))
        specs = policy_specs(mixes, policies)
        keys = [spec.key(config_hash, settings_hash) for spec in specs]
        todo = [spec for spec, key in zip(specs, keys)
                if key not in self._outcomes]
        if todo:
            good, failed = split_outcomes(run_jobs(
                todo, config=config, settings=settings, jobs=BENCH_JOBS,
                cache_dir=BENCH_CACHE_DIR))
            if failed:
                raise RuntimeError("\n".join(f.summary() for f in failed))
            for o in good:
                self._outcomes[o.spec.key(config_hash, settings_hash)] = o
        return [self._outcomes[key] for key in keys]


_CONTEXT = BenchContext()


@pytest.fixture(scope="session")
def ctx() -> BenchContext:
    return _CONTEXT


def savings_and_worst(outcomes: Sequence[SweepOutcome]
                      ) -> Tuple[float, float]:
    """(mean system energy savings, worst CPI increase) of ``outcomes``."""
    savings = [o.comparison.system_energy_savings for o in outcomes]
    worst = [o.comparison.worst_cpi_increase for o in outcomes]
    return sum(savings) / len(savings), max(worst)


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, iterations=1, rounds=1)
