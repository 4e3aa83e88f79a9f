"""Programmatic experiment API: the paper's sweep figures as data.

Every sweep figure of the evaluation (Section 4) is a grid of
independent (mix x policy) runs, each judged against the mix's all-on
baseline; the sensitivity figures (12-15) repeat the grid over named
config variants. :data:`FIGURES` declares each figure once and
:func:`run_figure` runs its grids through
:func:`~repro.sim.parallel.run_sweep`, the parallel job path
``repro sweep`` and the benchmark harness also use; ``repro figure``
and the figure benches read their grids from :data:`FIGURES`. Figures 7/8
(:func:`timeline`) and the static oracle
(:func:`best_static_frequency`) read single runs of one runner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import SystemConfig, scaled_config
from repro.core.baselines import StaticFrequencyGovernor
from repro.cpu.workloads import MIXES, mix_names
from repro.sim.cache import DEFAULT_CACHE_DIR
from repro.sim.jobs import SweepOutcome
from repro.sim.parallel import PathLike, run_sweep
from repro.sim.results import PolicyComparison
from repro.sim.runner import ExperimentRunner, RunnerSettings


@dataclass(frozen=True)
class Figure:
    """One sweep figure: its (mix x policy) grid and, for a sensitivity
    figure, the named config variants the grid repeats over."""

    name: str
    mixes: Tuple[str, ...]
    policies: Tuple[str, ...] = ("MemScale",)
    #: The swept config parameter; None for a single-grid figure.
    param: Optional[str] = None
    values: Tuple[float, ...] = ()
    #: ``(base config, value) -> the variant's config``.
    vary: Optional[Callable[[SystemConfig, float], SystemConfig]] = None
    notes: str = ""

    def variants(self, config: SystemConfig
                 ) -> List[Tuple[Optional[float], SystemConfig]]:
        """``(value, config)`` of every grid, in figure order."""
        if self.vary is None:
            return [(None, config)]
        return [(value, self.vary(config, value)) for value in self.values]

    def title(self, value: Optional[float]) -> str:
        """Report title of the grid at ``value``."""
        if value is None:
            return self.name
        return f"{self.name}: {self.param}={value:g}"


_MID = tuple(mix_names("MID"))

_ENERGY = Figure(
    "fig5_6_energy_savings", tuple(MIXES),
    notes="MemScale vs all-on baseline at the configured CPI bound")

_POLICIES = Figure(
    "fig9_11_policy_comparison", _MID,
    policies=("Fast-PD", "Slow-PD", "Decoupled", "Static",
              "MemScale(MemEnergy)", "MemScale", "MemScale+Fast-PD"),
    notes="all policies on identical traces, vs the all-on baseline")

#: Figure number -> its declaration; figures drawn from the same runs
#: share one entry.
FIGURES: Dict[int, Figure] = {
    5: _ENERGY, 6: _ENERGY,
    9: _POLICIES, 10: _POLICIES, 11: _POLICIES,
    12: Figure("fig12_cpi_bound", _MID, param="cpi_bound",
               values=(0.01, 0.05, 0.10, 0.15),
               vary=lambda config, bound:
                   config.with_policy(cpi_bound=bound)),
    # About 8 DIMMs in every variant: the paper varies the channel
    # count, not the memory capacity.
    13: Figure("fig13_channels", _MID, param="channels", values=(2, 3, 4),
               vary=lambda config, channels: config.with_org(
                   channels=channels,
                   dimms_per_channel=max(1, round(8 / channels)))),
    14: Figure("fig14_memory_fraction", _MID, param="memory_fraction",
               values=(0.30, 0.40, 0.50),
               vary=lambda config, fraction:
                   config.with_power(memory_power_fraction=fraction)),
    15: Figure("fig15_proportionality", _MID, param="idle_frac",
               values=(0.0, 0.5, 1.0),
               vary=lambda config, idle:
                   config.with_power(proportionality_idle_frac=idle)),
}


def run_figure(figure: Figure, config: Optional[SystemConfig] = None,
               settings: Optional[RunnerSettings] = None,
               jobs: Optional[int] = None,
               cache_dir: Optional[PathLike] = DEFAULT_CACHE_DIR
               ) -> List[Tuple[Optional[float], List[SweepOutcome]]]:
    """Run every grid of ``figure`` through :func:`run_sweep`.

    Returns ``(value, outcomes)`` per variant, in figure order; each
    outcome list is in ``(mix, policy)`` order and may hold
    :class:`~repro.sim.jobs.JobFailure` records.
    """
    config = config if config is not None else scaled_config()
    return [(value, run_sweep(figure.mixes, figure.policies, config=cfg,
                              settings=settings, jobs=jobs,
                              cache_dir=cache_dir))
            for value, cfg in figure.variants(config)]


def timeline(runner: ExperimentRunner, mix: str
             ) -> Tuple[List[Dict[str, object]], PolicyComparison]:
    """Figures 7/8: per-epoch frequency / CPI / utilization rows of a
    MemScale run on ``mix``, plus the run's baseline comparison."""
    result, cmp = runner.run_memscale(mix)
    rows = [{
        "time_us": sample.time_ns / 1000.0,
        "bus_mhz": sample.bus_mhz,
        "app_cpi": dict(sample.app_cpi),
        "mean_channel_util": float(sample.channel_util.mean()),
        "memory_power_w": sample.memory_power_w,
    } for sample in result.timeline]
    return rows, cmp


def best_static_frequency(runner: ExperimentRunner, mix: str,
                          cpi_bound: Optional[float] = None
                          ) -> Tuple[float, PolicyComparison]:
    """The paper's hypothetical "manually tuned" static point: the lowest-
    energy static frequency that keeps every app within the bound.

    This is the unrealistic per-workload oracle Section 4.2.3 argues
    MemScale approximates without reboots.
    """
    if cpi_bound is None:
        cpi_bound = runner.config.policy.cpi_bound
    best: Optional[Tuple[float, PolicyComparison]] = None
    for bus_mhz in runner.config.sorted_bus_freqs():
        cmp = runner.compare(mix, StaticFrequencyGovernor(bus_mhz))
        if cmp.worst_cpi_increase > cpi_bound:
            continue
        if best is None or cmp.system_energy_savings > best[1].system_energy_savings:
            best = (bus_mhz, cmp)
    if best is None:
        raise RuntimeError(f"no static frequency satisfies the bound on {mix}")
    return best
