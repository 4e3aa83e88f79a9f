"""Programmatic experiment API.

High-level functions that regenerate each of the paper's result sets as
structured data (lists of row dicts). The benchmark harness prints the
same numbers; this module is the API a downstream user or the CLI calls
to run the experiments at any scale and post-process the results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.config import SystemConfig, scaled_config
from repro.core.baselines import StaticFrequencyGovernor
from repro.cpu.workloads import MIXES, mix_names
from repro.sim.results import PolicyComparison
from repro.sim.runner import ExperimentRunner, RunnerSettings


@dataclass
class ExperimentResult:
    """Structured output of one experiment: named rows plus notes."""

    name: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: str = ""

    def column(self, key: str) -> List[object]:
        return [row[key] for row in self.rows]


def _comparison_row(mix: str, cmp: PolicyComparison) -> Dict[str, object]:
    return {
        "workload": mix,
        "policy": cmp.governor,
        "memory_savings": cmp.memory_energy_savings,
        "system_savings": cmp.system_energy_savings,
        "avg_cpi_increase": cmp.avg_cpi_increase,
        "worst_cpi_increase": cmp.worst_cpi_increase,
    }


def energy_savings(runner: ExperimentRunner,
                   mixes: Optional[Sequence[str]] = None
                   ) -> ExperimentResult:
    """Figures 5 and 6: MemScale vs baseline for each mix."""
    mixes = list(mixes) if mixes is not None else list(MIXES)
    result = ExperimentResult(
        "fig5_6_energy_savings",
        notes="MemScale vs all-on baseline at the configured CPI bound")
    for mix in mixes:
        _, cmp = runner.run_memscale(mix)
        result.rows.append(_comparison_row(mix, cmp))
    return result


def policy_comparison(runner: ExperimentRunner,
                      mixes: Optional[Sequence[str]] = None,
                      policies: Optional[Sequence[str]] = None
                      ) -> ExperimentResult:
    """Figures 9-11: every policy vs the baseline on the given mixes."""
    mixes = list(mixes) if mixes is not None else mix_names("MID")
    if policies is None:
        policies = ["Fast-PD", "Slow-PD", "Decoupled", "Static",
                    "MemScale(MemEnergy)", "MemScale", "MemScale+Fast-PD"]
    result = ExperimentResult(
        "fig9_11_policy_comparison",
        notes="all policies on identical traces, vs the all-on baseline")
    for policy in policies:
        for mix in mixes:
            cmp = runner.compare_named(mix, policy)
            result.rows.append(_comparison_row(mix, cmp))
    return result


def _sweep(configs: Iterable[Tuple[object, SystemConfig]],
           settings: RunnerSettings,
           mixes: Sequence[str], name: str, param: str) -> ExperimentResult:
    result = ExperimentResult(name)
    for value, config in configs:
        runner = ExperimentRunner(config=config, settings=settings)
        for mix in mixes:
            _, cmp = runner.run_memscale(mix)
            row = _comparison_row(mix, cmp)
            row[param] = value
            result.rows.append(row)
    return result


def sensitivity_cpi_bound(bounds: Sequence[float] = (0.01, 0.05, 0.10, 0.15),
                          settings: Optional[RunnerSettings] = None,
                          mixes: Optional[Sequence[str]] = None
                          ) -> ExperimentResult:
    """Figure 12: sweep the allowed CPI degradation."""
    settings = settings or RunnerSettings()
    mixes = list(mixes) if mixes is not None else mix_names("MID")
    configs = [(b, scaled_config().with_policy(cpi_bound=b)) for b in bounds]
    return _sweep(configs, settings, mixes, "fig12_cpi_bound", "cpi_bound")


def sensitivity_channels(channels: Sequence[int] = (2, 3, 4),
                         settings: Optional[RunnerSettings] = None,
                         mixes: Optional[Sequence[str]] = None
                         ) -> ExperimentResult:
    """Figure 13: sweep the channel count (total DIMMs held ~constant)."""
    settings = settings or RunnerSettings()
    mixes = list(mixes) if mixes is not None else mix_names("MID")
    configs = [
        (c, scaled_config().with_org(channels=c,
                                     dimms_per_channel=max(1, round(8 / c))))
        for c in channels
    ]
    return _sweep(configs, settings, mixes, "fig13_channels", "channels")


def sensitivity_memory_fraction(fractions: Sequence[float] = (0.3, 0.4, 0.5),
                                settings: Optional[RunnerSettings] = None,
                                mixes: Optional[Sequence[str]] = None
                                ) -> ExperimentResult:
    """Figure 14: sweep the DIMM share of server power."""
    settings = settings or RunnerSettings()
    mixes = list(mixes) if mixes is not None else mix_names("MID")
    configs = [(f, scaled_config().with_power(memory_power_fraction=f))
               for f in fractions]
    return _sweep(configs, settings, mixes, "fig14_memory_fraction",
                  "memory_fraction")


def sensitivity_proportionality(idle_fracs: Sequence[float] = (0.0, 0.5, 1.0),
                                settings: Optional[RunnerSettings] = None,
                                mixes: Optional[Sequence[str]] = None
                                ) -> ExperimentResult:
    """Figure 15: sweep MC/register idle power (power proportionality)."""
    settings = settings or RunnerSettings()
    mixes = list(mixes) if mixes is not None else mix_names("MID")
    configs = [(i, scaled_config().with_power(proportionality_idle_frac=i))
               for i in idle_fracs]
    return _sweep(configs, settings, mixes, "fig15_proportionality",
                  "idle_frac")


def timeline(runner: ExperimentRunner, mix: str) -> ExperimentResult:
    """Figures 7/8: per-epoch frequency / CPI / utilization series."""
    result_run, cmp = runner.run_memscale(mix)
    result = ExperimentResult(f"timeline_{mix}",
                              notes=f"worst CPI increase "
                                    f"{cmp.worst_cpi_increase:.1%}")
    for sample in result_run.timeline:
        result.rows.append({
            "time_us": sample.time_ns / 1000.0,
            "bus_mhz": sample.bus_mhz,
            "app_cpi": dict(sample.app_cpi),
            "mean_channel_util": float(sample.channel_util.mean()),
            "memory_power_w": sample.memory_power_w,
        })
    return result


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
