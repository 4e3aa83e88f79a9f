"""Acceptance runs of every experiment kind, one preset each.

Each preset is a small sweep through :func:`repro.sim.parallel.run_jobs`
(two workers, a fresh cache) that must finish without a failed job and
pass its acceptance check — the kind's own check from
:data:`repro.sim.jobs.KINDS`, in its strict form where the kind has one:

* ``cap`` — no silent budget overshoot; capping at least as fair as the
  lowest-frequency throttle;
* ``multidomain`` — at a budget neither domain can meet alone, the
  coordinated governor finds a feasible split, never exceeds the budget
  and beats memory-only capping on system energy;
* ``placement`` — short-epoch MID1 with the DDR3 protocol validator
  armed: the placed leg beats plain MemScale on memory energy, parks
  ranks in self-refresh, migrates pages and conserves its copy ledger;
* ``ladder`` — every MPKI-ladder rung runs validator-armed under
  MemScale;
* ``devices`` — on every device table MemScale beats Static within a
  tight CPI bound on some rung, and STT-MRAM shows its standby shift.

``test_imported_trace_replays_identically`` covers the ingestion path:
the bundled k6 trace replays byte-identically serially, with workers,
and with fast-forward off. ``test_checks_report_every_violation`` feeds
each check outcomes that break every rule it guards, so no preset can
pass vacuously.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, List, Sequence

import pytest

from repro import scenarios as scn
from repro.config import SystemConfig, scaled_config
from repro.scenarios.ingest import import_trace
from repro.sim.cache import ExperimentCache
from repro.sim.jobs import (JobSpec, SweepOutcome, cap_specs,
                            check_cap_outcomes, check_multidomain_outcomes,
                            check_placement_outcomes, multidomain_specs,
                            placement_specs, policy_specs, scenario_specs,
                            split_outcomes)
from repro.sim.parallel import run_jobs, run_sweep
from repro.sim.runner import RunnerSettings
from repro.sim.serialize import run_result_to_dict

SAMPLE_TRACE = Path(__file__).parent / "data" / "sample_k6.trc"

SMALL = RunnerSettings(cores=4, instructions_per_core=8_000, seed=2011)

#: Every simulated run checked by the DDR3 protocol validator.
ARMED = scaled_config().replace(validate_protocol=True)

#: The placement policy acts only at epoch boundaries, so the preset
#: shortens epochs until a run spans enough of them for classification,
#: migration and self-refresh parking to all fire, and uses small pages
#: in gentle per-epoch batches so the paced migration pump can drain
#: them: the placed leg has to *win* on energy.
PLACEMENT_CONFIG = ARMED.with_policy(
    epoch_ns=4_000.0, profile_ns=400.0).with_placement(
    page_lines=32, migrations_per_epoch=4)

#: CPI-degradation bound of the device preset. Tighter than the default
#: 10%: the lowest static frequency happens to respect a loose bound on
#: the low-power device tables at this scale, which would make "MemScale
#: beats Static" vacuous. At 5% the pinned-lowest Static violates the
#: bound on the high-MPKI rungs of every device while MemScale adapts to
#: stay inside it — the paper's actual claim.
DEVICE_CPI_BOUND = 0.05

#: Compliance slack on that bound (controller overshoot jitter).
DEVICE_CPI_SLACK = 0.01


def check_device_outcomes(outcomes: Sequence[SweepOutcome],
                          config: SystemConfig) -> List[str]:
    """Per device table: MemScale must beat Static on at least one
    ladder rung, where "beats" honours the performance bound — a policy
    only qualifies while its worst CPI increase stays within the bound
    (plus controller-jitter slack), and among qualifying policies higher
    memory savings wins. Across tables: the STT-MRAM-like part's
    near-zero standby currents must show up as a lower background
    (standby) share of DIMM energy than the DDR3-1333 baseline's.
    """
    cpi_bound = config.policy.cpi_bound
    failures: List[str] = []
    by = {(o.mix, o.policy, o.device): o for o in outcomes}
    mixes = list(dict.fromkeys(o.mix for o in outcomes))
    devices = list(dict.fromkeys(o.device for o in outcomes))
    limit = cpi_bound + DEVICE_CPI_SLACK

    def qualifies(o) -> bool:
        return o.comparison.worst_cpi_increase <= limit

    def beats(mix: str, device: str) -> bool:
        mine = by.get((mix, "MemScale", device))
        ref = by.get((mix, "Static", device))
        if mine is None or ref is None:
            return False
        if not (qualifies(mine)
                and mine.comparison.memory_energy_savings > 0):
            return False
        return (not qualifies(ref)
                or (mine.comparison.memory_energy_savings
                    > ref.comparison.memory_energy_savings))

    for device in devices:
        if not any(beats(mix, device) for mix in mixes):
            failures.append(
                f"{device}: MemScale beat Static on no ladder rung "
                f"(within the {cpi_bound:.0%} CPI bound)")

    def share(device: str) -> float:
        vals = [o.background_share for o in outcomes
                if o.device == device]
        return sum(vals) / len(vals) if vals else 0.0

    if "stt-mram" in devices and "ddr3-1333" in devices:
        if share("stt-mram") >= share("ddr3-1333"):
            failures.append(
                f"stt-mram standby share {share('stt-mram'):.1%} is not "
                f"below ddr3-1333's {share('ddr3-1333'):.1%}")
    return failures


@dataclass(frozen=True)
class Preset:
    specs: List[JobSpec]
    config: SystemConfig
    settings: RunnerSettings
    check: Callable[[Sequence[SweepOutcome], SystemConfig], List[str]]


PRESETS = {
    "cap": Preset(cap_specs(["MID1"], (0.9, 0.75)), scaled_config(), SMALL,
                  check_cap_outcomes),
    # A loose budget both domains could meet alone, and a tight one
    # neither can: the point that demonstrates a coordinated split.
    "multidomain": Preset(
        multidomain_specs(["MID1"], (0.8, 0.55)), scaled_config(), SMALL,
        partial(check_multidomain_outcomes, require_coordinated_split=True)),
    "placement": Preset(
        placement_specs(["MID1"]), PLACEMENT_CONFIG,
        dataclasses.replace(SMALL, instructions_per_core=60_000),
        partial(check_placement_outcomes, require_parking=True)),
    "ladder": Preset(policy_specs(scn.scenario_names(), ["MemScale"]),
                     ARMED, SMALL, lambda outcomes, config: []),
    # One high-MPKI rung (large savings headroom) and one low-MPKI rung.
    "devices": Preset(
        scenario_specs(["mix2", "mix5"], ["MemScale", "Static"],
                       scn.device_names()),
        ARMED.with_policy(cpi_bound=DEVICE_CPI_BOUND), SMALL,
        check_device_outcomes),
}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_acceptance(name, tmp_path):
    preset = PRESETS[name]
    outcomes = run_jobs(preset.specs, config=preset.config,
                        settings=preset.settings, jobs=2,
                        cache_dir=tmp_path / "cache")
    good, failed = split_outcomes(outcomes)
    assert [f.summary() for f in failed] == []
    assert len(good) == len(preset.specs)
    assert preset.check(good, preset.config) == []


def test_imported_trace_replays_identically(tmp_path):
    """The bundled k6 trace imports and replays byte-identically across
    serial, two-worker and fast-forward-off runs, validator armed."""
    cache_dir = tmp_path / "cache"
    trace, summary = import_trace(SAMPLE_TRACE, "sample-k6", ARMED.org,
                                  cores=4)
    ExperimentCache(cache_dir).store_imported_trace(
        "sample-k6", trace, dataclasses.asdict(summary))
    replays = []
    for jobs, config in ((1, ARMED), (2, ARMED),
                         (1, ARMED.replace(fast_forward=False))):
        outcomes = run_sweep(["trace:sample-k6"], ["MemScale", "Static"],
                             config=config, settings=SMALL, jobs=jobs,
                             cache_dir=cache_dir)
        good, failed = split_outcomes(outcomes)
        assert [f.summary() for f in failed] == []
        replays.append(json.dumps(
            {o.policy: run_result_to_dict(o.result) for o in good},
            sort_keys=True))
    assert summary.requests > 0
    assert replays[0] == replays[1] == replays[2]


def _outcome(**fields):
    """A stand-in outcome carrying just the fields a check reads."""
    fields.setdefault("mix", "MID1")
    fields.setdefault("comparison",
                      SimpleNamespace(worst_cpi_increase=0.02,
                                      memory_energy_savings=0.1))
    return SimpleNamespace(**fields)


@pytest.mark.parametrize("check, outcomes, expected", [
    (check_cap_outcomes, [
        _outcome(budget_fraction=0.8, budget_w=10.0, min_perf=0.80,
                 cap={"epochs_accounted": 3, "violation_count": 0,
                      "peak_power_w": 12.0}),
        _outcome(budget_fraction=None, budget_w=None, min_perf=0.90,
                 cap=None)],
     ["silent overshoot", "below the throttle reference"]),
    (partial(check_multidomain_outcomes, require_coordinated_split=True), [
        _outcome(budget_fraction=0.6, coordinated=True, budget_w=30.0,
                 system_energy_j=2.0,
                 summary={"epochs_accounted": 4, "violation_count": 1,
                          "epochs_decided": 4, "infeasible_epochs": 4}),
        _outcome(budget_fraction=0.6, coordinated=False, budget_w=30.0,
                 system_energy_j=1.5, summary={})],
     ["exceeded the global budget", "does not beat the memory-only",
      "never infeasible for nominal cores",
      "never infeasible for max-frequency memory",
      "no feasible (core, memory) pair"]),
    (partial(check_placement_outcomes, require_parking=True), [
        _outcome(placed=True, result=_outcome(memory_energy_j=2.0),
                 comparison=_outcome(worst_cpi_increase=0.5),
                 placement={"lines_copied": 3, "backlog": 0,
                            "migrated_lines": 4}),
        _outcome(placed=False, result=_outcome(memory_energy_j=1.0),
                 placement=None)],
     ["does not beat plain MemScale", "exceeds the bound",
      "no rank ever entered self-refresh", "no page was ever migrated",
      "does not conserve"]),
    (check_device_outcomes, [
        _outcome(policy="MemScale", device="ddr3-1333",
                 background_share=0.1,
                 comparison=_outcome(worst_cpi_increase=0.2,
                                     memory_energy_savings=0.3)),
        _outcome(policy="Static", device="ddr3-1333", background_share=0.1),
        _outcome(policy="MemScale", device="stt-mram",
                 background_share=0.5),
        _outcome(policy="Static", device="stt-mram", background_share=0.5,
                 comparison=_outcome(worst_cpi_increase=0.0,
                                     memory_energy_savings=0.4))],
     ["ddr3-1333: MemScale beat Static on no ladder rung",
      "stt-mram: MemScale beat Static on no ladder rung",
      "standby share"]),
], ids=["cap", "multidomain", "placement", "devices"])
def test_checks_report_every_violation(check, outcomes, expected):
    """Each acceptance check must flag what it guards, or the presets
    above could pass vacuously."""
    config = scaled_config().with_policy(cpi_bound=DEVICE_CPI_BOUND)
    failures = check(outcomes, config)
    assert len(failures) == len(expected)
    for failure, needle in zip(failures, expected):
        assert needle in failure
