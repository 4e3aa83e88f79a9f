"""The job model: one spec, one outcome, one table of experiment kinds.

Every experiment the harness runs is a grid of (mix x point) runs, each
judged against the mix's all-on baseline. What a *point* is depends on
the experiment kind:

* ``policy`` — a named policy (``POLICY_NAMES``), label ``MemScale``;
* ``cap`` — a memory power budget or the throttle reference,
  ``Cap0.80`` / ``Throttle``;
* ``multidomain`` — a CPU+memory budget, coordinated or memory-only,
  ``MD0.80`` / ``MemOnly0.80``;
* ``placement`` — MemScale with or without page placement, ``Placed``
  / ``NoPlacement``;
* ``scenario`` — a named policy on a device table,
  ``MemScale@stt-mram``.

:class:`JobSpec` names one run, :class:`SweepOutcome` holds its result,
and :data:`KINDS` says, per kind, how a spec becomes a run: the config
transform, the governor factory, the extra outcome fields, the point
label, and the acceptance check every sweep of that kind must pass.
:func:`repro.sim.parallel.run_jobs` executes any list of specs, the
store codec (:mod:`repro.sim.store`) serializes any outcome, and
``repro sweep --kind`` / ``repro service run --kind`` build their specs
through :func:`build_specs`. Adding a kind means one :data:`KINDS`
entry and one spec builder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis import format_table, summary_table
from repro.config import SystemConfig
from repro.core.baselines import StaticFrequencyGovernor
from repro.core.governor import Governor
from repro.scenarios.devices import apply_device, lookup_device
from repro.sim.cache import content_digest
from repro.sim.results import PolicyComparison, RunResult
from repro.sim.runner import ExperimentRunner

#: Bumped whenever the service ledger or key layout changes
#: incompatibly (it is part of every job key).
SERVICE_FORMAT = 1

#: CPI-increase slack the placement check tolerates beyond the
#: configured MemScale bound: self-refresh wake-ups and migration copy
#: traffic add latency the frequency policy does not model.
PLACEMENT_CPI_SLACK = 0.05


@dataclass(frozen=True)
class JobSpec:
    """One run of the job model, as queued in a service ledger.

    ``kind`` selects the :data:`KINDS` entry; the other fields are the
    point and each kind uses the ones it needs: ``policy`` (policy,
    scenario), ``budget_fraction`` (cap — None marks the throttle
    reference — and multidomain), ``coordinated`` (multidomain; for
    placement it carries the placed flag, so the key schema never
    grew a field) and ``device`` (scenario).
    """

    kind: str
    mix: str
    policy: Optional[str] = None
    budget_fraction: Optional[float] = None
    coordinated: Optional[bool] = None
    device: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown job kind {self.kind!r}; "
                             f"choose from {sorted(KINDS)}")
        missing = [name for name in KINDS[self.kind].requires
                   if getattr(self, name) in (None, "")]
        if missing:
            raise ValueError(f"{self.kind} jobs need "
                             f"{' and '.join(missing)}")

    @property
    def point(self) -> str:
        """The point part of the label (``MemScale``, ``Cap0.80``, ...)."""
        return KINDS[self.kind].point(self)

    @property
    def label(self) -> str:
        """Display label (``mix/<point>``), the injection handle too."""
        return f"{self.mix}/{self.point}"

    def key(self, config_hash: str, settings_hash: str) -> str:
        """Content key: spec + config/settings fingerprints."""
        payload = {
            "format": SERVICE_FORMAT, "kind": self.kind, "mix": self.mix,
            "policy": self.policy, "budget_fraction": self.budget_fraction,
            "coordinated": self.coordinated, "config": config_hash,
            "settings": settings_hash,
        }
        # Only scenario jobs carry a device; omitting the field otherwise
        # keeps every pre-existing service directory's keys stable.
        if self.device is not None:
            payload["device"] = self.device
        return content_digest(payload)

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "mix": self.mix, "policy": self.policy,
                "budget_fraction": self.budget_fraction,
                "coordinated": self.coordinated, "device": self.device}

    def job_dict(self) -> Dict[str, object]:
        """The ``job`` section of this spec's store records."""
        payload = self.to_dict()
        payload["label"] = self.label
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "JobSpec":
        return cls(kind=data["kind"], mix=data["mix"],
                   policy=data.get("policy"),
                   budget_fraction=data.get("budget_fraction"),
                   coordinated=data.get("coordinated"),
                   device=data.get("device"))


@dataclass
class SweepOutcome:
    """Result of one :class:`JobSpec`, with execution metadata.

    ``extra`` holds the kind's extra outcome fields (a cap run's budget
    ledger, a placement run's migration counters, ...). Every field of
    the serialized outcome reads as an attribute — the extras and the
    kind's ``outcome_fields`` (``budget_fraction``, ``placed``, ...) —
    so ``outcome.min_perf`` works on the kinds that have one.
    """

    spec: JobSpec
    result: RunResult
    comparison: PolicyComparison
    wall_s: float                   #: worker wall-clock for this job
    cache_hits: int = 0             #: cache hits observed by the worker
    telemetry_path: Optional[str] = None
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def mix(self) -> str:
        return self.spec.mix

    @property
    def policy(self) -> Optional[str]:
        return self.spec.policy

    @property
    def label(self) -> str:
        return self.spec.label

    def __getattr__(self, name: str) -> object:
        # Only reached when normal lookup fails. Dunder lookups (pickle,
        # copy) and a half-built instance must fail the ordinary way.
        state = self.__dict__
        if name.startswith("__") or "spec" not in state:
            raise AttributeError(name)
        extra = state.get("extra", {})
        if name in extra:
            return extra[name]
        spec = state["spec"]
        attr = KINDS[spec.kind].outcome_fields.get(name)
        if attr is None:
            raise AttributeError(f"{spec.kind} outcomes have no {name!r}")
        return getattr(spec, attr)


@dataclass
class JobFailure:
    """Structured record of one job that failed after all its attempts.

    Returned in place of the job's outcome so a sweep containing one
    bad job still yields every other result. Carries the worker-side
    traceback of the last attempt; ``job`` is the job's
    :class:`JobSpec` (or whatever the caller of
    :func:`~repro.sim.parallel.execute_jobs` passed as its metadata).
    """

    job: object
    label: str                      #: display label, e.g. "MID1/Static"
    error_type: str                 #: exception class name
    message: str
    traceback: str = ""             #: worker-side formatted traceback
    attempts: int = 1               #: total attempts made (1 + retries)
    wall_s: float = 0.0             #: wall-clock of the last attempt

    @property
    def mix(self) -> str:
        return getattr(self.job, "mix", "?")

    def summary(self) -> str:
        return (f"{self.label}: {self.error_type}: {self.message} "
                f"(after {self.attempts} attempt"
                f"{'s' if self.attempts != 1 else ''})")


def split_outcomes(outcomes: Sequence[object]
                   ) -> Tuple[List[SweepOutcome], List[JobFailure]]:
    """Partition a sweep's outcome list into (successes, failures)."""
    good = [o for o in outcomes if not isinstance(o, JobFailure)]
    bad = [o for o in outcomes if isinstance(o, JobFailure)]
    return good, bad


# -- the kind table ----------------------------------------------------------

#: ``(runner, spec) -> governor`` for kinds that do not run a named policy.
GovernorFactory = Callable[[ExperimentRunner, JobSpec], Governor]

#: ``(runner, spec, governor, result, comparison) -> extra outcome fields``.
ExtraFields = Callable[[ExperimentRunner, JobSpec, Optional[Governor],
                        RunResult, PolicyComparison], Dict[str, object]]

#: ``(good outcomes, sweep config) -> failure strings`` (empty = pass).
Check = Callable[[Sequence[SweepOutcome], SystemConfig], List[str]]


@dataclass(frozen=True)
class JobKind:
    """How one experiment kind turns a :class:`JobSpec` into a run."""

    name: str
    #: Spec fields every job of this kind must set.
    requires: Sequence[str]
    #: ``spec -> point label``.
    point: Callable[[JobSpec], str]
    #: ``(mixes, policies, budgets, devices) -> specs``, sweep order.
    specs: Callable[..., List[JobSpec]]
    #: Which of the optional ``budgets``/``devices`` axes ``specs`` reads.
    axes: Sequence[str]
    #: Serialized-outcome field name -> the spec attribute it mirrors.
    outcome_fields: Dict[str, str]
    #: ``(outcomes, title) -> report table`` of the good outcomes.
    table: Callable[[Sequence[SweepOutcome], str], str]
    #: Title of the sweep report and the noun its point axis counts.
    title: str
    axis: str
    #: ``(config, spec) -> the config the job runs on``.
    configure: Callable[[SystemConfig, JobSpec], SystemConfig] = \
        lambda config, spec: config
    #: None runs ``spec.policy`` through ``run_named_policy``.
    governor: Optional[GovernorFactory] = None
    extras: ExtraFields = lambda runner, spec, governor, result, cmp: {}
    notes: str = ""
    #: The acceptance check every sweep of this kind must pass.
    check: Optional[Check] = None


def _min_perf(comparison: PolicyComparison) -> float:
    """Min-app normalized performance of a run."""
    return 1.0 / (1.0 + comparison.worst_cpi_increase)


def _grid(mixes: Sequence[str]) -> List[str]:
    mixes = list(mixes)
    if not mixes:
        raise ValueError("need at least one mix")
    return mixes


def _fractions(budget_fractions: Optional[Sequence[float]], kind: str
               ) -> List[float]:
    fractions = [float(f) for f in budget_fractions or ()]
    if not fractions:
        raise ValueError(f"{kind} jobs need budget fractions (--budgets)")
    if any(f <= 0 for f in fractions):
        raise ValueError("budget fractions must be positive")
    return fractions


# -- policy ------------------------------------------------------------------

def policy_specs(mixes: Sequence[str],
                 policies: Sequence[str]) -> List[JobSpec]:
    """Specs for a (mix x policy) sweep, :func:`run_sweep` order."""
    return [JobSpec("policy", mix, policy=policy)
            for mix in _grid(mixes) for policy in policies]


SWEEP_HEADERS = ["workload", "policy", "mem savings", "sys savings",
                 "avg CPI", "worst CPI", "job wall"]


def sweep_table(outcomes: Sequence[object]) -> List[List[str]]:
    """Rows (mix, point, savings, average and worst CPI increase, wall)
    for a plain-text report.

    :class:`JobFailure` entries render as FAILED rows carrying the
    exception class, so a partially failed sweep still prints.
    """
    rows = []
    for o in outcomes:
        if isinstance(o, JobFailure):
            rows.append([o.mix, o.label.split("/", 1)[-1], "FAILED",
                         o.error_type, "-", "-", f"{o.wall_s:.2f}s"])
            continue
        rows.append([
            o.mix, o.spec.point,
            f"{o.comparison.memory_energy_savings:+.1%}",
            f"{o.comparison.system_energy_savings:+.1%}",
            f"{o.comparison.avg_cpi_increase:+.1%}",
            f"{o.comparison.worst_cpi_increase:+.1%}",
            f"{o.wall_s:.2f}s",
        ])
    return rows


# -- cap ---------------------------------------------------------------------

def cap_specs(mixes: Sequence[str], budget_fractions: Sequence[float],
              include_throttle: bool = True) -> List[JobSpec]:
    """Specs for a power-cap sweep: per mix, every budget (a fraction of
    the mix's baseline average memory power) and, with
    ``include_throttle``, the lowest-static-frequency reference — the
    fairness floor a capping governor must beat."""
    points: List[Optional[float]] = list(_fractions(budget_fractions, "cap"))
    if include_throttle:
        points.append(None)
    return [JobSpec("cap", mix, budget_fraction=frac)
            for mix in _grid(mixes) for frac in points]


def cap_label(budget_fraction: Optional[float]) -> str:
    """Point label of one cap sweep point."""
    if budget_fraction is None:
        return "Throttle"
    return f"Cap{budget_fraction:.2f}"


def _cap_governor(runner: ExperimentRunner, spec: JobSpec) -> Governor:
    if spec.budget_fraction is None:
        # Naive throttle reference: pin the whole subsystem to the
        # slowest ladder point for the entire run.
        return StaticFrequencyGovernor(
            bus_mhz=min(runner.config.sorted_bus_freqs()))
    return runner.make_cap_governor(spec.mix,
                                    budget_fraction=spec.budget_fraction)


def _cap_extras(runner, spec, governor, result, comparison):
    capped = spec.budget_fraction is not None
    return {
        "budget_w": governor.budget.min_watts if capped else None,
        "governor": governor.name,
        "min_perf": _min_perf(comparison),
        "avg_power_w": result.avg_memory_power_w,
        "cap": governor.cap_summary() if capped else None,
    }


#: Cap report columns, one row per (mix, budget) point; the throttle
#: reference leaves the budget and ledger columns unset.
CAP_COLUMNS = (
    ("workload", "workload", "{}"),
    ("governor", "governor", "{}"),
    ("budget", "budget_fraction", "{:.0%}"),
    ("cap W", "budget_w", "{:.2f}"),
    ("avg W", "avg_power_w", "{:.2f}"),
    ("viol", "violations", "{:d}"),
    ("t>cap", "time_over_frac", "{:.1%}"),
    ("infeas", "infeasible_epochs", "{:d}"),
    ("min perf", "min_perf", "{:.3f}"),
    ("worst CPI", "worst_cpi_increase", "{:+.1%}"),
    ("sys savings", "system_savings", "{:+.1%}"),
)


def cap_outcome_row(outcome: SweepOutcome) -> Dict[str, object]:
    """Flatten one cap outcome to the row dict :data:`CAP_COLUMNS`
    reads."""
    cap = outcome.cap or {}
    return {
        "workload": outcome.mix,
        "governor": outcome.governor,
        "budget_fraction": outcome.budget_fraction,
        "budget_w": outcome.budget_w,
        "avg_power_w": outcome.avg_power_w,
        "violations": cap.get("violation_count"),
        "time_over_frac": cap.get("time_over_cap_fraction"),
        "infeasible_epochs": cap.get("infeasible_epochs"),
        "peak_power_w": cap.get("peak_power_w"),
        "min_perf": outcome.min_perf,
        "worst_cpi_increase": outcome.comparison.worst_cpi_increase,
        "memory_savings": outcome.comparison.memory_energy_savings,
        "system_savings": outcome.comparison.system_energy_savings,
    }


def check_cap_outcomes(outcomes: Sequence[SweepOutcome],
                       config: Optional[SystemConfig] = None) -> List[str]:
    """Acceptance checks on a cap sweep's outcomes.

    Returns failure strings (empty = pass). Checks, per capped point:
    (a) no silent overshoot — every accounted epoch stayed within the
    budget's tolerance band or the ledger recorded a violation; and
    (b) fairness — the capped run's min-app normalized performance is
    no lower than the naive lowest-frequency throttle reference.
    """
    failures: List[str] = []
    throttle = {o.mix: o for o in outcomes if o.budget_fraction is None}
    for o in outcomes:
        if o.budget_fraction is None:
            continue
        label = f"{o.mix}/cap{o.budget_fraction:.2f}"
        cap = o.cap or {}
        if not cap.get("epochs_accounted"):
            failures.append(f"{label}: ledger accounted no epochs")
            continue
        tol = 1.0 + 0.01 + 1e-9
        if (cap.get("violation_count", 0) == 0
                and cap.get("peak_power_w", 0.0) > o.budget_w * tol):
            failures.append(
                f"{label}: silent overshoot — peak epoch power "
                f"{cap['peak_power_w']:.2f}W over budget {o.budget_w:.2f}W "
                f"with no recorded violation")
        ref = throttle.get(o.mix)
        if ref is not None and o.min_perf < ref.min_perf - 1e-9:
            failures.append(
                f"{label}: min-app normalized perf {o.min_perf:.4f} below "
                f"the throttle reference {ref.min_perf:.4f}")
    return failures


# -- multidomain -------------------------------------------------------------

def multidomain_specs(mixes: Sequence[str],
                      budget_fractions: Sequence[float],
                      include_memory_only: bool = True) -> List[JobSpec]:
    """Specs for a multi-domain sweep: per mix and *global* (CPU +
    memory) budget fraction, the coordinated leg and, with
    ``include_memory_only``, the memory-only reference right after it."""
    fractions = _fractions(budget_fractions, "multidomain")
    legs = [True, False] if include_memory_only else [True]
    return [JobSpec("multidomain", mix, budget_fraction=frac,
                    coordinated=coordinated)
            for mix in _grid(mixes) for frac in fractions
            for coordinated in legs]


def _md_budget_w(runner: ExperimentRunner, spec: JobSpec) -> float:
    return (spec.budget_fraction
            * runner.multidomain_reference_power_w(spec.mix))


def _md_governor(runner: ExperimentRunner, spec: JobSpec) -> Governor:
    budget_w = _md_budget_w(runner, spec)
    if spec.coordinated:
        return runner.make_multidomain_governor(spec.mix, budget_w=budget_w)
    # Memory-only reference: cores stay at nominal power, so the memory
    # side gets whatever the global budget leaves (floored to keep the
    # PowerBudget contract when cores alone exceed it).
    core_ref_w = runner.baseline_core_power_w(spec.mix)
    return runner.make_cap_governor(
        spec.mix, budget_w=max(0.05, budget_w - core_ref_w))


def _md_extras(runner, spec, governor, result, comparison):
    """Per-domain accounting. System energy is assembled from an
    explicit split — measured memory energy, *modeled* core energy, and
    the calibrated "other" power — so both legs compare on identical
    terms: the memory-only leg charges nominal core power for the whole
    run, the coordinated leg its ledgered core power."""
    core_ref_w = runner.baseline_core_power_w(spec.mix)
    other_w = runner.platform_other_power_w(spec.mix)
    sim_s = result.sim_time_s
    if spec.coordinated:
        summary = governor.multidomain_summary()
        avg_core_w = summary.get("avg_core_power_w") or core_ref_w
    else:
        summary = governor.cap_summary()
        avg_core_w = core_ref_w
    core_energy_j = avg_core_w * sim_s
    return {
        "budget_w": _md_budget_w(runner, spec),
        "governor": governor.name,
        "min_perf": _min_perf(comparison),
        "avg_power_w": result.avg_memory_power_w + avg_core_w,
        "avg_core_power_w": avg_core_w,
        "core_energy_j": core_energy_j,
        "system_energy_j": (result.memory_energy_j + core_energy_j
                            + other_w * sim_s),
        "summary": summary,
    }


#: Multi-domain report columns, one row per (mix, budget, leg) point;
#: fields absent on the memory-only reference legs stay unset.
MULTIDOMAIN_COLUMNS = (
    ("workload", "workload", "{}"),
    ("governor", "governor", "{}"),
    ("budget", "budget_fraction", "{:.0%}"),
    ("cap W", "budget_w", "{:.2f}"),
    ("avg W", "avg_power_w", "{:.2f}"),
    ("core W", "avg_core_power_w", "{:.2f}"),
    ("core MHz", "avg_core_mhz", "{:.0f}"),
    ("viol", "violations", "{:d}"),
    ("infeas", "infeasible_epochs", "{:d}"),
    ("min perf", "min_perf", "{:.3f}"),
    ("sys J", "system_energy_j", "{:.4f}"),
)


def multidomain_outcome_row(outcome: SweepOutcome) -> Dict[str, object]:
    """Flatten one multi-domain outcome to the row dict
    :data:`MULTIDOMAIN_COLUMNS` reads."""
    summary = outcome.summary or {}
    return {
        "workload": outcome.mix,
        "governor": outcome.governor,
        "coordinated": outcome.coordinated,
        "budget_fraction": outcome.budget_fraction,
        "budget_w": outcome.budget_w,
        "avg_power_w": outcome.avg_power_w,
        "avg_core_power_w": outcome.avg_core_power_w,
        "avg_core_mhz": summary.get("avg_core_mhz"),
        "violations": summary.get("violation_count"),
        "time_over_frac": summary.get("time_over_cap_fraction"),
        "infeasible_epochs": summary.get("infeasible_epochs"),
        "core_max_infeasible_epochs":
            summary.get("core_max_infeasible_epochs"),
        "mem_max_infeasible_epochs":
            summary.get("mem_max_infeasible_epochs"),
        "min_perf": outcome.min_perf,
        "worst_cpi_increase": outcome.comparison.worst_cpi_increase,
        "system_energy_j": outcome.system_energy_j,
    }


def check_multidomain_outcomes(outcomes: Sequence[SweepOutcome],
                               config: Optional[SystemConfig] = None,
                               require_coordinated_split: bool = False
                               ) -> List[str]:
    """Acceptance checks on a multi-domain sweep's outcomes.

    Returns failure strings (empty = pass). Per global-budget point:
    (a) the ledger accounted epochs and recorded zero violations on the
    coordinated leg — the governor never exceeds the global budget;
    (b) the coordinated leg beats the memory-only CapGovernor reference
    on explicit-split system energy. With ``require_coordinated_split``,
    the tightest budget must also be a genuinely *coordinated* split:
    infeasible for either domain alone at max frequency, yet with
    feasible (core, memory) pairs found.
    """
    failures: List[str] = []
    coordinated = [o for o in outcomes if o.coordinated]
    memory_only = {(o.mix, o.budget_fraction): o
                   for o in outcomes if not o.coordinated}
    for o in coordinated:
        label = f"{o.mix}/md{o.budget_fraction:.2f}"
        summary = o.summary or {}
        if not summary.get("epochs_accounted"):
            failures.append(f"{label}: ledger accounted no epochs")
            continue
        if summary.get("violation_count", 0) > 0:
            failures.append(
                f"{label}: {summary['violation_count']} epochs exceeded "
                f"the global budget {o.budget_w:.2f}W")
        ref = memory_only.get((o.mix, o.budget_fraction))
        if ref is not None and o.system_energy_j >= ref.system_energy_j:
            failures.append(
                f"{label}: coordinated system energy "
                f"{o.system_energy_j:.4f}J does not beat the memory-only "
                f"reference {ref.system_energy_j:.4f}J")
    if coordinated and require_coordinated_split:
        tight = min(coordinated, key=lambda o: o.budget_fraction)
        label = f"{tight.mix}/md{tight.budget_fraction:.2f}"
        summary = tight.summary or {}
        if not summary.get("core_max_infeasible_epochs"):
            failures.append(
                f"{label}: budget never infeasible for nominal cores "
                f"alone (no coordination needed)")
        if not summary.get("mem_max_infeasible_epochs"):
            failures.append(
                f"{label}: budget never infeasible for max-frequency "
                f"memory alone (no coordination needed)")
        decided = summary.get("epochs_decided", 0)
        if decided - summary.get("infeasible_epochs", 0) <= 0:
            failures.append(
                f"{label}: governor found no feasible (core, memory) "
                f"pair in any epoch")
    return failures


# -- placement ---------------------------------------------------------------

def placement_specs(mixes: Sequence[str],
                    include_reference: bool = True) -> List[JobSpec]:
    """Specs for a placement sweep: per mix, MemScale with rank-aware
    page placement and, with ``include_reference``, plain MemScale right
    after it (the ``coordinated`` field carries the placed flag)."""
    legs = [True, False] if include_reference else [True]
    return [JobSpec("placement", mix, coordinated=placed)
            for mix in _grid(mixes) for placed in legs]


def _placement_config(config: SystemConfig, spec: JobSpec) -> SystemConfig:
    """The placed leg flips ``config.placement.enabled`` on a copy of
    the sweep config, inheriting any tuned placement knobs; the
    reference leg decodes through the untouched interleaver. A
    placement-enabled config routes even the baseline through the page
    table, so each leg is normalized against its own baseline and the
    legs are compared on absolute energy."""
    return config.with_placement(enabled=True) if spec.coordinated else config


def _placement_governor(runner: ExperimentRunner, spec: JobSpec
                        ) -> Governor:
    if spec.coordinated:
        return runner.make_placement_governor(spec.mix)
    return runner.make_memscale_governor(spec.mix)


def _placement_extras(runner, spec, governor, result, comparison):
    return {
        "governor": governor.name,
        "min_perf": _min_perf(comparison),
        "avg_power_w": result.avg_memory_power_w,
        "placement": (governor.placement_summary() if spec.coordinated
                      else None),
    }


def _placement_table(outcomes: Sequence[SweepOutcome], title: str) -> str:
    rows = []
    for o in outcomes:
        summary = o.placement or {}
        rows.append([
            o.mix, "Placed" if o.placed else "MemScale",
            f"{o.result.memory_energy_j:.4f}",
            f"{o.comparison.worst_cpi_increase:+.1%}",
            str(summary.get("migrations", "-")),
            str(summary.get("parked_ranks", "-")),
            f"{o.wall_s:.2f}s",
        ])
    return format_table(
        ["workload", "leg", "mem energy (J)", "worst CPI",
         "migrations", "parks", "job wall"], rows, title=title)


def check_placement_outcomes(outcomes: Sequence[SweepOutcome],
                             config: SystemConfig,
                             require_parking: bool = False) -> List[str]:
    """Acceptance checks on a placement sweep's outcomes.

    Returns failure strings (empty = pass). Per placed leg: (a) lower
    absolute memory energy than the plain-MemScale reference on the
    same mix (the legs share the trace and the CPI-degradation target,
    so the energy comparison is at equal perf loss); (b) CPI increase
    within the MemScale bound of ``config`` plus
    :data:`PLACEMENT_CPI_SLACK`. With ``require_parking``, the placed
    leg must also show the machinery actually engaged: pages migrated,
    ranks parked in self-refresh, and the migration copy ledger
    conserved — every migrated line was either copied or is still in
    the pump's tracked backlog when the run ends.
    """
    cpi_bound = config.policy.cpi_bound
    failures: List[str] = []
    references = {o.mix: o for o in outcomes if not o.placed}
    for o in outcomes:
        if not o.placed:
            continue
        label = f"{o.mix}/placed"
        summary = o.placement or {}
        ref = references.get(o.mix)
        if ref is not None \
                and o.result.memory_energy_j >= ref.result.memory_energy_j:
            failures.append(
                f"{label}: memory energy {o.result.memory_energy_j:.4f}J "
                f"does not beat plain MemScale "
                f"{ref.result.memory_energy_j:.4f}J")
        worst = o.comparison.worst_cpi_increase
        if worst > cpi_bound + PLACEMENT_CPI_SLACK:
            failures.append(
                f"{label}: worst CPI increase {worst:+.1%} exceeds the "
                f"bound {cpi_bound:.1%} plus "
                f"{PLACEMENT_CPI_SLACK:.1%} slack")
        if require_parking:
            if not summary.get("parked_ranks"):
                failures.append(f"{label}: no rank ever entered "
                                "self-refresh")
            if not summary.get("migrations"):
                failures.append(f"{label}: no page was ever migrated")
            copied = summary.get("lines_copied", 0)
            backlog = summary.get("backlog", 0)
            migrated = summary.get("migrated_lines", 0)
            if copied + backlog != migrated:
                failures.append(
                    f"{label}: migration copy ledger does not conserve "
                    f"— {copied} lines copied + {backlog} backlog != "
                    f"{migrated} migrated")
    return failures


# -- scenario ----------------------------------------------------------------

def scenario_specs(mixes: Sequence[str], policies: Sequence[str],
                   devices: Sequence[str]) -> List[JobSpec]:
    """Specs for a (mix x policy x device) sweep over named device
    technology tables (:data:`repro.scenarios.devices.DEVICE_TABLES`)."""
    devices = list(devices)
    if not devices:
        raise ValueError("scenario jobs need device tables (--devices)")
    for device in devices:
        lookup_device(device)  # fail fast on unknown names
    return [JobSpec("scenario", mix, policy=policy, device=device)
            for mix in _grid(mixes) for policy in policies
            for device in devices]


def _device_config(config: SystemConfig, spec: JobSpec) -> SystemConfig:
    """The device's timings/currents swapped into the sweep config, so
    each (mix, device) pair gets its own baseline: a policy's savings
    on STT-MRAM are judged against an STT-MRAM baseline."""
    return apply_device(config, spec.device)


def _scenario_extras(runner, spec, governor, result, comparison):
    # Background (standby) share of the run's DIMM energy — the number
    # a device table shifts most visibly (STT-MRAM drives it near 0).
    dimm_j = result.memory_energy_j - result.energy_j.get("mc", 0.0)
    background = result.energy_j.get("background", 0.0)
    return {"background_share": background / dimm_j if dimm_j > 0 else 0.0}


#: Scenario report columns, one row per (mix, policy, device) point.
#: "standby" is background energy as a share of DIMM energy, the column
#: that makes the STT-MRAM-style standby shift visible; savings are
#: against the per-device baseline.
SCENARIO_COLUMNS = (
    ("workload", "workload", "{}"),
    ("policy", "policy", "{}"),
    ("device", "device", "{}"),
    ("mem J", "memory_energy_j", "{:.4f}"),
    ("standby", "background_share", "{:.1%}"),
    ("mem savings", "mem_savings", "{:+.1%}"),
    ("worst CPI", "worst_cpi_increase", "{:+.1%}"),
)


def scenario_row(o: SweepOutcome) -> Dict[str, object]:
    """One row dict :data:`SCENARIO_COLUMNS` reads."""
    return {
        "workload": o.mix, "policy": o.policy, "device": o.device,
        "memory_energy_j": o.result.memory_energy_j,
        "background_share": o.background_share,
        "mem_savings": o.comparison.memory_energy_savings,
        "worst_cpi_increase": o.comparison.worst_cpi_increase,
    }


# -- the table ---------------------------------------------------------------

KINDS: Dict[str, JobKind] = {kind.name: kind for kind in (
    JobKind(
        name="policy", requires=("policy",),
        point=lambda spec: spec.policy,
        specs=lambda mixes, policies, budgets, devices:
            policy_specs(mixes, policies),
        axes=(), outcome_fields={"policy": "policy"},
        table=lambda outcomes, title: format_table(
            SWEEP_HEADERS, sweep_table(outcomes), title=title),
        title="sweep", axis="policies"),
    JobKind(
        name="cap", requires=(),
        point=lambda spec: cap_label(spec.budget_fraction),
        specs=lambda mixes, policies, budgets, devices:
            cap_specs(mixes, budgets),
        axes=("budgets",),
        outcome_fields={"budget_fraction": "budget_fraction"},
        table=lambda outcomes, title: summary_table(
            CAP_COLUMNS, [cap_outcome_row(o) for o in outcomes], title),
        title="power-cap sweep", axis="points (budgets + throttle)",
        governor=_cap_governor, extras=_cap_extras,
        notes="budgets are fractions of each mix's baseline average "
              "memory power;\nThrottle rows pin the slowest static "
              "frequency (the naive alternative)",
        check=check_cap_outcomes),
    JobKind(
        name="multidomain", requires=("budget_fraction", "coordinated"),
        point=lambda spec: (("MD" if spec.coordinated else "MemOnly")
                            + f"{spec.budget_fraction:.2f}"),
        specs=lambda mixes, policies, budgets, devices:
            multidomain_specs(mixes, budgets),
        axes=("budgets",),
        outcome_fields={"budget_fraction": "budget_fraction",
                        "coordinated": "coordinated"},
        table=lambda outcomes, title: summary_table(
            MULTIDOMAIN_COLUMNS,
            [multidomain_outcome_row(o) for o in outcomes], title),
        title="multi-domain budget sweep",
        axis="points (budgets x coordinated + memory-only)",
        governor=_md_governor, extras=_md_extras,
        notes="budgets are fractions of each mix's baseline memory power "
              "plus modeled\nnominal core power; MemOnly rows give the "
              "whole remaining budget to a\nmemory-only CapGovernor (the "
              "uncoordinated split)",
        check=check_multidomain_outcomes),
    JobKind(
        name="placement", requires=("coordinated",),
        point=lambda spec: "Placed" if spec.coordinated else "NoPlacement",
        specs=lambda mixes, policies, budgets, devices:
            placement_specs(mixes),
        axes=(), outcome_fields={"placed": "coordinated"},
        table=_placement_table,
        title="placement sweep", axis="legs (placed + plain MemScale)",
        configure=_placement_config, governor=_placement_governor,
        extras=_placement_extras,
        notes="legs share the trace and the CPI bound; energies are "
              "absolute joules\n(enabling placement changes the baseline "
              "run's decode, so the legs are\nnot normalized to a common "
              "baseline)",
        check=check_placement_outcomes),
    JobKind(
        name="scenario", requires=("policy", "device"),
        point=lambda spec: f"{spec.policy}@{spec.device}",
        specs=lambda mixes, policies, budgets, devices:
            scenario_specs(mixes, policies, devices or ["ddr3-1333"]),
        axes=("devices",),
        outcome_fields={"policy": "policy", "device": "device"},
        table=lambda outcomes, title: summary_table(
            SCENARIO_COLUMNS, [scenario_row(o) for o in outcomes], title),
        title="scenario sweep", axis="(policy, device) points",
        configure=_device_config, extras=_scenario_extras,
        notes="savings are normalized within each device (vs that "
              "device's own baseline);\n'standby' is background energy "
              "as a share of DIMM energy"),
)}


def build_specs(kind: str, mixes: Sequence[str],
                policies: Sequence[str] = ("MemScale",),
                budgets: Optional[Sequence[float]] = None,
                devices: Optional[Sequence[str]] = None) -> List[JobSpec]:
    """The specs of one ``--kind`` sweep, in sweep order; each kind
    reads the axes it needs (policies, budget fractions, devices), and
    giving one it does not read is an error, not a silent no-op."""
    if kind not in KINDS:
        raise ValueError(f"unknown job kind {kind!r}; "
                         f"choose from {sorted(KINDS)}")
    entry = KINDS[kind]
    for axis, values in (("budgets", budgets), ("devices", devices)):
        if values and axis not in entry.axes:
            raise ValueError(f"--{axis} does not apply to --kind {kind}")
    return entry.specs(mixes, list(policies), budgets, devices)
