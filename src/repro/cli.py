"""Command-line interface.

Every experiment is reachable from the shell::

    python -m repro table1
    python -m repro run MID3 --policy MemScale --instructions 200000
    python -m repro sweep --mixes MID1 MID2 --policies MemScale Static --jobs 4
    python -m repro sweep --kind cap --mixes MID1 --budgets 0.9 0.8 0.7
    python -m repro sweep --kind multidomain --mixes MID1 --budgets 0.8
    python -m repro sweep --kind placement --mixes MID1 --jobs 4
    python -m repro sweep --kind scenario --scenarios mix1 mix4 \\
        --devices ddr3-1333 stt-mram
    python -m repro governors
    python -m repro scenarios
    python -m repro trace import k6.trc --name myapp --cores 4
    python -m repro run trace:myapp --cores 4
    python -m repro bench --smoke
    python -m repro cache --prune
    python -m repro service run --dir sweeps --mixes MID1 --policies MemScale
    python -m repro service resume --dir sweeps
    python -m repro query --dir sweeps --status failed
    python -m repro figure 5
    python -m repro timeline MID3
    python -m repro stats MEM1
    python -m repro best-static MID1

All output is plain text (the same tables the benchmark harness prints).
``sweep`` fans the (mix x point) jobs of one experiment kind
(``--kind``, see :data:`repro.sim.jobs.KINDS`) across worker processes
with an on-disk artifact cache (``--jobs``, ``--cache-dir``,
``--no-cache``) and optional per-epoch telemetry JSONL streams
(``--telemetry DIR``), then runs the kind's acceptance check;
``service run --kind`` queues the same jobs durably;
``bench --smoke`` is the CI smoke target running one tiny mix through
the parallel path. ``scenarios`` lists the MPKI-laddered mix library
and the device technology tables; ``trace import`` converts external
DRAMSim2-style traces into replayable ``trace:<name>`` mixes.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.analysis import format_table
from repro.config import SystemConfig, scaled_config
from repro.cpu.stats import workload_stats
from repro.cpu.workloads import MIXES, known_mix_names
from repro.scenarios.devices import apply_device
from repro.sim import experiments
from repro.sim.cache import DEFAULT_CACHE_DIR, ExperimentCache
from repro.sim.jobs import (KINDS, SWEEP_HEADERS, JobFailure, JobSpec,
                            build_specs, cap_specs, check_cap_outcomes,
                            split_outcomes, sweep_table)
from repro.sim.parallel import run_jobs, run_sweep
from repro.sim.runner import (GOVERNOR_INFO, IMPORTED_TRACE_PREFIX,
                              POLICY_NAMES, ExperimentRunner,
                              RunnerSettings, governor_listing)
from repro.sim.telemetry import JsonlTelemetry

#: Budget points of the capped leg of `repro bench --smoke`: a loose
#: and a tight cap.
SMOKE_BUDGET_FRACTIONS = (0.9, 0.75)


def _report_failures(failed, what: str) -> None:
    """Print failed-job records and exit non-zero; a sweep with one bad
    job still printed its N-1 good rows before landing here."""
    if not failed:
        return
    lines = [f.summary() for f in failed]
    raise SystemExit(f"{what}: {len(failed)} job(s) FAILED "
                     f"(good outcomes above are complete):\n  "
                     + "\n  ".join(lines))


def _cache_from_args(args) -> Optional[ExperimentCache]:
    if getattr(args, "no_cache", False):
        return None
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir is None:
        return None
    return ExperimentCache(cache_dir)


def _config_from_args(args) -> SystemConfig:
    """The scaled config with every simulation flag the command has
    (``--device`` swaps in a device table; unknown names exit with the
    registry listing)."""
    config = scaled_config()
    if getattr(args, "bound", None) is not None:
        config = config.with_policy(cpi_bound=args.bound)
    if getattr(args, "validate", False):
        config = config.replace(validate_protocol=True)
    if getattr(args, "no_fast_forward", False):
        config = config.replace(fast_forward=False)
    if getattr(args, "device", None):
        try:
            config = apply_device(config, args.device)
        except KeyError as exc:
            raise SystemExit(exc.args[0])
    return config


def _settings_from_args(args) -> RunnerSettings:
    return RunnerSettings(cores=args.cores,
                          instructions_per_core=args.instructions,
                          seed=args.seed)


def _make_runner(args) -> ExperimentRunner:
    return ExperimentRunner(config=_config_from_args(args),
                            settings=_settings_from_args(args),
                            cache=_cache_from_args(args))


def _add_scale_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--instructions", type=int, default=120_000,
                        help="instructions per core (default 120000)")
    parser.add_argument("--cores", type=int, default=16,
                        help="core count, multiple of 4 (default 16)")
    parser.add_argument("--seed", type=int, default=2011,
                        help="trace generator seed")


def _add_ff_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--no-fast-forward", action="store_true",
                        help="disable idle-period fast-forward (results are "
                             "byte-identical either way; this is the "
                             "debugging escape hatch)")


def _add_cache_args(parser: argparse.ArgumentParser,
                    default: Optional[str] = DEFAULT_CACHE_DIR) -> None:
    note = default if default is not None else "disabled"
    parser.add_argument("--cache-dir", default=default,
                        help=f"on-disk trace/baseline cache root "
                             f"(default: {note})")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk cache")


def _add_retries_arg(parser: argparse.ArgumentParser,
                     default: int = 0) -> None:
    parser.add_argument("--retries", type=int, default=default,
                        help="extra attempts per job before recording "
                             f"its failure (default {default})")


def _add_kind_args(parser: argparse.ArgumentParser) -> None:
    """``--kind`` and the point axes it reads (see repro.sim.jobs)."""
    parser.add_argument("--kind", choices=list(KINDS), default="policy",
                        help="experiment kind (default policy)")
    parser.add_argument("--policies", nargs="+", default=["MemScale"],
                        metavar="POLICY",
                        help=f"policies from {POLICY_NAMES} "
                             f"(kind=policy/scenario)")
    parser.add_argument("--budgets", nargs="+", type=float, default=None,
                        metavar="FRAC",
                        help="budget fractions (kind=cap: of each mix's "
                             "baseline memory power; kind=multidomain: "
                             "of baseline memory + nominal core power)")
    parser.add_argument("--devices", nargs="+", default=None,
                        metavar="NAME",
                        help="device technology tables (kind=scenario; "
                             "default ddr3-1333), each compared against "
                             "its own baseline")


def _check_mix(mix: str) -> str:
    # ``trace:<name>`` mixes resolve against the cache's imported-trace
    # store inside the runner, which owns the error message.
    if mix.startswith(IMPORTED_TRACE_PREFIX):
        return mix
    known = known_mix_names()
    if mix not in known:
        raise SystemExit(f"unknown mix {mix!r}; choose from {known} "
                         f"(or an imported 'trace:<name>')")
    return mix


def _add_device_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--device", default=None, metavar="NAME",
                        help="device technology table to swap in "
                             "(see `repro scenarios`; default: the "
                             "config's DDR3-1333 timings/currents)")


def cmd_table1(args) -> None:
    runner = _make_runner(args)
    rows = []
    for name, mix in MIXES.items():
        trace = runner.trace(name)
        rows.append([name, f"{trace.rpki:.2f}", f"{trace.wpki:.2f}",
                     " ".join(mix.apps)])
    print(format_table(["Name", "RPKI", "WPKI", "Applications (x4 each)"],
                       rows, title="Table 1: workload descriptions"))


def cmd_run(args) -> None:
    mix = _check_mix(args.mix)
    runner = _make_runner(args)
    if mix.startswith(IMPORTED_TRACE_PREFIX):
        # Resolve now so a missing import or core-count mismatch is a
        # clean CLI error, not a traceback from inside the run.
        try:
            runner.trace(mix)
        except ValueError as exc:
            raise SystemExit(str(exc))
    if args.policy not in POLICY_NAMES or args.policy == "Baseline":
        raise SystemExit(
            f"unknown policy {args.policy!r}; registered governors are:\n"
            f"{governor_listing()}\n"
            f"(`run` accepts the sweep-able names except 'Baseline')")
    telemetry = JsonlTelemetry(args.telemetry) if args.telemetry else None
    try:
        cmp = runner.compare_named(mix, args.policy, telemetry=telemetry)
    finally:
        if telemetry is not None:
            telemetry.close()
    rows = [
        ["memory energy savings", f"{cmp.memory_energy_savings:+.1%}"],
        ["system energy savings", f"{cmp.system_energy_savings:+.1%}"],
        ["average CPI increase", f"{cmp.avg_cpi_increase:+.1%}"],
        ["worst CPI increase", f"{cmp.worst_cpi_increase:+.1%}"],
    ]
    point = (JobSpec("scenario", mix, policy=args.policy,
                     device=args.device).point
             if args.device else args.policy)
    print(format_table(["metric", "value"], rows,
                       title=f"{point} on {mix} vs baseline"))
    app_rows = [[app, f"{inc:+.1%}"]
                for app, inc in sorted(cmp.app_cpi_increase.items())]
    print()
    print(format_table(["application", "CPI increase"], app_rows))
    if args.telemetry:
        print(f"\nper-epoch telemetry written to {args.telemetry}")
    if args.validate:
        print("\nprotocol validator: armed, zero violations")


def _job_specs(args, mixes: List[str]) -> List[JobSpec]:
    """The specs a `sweep` or `service run` invocation asks for: one
    ``--kind`` over ``mixes``, reading the kind's axes from ``--policies``
    / ``--budgets`` / ``--devices``."""
    for mix in mixes:
        _check_mix(mix)
    for policy in args.policies:
        if policy not in POLICY_NAMES:
            raise SystemExit(
                f"unknown policy {policy!r}; registered governors are:\n"
                f"{governor_listing()}")
    try:
        return build_specs(args.kind, mixes, args.policies, args.budgets,
                           args.devices)
    except (KeyError, ValueError) as exc:
        raise SystemExit(exc.args[0])


def cmd_sweep(args) -> None:
    if args.mixes:
        mixes = list(args.mixes)
    elif args.scenarios:
        mixes = []
    else:
        mixes = list(MIXES)
    if args.scenarios:
        mixes += [m for m in args.scenarios if m not in mixes]
    specs = _job_specs(args, mixes)
    kind = KINDS[args.kind]
    config = _config_from_args(args)
    cache_dir = None if args.no_cache else args.cache_dir
    if args.jobs is not None and args.jobs < 1:
        raise SystemExit("--jobs must be >= 1")
    start = time.perf_counter()
    outcomes = run_jobs(specs, config=config,
                        settings=_settings_from_args(args), jobs=args.jobs,
                        cache_dir=cache_dir, telemetry_dir=args.telemetry,
                        retries=args.retries)
    wall = time.perf_counter() - start
    good, failed = split_outcomes(outcomes)
    if good:
        print(kind.table(good, f"{kind.title}: {len(mixes)} mixes x "
                               f"{len(specs) // len(mixes)} {kind.axis}"))
    if kind.notes:
        print(f"\n{kind.notes}")
    jobs = args.jobs if args.jobs is not None else "auto"
    cache_note = cache_dir if cache_dir is not None else "disabled"
    print(f"\n{len(good)} runs in {wall:.2f}s wall "
          f"(jobs={jobs}, cache={cache_note})")
    if args.validate:
        print("protocol validator: armed on every simulated run, "
              "zero violations")
    if args.telemetry:
        print(f"per-epoch telemetry JSONL files in {args.telemetry}/")
    if args.save:
        from repro.sim.serialize import save_results
        save_results(args.save, [o.result for o in good]
                     + [o.comparison for o in good])
        print(f"results saved to {args.save}")
    if kind.check is not None:
        failures = kind.check(good, config)
        if failures:
            raise SystemExit(f"{kind.name.upper()} CHECKS FAILED:\n  "
                             + "\n  ".join(failures))
        print(f"{kind.name} acceptance checks passed")
    _report_failures(failed, "sweep")


def cmd_governors(args) -> None:
    rows = [[name, mode, knobs, doc, desc]
            for name, mode, desc, knobs, doc in GOVERNOR_INFO]
    print(format_table(
        ["governor", "powerdown", "config knobs", "doc", "description"],
        rows, title="registered governors"))
    print("\nthe first eight are accepted by `run --policy` and "
          "`sweep --policies`;\nCap runs via `sweep --kind cap`, "
          "MultiDomain via `sweep --kind multidomain`,\n"
          "MemScale+Placement via `sweep --kind placement`, "
          "MemScale/channel via the\nrepro.core.extensions API "
          "(protocol + worked example: docs/governors.md)")


def cmd_bench(args) -> None:
    if not args.smoke:
        raise SystemExit("only --smoke is supported; run the full suite "
                         "with: pytest benchmarks/ --benchmark-only -s")
    if args.jobs < 1:
        raise SystemExit("--jobs must be >= 1")
    config = _config_from_args(args)
    mix = _check_mix(args.scenario) if args.scenario else "MID1"
    settings = RunnerSettings(cores=4, instructions_per_core=8_000, seed=2011)
    cache_dir = None if args.no_cache else args.cache_dir
    start = time.perf_counter()
    outcomes = run_sweep([mix], ["MemScale", "Static"], config=config,
                         settings=settings, jobs=args.jobs,
                         cache_dir=cache_dir)
    wall = time.perf_counter() - start
    good, failed_jobs = split_outcomes(outcomes)
    failures = [f.summary() for f in failed_jobs]
    for o in good:
        if o.result.epochs <= 0:
            failures.append(f"{o.mix}/{o.policy}: no epochs simulated")
        if not -1.0 <= o.comparison.system_energy_savings <= 1.0:
            failures.append(f"{o.mix}/{o.policy}: implausible savings "
                            f"{o.comparison.system_energy_savings:+.1%}")
        if o.comparison.memory_energy_savings <= 0.0:
            failures.append(f"{o.mix}/{o.policy}: no memory savings")
    # Validator-armed leg: a tiny in-process run (DVFS + powerdown +
    # refresh) with the DDR3 protocol validator raising on any violation,
    # so tier-1 exercises the armed path even when the sweep above was
    # satisfied from cache.
    from repro.memsim.validate import ProtocolViolation
    vrunner = ExperimentRunner(
        config=scaled_config().replace(validate_protocol=True),
        settings=RunnerSettings(cores=4, instructions_per_core=2_000,
                                seed=2011),
        cache=None)
    try:
        vrunner.run_named_policy("MID1", "MemScale+Fast-PD")
    except ProtocolViolation as exc:
        failures.append(f"validator: {exc}")
    # Capped leg: a 2-point budget sweep through the same parallel path
    # (cache shared with the sweep above), checking the power-capping
    # governor's no-silent-overshoot and fairness guarantees in tier-1.
    cap_outcomes, cap_failed = split_outcomes(run_jobs(
        cap_specs(["MID1"], SMOKE_BUDGET_FRACTIONS), config=config,
        settings=settings, jobs=args.jobs, cache_dir=cache_dir))
    failures.extend(f.summary() for f in cap_failed)
    failures.extend(check_cap_outcomes(cap_outcomes))
    print(format_table(SWEEP_HEADERS, sweep_table(outcomes),
                       title="bench smoke (parallel path)"))
    if failures:
        raise SystemExit("SMOKE FAILED:\n  " + "\n  ".join(failures))
    print("validator: armed leg passed (zero protocol violations)")
    print(f"cap: capped leg passed ({len(SMOKE_BUDGET_FRACTIONS)} budgets "
          f"+ throttle reference on MID1)")
    print(f"\nSMOKE OK: {len(outcomes)} runs, {args.jobs} workers, "
          f"{wall:.2f}s wall")


def cmd_cache(args) -> None:
    cache = ExperimentCache(args.cache_dir)
    stats = cache.stats()
    print(f"cache root       : {stats['root']}")
    print(f"trace entries    : {stats['trace_entries']}")
    if stats["legacy_trace_entries"]:
        print(f"  legacy (.npz)  : {stats['legacy_trace_entries']}")
    print(f"run entries      : {stats['run_entries']}")
    if stats["orphan_files"]:
        print(f"orphan files     : {stats['orphan_files']} "
              f"(half-deleted columnar entries; --prune sweeps them)")
    print(f"on-disk size     : {stats['total_bytes'] / 1e6:.2f} MB "
          f"({stats['total_bytes']} bytes)")
    if args.prune:
        removed = cache.prune()
        print(f"pruned {removed['files_removed']} files "
              f"({removed['bytes_removed'] / 1e6:.2f} MB)")


def _import_summary_rows(summary) -> List[List[str]]:
    return [
        ["source", summary.source],
        ["format", summary.format],
        ["requests", str(summary.requests)],
        ["reads", str(summary.reads)],
        ["writes", str(summary.writes)],
        ["unattached writebacks", str(summary.unattached_writebacks)],
        ["non-monotonic cycles", str(summary.non_monotonic_cycles)],
        ["distinct lines", str(summary.distinct_lines)],
        ["cycle span", f"{summary.first_cycle} .. {summary.last_cycle}"],
        ["replay cores", str(summary.cores)],
        ["RPKI (replayed)", f"{summary.rpki:.2f}"],
    ]


def cmd_trace(args) -> None:
    import dataclasses as _dc

    from repro.scenarios.fit import fit_trace
    from repro.scenarios.ingest import TraceFormatError, import_trace
    from repro.sim.cache import check_trace_name

    org = scaled_config().org
    name = getattr(args, "name", None) or "trace"
    if args.trace_command == "import":
        try:
            check_trace_name(name)
        except ValueError as exc:
            raise SystemExit(str(exc))
    try:
        trace, summary = import_trace(args.file, name, org,
                                      cores=args.cores, fmt=args.format)
    except (TraceFormatError, FileNotFoundError, OSError) as exc:
        raise SystemExit(str(exc))
    print(format_table(["field", "value"], _import_summary_rows(summary),
                       title=f"trace {args.file}"))
    fit = fit_trace(trace, org)
    print(f"\nphase fit: {len(fit.phases)} phases over "
          f"{len(fit.windows)} windows; row-hit {fit.row_hit_ratio:.0%}, "
          f"stream {fit.stream_fraction:.0%}, "
          f"working set {fit.working_set_lines} lines")
    if args.trace_command == "info":
        return
    cache = ExperimentCache(args.cache_dir)
    cache.store_imported_trace(name, trace, _dc.asdict(summary))
    print(f"\nimported as 'trace:{name}' into {cache.root}")
    print(f"replay: repro run trace:{name} --cores {summary.cores} "
          f"--cache-dir {args.cache_dir}")


def cmd_scenarios(args) -> None:
    from repro import scenarios as scn

    print(scn.scenario_listing())
    print()
    print(scn.device_listing())
    print("\nrun a rung    : repro run mix2 --cores 4 --device stt-mram"
          "\nsweep devices : repro sweep --kind scenario --scenarios "
          "mix1 mix4 --devices ddr3-1333 stt-mram"
          "\nimport traces : repro trace import FILE --name NAME; "
          "repro run trace:NAME")


def _service_report(service, outcomes, wall: float, verb: str) -> None:
    """Shared tail of `service run` / `service resume`."""
    good, failed = split_outcomes(outcomes)
    rows = []
    for o in outcomes:
        point = o.label.split("/", 1)[-1]
        if isinstance(o, JobFailure):
            rows.append([o.mix, point, "FAILED",
                         f"{o.error_type}: {o.message}"])
        else:
            rows.append([o.mix, point, "ok",
                         f"sys {o.comparison.system_energy_savings:+.1%}"])
    status = service.status()
    print(format_table(["workload", "point", "status", "detail"], rows,
                       title=f"service {verb}: {status['root']}"))
    print(f"\n{status['ok']} ok, {status['failed']} failed, "
          f"{status['pending'] - status['failed']} never-ran of "
          f"{status['enqueued']} enqueued ({wall:.2f}s wall); "
          f"store: {service.store.root}")
    if failed:
        print("failed jobs (a later `repro service resume` retries "
              "them):\n  " + "\n  ".join(f.summary() for f in failed))


def cmd_service(args) -> None:
    from repro.sim import service as svc

    try:
        _cmd_service(args, svc)
    except svc.ServiceError as exc:
        raise SystemExit(str(exc))


def _cmd_service(args, svc) -> None:
    if args.service_command == "status":
        service = svc.SweepService.open(args.dir)
        status = service.status()
        for key in ("root", "enqueued", "ok", "failed", "pending",
                    "ledger_lines_skipped", "jobs", "retries"):
            print(f"{key:21}: {status[key]}")
        for key, spec in service.pending():
            state = service.store.status(key) or "never ran"
            print(f"  pending: {spec.label} ({state})")
        return

    if args.service_command == "resume":
        service = svc.SweepService.open(args.dir, jobs=args.jobs,
                                        retries=args.retries)
        start = time.perf_counter()
        outcomes = service.resume()
        _service_report(service, outcomes, time.perf_counter() - start,
                        "resume")
        return

    # run
    specs = _job_specs(args, args.mixes or ["MID1"])
    service = svc.SweepService(args.dir, config=_config_from_args(args),
                               settings=_settings_from_args(args),
                               telemetry_dir=args.telemetry,
                               jobs=args.jobs, retries=args.retries)
    start = time.perf_counter()
    outcomes = service.run(specs, fail_labels=args.fail_label or None)
    _service_report(service, outcomes, time.perf_counter() - start, "run")


def cmd_query(args) -> None:
    import json as _json

    from repro.sim.store import ResultStore
    from repro.sim.service import STORE_NAME

    root = f"{args.dir}/{STORE_NAME}"
    store = ResultStore(root)
    records = store.query(mix=args.mix, policy=args.policy,
                          kind=args.kind, status=args.status)
    if args.jsonl:
        for record in records:
            print(_json.dumps(record))
        return
    rows = []
    for record in records:
        job = record.get("job", {})
        if record["status"] == "ok":
            outcome = record.get("outcome", {})
            comparison = outcome.get("comparison", {})
            detail = (f"sys {comparison.get('system_energy_savings', 0):+.1%}"
                      if comparison else "-")
        else:
            error = record.get("error", {})
            detail = f"{error.get('error_type')}: {error.get('message')}"
        rows.append([job.get("mix", "?"),
                     job.get("label", "?").split("/", 1)[-1],
                     job.get("kind", "?"), record["status"],
                     str(record.get("attempts", 1)), detail])
    counts = store.counts()
    print(format_table(
        ["workload", "point", "kind", "status", "attempts", "detail"],
        rows, title=f"result store: {root}"))
    print(f"\n{len(records)} of {counts['total']} records matched "
          f"({counts['ok']} ok, {counts['failed']} failed in store)")


def cmd_figure(args) -> None:
    runner = _make_runner(args)
    settings = runner.settings
    fig = args.number
    if fig in (5, 6):
        result = experiments.energy_savings(runner)
    elif fig in (9, 10, 11):
        result = experiments.policy_comparison(runner)
    elif fig == 12:
        result = experiments.sensitivity_cpi_bound(settings=settings)
    elif fig == 13:
        result = experiments.sensitivity_channels(settings=settings)
    elif fig == 14:
        result = experiments.sensitivity_memory_fraction(settings=settings)
    elif fig == 15:
        result = experiments.sensitivity_proportionality(settings=settings)
    else:
        raise SystemExit("supported figures: 5 6 9 10 11 12 13 14 15 "
                         "(7/8 via the 'timeline' command)")
    if not result.rows:
        raise SystemExit("experiment produced no rows")
    columns = [c for c in result.rows[0] if c != "app_cpi"]
    rows = [[_fmt(row[c]) for c in columns] for row in result.rows]
    print(format_table(columns, rows, title=result.name))
    if result.notes:
        print(f"\n{result.notes}")


def cmd_timeline(args) -> None:
    mix = _check_mix(args.mix)
    runner = _make_runner(args)
    result = experiments.timeline(runner, mix)
    rows = []
    for row in result.rows:
        worst_app = max(row["app_cpi"], key=row["app_cpi"].get) \
            if row["app_cpi"] else "-"
        rows.append([
            f"{row['time_us']:.1f}", f"{row['bus_mhz']:.0f}",
            f"{row['mean_channel_util']:.1%}",
            f"{row['memory_power_w']:.1f}", worst_app,
        ])
    print(format_table(
        ["time (us)", "bus MHz", "mean util", "memory W", "slowest app"],
        rows, title=f"timeline of {mix} under MemScale"))
    print(f"\n{result.notes}")


def cmd_stats(args) -> None:
    mix = _check_mix(args.mix)
    runner = _make_runner(args)
    stats = workload_stats(runner.trace(mix), runner.config.org)
    print(f"{mix}: {stats.cores} cores, RPKI={stats.rpki:.2f}, "
          f"WPKI={stats.wpki:.2f}")
    rows = []
    for app, s in stats.per_app.items():
        rows.append([app, f"{s.rpki:.2f}", f"{s.wpki:.2f}",
                     f"{s.mean_gap:.0f}", f"{s.gap_cv:.2f}",
                     f"{s.sequential_fraction:.0%}",
                     f"{s.bank_entropy:.2f}"])
    print(format_table(
        ["app", "RPKI", "WPKI", "mean gap", "gap CV", "seq%", "bank entropy"],
        rows, title="per-application trace statistics"))


def cmd_best_static(args) -> None:
    mix = _check_mix(args.mix)
    runner = _make_runner(args)
    bus_mhz, cmp = experiments.best_static_frequency(runner, mix)
    print(f"best static frequency for {mix}: {bus_mhz:.0f} MHz")
    print(f"  system energy savings : {cmp.system_energy_savings:+.1%}")
    print(f"  worst CPI increase    : {cmp.worst_cpi_increase:+.1%}")
    _, memscale = runner.run_memscale(mix)
    print(f"MemScale (no reboot, no oracle) on the same trace:")
    print(f"  system energy savings : {memscale.system_energy_savings:+.1%}")
    print(f"  worst CPI increase    : {memscale.worst_cpi_increase:+.1%}")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MemScale (ASPLOS 2011) reproduction experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="regenerate Table 1")
    _add_scale_args(p)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("run", help="run one policy on one mix")
    p.add_argument("mix")
    p.add_argument("--policy", default="MemScale",
                   help=f"one of {[n for n in POLICY_NAMES if n != 'Baseline']}")
    p.add_argument("--bound", type=float, default=None,
                   help="CPI degradation bound (default 0.10)")
    p.add_argument("--telemetry", default=None, metavar="FILE",
                   help="stream per-epoch telemetry JSONL to FILE")
    p.add_argument("--validate", action="store_true",
                   help="arm the DDR3 protocol validator (raises on any "
                        "timing/invariant violation)")
    _add_device_arg(p)
    _add_scale_args(p)
    _add_cache_args(p, default=None)
    _add_ff_arg(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep",
                       help="parallel (mix x point) sweep of one "
                            "experiment kind, with caching")
    p.add_argument("--mixes", nargs="+", default=None, metavar="MIX",
                   help="mixes to sweep (default: all twelve Table-1 "
                        "mixes, or just --scenarios when given)")
    p.add_argument("--scenarios", nargs="+", default=None, metavar="NAME",
                   help="scenario-library rungs to add to the mix list "
                        "(mix1..mix7; see `repro scenarios`)")
    _add_kind_args(p)
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: up to 8, one per CPU)")
    p.add_argument("--telemetry", default=None, metavar="DIR",
                   help="write one per-epoch telemetry JSONL file per run "
                        "into DIR")
    p.add_argument("--bound", type=float, default=None,
                   help="CPI degradation bound (default 0.10)")
    p.add_argument("--save", default=None, metavar="FILE",
                   help="save all results/comparisons to a JSON file")
    p.add_argument("--validate", action="store_true",
                   help="arm the DDR3 protocol validator in every worker")
    _add_scale_args(p)
    _add_cache_args(p)
    _add_ff_arg(p)
    _add_retries_arg(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("governors",
                       help="list every registered governor")
    p.set_defaults(func=cmd_governors)

    p = sub.add_parser("bench", help="benchmark entry points (CI smoke)")
    p.add_argument("--smoke", action="store_true",
                   help="run one tiny mix through the parallel path")
    p.add_argument("--jobs", type=int, default=2,
                   help="worker processes for the smoke run (default 2)")
    p.add_argument("--validate", action="store_true",
                   help="also arm the DDR3 protocol validator in the "
                        "smoke sweep itself")
    p.add_argument("--scenario", default=None, metavar="MIX",
                   help="run the smoke sweep on this mix/ladder rung "
                        "instead of MID1")
    _add_device_arg(p)
    _add_cache_args(p)
    _add_ff_arg(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("scenarios",
                       help="list the MPKI-laddered scenario library "
                            "and device technology tables")
    p.set_defaults(func=cmd_scenarios)

    p = sub.add_parser("trace",
                       help="import or inspect external memory traces "
                            "(DRAMSim2 k6 / CSV)")
    tsub = p.add_subparsers(dest="trace_command", required=True)

    tp = tsub.add_parser("import",
                         help="parse a trace file, re-interleave it onto "
                              "the configured geometry, and store it as "
                              "a replayable trace:<name> mix")
    tp.add_argument("file", help="trace file (k6: 'addr cmd cycle'; or "
                                 "CSV with the same columns)")
    tp.add_argument("--name", required=True,
                    help="store name; replay with `repro run "
                         "trace:<name>`")
    tp.add_argument("--format", choices=["auto", "k6", "csv"],
                    default="auto",
                    help="input format (default: detect)")
    tp.add_argument("--cores", type=int, default=16,
                    help="cores to round-robin the requests onto "
                         "(default 16; replay needs --cores to match)")
    tp.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                    help=f"cache root holding the imported store "
                         f"(default: {DEFAULT_CACHE_DIR})")
    tp.set_defaults(func=cmd_trace)

    tp = tsub.add_parser("info",
                         help="parse and summarize a trace file without "
                              "storing anything")
    tp.add_argument("file")
    tp.add_argument("--format", choices=["auto", "k6", "csv"],
                    default="auto",
                    help="input format (default: detect)")
    tp.add_argument("--cores", type=int, default=16,
                    help="cores the summary's replay stats assume "
                         "(default 16)")
    tp.set_defaults(func=cmd_trace)

    p = sub.add_parser("cache",
                       help="show on-disk experiment-cache statistics")
    p.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                   help=f"cache root (default: {DEFAULT_CACHE_DIR})")
    p.add_argument("--prune", action="store_true",
                   help="delete every cached entry after printing stats")
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser("service",
                       help="crash-safe sweep service: persistent queue "
                            "+ resumable result store")
    ssub = p.add_subparsers(dest="service_command", required=True)

    sp = ssub.add_parser("run", help="enqueue a sweep and execute it "
                                     "(idempotent: reruns only add "
                                     "missing jobs)")
    sp.add_argument("--dir", required=True, metavar="DIR",
                    help="service directory (queue.jsonl + store/ + "
                         "cache/)")
    sp.add_argument("--mixes", nargs="+", default=None, metavar="MIX",
                    help="mixes to sweep (default: MID1)")
    _add_kind_args(sp)
    sp.add_argument("--jobs", type=int, default=None,
                    help="worker processes (default: up to 8, one per "
                         "CPU)")
    sp.add_argument("--telemetry", default=None, metavar="DIR",
                    help="write per-epoch telemetry JSONL files into DIR")
    sp.add_argument("--validate", action="store_true",
                    help="arm the DDR3 protocol validator in every "
                         "worker")
    sp.add_argument("--fail-label", nargs="+", default=None,
                    metavar="MIX/POINT",
                    help="inject a deterministic failure into the named "
                         "jobs (testing hook, e.g. MID1/MemScale)")
    _add_scale_args(sp)
    _add_ff_arg(sp)
    _add_retries_arg(sp, default=1)
    sp.set_defaults(func=cmd_service)

    sp = ssub.add_parser("resume",
                         help="finish an interrupted sweep: execute only "
                              "the jobs without a successful store "
                              "record")
    sp.add_argument("--dir", required=True, metavar="DIR")
    sp.add_argument("--jobs", type=int, default=None,
                    help="override the recorded worker count")
    sp.add_argument("--retries", type=int, default=None,
                    help="override the recorded retry budget")
    sp.set_defaults(func=cmd_service)

    sp = ssub.add_parser("status",
                         help="queue/store progress of a service "
                              "directory")
    sp.add_argument("--dir", required=True, metavar="DIR")
    sp.set_defaults(func=cmd_service)

    p = sub.add_parser("query",
                       help="query a service directory's accumulated "
                            "result store")
    p.add_argument("--dir", required=True, metavar="DIR",
                   help="service directory (the `service run --dir`)")
    p.add_argument("--mix", default=None, help="filter by mix")
    p.add_argument("--policy", default=None,
                   help="filter by point (policy name, Cap0.80, "
                        "MD0.70, ...)")
    p.add_argument("--kind", default=None, choices=list(KINDS),
                   help="filter by experiment kind")
    p.add_argument("--status", default=None, choices=["ok", "failed"],
                   help="filter by record status")
    p.add_argument("--jsonl", action="store_true",
                   help="emit raw store records as JSONL instead of a "
                        "table")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("figure", help="regenerate a paper figure")
    p.add_argument("number", type=int)
    _add_scale_args(p)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("timeline", help="per-epoch timeline (Figures 7/8)")
    p.add_argument("mix")
    _add_scale_args(p)
    p.set_defaults(func=cmd_timeline)

    p = sub.add_parser("stats", help="trace statistics for a mix")
    p.add_argument("mix")
    _add_scale_args(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("best-static",
                       help="oracle static frequency vs MemScale")
    p.add_argument("mix")
    _add_scale_args(p)
    p.set_defaults(func=cmd_best_static)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
