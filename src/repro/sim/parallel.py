"""Parallel experiment execution: fan job-model runs across processes.

The serial :class:`~repro.sim.runner.ExperimentRunner` evaluates one
mix under one governor at a time and keeps traces and baselines only in
process memory. :func:`run_jobs` turns any list of
:class:`~repro.sim.jobs.JobSpec`\\ s — every experiment kind of
:data:`~repro.sim.jobs.KINDS` — into an embarrassingly parallel job,
the evaluation structure FastCap (Liu et al.) uses for epoch-based
multi-workload DVFS studies:

1. **warm phase** — one task per distinct (mix, job config) generates
   the deterministic trace *once*, stores it in the content-keyed
   on-disk cache (:mod:`repro.sim.cache`) in the flat columnar ``.npy``
   layout, and records the all-on baseline run beside it;
2. **fan-out phase** — one task per spec loads the shared artifacts
   from the cache and simulates only the job's own run, with an
   optional per-run telemetry JSONL stream. Trace loads go through
   ``np.load(..., mmap_mode="r")``: every worker's core arrays are
   read-only views of the same memory-mapped file, so the trace bytes
   exist once in the OS page cache no matter how many processes replay
   them — no per-worker ``generate_workload`` re-run, no per-worker
   decompression, no per-worker copy.

Determinism: trace generation is fully seeded and simulation is
event-ordered, so a parallel sweep produces *byte-identical*
:class:`~repro.sim.results.RunResult`\\ s to a serial sweep of the same
settings (asserted by ``tests/test_parallel.py``).

Workers are plain ``ProcessPoolExecutor`` processes (``fork`` start
method where available, so the imported package is inherited). With
``jobs=1`` — or ``None`` on a single-CPU machine — everything runs
inline in the calling process, which is also the path the tests use to
compare against.

Fault isolation: jobs are submitted one future each and collected
individually through :func:`execute_jobs` — one raising job (or even a
worker killed by the OS) surfaces as a
:class:`~repro.sim.jobs.JobFailure` record
carrying the worker-side traceback while every other job completes.
Each job gets ``retries`` extra attempts before its failure is
recorded; a broken pool is rebuilt and the survivors re-run in
single-worker isolation so a poison job cannot take the sweep down.
The persistent-queue layer on top of this lives in
:mod:`repro.sim.service`.
"""

from __future__ import annotations

import os
import re
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import (Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

import multiprocessing

from repro.config import SystemConfig, scaled_config
from repro.cpu.trace import WorkloadTrace
from repro.cpu.workloads import known_mix_names
from repro.sim.cache import DEFAULT_CACHE_DIR, ExperimentCache
from repro.sim.jobs import (KINDS, JobFailure, JobSpec, SweepOutcome,
                            policy_specs, split_outcomes)
from repro.sim.runner import (IMPORTED_TRACE_PREFIX, POLICY_NAMES,
                              ExperimentRunner, RunnerSettings)
from repro.sim.telemetry import JsonlTelemetry

PathLike = Union[str, Path]


class InjectedFailure(RuntimeError):
    """Raised by the worker for jobs named in ``fail_labels``.

    The failure-injection hook the service's crash-resume tests use:
    deterministic, picklable (plain label strings cross the pool, not
    closures), and — crucially — *absent on resume*, so a resumed sweep
    heals the injected failure like a real transient fault.
    """


def default_jobs() -> int:
    """Worker count when the caller does not specify one.

    Prefers the scheduling affinity mask over the raw CPU count so a
    cgroup/affinity-limited container (CI runners, ``taskset``) gets
    the CPUs it may actually run on instead of overcommitting workers
    against every core the host has.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    return max(1, min(8, cpus))


def telemetry_filename(mix: str, point: str) -> str:
    """Stable, filesystem-safe JSONL name for one (mix, point) run."""
    slug = re.sub(r"[^A-Za-z0-9._-]+", "_", point)
    return f"{mix}__{slug}.jsonl"


# -- worker-side entry points (module level: must be picklable) -----------

def _make_runner(config: SystemConfig, settings: RunnerSettings,
                 cache_dir: Optional[str]) -> ExperimentRunner:
    cache = ExperimentCache(cache_dir) if cache_dir is not None else None
    return ExperimentRunner(config=config, settings=settings, cache=cache)


def _warm_mix(args: Tuple[SystemConfig, RunnerSettings, str, Optional[str]]
              ) -> str:
    """Warm task: populate trace + baseline cache entries for one mix."""
    config, settings, mix, cache_dir = args
    _make_runner(config, settings, cache_dir).warm(mix)
    return mix


def _build_trace(args: Tuple[RunnerSettings, str, Optional[str]]
                 ) -> Tuple[str, WorkloadTrace]:
    """Trace-only task used by :func:`generate_traces`."""
    settings, mix, cache_dir = args
    runner = _make_runner(scaled_config(), settings, cache_dir)
    return mix, runner.trace(mix)


def _run_spec(args: Tuple[JobSpec, SystemConfig, RunnerSettings,
                          Optional[str], Optional[str],
                          Optional[frozenset]]) -> SweepOutcome:
    """Fan-out task: one job of any kind, compared against its baseline.

    The spec's :data:`~repro.sim.jobs.KINDS` entry supplies the config
    the job runs on, its governor (none: ``spec.policy`` runs through
    :meth:`~repro.sim.runner.ExperimentRunner.run_named_policy`) and the
    extra outcome fields read off the finished run.
    """
    spec, config, settings, cache_dir, telemetry_dir, fail = args
    if fail and spec.label in fail:
        raise InjectedFailure(f"injected failure for {spec.label}")
    kind = KINDS[spec.kind]
    start = time.perf_counter()
    runner = _make_runner(kind.configure(config, spec), settings, cache_dir)
    governor = kind.governor(runner, spec) if kind.governor else None
    telemetry = None
    telemetry_path = None
    if telemetry_dir is not None:
        telemetry_path = str(Path(telemetry_dir)
                             / telemetry_filename(spec.mix, spec.point))
        telemetry = JsonlTelemetry(telemetry_path)
    try:
        if governor is None:
            result, comparison = runner.run_named_policy(
                spec.mix, spec.policy, telemetry=telemetry)
        else:
            result, comparison = runner.run_and_compare(
                spec.mix, governor, telemetry=telemetry)
    finally:
        if telemetry is not None:
            telemetry.close()
    extra = kind.extras(runner, spec, governor, result, comparison)
    hits = runner.cache.hits if runner.cache is not None else 0
    return SweepOutcome(spec=spec, result=result, comparison=comparison,
                        wall_s=time.perf_counter() - start,
                        cache_hits=hits, telemetry_path=telemetry_path,
                        extra=extra)


# -- driver ----------------------------------------------------------------

def _executor(jobs: int) -> ProcessPoolExecutor:
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platforms without fork
        context = multiprocessing.get_context()
    return ProcessPoolExecutor(max_workers=jobs, mp_context=context)


def _run_guarded(payload: Tuple[Callable, object]) -> Tuple[str, object, float]:
    """Worker-side wrapper: never lets an exception cross the pool.

    Returns ``("ok", outcome, wall_s)`` or ``("error", info, wall_s)``
    where ``info`` carries the exception class, message, and formatted
    traceback — some exceptions do not survive pickling, and a raising
    future would otherwise cost the whole sweep under ``pool.map``.
    """
    fn, args = payload
    start = time.perf_counter()
    try:
        return ("ok", fn(args), time.perf_counter() - start)
    except BaseException as exc:  # noqa: BLE001 - isolate *everything*
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise
        return ("error", {
            "error_type": type(exc).__name__,
            "message": str(exc),
            "traceback": traceback.format_exc(),
        }, time.perf_counter() - start)


#: ``info`` payload synthesized when a worker process vanished (killed
#: by the OS, OOM, segfault) and took its future down with it.
def _worker_died_info(exc: BaseException) -> Dict[str, str]:
    return {
        "error_type": type(exc).__name__,
        "message": ("worker process died before returning a result "
                    f"({exc})" if str(exc) else
                    "worker process died before returning a result"),
        "traceback": "",
    }


def execute_jobs(fn: Callable, job_args: Sequence[object],
                 jobs_meta: Sequence[object], jobs: int,
                 retries: int = 0,
                 on_outcome: Optional[Callable[[int, object], None]] = None
                 ) -> List[object]:
    """Run ``fn`` over ``job_args`` with per-job fault isolation.

    The replacement for bare ``pool.map``: every job is submitted as
    its own future and collected individually, so one raising job (or a
    worker the OS killed mid-run) becomes a :class:`JobFailure` record
    in the returned list — input order, one entry per job — while every
    other job still completes. Each job is attempted up to
    ``1 + retries`` times. ``jobs_meta[i]`` is the job (its
    :class:`~repro.sim.jobs.JobSpec`) stored on failure records, which
    take their label from its ``label``; ``on_outcome(i,
    outcome_or_failure)`` fires as soon as job ``i`` settles (the
    service layer persists results incrementally through it, so a crash
    loses at most in-flight jobs).

    With ``jobs == 1`` everything runs inline in the calling process —
    identical results, no pool (and no isolation from a job that kills
    the *process*; the pool path survives even that).
    """
    n = len(job_args)
    if len(jobs_meta) != n:
        raise ValueError("jobs_meta must match job_args")
    results: List[object] = [None] * n
    attempts = [0] * n

    def settle(i: int, status: str, value: object, wall: float) -> bool:
        """Record one attempt; True once the job has a final outcome."""
        attempts[i] += 1
        if status == "ok":
            results[i] = value
        elif attempts[i] > retries:
            results[i] = JobFailure(
                job=jobs_meta[i],
                label=getattr(jobs_meta[i], "label", str(jobs_meta[i])),
                attempts=attempts[i], wall_s=wall, **value)
        else:
            return False
        if on_outcome is not None:
            on_outcome(i, results[i])
        return True

    if jobs == 1:
        for i in range(n):
            while True:
                status, value, wall = _run_guarded((fn, job_args[i]))
                if settle(i, status, value, wall):
                    break
        return results

    # Pool phase: one future per job, collected as they complete.
    leftovers: List[int] = []
    with _executor(jobs) as pool:
        futures = {pool.submit(_run_guarded, (fn, job_args[i])): i
                   for i in range(n)}
        pending = set(futures)
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for fut in done:
                i = futures[fut]
                try:
                    status, value, wall = fut.result()
                except BrokenProcessPool:
                    # The job that broke the pool and the innocents
                    # whose futures it cancelled are indistinguishable
                    # here; all of them retry in isolation below.
                    leftovers.append(i)
                    continue
                except Exception as exc:  # pragma: no cover - pickling
                    status, value, wall = ("error", _worker_died_info(exc),
                                           0.0)
                if not settle(i, status, value, wall):
                    leftovers.append(i)

    # Isolation phase: survivors of a broken pool and jobs with retry
    # budget left each get a fresh single-worker pool, so a poison job
    # that kills its worker exhausts only its own attempts.
    for i in leftovers:
        while results[i] is None:
            try:
                with _executor(1) as solo:
                    status, value, wall = solo.submit(
                        _run_guarded, (fn, job_args[i])).result()
            except BrokenProcessPool as exc:
                status, value, wall = ("error", _worker_died_info(exc), 0.0)
            except Exception as exc:  # pragma: no cover - pickling
                status, value, wall = ("error", _worker_died_info(exc), 0.0)
            settle(i, status, value, wall)
    return results


def _check_inputs(mixes: Sequence[str], policies: Sequence[str]) -> None:
    known = known_mix_names()
    for mix in mixes:
        # ``trace:<name>`` mixes resolve against the worker's cache (the
        # imported-trace store), not the synthetic registry.
        if mix.startswith(IMPORTED_TRACE_PREFIX):
            continue
        if mix not in known:
            raise ValueError(f"unknown mix {mix!r}; choose from {known}")
    for policy in policies:
        if policy not in POLICY_NAMES:
            raise ValueError(
                f"unknown policy {policy!r}; choose from {POLICY_NAMES}")


def _warm(specs: Sequence[JobSpec], config: SystemConfig,
          settings: RunnerSettings, cache_dir: Optional[str],
          jobs: int) -> None:
    """Warm phase: build the trace + baseline cache entries of each
    distinct (mix, job config) exactly once before fanning out, so
    concurrent jobs hit the cache instead of racing to regenerate
    baselines.

    Warm failures are swallowed: the fan-out jobs of an unwarmable mix
    produce their own per-job failure records, which is where the error
    belongs.
    """
    if cache_dir is None:
        return
    pairs = list(dict.fromkeys(
        (spec.mix, KINDS[spec.kind].configure(config, spec))
        for spec in specs))
    execute_jobs(_warm_mix,
                 [(cfg, settings, mix, cache_dir) for mix, cfg in pairs],
                 [mix for mix, _ in pairs], jobs)


def run_jobs(specs: Sequence[JobSpec],
             config: Optional[SystemConfig] = None,
             settings: Optional[RunnerSettings] = None,
             jobs: Optional[int] = None,
             cache_dir: Optional[PathLike] = DEFAULT_CACHE_DIR,
             telemetry_dir: Optional[PathLike] = None,
             retries: int = 0,
             fail_labels: Optional[Sequence[str]] = None,
             on_outcome: Optional[Callable[[int, object], None]] = None
             ) -> List[object]:
    """Execute every spec, in parallel; one outcome per spec, input order.

    Parameters
    ----------
    specs
        Jobs of any kind (build them with the
        :mod:`repro.sim.jobs` spec builders).
    jobs
        Worker processes; ``None`` picks :func:`default_jobs`, ``1``
        runs everything inline (no pool).
    cache_dir
        Root of the on-disk artifact cache shared by all workers
        (default ``.repro_cache``). ``None`` disables caching — each
        worker then regenerates its mix's trace and baseline.
    telemetry_dir
        When given, each run streams its per-epoch JSONL record file
        into this directory (see EXPERIMENTS.md for the schema).
    retries
        Extra attempts per job before its failure is recorded.
    fail_labels, on_outcome
        The service layer's hooks: inject a deterministic
        :class:`InjectedFailure` into the jobs with these labels, and
        call ``on_outcome(i, outcome)`` as soon as job ``i`` settles.

    A job that raises (or whose worker dies) does not abort the sweep:
    its slot in the returned list holds a
    :class:`~repro.sim.jobs.JobFailure` record with the worker-side
    traceback, and every other job completes.
    """
    specs = list(specs)
    _check_inputs(list(dict.fromkeys(spec.mix for spec in specs)),
                  [spec.policy for spec in specs if spec.policy])
    config = config if config is not None else scaled_config()
    settings = settings if settings is not None else RunnerSettings()
    if jobs is None:
        jobs = default_jobs()
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    cache_dir = str(cache_dir) if cache_dir is not None else None
    if telemetry_dir is not None:
        Path(telemetry_dir).mkdir(parents=True, exist_ok=True)
        telemetry_dir = str(telemetry_dir)
    if jobs > 1:
        _warm(specs, config, settings, cache_dir, jobs)
    fail = frozenset(fail_labels) if fail_labels else None
    job_args = [(spec, config, settings, cache_dir, telemetry_dir, fail)
                for spec in specs]
    return execute_jobs(_run_spec, job_args, specs, jobs, retries=retries,
                        on_outcome=on_outcome)


def run_sweep(mixes: Sequence[str],
              policies: Sequence[str] = ("MemScale",),
              config: Optional[SystemConfig] = None,
              settings: Optional[RunnerSettings] = None,
              jobs: Optional[int] = None,
              cache_dir: Optional[PathLike] = DEFAULT_CACHE_DIR,
              telemetry_dir: Optional[PathLike] = None,
              retries: int = 0) -> List[SweepOutcome]:
    """Evaluate every ``mix`` under every ``policy``: :func:`run_jobs`
    over :func:`~repro.sim.jobs.policy_specs`, outcomes in
    ``(mix, policy)`` input order."""
    return run_jobs(policy_specs(mixes, policies), config=config,
                    settings=settings, jobs=jobs, cache_dir=cache_dir,
                    telemetry_dir=telemetry_dir, retries=retries)


def generate_traces(mixes: Sequence[str],
                    settings: Optional[RunnerSettings] = None,
                    jobs: Optional[int] = None,
                    cache_dir: Optional[PathLike] = DEFAULT_CACHE_DIR
                    ) -> Dict[str, WorkloadTrace]:
    """Build (or load from cache) the traces of ``mixes``, in parallel.

    Raises :class:`RuntimeError` with the failure summaries if any mix
    fails.
    """
    mixes = list(mixes)
    _check_inputs(mixes, [])
    settings = settings if settings is not None else RunnerSettings()
    if jobs is None:
        jobs = default_jobs()
    cache_dir = str(cache_dir) if cache_dir is not None else None
    outcomes = execute_jobs(_build_trace,
                            [(settings, mix, cache_dir) for mix in mixes],
                            mixes, jobs if len(mixes) > 1 else 1)
    good, failed = split_outcomes(outcomes)
    if failed:
        raise RuntimeError("trace generation failed:\n  "
                           + "\n  ".join(f.summary() for f in failed))
    return dict(good)
