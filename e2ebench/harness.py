"""One benchmark run: set-up, measured sets, checks, and the report.

:func:`run` is what ``e2ebench/run.py`` calls once ``src/`` is on the
import path.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from e2ebench import hostspeed, suite, tracing

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups per run: at least SETUP_MIN, more while those so far took
#: under SETUP_SECONDS in total, at most SETUP_MAX. ``setup_s`` reports
#: their median, so a cheap set-up is sampled more often.
SETUP_MIN = 3
SETUP_SECONDS = 4.0
SETUP_MAX = 15


def declared_units(trace: bool) -> Dict[str, str]:
    """``{metric: unit}`` of the metrics BENCHMARK.json declares for
    this kind of run, in declaration order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def timed_setups(workload: suite.Workload, seed: int, cache_dir: Path,
                 host: hostspeed.HostSpeed) -> List[float]:
    """Set up into ``cache_dir`` repeatedly, each time in a fresh
    interpreter after removing the previous set-up, so every repeat pays
    for start-up and imports as a user does. ``host`` times its kernel
    before each set-up and after the last. Returns the wall times."""
    command = [sys.executable, str(ROOT / "e2ebench" / "run.py"),
               "--workload", workload.name, "--seed", str(seed),
               "--seconds", "0", "--setup-into", str(cache_dir)]
    times: List[float] = []
    while len(times) < SETUP_MIN or (sum(times) < SETUP_SECONDS
                                     and len(times) < SETUP_MAX):
        shutil.rmtree(cache_dir, ignore_errors=True)
        host.sample(workload.setup_calls)
        start = time.perf_counter()
        subprocess.run(command, check=True, timeout=170)
        times.append(time.perf_counter() - start)
    host.sample(workload.setup_calls)
    return times


def peak_rss_mb() -> float:
    """Largest RSS of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Tally:
    """Checks every measured set of one run against the first set."""

    def __init__(self, cpi_bound: float):
        self.cpi_bound = cpi_bound
        self.attempted = 0
        self.failures: List[str] = []
        self.digest = None
        self.simulated: Dict[str, float] = {}

    def add(self, result: suite.SetResult) -> None:
        outcomes = result.outcomes
        self.attempted += len(outcomes)
        failed = suite.check(outcomes, self.cpi_bound)
        digest = suite.digest(outcomes)
        if self.digest is None:
            self.digest = digest
            self.simulated = suite.simulated_metrics(outcomes)
        elif digest != self.digest:
            failed = {i: f"results differ from the first set ({digest[:12]} "
                         f"vs {self.digest[:12]})"
                      for i in range(len(outcomes))}
        self.failures += failed.values()


def fits(begin: float, steps: List[float], seconds: float) -> bool:
    """Whether one more step of the median length ends within ``seconds``
    of ``begin``."""
    return time.perf_counter() - begin + statistics.median(steps) <= seconds


def measure(workload: suite.Workload, seed: int, seconds: float,
            work: Path, tally: Tally) -> Dict[str, float]:
    """End-to-end metrics: set up, then repeat the set while another one
    fits in ``seconds``. The host-speed kernel runs before every set-up
    and set and after the last of each; ``wall_s`` and ``setup_s`` are
    the median times scaled to the nominal host by the kernel's speed in
    their gaps."""
    warm_dir = work / "setup"
    setup_host = hostspeed.HostSpeed(fresh=True)
    setups = timed_setups(workload, seed, warm_dir, setup_host)
    host = hostspeed.HostSpeed(workload.jobs())
    walls: List[float] = []
    steps: List[float] = []
    begin = time.perf_counter()
    while not steps or fits(begin, steps, seconds):
        step_start = time.perf_counter()
        host.sample(hostspeed.gap_calls(walls[-1] if walls else 0.0))
        cache_dir = work / f"cold{len(walls)}" if workload.cold else warm_dir
        result = suite.run_set(workload, seed, cache_dir)
        walls.append(result.wall_s)
        tally.add(result)
        if workload.cold:
            shutil.rmtree(cache_dir)
        if len(walls) == 1:
            # The process's RSS keeps growing over repeated sets, so
            # take the high-water mark at a fixed point: after the first.
            rss_mb = peak_rss_mb()
        steps.append(time.perf_counter() - step_start)
    host.sample(hostspeed.gap_calls(walls[-1]))
    print("set-ups (s): " + " ".join(f"{s:.3f}" for s in setups))
    print("sets (s):    " + " ".join(f"{w:.3f}" for w in walls))
    print(f"kernel call: {1e3 * setup_host.call_s():.2f} ms around set-ups "
          f"(fresh interpreter), "
          f"{1e3 * host.call_s():.2f} ms x {host.processes} around sets "
          f"(nominal {1e3 * hostspeed.NOMINAL_CALL_S:.0f} ms)")
    print(f"unscaled:    wall {statistics.median(walls):.4f} s, "
          f"set-up {statistics.median(setups):.4f} s")
    metrics = {
        "wall_s": host.scale(statistics.median(walls)),
        "setup_s": setup_host.scale(statistics.median(setups)),
        "peak_rss_mb": rss_mb,
        "ok_frac": 1.0 - len(tally.failures) / tally.attempted,
    }
    metrics.update(tally.simulated)
    return metrics


def measure_traced(workload: suite.Workload, seed: int, seconds: float,
                   work: Path, tally: Tally) -> Dict[str, float]:
    """Per-layer metrics: set up once under tracing, then alternate
    untraced and traced sets while another pair fits in ``seconds``,
    then run one set under the profiler."""
    setup_tracer = tracing.Tracer(work / "spool-setup")
    with setup_tracer.installed():
        suite.setup(workload, seed, work / "setup")
    setup_spans = setup_tracer.collect()
    jobs = workload.jobs()

    def cache_for(tag: str) -> Path:
        return work / f"cold-{tag}" if workload.cold else work / "setup"

    plain: List[float] = []
    traced: List[float] = []
    last: Dict[str, list] = {}

    def run_plain(tag: int) -> None:
        result = suite.run_set(workload, seed, cache_for(f"u{tag}"))
        plain.append(result.wall_s)
        tally.add(result)

    def run_traced(tag: int) -> None:
        tracer = tracing.Tracer(work / f"spool-{tag}")
        with tracer.installed():
            result = suite.run_set(workload, seed, cache_for(f"t{tag}"),
                                   tracer=tracer)
        traced.append(result.wall_s)
        tally.add(result)
        last["spans"], last["outcomes"] = tracer.collect(), result.outcomes
        tracing.check_complete(last["spans"], workload.n_runs(),
                               workload.warm_tasks(jobs))

    begin = time.perf_counter()
    while not traced or fits(begin, [a + b for a, b in zip(plain, traced)],
                             seconds):
        # Alternate which of the pair goes first, so a drift in host
        # speed does not bias the overhead.
        tag = len(traced)
        pair = ((run_plain, run_traced) if tag % 2 == 0
                else (run_traced, run_plain))
        for step in pair:
            step(tag)

    profiler = tracing.Tracer(work / "spool-profile", profile=True,
                              profile_parent=jobs == 1)
    with profiler.installed():
        tally.add(suite.run_set(workload, seed, cache_for("p"),
                                tracer=profiler))

    metrics = tracing.layer_metrics(last["spans"], last["outcomes"])
    metrics.update(tracing.setup_metrics(setup_spans))
    metrics.update(tracing.self_shares(work / "spool-profile"))
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_pct"] = 100.0 * overhead / statistics.median(plain)
    return metrics


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    """Measure one workload and print the report; returns the exit code."""
    if workload_name not in suite.WORKLOADS:
        print(f"e2ebench: unknown workload {workload_name!r}; choose from "
              f"{sorted(suite.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = suite.WORKLOADS[workload_name]
    work = ROOT / ".e2ebench_work" / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True)
    os.environ["TMPDIR"] = str(work)
    tally = Tally(workload.config().policy.cpi_bound)
    try:
        measure_fn = measure_traced if trace else measure
        metrics = measure_fn(workload, seed, seconds, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            work.parent.rmdir()

    units = declared_units(trace)
    if set(metrics) != set(units):
        print("e2ebench: measured metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 3
    failed = len(tally.failures)
    print(f"workload: {workload.name}  seed: {seed}  "
          f"jobs: {workload.jobs()}  runs per set: {workload.n_runs()}")
    print(f"results digest: {tally.digest}")
    print(f"failed_frac: {failed / tally.attempted:.4f} "
          f"({failed} of {tally.attempted} runs)")
    for reason in sorted(set(tally.failures)):
        print(f"  FAILED: {reason}")
    for name, unit in units.items():
        print(f"  {name:<32} {metrics[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0
