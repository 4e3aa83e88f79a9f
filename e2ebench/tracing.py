"""Spans and counters around the program's public entry points.

:class:`Tracer` wraps public methods of the layers (runner, trace
generator, cache, system simulator, event engine, governors, power
model) for the duration of a ``with tracer.installed():`` block and
restores the originals afterwards; nothing under ``src/`` changes.

* Coarse calls become spans: name, id, parent id, start, end and a few
  attributes. A ``system.run`` span also carries the run's engine event
  counts, its modelled DRAM counts from ``controller.snapshot()``, and
  the time and calls it spent in the fine-grained entry points below.
* Fine-grained calls (``EventEngine.run_until_stopped``, governor
  ``on_profile_end``, ``PowerModel.measure``) run thousands of times per
  simulation; they are summed into the enclosing ``system.run`` span
  instead of recorded one by one.

Sweep workers are forked from the traced process and inherit the
wrappers. A worker writes its spans to ``<spool>/<pid>.jsonl`` each time
its outermost span closes, which is before the job's result reaches the
parent, so :meth:`Tracer.collect` sees every span once the sweep has
returned. With ``profile=True`` the outermost spans of the processes
that simulate also run under ``cProfile`` and dump their statistics to
the spool, for :func:`self_shares`.
"""

from __future__ import annotations

import cProfile
import contextlib
import functools
import itertools
import json
import os
import pstats
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

from repro.core.governor import Governor, MemScaleGovernor
from repro.core.power_model import PowerModel
from repro.cpu.workloads import TraceGenerator
from repro.memsim.engine import EventEngine
from repro.sim.cache import ExperimentCache
from repro.sim.parallel import SweepOutcome
from repro.sim.runner import ExperimentRunner
from repro.sim.system import SystemSimulator

#: Source modules whose self time :func:`self_shares` reports, keyed by
#: the metric prefix: (package directory, file name).
PROFILED_MODULES = {
    "engine": ("memsim", "engine.py"),
    "bank": ("memsim", "bank.py"),
    "controller": ("memsim", "controller.py"),
    "rank": ("memsim", "rank.py"),
    "channel": ("memsim", "channel.py"),
    "address": ("memsim", "address.py"),
    "request": ("memsim", "request.py"),
    "counters": ("memsim", "counters.py"),
    "core_model": ("cpu", "core_model.py"),
}


class SpanLossError(RuntimeError):
    """The spans collected do not account for every job of the set."""


class Tracer:
    """In-memory span recorder for one traced measurement."""

    def __init__(self, spool: Path, profile: bool = False,
                 profile_parent: bool = True):
        self.spool = Path(spool)
        self.spool.mkdir(parents=True, exist_ok=True)
        self.profile = profile
        self._profile_here = profile and profile_parent
        self.spans: List[dict] = []
        self._stack: List[dict] = []
        self._ids = itertools.count()
        self._pid = os.getpid()
        self._worker = False
        self._root: Optional[str] = None
        self._fine: Optional[Dict[str, float]] = None
        self._profiler: Optional[cProfile.Profile] = None
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # A pool worker starts with a copy of the parent's open spans;
        # its own spans hang off the span that was open at the fork.
        self._root = self._stack[-1]["id"] if self._stack else None
        self._pid = os.getpid()
        self._worker = True
        self._profile_here = self.profile
        self._stack = []
        self.spans = []
        self._fine = None
        self._profiler = None

    # -- spans -------------------------------------------------------------

    def _open(self, name: str, attrs: dict) -> dict:
        if not self._stack and self._profile_here:
            self._profiler = cProfile.Profile()
            self._profiler.enable()
        parent = self._stack[-1]["id"] if self._stack else self._root
        span = {"name": name, "id": f"{self._pid}.{next(self._ids)}",
                "parent": parent, "pid": self._pid, "attrs": attrs,
                "start": time.perf_counter()}
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)
        if self._stack:
            return
        if self._profiler is not None:
            self._profiler.disable()
            self._profiler.dump_stats(
                str(self.spool / f"{self._pid}-{span['id']}.prof"))
            self._profiler = None
        if self._worker:
            with open(self.spool / f"{self._pid}.jsonl", "a") as fh:
                for rec in self.spans:
                    fh.write(json.dumps(rec) + "\n")
            self.spans = []

    def _inside(self, name: str) -> bool:
        return any(s["name"] == name for s in self._stack)

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[dict]:
        """Record a span around the ``with`` body; yields its attributes."""
        span = self._open(name, attrs)
        try:
            yield attrs
        finally:
            self._close(span)

    def collect(self) -> List[dict]:
        """Spans of this process plus every span its workers spooled."""
        spans = list(self.spans)
        for path in sorted(self.spool.glob("*.jsonl")):
            with open(path) as fh:
                spans += [json.loads(line) for line in fh]
        return spans

    # -- wrappers ----------------------------------------------------------

    def _wrap_span(self, name: str, fn, on_exit=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name, {})
            try:
                result = fn(*args, **kwargs)
                if on_exit is not None:
                    on_exit(span["attrs"], result)
                return result
            finally:
                tracer._close(span)
        return wrapper

    def _wrap_fine(self, key: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            fine = tracer._fine
            if fine is None:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                fine[key + "_s"] += time.perf_counter() - start
                fine[key + "_calls"] += 1
        return wrapper

    def _wrap_system_run(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(sim, *args, **kwargs):
            span = tracer._open("system.run", {
                "calibration": tracer._inside("runner.baseline")})
            outer_fine = tracer._fine
            tracer._fine = defaultdict(float)
            try:
                result = fn(sim, *args, **kwargs)
                span["attrs"].update(tracer._fine)
                span["attrs"].update(_run_counts(sim, result))
                return result
            finally:
                tracer._fine = outer_fine
                tracer._close(span)
        return wrapper

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap the layers' entry points for the ``with`` body."""
        targets = [
            (ExperimentRunner, "run_named_policy",
             self._wrap_span("runner.job", ExperimentRunner.run_named_policy)),
            (ExperimentRunner, "warm",
             self._wrap_span("runner.warm", ExperimentRunner.warm)),
            (ExperimentRunner, "baseline",
             self._wrap_span("runner.baseline", ExperimentRunner.baseline)),
            (TraceGenerator, "generate_mix",
             self._wrap_span("workloads.generate",
                             TraceGenerator.generate_mix)),
            (ExperimentCache, "load_trace",
             self._wrap_span("cache.get", ExperimentCache.load_trace, _hit)),
            (ExperimentCache, "load_run",
             self._wrap_span("cache.get", ExperimentCache.load_run, _hit)),
            (ExperimentCache, "store_trace",
             self._wrap_span("cache.put", ExperimentCache.store_trace)),
            (ExperimentCache, "store_run",
             self._wrap_span("cache.put", ExperimentCache.store_run)),
            (SystemSimulator, "run",
             self._wrap_system_run(SystemSimulator.run)),
            (EventEngine, "run_until_stopped",
             self._wrap_fine("loop", EventEngine.run_until_stopped)),
            (Governor, "on_profile_end",
             self._wrap_fine("decide", Governor.on_profile_end)),
            (MemScaleGovernor, "on_profile_end",
             self._wrap_fine("decide", MemScaleGovernor.on_profile_end)),
            (PowerModel, "measure",
             self._wrap_fine("measure", PowerModel.measure)),
        ]
        originals = [(cls, attr, cls.__dict__[attr])
                     for cls, attr, _ in targets]
        try:
            for cls, attr, wrapper in targets:
                setattr(cls, attr, wrapper)
            yield self
        finally:
            for cls, attr, original in originals:
                setattr(cls, attr, original)


def _hit(attrs: dict, result) -> None:
    attrs["hit"] = result is not None


def _run_counts(sim: SystemSimulator, result) -> Dict[str, float]:
    """Engine event counts and modelled DRAM counts of a finished run."""
    engine = sim.engine
    snap = sim.controller.snapshot()
    return {
        "events_processed": engine.events_processed,
        "events_fast_forwarded": engine.events_fast_forwarded,
        "events_busy_absorbed": engine.events_busy_absorbed,
        "epochs": result.epochs,
        "instructions": float(snap.tic.sum()),
        "reads": snap.reads, "writes": snap.writes,
        "row_hits": snap.rbhc,
        "accesses": snap.rbhc + snap.obmc + snap.cbmc,
        "bto": snap.bto, "btc": snap.btc, "cto": snap.cto, "ctc": snap.ctc,
        "powerdown_exits": snap.epdc,
        "refreshes": float(snap.refreshes.sum()),
        "freq_transitions": sim.controller.transition_count,
    }


# -- aggregation -----------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def check_complete(spans: Sequence[dict], n_runs: int,
                   n_warm: int) -> None:
    """Raise :class:`SpanLossError` unless the spans hold one job span
    and one policy-run span per run, and one warm span per warmed mix."""
    jobs = sum(1 for s in spans if s["name"] == "runner.job")
    runs = sum(1 for s in spans if s["name"] == "system.run"
               and not s["attrs"]["calibration"])
    warm = sum(1 for s in spans if s["name"] == "runner.warm")
    if (jobs, runs, warm) != (n_runs, n_runs, n_warm):
        raise SpanLossError(
            f"spans lost: {jobs} job / {runs} run / {warm} warm spans for "
            f"{n_runs} runs and {n_warm} warmed mixes")


def _total(spans: Sequence[dict], name: str) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def _calibration_runs(spans: Sequence[dict]) -> List[dict]:
    return [s for s in spans
            if s["name"] == "system.run" and s["attrs"]["calibration"]]


def setup_metrics(spans: Sequence[dict]) -> Dict[str, float]:
    """Per-layer metrics of one traced set-up."""
    calib = _calibration_runs(spans)
    return {
        "setup.calibration_s": sum(s["end"] - s["start"] for s in calib),
        "setup.calibration_runs": float(len(calib)),
        "setup.generate_s": _total(spans, "workloads.generate"),
    }


def layer_metrics(spans: Sequence[dict],
                  outcomes: Sequence[object]) -> Dict[str, float]:
    """Per-layer metrics of one traced set."""
    runs = [s for s in spans if s["name"] == "system.run"]
    calib = _calibration_runs(spans)
    gets = [s for s in spans if s["name"] == "cache.get"]

    def attr(key: str) -> float:
        return float(sum(s["attrs"].get(key, 0) for s in runs))

    run_s = _total(spans, "system.run")
    calibration_s = sum(s["end"] - s["start"] for s in calib)
    events = (attr("events_processed") + attr("events_fast_forwarded")
              + attr("events_busy_absorbed"))
    sweeps = [s for s in spans if s["name"] == "parallel.sweep"]
    job_s = sum(o.wall_s for o in outcomes if isinstance(o, SweepOutcome))
    worker_s = sum((s["end"] - s["start"]) * s["attrs"]["jobs"]
                   for s in sweeps)
    return {
        "parallel.sweep_s": _total(spans, "parallel.sweep"),
        "parallel.job_s": job_s,
        "parallel.efficiency": _ratio(job_s, worker_s),
        "runner.calibration_s": calibration_s,
        "runner.calibration_runs": float(len(calib)),
        "runner.calibration_share": _ratio(calibration_s, run_s),
        "workloads.generate_s": _total(spans, "workloads.generate"),
        "cache.get_s": _total(spans, "cache.get"),
        "cache.put_s": _total(spans, "cache.put"),
        "cache.hit_ratio": _ratio(
            sum(1 for s in gets if s["attrs"]["hit"]), len(gets)),
        "system.run_s": run_s,
        "system.runs": float(len(runs)),
        "system.epochs": attr("epochs"),
        "system.ns_per_sim_instr": _ratio(run_s * 1e9, attr("instructions")),
        "engine.loop_s": attr("loop_s"),
        "engine.events_processed": attr("events_processed"),
        "engine.events_fast_forwarded": attr("events_fast_forwarded"),
        "engine.events_busy_absorbed": attr("events_busy_absorbed"),
        "engine.ff_share": _ratio(attr("events_fast_forwarded"), events),
        "engine.ns_per_event": _ratio(attr("loop_s") * 1e9,
                                      attr("events_processed")),
        "governor.decide_s": attr("decide_s"),
        "governor.decisions": attr("decide_calls"),
        "power_model.measure_s": attr("measure_s"),
        "dram.reads": attr("reads"),
        "dram.writes": attr("writes"),
        "dram.row_hit_ratio": _ratio(attr("row_hits"), attr("accesses")),
        "dram.bank_xi": _ratio(attr("bto"), attr("btc")),
        "dram.channel_xi": _ratio(attr("cto"), attr("ctc")),
        "dram.powerdown_exits": attr("powerdown_exits"),
        "dram.refreshes": attr("refreshes"),
        "dram.freq_transitions": attr("freq_transitions"),
    }


def self_shares(spool: Path) -> Dict[str, float]:
    """Share of profiled self time spent in each of
    :data:`PROFILED_MODULES`, from every ``*.prof`` file in ``spool``."""
    files = sorted(str(p) for p in Path(spool).glob("*.prof"))
    if not files:
        raise SpanLossError(f"no profile was written to {spool}")
    stats = pstats.Stats(*files).stats
    by_file: Dict[str, float] = defaultdict(float)
    grand = 0.0
    for (filename, _, _), (_, _, tottime, _, _) in stats.items():
        by_file[filename] += tottime
        grand += tottime
    shares = {}
    for metric, parts in PROFILED_MODULES.items():
        own = sum(t for f, t in by_file.items()
                  if Path(f).parts[-2:] == parts)
        shares[f"{metric}.self_share"] = _ratio(own, grand)
    return shares
