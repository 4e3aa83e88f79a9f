"""Self-checks of the benchmark at tiny size.

Run from the root of a checkout::

    python -m pytest e2ebench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import pytest  # noqa: E402

from e2ebench import hostspeed, suite, tracing  # noqa: E402
from repro.sim.parallel import default_jobs  # noqa: E402


def tiny(name):
    workload = suite.WORKLOADS[name]
    return workload.resized(max(2_000, workload.instructions // 50))


def traced_set(workload, seed, tmp, jobs=None):
    """Set up and run one traced set; returns (SetResult, layer metrics)."""
    jobs = workload.jobs() if jobs is None else jobs
    suite.setup(workload, seed, tmp / "cache")
    tracer = tracing.Tracer(tmp / "spool")
    with tracer.installed():
        result = suite.run_set(workload, seed, tmp / "cache", jobs=jobs,
                               tracer=tracer)
    spans = tracer.collect()
    tracing.check_complete(spans, workload.n_runs(),
                           workload.warm_tasks(jobs))
    return result, tracing.layer_metrics(spans, result.outcomes)


def simulated_counts(layer):
    """The per-layer metrics that are counts of simulated work."""
    return {k: v for k, v in layer.items()
            if k.startswith(("dram.", "engine.events_", "system.epochs",
                             "system.runs", "runner.calibration_runs",
                             "governor.decisions"))}


@pytest.mark.parametrize("name", sorted(suite.WORKLOADS))
def test_same_seed_gives_identical_results(name, tmp_path):
    workload = tiny(name)
    first, first_layer = traced_set(workload, 5, tmp_path / "a")
    second, second_layer = traced_set(workload, 5, tmp_path / "b")
    assert suite.digest(first.outcomes) == suite.digest(second.outcomes)
    assert (suite.simulated_metrics(first.outcomes)
            == suite.simulated_metrics(second.outcomes))
    counts = simulated_counts(first_layer)
    assert counts["dram.reads"] > 0
    assert counts == simulated_counts(second_layer)


@pytest.mark.parametrize("name", sorted(suite.WORKLOADS))
def test_tracing_does_not_change_results(name, tmp_path):
    workload = tiny(name)
    traced, _ = traced_set(workload, 5, tmp_path / "traced")
    suite.setup(workload, 5, tmp_path / "plain")
    plain = suite.run_set(workload, 5, tmp_path / "plain")
    assert suite.digest(traced.outcomes) == suite.digest(plain.outcomes)


def test_paper_eval_digest_independent_of_jobs(tmp_path):
    workload = tiny("paper-eval")
    serial, serial_layer = traced_set(workload, 3, tmp_path / "serial",
                                      jobs=1)
    pooled, pooled_layer = traced_set(workload, 3, tmp_path / "pooled",
                                      jobs=max(2, default_jobs()))
    assert suite.digest(serial.outcomes) == suite.digest(pooled.outcomes)
    assert simulated_counts(serial_layer) == simulated_counts(pooled_layer)
    assert pooled_layer["runner.calibration_runs"] == len(suite.TABLE1)


def test_seed_changes_inputs(tmp_path):
    workload = tiny("ilp-idle")
    digests = set()
    for seed in (5, 6):
        suite.setup(workload, seed, tmp_path / str(seed))
        result = suite.run_set(workload, seed, tmp_path / str(seed))
        digests.add(suite.digest(result.outcomes))
    assert len(digests) == 2


def test_check_flags_bad_outputs(tmp_path):
    workload = tiny("ilp-idle")
    suite.setup(workload, 5, tmp_path)
    outcomes = suite.run_set(workload, 5, tmp_path).outcomes
    memscale = next(i for i, o in enumerate(outcomes)
                    if o.policy == "MemScale")
    bounded = next(i for i, o in enumerate(outcomes)
                   if o.policy == "MemScale+Fast-PD")
    bad = list(outcomes)
    for i, field, value in ((memscale, "memory_energy_savings", -0.01),
                            (bounded, "worst_cpi_increase", 0.5)):
        bad[i] = dataclasses.replace(bad[i], comparison=dataclasses.replace(
            bad[i].comparison, **{field: value}))
    flagged = (set(suite.check(bad, cpi_bound=0.10))
               - set(suite.check(outcomes, cpi_bound=0.10)))
    assert flagged == {memscale, bounded}


def test_fails_without_the_program(tmp_path):
    """Holding only BENCHMARK.json and e2ebench/, the command must fail
    without printing a result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "e2ebench", tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        command + ["--workload", "ilp-idle", "--seed", "1", "--seconds", "1",
                   "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_host_speed_scales_by_kernel_speed():
    host = hostspeed.HostSpeed()
    host.sample(hostspeed.gap_calls(0.0))
    assert host.calls == hostspeed.MIN_CALLS
    assert host.scale(host.call_s()) == pytest.approx(
        hostspeed.NOMINAL_CALL_S)
    assert host.scale(2 * host.call_s()) == pytest.approx(
        2 * hostspeed.NOMINAL_CALL_S)
    fresh = hostspeed.HostSpeed(fresh=True)
    fresh.sample(2)
    assert fresh.scale(fresh.seconds) == pytest.approx(
        2 * hostspeed.NOMINAL_CALL_S + hostspeed.NOMINAL_START_S)
    assert hostspeed.kernel() == hostspeed.kernel()


@pytest.mark.parametrize("kind", [{"processes": 2}, {"fresh": True}])
def test_host_speed_gaps_outside_the_process(kind):
    host = hostspeed.HostSpeed(**kind)
    host.sample(1)
    assert host.calls == 1
    assert host.call_s() > 0
