"""Tests for the cap-sweep experiment plumbing: the structure of a
cap-kind run_jobs sweep, determinism with the on-disk cache, row
flattening, table rendering, and the v2 telemetry it streams."""

import pytest

from repro.config import NS_PER_US, scaled_config
from repro.sim import load_telemetry, run_jobs
from repro.sim.jobs import KINDS, cap_label, cap_outcome_row, cap_specs
from repro.sim.runner import RunnerSettings
from repro.sim.telemetry import TELEMETRY_SCHEMA_VERSION

CFG = scaled_config(epoch_ns=20 * NS_PER_US, profile_ns=2 * NS_PER_US)
SETTINGS = RunnerSettings(cores=4, instructions_per_core=8_000, seed=2011)
FRACTIONS = (0.9, 0.75)


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    cache = tmp_path_factory.mktemp("cap_cache")
    return run_jobs(cap_specs(["MID1"], FRACTIONS), config=CFG,
                    settings=SETTINGS, jobs=1, cache_dir=str(cache))


class TestRunCapSweep:
    def test_one_outcome_per_point_plus_throttle(self, outcomes):
        labels = [cap_label(o.budget_fraction) for o in outcomes]
        assert labels == ["Cap0.90", "Cap0.75", "Throttle"]

    def test_throttle_row_has_no_cap_bookkeeping(self, outcomes):
        throttle = outcomes[-1]
        assert throttle.budget_fraction is None
        assert throttle.budget_w is None
        assert throttle.cap is None
        assert throttle.governor.startswith("Static")

    def test_capped_rows_carry_ledger(self, outcomes):
        for o in outcomes[:-1]:
            assert o.budget_w > 0
            assert o.cap["epochs_accounted"] > 0
            assert "violation_count" in o.cap
            assert "infeasible_epochs" in o.cap
            assert 0.0 < o.min_perf <= 1.0

    def test_tighter_budget_never_uses_more_power(self, outcomes):
        by_frac = {o.budget_fraction: o for o in outcomes}
        assert by_frac[0.75].avg_power_w <= by_frac[0.9].avg_power_w + 1e-9

    def test_cap_at_least_as_fair_as_throttle(self, outcomes):
        throttle = outcomes[-1]
        for o in outcomes[:-1]:
            assert o.min_perf >= throttle.min_perf - 1e-9

    def test_deterministic_under_cache(self, outcomes, tmp_path):
        again = run_jobs(cap_specs(["MID1"], FRACTIONS), config=CFG,
                         settings=SETTINGS, jobs=1,
                         cache_dir=str(tmp_path / "fresh"))
        for a, b in zip(outcomes, again):
            assert a.avg_power_w == b.avg_power_w
            assert a.min_perf == b.min_perf
            assert a.cap == b.cap

    def test_throttle_can_be_excluded(self, tmp_path):
        out = run_jobs(cap_specs(["MID1"], (0.9,), include_throttle=False),
                       config=CFG, settings=SETTINGS, jobs=1,
                       cache_dir=str(tmp_path / "c"))
        assert [o.budget_fraction for o in out] == [0.9]

    def test_rejects_empty_inputs(self):
        with pytest.raises(ValueError):
            cap_specs([], (0.9,))
        with pytest.raises(ValueError):
            cap_specs(["MID1"], (), include_throttle=False)

    def test_telemetry_streams_v2_records(self, tmp_path):
        tdir = tmp_path / "telemetry"
        out = run_jobs(cap_specs(["MID1"], (0.9,), include_throttle=False),
                       config=CFG, settings=SETTINGS, jobs=1,
                       cache_dir=str(tmp_path / "c"),
                       telemetry_dir=str(tdir))
        records = load_telemetry(out[0].telemetry_path)
        assert records
        assert all(r["schema"] == TELEMETRY_SCHEMA_VERSION
                   for r in records)
        assert all(r["budget_w"] is not None for r in records)


class TestRowsAndTable:
    def test_cap_outcome_row_shape(self, outcomes):
        row = cap_outcome_row(outcomes[0])
        assert row["workload"] == "MID1"
        assert row["budget_fraction"] == 0.9
        assert row["violations"] == outcomes[0].cap["violation_count"]
        throttle_row = cap_outcome_row(outcomes[-1])
        assert throttle_row["budget_w"] is None
        assert throttle_row["violations"] is None

    def test_table_renders_none_as_dash(self, outcomes):
        table = KINDS["cap"].table(outcomes, "power-cap sweep")
        lines = table.splitlines()
        assert lines[0] == "power-cap sweep"
        throttle_line = next(line for line in lines
                             if outcomes[-1].governor in line)
        # All the budget/ledger columns are None for the throttle
        # reference and must render as bare dashes.
        assert throttle_line.split().count("-") >= 4
