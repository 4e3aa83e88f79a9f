"""Tests for the programmatic experiment API (tiny scales)."""

import pytest

from repro.config import scaled_config
from repro.cpu.workloads import MIXES, mix_names
from repro.sim import experiments
from repro.sim.experiments import FIGURES, run_figure
from repro.sim.jobs import JobFailure
from repro.sim.runner import ExperimentRunner, RunnerSettings

SMALL = RunnerSettings(instructions_per_core=30_000, seed=5)
TINY = RunnerSettings(cores=4, instructions_per_core=8_000, seed=5)


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(config=scaled_config(), settings=SMALL)


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("figure-cache")


def mean_system_savings(outcomes):
    return (sum(o.comparison.system_energy_savings for o in outcomes)
            / len(outcomes))


class TestFigureTable:
    def test_variant_values_and_order(self):
        assert FIGURES[12].param == "cpi_bound"
        assert FIGURES[12].values == (0.01, 0.05, 0.10, 0.15)
        assert FIGURES[13].values == (2, 3, 4)
        assert FIGURES[14].values == (0.30, 0.40, 0.50)
        assert FIGURES[15].values == (0.0, 0.5, 1.0)
        base = scaled_config()
        variants = FIGURES[12].variants(base)
        assert [v for v, _ in variants] == [0.01, 0.05, 0.10, 0.15]
        assert [c.policy.cpi_bound for _, c in variants] == \
            [0.01, 0.05, 0.10, 0.15]
        assert [c.power.memory_power_fraction
                for _, c in FIGURES[14].variants(base)] == [0.30, 0.40, 0.50]
        assert [c.power.proportionality_idle_frac
                for _, c in FIGURES[15].variants(base)] == [0.0, 0.5, 1.0]

    def test_channel_variants_keep_about_eight_dimms(self):
        for channels, config in FIGURES[13].variants(scaled_config()):
            assert config.org.channels == channels
            dimms = config.org.channels * config.org.dimms_per_channel
            assert 6 <= dimms <= 9, (channels, dimms)

    def test_figures_drawn_from_the_same_runs_share_a_grid(self):
        assert FIGURES[5] is FIGURES[6]
        assert FIGURES[9] is FIGURES[10] is FIGURES[11]
        assert FIGURES[5].mixes == tuple(MIXES)
        assert FIGURES[5].policies == ("MemScale",)
        assert FIGURES[5].variants(scaled_config()) == \
            [(None, scaled_config())]
        for number in (9, 12, 13, 14, 15):
            assert FIGURES[number].mixes == tuple(mix_names("MID"))

    def test_titles_name_the_variant(self):
        assert FIGURES[5].title(None) == "fig5_6_energy_savings"
        assert FIGURES[12].title(0.05) == "fig12_cpi_bound: cpi_bound=0.05"


class TestEnergySavings:
    def test_rows_per_mix(self, cache_dir):
        [(value, outcomes)] = run_figure(FIGURES[5], settings=TINY, jobs=1,
                                         cache_dir=cache_dir)
        assert value is None
        assert [o.mix for o in outcomes] == list(MIXES)
        for o in outcomes:
            assert o.policy == "MemScale"
            assert -1.0 < o.comparison.memory_energy_savings < 1.0
            assert (o.comparison.worst_cpi_increase
                    >= o.comparison.avg_cpi_increase - 1e-9)


class TestPolicyComparison:
    def test_policies_times_mixes(self, cache_dir):
        figure = FIGURES[9]
        [(_, outcomes)] = run_figure(figure, settings=TINY, jobs=2,
                                     cache_dir=cache_dir)
        assert [(o.mix, o.policy) for o in outcomes] == [
            (mix, policy) for mix in figure.mixes
            for policy in figure.policies]


class TestSweeps:
    def test_cpi_bound_sweep_shape(self, cache_dir):
        """One outcome per (variant, mix, policy), in figure order; a
        looser bound saves at least as much energy."""
        figure = FIGURES[12]
        grids = run_figure(figure, settings=TINY, jobs=1, cache_dir=cache_dir)
        assert [value for value, _ in grids] == list(figure.values)
        for _, outcomes in grids:
            assert not any(isinstance(o, JobFailure) for o in outcomes)
            assert [(o.mix, o.policy) for o in outcomes] == [
                (mix, "MemScale") for mix in figure.mixes]
        savings = [mean_system_savings(outcomes) for _, outcomes in grids]
        assert savings[2] >= savings[0] - 0.02

    def test_channels_sweep_shape(self, cache_dir):
        grids = run_figure(FIGURES[13], settings=TINY, jobs=1,
                           cache_dir=cache_dir)
        assert [value for value, _ in grids] == [2, 3, 4]
        for channels, outcomes in grids:
            for o in outcomes:
                assert len(o.result.timeline[0].channel_util) == channels

    def test_memory_fraction_sweep_direction(self, cache_dir):
        grids = run_figure(FIGURES[14], settings=SMALL, jobs=1,
                           cache_dir=cache_dir)
        savings = [mean_system_savings(outcomes) for _, outcomes in grids]
        assert savings[0] < savings[1] < savings[2]

    def test_proportionality_sweep_direction(self, cache_dir):
        grids = run_figure(FIGURES[15], settings=SMALL, jobs=1,
                           cache_dir=cache_dir)
        savings = [mean_system_savings(outcomes) for _, outcomes in grids]
        assert savings[2] > savings[0]


class TestTimeline:
    def test_rows_match_epochs(self, runner):
        rows, cmp = experiments.timeline(runner, "MID1")
        assert len(rows) >= 1
        for row in rows:
            assert row["bus_mhz"] in runner.config.bus_freqs_mhz
            assert 0.0 <= row["mean_channel_util"] <= 1.0
            assert row["memory_power_w"] > 0
        assert cmp.worst_cpi_increase >= cmp.avg_cpi_increase - 1e-9


class TestBestStatic:
    def test_oracle_satisfies_bound(self, runner):
        bus_mhz, cmp = experiments.best_static_frequency(runner, "MID1")
        assert bus_mhz in runner.config.bus_freqs_mhz
        assert cmp.worst_cpi_increase <= runner.config.policy.cpi_bound
        assert cmp.system_energy_savings > 0

    def test_impossible_bound_raises(self, runner):
        with pytest.raises(RuntimeError):
            experiments.best_static_frequency(runner, "MEM1",
                                              cpi_bound=-1.0)
