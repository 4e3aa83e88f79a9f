"""Unit tests for the DDR3 timing calculator."""

import pytest

from repro.config import DramTimings, default_config
from repro.core.frequency import FrequencyLadder
from repro.memsim.states import PowerdownMode
from repro.memsim.timing import AccessClass, TimingCalculator


@pytest.fixture(scope="module")
def calc():
    return TimingCalculator(DramTimings())


@pytest.fixture(scope="module")
def ladder():
    return FrequencyLadder(default_config())


class TestArrayLatencies:
    def test_row_hit_is_cas_only(self, calc):
        assert calc.classify_latency_ns(AccessClass.ROW_HIT) == pytest.approx(15.0)

    def test_closed_bank_miss(self, calc):
        assert calc.classify_latency_ns(
            AccessClass.CLOSED_BANK_MISS) == pytest.approx(30.0)

    def test_open_row_miss_adds_precharge(self, calc):
        assert calc.classify_latency_ns(
            AccessClass.OPEN_ROW_MISS) == pytest.approx(45.0)

    def test_ordering_hit_lt_closed_lt_open(self, calc):
        hit = calc.classify_latency_ns(AccessClass.ROW_HIT)
        closed = calc.classify_latency_ns(AccessClass.CLOSED_BANK_MISS)
        open_miss = calc.classify_latency_ns(AccessClass.OPEN_ROW_MISS)
        assert hit < closed < open_miss

    def test_needs_activate(self, calc):
        assert not calc.needs_activate(AccessClass.ROW_HIT)
        assert calc.needs_activate(AccessClass.CLOSED_BANK_MISS)
        assert calc.needs_activate(AccessClass.OPEN_ROW_MISS)


class TestPowerdownExits:
    def test_fast_exit(self, calc):
        assert calc.powerdown_exit_ns(PowerdownMode.FAST_EXIT) == 6.0

    def test_slow_exit(self, calc):
        assert calc.powerdown_exit_ns(PowerdownMode.SLOW_EXIT) == 24.0

    def test_none_mode_has_no_exit_cost(self, calc):
        assert calc.powerdown_exit_ns(PowerdownMode.NONE) == 0.0


class TestWindowsAndRefresh:
    def test_activation_windows(self, calc):
        assert calc.timings.t_rrd_ns == pytest.approx(5.0)
        assert calc.timings.t_faw_ns == pytest.approx(25.0)

    def test_row_cycle(self, calc):
        assert calc.timings.t_rc_ns == pytest.approx(50.0)

    def test_refresh_times(self, calc):
        assert calc.timings.t_rfc_ns == pytest.approx(110.0)
        assert calc.timings.t_refi_ns == pytest.approx(64e6 / 8192)


class TestFrequencyDependentOperations:
    def test_array_latencies_independent_of_frequency(self, calc, ladder):
        # Device-internal timings must not change with bus frequency.
        for access in AccessClass:
            latency = calc.classify_latency_ns(access)
            assert latency == calc.classify_latency_ns(access)

    def test_burst_scales_with_frequency(self, calc, ladder):
        fast = calc.burst_ns(ladder.fastest)
        slow = calc.burst_ns(ladder.slowest)
        assert slow == pytest.approx(fast * 800.0 / 200.0)

    def test_mc_latency_scales_with_frequency(self, calc, ladder):
        fast = calc.mc_latency_ns(ladder.fastest)
        slow = calc.mc_latency_ns(ladder.slowest)
        assert slow == pytest.approx(fast * 4.0)
