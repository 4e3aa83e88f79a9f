"""DDR3 access-timing calculator.

Separates the two classes of latency Section 2.2 identifies:

* *array-internal* operations (precharge, activate, column access,
  powerdown exits, refresh) whose wall-clock duration is fixed in
  nanoseconds and does not change with bus frequency; and
* *interface* operations (data burst, MC processing) fixed in cycles,
  whose wall-clock duration scales inversely with frequency — these are
  computed from the active :class:`~repro.core.frequency.FrequencyPoint`.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.config import DramTimings
from repro.core.frequency import FrequencyPoint
from repro.memsim.states import PowerdownMode


class TimingTable(NamedTuple):
    """Flat, precomputed array-timing constants in nanoseconds.

    Banks and ranks read these once at construction instead of calling
    back into :class:`TimingCalculator` (a method call plus attribute
    chase) on every command — the fixed-in-ns timings never change over
    a run, so the per-command hot path only touches plain floats.
    """

    t_cl_ns: float
    t_rcd_ns: float
    t_rp_ns: float
    t_ras_ns: float
    t_rc_ns: float
    t_rrd_ns: float
    t_faw_ns: float
    t_refi_ns: float
    t_rfc_ns: float
    t_xp_ns: float
    t_xpdll_ns: float
    t_ckesr_ns: float
    t_xs_ns: float


class AccessClass(enum.Enum):
    """Row-buffer outcome of an access (Eq. 6 categories)."""

    ROW_HIT = "hit"            #: open row matches — column access only
    OPEN_ROW_MISS = "ob_miss"  #: wrong row open — precharge + activate + column
    CLOSED_BANK_MISS = "cb_miss"  #: bank precharged — activate + column


class TimingCalculator:
    """Computes the duration of each DRAM operation.

    Stateless; all per-run state (open rows, activation windows) lives in
    the bank/rank objects that call it.
    """

    def __init__(self, timings: DramTimings):
        self._t = timings
        self._table = TimingTable(
            t_cl_ns=timings.t_cl_ns,
            t_rcd_ns=timings.t_rcd_ns,
            t_rp_ns=timings.t_rp_ns,
            t_ras_ns=timings.t_ras_ns,
            t_rc_ns=timings.t_rc_ns,
            t_rrd_ns=timings.t_rrd_ns,
            t_faw_ns=timings.t_faw_ns,
            t_refi_ns=timings.t_refi_ns,
            t_rfc_ns=timings.t_rfc_ns,
            t_xp_ns=timings.t_xp_ns,
            t_xpdll_ns=timings.t_xpdll_ns,
            t_ckesr_ns=timings.t_ckesr_ns,
            t_xs_ns=timings.t_xs_ns,
        )

    @property
    def timings(self) -> DramTimings:
        return self._t

    @property
    def table(self) -> TimingTable:
        """Precomputed array-timing constants (see :class:`TimingTable`)."""
        return self._table

    def classify_latency_ns(self, access: AccessClass) -> float:
        """Command-to-data latency of the array portion of an access."""
        t = self._t
        if access is AccessClass.ROW_HIT:
            return t.t_cl_ns
        if access is AccessClass.OPEN_ROW_MISS:
            return t.t_rp_ns + t.t_rcd_ns + t.t_cl_ns
        return t.t_rcd_ns + t.t_cl_ns

    def needs_activate(self, access: AccessClass) -> bool:
        return access is not AccessClass.ROW_HIT

    def powerdown_exit_ns(self, mode: PowerdownMode) -> float:
        """Latency to wake a rank, by the powerdown flavour it entered."""
        if mode is PowerdownMode.SLOW_EXIT:
            return self._t.t_xpdll_ns
        if mode is PowerdownMode.FAST_EXIT:
            return self._t.t_xp_ns
        return 0.0

    @staticmethod
    def burst_ns(freq: FrequencyPoint) -> float:
        """Data-burst time on the channel at the current frequency."""
        return freq.burst_ns

    @staticmethod
    def mc_latency_ns(freq: FrequencyPoint) -> float:
        """Per-request MC processing time at the current frequency."""
        return freq.mc_latency_ns
