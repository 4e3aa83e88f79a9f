"""Named device technology tables.

MemScale's evaluation is pinned to one part — DDR3-1333 with the Table 2
timing/current numbers. The energy results, however, swing heavily with
the device technology (Trehan et al. show intensity composition and
device numbers interact): a low-voltage DDR3L part shrinks every IDD
term, and an STT-MRAM-like part inverts the background-power picture
entirely — near-zero standby draw and no refresh, at the cost of a slow
asymmetric write. A :class:`DeviceTable` bundles a named, validated
``(DramTimings, DramCurrents)`` pair so sweeps can span
(mix x policy x device) instead of frequencies alone.

Every preset passes ``DramTimings.validate`` / ``DramCurrents.validate``
and is exercised under the armed DDR3 protocol checker by the
device-table acceptance run (``tests/test_acceptance.py``): the state
machine the validator checks (activate/precharge ordering, powerdown
windows, refresh intervals) is technology-agnostic, only the constants
move.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List

from repro.config import DramCurrents, DramTimings, SystemConfig

#: One simulated year; with 8192 rows this keeps ``t_refi > t_rfc``
#: valid (the timing invariant) while guaranteeing no refresh ever
#: fires inside any realistic run — the STT-MRAM retention proxy.
_NO_REFRESH_PERIOD_NS = 3.15e16


@dataclass(frozen=True)
class DeviceTable:
    """A named memory device technology: timings plus currents."""

    name: str
    description: str
    timings: DramTimings
    currents: DramCurrents

    def validate(self) -> None:
        self.timings.validate()
        self.currents.validate()


def _ddr3_1333() -> DeviceTable:
    return DeviceTable(
        name="ddr3-1333",
        description="Table 2 baseline part (DDR3-1333, 1.575 V)",
        timings=DramTimings(),
        currents=DramCurrents(),
    )


def _ddr3l() -> DeviceTable:
    """A DDR3L-like low-voltage part.

    1.35 V supply with ~10% lower current draw across the IDD table
    (datasheet-typical for the L grade) but slightly relaxed array
    timings — the lower voltage slows sensing and restore.
    """
    return DeviceTable(
        name="ddr3l",
        description="DDR3L-like low-voltage part (1.35 V, relaxed timing)",
        timings=replace(
            DramTimings(),
            t_rcd_ns=18.0, t_rp_ns=18.0, t_cl_ns=18.0, t_ras_ns=38.0,
        ),
        currents=replace(
            DramCurrents(),
            vdd=1.35,
            idd0=0.110, idd2n=0.062, idd2p=0.038,
            idd3n=0.060, idd3p=0.038,
            idd4r=0.225, idd4w=0.225,
            idd5=0.215, idd6=0.009,
            termination_w_read=0.62, termination_w_write=0.94,
        ),
    )


def _stt_mram() -> DeviceTable:
    """An STT-MRAM-like table: asymmetric R/W, near-zero standby.

    Non-volatile cells need no retention refresh (the refresh period is
    pushed out to a simulated year, so ``t_refi`` stays valid but no
    refresh ever fires) and draw almost nothing in standby/powerdown
    (``static_fraction`` drops to 0.10 — what remains is mostly
    peripheral logic). The cost is the write path: the switching pulse
    makes writes slow (``t_wr``) and expensive (``idd4w`` ~2x ``idd4r``),
    and reads sense slightly slower than DRAM (``t_rcd``).
    """
    return DeviceTable(
        name="stt-mram",
        description=("STT-MRAM-like part (no refresh, near-zero standby, "
                     "slow expensive writes)"),
        timings=replace(
            DramTimings(),
            t_rcd_ns=17.5,       # slower sensing than a DRAM cell
            t_ras_ns=45.0,
            t_wr_ns=37.5,        # switching-pulse write recovery
            refresh_period_ns=_NO_REFRESH_PERIOD_NS,
        ),
        currents=replace(
            DramCurrents(),
            vdd=1.2,
            idd0=0.140,
            idd2n=0.008, idd2p=0.004,
            idd3n=0.010, idd3p=0.004,
            idd4r=0.220, idd4w=0.450,   # asymmetric read/write energy
            idd5=0.002, idd6=0.001,
            static_fraction=0.10,
        ),
    )


#: Registry of named device tables, in ladder order.
DEVICE_TABLES: Dict[str, DeviceTable] = {
    t.name: t for t in (_ddr3_1333(), _ddr3l(), _stt_mram())
}

DEFAULT_DEVICE = "ddr3-1333"


def device_names() -> List[str]:
    return list(DEVICE_TABLES)


def lookup_device(name: str) -> DeviceTable:
    """The named device table; ``KeyError`` lists the registry."""
    try:
        return DEVICE_TABLES[name]
    except KeyError:
        raise KeyError(f"unknown device table {name!r}; "
                       f"available: {device_names()}") from None


def apply_device(config: SystemConfig,
                 device: "str | DeviceTable") -> SystemConfig:
    """``config`` with the device's timings/currents swapped in.

    Only the ``timings`` and ``currents`` sections are replaced — no new
    top-level configuration fields — so the result flows unchanged
    through ``config_to_dict`` / ``config_from_dict`` (the service
    ledger) and the experiment-cache fingerprint: two devices can never
    share a baseline cache entry.
    """
    table = lookup_device(device) if isinstance(device, str) else device
    table.validate()
    cfg = config.replace(timings=table.timings, currents=table.currents)
    cfg.validate()
    return cfg


def device_listing() -> str:
    """One line per registered device (CLI help and error messages)."""
    lines = []
    for table in DEVICE_TABLES.values():
        lines.append(f"  {table.name:<12} {table.description}")
    return "\n".join(lines)
