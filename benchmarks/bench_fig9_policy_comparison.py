"""Figure 9 — energy savings of MemScale vs alternative policies.

Average memory/system energy savings across the MID workloads for:
Fast-PD, Slow-PD, Decoupled DIMMs, Static, MemScale (MemEnergy),
MemScale, and MemScale + Fast-PD. The 4 x 7 (mix, policy) grid is
Figure 9's entry in ``repro.sim.experiments.FIGURES``; Figures 10/11
read the same runs, and whichever of the three benches runs first
simulates them (the session memo hands the others its outcomes).

Paper: Fast-PD saves little; Slow-PD *loses* system energy; Decoupled
beats Fast-PD; Static beats Decoupled; MemScale beats Static and saves
~3x more than Decoupled.
"""

from benchmarks.conftest import run_once
from repro.analysis import format_table
from repro.sim.experiments import FIGURES

FIGURE = FIGURES[9]
POLICIES = FIGURE.policies


def mid_average(outcomes, policy):
    cmps = [o.comparison for o in outcomes if o.policy == policy]
    mems = [cmp.memory_energy_savings for cmp in cmps]
    syss = [cmp.system_energy_savings for cmp in cmps]
    return sum(mems) / len(mems), sum(syss) / len(syss)


def test_fig9_policy_comparison(benchmark, ctx):
    def run_all():
        outcomes = ctx.sweep(FIGURE.mixes, POLICIES)
        return {p: mid_average(outcomes, p) for p in POLICIES}

    averages = run_once(benchmark, run_all)

    rows = [[p, f"{averages[p][0] * 100:6.1f}%", f"{averages[p][1] * 100:6.1f}%"]
            for p in POLICIES]
    print()
    print(format_table(["policy", "Memory System Energy",
                        "Full System Energy"], rows,
                       title="Figure 9: MID-average energy savings by policy"))

    sys = {p: averages[p][1] for p in POLICIES}
    mem = {p: averages[p][0] for p in POLICIES}
    # Fast-PD: small but positive savings.
    assert 0.0 < sys["Fast-PD"] < 0.15
    # Slow-PD: so slow it wastes system energy.
    assert sys["Slow-PD"] < sys["Fast-PD"]
    # Decoupled modest; Static better; MemScale best of the static-capable.
    assert sys["Decoupled"] > 0.0
    assert sys["Static"] > sys["Decoupled"]
    assert mem["MemScale"] > mem["Static"]
    # MemScale saves a large multiple of Decoupled's system energy.
    assert sys["MemScale"] > 1.5 * sys["Decoupled"]
    # MemEnergy saves more memory energy than plain MemScale.
    assert mem["MemScale(MemEnergy)"] >= mem["MemScale"] - 0.03
