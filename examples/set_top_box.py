#!/usr/bin/env python3
"""Set-top-box SoC walkthrough: compound modes, grouping, DVS/DFS and export.

Models the paper's motivating scenario (a Viper2-style set-top box): video
display and recording can run in parallel (a *compound mode*), the transition
into that mode must be smooth, and between the other use-cases the NoC can be
re-configured and frequency/voltage scaled.

Run with:  python examples/set_top_box.py
"""

from repro import CompoundModeSpec, DesignFlow, WorstCaseMapper, MappingError
from repro.gen import set_top_box_design
from repro.io import export_design
from repro.power import analyze_dvfs, noc_area
from repro.units import to_mhz


def main() -> None:
    design = set_top_box_design(use_case_count=4)
    use_cases = design.use_cases
    print(f"design: {design.name} — {design.description}")
    print(f"cores: {design.core_count}, use-cases: {design.use_case_count}")
    print()

    # Video playback ("hd_playback") and recording ("sd_playback_record") can
    # run concurrently; the transition into the compound mode must be smooth.
    flow = DesignFlow()
    outcome = flow.run(
        use_cases,
        parallel_modes=[CompoundModeSpec(["hd_playback", "sd_playback_record"],
                                         name="playback+record")],
        smooth_switching=[("pip_browsing", "file_services")],
    )
    mapping = outcome.mapping

    print(f"generated compound modes : {[uc.name for uc in outcome.generated_compound_modes]}")
    print(f"configuration groups     : {[sorted(g) for g in outcome.groups]}")
    print(f"NoC                      : {mapping.topology.name} "
          f"({mapping.switch_count} switches, {noc_area(mapping):.2f} mm²)")
    print(f"verification             : {'passed' if outcome.verification.ok else 'FAILED'}")

    # Compare against the worst-case baseline.
    try:
        worst = WorstCaseMapper().map(outcome.use_cases)
        print(f"worst-case baseline      : {worst.topology.name} "
              f"({worst.switch_count} switches, {noc_area(worst):.2f} mm²)")
    except MappingError as error:
        print(f"worst-case baseline      : failed ({error})")

    # DVS/DFS: run every use-case at its own minimum frequency.
    dvfs = analyze_dvfs(mapping)
    print()
    print("per-use-case DVS/DFS operating points:")
    for name in sorted(mapping.use_case_names):
        print(f"  {name:20s} {to_mhz(dvfs.frequency_of(name)):7.0f} MHz")
    print(f"power without DVS/DFS    : {dvfs.power_without_dvfs * 1e3:.1f} mW")
    print(f"power with DVS/DFS       : {dvfs.power_with_dvfs * 1e3:.1f} mW")
    print(f"saving                   : {dvfs.savings_percent:.1f} %")

    # Structural export (the stand-in for SystemC/VHDL generation).
    netlist = export_design(mapping)
    print()
    print("structural export (first lines):")
    for line in netlist.splitlines()[:8]:
        print(f"  {line}")


if __name__ == "__main__":
    main()
