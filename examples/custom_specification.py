#!/usr/bin/env python3
"""Author a design in JSON, load it, map it and save the NoC configuration.

Shows the interchange format: a use-case specification written as JSON (the
kind of file an architecture team would keep in version control), loaded with
:func:`repro.load_use_case_set`, mapped, simulated, and the resulting NoC
configuration saved back to JSON.

Run with:  python examples/custom_specification.py
"""

import json
import tempfile
from pathlib import Path

from repro import TdmaSimulator, UnifiedMapper, load_use_case_set, validate_mapping
from repro.io import save_mapping_result

SPECIFICATION = {
    "name": "camera-soc",
    "use_cases": [
        {
            "name": "preview",
            "flows": [
                {"source": "sensor", "destination": "isp", "bandwidth_mbps": 300, "latency_us": 100},
                {"source": "isp", "destination": "display", "bandwidth_mbps": 250, "latency_us": 50},
                {"source": "cpu", "destination": "isp", "bandwidth_mbps": 2, "latency_us": 5},
            ],
        },
        {
            "name": "capture",
            "flows": [
                {"source": "sensor", "destination": "isp", "bandwidth_mbps": 600, "latency_us": 100},
                {"source": "isp", "destination": "encoder", "bandwidth_mbps": 500, "latency_us": 100},
                {"source": "encoder", "destination": "storage", "bandwidth_mbps": 120, "latency_us": 400},
                {"source": "cpu", "destination": "encoder", "bandwidth_mbps": 2, "latency_us": 5},
            ],
        },
    ],
}


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-example-"))
    spec_path = workdir / "camera_soc.json"
    spec_path.write_text(json.dumps(SPECIFICATION, indent=2))
    print(f"wrote specification to {spec_path}")

    design = load_use_case_set(spec_path)
    result = UnifiedMapper().map(design)
    report = validate_mapping(result, design, simulate=True, frames=64)
    print(f"mapped onto {result.topology.name} ({result.switch_count} switches); "
          f"verification {'passed' if report.ok else 'FAILED'}")

    simulation = TdmaSimulator(result, "capture").run(frames=64)
    print(f"simulated 'capture': worst flit latency "
          f"{simulation.worst_latency_cycles()} cycles, "
          f"bandwidth satisfied: {simulation.all_bandwidth_satisfied()}")

    out_path = save_mapping_result(result, workdir / "camera_soc_noc.json")
    print(f"saved NoC configuration to {out_path}")


if __name__ == "__main__":
    main()
