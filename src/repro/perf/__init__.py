"""Performance analysis: analytical latency bounds and simulation.

* :mod:`repro.perf.latency` — worst-case latency bounds for guaranteed-
  throughput flows under pipelined TDMA scheduling.
* :mod:`repro.perf.simulator` — a cycle-level TDMA NoC simulator that
  replays a mapping's slot tables and measures delivered bandwidth and
  packet latency (our stand-in for the paper's SystemC/RTL simulation
  phase).

Both are layers of the one mapping checker,
:func:`repro.core.validate.validate_mapping`.
"""

from repro.perf.latency import worst_case_latency, latency_hop_budget
from repro.perf.simulator import SimulationReport, TdmaSimulator, FlowTrafficStats

__all__ = [
    "worst_case_latency",
    "latency_hop_budget",
    "SimulationReport",
    "TdmaSimulator",
    "FlowTrafficStats",
]
