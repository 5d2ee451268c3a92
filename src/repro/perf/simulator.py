"""Cycle-level TDMA NoC simulator.

The paper's final design-flow phase simulates the generated SystemC/RTL NoC.
We cannot ship the Æthereal RTL, so this module provides the closest
behavioural equivalent: a discrete, cycle-accurate replay of the TDMA slot
tables produced by the mapper.

The model is intentionally faithful to how the guaranteed-throughput service
works:

* time advances in slots (one slot = one cycle = one flit transfer per link);
* every flow's source NI accumulates ``bandwidth x cycle_time`` bytes per
  cycle and packs them into flits of ``link_width_bits / 8`` bytes;
* a flit may only leave the source NI in a cycle whose slot index (modulo
  the slot-table size) is reserved for the flow on the first link of its
  path; it then advances exactly one hop per cycle (the pipelined slot
  reservation guarantees the downstream slots are free for it);
* flows whose source and destination share a switch bypass the slot tables
  and only pay the NI overhead.

The simulator reports delivered bandwidth and observed worst-case latency
per flow; the simulation layer of
:func:`repro.core.validate.validate_mapping` compares the delivered bandwidth
against each flow's requirement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.result import FlowAllocation, MappingResult
from repro.exceptions import SpecificationError
from repro.perf.latency import NI_OVERHEAD_CYCLES

__all__ = ["FlowTrafficStats", "SimulationReport", "TdmaSimulator"]


@dataclass
class FlowTrafficStats:
    """Measured behaviour of one flow over a simulation run."""

    use_case: str
    source: str
    destination: str
    required_bandwidth: float
    offered_bytes: float = 0.0
    delivered_bytes: float = 0.0
    flits_sent: int = 0
    max_latency_cycles: int = 0
    total_latency_cycles: int = 0
    max_queue_flits: int = 0

    @property
    def mean_latency_cycles(self) -> float:
        """Average flit latency in cycles (0 when nothing was sent)."""
        if self.flits_sent == 0:
            return 0.0
        return self.total_latency_cycles / self.flits_sent

    def delivered_bandwidth(self, duration_seconds: float) -> float:
        """Delivered bandwidth in bytes/s over the simulated duration."""
        if duration_seconds <= 0:
            return 0.0
        return self.delivered_bytes / duration_seconds


@dataclass
class SimulationReport:
    """Aggregate result of one simulation run for one use-case."""

    use_case: str
    cycles: int
    cycle_time: float
    flit_bytes: float = 4.0
    flows: Dict[Tuple[str, str], FlowTrafficStats] = field(default_factory=dict)

    @property
    def duration_seconds(self) -> float:
        """Simulated wall-clock time."""
        return self.cycles * self.cycle_time

    def stats_for(self, source: str, destination: str) -> FlowTrafficStats:
        """The measured statistics of one flow."""
        try:
            return self.flows[(source, destination)]
        except KeyError:
            raise SpecificationError(
                f"simulation of {self.use_case!r} has no flow {source}->{destination}"
            ) from None

    def all_bandwidth_satisfied(self, tolerance: float = 0.05) -> bool:
        """Whether every flow delivered at least (1 - tolerance) x required bandwidth.

        A small relative tolerance plus one flit of absolute slack absorbs
        the start-up transient of the first frame and the flit quantisation
        of low-bandwidth flows over short runs.
        """
        duration = self.duration_seconds
        for stats in self.flows.values():
            if stats.required_bandwidth <= 0:
                continue
            expected_bytes = stats.required_bandwidth * duration * (1.0 - tolerance)
            if stats.delivered_bytes + self.flit_bytes < expected_bytes:
                return False
        return True

    def worst_latency_cycles(self) -> int:
        """The largest flit latency observed across all flows."""
        return max((stats.max_latency_cycles for stats in self.flows.values()), default=0)


class TdmaSimulator:
    """Replays one use-case's slot-table configuration cycle by cycle."""

    def __init__(self, mapping: MappingResult, use_case: str) -> None:
        self.mapping = mapping
        self.use_case = use_case
        self.configuration = mapping.configuration(use_case)
        self.params = mapping.params
        self._flit_bytes = self.params.link_width_bits / 8.0

    def run(self, frames: int = 64) -> SimulationReport:
        """Simulate ``frames`` revolutions of the TDMA slot table.

        Returns a :class:`SimulationReport` with per-flow delivered bandwidth
        and latency statistics.
        """
        if frames <= 0:
            raise SpecificationError(f"frame count must be positive, got {frames}")
        slot_table_size = self.params.slot_table_size
        cycles = frames * slot_table_size
        report = SimulationReport(
            use_case=self.use_case,
            cycles=cycles,
            cycle_time=self.params.cycle_time,
            flit_bytes=self._flit_bytes,
        )
        runners = [
            _FlowRunner(allocation, self.params.cycle_time, self._flit_bytes, slot_table_size)
            for allocation in self.configuration
        ]
        for runner in runners:
            report.flows[runner.pair] = runner.stats
        for cycle in range(cycles):
            for runner in runners:
                runner.step(cycle)
        return report


class _FlowRunner:
    """Per-flow injection queue and slot-table gate used by the simulator."""

    def __init__(
        self,
        allocation: FlowAllocation,
        cycle_time: float,
        flit_bytes: float,
        slot_table_size: int,
    ) -> None:
        flow = allocation.flow
        self.pair = flow.pair
        self.stats = FlowTrafficStats(
            use_case=allocation.use_case,
            source=flow.source,
            destination=flow.destination,
            required_bandwidth=flow.bandwidth,
        )
        self._bytes_per_cycle = flow.bandwidth * cycle_time
        self._flit_bytes = flit_bytes
        self._slot_table_size = slot_table_size
        self._accumulated = 0.0
        self._queue: List[int] = []  # enqueue cycle of each waiting flit
        self._hops = allocation.hop_count
        if self._hops == 0:
            self._injection_slots: Optional[frozenset] = None
        else:
            first_link = allocation.links[0]
            self._injection_slots = frozenset(allocation.link_slots.get(first_link, ()))

    def step(self, cycle: int) -> None:
        """Advance the flow by one cycle."""
        # Traffic generation: accumulate bytes, enqueue whole flits.
        self._accumulated += self._bytes_per_cycle
        self.stats.offered_bytes += self._bytes_per_cycle
        while self._accumulated >= self._flit_bytes:
            self._accumulated -= self._flit_bytes
            self._queue.append(cycle)
        self.stats.max_queue_flits = max(self.stats.max_queue_flits, len(self._queue))
        if not self._queue:
            return
        # Injection gate: same-switch flows send every cycle, routed flows
        # only in their reserved slots on the first link.
        if self._injection_slots is not None:
            slot = cycle % self._slot_table_size
            if slot not in self._injection_slots:
                return
        enqueue_cycle = self._queue.pop(0)
        latency = (cycle - enqueue_cycle) + self._hops + NI_OVERHEAD_CYCLES
        self.stats.flits_sent += 1
        self.stats.delivered_bytes += self._flit_bytes
        self.stats.total_latency_cycles += latency
        self.stats.max_latency_cycles = max(self.stats.max_latency_cycles, latency)
