"""Re-validation of finished mappings: the one mapping checker.

Phase 4 of the paper's design flow verifies the finished NoC configuration
analytically (and by simulation).  :func:`validate_mapping` is that check and
the *referee* shared by the design flow, the exact backend
(:mod:`repro.optimize.ilp`), the gap job, the benchmark gate and the test
suite.  It needs nothing but the :class:`~repro.core.result.MappingResult`
itself and judges it against the raw physical constraints, independently of
the mapper's incremental accounting:

* **placement** — every core sits on an existing, alive switch, and no switch
  hosts more cores than ``max_cores_per_switch`` allows;
* **path connectivity** — every allocation's path starts and ends at the
  mapped endpoint switches and each hop uses a link that exists on the
  (possibly failure-degraded) topology, touching no downed switch;
* **slot exclusivity** — TDMA slot indices are in range, one slot set per
  traversed link, and no two flows of one smooth-switching group own the same
  slot on the same link (the same core pair shared across group members is
  the intended configuration sharing, not a collision);
* **bandwidth ceilings** — reserved slots cover each GT flow's bandwidth on
  every traversed link, and per-link / per-NI aggregate loads stay within the
  link capacity in every use-case;
* **latency** — the analytical worst-case latency
  (:func:`repro.perf.latency.worst_case_latency`) of every GT allocation
  meets its flow's constraint;
* **deadlock rules** — per use-case, the channel dependency graph of the
  best-effort (wormhole-switched) paths is acyclic.  GT traffic is
  contention-free by TDMA construction and is exempt (see
  :mod:`repro.noc.deadlock`).

Two layers are opt-in.  Given the original use-case set, every flow must have
an allocation, and its bandwidth and latency are re-checked against the
use-case's own flow (a constraint tightened after mapping is caught).  With
``simulate=True`` the cycle-level TDMA simulator replays every configuration
and flags flows whose delivered bandwidth falls short.

Every failed check produces a :class:`ValidationIssue` with a stable ``kind``
so callers (and the fuzz tests) can assert *which* constraint was violated,
not merely that one was.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.result import FlowAllocation, MappingResult
from repro.core.usecase import Flow, TrafficClass, UseCaseSet
from repro.exceptions import VerificationError
from repro.noc.deadlock import is_deadlock_free
from repro.perf.latency import worst_case_latency
from repro.perf.simulator import TdmaSimulator

__all__ = ["ValidationIssue", "ValidationReport", "validate_mapping"]


@dataclass(frozen=True)
class ValidationIssue:
    """One violated constraint, tagged with a stable machine-checkable kind.

    Kinds: ``"placement"``, ``"occupancy"``, ``"downed-switch"``, ``"path"``,
    ``"slot-range"``, ``"slot-collision"``, ``"bandwidth"``, ``"capacity"``,
    ``"latency"``, ``"deadlock"``, ``"missing"``, ``"simulation"``.
    """

    use_case: str
    kind: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - formatting
        return f"[{self.kind}] {self.use_case}: {self.detail}"


@dataclass
class ValidationReport:
    """Outcome of re-validating one mapping result."""

    issues: List[ValidationIssue] = field(default_factory=list)
    checked_allocations: int = 0
    simulated_use_cases: int = 0

    @property
    def ok(self) -> bool:
        """True when every constraint held."""
        return not self.issues

    def issues_of_kind(self, kind: str) -> Tuple[ValidationIssue, ...]:
        """All issues of one kind (``"slot-collision"``, ``"path"``, ...)."""
        return tuple(issue for issue in self.issues if issue.kind == kind)

    @property
    def kinds(self) -> Tuple[str, ...]:
        """Sorted distinct kinds present in the report."""
        return tuple(sorted({issue.kind for issue in self.issues}))

    def raise_if_failed(self) -> None:
        """Raise :class:`VerificationError` listing every issue, if any."""
        if self.issues:
            lines = "; ".join(str(issue) for issue in self.issues[:8])
            more = f" (+{len(self.issues) - 8} more)" if len(self.issues) > 8 else ""
            raise VerificationError(
                f"mapping failed validation with {len(self.issues)} issue(s): "
                f"{lines}{more}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "ok" if self.ok else f"{len(self.issues)} issue(s)"
        return f"ValidationReport({status}, checked_allocations={self.checked_allocations})"


def validate_mapping(
    result: MappingResult,
    use_cases: Optional[UseCaseSet] = None,
    *,
    simulate: bool = False,
    frames: int = 32,
) -> ValidationReport:
    """Re-verify a mapping result against the raw physical constraints.

    Parameters
    ----------
    result:
        Any mapping result — heuristic, refined, repaired or exact.  Its own
        embedded topology (already failure-degraded when the result was
        produced under failures) and parameters define the constraints.
    use_cases:
        Optional original use-case set.  When given, coverage is also
        checked — every flow of every use-case must have an allocation — and
        each allocation's bandwidth and latency are re-checked against the
        use-case's flow.  For worst-case baseline results pass the singleton
        set holding the synthetic use-case.
    simulate:
        Additionally run the cycle-level TDMA simulator for every
        configuration and flag flows whose delivered bandwidth falls short.
    frames:
        Number of slot-table revolutions to simulate per configuration.
    """
    report = ValidationReport()
    _check_placement(result, report)
    group_of = {
        name: index for index, group in enumerate(result.groups) for name in group
    }
    for name, configuration in result.configurations.items():
        be_paths: List[Tuple[int, ...]] = []
        for allocation in configuration:
            report.checked_allocations += 1
            _check_path(result, name, allocation, report)
            _check_slot_range(result, name, allocation, report)
            _check_demand(result, name, allocation.flow, allocation, report)
            if (
                allocation.flow.traffic_class != TrafficClass.GUARANTEED
                and allocation.hop_count >= 2
            ):
                be_paths.append(allocation.switch_path)
        _check_capacity(result, name, configuration, report)
        if be_paths and not is_deadlock_free(be_paths):
            report.issues.append(
                ValidationIssue(
                    name, "deadlock",
                    "best-effort paths induce a cyclic channel dependency graph",
                )
            )
    _check_slot_exclusivity(result, group_of, report)
    if use_cases is not None:
        _check_coverage(result, use_cases, report)
    if simulate:
        _check_simulation(result, frames, report)
    return report


def _check_placement(result: MappingResult, report: ValidationReport) -> None:
    """Cores sit on existing, alive switches within the occupancy limit."""
    topology = result.topology
    occupancy: Dict[int, int] = {}
    for core, switch_index in sorted(result.core_mapping.items()):
        if not isinstance(switch_index, int) or not (
            0 <= switch_index < topology.switch_count
        ):
            report.issues.append(
                ValidationIssue(
                    "*", "placement",
                    f"core {core!r} is mapped to non-existent switch {switch_index}",
                )
            )
            continue
        if topology.is_switch_down(switch_index):
            report.issues.append(
                ValidationIssue(
                    "*", "downed-switch",
                    f"core {core!r} is attached to downed switch {switch_index}",
                )
            )
        occupancy[switch_index] = occupancy.get(switch_index, 0) + 1
    limit = result.params.max_cores_per_switch
    if limit is not None:
        for switch_index, count in sorted(occupancy.items()):
            if count > limit:
                report.issues.append(
                    ValidationIssue(
                        "*", "occupancy",
                        f"switch {switch_index} hosts {count} cores "
                        f"(limit {limit})",
                    )
                )


def _check_path(
    result: MappingResult,
    use_case: str,
    allocation: FlowAllocation,
    report: ValidationReport,
) -> None:
    """Endpoint consistency and hop-by-hop existence on the (degraded) topology."""
    topology = result.topology
    flow = allocation.flow
    path = allocation.switch_path
    if not path:
        report.issues.append(
            ValidationIssue(
                use_case, "path",
                f"flow {flow.source}->{flow.destination} has an empty path",
            )
        )
        return
    expected = (
        result.core_mapping.get(flow.source),
        result.core_mapping.get(flow.destination),
    )
    if path[0] != expected[0] or path[-1] != expected[1]:
        report.issues.append(
            ValidationIssue(
                use_case, "path",
                f"flow {flow.source}->{flow.destination} path {path[0]}..{path[-1]} "
                f"does not join the mapped switches {expected[0]}..{expected[1]}",
            )
        )
    for here, there in zip(path, path[1:]):
        if not topology.has_link(here, there):
            report.issues.append(
                ValidationIssue(
                    use_case, "path",
                    f"flow {flow.source}->{flow.destination} uses missing "
                    f"link ({here}, {there})",
                )
            )
    for switch_index in path:
        if 0 <= switch_index < topology.switch_count and topology.is_switch_down(
            switch_index
        ):
            report.issues.append(
                ValidationIssue(
                    use_case, "downed-switch",
                    f"flow {flow.source}->{flow.destination} routes through "
                    f"downed switch {switch_index}",
                )
            )


def _check_slot_range(
    result: MappingResult,
    use_case: str,
    allocation: FlowAllocation,
    report: ValidationReport,
) -> None:
    """Slot indices lie within the slot table."""
    params = result.params
    flow = allocation.flow
    for link, slots in allocation.link_slots.items():
        for slot in slots:
            if not (0 <= slot < params.slot_table_size):
                report.issues.append(
                    ValidationIssue(
                        use_case, "slot-range",
                        f"flow {flow.source}->{flow.destination} reserves slot "
                        f"{slot} on link {link} outside the table of "
                        f"{params.slot_table_size}",
                    )
                )


def _check_demand(
    result: MappingResult,
    use_case: str,
    flow: Flow,
    allocation: FlowAllocation,
    report: ValidationReport,
) -> None:
    """GT reservations cover ``flow``'s bandwidth and meet its latency bound."""
    if flow.traffic_class != TrafficClass.GUARANTEED:
        return
    params = result.params
    for link in allocation.links:
        provided = len(allocation.link_slots.get(link, ())) * params.slot_bandwidth
        if provided + 1e-9 < flow.bandwidth:
            report.issues.append(
                ValidationIssue(
                    use_case, "bandwidth",
                    f"flow {flow.source}->{flow.destination} needs "
                    f"{flow.bandwidth:.6g} B/s on link {link} but its slots "
                    f"provide only {provided:.6g} B/s",
                )
            )
    # A GT flow crossing links without slots fails the bandwidth check above
    # and has no finite latency bound to compare.
    slots = allocation.slots_per_link
    if slots or not allocation.hop_count:
        bound = worst_case_latency(allocation.hop_count, slots, params)
        if bound > flow.latency + 1e-12:
            report.issues.append(
                ValidationIssue(
                    use_case, "latency",
                    f"flow {flow.source}->{flow.destination} worst-case latency "
                    f"{bound:.6g} s exceeds its constraint {flow.latency:.6g} s",
                )
            )


def _check_capacity(result, use_case, configuration, report) -> None:
    """Per-link and per-NI aggregate bandwidth ceilings within one use-case."""
    capacity = result.params.link_capacity
    for link, load in sorted(configuration.link_loads().items()):
        if load > capacity + 1e-6:
            report.issues.append(
                ValidationIssue(
                    use_case, "capacity",
                    f"link {link} carries {load:.6g} B/s over its capacity "
                    f"{capacity:.6g} B/s",
                )
            )
    egress, ingress = configuration.core_loads()
    for label, loads in (("sources", egress), ("sinks", ingress)):
        for core, load in sorted(loads.items()):
            if load > capacity + 1e-6:
                report.issues.append(
                    ValidationIssue(
                        use_case, "capacity",
                        f"core {core!r} {label} {load:.6g} B/s over the NI "
                        f"capacity {capacity:.6g} B/s",
                    )
                )


def _check_slot_exclusivity(result, group_of, report) -> None:
    """No two flows of one group may own one slot on one link."""
    owners: Dict[Tuple[int, tuple, int], Tuple[str, str, str]] = {}
    for name, configuration in result.configurations.items():
        group_id = group_of.get(name, -1)
        for allocation in configuration:
            flow_key = (name, allocation.flow.source, allocation.flow.destination)
            for link, slots in allocation.link_slots.items():
                for slot in slots:
                    existing = owners.setdefault((group_id, link, slot), flow_key)
                    if existing is flow_key or existing[1:] == flow_key[1:]:
                        continue
                    report.issues.append(
                        ValidationIssue(
                            name, "slot-collision",
                            f"slot {slot} on link {link} is owned by both "
                            f"{existing} and {flow_key} within group {group_id}",
                        )
                    )


def _check_coverage(result, use_cases, report) -> None:
    """Every flow of every use-case has an allocation that meets its demand."""
    for use_case in use_cases:
        configuration = result.configurations.get(use_case.name)
        for flow in use_case.flows:
            allocation = (
                None if configuration is None
                else configuration.allocation_for(flow.source, flow.destination)
            )
            if allocation is None:
                report.issues.append(
                    ValidationIssue(
                        use_case.name, "missing",
                        f"flow {flow.source}->{flow.destination} has no allocation",
                    )
                )
            elif flow != allocation.flow:
                _check_demand(result, use_case.name, flow, allocation, report)


def _check_simulation(result, frames, report) -> None:
    """Replay every configuration's slot tables; delivered bandwidth must keep up."""
    for name in result.configurations:
        simulation = TdmaSimulator(result, name).run(frames=frames)
        report.simulated_use_cases += 1
        duration = simulation.duration_seconds
        for stats in simulation.flows.values():
            if stats.required_bandwidth <= 0:
                continue
            # 5% tolerance plus one flit for the quantisation of slow flows.
            expected_bytes = stats.required_bandwidth * duration * 0.95
            if stats.delivered_bytes + simulation.flit_bytes < expected_bytes:
                report.issues.append(
                    ValidationIssue(
                        name, "simulation",
                        f"flow {stats.source}->{stats.destination} delivered "
                        f"{stats.delivered_bandwidth(duration):.6g} B/s of the "
                        f"required {stats.required_bandwidth:.6g} B/s",
                    )
                )
