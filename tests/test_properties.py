"""Property-based tests of the end-to-end mapping invariants.

These use hypothesis to generate random (small) multi-use-case designs and
check the invariants the methodology promises regardless of input:

* every flow of every use-case receives a path between the switches its
  cores are mapped to;
* the shared core mapping respects the per-switch NI limit;
* within one configuration group no TDMA slot is double-booked;
* the analytical verification passes for every produced mapping; and
* the proposed method never needs more switches than the worst-case
  baseline (when both succeed).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    Flow,
    MappingError,
    NoCParameters,
    UnifiedMapper,
    UseCase,
    UseCaseSet,
    WorstCaseMapper,
    validate_mapping,
)
from repro.units import mbps, us


@st.composite
def small_designs(draw):
    """Random small multi-use-case designs that are individually feasible."""
    core_count = draw(st.integers(min_value=3, max_value=8))
    cores = [f"c{i}" for i in range(core_count)]
    use_case_count = draw(st.integers(min_value=1, max_value=4))
    use_cases = []
    for index in range(use_case_count):
        pair_count = draw(st.integers(min_value=1, max_value=min(10, core_count * 2)))
        pairs = draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=core_count - 1),
                    st.integers(min_value=0, max_value=core_count - 1),
                ).filter(lambda pair: pair[0] != pair[1]),
                min_size=pair_count,
                max_size=pair_count,
                unique=True,
            )
        )
        flows = []
        for src, dst in pairs:
            bandwidth = draw(st.floats(min_value=1.0, max_value=300.0))
            latency = draw(st.sampled_from([us(10), us(100), us(1000)]))
            flows.append(Flow(cores[src], cores[dst], mbps(bandwidth), latency=latency))
        if not flows:
            flows = [Flow(cores[0], cores[1], mbps(10))]
        use_cases.append(UseCase(f"u{index}", flows=flows))
    return UseCaseSet(use_cases, name="hypothesis")


_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@given(design=small_designs())
@_SETTINGS
def test_mapping_invariants_hold_for_random_designs(design):
    params = NoCParameters(max_cores_per_switch=3)
    try:
        result = UnifiedMapper(params=params).map(design)
    except MappingError:
        # Random designs may genuinely be infeasible (e.g. an oversubscribed
        # core); that is a legitimate outcome, not an invariant violation.
        return

    # Every core of the design is mapped, respecting the per-switch limit.
    assert set(result.core_mapping) == set(design.all_core_names())
    occupancy = {}
    for switch in result.core_mapping.values():
        occupancy[switch] = occupancy.get(switch, 0) + 1
    assert max(occupancy.values()) <= 3

    # Every flow has an allocation consistent with the shared mapping, and
    # the slot reservations provide enough bandwidth.
    report = validate_mapping(result, design)
    assert report.ok, [str(issue) for issue in report.issues]


@given(design=small_designs())
@_SETTINGS
def test_unified_never_needs_more_switches_than_worst_case(design):
    params = NoCParameters(max_cores_per_switch=3)
    try:
        worst = WorstCaseMapper(params=params).map(design)
    except MappingError:
        return
    unified = UnifiedMapper(params=params).map(design)
    assert unified.switch_count <= worst.switch_count


@given(design=small_designs())
@_SETTINGS
def test_mapping_is_deterministic_for_random_designs(design):
    params = NoCParameters(max_cores_per_switch=3)
    try:
        first = UnifiedMapper(params=params).map(design)
        second = UnifiedMapper(params=params).map(design)
    except MappingError:
        return
    assert first.core_mapping == second.core_mapping
    assert first.switch_count == second.switch_count


@given(design=small_designs())
@_SETTINGS
def test_mapper_reuse_matches_fresh_mapper(design):
    """A reused mapper (warm selector/relative-path caches) must produce the
    same mapping as a fresh one — the caches are pure."""
    params = NoCParameters(max_cores_per_switch=3)
    mapper = UnifiedMapper(params=params)
    try:
        first = mapper.map(design)
    except MappingError:
        return
    second = mapper.map(design)  # warm caches
    fresh = UnifiedMapper(params=params).map(design)
    for other in (second, fresh):
        assert first.core_mapping == other.core_mapping
        assert first.topology.name == other.topology.name
        for name, configuration in first.configurations.items():
            for allocation in configuration:
                twin = other.configurations[name].allocation_for(
                    allocation.flow.source, allocation.flow.destination
                )
                assert twin is not None
                assert twin.switch_path == allocation.switch_path
                assert dict(twin.link_slots) == dict(allocation.link_slots)


@given(
    design=small_designs(),
    slot_table_size=st.sampled_from([8, 16, 32]),
)
@_SETTINGS
def test_no_slot_double_booking_within_groups(design, slot_table_size):
    params = NoCParameters(max_cores_per_switch=3, slot_table_size=slot_table_size)
    groups = [list(design.names)]  # force everything into one shared configuration
    try:
        result = UnifiedMapper(params=params).map(design, groups=groups)
    except MappingError:
        return
    owners = {}
    for name, configuration in result.configurations.items():
        for allocation in configuration:
            for link, slots in allocation.link_slots.items():
                for slot in slots:
                    key = (link, slot)
                    owner = allocation.flow.pair
                    existing = owners.setdefault(key, owner)
                    assert existing == owner, (
                        f"slot {slot} on link {link} owned by both {existing} and {owner}"
                    )
