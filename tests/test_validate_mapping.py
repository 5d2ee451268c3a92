"""Property and fuzz coverage for `repro.core.validate.validate_mapping`.

Two directions: every fingerprint-pinned regression result (and refined /
exact results) must validate clean, and targeted mutations of a clean
result — slot collisions, broken path hops, bandwidth overshoots, use of a
downed switch — must each be rejected with the *specific* diagnostic kind,
not merely "something failed".
"""

from __future__ import annotations

import copy
import dataclasses
import random

import pytest

from repro import MappingEngine, UnifiedMapper, UseCase, UseCaseSet, generate_benchmark
from repro.core.validate import validate_mapping
from repro.exceptions import VerificationError
from repro.gen import set_top_box_design
from repro.noc.failures import FailureSet
from repro.optimize import AnnealingRefiner

CLEAN_DESIGNS = {
    "set_top_box_4uc": lambda: set_top_box_design(use_case_count=4).use_cases,
    "spread_10uc": lambda: generate_benchmark("spread", 10, seed=3),
    "bottleneck_6uc": lambda: generate_benchmark("bottleneck", 6, seed=7),
}


def mapped(design_name: str):
    use_cases = CLEAN_DESIGNS[design_name]()
    return UnifiedMapper().map(use_cases), use_cases


def gt_allocation_with_links(result):
    """Some allocation that traverses at least one link and reserves slots."""
    for name in sorted(result.configurations):
        for allocation in result.configurations[name]:
            if allocation.hop_count >= 1 and allocation.link_slots:
                return name, allocation
    raise AssertionError("design has no multi-hop GT allocation")


def replace_allocation(result, use_case: str, allocation, **changes):
    """Deep-copied result with one allocation swapped for a mutated clone."""
    mutated = copy.deepcopy(result)
    configuration = mutated.configurations[use_case]
    pair = allocation.flow.pair
    clone = dataclasses.replace(
        configuration._allocations[pair], **changes
    )
    configuration._allocations[pair] = clone
    return mutated


# --------------------------------------------------------------------------- #
# clean results validate clean
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("design_name", sorted(CLEAN_DESIGNS))
def test_regression_results_validate_clean(design_name):
    result, use_cases = mapped(design_name)
    report = validate_mapping(result, use_cases)
    assert report.ok, report.issues
    assert report.kinds == ()
    assert report.checked_allocations == sum(
        len(configuration) for configuration in result.configurations.values()
    )
    report.raise_if_failed()  # must be a no-op


def test_refined_and_exact_results_validate_clean():
    use_cases = generate_benchmark(
        "spread", 4, core_count=8, seed=5, flows_per_use_case=(10, 20)
    )
    engine = MappingEngine()
    heuristic = engine.map(use_cases)
    refined = AnnealingRefiner(iterations=60, seed=2).refine(
        heuristic, use_cases, engine=engine
    )
    assert validate_mapping(refined.refined, use_cases).ok
    from repro.optimize.ilp import exact_mapping

    exact = exact_mapping(use_cases, engine=engine, solver="native")
    assert validate_mapping(exact, use_cases).ok


def test_worst_case_results_validate_clean():
    use_cases = CLEAN_DESIGNS["set_top_box_4uc"]()
    result = MappingEngine().worst_case(use_cases)
    assert validate_mapping(result).ok


# --------------------------------------------------------------------------- #
# targeted mutations: one specific diagnostic each
# --------------------------------------------------------------------------- #
def test_slot_collision_is_detected():
    result, _ = mapped("spread_10uc")
    name, victim = gt_allocation_with_links(result)
    link, slots = sorted(victim.link_slots.items())[0]
    other = next(
        allocation for allocation in result.configurations[name]
        if allocation.flow.pair != victim.flow.pair
    )
    # hand the victim's exact slots on the victim's link to another flow of
    # the same use-case (hence the same configuration group)
    mutated = replace_allocation(
        result, name, other,
        link_slots={**dict(other.link_slots), link: tuple(slots)},
    )
    report = validate_mapping(mutated)
    assert not report.ok
    assert "slot-collision" in report.kinds
    collision = report.issues_of_kind("slot-collision")[0]
    assert str(link) in collision.detail


def test_broken_path_hop_is_detected():
    result, _ = mapped("spread_10uc")
    # teleport mid-path: keep the endpoints, remove the intermediate hops so
    # the remaining jump uses a link that does not exist
    name = victim = None
    for candidate_name in sorted(result.configurations):
        for allocation in result.configurations[candidate_name]:
            path = allocation.switch_path
            if len(path) >= 3 and not result.topology.has_link(path[0], path[-1]):
                name, victim = candidate_name, allocation
                break
        if victim is not None:
            break
    assert victim is not None, "design has no non-adjacent multi-hop flow"
    mutated = replace_allocation(
        result, name, victim, switch_path=(victim.switch_path[0],
                                           victim.switch_path[-1])
    )
    report = validate_mapping(mutated)
    assert not report.ok
    assert "path" in report.kinds
    assert any("missing" in issue.detail for issue in report.issues_of_kind("path"))


def test_bandwidth_overshoot_is_detected():
    result, _ = mapped("spread_10uc")
    name, victim = gt_allocation_with_links(result)
    # strip every slot reservation: the links stay traversed, the GT
    # bandwidth guarantee is gone
    mutated = replace_allocation(
        result, name, victim,
        link_slots={link: () for link in victim.link_slots},
    )
    report = validate_mapping(mutated)
    assert not report.ok
    assert "bandwidth" in report.kinds
    issue = report.issues_of_kind("bandwidth")[0]
    assert issue.use_case == name


def test_downed_switch_use_is_detected():
    result, _ = mapped("spread_10uc")
    mutated = copy.deepcopy(result)
    attached = sorted(set(mutated.core_mapping.values()))[0]
    mutated.topology = mutated.topology.with_failures(
        FailureSet(switches=[attached])
    )
    report = validate_mapping(mutated)
    assert not report.ok
    assert "downed-switch" in report.kinds


def test_foreign_placement_is_detected():
    result, _ = mapped("spread_10uc")
    mutated = copy.deepcopy(result)
    core = sorted(mutated.core_mapping)[0]
    mutated.core_mapping[core] = mutated.topology.switch_count + 5
    report = validate_mapping(mutated)
    assert "placement" in report.kinds
    # the allocations still start at the old switch, so paths break too
    assert "path" in report.kinds


def test_missing_allocation_is_detected():
    result, use_cases = mapped("spread_10uc")
    mutated = copy.deepcopy(result)
    name, victim = gt_allocation_with_links(mutated)
    del mutated.configurations[name]._allocations[victim.flow.pair]
    report = validate_mapping(mutated, use_cases)
    assert "missing" in report.kinds
    # without the original spec the gap is invisible — by design
    assert validate_mapping(mutated).ok


def test_slot_range_violation_is_detected():
    result, _ = mapped("spread_10uc")
    name, victim = gt_allocation_with_links(result)
    link, slots = sorted(victim.link_slots.items())[0]
    bad = dict(victim.link_slots)
    bad[link] = tuple(slots[:-1]) + (result.params.slot_table_size + 3,)
    mutated = replace_allocation(result, name, victim, link_slots=bad)
    report = validate_mapping(mutated)
    assert "slot-range" in report.kinds


def test_latency_violation_is_detected_without_use_cases():
    result, _ = mapped("spread_10uc")
    name, victim = gt_allocation_with_links(result)
    # the allocation's own flow carries the constraint: no spec needed
    tightened = dataclasses.replace(victim.flow, latency=1e-12)
    mutated = replace_allocation(result, name, victim, flow=tightened)
    report = validate_mapping(mutated)
    assert report.kinds == ("latency",)
    assert report.issues_of_kind("latency")[0].use_case == name


def test_use_case_bandwidth_is_rechecked_against_the_spec():
    result, use_cases = mapped("spread_10uc")
    name, victim = gt_allocation_with_links(result)
    raised = dataclasses.replace(victim.flow, bandwidth=victim.flow.bandwidth * 1e6)
    tampered = UseCaseSet([
        UseCase(use_case.name, flows=[
            raised if flow == victim.flow and use_case.name == name else flow
            for flow in use_case.flows
        ])
        for use_case in use_cases
    ])
    assert validate_mapping(result, use_cases).ok
    assert "bandwidth" in validate_mapping(result, tampered).kinds


def test_empty_path_with_use_cases_is_a_path_issue():
    result, use_cases = mapped("spread_10uc")
    name, victim = gt_allocation_with_links(result)
    mutated = replace_allocation(result, name, victim, switch_path=(), link_slots={})
    report = validate_mapping(mutated, use_cases)
    assert "path" in report.kinds
    assert any("empty path" in issue.detail for issue in report.issues_of_kind("path"))


def test_raise_if_failed_lists_the_issues():
    result, _ = mapped("spread_10uc")
    mutated = copy.deepcopy(result)
    core = sorted(mutated.core_mapping)[0]
    mutated.core_mapping[core] = -7
    with pytest.raises(VerificationError, match="placement"):
        validate_mapping(mutated).raise_if_failed()


# --------------------------------------------------------------------------- #
# fuzz: random single-field corruption never validates clean
# --------------------------------------------------------------------------- #
def test_random_path_corruptions_are_rejected():
    """Randomly rewiring any multi-hop path must always be caught.

    The mutation keeps slot structures untouched and only perturbs one
    switch index inside one path — the checker has to notice via endpoint
    consistency, link existence or slot/bandwidth mismatch.
    """
    result, _ = mapped("spread_10uc")
    rng = random.Random(20260807)
    candidates = [
        (name, allocation)
        for name in sorted(result.configurations)
        for allocation in result.configurations[name]
        if allocation.hop_count >= 1
    ]
    for _ in range(25):
        name, victim = rng.choice(candidates)
        path = list(victim.switch_path)
        index = rng.randrange(len(path))
        original = path[index]
        path[index] = rng.choice(
            [s for s in range(result.topology.switch_count + 2) if s != original]
        )
        mutated = replace_allocation(
            result, name, victim, switch_path=tuple(path)
        )
        report = validate_mapping(mutated)
        assert not report.ok, (
            f"corrupting hop {index} of {victim.flow.pair} in {name} "
            f"({original} -> {path[index]}) went unnoticed"
        )


def test_validator_needs_no_engine_state():
    """The referee works on a result that crossed a serialisation boundary.

    ``copy.deepcopy`` severs every shared object with the producing mapper;
    validation must rely only on the result's own topology/params payload.
    """
    result, use_cases = mapped("set_top_box_4uc")
    clone = copy.deepcopy(result)
    assert validate_mapping(clone, use_cases).ok
