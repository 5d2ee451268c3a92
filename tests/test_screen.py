"""Tests for the vectorized candidate screen (repro.optimize.screen).

Pins the tentpole contract: screening is a pure *speed* change.  The
numpy and packed-int backends compute identical admissibility masks, a
screened refinement run is bit-identical to the unscreened scalar walk
(same refined cost, same accepted moves, same mapping fingerprint), and
``CandidateScreen.cost`` agrees with ``MappingEngine.placement_cost``
candidate for candidate — returning ``None`` exactly where the engine
raises ``MappingError``.
"""

from __future__ import annotations

import random

import pytest

import repro.noc.slot_table as slot_table_mod
from repro.core.engine import MappingEngine
from repro.exceptions import MappingError
from repro.gen import generate_benchmark
from repro.io.serialization import mapping_fingerprint
from repro.noc.slot_table import hop_mask_matrix, pipelined_free_mask
from repro.optimize import AnnealingRefiner, TabuRefiner
from repro.optimize.screen import (
    NUMPY_MIN_ROWS,
    CandidateScreen,
    NumpyMaskBackend,
    PackedIntMaskBackend,
    select_backend,
)

requires_numpy = pytest.mark.skipif(
    slot_table_mod._np is None, reason="numpy not installed"
)


def spread10():
    return generate_benchmark("spread", 10, seed=3)


# --------------------------------------------------------------------------- #
# backend equivalence
# --------------------------------------------------------------------------- #
def random_matrix(rng, size, rows, max_hops):
    return [
        [rng.getrandbits(size) for _ in range(rng.randint(0, max_hops))]
        for _ in range(rows)
    ]


@requires_numpy
@pytest.mark.parametrize("size", [8, 32, 64])
def test_backends_agree_on_random_matrices(size):
    rng = random.Random(size)
    numpy_backend = NumpyMaskBackend(size)
    packed_backend = PackedIntMaskBackend(size)
    for _ in range(25):
        matrix = random_matrix(rng, size, rows=rng.randint(0, 12), max_hops=2 * size)
        expected = [pipelined_free_mask(row, size) for row in matrix]
        assert packed_backend.admissible_start_masks(matrix) == expected
        assert numpy_backend.admissible_start_masks(matrix) == expected


@requires_numpy
def test_numpy_backend_rejects_oversized_tables():
    with pytest.raises(ValueError):
        NumpyMaskBackend(65)


def test_select_backend_prefers_ints_for_narrow_batches():
    assert isinstance(select_backend(32, rows=1), PackedIntMaskBackend)
    assert isinstance(select_backend(128), PackedIntMaskBackend)
    if slot_table_mod._np is not None:
        assert isinstance(select_backend(32), NumpyMaskBackend)
        assert isinstance(select_backend(32, rows=NUMPY_MIN_ROWS), NumpyMaskBackend)
    else:
        assert isinstance(select_backend(32), PackedIntMaskBackend)


def test_hop_mask_matrix_defaults_untouched_links_to_full():
    full = (1 << 8) - 1
    masks = {(0, 1): 0b1010}
    matrix = hop_mask_matrix(masks, [[(0, 1), (1, 2)], []], full)
    assert matrix == [[0b1010, full], []]


# --------------------------------------------------------------------------- #
# refinement bit-identity (the contract everything hangs off)
# --------------------------------------------------------------------------- #
def _refine(refiner_cls, use_cases, result, **kwargs):
    engine = MappingEngine()
    outcome = refiner_cls(seed=1, **kwargs).refine(result, use_cases, engine=engine)
    return outcome, engine


@pytest.mark.parametrize(
    "refiner_cls,kwargs",
    [
        (AnnealingRefiner, {"iterations": 40}),
        (TabuRefiner, {"iterations": 8}),
    ],
    ids=["annealing", "tabu"],
)
def test_screened_refinement_is_bit_identical_to_scalar(
    refiner_cls, kwargs, monkeypatch
):
    use_cases = spread10()
    result = MappingEngine().map(use_cases)
    scalar, scalar_engine = _refine(
        refiner_cls, use_cases, result, screen=False, **kwargs
    )
    assert scalar_engine.cache_info()["screen_misses"] == 0

    screened_runs = {}
    # fallback backend (numpy unavailable)
    monkeypatch.setattr(slot_table_mod, "_np", None)
    screened_runs["fallback"] = _refine(refiner_cls, use_cases, result, **kwargs)
    monkeypatch.undo()
    if slot_table_mod._np is not None:
        # numpy forced into every batch, however narrow
        monkeypatch.setattr(slot_table_mod, "NUMPY_MIN_ROWS", 1)
        screened_runs["numpy"] = _refine(refiner_cls, use_cases, result, **kwargs)
        monkeypatch.undo()

    for name, (outcome, engine) in screened_runs.items():
        assert outcome.refined_cost == scalar.refined_cost, name
        assert outcome.accepted_moves == scalar.accepted_moves, name
        assert outcome.refined.core_mapping == scalar.refined.core_mapping, name
        assert mapping_fingerprint(outcome.refined) == mapping_fingerprint(
            scalar.refined
        ), name
        info = engine.cache_info()
        assert info["screen_misses"] > 0, name
        # a kernel evaluation *is* a computed evaluation
        assert info["evaluation_misses"] >= info["screen_misses"], name


def test_screen_misses_are_evaluator_calls(monkeypatch):
    from repro.core.mapping import UnifiedMapper

    calls = []
    evaluate = UnifiedMapper.evaluate_group_fixed

    def counted(self, *args, **kwargs):
        calls.append(args[1])
        return evaluate(self, *args, **kwargs)

    monkeypatch.setattr(UnifiedMapper, "evaluate_group_fixed", counted)
    use_cases = spread10()
    result = MappingEngine().map(use_cases)
    _, engine = _refine(TabuRefiner, use_cases, result, iterations=8)
    misses = engine.cache_info()["screen_misses"]
    assert misses > 0
    assert len(calls) == misses


def test_screened_exports_match_scalar_exports():
    use_cases = spread10()
    result = MappingEngine().map(use_cases)
    _, scalar_engine = _refine(
        AnnealingRefiner, use_cases, result, screen=False, iterations=25
    )
    _, screened_engine = _refine(AnnealingRefiner, use_cases, result, iterations=25)
    assert screened_engine.export_evaluations() == scalar_engine.export_evaluations()


# --------------------------------------------------------------------------- #
# cost / screen parity with the engine
# --------------------------------------------------------------------------- #
def _screen_context():
    use_cases = spread10()
    engine = MappingEngine()
    result = engine.map(use_cases)
    spec = engine.compile(use_cases)
    groups = [list(group) for group in result.groups]
    screen = engine.screener(spec, result.topology, groups=groups)
    return engine, spec, result, groups, screen


def _random_neighbours(result, rng, count):
    cores = sorted(result.core_mapping)
    switches = [switch.index for switch in result.topology.switches]
    neighbours = []
    for _ in range(count):
        placement = dict(result.core_mapping)
        if rng.random() < 0.5:
            first, second = rng.sample(cores, 2)
            placement[first], placement[second] = placement[second], placement[first]
        else:
            placement[rng.choice(cores)] = rng.choice(switches)
        neighbours.append(placement)
    return neighbours


def test_cost_matches_placement_cost_on_random_neighbours():
    engine, spec, result, groups, screen = _screen_context()
    rng = random.Random(7)
    feasible = infeasible = 0
    for placement in _random_neighbours(result, rng, 120):
        try:
            expected = engine.placement_cost(
                spec, result.topology, placement, groups=groups
            )
        except MappingError:
            expected = None
        actual = screen.cost(placement)
        assert actual == expected
        if expected is None:
            infeasible += 1
        else:
            feasible += 1
    assert feasible and infeasible  # both branches exercised


def test_screen_lower_bounds_never_exceed_feasible_costs():
    _engine, _spec, result, _groups, screen = _screen_context()
    rng = random.Random(11)
    neighbours = _random_neighbours(result, rng, 60)
    reports = screen.screen(neighbours)
    assert len(reports) == len(neighbours)
    checked = 0
    for placement, report in zip(neighbours, reports):
        cost = screen.cost(placement)
        if not report.admissible:
            # inadmissible verdicts are decision-identical to evaluation
            assert cost is None
            continue
        if cost is not None:
            assert report.lower_bound <= cost * (1 + 1e-9)
            checked += 1
    assert checked


def test_screen_returns_exact_cost_once_memoised():
    _engine, _spec, result, _groups, screen = _screen_context()
    placement = dict(result.core_mapping)
    exact = screen.cost(placement)
    report = screen.screen([placement])[0]
    assert report.admissible
    assert report.cost == exact
    assert report.lower_bound == exact


def test_screen_counters_surface_in_cache_info():
    engine, _spec, result, _groups, screen = _screen_context()
    placement = dict(result.core_mapping)
    before = engine.cache_info()
    screen.cost(placement)
    mid = engine.cache_info()
    assert mid["screen_misses"] + mid["evaluation_hits"] > (
        before["screen_misses"] + before["evaluation_hits"]
    )
    screen.cost(placement)  # second look: answered by the run-local memo
    after = engine.cache_info()
    assert after["screen_hits"] > mid["screen_hits"]
    assert after["screen_misses"] == mid["screen_misses"]


def test_screener_rejects_nothing_it_should_not(monkeypatch):
    # incomplete placements fall back to the engine's general path
    engine, _spec, result, _groups, screen = _screen_context()
    partial = dict(result.core_mapping)
    partial.pop(sorted(partial)[0])
    report = screen.screen([partial])[0]
    assert report.admissible and report.cost is None and report.lower_bound == 0.0
