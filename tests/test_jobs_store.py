"""Tests for the engine-state store and store-backed warm starts.

Pins the ISSUE 5 contracts:

* ``EngineStateStore`` round trip: content keys, sharded atomic result
  files, append-only batch-per-line evaluation shards;
* corruption tolerance — truncated/garbage shard content degrades to
  misses with a :class:`StoreCorruptionWarning`, never an error;
* concurrent writers (processes sharing a store) don't collide or lose
  whole-batch appends;
* eviction/compaction keeps a context bounded by ``max_context_entries``;
* ``MappingEngine.export_evaluations()`` / ``import_evaluations()`` with
  the lazy-index, never-re-export discipline;
* the headline acceptance: a warm ``RefineJob`` against a store populated
  by its design-flow/refine siblings performs **zero** fixed-placement
  re-evaluations for previously-seen candidates (``evaluation_misses == 0``
  in ``cache_info()``) with bit-identical, fingerprint-pinned payloads;
* manifest rotation at a size threshold and the ``repro serve --status``
  reader.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro import MappingEngine
from repro.exceptions import ReproError
from repro.gen import generate_benchmark
from repro.io.serialization import mapping_fingerprint, topology_fingerprint
from repro.jobs import (
    DesignFlowJob,
    EngineStateStore,
    JobCache,
    JobDirectoryService,
    JobRunner,
    RefineJob,
    StoreCorruptionWarning,
    UseCaseSource,
    WorstCaseJob,
    inbox_status,
    save_job,
)
from repro.jobs.cli import main as cli_main
from repro.optimize import AnnealingRefiner, TabuRefiner

SPREAD10 = UseCaseSource(generator={"kind": "spread", "use_case_count": 10, "seed": 3})
SPREAD3 = UseCaseSource(
    generator={"kind": "spread", "use_case_count": 3, "core_count": 12, "seed": 1}
)

#: the seed fingerprint of the spread-10 unified mapping (see
#: tests/test_mapping_regression.py) — store-warmed runs must reproduce it
SPREAD10_FINGERPRINT = "fe6d93388377d6e6d578733f2efe5de71e885b8b2f4280ddd634f13a74994a29"


def _entry(index, outcome="0.1:2"):
    return {"group_id": index, "projection": [index, index + 1], "outcome": outcome}


# --------------------------------------------------------------------------- #
# store round trip and layout
# --------------------------------------------------------------------------- #
def test_store_result_round_trip_and_sharding(tmp_path):
    store = EngineStateStore(tmp_path / "store")
    entry = {"spec_hash": "s", "groups": [["a"]], "method": "unified",
             "result": {"params": {}, "config": {}}}
    key = store.result_key("s", [["a"]], "unified", {}, {})
    assert store.get_result(key) is None
    assert store.put_result(key, entry) is True
    # append-only: an existing key is never rewritten
    assert store.put_result(key, {"clobber": True}) is False
    assert store.get_result(key) == entry
    # sharded by key prefix, discoverable
    assert store.result_path(key).parent.name == key[:2]
    assert list(store.result_keys()) == [key]


def test_store_evaluation_append_dedup_and_load(tmp_path):
    store = EngineStateStore(tmp_path / "store")
    context = store.evaluation_context("s", [["a"]], {"name": "t"}, {}, {})
    assert store.load_evaluations(context) == {}
    assert store.append_evaluations(context, [_entry(0), _entry(1)]) == 2
    # duplicate keys are skipped on later appends (first occurrence wins)
    assert store.append_evaluations(
        context, [_entry(1, outcome="9:9"), _entry(2)]
    ) == 1
    loaded = store.load_evaluations(context)
    assert set(loaded) == {(0, (0, 1)), (1, (1, 2)), (2, (2, 3))}
    assert loaded[(1, (1, 2))]["outcome"] == "0.1:2"  # not clobbered
    # two batches -> two append-only lines
    assert len(store.evaluation_path(context).read_text().splitlines()) == 2


def test_store_keys_cover_every_component(tmp_path):
    base = ("s", [["a", "b"]], "unified", {"f": 1.0}, {"k": 2})
    key = EngineStateStore.result_key(*base)
    assert EngineStateStore.result_key("x", *base[1:]) != key
    assert EngineStateStore.result_key(base[0], [["a"]], *base[2:]) != key
    assert EngineStateStore.result_key(*base[:2], "worst", *base[3:]) != key
    assert EngineStateStore.result_key(*base[:3], {"f": 2.0}, base[4]) != key
    assert EngineStateStore.result_key(*base[:4], {"k": 3}) != key
    # grouping order does not matter (groups are canonicalised sorted)
    assert EngineStateStore.result_key(base[0], [["b", "a"]], *base[2:]) == key


# --------------------------------------------------------------------------- #
# corruption tolerance
# --------------------------------------------------------------------------- #
def test_corrupt_result_file_warns_and_misses(tmp_path):
    store = EngineStateStore(tmp_path / "store")
    key = store.result_key("s", [], "unified", {}, {})
    store.put_result(key, {"ok": True})
    store.result_path(key).write_text("{torn json")
    with pytest.warns(StoreCorruptionWarning):
        assert store.get_result(key) is None


def test_corrupt_shard_lines_are_skipped_with_warning(tmp_path):
    store = EngineStateStore(tmp_path / "store")
    context = store.evaluation_context("s", [], {"name": "t"}, {}, {})
    store.append_evaluations(context, [_entry(0)])
    shard = store.evaluation_path(context)
    with shard.open("a") as handle:
        handle.write("not json at all {{{\n")
        handle.write(json.dumps([_entry(1)]) + "\n")
        handle.write(json.dumps([_entry(2)])[:-7])  # torn tail, no newline
    with pytest.warns(StoreCorruptionWarning):
        loaded = store.load_evaluations(context)
    # the good batches survive, the garbage and the torn tail do not
    assert set(loaded) == {(0, (0, 1)), (1, (1, 2))}


def test_malformed_entries_inside_a_batch_are_skipped(tmp_path):
    store = EngineStateStore(tmp_path / "store")
    context = store.evaluation_context("s", [], {"name": "t"}, {}, {})
    shard = store.evaluation_path(context)
    shard.parent.mkdir(parents=True, exist_ok=True)
    shard.write_text(json.dumps(
        [_entry(0), {"group_id": "junk"}, 17, {"projection": [1]}]
    ) + "\n")
    with pytest.warns(StoreCorruptionWarning):
        loaded = store.load_evaluations(context)
    assert set(loaded) == {(0, (0, 1))}


# --------------------------------------------------------------------------- #
# concurrent writers
# --------------------------------------------------------------------------- #
def _append_worker(directory, context, offset, count):
    store = EngineStateStore(directory)
    store.append_evaluations(
        context, [_entry(offset + index) for index in range(count)]
    )


def test_concurrent_writers_do_not_collide(tmp_path):
    directory = tmp_path / "store"
    store = EngineStateStore(directory)
    context = store.evaluation_context("s", [], {"name": "t"}, {}, {})
    workers = [
        multiprocessing.Process(
            target=_append_worker, args=(str(directory), context, offset, 20)
        )
        for offset in (0, 100, 200, 300)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
        assert worker.exitcode == 0
    loaded = store.load_evaluations(context)
    # every batch survived in full: appends are single O_APPEND writes
    assert len(loaded) == 80
    for offset in (0, 100, 200, 300):
        for index in range(20):
            assert (offset + index, (offset + index, offset + index + 1)) in loaded


# --------------------------------------------------------------------------- #
# eviction / compaction
# --------------------------------------------------------------------------- #
def test_overflowing_append_compacts_and_bounds_the_context(tmp_path):
    store = EngineStateStore(tmp_path / "store", max_context_entries=10)
    context = store.evaluation_context("s", [], {"name": "t"}, {}, {})
    assert store.append_evaluations(context, [_entry(i) for i in range(8)]) == 8
    # pushing past the bound folds old + new together and keeps the newest 10
    assert store.append_evaluations(
        context, [_entry(100 + i) for i in range(7)]
    ) == 7
    loaded = store.load_evaluations(context)
    assert len(loaded) == 10
    for index in range(100, 107):  # all the new entries survive
        assert (index, (index, index + 1)) in loaded
    assert (0, (0, 1)) not in loaded  # the oldest were evicted


def test_compact_dedups_and_reports(tmp_path):
    store = EngineStateStore(tmp_path / "store", max_context_entries=5)
    context = store.evaluation_context("s", [], {"name": "t"}, {}, {})
    shard = store.evaluation_path(context)
    shard.parent.mkdir(parents=True, exist_ok=True)
    # hand-written shard with duplicates and more than the bound
    shard.write_text(
        json.dumps([_entry(i) for i in range(8)]) + "\n"
        + json.dumps([_entry(0), _entry(1)]) + "\n"
    )
    stats = store.compact()
    assert stats["contexts"] == 1
    assert stats["entries"] == 5
    assert len(store.load_evaluations(context)) == 5
    assert len(shard.read_text().splitlines()) == 1
    assert store.stats()["evaluations"] == 5


# --------------------------------------------------------------------------- #
# engine evaluation export/import
# --------------------------------------------------------------------------- #
def _refined(engine, design, refiner):
    initial = engine.map(design)
    return refiner.refine(initial, design, engine=engine)


def test_export_import_evaluations_round_trip_bit_identical():
    design = generate_benchmark("spread", 10, seed=3)
    cold = MappingEngine()
    refiner = AnnealingRefiner(iterations=8, seed=0)
    cold_outcome = _refined(cold, design, refiner)
    exported = cold.export_evaluations()
    assert exported, "a refinement run must export evaluation entries"
    document = exported[0]
    assert document["spec_hash"] == cold.compile(design).spec_hash
    assert document["params"] == cold.params.to_dict()
    assert {"groups", "topology", "config", "entries"} <= set(document)

    warm = MappingEngine()
    assert warm.import_evaluations(exported) == len(document["entries"])
    warm.import_results(cold.export_results())
    warm_outcome = _refined(warm, design, refiner)
    info = warm.cache_info()
    assert info["evaluation_misses"] == 0
    assert info["imported_evaluations"] > 0
    assert info["result_misses"] == 0
    assert warm_outcome.refined_cost == cold_outcome.refined_cost
    assert warm_outcome.accepted_moves == cold_outcome.accepted_moves
    assert mapping_fingerprint(warm_outcome.refined) == \
        mapping_fingerprint(cold_outcome.refined)
    # never-re-export: the warm engine exports nothing it merely imported
    assert warm.export_evaluations() == []
    assert warm.export_results() == []
    # importing the same entries again indexes nothing new
    assert warm.import_evaluations(exported) == 0


def test_import_evaluations_skips_other_operating_points():
    design = generate_benchmark("spread", 5, seed=3)
    base = MappingEngine()
    _refined(base, design, TabuRefiner(iterations=4, seed=1))
    exported = base.export_evaluations()
    assert exported

    other = MappingEngine(params=base.params.with_frequency(1e9))
    assert other.import_evaluations(exported) == 0
    # ...but a with_params sibling at the matching point inherits them
    sibling = other.with_params(params=base.params)
    outcome = _refined(sibling, design, TabuRefiner(iterations=4, seed=1))
    assert sibling.cache_info()["imported_evaluations"] > 0
    assert mapping_fingerprint(outcome.refined) == mapping_fingerprint(
        _refined(MappingEngine(), design, TabuRefiner(iterations=4, seed=1)).refined
    )
    # malformed documents are skipped silently
    assert base.import_evaluations([{"junk": 1}, 7, None]) == 0


def test_corrupt_imported_outcome_degrades_to_recomputation():
    design = generate_benchmark("spread", 3, core_count=12, seed=1)
    cold = MappingEngine()
    outcome_cold = _refined(cold, design, AnnealingRefiner(iterations=4, seed=0))
    exported = cold.export_evaluations()
    for document in exported:
        for entry in document["entries"]:
            entry["outcome"] = "not.an|int:junk"
    warm = MappingEngine()
    warm.import_evaluations(exported)
    outcome_warm = _refined(warm, design, AnnealingRefiner(iterations=4, seed=0))
    # nothing imported survives parsing -> everything recomputed, identically
    assert warm.cache_info()["imported_evaluations"] == 0
    assert warm.cache_info()["evaluation_misses"] > 0
    assert mapping_fingerprint(outcome_warm.refined) == \
        mapping_fingerprint(outcome_cold.refined)


def test_topology_fingerprint_is_content_keyed():
    design = generate_benchmark("spread", 3, core_count=12, seed=1)
    first = MappingEngine().map(design)
    second = MappingEngine().map(design)
    assert first.topology is not second.topology
    assert topology_fingerprint(first.topology) == \
        topology_fingerprint(second.topology)


# --------------------------------------------------------------------------- #
# the headline acceptance: warm RefineJob via the runner + store
# --------------------------------------------------------------------------- #
def test_warm_refine_job_performs_zero_candidate_reevaluations(tmp_path):
    cache = tmp_path / "cache"

    # a design-flow job and a longer refine sibling populate the store
    cold_runner = JobRunner(cache_dir=cache, seed_engines=True)
    cold_runner.run(DesignFlowJob(use_cases=SPREAD10))
    cold_refine = cold_runner.run(RefineJob(use_cases=SPREAD10, iterations=12, seed=0))
    assert cold_refine.stats["engine"]["evaluation_misses"] > 0

    # a *shorter* refine sibling (distinct job hash, so not a JobCache hit)
    # walks a strict prefix of the longer run's candidates: every candidate
    # was previously seen, so the warm engine re-evaluates none of them
    warm_runner = JobRunner(cache_dir=cache, seed_engines=True)
    warm = warm_runner.run(RefineJob(use_cases=SPREAD10, iterations=6, seed=0))
    assert warm.cached is False and warm_runner.executed_jobs == 1
    stats = warm.stats["engine"]
    assert stats["evaluation_misses"] == 0
    assert stats["result_misses"] == 0
    assert stats["imported_evaluations"] > 0
    assert stats["imported_results"] >= 1

    # bit-identical to a cold, storeless execution, pinned to the seed
    cold = JobRunner().run(RefineJob(use_cases=SPREAD10, iterations=6, seed=0))
    assert warm.payload == cold.payload
    assert warm.payload["initial_fingerprint"] == SPREAD10_FINGERPRINT
    # and the envelope carries no engine state: the store is the only corpus
    assert "engine_results" not in warm.to_dict()


def test_warm_refine_job_over_the_worker_pool(tmp_path):
    cache = tmp_path / "cache"
    runner = JobRunner(cache_dir=cache, seed_engines=True, workers=2)
    runner.run_many([
        DesignFlowJob(use_cases=SPREAD3),
        RefineJob(use_cases=SPREAD3, iterations=8, seed=0),
    ])

    warm = JobRunner(cache_dir=cache, seed_engines=True, workers=2)
    result = warm.run_many([RefineJob(use_cases=SPREAD3, iterations=4, seed=0)])[0]
    stats = result.stats["engine"]
    assert stats["evaluation_misses"] == 0
    assert stats["result_misses"] == 0
    cold = JobRunner().run(RefineJob(use_cases=SPREAD3, iterations=4, seed=0))
    assert result.payload == cold.payload


def test_jobcache_delegates_seed_corpus_to_store(tmp_path):
    cache_dir = tmp_path / "cache"
    JobRunner(cache_dir=cache_dir, seed_engines=True).run(
        WorstCaseJob(use_cases=SPREAD3)
    )
    cache = JobCache(cache_dir)
    assert cache.store.directory == cache_dir / "engine-state"
    assert cache.store.stats()["results"] >= 1
    # an engine attached to the store reads the mapping from it keyed
    engine = MappingEngine()
    engine.attach_store(cache.store)
    engine.worst_case(SPREAD3.build())
    assert engine.cache_info()["imported_results"] == 1
    # sync_store has nothing to fold: schema-2 entries carry no exports
    synced = cache.sync_store()
    assert synced["results"] == 0


def _legacy_envelope():
    """A schema-1 design-flow entry as older writers left it: untagged, with
    the executing engine's exports inline as ``engine_results``."""
    engine = MappingEngine()
    engine.map(SPREAD3.build())
    fresh = JobRunner().run(DesignFlowJob(use_cases=SPREAD3))
    document = fresh.to_dict()
    del document["schema"]
    document["engine_results"] = engine.export_results()
    return fresh, document


def test_sync_store_folds_legacy_envelopes_into_the_store(tmp_path):
    cache_dir = tmp_path / "cache"
    result, document = _legacy_envelope()
    assert len(document["engine_results"]) == 1
    cache = JobCache(cache_dir)
    cache.path_for(result.spec_hash).write_text(json.dumps(document, indent=2))
    assert cache.store.stats()["results"] == 0
    assert cache.sync_store()["results"] == 1
    assert cache.store.stats()["results"] == 1
    # a later sync does not re-read the entry, and re-ingesting is a no-op
    assert cache.sync_store()["results"] == 0
    assert JobCache(cache_dir).sync_store()["results"] == 0
    # a seeding runner folds it in before executing, so the legacy export
    # warm-starts a refine job whose initial mapping it contains
    warm = JobRunner(cache_dir=tmp_path / "warm", seed_engines=True)
    warm.cache.path_for(result.spec_hash).write_text(json.dumps(document, indent=2))
    refine = warm.run(RefineJob(use_cases=SPREAD3, iterations=4, seed=0))
    assert refine.stats["engine"]["result_misses"] == 0
    assert refine.stats["engine"]["imported_results"] == 1


def test_sync_store_skips_entries_the_cache_wrote_itself(tmp_path, monkeypatch):
    runner = JobRunner(cache_dir=tmp_path / "cache", seed_engines=True)
    result = runner.run(WorstCaseJob(use_cases=SPREAD3))
    entry = runner.cache.path_for(result.spec_hash)
    reads = []
    original = type(entry).read_text

    def recording_read_text(path, *args, **kwargs):
        reads.append(path.name)
        return original(path, *args, **kwargs)

    monkeypatch.setattr(type(entry), "read_text", recording_read_text)
    # its own entries carry no exports: the writer never re-parses them
    assert runner.cache.sync_store()["results"] == 0
    assert reads == []
    # a fresh instance reads a foreign entry once, then never again
    cache = JobCache(tmp_path / "cache")
    cache.sync_store()
    cache.sync_store()
    assert reads == [entry.name]


def test_legacy_indented_cache_entry_still_hits_with_identical_payload(tmp_path):
    cache_dir = tmp_path / "cache"
    result, document = _legacy_envelope()
    JobCache(cache_dir).path_for(result.spec_hash).write_text(
        json.dumps(document, indent=2)
    )
    runner = JobRunner(cache_dir=cache_dir, seed_engines=True)
    hit = runner.run(DesignFlowJob(use_cases=SPREAD3))
    assert hit.cached is True and runner.executed_jobs == 0
    assert hit.payload == result.payload
    assert runner.cache.hits == 1
    # re-published envelopes drop the legacy corpus and carry the tag
    assert hit.to_dict()["schema"] == 2
    assert "engine_results" not in hit.to_dict()


@pytest.mark.parametrize("mangle", [
    lambda document: dict(document, schema=3),
    lambda document: dict(document, schema="2"),
    lambda document: [document],
], ids=["newer-schema", "non-integer-schema", "non-object"])
def test_cache_entry_this_reader_cannot_read_is_a_miss(tmp_path, mangle):
    cache_dir = tmp_path / "cache"
    result = JobRunner().run(WorstCaseJob(use_cases=SPREAD3))
    document = mangle(result.to_dict())
    JobCache(cache_dir).path_for(result.spec_hash).write_text(json.dumps(document))
    runner = JobRunner(cache_dir=cache_dir)
    rerun = runner.run(WorstCaseJob(use_cases=SPREAD3))
    assert rerun.cached is False and runner.executed_jobs == 1
    assert runner.cache.misses == 1
    assert rerun.payload == result.payload
    # the re-execution overwrote the entry with one this reader understands
    assert json.loads(runner.cache.path_for(result.spec_hash).read_text())["schema"] == 2


@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool"])
def test_cached_runner_without_seeding_still_fills_the_store(tmp_path, workers):
    cache_dir = tmp_path / "cache"
    writer = JobRunner(cache_dir=cache_dir, seed_engines=False, workers=workers)
    writer.run_many([DesignFlowJob(use_cases=SPREAD3)])
    assert writer.cache.store.stats()["results"] == 1
    # ...so a seeding sibling reuses the writer's mapping
    warm = JobRunner(cache_dir=cache_dir, seed_engines=True)
    refine = warm.run(RefineJob(use_cases=SPREAD3, iterations=4, seed=0))
    assert refine.stats["engine"]["result_misses"] == 0
    assert refine.stats["engine"]["imported_results"] >= 1


# --------------------------------------------------------------------------- #
# manifest rotation + the --status reader (ROADMAP follow-up (l))
# --------------------------------------------------------------------------- #
def test_manifest_rotates_at_the_size_threshold(tmp_path):
    inbox = tmp_path / "inbox"
    service = JobDirectoryService(inbox, manifest_max_bytes=300)
    for index in range(4):
        save_job(WorstCaseJob(use_cases=SPREAD3), inbox / f"job{index}.json")
        service.run_once()
    rotated = sorted(inbox.glob("manifest-*.jsonl"))
    assert rotated, "the manifest must have rotated at least once"
    assert (inbox / "manifest.jsonl").stat().st_size < 300 + 512
    # the full history is recoverable across segments, in order
    records = list(service.manifest_records())
    assert [record["file"] for record in records] == [
        "job0.json", "job1.json", "job2.json", "job3.json",
    ]


def test_inbox_status_aggregates_rotated_history(tmp_path):
    inbox = tmp_path / "inbox"
    service = JobDirectoryService(inbox, manifest_max_bytes=300)
    for index in range(3):
        save_job(WorstCaseJob(use_cases=SPREAD3), inbox / f"job{index}.json")
        service.run_once()
    (inbox / "bad.json").write_text('{"kind": "no_such_kind"}')
    service.run_once()
    save_job(WorstCaseJob(use_cases=SPREAD3), inbox / "waiting.json")

    status = inbox_status(inbox)
    assert status["files"]["pending"] == 1
    assert status["files"]["done"] == 3
    assert status["files"]["failed"] == 1
    assert status["manifest"]["records"] == 4
    assert status["manifest"]["done"] == 3
    assert status["manifest"]["failed"] == 1
    assert status["manifest"]["segments"] >= 2
    assert status["last_record"]["file"] == "bad.json"
    # read-only: nothing was created in or written to the inbox
    assert not (tmp_path / "nowhere").exists()
    with pytest.raises(ReproError):
        inbox_status(tmp_path / "nowhere")
    assert not (tmp_path / "nowhere").exists()


def test_cli_serve_status(tmp_path, capsys):
    inbox = tmp_path / "inbox"
    inbox.mkdir()
    save_job(WorstCaseJob(use_cases=SPREAD3), inbox / "job.json")
    assert cli_main(["serve", str(inbox), "--once"]) == 0
    capsys.readouterr()

    assert cli_main(["serve", str(inbox), "--status"]) == 0
    out = capsys.readouterr().out
    assert "0 pending" in out and "1 done" in out
    assert "1 record(s) in 1 segment(s)" in out
    # --status never scaffolds a missing inbox
    assert cli_main(["serve", str(tmp_path / "missing"), "--status"]) == 1
    assert not (tmp_path / "missing").exists()
