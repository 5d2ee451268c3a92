"""Tests for the job-directory service and cache-seeded engines.

Pins the contracts the ISSUE demands:

* the ``inbox/ -> running/ -> done/|failed/`` lifecycle with per-file
  result envelopes and a rolling ``manifest.jsonl``;
* crash-safe resume — files stranded in ``running/`` are re-queued;
* warm/cold equivalence — a ``--once`` serve run over a warm cache is
  bit-identical to the cold run (pinned fingerprints) with zero executions;
* ROADMAP follow-up (h) — store-seeded engines: a refine or frequency job
  whose initial mapping an earlier design-flow job computed performs
  **zero** mapping re-evaluations (asserted on the engine's ``cache_info()``
  counters); the cache's engine-state store is the only warm-start path;
* envelopes and cache entries are compact, schema-tagged JSON without
  inline engine state, and legacy (untagged) entries still hit.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import MappingEngine
from repro.gen import generate_benchmark
from repro.jobs import (
    DesignFlowJob,
    FrequencyJob,
    JobCache,
    JobDirectoryService,
    JobRunner,
    RefineJob,
    UseCaseSource,
    WorstCaseJob,
    save_job,
)
from repro.jobs.cli import main as cli_main

SPREAD10 = UseCaseSource(generator={"kind": "spread", "use_case_count": 10, "seed": 3})
SPREAD3 = UseCaseSource(
    generator={"kind": "spread", "use_case_count": 3, "core_count": 12, "seed": 1}
)

#: the seed fingerprint of the spread-10 unified mapping (see
#: tests/test_mapping_regression.py) — serve runs must reproduce it
SPREAD10_FINGERPRINT = "fe6d93388377d6e6d578733f2efe5de71e885b8b2f4280ddd634f13a74994a29"


def read_manifest(service):
    return [json.loads(line) for line in
            service.manifest_path.read_text().splitlines()]


def read_results(service, record):
    return json.loads((service.inbox / record["results"]).read_text())


# --------------------------------------------------------------------------- #
# directory lifecycle
# --------------------------------------------------------------------------- #
def test_service_directory_lifecycle(tmp_path):
    inbox = tmp_path / "inbox"
    service = JobDirectoryService(inbox)
    save_job(WorstCaseJob(use_cases=SPREAD3), inbox / "a_worst.json")
    save_job(DesignFlowJob(use_cases=SPREAD3), inbox / "b_flow.json")

    records = service.run_once()

    assert [record["file"] for record in records] == ["a_worst.json", "b_flow.json"]
    assert all(record["status"] == "done" for record in records)
    assert service.pending() == []
    assert not list(service.running_dir.glob("*.json"))
    assert sorted(entry.name for entry in service.done_dir.glob("*.json")) == [
        "a_worst.json", "b_flow.json",
    ]
    assert read_manifest(service) == records
    for record in records:
        envelopes = read_results(service, record)
        assert [env["spec_hash"] for env in envelopes] == record["spec_hashes"]
        assert all(env["payload"]["mapped"] for env in envelopes)
    # draining an empty inbox is a no-op
    assert service.run_once() == []


def test_service_moves_bad_specs_to_failed_and_keeps_serving(tmp_path):
    inbox = tmp_path / "inbox"
    service = JobDirectoryService(inbox)
    (inbox / "a_bad.json").parent.mkdir(parents=True, exist_ok=True)
    (inbox / "a_bad.json").write_text('{"kind": "no_such_kind"}')
    (inbox / "b_broken.json").write_text("not json {{{")
    save_job(WorstCaseJob(use_cases=SPREAD3), inbox / "c_good.json")

    records = service.run_once()

    by_file = {record["file"]: record for record in records}
    assert by_file["a_bad.json"]["status"] == "failed"
    assert "unknown job kind" in by_file["a_bad.json"]["error"]
    assert by_file["b_broken.json"]["status"] == "failed"
    assert by_file["c_good.json"]["status"] == "done"
    assert sorted(entry.name for entry in service.failed_dir.glob("*.json")) == [
        "a_bad.json", "b_broken.json",
    ]
    assert [entry.name for entry in service.done_dir.glob("*.json")] == ["c_good.json"]
    # failed files produce no results file, only the manifest record
    assert [entry.stem for entry in service.results_dir.glob("*.json")] == ["c_good"]


def test_service_recovers_files_stranded_in_running(tmp_path):
    inbox = tmp_path / "inbox"
    # a previous instance crashed mid-execution: its claimed spec is still
    # in running/ when the next instance starts
    crashed = JobDirectoryService(inbox)
    save_job(WorstCaseJob(use_cases=SPREAD3), inbox / "stranded.json")
    os.rename(inbox / "stranded.json", crashed.running_dir / "stranded.json")

    service = JobDirectoryService(inbox)
    records = service.run_once()

    assert [record["file"] for record in records] == ["stranded.json"]
    assert records[0]["status"] == "done"
    assert not list(service.running_dir.glob("*.json"))
    assert (service.done_dir / "stranded.json").exists()


def test_resubmitted_file_names_do_not_clobber_history(tmp_path):
    inbox = tmp_path / "inbox"
    cache = tmp_path / "cache"
    service = JobDirectoryService(inbox, cache_dir=cache)
    save_job(WorstCaseJob(use_cases=SPREAD3), inbox / "job.json")
    first = service.run_once()
    save_job(WorstCaseJob(use_cases=SPREAD3), inbox / "job.json")
    second = service.run_once()

    assert first[0]["file"] == "job.json"
    assert second[0]["file"] == "job-2.json"
    assert second[0]["cached"] == 1 and second[0]["executed"] == 0
    assert sorted(entry.name for entry in service.done_dir.glob("*.json")) == [
        "job-2.json", "job.json",
    ]
    assert read_results(service, first[0])[0]["payload"] == \
        read_results(service, second[0])[0]["payload"]


def test_serve_forever_honours_max_polls_and_stop(tmp_path, fake_clock):
    service = JobDirectoryService(tmp_path / "inbox", clock=fake_clock)
    # a realistic poll interval, but on the fake clock: the loop really
    # sleeps between polls (not after the last one) without stalling the test
    assert service.serve_forever(poll_interval=1.5, max_polls=3) == 0
    assert fake_clock.sleeps == [1.5, 1.5]
    service.stop()
    assert service.serve_forever(poll_interval=1.5) == 0
    assert fake_clock.sleeps == [1.5, 1.5]  # stopped loop never slept again


# --------------------------------------------------------------------------- #
# warm/cold equivalence over a persistent cache
# --------------------------------------------------------------------------- #
def _submit_workload(inbox):
    inbox.mkdir(parents=True, exist_ok=True)
    save_job(DesignFlowJob(use_cases=SPREAD10), inbox / "a_flow.json")
    save_job(RefineJob(use_cases=SPREAD10, iterations=8, seed=0),
             inbox / "b_refine.json")


def _fingerprints(service, records):
    prints = {}
    for record in records:
        for envelope in read_results(service, record):
            prints[envelope["spec_hash"]] = envelope["payload"].get("fingerprint")
    return prints


def test_warm_serve_run_is_bit_identical_with_zero_executions(tmp_path):
    cache = tmp_path / "cache"

    cold_service = JobDirectoryService(tmp_path / "inbox-cold", cache_dir=cache)
    _submit_workload(cold_service.inbox)
    cold = cold_service.run_once()
    assert cold_service.runner.executed_jobs == 2

    warm_service = JobDirectoryService(tmp_path / "inbox-warm", cache_dir=cache)
    _submit_workload(warm_service.inbox)
    warm = warm_service.run_once()

    # zero executions: every job answered from the JobCache hit path
    assert warm_service.runner.executed_jobs == 0
    assert all(record["cached"] == record["jobs"] for record in warm)
    # bit-identical results, pinned to the seed mapping fingerprint
    cold_prints = _fingerprints(cold_service, cold)
    warm_prints = _fingerprints(warm_service, warm)
    assert warm_prints == cold_prints
    assert SPREAD10_FINGERPRINT in warm_prints.values()
    cold_payloads = {record["file"]: [env["payload"] for env in
                                      read_results(cold_service, record)]
                     for record in cold}
    warm_payloads = {record["file"]: [env["payload"] for env in
                                      read_results(warm_service, record)]
                     for record in warm}
    assert warm_payloads == cold_payloads


# --------------------------------------------------------------------------- #
# follow-up (h): engines seeded from the JobCache
# --------------------------------------------------------------------------- #
def test_refine_job_is_served_from_seeded_engine_without_recomputation(tmp_path):
    cache = tmp_path / "cache"

    # an earlier serve pass computed the design-flow mapping of spread-10
    first = JobDirectoryService(tmp_path / "inbox1", cache_dir=cache)
    save_job(DesignFlowJob(use_cases=SPREAD10), first.inbox / "flow.json")
    assert first.run_once()[0]["status"] == "done"

    # a later pass submits a refine job of the same design: it is NOT in the
    # JobCache (different spec hash), but its initial unified mapping is —
    # the fresh engine is seeded and performs zero mapping re-evaluations
    second = JobDirectoryService(tmp_path / "inbox2", cache_dir=cache)
    save_job(RefineJob(use_cases=SPREAD10, iterations=8, seed=0),
             second.inbox / "refine.json")
    record = second.run_once()[0]
    assert record["status"] == "done"
    assert record["executed"] == 1 and record["cached"] == 0

    envelope = read_results(second, record)[0]
    engine_stats = envelope["stats"]["engine"]
    assert engine_stats["result_misses"] == 0
    assert engine_stats["result_hits"] >= 1
    assert engine_stats["imported_results"] >= 1
    assert envelope["payload"]["initial_fingerprint"] == SPREAD10_FINGERPRINT

    # seeding is transparent: bit-identical to a cold, unseeded execution
    cold = JobRunner().run(RefineJob(use_cases=SPREAD10, iterations=8, seed=0))
    assert cold.stats["engine"]["result_misses"] == 1
    assert envelope["payload"] == cold.payload


def test_frequency_probe_is_served_from_seeded_engine(tmp_path):
    cache = tmp_path / "cache"
    runner = JobRunner(cache_dir=cache, seed_engines=True)
    runner.run(DesignFlowJob(use_cases=SPREAD10))

    # the probe at the design-flow operating point (the default 500 MHz) is
    # answered by a with_params sibling of the seeded engine
    warm = JobRunner(cache_dir=cache, seed_engines=True)
    result = warm.run(FrequencyJob(use_cases=SPREAD10, frequencies_mhz=(500.0,)))
    assert result.payload["required_frequency_mhz"] == 500.0
    assert result.stats["engine"]["result_misses"] == 0
    assert result.stats["engine"]["result_hits"] >= 1


def test_jobcache_seed_engine_hits_for_contained_mapping(tmp_path):
    cache_dir = tmp_path / "cache"
    JobRunner(cache_dir=cache_dir).run(DesignFlowJob(use_cases=SPREAD10))

    cache = JobCache(cache_dir)
    assert cache.store.stats()["results"] >= 1, "the store must hold the mapping"
    engine = MappingEngine()
    engine.attach_store(cache.store)

    design = generate_benchmark("spread", 10, seed=3)
    result = engine.map(design)
    info = engine.cache_info()
    assert info["result_hits"] == 1
    assert info["result_misses"] == 0
    assert info["imported_results"] == 1
    from repro.io.serialization import mapping_fingerprint
    assert mapping_fingerprint(result) == SPREAD10_FINGERPRINT
    # a second map of the same design is an in-memory hit, not a store read
    engine.map(design)
    assert engine.cache_info()["imported_results"] == 1
    assert engine.cache_info()["result_misses"] == 0


def test_import_results_skips_other_operating_points_until_sibling_matches():
    base = MappingEngine()
    design = generate_benchmark("spread", 5, seed=3)
    computed = base.map(design)
    exported = base.export_results()

    other = MappingEngine(params=base.params.with_frequency(1e9))
    assert other.import_results(exported) == 0  # wrong operating point
    assert other.cache_info()["results"] == 0
    # ...but the entry is retained for siblings at the matching point, and
    # materialised lazily the moment a map() call asks for it
    sibling = other.with_params(params=base.params)
    from repro.io.serialization import mapping_fingerprint
    assert mapping_fingerprint(sibling.map(design)) == mapping_fingerprint(computed)
    assert sibling.cache_info()["imported_results"] == 1
    assert sibling.cache_info()["result_misses"] == 0

    # malformed entries are skipped silently
    assert base.import_results([{"junk": True}, 7, {"spec_hash": "x"}]) == 0


def test_seeded_envelopes_do_not_reexport_the_seed_corpus(tmp_path):
    """A seeded engine exports only what it computed, so the store's
    corpus stays proportional to distinct mappings, not O(jobs^2)."""
    cache_dir = tmp_path / "cache"
    runner = JobRunner(cache_dir=cache_dir, seed_engines=True)
    runner.run(DesignFlowJob(use_cases=SPREAD10))
    store = JobCache(cache_dir).store
    assert store.stats()["results"] == 1

    warm = JobRunner(cache_dir=cache_dir, seed_engines=True)
    refine = warm.run(RefineJob(use_cases=SPREAD10, iterations=8, seed=0))
    assert refine.stats["engine"]["imported_results"] >= 1
    # the imported initial mapping is not ingested again: the store still
    # holds exactly one mapping (the refined one stays in the payload only)
    assert store.stats()["results"] == 1
    assert "engine_results" not in refine.to_dict()


def test_envelopes_without_a_cache_skip_engine_exports():
    # envelopes never carry engine state, with or without a cache
    result = JobRunner().run(WorstCaseJob(use_cases=SPREAD3))
    assert "engine_results" not in result.to_dict()
    assert result.payload["mapped"] is True


def _is_envelope(document):
    return isinstance(document, dict) and "spec_hash" in document


@pytest.mark.parametrize("job_timeout_s", [None, 60.0], ids=["in-process", "isolated"])
def test_serve_results_and_cache_entries_are_compact_tagged_json(tmp_path, job_timeout_s):
    inbox = tmp_path / "inbox"
    service = JobDirectoryService(inbox, cache_dir=tmp_path / "cache",
                                  job_timeout_s=job_timeout_s)
    save_job(WorstCaseJob(use_cases=SPREAD3), inbox / "worst.json")
    (record,) = service.run_once()
    assert record["status"] == "done"
    cache = service.runner.cache
    texts = [(inbox / record["results"]).read_text()]
    texts += [cache.path_for(spec_hash).read_text() for spec_hash in record["spec_hashes"]]
    documents = []
    for text in texts:
        document = json.loads(text)
        # compact: exactly the C encoder's output without whitespace
        assert text == json.dumps(document, separators=(",", ":"))
        documents += document if isinstance(document, list) else [document]
    assert len(documents) == 2
    for document in documents:
        assert document["schema"] == 2
        assert "engine_results" not in document


def test_cache_hit_file_costs_one_encode_of_its_envelope_list(tmp_path, monkeypatch):
    inbox = tmp_path / "inbox"
    service = JobDirectoryService(inbox, cache_dir=tmp_path / "cache")
    save_job(DesignFlowJob(use_cases=SPREAD3), inbox / "cold.json")
    service.run_once()
    save_job(DesignFlowJob(use_cases=SPREAD3), inbox / "hit.json")

    envelope_lists, single_envelopes = [], []
    original = json.dumps

    def counting_dumps(document, *args, **kwargs):
        text = original(document, *args, **kwargs)
        if isinstance(document, list) and document and all(map(_is_envelope, document)):
            envelope_lists.append(text)
        elif _is_envelope(document):
            single_envelopes.append(text)
        return text

    monkeypatch.setattr(json, "dumps", counting_dumps)
    (record,) = service.run_once()
    assert record["cached"] == 1 and record["executed"] == 0
    assert len(envelope_lists) == 1 and single_envelopes == []
    assert envelope_lists[0] == (inbox / record["results"]).read_text()


def test_recovery_runs_once_per_instance_not_every_drain(tmp_path):
    inbox = tmp_path / "inbox"
    service = JobDirectoryService(inbox)
    assert service.run_once() == []  # first drain consumes the recovery
    # a file appearing in running/ afterwards belongs to a live peer: the
    # established instance must not steal it on later drains
    save_job(WorstCaseJob(use_cases=SPREAD3), service.running_dir / "peer.json")
    assert service.run_once() == []
    assert (service.running_dir / "peer.json").exists()
    # a *new* instance (a restart) does recover it
    restarted = JobDirectoryService(inbox)
    assert [record["file"] for record in restarted.run_once()] == ["peer.json"]


def test_process_file_survives_a_peer_reclaiming_the_spec(tmp_path):
    inbox = tmp_path / "inbox"
    service = JobDirectoryService(inbox)

    # reclaimed *before* the file was even loaded: the claim is simply lost
    save_job(WorstCaseJob(use_cases=SPREAD3), inbox / "early.json")
    claimed = service._claim(inbox / "early.json")
    os.rename(claimed, inbox / "early.json")
    assert service.process_file(claimed) is None
    assert not service.manifest_path.exists()
    assert (inbox / "early.json").exists()

    # reclaimed *mid-execution*: the completed work is still recorded
    save_job(WorstCaseJob(use_cases=SPREAD3), inbox / "late.json")
    claimed = service._claim(inbox / "late.json")
    original = service.runner.run_many

    def steal_then_run(jobs):
        os.rename(claimed, inbox / "late.json")
        return original(jobs)

    service.runner.run_many = steal_then_run
    record = service.process_file(claimed)
    assert record["status"] == "done"
    assert read_results(service, record)[0]["payload"]["mapped"] is True


# --------------------------------------------------------------------------- #
# the serve CLI
# --------------------------------------------------------------------------- #
def test_cli_serve_once_end_to_end(tmp_path, capsys):
    inbox = tmp_path / "inbox"
    cache = tmp_path / "cache"
    inbox.mkdir()
    save_job(DesignFlowJob(use_cases=SPREAD3), inbox / "flow.json")

    assert cli_main(["serve", str(inbox), "--once",
                     "--cache-dir", str(cache)]) == 0
    out = capsys.readouterr().out
    assert "[done] flow.json" in out
    assert "processed 1 file(s), 0 failed" in out
    assert (inbox / "done" / "flow.json").exists()
    assert (inbox / "manifest.jsonl").exists()

    # a failed submission flips the --once exit status to 1
    (inbox / "bad.json").write_text('{"kind": "no_such_kind"}')
    assert cli_main(["serve", str(inbox), "--once",
                     "--cache-dir", str(cache)]) == 1
    assert "[failed] bad.json" in capsys.readouterr().out


def test_cli_serve_once_warm_inbox_reports_cache_hits(tmp_path, capsys):
    cache = tmp_path / "cache"
    for name in ("inbox1", "inbox2"):
        inbox = tmp_path / name
        inbox.mkdir()
        save_job(WorstCaseJob(use_cases=SPREAD3), inbox / "job.json")
        assert cli_main(["serve", str(inbox), "--once",
                        "--cache-dir", str(cache)]) == 0
    assert "1 cached  0 executed" in capsys.readouterr().out


# --------------------------------------------------------------------------- #
# the fleet view: serve --status over several inboxes
# --------------------------------------------------------------------------- #
def test_fleet_status_aggregates_inboxes_read_only(tmp_path):
    from repro.jobs import fleet_status

    cache = tmp_path / "cache"
    busy = tmp_path / "busy"
    busy.mkdir()
    save_job(WorstCaseJob(use_cases=SPREAD3), busy / "job.json")
    JobDirectoryService(busy, cache_dir=cache).run_once()
    idle = tmp_path / "idle"
    idle.mkdir()
    save_job(WorstCaseJob(use_cases=SPREAD3), idle / "waiting.json")

    fleet = fleet_status([busy, idle], cache_dir=cache)
    assert fleet["totals"]["inboxes"] == 2
    assert fleet["totals"]["files"]["done"] == 1
    assert fleet["totals"]["files"]["pending"] == 1
    assert fleet["totals"]["manifest"]["jobs"] == 1
    assert [status["inbox"] for status in fleet["inboxes"]] == [
        str(busy), str(idle),
    ]
    # the cache's engine-state store is reported without being created...
    assert fleet["store"]["directory"] == str(cache / "engine-state")
    assert fleet["store"]["results"] >= 1
    # ...and a cache that does not exist yet stays uncreated (read-only)
    absent = tmp_path / "no-cache"
    assert fleet_status([busy], cache_dir=absent)["store"] is None
    assert not absent.exists()


def test_fleet_status_rejects_missing_inboxes(tmp_path):
    from repro.exceptions import ReproError
    from repro.jobs import fleet_status

    inbox = tmp_path / "inbox"
    inbox.mkdir()
    with pytest.raises(ReproError):
        fleet_status([inbox, tmp_path / "missing"])
    assert not (tmp_path / "missing").exists()


def test_cli_serve_status_fleet_view(tmp_path, capsys):
    cache = tmp_path / "cache"
    inboxes = []
    for name in ("north", "south"):
        inbox = tmp_path / name
        inbox.mkdir()
        save_job(WorstCaseJob(use_cases=SPREAD3), inbox / "job.json")
        inboxes.append(str(inbox))
    assert cli_main(["serve", inboxes[0], "--once", "--cache-dir", str(cache)]) == 0
    capsys.readouterr()

    assert cli_main(["serve", *inboxes, "--status", "--cache-dir", str(cache)]) == 0
    out = capsys.readouterr().out
    assert "fleet: 2 inboxes, 1 pending" in out
    assert "1 done" in out
    assert "engine-state store" in out

    # several inboxes are only meaningful with --status
    assert cli_main(["serve", *inboxes, "--once"]) == 1
    assert capsys.readouterr().err.startswith("error:")
