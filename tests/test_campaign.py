"""Tests for the campaign subsystem (spec, runner, reduction, CLI).

Pins the contracts the ISSUE demands:

* :class:`CampaignSpec` round-trips losslessly through JSON — randomized
  specs survive ``to_dict -> from_dict -> to_dict`` unchanged and hash
  identically — and a golden ``campaign_hash`` guards the document format
  against accidental drift;
* **resumability** — a crash-interrupted campaign run (``max_cells``)
  resumed later re-executes **zero** completed cells, asserted on the
  runner's executed-job counter, not just the summary;
* **determinism** — two runs of the same campaign in fresh directories
  produce byte-identical ``report.json`` digests;
* the farm path — ``submit`` into a ``repro serve`` inbox, drain, then
  ``collect`` settles every cell without local execution;
* the CLI error contract — malformed campaign specs die with a one-line
  ``error:`` diagnostic and exit status 1, never a traceback.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.campaign import (
    CampaignMethod,
    CampaignRunner,
    CampaignSpec,
    CampaignWorkload,
    ParameterSet,
    campaign_hash,
    load_campaign,
    mapping_cost,
    save_campaign,
)
from repro.exceptions import SerializationError, SpecificationError
from repro.gen import recipe_names
from repro.jobs.cli import main as cli_main

TINY = {"kind": "spread", "use_case_count": 2, "core_count": 12, "seed": 1}

#: the document whose hash is pinned below — changing the campaign
#: serialization format (field names, default axes, seed handling) breaks
#: this on purpose: bump it consciously, it re-keys every trajectory
GOLDEN_DOC = {
    "name": "smoke",
    "workloads": [
        {"label": "tiny",
         "generator": {"kind": "spread", "use_case_count": 2, "seed": 3}},
    ],
    "methods": [
        {"label": "flow", "kind": "design_flow"},
        {"label": "anneal50", "kind": "refine", "knobs": {"iterations": 50}},
    ],
}
GOLDEN_HASH = "263d02f599598bf8e3db100caff819df026188c4ea93517e6582cb0fbf1dc2e9"


def tiny_campaign(methods=None, **overrides) -> CampaignSpec:
    document = {
        "name": "tiny-study",
        "workloads": [{"label": "tiny", "generator": TINY}],
        "methods": methods or [
            {"label": "flow", "kind": "design_flow"},
            {"label": "anneal", "kind": "refine", "knobs": {"iterations": 30}},
        ],
    }
    document.update(overrides)
    return CampaignSpec.from_dict(document)


# --------------------------------------------------------------------------- #
# spec round-trip and hashing
# --------------------------------------------------------------------------- #
def test_campaign_golden_hash():
    assert campaign_hash(CampaignSpec.from_dict(GOLDEN_DOC)) == GOLDEN_HASH


def test_campaign_roundtrip_randomized():
    rng = random.Random(20060306)
    kinds = {
        "design_flow": {},
        "worst_case": {},
        "refine": {"iterations": 25, "method": "tabu"},
        "portfolio_refine": {"chains": 2, "iterations": 20},
        "repair": {"failures": {"links": [[0, 1]], "switches": []}},
    }
    for _ in range(25):
        workloads = [
            {"label": f"w{index}",
             "generator": dict(TINY, seed=rng.randrange(100)),
             "mesh": rng.choice([None, [2, 2], [3, 3]])}
            for index in range(rng.randint(1, 3))
        ]
        picked = rng.sample(sorted(kinds), rng.randint(1, len(kinds)))
        methods = [
            {"label": f"m{index}", "kind": kind, "knobs": kinds[kind]}
            for index, kind in enumerate(picked)
        ]
        psets = [
            {"label": f"p{index}",
             "params": rng.choice([{}, {"frequency_hz": 400e6}]),
             "config": {}}
            for index in range(rng.randint(1, 2))
        ]
        seeds = rng.sample(range(50), rng.randint(0, 3))
        spec = CampaignSpec.from_dict({
            "name": "randomized", "workloads": workloads,
            "methods": methods, "parameter_sets": psets, "seeds": seeds,
        })
        rebuilt = CampaignSpec.from_dict(spec.to_dict())
        assert rebuilt.to_dict() == spec.to_dict()
        assert campaign_hash(rebuilt) == campaign_hash(spec)
        assert len(spec.expand()) == spec.cell_count()


def test_campaign_save_load_roundtrip(tmp_path):
    spec = tiny_campaign()
    path = save_campaign(spec, tmp_path / "study.json")
    assert campaign_hash(load_campaign(path)) == campaign_hash(spec)


def test_campaign_recipe_resolution():
    workload = CampaignWorkload.from_dict({"recipe": "mesh4x4_spread24"})
    assert workload.label == "mesh4x4_spread24"
    assert workload.mesh == (4, 4)
    assert workload.generator["core_count"] == 16
    # overrides merge into the recipe's generator without renaming it
    seeded = CampaignWorkload.from_dict(
        {"recipe": "mesh4x4_spread24", "generator": {"seed": 9}, "mesh": [5, 5]}
    )
    assert seeded.generator["seed"] == 9
    assert seeded.mesh == (5, 5)
    assert "mesh16x16_spread200" in recipe_names()
    with pytest.raises(SpecificationError):
        CampaignWorkload.from_dict({"recipe": "no_such_recipe"})


def test_campaign_expand_forces_workload_mesh():
    spec = tiny_campaign(
        workloads=[{"label": "w", "generator": TINY, "mesh": [3, 3]}],
        methods=[
            {"label": "anneal", "kind": "refine", "knobs": {"iterations": 10}},
            {"label": "chains", "kind": "portfolio_refine",
             "knobs": {"chains": 2, "iterations": 10}},
            {"label": "flow", "kind": "design_flow"},
        ],
    )
    jobs = {cell.method: cell.job for cell in spec.expand()}
    assert jobs["anneal"].mesh == (3, 3)
    assert jobs["chains"].mesh == (3, 3)
    assert not hasattr(jobs["flow"], "mesh")


def test_campaign_validation_errors():
    with pytest.raises(SerializationError):
        CampaignSpec.from_dict({"broken": True})
    with pytest.raises(SerializationError):
        CampaignSpec.from_dict("not a mapping")
    with pytest.raises(SpecificationError):
        tiny_campaign(methods=[{"label": "m", "kind": "no_such_kind"}])
    with pytest.raises(SpecificationError):
        tiny_campaign(methods=[
            {"label": "m", "kind": "refine", "knobs": {"bogus_knob": 1}}
        ])
    with pytest.raises(SpecificationError):
        # repair without a failures knob
        tiny_campaign(methods=[{"label": "m", "kind": "repair"}])
    with pytest.raises(SpecificationError):
        # duplicate labels on an axis
        tiny_campaign(methods=[
            {"label": "m", "kind": "design_flow"},
            {"label": "m", "kind": "worst_case"},
        ])
    with pytest.raises(SpecificationError):
        tiny_campaign(seeds=[1, 1])
    with pytest.raises(SerializationError):
        # '|' would corrupt cell ids
        tiny_campaign(methods=[{"label": "a|b", "kind": "design_flow"}])
    with pytest.raises(SpecificationError):
        # parameter-set typos fail at load time, not mid-campaign
        tiny_campaign(parameter_sets=[
            {"label": "p", "params": {"no_such_param": 1}}
        ])


# --------------------------------------------------------------------------- #
# the runner: resume and determinism
# --------------------------------------------------------------------------- #
def test_campaign_run_reduces_into_ranked_report(tmp_path):
    spec = tiny_campaign()
    runner = CampaignRunner(tmp_path / "camp")
    summary = runner.run(spec)
    assert summary["executed"] == 2 and summary["resumed"] == 0
    report = json.loads((tmp_path / "camp" / "report.json").read_text())
    assert report["totals"] == {
        "cells": 2, "completed": 2, "missing": 0,
        "schedulable": 2, "unschedulable": 0,
    }
    ranked = report["rankings"]["tiny|base"]
    assert [entry["rank"] for entry in ranked] == [1, 2]
    assert ranked[0]["cost"] <= ranked[1]["cost"]
    # the refined mapping strictly beats or ties the plain flow, and the
    # win matrix agrees with the ranking
    wins = report["win_matrix"]
    assert wins["anneal"]["flow"] + wins["flow"]["anneal"] <= 1
    assert report["best_known"]["tiny"]["cost"] == ranked[0]["cost"]
    # volatile fields never reach report.json
    assert "elapsed_s" not in report["cells"][0]
    assert "cached" not in report["cells"][0]
    # ... but the digest and trajectory carry the wall-clock
    assert "wallclock" in (tmp_path / "camp" / "report.md").read_text()
    trajectory = [
        json.loads(line) for line in
        (tmp_path / "camp" / "trajectory.jsonl").read_text().splitlines()
    ]
    assert len(trajectory) == 1
    assert trajectory[0]["campaign_hash"] == campaign_hash(spec)
    assert trajectory[0]["wallclock_s"] >= 0


def test_campaign_resume_executes_zero_completed_cells(tmp_path):
    spec = tiny_campaign(seeds=[1, 2])  # 4 cells
    camp = tmp_path / "camp"

    # "crash" after two cells: the slice stops mid-campaign, no report yet
    first = CampaignRunner(camp).run(spec, max_cells=2)
    assert first["executed"] == 2 and first["pending"] == 2
    assert not (camp / "report.json").exists()

    # the resumed run executes only what the crash left behind...
    resumed = CampaignRunner(camp).run(spec)
    assert resumed["executed"] == 2 and resumed["resumed"] == 2
    assert (camp / "report.json").exists()

    # ...and a third run executes nothing at all, pinned below the summary
    # by counting actual job executions through the runner's own cache
    import repro.jobs.runner as jobs_runner

    calls = []
    original = jobs_runner.JobRunner.run_many

    def counting_run_many(self, jobs):
        calls.append(len(jobs))
        return original(self, jobs)

    jobs_runner.JobRunner.run_many = counting_run_many
    try:
        third = CampaignRunner(camp).run(spec)
    finally:
        jobs_runner.JobRunner.run_many = original
    assert third["executed"] == 0 and third["resumed"] == 4
    assert calls == []  # no batch ever reached the job layer


def test_campaign_settle_leaves_no_stray_temp_file(tmp_path):
    spec = tiny_campaign()
    runner = CampaignRunner(tmp_path / "camp")
    runner.run(spec)
    names = sorted(entry.name for entry in runner.cells_dir.iterdir())
    assert len(names) == len(spec.expand())
    assert all(name.endswith(".json") and ".tmp" not in name for name in names)
    # record bytes keep their human-readable form
    for entry in runner.cells_dir.iterdir():
        text = entry.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True)


def test_campaign_reports_are_byte_identical_across_runs(tmp_path):
    spec = tiny_campaign(seeds=[7])
    CampaignRunner(tmp_path / "one").run(spec)
    CampaignRunner(tmp_path / "two", workers=2).run(spec)
    first = (tmp_path / "one" / "report.json").read_bytes()
    second = (tmp_path / "two" / "report.json").read_bytes()
    assert first == second


def test_campaign_status_and_partial_report(tmp_path):
    spec = tiny_campaign()
    runner = CampaignRunner(tmp_path / "camp")
    runner.run(spec, max_cells=1)
    status = runner.status(spec)
    assert status["done"] == 1 and status["pending"] == 1
    assert len(status["pending_cells"]) == 1
    # a partial reduction names the missing cells and skips the trajectory
    outcome = runner.reduce(spec)
    assert outcome["missing"] == 1
    report = json.loads((tmp_path / "camp" / "report.json").read_text())
    assert report["missing_cells"] == status["pending_cells"]
    assert not runner.trajectory_path.exists()


def test_mapping_cost_is_bandwidth_weighted_hops():
    mapping = {"use_cases": {
        "b": [{"bandwidth_mbps": 10.0, "path": [0, 1, 2]}],
        "a": [{"bandwidth_mbps": 5.0, "path": [3, 0]},
              {"bandwidth_mbps": 1.0, "path": [2]}],
    }}
    # 10*2 + 5*1 + 1*0, independent of dict order
    assert mapping_cost(mapping) == 25.0
    assert mapping_cost({}) == 0.0


# --------------------------------------------------------------------------- #
# the farm path: submit / collect against a serve inbox
# --------------------------------------------------------------------------- #
def test_campaign_submit_collect_roundtrip(tmp_path):
    from repro.jobs.service import JobDirectoryService

    spec = tiny_campaign()
    runner = CampaignRunner(tmp_path / "camp")
    inbox = tmp_path / "inbox"

    submitted = runner.submit(spec, inbox)
    assert len(submitted) == 2
    # resubmitting an unchanged campaign recreates the same file names
    assert runner.submit(spec, inbox) == submitted

    JobDirectoryService(inbox, cache_dir=tmp_path / "cache").run_once()
    folded = runner.collect(spec, inbox)
    assert folded == {"collected": 2, "pending": 0}

    # every cell settled from the farm: the local run executes nothing
    summary = runner.run(spec)
    assert summary["executed"] == 0 and summary["resumed"] == 2
    assert (tmp_path / "camp" / "report.json").exists()


def test_campaign_collect_requires_an_inbox(tmp_path):
    from repro.exceptions import ReproError

    with pytest.raises(ReproError):
        CampaignRunner(tmp_path / "camp").collect(tiny_campaign(), tmp_path)


# --------------------------------------------------------------------------- #
# the CLI front door
# --------------------------------------------------------------------------- #
def test_cli_campaign_run_status_report(tmp_path, capsys):
    path = save_campaign(tiny_campaign(), tmp_path / "study.json")

    assert cli_main(["campaign", "status", str(path)]) == 0
    assert "0/2 cell(s) settled" in capsys.readouterr().out

    assert cli_main(["campaign", "run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "executed 2 cell(s), resumed 0" in out
    assert "trajectory +1 line" in out
    campaign_dir = tmp_path / "study.campaign"
    assert (campaign_dir / "report.json").exists()

    # the resumed CLI run executes zero cells
    assert cli_main(["campaign", "run", str(path)]) == 0
    assert "executed 0 cell(s), resumed 2" in capsys.readouterr().out

    assert cli_main(["campaign", "report", str(path)]) == 0
    assert "report " in capsys.readouterr().out


def test_cli_campaign_malformed_spec_is_one_line_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x"}')  # no axes
    assert cli_main(["campaign", "run", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err

    bad.write_text("{not json")
    assert cli_main(["campaign", "status", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error:")

    assert cli_main(["campaign", "run", str(tmp_path / "missing.json")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_cli_error_paths_are_consistent(tmp_path, capsys):
    """campaign / refine / gap / failures share the one-line diagnostic shape."""
    bad = tmp_path / "bad_design.json"
    bad.write_text("{torn")
    for argv in (
        ["campaign", "run", str(bad)],
        ["refine", str(bad)],
        ["gap", str(bad)],
        ["failures", str(bad)],
        ["worst-case", str(bad)],
    ):
        assert cli_main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error:"), argv
        assert len(captured.err.strip().splitlines()) == 1, argv
