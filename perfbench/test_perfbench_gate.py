"""The benchmark's gate must gate: bad outputs count as failed operations.

Run with ``python -m pytest perfbench -q`` from the repository root.  The
workloads run here at a reduced size (one design, two files or three
events), with the same code the timed runs use.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from workloads import MonitorRepair, OpClock, ServeHits, probe_script  # noqa: E402

SEED = 7


def _serve(tmp_path, pinned=None):
    workload = ServeHits(SEED, tmp_path / "work", OpClock(), pinned=pinned)
    workload.designs, workload.files_per_pass = 1, 2
    workload.prepare()
    return workload


def test_outputs_matching_the_pinned_digest_pass(tmp_path):
    first = _serve(tmp_path / "a")
    first.run_pass()
    first.run_pass()
    assert (first.attempted, first.failed) == (4, 0)
    assert first.gate.digests[0] == first.gate.digests[1]

    pinned = _serve(tmp_path / "b", pinned=first.gate.digests[0])
    pinned.run_pass()
    assert (pinned.attempted, pinned.failed) == (2, 0)


def test_perturbed_digest_counts_every_operation_failed(tmp_path):
    reference = _serve(tmp_path / "a")
    reference.run_pass()
    digest = reference.gate.digests[0]
    perturbed = digest[:-1] + ("0" if digest[-1] != "0" else "1")

    workload = _serve(tmp_path / "b", pinned=perturbed)
    workload.run_pass()
    assert workload.failed == workload.attempted == 2
    assert workload.gate.reasons == {"pinned digest mismatch": 2}


def test_corrupted_mapping_is_caught_by_the_referee(tmp_path):
    from repro.io.serialization import mapping_fingerprint, mapping_result_from_dict

    workload = _serve(tmp_path)
    entry, = workload.cache_dir.glob("*.json")
    envelope = json.loads(entry.read_text())
    mapping = envelope["payload"]["mapping"]
    # give a flow the slots another flow of its use case holds on a shared link
    collided = False
    for flows in mapping["use_cases"].values():
        held = {}
        for flow in flows:
            for link, slots in flow["slots"].items():
                if link in held and slots and not collided:
                    flow["slots"][link] = list(held[link])
                    collided = True
                held.setdefault(link, slots)
    assert collided
    # keep the payload self-consistent so only validate_mapping can object
    envelope["payload"]["fingerprint"] = mapping_fingerprint(
        mapping_result_from_dict(mapping))
    entry.write_text(json.dumps(envelope))

    workload.run_pass()
    assert workload.failed == workload.attempted == 2
    assert workload.gate.reasons == {"validate_mapping issue": 2}


def test_probe_script_changes_state_every_step_with_at_most_two_links_down():
    from repro.gen.recipes import workload_recipe
    from repro.jobs.spec import UseCaseSource

    generator, mesh = workload_recipe("mesh4x4_spread24")
    design = UseCaseSource(generator=generator).build()
    steps = probe_script(random.Random(0), design, mesh, events=60)
    previous = {"failures": {"links": [], "switches": []}, "traffic": []}
    for step in steps:
        assert step != previous
        assert len(step["failures"]["links"]) <= 4  # two bidirectional links
        previous = step


def test_monitor_pass_settles_every_event(tmp_path):
    workload = MonitorRepair(SEED, tmp_path, OpClock())
    workload.designs, workload.events = 1, 3
    workload.prepare()
    workload.run_pass()
    assert (workload.attempted, workload.failed) == (3, 0)
    assert len(workload.clock.latencies) == 3


def test_benchmark_without_program_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "serve_hits",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
